//! The `paper-grid` workload: `memdos_runner::run_grid` over a compact
//! grid of the paper's Figs. 9–11 pipeline — a non-periodic app
//! (K-means), a periodic app (PCA) and TeraSort, both attacks, every
//! scheme, Table 1 detector parameters and shortened stages. The
//! streaming engine takes no part; the cycle simulation, KStest and
//! offline SDS carry the work.

use crate::alloc;
use crate::detect::T_PCM_S;
use crate::engine_runs;
use crate::feed::{self, ByteSink};
use crate::layers;
use crate::measure::{self, Report};
use crate::trace::{layer_self_ns, Tracer};
use memdos_attacks::AttackKind;
use memdos_core::CoreError;
use memdos_engine::engine::Engine;
use memdos_engine::protocol::Record;
use memdos_engine::session::SessionConfig;
use memdos_engine::Config;
use memdos_metrics::binary::Encoder;
use memdos_metrics::experiment::{CapturedRun, ExperimentConfig, Scheme, StageConfig};
use memdos_runner::CellOutcome;
use memdos_sim::rng::derive_seed;
use memdos_workloads::catalog::Application;
use std::io::Write;
use std::time::{Duration, Instant};

/// The grid's applications.
pub const APPS: [Application; 3] = [Application::KMeans, Application::Pca, Application::TeraSort];

/// Shortened stages: the profile covers several PCA periods, and the
/// attack stage outlasts SDS's Table 1 detection delay (about 15–22 s)
/// with one decision interval to spare after the grace period.
pub const STAGES: StageConfig = StageConfig {
    profile_ticks: 3_000,
    benign_ticks: 1_000,
    attack_ticks: 3_000,
    interval_ticks: 500,
    grace_ticks: 2_500,
};

/// Grid passes whose outcomes the accuracy metrics cover; each uses its
/// own seed, so the means run over 18 cells. Later passes repeat them
/// for timing.
const ACCURACY_PASSES: u64 = 3;

fn cell_count() -> u64 {
    (APPS.len() * AttackKind::ALL.len()) as u64
}

/// Simulated server ticks one grid pass runs: in each cell the passive
/// schemes share one server and KStest drives its own, and each server
/// runs all three stages.
fn pass_ticks() -> u64 {
    cell_count() * 2 * STAGES.total_ticks()
}

/// One `run_grid` call.
#[derive(Debug)]
struct GridPass {
    wall_s: f64,
    allocs: u64,
    outcomes: Result<Vec<CellOutcome>, CoreError>,
}

impl GridPass {
    /// A digest of every outcome, for identity checks between passes.
    fn digest(&self) -> String {
        format!(
            "{:?}",
            self.outcomes
                .as_ref()
                .map(|c| c.iter().map(|c| &c.outcomes).collect::<Vec<_>>())
        )
    }
}

fn base_config(seed: u64, pass: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: derive_seed(seed, pass),
        ..ExperimentConfig::default()
    }
}

/// Set-up: the experiment config and the cell list `run_grid` expands.
fn grid_setup(seed: u64, pass: u64) -> (ExperimentConfig, Vec<memdos_runner::GridCell>) {
    (
        base_config(seed, pass),
        memdos_runner::grid(&APPS, &AttackKind::ALL, 1),
    )
}

fn grid_pass(seed: u64, pass: u64, workers: usize, tracer: &mut Tracer) -> GridPass {
    let (base, grid) = grid_setup(seed, pass);
    std::hint::black_box(grid.len());
    let a0 = alloc::allocations();
    let span = tracer.enter("runner.run_grid", pass);
    let t1 = Instant::now();
    let outcomes = memdos_runner::run_grid(&base, &APPS, &AttackKind::ALL, STAGES, 1, workers);
    let wall_s = t1.elapsed().as_secs_f64();
    tracer.exit(span);
    GridPass {
        wall_s,
        allocs: alloc::allocations() - a0,
        outcomes,
    }
}

/// Mean SDS recall, specificity and detection delay over the cells of
/// `passes` — the per-cell means the paper's Figs. 9–11 plot. The delay
/// is a mean too: cell delays sit in per-app clusters about 10 s apart
/// (TeraSort ~6.5 s, K-means ~6.5 or ~16 s, PCA ~26.5 s), so a median
/// over 18 cells jumps between clusters from one seed to the next.
fn accuracy(passes: &[&GridPass]) -> (f64, f64, Option<f64>) {
    let (mut recall, mut spec, mut delays, mut n) = (0.0, 0.0, Vec::new(), 0u32);
    for pass in passes {
        for cell in pass.outcomes.iter().flatten() {
            for o in cell.outcomes.iter().filter(|o| o.scheme == Scheme::Sds) {
                let m = o.metrics_with_t_pcm(&STAGES, T_PCM_S);
                recall += m.recall;
                spec += m.specificity;
                delays.extend(m.delay_secs);
                n += 1;
            }
        }
    }
    let n = f64::from(n.max(1));
    let delay = (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64);
    (recall / n, spec / n, delay)
}

/// Effective grid width: `run_grid` clamps to the cores and the cells.
fn grid_workers(workers: usize) -> usize {
    workers
        .min(memdos_runner::cores())
        .min(cell_count() as usize)
        .max(1)
}

fn check_cells(pass: &GridPass, report: &mut Report) {
    let ok = match &pass.outcomes {
        Ok(cells) => {
            cells.len() as u64 == cell_count()
                && cells
                    .iter()
                    .all(|c| c.outcomes.iter().any(|o| o.scheme == Scheme::Sds))
        }
        Err(_) => false,
    };
    report.check("every grid cell returns Ok with an SDS outcome", ok);
}

fn failed_cells(pass: &GridPass) -> u64 {
    if pass.outcomes.is_ok() {
        0
    } else {
        cell_count()
    }
}

/// `--trace 0`: grid passes (cycling over the accuracy seeds) until
/// `seconds` have passed.
pub fn run(seed: u64, seconds: u64, workers: usize) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(false);
    let setup_s = measure::setup_seconds(|| {
        std::hint::black_box(grid_setup(seed, 0));
        Ok(())
    })?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes: Vec<GridPass> = vec![grid_pass(seed, 0, workers, &mut tracer)];
    // The footprint of set-up plus one pass, as on the engine workloads.
    let peak_rss = measure::peak_rss_mib().unwrap_or(f64::NAN);
    while (passes.len() as u64) < ACCURACY_PASSES || Instant::now() < deadline {
        let pass = passes.len() as u64 % ACCURACY_PASSES;
        passes.push(grid_pass(seed, pass, workers, &mut tracer));
    }
    for p in &passes {
        check_cells(p, &mut report);
    }
    let first: Vec<&GridPass> = passes.iter().take(ACCURACY_PASSES as usize).collect();
    let repeats_identical = passes.iter().enumerate().all(|(i, p)| {
        first
            .get(i % ACCURACY_PASSES as usize)
            .is_some_and(|f| f.digest() == p.digest())
    });
    report.check(
        "repeated passes return identical outcomes",
        repeats_identical,
    );

    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let samples_per_s = (passes.len() as u64 * pass_ticks()) as f64 / wall_s;
    // A grid call is a batch job: its per-tick figure is the worker time
    // one simulated-and-detected PCM tick took, per pass.
    let w = grid_workers(workers) as f64;
    let tick_us: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_s * 1e6 * w / pass_ticks() as f64)
        .collect();
    let tail = measure::summarise(&tick_us).ok_or("no grid pass")?;
    let (recall, specificity, delay) = accuracy(&first);
    report.attempted = passes.len() as u64 * cell_count();
    report.failed = passes.iter().map(failed_cells).sum();
    report.metric("setup_s", setup_s, "s");
    report.metric("samples_per_s", samples_per_s, "samples/s");
    report.metric("tick_p50_us", tail.p50, "us");
    report.metric("tick_p99_us", tail.tail, "us");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("recall", recall, "ratio");
    report.metric("specificity", specificity, "ratio");
    report.metric("detect_delay_s", delay.unwrap_or(f64::NAN), "s");
    eprintln!(
        "perfbench: {} grid passes of {} cells; per-tick worker time: {} samples, p50 {:.1} us, \
         p{:.2} {:.1} us",
        passes.len(),
        cell_count(),
        tail.n,
        tail.p50,
        tail.tail_p,
        tail.tail
    );
    Ok(report)
}

/// The grid's captured victim traces as one engine input stream: one
/// tenant per captured run, interleaved tick by tick, as JSONL lines.
fn replay_records(runs: &[CapturedRun]) -> Vec<Record> {
    let longest = runs.iter().map(|r| r.observations.len()).max().unwrap_or(0);
    let mut records = Vec::with_capacity(runs.len() * longest);
    for t in 0..longest {
        for (i, run) in runs.iter().enumerate() {
            if let Some(&obs) = run.observations.get(t) {
                records.push(Record::Sample {
                    tenant: format!("grid-{i:02}"),
                    obs,
                });
            }
        }
    }
    records
}

/// What the engine replay of the captured traces measured.
#[derive(Debug)]
struct Replay {
    samples: u64,
    call_ns: u64,
    sink_ns: u64,
    stages: [f64; 5],
    opened: usize,
    evicted: u64,
    events: u64,
    log_bytes: u64,
    armed: u64,
    live_bytes: f64,
    sessions: usize,
    estimate: usize,
}

/// Streams the captured grid traces through the engine (Table 1
/// sessions, profiled over Stage 1) with its stage counters on.
fn engine_replay(
    jsonl: &[u8],
    samples: u64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let config = Config {
        workers,
        prof: true,
        session: SessionConfig {
            profile_ticks: STAGES.profile_ticks,
            ..SessionConfig::default()
        },
        ..Config::default()
    };
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    let live_base = alloc::live_bytes();
    let span = tracer.enter("engine.ingest_reader", 0);
    let t0 = Instant::now();
    engine.ingest_reader(jsonl).map_err(|e| e.to_string())?;
    let mid = Instant::now();
    tracer.exit(span);
    let live_bytes =
        (alloc::live_bytes() - live_base) as f64 - engine_runs::log_heap(engine.log_lines()) as f64;
    let (sessions, estimate) = (engine.open_sessions(), engine.resident_bytes());
    let span = tracer.enter("engine.finish", 0);
    let t1 = Instant::now();
    engine.finish();
    let call_ns = (mid - t0 + t1.elapsed()).as_nanos() as u64;
    tracer.exit(span);
    let span = tracer.enter("sink.copy", 0);
    let t2 = Instant::now();
    let mut sink = std::io::BufWriter::with_capacity(64 << 10, ByteSink::default());
    feed::copy_log(&engine, 0, &mut sink)
        .and_then(|_| sink.flush())
        .map_err(|e| e.to_string())?;
    let sink_ns = t2.elapsed().as_nanos() as u64;
    tracer.exit(span);
    let stages = engine
        .log_lines()
        .last()
        .and_then(|l| memdos_metrics::jsonl::JsonObject::parse(l).ok())
        .as_ref()
        .and_then(engine_runs::stage_split)
        .ok_or("the replay log has no stage counters")?;
    let armed = engine
        .log_lines()
        .iter()
        .filter(|l| l.contains("\"event\":\"profile_ready\""))
        .count();
    Ok(Replay {
        samples,
        call_ns,
        sink_ns,
        stages,
        opened: engine.session_count(),
        evicted: engine.stats().evicted,
        events: engine.log_lines().len() as u64,
        log_bytes: sink.get_ref().bytes,
        armed: armed as u64,
        live_bytes,
        sessions,
        estimate,
    })
}

/// `--trace 1`: an untraced grid pass, a traced one, a single-worker
/// one, then each layer alone on the grid's data: the capture of the
/// grid's victim traces, an engine replay of them, their decoding, and
/// SDS stepped over one of them.
pub fn run_traced(seed: u64, workers: usize, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let base = grid_pass(seed, 0, workers, &mut off);
    let traced = grid_pass(seed, 0, workers, tracer);
    let single = grid_pass(seed, 0, 1, &mut off);
    for p in [&base, &traced, &single] {
        check_cells(p, &mut report);
    }
    report.check(
        "the 1-worker outcomes are identical to the N-worker outcomes",
        single.digest() == base.digest(),
    );
    report.attempted = 3 * cell_count();
    report.failed = [&base, &traced, &single]
        .iter()
        .map(|p| failed_cells(p))
        .sum();

    let cfg = base_config(seed, 0);
    let (capture_ns, runs) =
        layers::capture(&cfg, &APPS, &AttackKind::ALL, STAGES, workers, tracer);
    let records = replay_records(&runs);
    let mut jsonl = Vec::new();
    let mut bytes = Vec::new();
    let mut enc = Encoder::new();
    for rec in &records {
        feed::push_jsonl(&mut jsonl, rec);
        feed::push_binary(&mut enc, &mut bytes, rec)?;
    }
    let lines: Vec<String> = records.iter().map(Record::to_line).collect();
    let replay = engine_replay(
        &jsonl,
        records.len() as u64,
        engine_runs::TIMED_WORKERS,
        tracer,
    )?;
    report.check(
        "every replayed grid trace arms",
        replay.armed == runs.len() as u64,
    );
    let (jsonl_ns, rejected) = layers::jsonl_decode(&lines, tracer);
    report.check("every decode-timing line parses as a record", rejected == 0);
    let bin = layers::binary_decode(&bytes, tracer);
    let victim = runs.first().ok_or("capture_grid returned no runs")?;
    let access: Vec<f64> = victim.observations.iter().map(|o| o.access_num).collect();
    let miss: Vec<f64> = victim.observations.iter().map(|o| o.miss_num).collect();
    let (profile_ns, monitor_ns) = layers::core_step(
        &access,
        &miss,
        STAGES.profile_ticks as usize,
        cfg.sds_params,
        tracer,
    )?;
    // The grid runs no fleet; time the generator on a small monitor fleet
    // so the sim layer's fleet cost has a measured value here too.
    let fleet_ns = layers::fleet_generate(&[feed::monitor_fleet(100, 512, seed)], tracer)?;

    let per = |ns: f64| ns / replay.samples.max(1) as f64;
    let stage_sum: f64 = replay.stages.iter().sum();
    let opened = replay.opened.max(1) as f64;
    report.metric("jsonl.decode_ns_per_record", jsonl_ns, "ns");
    report.metric("binary.decode_ns_per_frame", bin.ns_per_frame, "ns");
    report.metric("binary.frames", bin.frames as f64, "count");
    report.metric("binary.resynced", bin.resynced as f64, "count");
    report.metric("engine.decode_ns_per_sample", per(replay.stages[0]), "ns");
    report.metric("engine.dispatch_ns_per_sample", per(replay.stages[1]), "ns");
    report.metric("engine.step_ns_per_sample", per(replay.stages[2]), "ns");
    report.metric("engine.merge_ns_per_sample", per(replay.stages[3]), "ns");
    report.metric("engine.write_ns_per_sample", per(replay.stages[4]), "ns");
    report.metric(
        "engine.call_ns_per_sample",
        per(replay.call_ns as f64),
        "ns",
    );
    report.metric(
        "engine.unaccounted_ns_per_sample",
        per(replay.call_ns as f64 - stage_sum),
        "ns",
    );
    report.metric("engine.opened", replay.opened as f64, "count");
    report.metric("engine.evicted", replay.evicted as f64, "count");
    report.metric(
        "engine.evict_ratio",
        replay.evicted as f64 / opened,
        "ratio",
    );
    report.metric("engine.armed_ratio", replay.armed as f64 / opened, "ratio");
    report.metric("engine.events", replay.events as f64, "count");
    report.metric("engine.log_bytes", replay.log_bytes as f64, "bytes");
    report.metric("sink.copy_ns_per_sample", per(replay.sink_ns as f64), "ns");
    report.metric("core.profile_ns_per_sample", profile_ns, "ns");
    report.metric("core.monitor_ns_per_sample", monitor_ns, "ns");
    report.metric(
        "alloc.per_sample",
        base.allocs as f64 / pass_ticks() as f64,
        "count",
    );
    report.metric(
        "alloc.live_bytes_per_session",
        replay.live_bytes / replay.sessions.max(1) as f64,
        "bytes",
    );
    report.metric(
        "engine.resident_estimate_ratio",
        replay.estimate as f64 / replay.live_bytes,
        "ratio",
    );
    report.metric("runner.pool_speedup", single.wall_s / base.wall_s, "ratio");
    report.metric("sim.capture_ns_per_tick", capture_ns, "ns");
    report.metric("sim.fleet_ns_per_item", fleet_ns, "ns");
    report.metric("trace.overhead_ratio", traced.wall_s / base.wall_s, "ratio");
    eprintln!(
        "perfbench: grid pass {:.3} s traced vs {:.3} s untraced; 1 worker {:.3} s",
        traced.wall_s, base.wall_s, single.wall_s
    );
    for (layer, ns) in &layer_self_ns(tracer.spans()) {
        eprintln!(
            "perfbench:   self time {layer:<8} {:>10.3} ms",
            *ns as f64 / 1e6
        );
    }
    Ok(report)
}
