//! The two engine workloads.
//!
//! * `monitor-ticks` — 1,000 long-lived tenants, every one sampling
//!   every tick; each tick goes in as JSONL through one
//!   `Engine::ingest_reader` call (one flush per PCM period), generated
//!   untimed just before it is handed over.
//! * `churn-bin` — the `fleet_scenario(50_000)` churn fleet under a
//!   16,384-session ceiling, plus a small attacked cohort, as one binary
//!   stream through one `ingest_reader` call.
//!
//! A pass builds a fresh engine at the CLI's default worker count, feeds
//! the whole input closed-loop, calls `finish`, and copies every log
//! line to a byte sink. Program time is the time inside those calls.

use crate::alloc;
use crate::detect::{self, LogFacts, Score, TickIndex};
use crate::feed::{self, ByteSink, ChurnInput, JsonlRenderer, PacedReader, TickFeed};
use crate::layers;
use crate::measure::{self, Report};
use crate::trace::{layer_self_ns, Tracer};
use memdos_engine::engine::{Engine, EngineStats};
use memdos_engine::fleet::{fleet_engine_config, fleet_sds_params, FLEET_PROFILE_TICKS};
use memdos_engine::Config;
use memdos_metrics::binary::Encoder;
use memdos_metrics::experiment::{ExperimentConfig, StageConfig};
use memdos_metrics::jsonl::JsonObject;
use memdos_sim::fleet::FleetEventKind;
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::time::{Duration, Instant};

/// Tenants of `monitor-ticks`.
pub const MONITOR_TENANTS: u32 = 1_000;
/// Ticks of `monitor-ticks`.
pub const MONITOR_TICKS: u64 = 2_048;
/// The `churn-bin` open-session ceiling.
pub const CHURN_CEILING: usize = 16_384;
/// Engine workers of the timed passes. A pool hands every flush to its
/// worker threads and waits for them, so on a host with as many vCPUs
/// as workers a tick's time mostly measures how fast the OS wakes them:
/// over five seeds of `monitor-ticks` on 2 vCPUs, `tick_p99_us` spread
/// 28 % (IQR ÷ median) at 2 workers and 12.5 % at 1, and 2 workers ran
/// slower than 1. The traced run measures the pooled path against this
/// one (`runner.pool_speedup`).
pub const TIMED_WORKERS: usize = 1;
/// Timed passes a run makes at the least, however short `--seconds`.
const MIN_TIMED_PASSES: usize = 3;
/// Buffered sink capacity, like a block-buffered stdout.
const SINK_BUF: usize = 64 << 10;

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `monitor-ticks`.
    MonitorTicks,
    /// `churn-bin`.
    ChurnBin,
}

/// How to run one pass.
#[derive(Debug, Clone, Copy)]
struct PassOpts {
    workers: usize,
    /// Collect the engine's stage counters (`Config::prof`).
    prof: bool,
    /// Scan the log for arming, alarms and accuracy.
    analyse: bool,
}

/// Live heap attributed to the engine at end of input.
#[derive(Debug, Clone, Copy)]
struct Live {
    /// Live bytes the engine added, minus the event log's strings.
    engine_bytes: f64,
    /// Open sessions at that point.
    sessions: usize,
    /// `Engine::resident_bytes()` at that point.
    estimate: usize,
}

/// Accuracy facts of one analysed pass.
#[derive(Debug)]
struct Analysis {
    facts: LogFacts,
    score: Score,
    population: usize,
    /// Members of the population that logged `profile_ready`.
    population_armed: usize,
    unmapped: usize,
    seqs_ok: bool,
}

/// What feeding one pass measured.
#[derive(Debug)]
struct Fed {
    /// Whole pass, set-up to the last byte copied.
    wall_s: f64,
    /// Inside `ingest_reader` and `finish`.
    call_ns: u64,
    /// Copying log lines to the sink.
    sink_ns: u64,
    tick_us: Vec<f64>,
    samples: u64,
    call_allocs: u64,
    log_bytes: u64,
    live: Live,
}

/// One pass over a workload's input: what feeding it measured, and what
/// its log and the engine's counters say.
#[derive(Debug)]
struct Pass {
    fed: Fed,
    records: u64,
    digest: u64,
    events: u64,
    stats: EngineStats,
    opened: usize,
    open_at_end: usize,
    /// The `engine_stats` trailer.
    trailer: Option<JsonObject>,
    analysis: Option<Analysis>,
    /// The input matched its reference encoding, where the pass checked.
    input_ok: bool,
}

impl Pass {
    fn program_s(&self) -> f64 {
        (self.fed.call_ns + self.fed.sink_ns) as f64 / 1e9
    }

    fn failed(&self) -> u64 {
        self.stats.malformed + self.stats.drops_backpressure
    }
}

/// Heap held by the event log's strings (the log is output, not session
/// state).
pub fn log_heap(lines: &[String]) -> usize {
    lines.iter().map(String::capacity).sum::<usize>() + std::mem::size_of_val(lines)
}

fn live_now(base: i64, engine: &Engine) -> Live {
    Live {
        engine_bytes: (alloc::live_bytes() - base) as f64 - log_heap(engine.log_lines()) as f64,
        sessions: engine.open_sessions(),
        estimate: engine.resident_bytes(),
    }
}

/// The engine's stage counters from its `engine_stats` trailer, in ns:
/// decode (both wire formats), dispatch, step, merge, write. `None`
/// without the counters (`Config::prof` off).
pub fn stage_split(trailer: &JsonObject) -> Option<[f64; 5]> {
    let ns = |key: &str| trailer.get_f64(key);
    Some([
        ns("prof_decode_ns")? + ns("prof_decode_bin_ns")?,
        ns("prof_dispatch_ns")?,
        ns("prof_step_ns")?,
        ns("prof_merge_ns")?,
        ns("prof_write_ns")?,
    ])
}

/// Times `f` as a program call: wall ns and allocations inside it.
fn call<T>(
    tracer: &mut Tracer,
    name: &'static str,
    req: u64,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, u64, u64) {
    let a0 = alloc::allocations();
    let span = tracer.enter(name, req);
    let t0 = Instant::now();
    let out = f(tracer);
    let ns = t0.elapsed().as_nanos() as u64;
    tracer.exit(span);
    (out, ns, alloc::allocations() - a0)
}

fn engine_config(kind: Kind, opts: PassOpts) -> Config {
    let ceiling = match kind {
        Kind::MonitorTicks => 0,
        Kind::ChurnBin => CHURN_CEILING,
    };
    Config {
        prof: opts.prof,
        ..fleet_engine_config(opts.workers, ceiling)
    }
}

fn monitor_pass(seed: u64, opts: PassOpts, tracer: &mut Tracer) -> Result<Pass, String> {
    let t_start = Instant::now();
    let fleet_cfg = feed::monitor_fleet(MONITOR_TENANTS, MONITOR_TICKS, seed);
    let span = tracer.enter("sim.fleet_new", 0);
    let mut feed = TickFeed::new(fleet_cfg)?;
    tracer.exit(span);
    let span = tracer.enter("engine.new", 0);
    let mut engine =
        Engine::new(engine_config(Kind::MonitorTicks, opts)).map_err(|e| e.to_string())?;
    tracer.exit(span);

    let tenants = MONITOR_TENANTS as usize;
    let mut items = Vec::with_capacity(tenants);
    let mut buf = Vec::with_capacity(tenants * 128);
    let mut render = JsonlRenderer::default();
    let (mut reference, mut input_ok) = (Vec::new(), true);
    let mut tick_us = Vec::with_capacity(MONITOR_TICKS as usize);
    let mut ticks = TickIndex::new();
    let mut names = BTreeSet::new();
    let mut sink = BufWriter::with_capacity(SINK_BUF, ByteSink::default());
    let (mut samples, mut printed, mut call_ns, mut sink_ns, mut call_allocs) =
        (0u64, 0usize, 0u64, 0u64, 0u64);
    let live_base = alloc::live_bytes();
    loop {
        items.clear();
        buf.clear();
        let span = tracer.enter("sim.fleet_tick", tick_us.len() as u64);
        let next = feed.next_tick(&mut items);
        tracer.exit(span);
        let Some(tick) = next else {
            break;
        };
        let span = tracer.enter("codec.jsonl", tick);
        for item in &items {
            samples += u64::from(render.push(&mut buf, item, feed.templates()));
        }
        tracer.exit(span);
        if opts.analyse {
            // The analysed pass also encodes the tick through
            // `protocol::Record`, the reference for the fast rendering.
            reference.clear();
            for item in &items {
                let rec = feed::record(item, feed.templates(), "");
                names.insert(rec.tenant().to_string());
                feed::push_jsonl(&mut reference, &rec);
            }
            input_ok &= reference == buf;
        }
        ticks.push(tick, items.len() as u64);
        let (res, ns, allocs) = call(tracer, "engine.ingest_reader", tick, |_| {
            engine.ingest_reader(&buf[..])
        });
        res.map_err(|e| e.to_string())?;
        let (res, sns, sallocs) = call(tracer, "sink.copy", tick, |_| {
            feed::copy_log(&engine, printed, &mut sink)
        });
        printed = res.map_err(|e| e.to_string())?;
        call_ns += ns;
        sink_ns += sns;
        call_allocs += allocs + sallocs;
        tick_us.push((ns + sns) as f64 / 1e3);
    }
    let live = live_now(live_base, &engine);
    let ((), ns, allocs) = call(tracer, "engine.finish", 0, |_| engine.finish());
    let (res, sns, sallocs) = call(tracer, "sink.copy", 0, |_| {
        feed::copy_log(&engine, printed, &mut sink).and_then(|_| sink.flush())
    });
    res.map_err(|e| e.to_string())?;
    call_ns += ns;
    sink_ns += sns;
    call_allocs += allocs + sallocs;
    let fed = Fed {
        wall_s: t_start.elapsed().as_secs_f64(),
        call_ns,
        sink_ns,
        tick_us,
        samples,
        call_allocs,
        log_bytes: sink.get_ref().bytes,
        live,
    };
    let window = feed::attack_window(&fleet_cfg);
    Ok(Pass {
        input_ok,
        ..finish_pass(
            &engine,
            fed,
            &ticks,
            opts.analyse.then_some((&names, window)),
        )
    })
}

fn churn_pass(input: &ChurnInput, opts: PassOpts, tracer: &mut Tracer) -> Result<Pass, String> {
    let t_start = Instant::now();
    let span = tracer.enter("engine.new", 0);
    let mut engine = Engine::new(engine_config(Kind::ChurnBin, opts)).map_err(|e| e.to_string())?;
    tracer.exit(span);

    let mut sink = BufWriter::with_capacity(SINK_BUF, ByteSink::default());
    let live_base = alloc::live_bytes();
    let (res, mut call_ns, mut call_allocs) = call(tracer, "engine.ingest_reader", 0, |tracer| {
        let mut reader = PacedReader::new(&input.bytes, &input.chunk_ends, tracer);
        engine.ingest_reader(&mut reader).map(|_| reader.latency_us)
    });
    let tick_us = res.map_err(|e| e.to_string())?;
    let live = live_now(live_base, &engine);
    let ((), ns, allocs) = call(tracer, "engine.finish", 0, |_| engine.finish());
    call_ns += ns;
    call_allocs += allocs;
    let (res, sink_ns, sallocs) = call(tracer, "sink.copy", 0, |_| {
        feed::copy_log(&engine, 0, &mut sink).and_then(|_| sink.flush())
    });
    res.map_err(|e| e.to_string())?;
    call_allocs += sallocs;
    let fed = Fed {
        wall_s: t_start.elapsed().as_secs_f64(),
        call_ns,
        sink_ns,
        tick_us,
        samples: input.samples,
        call_allocs,
        log_bytes: sink.get_ref().bytes,
        live,
    };
    Ok(finish_pass(
        &engine,
        fed,
        &input.ticks,
        opts.analyse.then_some((&input.cohort, input.window)),
    ))
}

/// Completes a pass from its log and the engine's counters; with
/// `analyse` (the monitored population and its attack window) it also
/// scores detection.
fn finish_pass(
    engine: &Engine,
    fed: Fed,
    ticks: &TickIndex,
    analyse: Option<(&BTreeSet<String>, (u64, u64))>,
) -> Pass {
    let lines = engine.log_lines();
    let analysis = analyse.map(|(population, (from, until))| {
        let facts = LogFacts::scan(lines.iter().map(String::as_str));
        let (edges, unmapped) = detect::alarm_ticks(&facts, ticks);
        Analysis {
            score: detect::score(&edges, population, from, until),
            seqs_ok: detect::seqs_consistent(&facts, ticks.records()),
            population: population.len(),
            population_armed: population
                .iter()
                .filter(|t| facts.armed.contains(*t))
                .count(),
            unmapped,
            facts,
        }
    });
    Pass {
        fed,
        records: ticks.records(),
        digest: feed::log_digest(lines),
        events: lines.len() as u64,
        stats: engine.stats(),
        opened: engine.session_count(),
        open_at_end: engine.open_sessions(),
        trailer: lines.last().and_then(|l| JsonObject::parse(l).ok()),
        analysis,
        input_ok: true,
    }
}

/// A workload's input as its passes take it.
enum Input {
    /// `monitor-ticks` generates each tick just before it goes in.
    Monitor { seed: u64 },
    /// The whole `churn-bin` stream, built once and fed by every pass.
    Churn(ChurnInput),
}

impl Input {
    fn new(kind: Kind, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(match kind {
            Kind::MonitorTicks => Input::Monitor { seed },
            Kind::ChurnBin => {
                let span = tracer.enter("codec.churn_stream", 0);
                let input = feed::churn_input(seed)?;
                tracer.exit(span);
                Input::Churn(input)
            }
        })
    }
}

fn run_pass(input: &Input, opts: PassOpts, tracer: &mut Tracer) -> Result<Pass, String> {
    match input {
        Input::Monitor { seed } => monitor_pass(*seed, opts, tracer),
        Input::Churn(input) => churn_pass(input, opts, tracer),
    }
}

/// Set-up alone: what a pass does before its first input reaches the
/// engine.
fn setup_once(kind: Kind, seed: u64, workers: usize) -> Result<(), String> {
    let opts = PassOpts {
        workers,
        prof: false,
        analyse: false,
    };
    match kind {
        Kind::MonitorTicks => {
            let feed = TickFeed::new(feed::monitor_fleet(MONITOR_TENANTS, MONITOR_TICKS, seed))?;
            let engine = Engine::new(engine_config(kind, opts)).map_err(|e| e.to_string())?;
            std::hint::black_box((&feed, &engine));
        }
        Kind::ChurnBin => {
            let input = feed::churn_input(seed)?;
            let engine = Engine::new(engine_config(kind, opts)).map_err(|e| e.to_string())?;
            std::hint::black_box((&input, &engine));
        }
    }
    Ok(())
}

/// The output checks of an analysed pass.
fn check_analysis(kind: Kind, pass: &Pass, report: &mut Report) {
    let Some(a) = &pass.analysis else {
        report.check("log analysed", false);
        return;
    };
    if kind == Kind::MonitorTicks {
        report.check(
            "every JSONL input line matches its protocol::Record encoding",
            pass.input_ok,
        );
    }
    report.check("log lines all parse", a.facts.unparsed == 0);
    report.check("alarm indices map to input records", a.unmapped == 0);
    report.check("engine-owned indices account for every index", a.seqs_ok);
    report.check(
        "every monitored tenant reaches profile_ready",
        a.population > 0 && a.population_armed == a.population,
    );
    report.check(
        "at least one alarm fires in the attack window",
        a.score.detected > 0,
    );
    if kind == Kind::ChurnBin {
        report.check(
            "open sessions stay within the ceiling",
            pass.open_at_end <= CHURN_CEILING,
        );
        report.check("the ceiling evicts sessions", pass.stats.evicted > 0);
        report.check("no record is resynced", pass.stats.resynced == 0);
        report.check("no record is malformed", pass.stats.malformed == 0);
    }
}

/// `--trace 0`: a warm-up pass, whose log is checked and scored, then
/// timed passes until `seconds` have passed (at least
/// [`MIN_TIMED_PASSES`]). The warm-up is not timed:
/// a first pass in a fresh process also pays for first-touch heap
/// growth and pool start-up, which set-up time does not cover and a
/// long-running engine pays once.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let workers = TIMED_WORKERS;
    let mut report = Report::default();
    let mut tracer = Tracer::new(false);
    let setup_s = measure::setup_seconds(|| setup_once(kind, seed, workers))?;
    let input = Input::new(kind, seed, &mut tracer)?;
    let opts = |analyse| PassOpts {
        workers,
        prof: false,
        analyse,
    };
    let first = run_pass(&input, opts(true), &mut tracer)?;
    // The footprint of set-up plus one pass; later passes reuse heap
    // pages the first one touched, so reading it later would count the
    // repetition, not the workload.
    let peak_rss = measure::peak_rss_mib().unwrap_or(f64::NAN);
    check_analysis(kind, &first, &mut report);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_TIMED_PASSES || Instant::now() < deadline {
        passes.push(run_pass(&input, opts(false), &mut tracer)?);
    }
    report.check(
        "every pass logs byte-identical output",
        passes.iter().all(|p| p.digest == first.digest),
    );

    // Every pass feeds identical input, so tick `i` is the same work in
    // each, and its latency is its mean over the timed passes. On a
    // shared host the machine's speed swings by up to ~1.7x within
    // seconds (neighbours on the same cores and memory): one pass's
    // ticks mix a fast and a slow mode in shares that change from pass
    // to pass, so a median or minimum over ticks or passes jumps between
    // the modes, where a mean over passes moves with the shares.
    // Program time is likewise summed over all timed passes.
    let series: Vec<&[f64]> = passes.iter().map(|p| p.fed.tick_us.as_slice()).collect();
    let ticks = measure::elementwise_mean(&series);
    let tail = measure::summarise(&ticks).ok_or("no tick latencies")?;
    let program_s: f64 = passes.iter().map(Pass::program_s).sum();
    let samples_per_s = passes.iter().map(|p| p.fed.samples).sum::<u64>() as f64 / program_s;
    let score = first
        .analysis
        .as_ref()
        .map(|a| a.score)
        .ok_or("first pass not analysed")?;
    report.attempted = first.records + passes.iter().map(|p| p.records).sum::<u64>();
    report.failed = first.failed() + passes.iter().map(Pass::failed).sum::<u64>();
    report.metric("setup_s", setup_s, "s");
    report.metric("samples_per_s", samples_per_s, "samples/s");
    report.metric("tick_p50_us", tail.p50, "us");
    report.metric("tick_p99_us", tail.tail, "us");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("recall", score.recall, "ratio");
    report.metric("specificity", score.specificity, "ratio");
    report.metric("detect_delay_s", score.delay_s.unwrap_or(f64::NAN), "s");
    eprintln!(
        "perfbench: {} timed passes; tick latency (mean over the passes): {} ticks, p50 {:.1} us, p{:.2} {:.1} us; \
         {} of {} tenants detected",
        passes.len(),
        tail.n,
        tail.p50,
        tail.tail_p,
        tail.tail,
        score.detected,
        first.analysis.as_ref().map_or(0, |a| a.population),
    );
    Ok(report)
}

/// One tenant's `(access, miss)` columns from a monitor-shaped fleet.
fn tenant_columns(
    config: memdos_sim::fleet::FleetConfig,
    tenant: u32,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut feed = TickFeed::new(config)?;
    let (mut access, mut miss, mut items) = (Vec::new(), Vec::new(), Vec::new());
    while feed.next_tick(&mut items).is_some() {
        for item in items.drain(..).filter(|i| i.tenant == tenant) {
            if let FleetEventKind::Sample { access: a, miss: m } = item.kind {
                access.push(a);
                miss.push(m);
            }
        }
    }
    Ok((access, miss))
}

/// At most this many records go into the decode timings.
const DECODE_RECORDS: usize = 250_000;

/// The workload's records, as JSONL lines and as one binary stream
/// (the churn stream is the workload's own input).
fn decode_inputs(kind: Kind, seed: u64) -> Result<(Vec<String>, Vec<u8>), String> {
    let mut lines = Vec::new();
    let mut bytes = Vec::new();
    let mut enc = Encoder::new();
    match kind {
        Kind::MonitorTicks => {
            let mut feed =
                TickFeed::new(feed::monitor_fleet(MONITOR_TENANTS, MONITOR_TICKS, seed))?;
            let mut items = Vec::new();
            while lines.len() < DECODE_RECORDS && feed.next_tick(&mut items).is_some() {
                for item in items.drain(..) {
                    let rec = feed::record(&item, feed.templates(), "");
                    feed::push_binary(&mut enc, &mut bytes, &rec)?;
                    lines.push(rec.to_line());
                }
            }
        }
        Kind::ChurnBin => {
            feed::churn_records(seed, |_, records| {
                let room = DECODE_RECORDS.saturating_sub(lines.len());
                lines.extend(records.iter().take(room).map(|r| r.to_line()));
                Ok(())
            })?;
            bytes = feed::churn_input(seed)?.bytes;
        }
    }
    Ok((lines, bytes))
}

/// `--trace 1`: an untraced pass, a traced pass (spans plus the
/// engine's stage counters), both at [`TIMED_WORKERS`] like the timed
/// passes of `run`, a pass at the CLI's default `pool_workers`, then
/// each layer timed alone on the workload's data.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    pool_workers: usize,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let workers = TIMED_WORKERS;
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let input = Input::new(kind, seed, tracer)?;
    let opts = |workers, prof, analyse| PassOpts {
        workers,
        prof,
        analyse,
    };
    // The warm-up pass is checked and scored but not timed (see `run`).
    let warm = run_pass(&input, opts(workers, false, true), &mut off)?;
    let base = run_pass(&input, opts(workers, false, false), &mut off)?;
    let traced = run_pass(&input, opts(workers, true, false), tracer)?;
    let pooled = run_pass(&input, opts(pool_workers, false, false), &mut off)?;
    check_analysis(kind, &warm, &mut report);
    report.check(
        "the N-worker log is byte-identical to the 1-worker log",
        pooled.digest == base.digest,
    );
    report.check(
        "repeated passes log byte-identical output",
        warm.digest == base.digest,
    );
    let all = [&warm, &base, &traced, &pooled];
    report.attempted = all.iter().map(|p| p.records).sum();
    report.failed = all.iter().map(|p| p.failed()).sum();

    let samples = base.fed.samples.max(1) as f64;
    let per = |ns: f64| ns / samples;
    let stages = traced.trailer.as_ref().and_then(stage_split);
    report.check("the traced pass reports stage counters", stages.is_some());
    let stages = stages.unwrap_or([f64::NAN; 5]);
    let stage_sum: f64 = stages.iter().sum();

    let (lines, bytes) = decode_inputs(kind, seed)?;
    let (jsonl_ns, rejected) = layers::jsonl_decode(&lines, tracer);
    report.check("every decode-timing line parses as a record", rejected == 0);
    let bin = layers::binary_decode(&bytes, tracer);
    let (cohort_cfg, fleet_cfgs) = match kind {
        Kind::MonitorTicks => {
            let c = feed::monitor_fleet(MONITOR_TENANTS, MONITOR_TICKS, seed);
            (c, vec![c])
        }
        Kind::ChurnBin => {
            let (f, c) = feed::churn_configs(seed);
            (c, vec![f, c])
        }
    };
    let (access, miss) = tenant_columns(cohort_cfg, 0)?;
    let (profile_ns, monitor_ns) = layers::core_step(
        &access,
        &miss,
        FLEET_PROFILE_TICKS as usize,
        fleet_sds_params(),
        tracer,
    )?;
    let fleet_ns = layers::fleet_generate(&fleet_cfgs, tracer)?;
    // The engine workloads run no cycle simulation; capture a small
    // reference grid so the sim layer has a measured cost here too.
    let stages_ref = StageConfig {
        profile_ticks: 600,
        benign_ticks: 300,
        attack_ticks: 300,
        interval_ticks: 100,
        grace_ticks: 100,
    };
    let (capture_ns, _) = layers::capture(
        &ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        },
        &[memdos_workloads::catalog::Application::KMeans],
        &[memdos_attacks::AttackKind::BusLocking],
        stages_ref,
        pool_workers,
        tracer,
    );

    let opened = base.opened.max(1) as f64;
    let armed = warm.analysis.as_ref().map_or(0, |a| a.facts.profile_ready);
    report.metric("jsonl.decode_ns_per_record", jsonl_ns, "ns");
    report.metric("binary.decode_ns_per_frame", bin.ns_per_frame, "ns");
    report.metric("binary.frames", bin.frames as f64, "count");
    report.metric("binary.resynced", bin.resynced as f64, "count");
    report.metric("engine.decode_ns_per_sample", per(stages[0]), "ns");
    report.metric("engine.dispatch_ns_per_sample", per(stages[1]), "ns");
    report.metric("engine.step_ns_per_sample", per(stages[2]), "ns");
    report.metric("engine.merge_ns_per_sample", per(stages[3]), "ns");
    report.metric("engine.write_ns_per_sample", per(stages[4]), "ns");
    report.metric(
        "engine.call_ns_per_sample",
        per(traced.fed.call_ns as f64),
        "ns",
    );
    report.metric(
        "engine.unaccounted_ns_per_sample",
        per(traced.fed.call_ns as f64 - stage_sum),
        "ns",
    );
    report.metric("engine.opened", base.opened as f64, "count");
    report.metric("engine.evicted", base.stats.evicted as f64, "count");
    report.metric(
        "engine.evict_ratio",
        base.stats.evicted as f64 / opened,
        "ratio",
    );
    report.metric("engine.armed_ratio", armed as f64 / opened, "ratio");
    report.metric("engine.events", base.events as f64, "count");
    report.metric("engine.log_bytes", base.fed.log_bytes as f64, "bytes");
    report.metric(
        "sink.copy_ns_per_sample",
        per(traced.fed.sink_ns as f64),
        "ns",
    );
    report.metric("core.profile_ns_per_sample", profile_ns, "ns");
    report.metric("core.monitor_ns_per_sample", monitor_ns, "ns");
    report.metric(
        "alloc.per_sample",
        base.fed.call_allocs as f64 / samples,
        "count",
    );
    report.metric(
        "alloc.live_bytes_per_session",
        base.fed.live.engine_bytes / base.fed.live.sessions.max(1) as f64,
        "bytes",
    );
    report.metric(
        "engine.resident_estimate_ratio",
        base.fed.live.estimate as f64 / base.fed.live.engine_bytes,
        "ratio",
    );
    report.metric(
        "runner.pool_speedup",
        base.program_s() / pooled.program_s(),
        "ratio",
    );
    report.metric("sim.capture_ns_per_tick", capture_ns, "ns");
    report.metric("sim.fleet_ns_per_item", fleet_ns, "ns");
    report.metric(
        "trace.overhead_ratio",
        traced.fed.wall_s / base.fed.wall_s,
        "ratio",
    );
    let selfs = layer_self_ns(tracer.spans());
    eprintln!(
        "perfbench: traced pass {:.3} s vs untraced {:.3} s",
        traced.fed.wall_s, base.fed.wall_s
    );
    for (layer, ns) in &selfs {
        eprintln!(
            "perfbench:   self time {layer:<8} {:>10.3} ms",
            *ns as f64 / 1e6
        );
    }
    Ok(report)
}
