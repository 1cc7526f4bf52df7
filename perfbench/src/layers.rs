//! Single-layer timings for the traced run: each times one public entry
//! point alone on a workload's own data, repeated until the measurement
//! spans at least [`MIN_TIMED`].

use crate::trace::Tracer;
use memdos_attacks::AttackKind;
use memdos_core::config::SdsParams;
use memdos_core::detector::{Detector, Observation, ObservationBatch};
use memdos_core::profile::{Profiler, ProfilerConfig};
use memdos_core::sds::Sds;
use memdos_metrics::binary::BinDecoder;
use memdos_metrics::experiment::{CapturedRun, ExperimentConfig, StageConfig};
use memdos_metrics::jsonl::{parse_record_borrowed, RawParse};
use memdos_sim::fleet::{FleetConfig, FleetGenerator};
use memdos_workloads::catalog::Application;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest span a single-layer timing may cover.
pub const MIN_TIMED: Duration = Duration::from_millis(250);

/// Runs `f` until [`MIN_TIMED`] has passed (at least once) and returns
/// the mean ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < MIN_TIMED {
        f();
        calls += 1;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// `parse_record_borrowed` alone over `lines`: ns per record, and the
/// number of lines it did not accept as a record.
pub fn jsonl_decode(lines: &[String], tracer: &mut Tracer) -> (f64, usize) {
    let rejected = lines
        .iter()
        .filter(|l| !matches!(parse_record_borrowed(l), RawParse::Record(_)))
        .count();
    let span = tracer.enter("metrics.parse_record_borrowed", lines.len() as u64);
    let ns = ns_per_call(|| {
        for line in lines {
            black_box(parse_record_borrowed(black_box(line)));
        }
    });
    tracer.exit(span);
    (ns / lines.len().max(1) as f64, rejected)
}

/// What one `BinDecoder` pass over a stream yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinDecode {
    /// ns per decoded frame.
    pub ns_per_frame: f64,
    /// Frames decoded (defines included).
    pub frames: u64,
    /// Spans recovered by resynchronisation.
    pub resynced: u64,
}

/// `BinDecoder` alone over `bytes` (after its preamble), fed in 64 KiB
/// chunks the way a buffered reader delivers them.
pub fn binary_decode(bytes: &[u8], tracer: &mut Tracer) -> BinDecode {
    let body = bytes
        .get(memdos_metrics::binary::MAGIC.len()..)
        .unwrap_or(&[]);
    let decode = |frames_out: &mut Vec<memdos_metrics::binary::BinFrame>| {
        let mut dec = BinDecoder::new();
        for chunk in body.chunks(64 << 10) {
            dec.push_bytes(chunk);
            dec.drain_into(frames_out);
            black_box(frames_out.len());
            frames_out.clear();
        }
        black_box(dec.finish());
        (dec.frames(), dec.resynced())
    };
    let mut buf = Vec::new();
    let (frames, resynced) = decode(&mut buf);
    let span = tracer.enter("metrics.bin_decoder", frames);
    let ns = ns_per_call(|| {
        black_box(decode(&mut buf));
    });
    tracer.exit(span);
    BinDecode {
        ns_per_frame: ns / frames.max(1) as f64,
        frames,
        resynced,
    }
}

/// `Sds` stepped directly over one tenant's columns: Stage-1 profiling
/// (observe, finish, arm) over the first `profile_ticks` samples and
/// columnar monitoring (`step_batch`) over the rest. Returns ns per
/// sample of each.
///
/// # Errors
///
/// A profile or detector construction error.
pub fn core_step(
    access: &[f64],
    miss: &[f64],
    profile_ticks: usize,
    params: SdsParams,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let n = access.len().min(miss.len());
    if profile_ticks == 0 || profile_ticks >= n {
        return Err(format!(
            "{n} samples cannot cover a {profile_ticks}-sample profile"
        ));
    }
    let profile = || -> Result<Sds, String> {
        let mut p = Profiler::new(ProfilerConfig {
            sds: params,
            ..ProfilerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        for (&a, &m) in access.iter().zip(miss).take(profile_ticks) {
            p.observe(Observation {
                access_num: a,
                miss_num: m,
            });
        }
        let profile = p.finish().map_err(|e| e.to_string())?;
        Sds::from_profile(&profile, &params).map_err(|e| e.to_string())
    };
    profile()?;
    let span = tracer.enter("core.profile", profile_ticks as u64);
    let profile_ns = ns_per_call(|| {
        black_box(profile().is_ok());
    });
    tracer.exit(span);
    // Every monitoring pass starts from a freshly armed detector, so each
    // steps the same state sequence; only the stepping is timed.
    let batch = ObservationBatch::new(&access[profile_ticks..n], &miss[profile_ticks..n]);
    let mut out = Vec::with_capacity(batch.len());
    let span = tracer.enter("core.monitor", batch.len() as u64);
    let t0 = Instant::now();
    let (mut stepping, mut passes) = (Duration::ZERO, 0u32);
    while passes == 0 || t0.elapsed() < MIN_TIMED {
        let mut sds = profile()?;
        out.clear();
        let t = Instant::now();
        sds.step_batch(batch, &mut out);
        stepping += t.elapsed();
        black_box((out.len(), sds.alarm_active()));
        passes += 1;
    }
    tracer.exit(span);
    let monitor_ns = stepping.as_nanos() as f64 / f64::from(passes);
    Ok((
        profile_ns / profile_ticks as f64,
        monitor_ns / batch.len().max(1) as f64,
    ))
}

/// `FleetGenerator` alone over `configs`: ns per generated item.
///
/// # Errors
///
/// An invalid config.
pub fn fleet_generate(configs: &[FleetConfig], tracer: &mut Tracer) -> Result<f64, String> {
    let templates = memdos_engine::fleet::fleet_templates();
    for c in configs {
        c.validate()?;
    }
    let mut items = 0u64;
    let span = tracer.enter("sim.fleet_generate", 0);
    let ns = ns_per_call(|| {
        items = 0;
        for c in configs {
            if let Ok(mut g) = FleetGenerator::new(*c, &templates) {
                items += g.drive(&templates, |i| {
                    black_box(i);
                });
            }
        }
    });
    tracer.exit(span);
    Ok(ns / items.max(1) as f64)
}

/// `capture_grid` alone: ns per captured tick, and the captured runs.
/// One call per measurement — a grid capture runs far longer than
/// [`MIN_TIMED`].
pub fn capture(
    base: &ExperimentConfig,
    apps: &[Application],
    attacks: &[AttackKind],
    stages: StageConfig,
    workers: usize,
    tracer: &mut Tracer,
) -> (f64, Vec<CapturedRun>) {
    let span = tracer.enter("runner.capture_grid", 0);
    let t0 = Instant::now();
    let runs = memdos_runner::capture_grid(base, apps, attacks, stages, 1, workers);
    let ns = t0.elapsed().as_nanos() as f64;
    tracer.exit(span);
    let ticks: usize = runs.iter().map(|r| r.observations.len()).sum();
    (ns / ticks.max(1) as f64, runs)
}
