//! Golden logs: the full event log of five pinned streams, fixed by its
//! FNV-1a-64 digest and line count (the `engine_stats` trailer from
//! `finish()` included), at worker counts 1 and 2 with the profiler
//! off.
//!
//! The worker-invariance suites prove that the log does not depend on
//! the worker count; this file proves that it does not depend on the
//! *code version* either. A refactor of the flush path, the session
//! stepping or the renderer that keeps these digests keeps the verdict
//! log byte for byte. A change that moves one on purpose (a new event
//! field, a changed detector default) must re-pin it here and say why.

mod common;

use common::{dirty_reader_stream, CHAOS_LAYOUT};
use memdos_engine::chaos::{FaultPlan, FaultPlanConfig};
use memdos_engine::demo::{demo_engine_config, demo_jsonl, LAYOUT};
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{fleet_engine_config, fleet_jsonl, fleet_scenario};
use memdos_engine::protocol::Record;
use memdos_engine::respond::{
    respond_engine_config, respond_scenario, run_respond, RespondScenario,
};
use memdos_engine::soak::scenario_engine_config;
use memdos_engine::Config;
use memdos_metrics::binary::Encoder;
use memdos_metrics::jsonl::DEFAULT_MAX_LINE;
use std::io::BufReader;
use std::sync::OnceLock;

/// Worker counts every golden log is checked at.
const WORKERS: [usize; 2] = [1, 2];

/// 64-bit FNV-1a over the log as the CLI writes it: each line followed
/// by a newline.
fn digest(log: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in log {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_golden(name: &str, workers: usize, log: &[String], want: (u64, usize)) {
    let got = (digest(log), log.len());
    assert_eq!(
        got, want,
        "{name} at workers={workers}: (digest, lines) = ({:#018x}, {})",
        got.0, got.1
    );
    let trailer = log.last().map(String::as_str).unwrap_or("");
    assert!(trailer.contains(r#""event":"engine_stats""#), "{name}: trailer missing");
}

/// Feeds `lines` one by one and finishes.
fn replay_lines(config: Config, lines: &[String]) -> Vec<String> {
    let mut engine = Engine::new(config).expect("config is valid");
    for line in lines {
        engine.ingest_line(line);
    }
    engine.finish();
    engine.log_lines().to_vec()
}

fn demo_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| demo_jsonl(7, &LAYOUT, 2))
}

fn demo_config(workers: usize) -> Config {
    Config { prof: false, ..demo_engine_config(workers) }
}

#[test]
fn demo_stream_log_is_pinned() {
    for workers in WORKERS {
        let log = replay_lines(demo_config(workers), demo_lines());
        assert_golden("demo", workers, &log, DEMO);
    }
}

#[test]
fn binary_demo_stream_log_is_pinned() {
    let mut enc = Encoder::new();
    let mut bytes = Vec::new();
    for line in demo_lines() {
        match Record::parse(line).expect("demo line parses") {
            Record::Sample { tenant, obs } => {
                enc.sample(&tenant, obs.access_num, obs.miss_num, &mut bytes)
                    .expect("demo tenant encodes");
            }
            Record::Close { tenant } => enc.close(&tenant, &mut bytes).expect("demo tenant encodes"),
        }
    }
    for workers in WORKERS {
        let mut engine = Engine::new(demo_config(workers)).expect("config is valid");
        engine.ingest_reader(&bytes[..]).expect("in-memory reader");
        engine.finish();
        assert_golden("binary demo", workers, engine.log_lines(), BINARY_DEMO);
    }
}

#[test]
fn fleet_stream_log_is_pinned() {
    let lines = fleet_jsonl(&fleet_scenario(1_000, 7)).expect("fleet scenario is valid");
    for workers in WORKERS {
        let config = Config { prof: false, ..fleet_engine_config(workers, 0) };
        let log = replay_lines(config, &lines);
        assert_golden("fleet", workers, &log, FLEET);
    }
}

#[test]
fn chaos_stream_log_is_pinned() {
    let clean = demo_jsonl(0xC0DE, &CHAOS_LAYOUT, 2);
    let (chaotic, trace) =
        FaultPlan::apply(7, FaultPlanConfig::chaos(), &clean).expect("chaos rates are valid");
    assert!(trace.total() > 0);
    for workers in WORKERS {
        let config = Config { prof: false, ..scenario_engine_config(workers, &CHAOS_LAYOUT) };
        let log = replay_lines(config, &chaotic);
        assert_golden("chaos", workers, &log, CHAOS);
    }
}

/// Feeds `bytes` to [`Engine::ingest_reader`] — as one in-memory slice
/// (`None`) or through a `BufReader` of capacity `k` — and finishes.
/// Returns the log and the physical-line count the reader reported.
fn replay_reader(config: Config, bytes: &[u8], feed: Option<usize>) -> (Vec<String>, u64) {
    let mut engine = Engine::new(config).expect("config is valid");
    let lines = match feed {
        None => engine.ingest_reader(bytes),
        Some(k) => engine.ingest_reader(BufReader::with_capacity(k, bytes)),
    }
    .expect("in-memory reader");
    engine.finish();
    (engine.log_lines().to_vec(), lines)
}

#[test]
fn dirty_reader_stream_log_is_pinned_at_every_read_size() {
    let bytes = dirty_reader_stream();
    for workers in WORKERS {
        let config = Config { prof: false, ..scenario_engine_config(workers, &CHAOS_LAYOUT) };
        let (_, reference_lines) = replay_reader(config, &bytes, None);
        for feed in [None, Some(1), Some(7), Some(4096)] {
            let (log, lines) = replay_reader(config, &bytes, feed);
            assert_eq!(lines, reference_lines, "physical lines at feed {feed:?}");
            assert_golden(&format!("dirty reader {feed:?}"), workers, &log, DIRTY_READER);
        }
    }
}

/// A sample record for `tenant`, padded with an ignored string field to
/// exactly `len` bytes.
fn padded_record(tenant: &str, len: usize) -> Vec<u8> {
    let head = format!(r#"{{"tenant":"{tenant}","access":1,"miss":2,"pad":""#);
    let mut line = head.into_bytes();
    line.resize(len - 2, b'x');
    line.extend_from_slice(b"\"}");
    line
}

#[test]
fn line_cap_applies_to_the_full_line_at_every_read_size() {
    let mut bytes = Vec::new();
    for line in [
        br#"{"tenant":"vm-0","access":1,"miss":2}"#.to_vec(),
        padded_record("vm-big", 102_446),
        br#"{"tenant":"vm-1","access":1,"miss":2}"#.to_vec(),
        padded_record("vm-fit", DEFAULT_MAX_LINE),
        padded_record("vm-over", DEFAULT_MAX_LINE + 1),
        br#"{"tenant":"vm-2","access":1,"miss":2}"#.to_vec(),
    ] {
        bytes.extend_from_slice(&line);
        bytes.push(b'\n');
    }
    let opened = |log: &[String], tenant: &str| {
        let tenant = format!(r#""tenant":"{tenant}""#);
        log.iter().any(|l| l.contains(r#""event":"opened""#) && l.contains(&tenant))
    };
    for feed in [None, Some(1), Some(8_192)] {
        let (log, lines) = replay_reader(Config::default(), &bytes, feed);
        assert_eq!(lines, 6, "feed {feed:?}");
        let malformed: Vec<&String> =
            log.iter().filter(|l| l.contains(r#""event":"malformed""#)).collect();
        assert_eq!(malformed.len(), 2, "feed {feed:?}: {malformed:?}");
        assert!(malformed[0].contains(r#""bytes":102446"#), "feed {feed:?}: {}", malformed[0]);
        assert!(malformed[1].contains(r#""bytes":65537"#), "feed {feed:?}: {}", malformed[1]);
        for tenant in ["vm-0", "vm-1", "vm-fit", "vm-2"] {
            assert!(opened(&log, tenant), "feed {feed:?}: {tenant} lost");
        }
        for tenant in ["vm-big", "vm-over"] {
            assert!(!opened(&log, tenant), "feed {feed:?}: oversized {tenant} accepted");
        }
    }
}

#[test]
fn respond_loop_log_is_pinned() {
    let scenario = respond_scenario(RespondScenario::TrueAttacker, 6, 42);
    for workers in WORKERS {
        let config = Config { prof: false, ..respond_engine_config(workers) };
        let report = run_respond(&scenario, config, None).expect("respond scenario is valid");
        assert_golden("respond", workers, &report.log, RESPOND);
    }
}

// `(digest, lines)` of each stream's full log. The binary re-encoding
// of the demo stream replays to the same log as its JSONL original.
const DEMO: (u64, usize) = (0x9d48_2cf5_c2f4_9ba9, 40);
const BINARY_DEMO: (u64, usize) = (0x9d48_2cf5_c2f4_9ba9, 40);
const FLEET: (u64, usize) = (0x7f72_c8d7_43f9_73fc, 1_379);
const CHAOS: (u64, usize) = (0xb94b_7eb9_ce20_3eba, 75);
const RESPOND: (u64, usize) = (0x5c64_5232_c9e7_8f0d, 25);
// The dirty chaos stream through `ingest_reader`, whatever the read
// size.
const DIRTY_READER: (u64, usize) = (0x7b02_4029_fab3_79ca, 82);
