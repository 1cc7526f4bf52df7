//! `memdos-engine convert jsonl2bin`, driven through the binary: it
//! frames and decodes JSONL exactly as the engine's reader does, so it
//! skips exactly the spans a JSONL replay logs as `malformed`, and the
//! binary it writes replays without a single one.

mod common;

use common::dirty_reader_stream;
use memdos_metrics::jsonl::JsonObject;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("memdos-convert-{}-{name}", std::process::id()))
}

fn engine(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_memdos-engine"))
        .args(args)
        .env_remove("MEMDOS_THREADS")
        .output()
        .expect("memdos-engine runs");
    assert!(
        out.status.success(),
        "memdos-engine {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `malformed` counter of a replay's `engine_stats` trailer.
fn replay_malformed(path: &str) -> u64 {
    let out = engine(&["replay", path]);
    let log = String::from_utf8(out.stdout).expect("the log is UTF-8");
    let trailer = log.lines().last().expect("replay writes a log");
    let stats = JsonObject::parse(trailer).expect("the trailer is one JSON object");
    assert_eq!(stats.get_str("event"), Some("engine_stats"), "{trailer}");
    stats.get_f64("malformed").expect("engine_stats carries malformed") as u64
}

#[test]
fn jsonl2bin_skips_exactly_what_the_jsonl_replay_logs_as_malformed() {
    let jsonl = scratch("dirty.jsonl");
    let bin = scratch("dirty.bin");
    std::fs::write(&jsonl, dirty_reader_stream()).expect("scratch file is writable");
    let (jsonl, bin) = (jsonl.to_str().expect("UTF-8 path"), bin.to_str().expect("UTF-8 path"));

    let out = engine(&["convert", "jsonl2bin", jsonl, bin]);
    let summary = String::from_utf8_lossy(&out.stderr);
    // "memdos-engine: convert: jsonl2bin: N records, M spans skipped"
    let tail = summary.split_once("jsonl2bin:").map_or("", |(_, tail)| tail);
    let counts: Vec<u64> = tail
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    let [records, skipped] = counts[..] else {
        panic!("unexpected convert summary: {summary}");
    };
    assert!(records > 0 && skipped > 0, "{summary}");

    assert_eq!(replay_malformed(jsonl), skipped, "convert skipped {skipped} spans");
    assert_eq!(replay_malformed(bin), 0, "the converted binary replays clean");

    for path in [jsonl, bin] {
        let _ = std::fs::remove_file(path);
    }
}
