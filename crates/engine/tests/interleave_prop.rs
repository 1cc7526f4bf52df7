//! Seeded interleaving property for the engine's determinism contract:
//! a tenant's events depend on its own records only.
//!
//! Every case generates a stream of samples and closes per probed
//! tenant, feeds each tenant's stream to an engine of its own, then
//! feeds all of them interleaved at random with filler tenants that
//! open, speak a little and mostly close again (slab slot recycling and
//! name-index growth). Each probed tenant's event subsequence — every
//! log line naming it, with the global `seq` stripped — must be the
//! same both ways.
//!
//! The probed names share prefixes (`vm`, `vm-1`, `vm-10`, ...), and
//! five of them share one home bucket in the name index's first table
//! (pinned in `slab.rs`), so routing has to probe past collisions and
//! keep working across growth. Each tenant's own stream carries closes,
//! so it churns through reopened generations. A second mixed run adds a
//! session ceiling: an eviction is the one decision that depends on
//! other tenants' traffic, so a probed tenant the ceiling evicted must
//! match its own run up to the eviction, and one it spared must match
//! whole.
//!
//! Everything is generated from a case seed, so a failure reproduces
//! exactly.

use memdos_core::config::{SdsBParams, SdsPParams, SdsParams};
use memdos_engine::engine::Engine;
use memdos_engine::session::SessionConfig;
use memdos_engine::Config;
use memdos_metrics::jsonl::JsonObject;
use memdos_stats::rng::Rng;

/// Probed tenants: a prefix family, and five names with one home bucket
/// in the name index's first (8-bucket) table.
const PROBED: [&str; 10] = [
    "vm", "vm-1", "vm-10", "vm-100", "vm-0", "vm-3", "vm-16", "vm-31", "vm-36", "vm-",
];

const CASES: u64 = 12;

/// Session ceiling of the capped mixed run: the fillers left open pile
/// up past it, so it evicts some probed tenants and spares others.
const CEILING: usize = 24;

/// Sessions that arm after 40 samples; `batch <= queue_capacity`, so no
/// sample is lost to backpressure.
///
/// Quarantine stays off: samples that reach a quarantined session are
/// dropped by the worker while they sit in the same flush as the
/// quarantining sample and at ingest after it, and only the ingest-side
/// drops are logged, so the `dropped` events depend on where flushes
/// fall in the tenant's stream (the engine's module docs state this
/// exception to the batch-size guarantee).
fn config(workers: usize, max_sessions: usize) -> Config {
    Config {
        workers,
        batch: 16,
        max_sessions,
        session: SessionConfig {
            profile_ticks: 40,
            sds: SdsParams {
                sdsb: SdsBParams {
                    window: 20,
                    step: 1,
                    h_c: 5,
                    ..SdsBParams::default()
                },
                sdsp: SdsPParams {
                    window: 20,
                    step: 1,
                    ..SdsPParams::default()
                },
            },
            queue_capacity: 64,
            ..SessionConfig::default()
        },
        ..Config::default()
    }
}

fn sample(tenant: &str, access: u64, miss: u64) -> String {
    format!(r#"{{"tenant":"{tenant}","access":{access},"miss":{miss}}}"#)
}

fn close(tenant: &str) -> String {
    format!(r#"{{"tenant":"{tenant}","ctl":"close"}}"#)
}

/// One tenant's own records: a noisy flat access level, collapsing to a
/// fifth of it from a random tick on in half the streams, with a close
/// (and so a reopen on the next sample) now and then.
fn tenant_stream(rng: &mut Rng, tenant: &str) -> Vec<String> {
    let len = rng.range_inclusive(60, 360);
    let attack_at = if rng.chance(0.5) {
        rng.range_inclusive(50, len)
    } else {
        u64::MAX
    };
    let base = rng.range_inclusive(800, 1_200);
    let mut lines = Vec::new();
    for i in 0..len {
        if rng.chance(0.01) {
            lines.push(close(tenant));
        }
        let level = if i >= attack_at { base / 5 } else { base };
        lines.push(sample(
            tenant,
            level + rng.next_below(40),
            40 + rng.next_below(20),
        ));
    }
    if rng.chance(0.5) {
        lines.push(close(tenant));
    }
    lines
}

/// The probed streams interleaved at random, with filler tenants
/// (`vm-1/<n>`: the `vm-1` prefix, never a probed name) in between.
fn interleave(rng: &mut Rng, streams: &[Vec<String>]) -> Vec<String> {
    let mut cursors = vec![0usize; streams.len()];
    let mut mixed = Vec::new();
    let mut fillers = 0u64;
    loop {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&t| cursors[t] < streams[t].len())
            .collect();
        if live.is_empty() {
            return mixed;
        }
        if rng.chance(0.2) {
            let name = format!("vm-1/{fillers}");
            fillers += 1;
            for _ in 0..rng.range_inclusive(1, 3) {
                mixed.push(sample(&name, 1_000, 50));
            }
            if rng.chance(0.8) {
                mixed.push(close(&name));
            }
        }
        let t = live[rng.next_below(live.len() as u64) as usize];
        mixed.push(streams[t][cursors[t]].clone());
        cursors[t] += 1;
    }
}

fn run(config: Config, lines: &[String]) -> Vec<String> {
    let mut engine = Engine::new(config).unwrap();
    for line in lines {
        engine.ingest_line(line);
    }
    engine.finish();
    engine.log_lines().to_vec()
}

/// The log lines naming `tenant`, each without its leading `seq` field.
fn events_of(log: &[String], tenant: &str) -> Vec<String> {
    log.iter()
        .filter(|line| {
            JsonObject::parse(line)
                .ok()
                .and_then(|o| o.get_str("tenant").map(|t| t == tenant))
                == Some(true)
        })
        .map(|line| {
            let rest = line
                .strip_prefix(r#"{"seq":"#)
                .and_then(|r| r.split_once(','));
            format!("{{{}", rest.map_or(line.as_str(), |(_, r)| r))
        })
        .collect()
}

/// Asserts `got == want`, naming the first event where they part.
fn assert_same(got: &[String], want: &[String], what: &str) {
    if got == want {
        return;
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    panic!(
        "{what}: {} vs {} events, first difference at {at}:\n  mixed: {:?}\n  alone: {:?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    );
}

#[test]
fn tenant_events_do_not_depend_on_other_tenants_traffic() {
    let (mut evicted, mut spared, mut reopened, mut alarms) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::new(0x1E4F_0000 + case);
        let streams: Vec<Vec<String>> = PROBED
            .iter()
            .map(|name| tenant_stream(&mut rng, name))
            .collect();
        let mixed = interleave(&mut rng, &streams);
        let workers = 1 + (case % 2) as usize;
        let open_log = run(config(workers, 0), &mixed);
        let capped_log = run(config(workers, CEILING), &mixed);
        for (name, stream) in PROBED.iter().zip(&streams) {
            let alone = events_of(&run(config(1, 0), stream), name);
            assert!(!alone.is_empty(), "case {case}: {name} logged nothing");
            reopened += alone.iter().filter(|e| e.contains(r#""gen":1"#)).count();
            alarms += alone
                .iter()
                .filter(|e| e.contains(r#""to":"alarm""#))
                .count();
            assert_same(
                &events_of(&open_log, name),
                &alone,
                &format!("case {case}: {name} mixed with other tenants, no ceiling"),
            );
            let capped = events_of(&capped_log, name);
            let cut = capped.iter().position(|e| {
                e.contains(r#""event":"closed""#) && e.contains(r#""reason":"evicted""#)
            });
            match cut {
                Some(cut) => {
                    evicted += 1;
                    assert!(
                        cut <= alone.len(),
                        "case {case}: {name} evicted past its own events"
                    );
                    assert_same(
                        &capped[..cut],
                        &alone[..cut],
                        &format!("case {case}: {name} before its eviction under ceiling {CEILING}"),
                    );
                }
                None => {
                    spared += 1;
                    assert_same(
                        &capped,
                        &alone,
                        &format!("case {case}: {name} spared by ceiling {CEILING}"),
                    );
                }
            }
        }
    }
    // The cases exercise what the property is about.
    assert!(
        evicted > 0 && spared > 0,
        "evicted {evicted}, spared {spared}"
    );
    assert!(reopened > 0, "no tenant reopened");
    assert!(alarms > 0, "no tenant alarmed");
}
