//! Detection accuracy from the engine's event log: which tenants armed,
//! which alarms fired, and at which generator tick.
//!
//! The log names each event's arrival index (`seq`). An input record
//! consumes one index, but the engine also allocates indices of its own
//! (evictions, idle closes, mitigation events, the stats trailer), so
//! the record an index belongs to is the index minus the engine-owned
//! indices below it ([`SeqMap`]). The record's position in the input
//! then gives its generator tick ([`TickIndex`]).

use memdos_metrics::jsonl::JsonObject;
use std::collections::{BTreeMap, BTreeSet};

/// PCM sampling period the workloads assume (T_PCM = 10 ms).
pub const T_PCM_S: f64 = 0.01;

/// The verdict label of a raised alarm: the detection condition fully
/// satisfied. `suspicious` (a streak below the threshold) does not
/// count — single deviations raise it for nearly every tenant during
/// benign monitoring.
const ALARM: &str = "alarm";

/// Close reasons the engine decides itself, under an index of its own.
const ENGINE_CLOSES: [&str; 4] = ["idle", "evicted", "released", "escalated"];

/// One detector's alarm turning on (`raised`) or off, at `at` (an
/// arrival index in the log, a generator tick once mapped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge<T> {
    /// Tenant name.
    pub tenant: String,
    /// Detector name (a session may run several).
    pub detector: String,
    /// When.
    pub at: T,
    /// Whether the alarm turned on (else off).
    pub raised: bool,
}

/// What the benchmark needs from one event log.
#[derive(Debug, Default)]
pub struct LogFacts {
    /// `profile_ready` events (one per armed incarnation).
    pub profile_ready: u64,
    /// Tenants that logged `profile_ready`.
    pub armed: BTreeSet<String>,
    /// Every verdict that raises or clears an alarm, in log order.
    pub alarm_edges: Vec<Edge<u64>>,
    /// Indices the engine allocated for its own events, ascending.
    pub engine_seqs: Vec<u64>,
    /// The `engine_stats` trailer, if present.
    pub stats: Option<JsonObject>,
    /// Lines that did not parse as a JSON object with a `seq`.
    pub unparsed: u64,
}

impl LogFacts {
    /// Scans a log, one JSON object per line.
    pub fn scan<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut facts = LogFacts::default();
        for line in lines {
            let Ok(obj) = JsonObject::parse(line) else {
                facts.unparsed += 1;
                continue;
            };
            let Some(seq) = obj.get_f64("seq").map(|s| s as u64) else {
                facts.unparsed += 1;
                continue;
            };
            let tenant = obj.get_str("tenant").unwrap_or("");
            match obj.get_str("event").unwrap_or("") {
                "profile_ready" => {
                    facts.profile_ready += 1;
                    facts.armed.insert(tenant.to_string());
                }
                "verdict" => {
                    let (from, to) = (obj.get_str("from"), obj.get_str("to"));
                    if (from == Some(ALARM)) != (to == Some(ALARM)) {
                        facts.alarm_edges.push(Edge {
                            tenant: tenant.to_string(),
                            detector: obj.get_str("detector").unwrap_or("").to_string(),
                            at: seq,
                            raised: to == Some(ALARM),
                        });
                    }
                }
                "closed" if ENGINE_CLOSES.contains(&obj.get_str("reason").unwrap_or("")) => {
                    facts.engine_seqs.push(seq);
                }
                "engine_stats" => {
                    facts.engine_seqs.push(seq);
                    facts.stats = Some(obj);
                }
                e if e.starts_with("mitigation_") => facts.engine_seqs.push(seq),
                _ => {}
            }
        }
        facts.engine_seqs.sort_unstable();
        facts
    }
}

/// Maps an arrival index to the input record that carried it.
#[derive(Debug, Clone, Copy)]
pub struct SeqMap<'a> {
    engine_seqs: &'a [u64],
}

impl<'a> SeqMap<'a> {
    /// A map over the engine-owned indices (ascending).
    pub fn new(engine_seqs: &'a [u64]) -> Self {
        SeqMap { engine_seqs }
    }

    /// The 0-based input record `seq` belongs to; `None` for an
    /// engine-owned index.
    pub fn record(&self, seq: u64) -> Option<u64> {
        let below = self.engine_seqs.partition_point(|&s| s < seq);
        if self.engine_seqs.get(below) == Some(&seq) {
            return None;
        }
        Some(seq - below as u64)
    }
}

/// Record index → generator tick, from the first record of every tick.
#[derive(Debug, Clone, Default)]
pub struct TickIndex {
    /// `starts[t]` is the index of tick `t`'s first record; ticks with no
    /// records repeat the next tick's start.
    starts: Vec<u64>,
    records: u64,
}

impl TickIndex {
    /// An empty index.
    pub fn new() -> Self {
        TickIndex::default()
    }

    /// Appends `count` records belonging to `tick` (ticks ascending).
    pub fn push(&mut self, tick: u64, count: u64) {
        while (self.starts.len() as u64) <= tick {
            self.starts.push(self.records);
        }
        self.records += count;
    }

    /// Records indexed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The tick of record `record`; `None` past the end.
    pub fn tick(&self, record: u64) -> Option<u64> {
        if record >= self.records {
            return None;
        }
        let after = self.starts.partition_point(|&s| s <= record);
        Some(after.checked_sub(1)? as u64)
    }
}

/// Detection accuracy against a ground-truth attack window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Share of tenants whose alarm is on at some tick of the window.
    pub recall: f64,
    /// Share of tenants that raised no alarm before the window.
    pub specificity: f64,
    /// Median, over detecting tenants, of the delay from the window
    /// start to the first tick of the window with the alarm on (0 when
    /// it was already on), in seconds; `None` when none detected.
    pub delay_s: Option<f64>,
    /// Tenants that detected.
    pub detected: usize,
}

/// Scores alarm edges (at generator ticks, in tick order) over `tenants`
/// — the population the window applies to — against the attack window
/// `[from, until)`, with the semantics of the paper's alarm timelines:
/// a tenant detects when any of its detectors' alarms is on during the
/// window, and its delay runs to the first such tick. Edges of tenants
/// outside the population are ignored.
pub fn score(edges: &[Edge<u64>], tenants: &BTreeSet<String>, from: u64, until: u64) -> Score {
    let mut on_since: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut early: BTreeSet<&str> = BTreeSet::new();
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    // The first window tick of an alarm interval `[start, end)`, kept
    // per tenant at its minimum.
    let note = |first: &mut BTreeMap<_, u64>, tenant, start: u64, end: u64| {
        if start < until && end > from {
            let t = start.max(from);
            let f = first.entry(tenant).or_insert(t);
            *f = (*f).min(t);
        }
    };
    for e in edges.iter().filter(|e| tenants.contains(&e.tenant)) {
        let key = (e.tenant.as_str(), e.detector.as_str());
        if e.raised {
            if e.at < from {
                early.insert(&e.tenant);
            }
            on_since.entry(key).or_insert(e.at);
        } else if let Some(start) = on_since.remove(&key) {
            note(&mut first, e.tenant.as_str(), start, e.at);
        }
    }
    for ((tenant, _), start) in on_since {
        note(&mut first, tenant, start, u64::MAX);
    }
    let n = tenants.len().max(1) as f64;
    let delays: Vec<f64> = first
        .values()
        .map(|&t| (t - from) as f64 * T_PCM_S)
        .collect();
    Score {
        recall: first.len() as f64 / n,
        specificity: (tenants.len() - early.len()) as f64 / n,
        delay_s: crate::measure::median(&delays),
        detected: first.len(),
    }
}

/// Maps the log's alarm edges from arrival indices to generator ticks;
/// edges whose index maps to no record (which would be a benchmark bug)
/// are counted in the second value.
pub fn alarm_ticks(facts: &LogFacts, ticks: &TickIndex) -> (Vec<Edge<u64>>, usize) {
    let map = SeqMap::new(&facts.engine_seqs);
    let mut out = Vec::with_capacity(facts.alarm_edges.len());
    let mut unmapped = 0;
    for e in &facts.alarm_edges {
        match map.record(e.at).and_then(|r| ticks.tick(r)) {
            Some(at) => out.push(Edge { at, ..e.clone() }),
            None => unmapped += 1,
        }
    }
    (out, unmapped)
}

/// Whether the engine-owned indices account for every index: the stats
/// trailer's `seq` is the count of all indices before it, so it must
/// equal the records fed plus the engine-owned indices below it.
pub fn seqs_consistent(facts: &LogFacts, records: u64) -> bool {
    let Some(stats_seq) = facts.stats.as_ref().and_then(|s| s.get_f64("seq")) else {
        return false;
    };
    let stats_seq = stats_seq as u64;
    let owned_below = facts.engine_seqs.partition_point(|&s| s < stats_seq) as u64;
    stats_seq == records + owned_below
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tenants; the engine evicts one at index 3, so records 3.. sit
    /// one index later than their position.
    const LOG: &[&str] = &[
        r#"{"seq":0,"event":"opened","tenant":"a","gen":0}"#,
        r#"{"seq":1,"event":"opened","tenant":"b","gen":0}"#,
        r#"{"seq":2,"event":"profile_ready","tenant":"a","periodic":false}"#,
        r#"{"seq":3,"event":"closed","tenant":"c","reason":"evicted","ingested":1,"dropped":0,"alarms":0}"#,
        r#"{"seq":4,"event":"profile_ready","tenant":"b","periodic":true}"#,
        r#"{"seq":5,"event":"verdict","tenant":"a","detector":"SDS","from":"suspicious","to":"alarm","tick":1}"#,
        r#"{"seq":6,"event":"verdict","tenant":"b","detector":"SDS","from":"normal","to":"suspicious","tick":1}"#,
        r#"{"seq":7,"event":"verdict","tenant":"a","detector":"SDS","from":"alarm","to":"normal","tick":2}"#,
        r#"{"seq":8,"event":"verdict","tenant":"b","detector":"SDS","from":"suspicious","to":"alarm","tick":3}"#,
        r#"{"seq":9,"event":"verdict","tenant":"a","detector":"SDS","from":"normal","to":"alarm","tick":4}"#,
        r#"{"seq":10,"event":"engine_stats","sessions":2}"#,
    ];

    #[test]
    fn scan_collects_arming_alarms_and_engine_indices() {
        let facts = LogFacts::scan(LOG.iter().copied());
        assert_eq!((facts.profile_ready, facts.armed.len()), (2, 2));
        let edges: Vec<(&str, u64, bool)> = facts
            .alarm_edges
            .iter()
            .map(|e| (e.tenant.as_str(), e.at, e.raised))
            .collect();
        assert_eq!(
            edges,
            vec![
                ("a", 5, true),
                ("a", 7, false),
                ("b", 8, true),
                ("a", 9, true)
            ]
        );
        assert_eq!(facts.engine_seqs, vec![3, 10]);
        assert_eq!(
            facts.stats.as_ref().and_then(|s| s.get_f64("sessions")),
            Some(2.0)
        );
        assert_eq!(facts.unparsed, 0);
    }

    #[test]
    fn seq_maps_to_record_skipping_engine_indices() {
        let map = SeqMap::new(&[3, 10]);
        assert_eq!(map.record(2), Some(2));
        assert_eq!(map.record(3), None);
        assert_eq!(map.record(4), Some(3));
        assert_eq!(map.record(9), Some(8));
    }

    #[test]
    fn record_maps_to_tick_through_tick_starts() {
        let mut ticks = TickIndex::new();
        ticks.push(0, 2); // records 0, 1
        ticks.push(2, 3); // tick 1 empty; records 2, 3, 4
        ticks.push(3, 5); // records 5..=9
        assert_eq!(ticks.records(), 10);
        assert_eq!(ticks.tick(0), Some(0));
        assert_eq!(ticks.tick(1), Some(0));
        assert_eq!(ticks.tick(2), Some(2));
        assert_eq!(ticks.tick(4), Some(2));
        assert_eq!(ticks.tick(5), Some(3));
        assert_eq!(ticks.tick(9), Some(3));
        assert_eq!(ticks.tick(10), None);
    }

    #[test]
    fn accuracy_on_a_hand_built_log() {
        let facts = LogFacts::scan(LOG.iter().copied());
        // Nine records fed; the trailer at 10 sits after one engine
        // index (3).
        assert!(seqs_consistent(&facts, 9));
        assert!(!seqs_consistent(&facts, 10));
        let mut ticks = TickIndex::new();
        for t in 0..9 {
            ticks.push(t * 100, 1); // record r at tick 100 r
        }
        let (edges, unmapped) = alarm_ticks(&facts, &ticks);
        assert_eq!(unmapped, 0);
        // seq 5 → record 4 → tick 400 (a on); seq 7 → record 6 → tick
        // 600 (a off); seq 8 → record 7 → tick 700 (b on); seq 9 →
        // record 8 → tick 800 (a on again).
        let at: Vec<(&str, u64, bool)> = edges
            .iter()
            .map(|e| (e.tenant.as_str(), e.at, e.raised))
            .collect();
        assert_eq!(
            at,
            vec![
                ("a", 400, true),
                ("a", 600, false),
                ("b", 700, true),
                ("a", 800, true)
            ]
        );
        let tenants: BTreeSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        // Window [500, 900): a's alarm is still on at 500 (delay 0), b
        // raises at 700 (delay 2 s), c never alarms. a raised before the
        // window, so specificity loses a.
        let s = score(&edges, &tenants, 500, 900);
        assert_eq!(s.detected, 2);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.specificity - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.delay_s.unwrap() - 1.0).abs() < 1e-9);
        // Window [600, 700): a's first alarm ended at 600 and its second
        // and b's start at or after 700 — nobody's alarm is on.
        let none = score(&edges, &tenants, 600, 700);
        assert_eq!((none.recall, none.delay_s), (0.0, None));
    }
}
