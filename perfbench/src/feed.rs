//! Input generation and delivery for the engine workloads: seeded fleet
//! scenarios from `memdos_sim::fleet`, encoded through the engine's own
//! wire encoders, handed over tick by tick, and the log copied out to a
//! byte sink the way the CLI prints it.

use crate::detect::TickIndex;
use crate::trace::Tracer;
use memdos_core::detector::Observation;
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{fleet_scenario, fleet_templates, tenant_name};
use memdos_engine::protocol::Record;
use memdos_metrics::binary::{self, Encoder};
use memdos_metrics::jsonl::LineBuf;
use memdos_sim::fleet::{
    AttackWindow, FleetAttack, FleetConfig, FleetEventKind, FleetGenerator, FleetItem, VmTemplate,
};
use memdos_sim::rng::derive_seed;
use std::collections::BTreeSet;
use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// The attacker's own `AccessNum` collapse while its window is open.
const ATTACK_COLLAPSE: f64 = 0.9;
/// Share of every victim's `AccessNum` the attack takes.
const ATTACK_SEVERITY: f64 = 0.5;

/// A fleet where every tenant samples every tick with no churn, and one
/// seeded attacker runs over the second half of the timeline. Tenants
/// arrive within the first eighth and profile for
/// [`memdos_engine::fleet::FLEET_PROFILE_TICKS`] samples, so with
/// `span >= 4 * FLEET_PROFILE_TICKS` every tenant is armed before the
/// window opens.
pub fn monitor_fleet(tenants: u32, span: u64, seed: u64) -> FleetConfig {
    let attacker = (derive_seed(seed, 0xA77AC4) % u64::from(tenants.max(1))) as u32;
    FleetConfig {
        tenants,
        span_ticks: span,
        zipf_s: 1.1,
        min_interval: 1,
        max_interval: 1,
        churn: 0.0,
        seed,
        attack: Some(FleetAttack {
            attacker,
            collapse: ATTACK_COLLAPSE,
            first: AttackWindow {
                from: span / 2,
                until: span,
                severity: ATTACK_SEVERITY,
            },
            second: None,
        }),
    }
}

/// The attack window of a [`monitor_fleet`] config, `[from, until)`.
pub fn attack_window(config: &FleetConfig) -> (u64, u64) {
    config
        .attack
        .map_or((0, 0), |a| (a.first.from, a.first.until))
}

/// A fleet generator handing out one tick's items at a time.
#[derive(Debug)]
pub struct TickFeed {
    generator: FleetGenerator,
    templates: Vec<VmTemplate>,
    pending: Option<FleetItem>,
}

impl TickFeed {
    /// A feed over `config`, stamped from the catalogue templates.
    ///
    /// # Errors
    ///
    /// An invalid `config`.
    pub fn new(config: FleetConfig) -> Result<Self, String> {
        let templates = fleet_templates();
        let generator = FleetGenerator::new(config, &templates)?;
        Ok(TickFeed {
            generator,
            templates,
            pending: None,
        })
    }

    /// The templates tenants are stamped from.
    pub fn templates(&self) -> &[VmTemplate] {
        &self.templates
    }

    /// Appends the items of `tick` to `out`, if the scenario's next
    /// items belong to it.
    pub fn take_tick(&mut self, tick: u64, out: &mut Vec<FleetItem>) {
        loop {
            if self.pending.is_none() {
                self.pending = self.generator.next_item(&self.templates);
            }
            match self.pending {
                Some(item) if item.tick == tick => {
                    out.push(item);
                    self.pending = None;
                }
                _ => return,
            }
        }
    }

    /// Appends the next tick's items to `out` and returns that tick, or
    /// `None` when the scenario is over.
    pub fn next_tick(&mut self, out: &mut Vec<FleetItem>) -> Option<u64> {
        if self.pending.is_none() {
            self.pending = self.generator.next_item(&self.templates);
        }
        let tick = self.pending?.tick;
        self.take_tick(tick, out);
        Some(tick)
    }
}

/// The wire record of one fleet item; `prefix` keeps two fleets' tenant
/// names apart in one stream.
pub fn record(item: &FleetItem, templates: &[VmTemplate], prefix: &str) -> Record {
    let tenant = format!("{prefix}{}", tenant_name(item, templates));
    match item.kind {
        FleetEventKind::Sample { access, miss } => Record::Sample {
            tenant,
            obs: Observation {
                access_num: access,
                miss_num: miss,
            },
        },
        FleetEventKind::Close => Record::Close { tenant },
    }
}

/// Renders fleet items as JSONL lines — the bytes [`Record::to_line`]
/// gives — through the allocation-free [`LineBuf`], building each
/// tenant's name once. Input rendering is untimed; keeping it cheap
/// leaves more of a run's wall time to the timed program calls.
#[derive(Debug, Default)]
pub struct JsonlRenderer {
    /// Per tenant index: the template its name was built from, and the
    /// name.
    names: Vec<Option<(u32, String)>>,
    line: LineBuf,
}

impl JsonlRenderer {
    /// Appends `item` as one JSONL line; returns whether it is a PCM
    /// sample.
    pub fn push(&mut self, out: &mut Vec<u8>, item: &FleetItem, templates: &[VmTemplate]) -> bool {
        let Self { names, line } = self;
        let slot = item.tenant as usize;
        if names.len() <= slot {
            names.resize(slot + 1, None);
        }
        let entry = &mut names[slot];
        if entry.as_ref().is_some_and(|(t, _)| *t != item.template) {
            *entry = None;
        }
        let (_, name) = entry.get_or_insert_with(|| (item.template, tenant_name(item, templates)));
        line.begin().field_str("tenant", name);
        let sample = match item.kind {
            FleetEventKind::Sample { access, miss } => {
                line.field_num("access", access).field_num("miss", miss);
                true
            }
            FleetEventKind::Close => {
                line.field_str("ctl", "close");
                false
            }
        };
        out.extend_from_slice(line.end().as_bytes());
        out.push(b'\n');
        sample
    }
}

/// Appends one record as a JSONL line.
pub fn push_jsonl(out: &mut Vec<u8>, rec: &Record) {
    out.extend_from_slice(rec.to_line().as_bytes());
    out.push(b'\n');
}

/// Appends one record as binary frames (preamble and define frames as
/// the encoder needs them).
///
/// # Errors
///
/// The encoder's error for an oversized name or a full dictionary.
pub fn push_binary(enc: &mut Encoder, out: &mut Vec<u8>, rec: &Record) -> Result<(), String> {
    match rec {
        Record::Sample { tenant, obs } => enc.sample(tenant, obs.access_num, obs.miss_num, out),
        Record::Close { tenant } => enc.close(tenant, out),
    }
    .map_err(|e| e.to_string())
}

/// Whether a record is a PCM sample (not a control record).
pub fn is_sample(rec: &Record) -> bool {
    matches!(rec, Record::Sample { .. })
}

/// Tenants of the churn fleet.
pub const CHURN_TENANTS: u32 = 50_000;
/// Long-lived, attacked tenants riding in the churn stream, so the
/// churn workload has a detection ground truth too.
pub const COHORT_TENANTS: u32 = 128;
/// PCM periods per churn-fleet tick: the cohort samples every period,
/// the churn fleet (whose chattiest tenants sample every 4th fleet
/// tick) on the coarser fleet timeline.
pub const COHORT_PER_FLEET_TICK: u64 = 4;
/// Name prefix of cohort tenants.
pub const COHORT_PREFIX: &str = "cohort-";

/// The churn workload's input: one binary stream, cut into chunks of
/// one fleet tick each (chunk 0 is the stream preamble).
#[derive(Debug)]
pub struct ChurnInput {
    /// The whole binary stream.
    pub bytes: Vec<u8>,
    /// End offset of every chunk.
    pub chunk_ends: Vec<usize>,
    /// Record index → PCM tick.
    pub ticks: TickIndex,
    /// PCM samples in the stream.
    pub samples: u64,
    /// Cohort tenant names (the detection population).
    pub cohort: BTreeSet<String>,
    /// The cohort's attack window in PCM ticks, `[from, until)`.
    pub window: (u64, u64),
}

/// The churn workload's fleet and cohort configs for `seed`.
pub fn churn_configs(seed: u64) -> (FleetConfig, FleetConfig) {
    let fleet = fleet_scenario(CHURN_TENANTS, seed);
    let cohort = monitor_fleet(
        COHORT_TENANTS,
        fleet.span_ticks * COHORT_PER_FLEET_TICK,
        derive_seed(seed, 1),
    );
    (fleet, cohort)
}

/// Generates the churn workload's records in PCM-tick order: the
/// `fleet_scenario(50_000)` churn fleet (fleet tick `T` lands on PCM
/// tick `4 T`) merged with the [`COHORT_TENANTS`] cohort. `on_tick` sees
/// every PCM tick, with its records (possibly none). Returns the cohort
/// tenant names.
///
/// # Errors
///
/// A generator error, or the first error `on_tick` returns.
pub fn churn_records(
    seed: u64,
    mut on_tick: impl FnMut(u64, &[Record]) -> Result<(), String>,
) -> Result<BTreeSet<String>, String> {
    let (fleet_cfg, cohort_cfg) = churn_configs(seed);
    let mut fleet = TickFeed::new(fleet_cfg)?;
    let mut cohort = TickFeed::new(cohort_cfg)?;
    let templates = fleet_templates();
    let mut names = BTreeSet::new();
    let (mut items, mut records) = (Vec::new(), Vec::new());
    for pcm in 0..fleet_cfg.span_ticks * COHORT_PER_FLEET_TICK {
        if pcm % COHORT_PER_FLEET_TICK == 0 {
            fleet.take_tick(pcm / COHORT_PER_FLEET_TICK, &mut items);
            records.extend(items.drain(..).map(|i| record(&i, &templates, "")));
        }
        cohort.take_tick(pcm, &mut items);
        for item in items.drain(..) {
            let rec = record(&item, &templates, COHORT_PREFIX);
            names.insert(rec.tenant().to_string());
            records.push(rec);
        }
        on_tick(pcm, &records)?;
        records.clear();
    }
    Ok(names)
}

/// Builds the churn workload's binary stream for `seed`, one chunk per
/// fleet tick.
///
/// # Errors
///
/// A generator or encoder error.
pub fn churn_input(seed: u64) -> Result<ChurnInput, String> {
    let mut enc = Encoder::new();
    let mut bytes = Vec::new();
    let mut chunk_ends = vec![binary::MAGIC.len()];
    let mut ticks = TickIndex::new();
    let mut samples = 0u64;
    let cohort = churn_records(seed, |pcm, records| {
        for rec in records {
            samples += u64::from(is_sample(rec));
            push_binary(&mut enc, &mut bytes, rec)?;
        }
        ticks.push(pcm, records.len() as u64);
        if (pcm + 1) % COHORT_PER_FLEET_TICK == 0 {
            chunk_ends.push(bytes.len());
        }
        Ok(())
    })?;
    let window = attack_window(&churn_configs(seed).1);
    Ok(ChurnInput {
        bytes,
        chunk_ends,
        ticks,
        samples,
        cohort,
        window,
    })
}

/// A reader that hands the engine one chunk per `fill_buf` and times
/// each chunk from the moment it is handed over until the engine asks
/// for the next one — the engine's time on that chunk, including any
/// batch flush it triggered. Chunk 0 (the preamble) is not timed.
pub struct PacedReader<'a> {
    bytes: &'a [u8],
    ends: &'a [usize],
    pos: usize,
    chunk: usize,
    handed: Option<(Instant, u64)>,
    tracer: &'a mut Tracer,
    /// Per-chunk latency in µs, chunk 1 onwards.
    pub latency_us: Vec<f64>,
}

impl<'a> PacedReader<'a> {
    /// A reader over `bytes` cut at `ends`, recording an
    /// `engine.tick` span per chunk when `tracer` is enabled.
    pub fn new(bytes: &'a [u8], ends: &'a [usize], tracer: &'a mut Tracer) -> Self {
        PacedReader {
            bytes,
            ends,
            pos: 0,
            chunk: 0,
            handed: None,
            tracer,
            latency_us: Vec::with_capacity(ends.len()),
        }
    }

    fn chunk_end(&self) -> usize {
        self.ends
            .get(self.chunk)
            .copied()
            .unwrap_or(self.bytes.len())
            .min(self.bytes.len())
    }
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.chunk_end() && self.chunk < self.ends.len() {
            if let Some((at, span_start)) = self.handed.take() {
                self.latency_us.push(at.elapsed().as_secs_f64() * 1e6);
                let end = self.tracer.now();
                self.tracer
                    .record("engine.tick", span_start, end, self.chunk as u64);
            }
            self.chunk += 1;
            if self.chunk < self.ends.len() {
                self.handed = Some((Instant::now(), self.tracer.now()));
            }
        }
        let end = self.chunk_end();
        Ok(self.bytes.get(self.pos..end).unwrap_or(&[]))
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.chunk_end());
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        if let (Some(dst), Some(src)) = (buf.get_mut(..n), avail.get(..n)) {
            dst.copy_from_slice(src);
        }
        self.consume(n);
        Ok(n)
    }
}

/// A byte sink that counts what it is given, standing in for the
/// CLI's stdout.
#[derive(Debug, Default)]
pub struct ByteSink {
    /// Bytes written.
    pub bytes: u64,
}

impl Write for ByteSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Copies the log lines from `from` on to `out`, one per line as the
/// CLI prints them; returns the new high-water mark.
///
/// # Errors
///
/// Propagates write errors.
pub fn copy_log(engine: &Engine, from: usize, out: &mut impl Write) -> std::io::Result<usize> {
    let lines = engine.log_lines();
    for line in lines.get(from..).unwrap_or(&[]) {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(lines.len())
}

/// FNV-1a over the log lines, for byte-identity checks between passes.
pub fn log_digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdos_engine::fleet::FLEET_PROFILE_TICKS;

    #[test]
    fn monitor_fleet_arms_everyone_before_the_window() {
        // Arrivals fall in the first eighth of the timeline.
        for (tenants, span) in [
            (1_000, 2_048),
            (COHORT_TENANTS, 256 * COHORT_PER_FLEET_TICK),
        ] {
            let cfg = monitor_fleet(tenants, span, 7);
            assert_eq!(attack_window(&cfg), (span / 2, span));
            assert!(span / 8 + FLEET_PROFILE_TICKS <= span / 2);
        }
    }

    #[test]
    fn jsonl_renderer_matches_the_record_encoding() {
        let mut feed = TickFeed::new(monitor_fleet(16, 64, 5)).unwrap();
        let (mut items, mut fast, mut reference) = (Vec::new(), Vec::new(), Vec::new());
        let mut render = JsonlRenderer::default();
        while feed.next_tick(&mut items).is_some() {
            for item in items.drain(..) {
                let rec = record(&item, feed.templates(), "");
                assert_eq!(
                    render.push(&mut fast, &item, feed.templates()),
                    is_sample(&rec)
                );
                push_jsonl(&mut reference, &rec);
            }
        }
        let close = FleetItem {
            tick: 64,
            tenant: 3,
            template: 1,
            kind: FleetEventKind::Close,
        };
        assert!(!render.push(&mut fast, &close, &fleet_templates()));
        push_jsonl(&mut reference, &record(&close, &fleet_templates(), ""));
        assert!(!reference.is_empty());
        assert_eq!(String::from_utf8(fast), String::from_utf8(reference));
    }

    #[test]
    fn tick_feed_groups_items_by_tick() {
        let mut feed = TickFeed::new(monitor_fleet(8, 64, 3)).unwrap();
        let mut last = None;
        let mut items = Vec::new();
        while let Some(t) = feed.next_tick(&mut items) {
            assert!(items.iter().all(|i| i.tick == t));
            assert!(last.is_none_or(|l| t > l));
            last = Some(t);
            items.clear();
        }
        assert!(last.is_some());
    }

    #[test]
    fn paced_reader_times_every_chunk_but_the_preamble() {
        let bytes: Vec<u8> = (0..20).collect();
        let ends = [8, 12, 20];
        let mut tracer = Tracer::new(true);
        let mut r = PacedReader::new(&bytes, &ends, &mut tracer);
        let mut all = Vec::new();
        r.read_to_end(&mut all).unwrap();
        assert_eq!(all, bytes);
        assert_eq!(r.latency_us.len(), 2);
        drop(r);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].req, 2);
    }
}
