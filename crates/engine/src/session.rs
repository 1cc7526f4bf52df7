//! Per-tenant detection sessions.
//!
//! One [`Session`] monitors one VM through an explicit lifecycle:
//!
//! ```text
//! Profiling ──profile ok──▶ Monitoring ──alarm budget──▶ Quarantined
//!     │                          │
//!     └─profile failed──▶ Closed ◀──────── close ────────────┘
//! ```
//!
//! During `Profiling` the samples feed the Stage-1 [`Profiler`]; once
//! `profile_ticks` samples arrive the profile is finalised and the
//! detector stack is built through the uniform [`FromProfile`] surface —
//! the combined SDS always, the KStest baseline optionally for
//! comparison. During `Monitoring` every sample steps every detector via
//! the [`Detector`] trait and verdict-class transitions are emitted as
//! events. KStest throttle requests are ignored in this passive streaming
//! mode (there is no hypervisor behind a JSONL stream to throttle).
//!
//! Samples are queued in a bounded ring buffer between engine flushes;
//! when the queue is full the [`DropPolicy`] decides which side loses,
//! and every drop is logged so backpressure is visible, never silent.

use memdos_core::config::{KsTestParams, SdsParams};
use memdos_core::detector::{Detector, DetectorStep, Observation, ObservationBatch, Verdict};
use memdos_core::kstest::KsTestDetector;
use memdos_core::profile::{Profiler, ProfilerConfig};
use memdos_core::sds::Sds;
use memdos_core::CoreError;
use memdos_metrics::jsonl::JsonObject;
use std::collections::VecDeque;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Collecting the Stage-1 benign profile.
    Profiling,
    /// Detector stack armed; verdict transitions are logged.
    Monitoring,
    /// Alarm budget exhausted; samples are discarded.
    Quarantined,
    /// Closed by the tenant or by a failed profile; samples are
    /// discarded.
    Closed,
}

impl SessionState {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Profiling => "profiling",
            SessionState::Monitoring => "monitoring",
            SessionState::Quarantined => "quarantined",
            SessionState::Closed => "closed",
        }
    }
}

/// What to discard when a session's sample queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DropPolicy {
    /// Evict the oldest queued sample to admit the new one (the stream
    /// stays fresh; detector state skips a tick).
    #[default]
    Oldest,
    /// Reject the incoming sample (queued history wins).
    Newest,
}

impl DropPolicy {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            DropPolicy::Oldest => "oldest",
            DropPolicy::Newest => "newest",
        }
    }

    /// Parses the `MEMDOS_ENGINE_DROP` spelling.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for anything but `oldest`/`newest`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "oldest" => Ok(DropPolicy::Oldest),
            "newest" => Ok(DropPolicy::Newest),
            other => Err(format!(
                "unknown drop policy {other:?} (expected \"oldest\" or \"newest\")"
            )),
        }
    }
}

/// Why a session transitioned to `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The tenant sent a `ctl:close` record.
    Ctl,
    /// The engine closed the session after an idle gap (no records for
    /// more than `idle_timeout` arrival indices).
    Idle,
    /// The engine evicted the least-recently-seen session to stay under
    /// its memory ceiling (`Config::max_sessions`). The tenant may
    /// reopen as a new generation the next time it speaks.
    Evicted,
    /// The mitigation loop released a false quarantine: the control was
    /// lifted and the session closes so the tenant deterministically
    /// re-profiles as a new generation on its next sample.
    Released,
    /// The mitigation ladder escalated to eviction: the confirmed
    /// attacker's session is closed and its control sticks.
    Escalated,
}

impl CloseReason {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::Ctl => "ctl",
            CloseReason::Idle => "idle",
            CloseReason::Evicted => "evicted",
            CloseReason::Released => "released",
            CloseReason::Escalated => "escalated",
        }
    }
}

/// Configuration shared by every session an engine opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Samples consumed by Stage-1 profiling before monitoring starts.
    pub profile_ticks: u64,
    /// SDS parameters for the profiler and the primary detector.
    pub sds: SdsParams,
    /// When set, a KStest baseline detector runs beside SDS (its
    /// throttle requests are ignored — passive streaming mode).
    pub kstest: Option<KsTestParams>,
    /// Primary-detector alarm activations before the session is
    /// quarantined; `0` disables quarantine.
    pub quarantine_after: u64,
    /// Bounded sample-queue capacity between engine flushes.
    pub queue_capacity: usize,
    /// Which sample loses when the queue is full.
    pub drop_policy: DropPolicy,
    /// Arrival-index gap after which the engine closes an inactive
    /// session (`Closed` with reason `idle`); `0` disables the timeout.
    /// Measured in global `seq` ticks, not wall-clock time, so the
    /// transition replays deterministically.
    pub idle_timeout: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            profile_ticks: 6_000,
            sds: SdsParams::default(),
            kstest: None,
            quarantine_after: 0,
            queue_capacity: 1_024,
            drop_policy: DropPolicy::Oldest,
            idle_timeout: 0,
        }
    }
}

impl SessionConfig {
    /// Validates the configuration — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.sds.validate()?;
        if let Some(ks) = &self.kstest {
            ks.validate()?;
        }
        if self.profile_ticks == 0 {
            return Err(CoreError::InvalidParameter {
                name: "profile_ticks",
                reason: "must be positive",
            });
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "queue_capacity",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// One queued unit of work: a sample or a close request, tagged with the
/// engine-assigned global arrival index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Item {
    /// A PCM sample.
    Obs(u64, Observation),
    /// A close request (from the tenant or the idle timeout).
    Close(u64, CloseReason),
}

impl Item {
    fn seq(&self) -> u64 {
        match self {
            Item::Obs(seq, _) | Item::Close(seq, _) => *seq,
        }
    }
}

/// What happened to an offered sample, so the engine can log drops
/// (coalesced) and recoveries without peeking into the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offered {
    /// Queued normally.
    Admitted,
    /// Queued normally after a drop burst — the queue recovered; `burst`
    /// is the number of samples lost in the burst that just ended.
    Recovered {
        /// Samples lost in the burst that just ended.
        burst: u64,
    },
    /// Lost. `terminal` distinguishes a quarantined/closed session from
    /// backpressure; `burst` counts consecutive losses so far and
    /// `total` the session's lifetime losses.
    Dropped {
        /// Dropped because the session is quarantined or closed.
        terminal: bool,
        /// Consecutive losses in the current burst.
        burst: u64,
        /// Lifetime losses.
        total: u64,
    },
}

/// One event produced by session processing, ordered globally by
/// `(seq, sub)` — the arrival index of the input item that produced it,
/// then emission order within that item.
#[derive(Debug, Clone)]
pub struct SessionEvent {
    /// Global arrival index of the triggering input line.
    pub seq: u64,
    /// Emission order among events of the same input line.
    pub sub: u32,
    /// The serialized JSONL payload (without `seq` — appended by the
    /// engine when writing the log).
    pub payload: JsonObject,
}

/// A read-only introspection snapshot of one tenant session — the
/// stable public surface for fleet observers (the `engine_fleet` bench,
/// the `demo` summary, external monitoring), so nothing outside this
/// module reaches into `Session` internals. Obtained from
/// `Engine::snapshots()` / `Engine::snapshot()`; `live: false` marks a
/// retired incarnation whose memory was reclaimed and whose counters
/// are served from the engine's retained final accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSnapshot<'a> {
    /// The tenant this session monitors.
    pub tenant: &'a str,
    /// Incarnation of the tenant (0 = first session, +1 per reopen).
    pub generation: u32,
    /// Current lifecycle state (always `Closed` when not live).
    pub state: SessionState,
    /// `true` while the session is resident in the engine; `false` once
    /// its slot was reclaimed (closed and drained).
    pub live: bool,
    /// Items queued for the next engine flush.
    pub queued: usize,
    /// Estimated resident heap bytes (see [`Session::resident_bytes`];
    /// 0 when not live).
    pub resident_bytes: usize,
    /// Samples accepted over the incarnation's lifetime.
    pub ingested: u64,
    /// Samples lost to backpressure or a terminal state.
    pub dropped: u64,
    /// Primary-detector alarm activations.
    pub alarms: u64,
    /// Monitored access level over the profile baseline (see
    /// [`Session::recovery_ratio`]); `None` outside `Monitoring`.
    pub recovery_ratio: Option<f64>,
    /// Mitigation case attached to this tenant, if any (filled in by
    /// the engine — a session does not know it is being mitigated).
    pub mitigation: Option<crate::mitigation::MitigationStatus>,
}

/// Smoothing factor of the per-session recovery EWMA: heavy enough to
/// damp sample jitter, light enough that a mitigated attack shows up
/// within a handful of victim samples.
const RECOVERY_ALPHA: f64 = 0.2;

/// Reusable per-worker columnar buffers for the monitoring batch path:
/// a run of consecutive queued samples is transposed into
/// structure-of-arrays columns so every armed detector steps the whole
/// run through its branch-light [`Detector::step_batch`] loop, and the
/// per-detector step columns (detector-major) are then replayed in the
/// exact scalar emission order. Shared by every session on the worker
/// between flushes, so steady-state batching allocates nothing.
#[derive(Default)]
struct BatchScratch {
    seqs: Vec<u64>,
    access: Vec<f64>,
    miss: Vec<f64>,
    steps: Vec<Vec<DetectorStep>>,
}

thread_local! {
    // lint:allow(shared-state) -- per-worker columnar scratch; thread_local makes it worker-private by construction
    static SCRATCH: std::cell::RefCell<BatchScratch> = std::cell::RefCell::new(BatchScratch::default());
}

/// A per-tenant detection session.
pub struct Session {
    tenant: String,
    config: SessionConfig,
    state: SessionState,
    profiler: Option<Profiler>,
    detectors: Vec<Box<dyn Detector + Send>>,
    last_verdicts: Vec<Verdict>,
    queue: VecDeque<Item>,
    /// Monitoring ticks consumed (starts counting after the profile).
    monitor_ticks: u64,
    ingested: u64,
    dropped: u64,
    /// Consecutive drops in the current burst (0 = queue healthy).
    drop_burst: u64,
    /// Drop bursts that ended with the queue admitting again.
    recoveries: u64,
    alarms: u64,
    /// Incarnation of this tenant: 0 for the first session, +1 for every
    /// reopen after a close (tenant churn).
    generation: u32,
    opened_logged: bool,
    /// Profile-time mean `AccessNum` (`Profile.access.mu`), captured
    /// when the detector stack arms; 0 until then. The denominator of
    /// [`Session::recovery_ratio`].
    baseline_access: f64,
    /// EWMA of the monitored `AccessNum`, seeded at the baseline — the
    /// smoothed live level the mitigation loop compares against the
    /// baseline to decide whether this (victim) tenant is degraded.
    ewma_access: f64,
    /// Arrival index of the sample that quarantined this session, kept
    /// until the engine's mitigation step consumes it.
    quarantine_notice: Option<u64>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .field("state", &self.state)
            .field("ingested", &self.ingested)
            .field("dropped", &self.dropped)
            .field("alarms", &self.alarms)
            .finish()
    }
}

impl Session {
    /// Opens a session in the `Profiling` state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `config`.
    pub fn open(tenant: impl Into<String>, config: SessionConfig) -> Result<Self, CoreError> {
        Session::open_generation(tenant, config, 0)
    }

    /// Opens a later incarnation of a churned tenant: same contract as
    /// [`Session::open`], but the `opened` event carries the generation
    /// so reopen-after-close is visible in the log.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `config`.
    pub fn open_generation(
        tenant: impl Into<String>,
        config: SessionConfig,
        generation: u32,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let profiler = Profiler::new(ProfilerConfig {
            sds: config.sds,
            ..ProfilerConfig::default()
        })?;
        Ok(Session {
            tenant: tenant.into(),
            config,
            state: SessionState::Profiling,
            profiler: Some(profiler),
            detectors: Vec::new(),
            last_verdicts: Vec::new(),
            queue: VecDeque::new(),
            monitor_ticks: 0,
            ingested: 0,
            dropped: 0,
            drop_burst: 0,
            recoveries: 0,
            alarms: 0,
            generation,
            opened_logged: false,
            baseline_access: 0.0,
            ewma_access: 0.0,
            quarantine_notice: None,
        })
    }

    /// The tenant id this session monitors.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Samples accepted so far (queued or processed).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Samples lost to backpressure or to a terminal state.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop bursts that ended with the queue admitting samples again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Primary-detector alarm activations so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Incarnation of this tenant (0 = first session, +1 per reopen).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Queued items awaiting the next engine flush.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The monitored access level relative to the profile baseline:
    /// `EWMA(AccessNum) / Profile.access.mu`. `None` until the detector
    /// stack is armed (no baseline yet) or once the session leaves
    /// `Monitoring` — only actively monitored sessions count as victims
    /// for the mitigation loop's recovery confirmation.
    pub fn recovery_ratio(&self) -> Option<f64> {
        if self.state != SessionState::Monitoring || !(self.baseline_access > 0.0) {
            return None;
        }
        Some(self.ewma_access / self.baseline_access)
    }

    /// Consumes the pending quarantine notice: the arrival index of the
    /// sample whose alarm quarantined this session. Set exactly once per
    /// incarnation; the engine's mitigation step drains it at the flush
    /// boundary (even if an ingest-side close has since landed — that is
    /// how a quarantine-while-closing is detected and skipped).
    pub(crate) fn take_quarantine_notice(&mut self) -> Option<u64> {
        self.quarantine_notice.take()
    }

    /// Read-only introspection snapshot of this (live) session.
    pub fn snapshot(&self) -> SessionSnapshot<'_> {
        SessionSnapshot {
            tenant: &self.tenant,
            generation: self.generation,
            state: self.state,
            live: true,
            queued: self.queue.len(),
            resident_bytes: self.resident_bytes(),
            ingested: self.ingested,
            dropped: self.dropped,
            alarms: self.alarms,
            recovery_ratio: self.recovery_ratio(),
            mitigation: None,
        }
    }

    /// Estimated heap bytes this session keeps resident: the tenant
    /// name, the sample queue, the profiler's smoothing buffers and each
    /// armed detector's working set (via
    /// [`Detector::resident_bytes_hint`]). This is a deterministic
    /// capacity-based accounting estimate, not an allocator measurement
    /// — it exists so a ceiling/eviction decision and the fleet bench
    /// read the same number on every run.
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Session>()
            + self.tenant.capacity()
            + self.queue.capacity() * std::mem::size_of::<Item>()
            + self.last_verdicts.capacity() * std::mem::size_of::<Verdict>();
        if let Some(p) = &self.profiler {
            bytes += p.resident_bytes_hint();
        }
        for det in &self.detectors {
            bytes += std::mem::size_of::<Box<dyn Detector + Send>>() + det.resident_bytes_hint();
        }
        bytes
    }

    /// Releases the working set of a terminal session that must stay
    /// resident (quarantined, or closed worker-side with no ingest-side
    /// close): detectors, profiler and queue capacity are dropped, the
    /// identity and counters remain so later samples still drop against
    /// the right policy and the final accounting stays intact. Terminal
    /// states never process another observation, so nothing behavioural
    /// is lost. No-op for live sessions or non-empty queues.
    pub(crate) fn shrink_terminal(&mut self) {
        let terminal =
            matches!(self.state, SessionState::Quarantined | SessionState::Closed);
        if !terminal || !self.queue.is_empty() {
            return;
        }
        self.profiler = None;
        self.detectors = Vec::new();
        self.last_verdicts = Vec::new();
        self.queue.shrink_to_fit();
    }

    /// Enqueues one sample under the backpressure policy, reporting what
    /// happened so the engine can log drops and recoveries.
    pub(crate) fn offer(&mut self, seq: u64, obs: Observation) -> Offered {
        if matches!(self.state, SessionState::Quarantined | SessionState::Closed) {
            self.dropped += 1;
            self.drop_burst += 1;
            return Offered::Dropped {
                terminal: true,
                burst: self.drop_burst,
                total: self.dropped,
            };
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.dropped += 1;
            self.drop_burst += 1;
            match self.config.drop_policy {
                DropPolicy::Oldest => {
                    self.queue.pop_front();
                    self.ingested += 1;
                    self.queue.push_back(Item::Obs(seq, obs));
                }
                DropPolicy::Newest => {}
            }
            return Offered::Dropped {
                terminal: false,
                burst: self.drop_burst,
                total: self.dropped,
            };
        }
        self.ingested += 1;
        self.queue.push_back(Item::Obs(seq, obs));
        if self.drop_burst > 0 {
            let burst = self.drop_burst;
            self.drop_burst = 0;
            self.recoveries += 1;
            return Offered::Recovered { burst };
        }
        Offered::Admitted
    }

    /// Enqueues a close request (always admitted — control traffic is
    /// not subject to the sample drop policy).
    pub(crate) fn offer_close(&mut self, seq: u64, reason: CloseReason) {
        self.queue.push_back(Item::Close(seq, reason));
    }

    /// Drains the queue through the lifecycle, collecting the session's
    /// events for this flush.
    #[cfg(test)]
    pub(crate) fn process_queued(&mut self) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        self.process_queued_into(&mut events);
        events
    }

    /// Drains the queue through the lifecycle, appending the session's
    /// events for this flush to `events` — the engine passes a recycled
    /// buffer so the steady-state flush allocates nothing here.
    // hot-path
    pub(crate) fn process_queued_into(&mut self, events: &mut Vec<SessionEvent>) {
        while let Some(item) = self.queue.pop_front() {
            let seq = item.seq();
            let mut sub = 0u32;
            let mut emit = |payload: JsonObject| {
                events.push(SessionEvent { seq, sub, payload });
                sub += 1;
            };
            if !self.opened_logged {
                self.opened_logged = true;
                let mut o = JsonObject::new();
                o.push_str("event", "opened")
                    .push_str("tenant", &self.tenant)
                    .push_num("gen", self.generation as f64);
                emit(o);
            }
            match item {
                Item::Close(_, reason) => {
                    // Idempotent: duplicated close records (redelivery,
                    // chaos) log a single transition.
                    if self.state == SessionState::Closed {
                        continue;
                    }
                    self.state = SessionState::Closed;
                    let mut o = JsonObject::new();
                    o.push_str("event", "closed")
                        .push_str("tenant", &self.tenant)
                        .push_str("reason", reason.label())
                        .push_num("ingested", self.ingested as f64)
                        .push_num("dropped", self.dropped as f64)
                        .push_num("alarms", self.alarms as f64);
                    emit(o);
                }
                Item::Obs(_, obs) => match self.state {
                    SessionState::Profiling => self.step_profiling(obs, &mut emit),
                    // The steady state: the columnar batch route, which
                    // also swallows the run of consecutive samples queued
                    // behind this one. A session only reaches
                    // `Monitoring` through its profile, after the
                    // `opened` event, so `emit` is unused here and the
                    // run's events start at `sub` 0.
                    SessionState::Monitoring => self.step_monitoring_run(seq, obs, events),
                    SessionState::Quarantined | SessionState::Closed => {
                        // Items queued before the state flipped; counted
                        // when offered, nothing to process.
                        self.dropped += 1;
                    }
                },
            }
        }
    }

    fn step_profiling(&mut self, obs: Observation, emit: &mut impl FnMut(JsonObject)) {
        let Some(profiler) = self.profiler.as_mut() else {
            return;
        };
        profiler.observe(obs);
        if profiler.observations() < self.config.profile_ticks {
            return;
        }
        // Profile complete: arm the detector stack.
        let Some(profiler) = self.profiler.take() else {
            return;
        };
        match profiler.finish().and_then(|profile| {
            let mut stack: Vec<Box<dyn Detector + Send>> =
                vec![Box::new(Sds::from_profile(&profile, &self.config.sds)?)];
            if let Some(ks) = &self.config.kstest {
                stack.push(Box::new(KsTestDetector::from_profile(&profile, ks)?));
            }
            Ok((profile, stack))
        }) {
            Ok((profile, stack)) => {
                self.last_verdicts = vec![Verdict::Normal; stack.len()];
                self.detectors = stack;
                self.state = SessionState::Monitoring;
                self.baseline_access = profile.access.mu;
                self.ewma_access = profile.access.mu;
                let mut o = JsonObject::new();
                o.push_str("event", "profile_ready")
                    .push_str("tenant", &self.tenant)
                    .push_bool("periodic", profile.is_periodic());
                if let Some(p) = &profile.periodicity {
                    o.push_num("period_ma", p.period_ma);
                }
                emit(o);
            }
            Err(e) => {
                self.state = SessionState::Closed;
                let mut o = JsonObject::new();
                o.push_str("event", "profile_failed")
                    .push_str("tenant", &self.tenant)
                    // lint:allow(hot-propagate) -- rendering the failure reason happens once, on the transition that closes the session
                    .push_str("reason", e.to_string());
                emit(o);
            }
        }
    }

    /// Gathers the run of consecutive queued samples starting at
    /// `(seq0, obs0)` into the worker's columnar scratch and batch-steps
    /// it. Only called with `state == Monitoring`, so the `opened` event
    /// is already out and the run's events start at `sub` 0.
    // hot-path
    fn step_monitoring_run(
        &mut self,
        seq0: u64,
        obs0: Observation,
        events: &mut Vec<SessionEvent>,
    ) {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let scratch = &mut *scratch;
            scratch.seqs.clear();
            scratch.access.clear();
            scratch.miss.clear();
            scratch.seqs.push(seq0);
            scratch.access.push(obs0.access_num);
            scratch.miss.push(obs0.miss_num);
            while let Some(&Item::Obs(seq, obs)) = self.queue.front() {
                scratch.seqs.push(seq);
                scratch.access.push(obs.access_num);
                scratch.miss.push(obs.miss_num);
                self.queue.pop_front();
            }
            self.step_monitoring_batch(scratch, events);
        });
    }

    /// Steps every armed detector over one columnar run and replays the
    /// per-tick emission in sample order: per sample, one `verdict`
    /// event per detector whose verdict class changed, then a
    /// `quarantined` event if the primary's alarm exhausted the budget.
    /// Bit-identical to stepping each sample through
    /// [`Detector::on_observation`] (the core conformance suite pins
    /// `step_batch` to it): the primary steps the whole run first so a
    /// mid-run quarantine can cut the batch at the exact sample it
    /// lands on; secondaries then step the surviving prefix and the
    /// trailing samples count as dropped, as any sample reaching a
    /// quarantined session does.
    // hot-path
    fn step_monitoring_batch(
        &mut self,
        scratch: &mut BatchScratch,
        events: &mut Vec<SessionEvent>,
    ) {
        let BatchScratch { seqs, access, miss, steps } = scratch;
        let n = seqs.len();
        while steps.len() < self.detectors.len() {
            steps.push(Vec::new());
        }
        for col in steps.iter_mut() {
            col.clear();
        }
        let batch = ObservationBatch::new(access, miss);
        let mut dets = self.detectors.iter_mut().zip(steps.iter_mut());
        let mut cut = n;
        if let Some((primary, out)) = dets.next() {
            primary.step_batch(batch, out);
            if self.config.quarantine_after > 0 {
                // Walk the primary's alarm stream to find where a
                // quarantine would cut the run short. Oversteppping the
                // primary past the cut is unobservable: its session is
                // terminal afterwards and only `alarms` up to the cut
                // are ever accounted.
                let mut alarms = self.alarms;
                for (i, step) in out.iter().enumerate() {
                    if step.became_active {
                        alarms += 1;
                        if alarms >= self.config.quarantine_after {
                            cut = i + 1;
                            break;
                        }
                    }
                }
            }
            let prefix = ObservationBatch::new(
                access.get(..cut).unwrap_or(access),
                miss.get(..cut).unwrap_or(miss),
            );
            for (det, out) in dets {
                det.step_batch(prefix, out);
            }
        }
        for i in 0..cut {
            let Some(&seq) = seqs.get(i) else {
                break;
            };
            let mut sub = 0u32;
            self.monitor_ticks += 1;
            let access_num = access.get(i).copied().unwrap_or(0.0);
            self.ewma_access += RECOVERY_ALPHA * (access_num - self.ewma_access);
            let mut primary_became_active = false;
            for (d, det) in self.detectors.iter().enumerate() {
                // Throttle requests (KStest) are ignored: passive
                // streaming, same as the scalar path.
                let Some(step) = steps.get(d).and_then(|col| col.get(i)).copied() else {
                    continue;
                };
                if d == 0 && step.became_active {
                    primary_became_active = true;
                }
                let Some(last) = self.last_verdicts.get_mut(d) else {
                    continue;
                };
                if !step.verdict.same_class(last) {
                    let mut o = JsonObject::new();
                    o.push_str("event", "verdict")
                        .push_str("tenant", &self.tenant)
                        .push_str("detector", det.name())
                        .push_str("from", last.label())
                        .push_str("to", step.verdict.label())
                        .push_num("tick", self.monitor_ticks as f64);
                    events.push(SessionEvent { seq, sub, payload: o });
                    sub += 1;
                    *last = step.verdict;
                }
            }
            if primary_became_active {
                self.alarms += 1;
                if self.config.quarantine_after > 0
                    && self.alarms >= self.config.quarantine_after
                {
                    self.state = SessionState::Quarantined;
                    let mut o = JsonObject::new();
                    o.push_str("event", "quarantined")
                        .push_str("tenant", &self.tenant)
                        .push_num("alarms", self.alarms as f64);
                    events.push(SessionEvent { seq, sub, payload: o });
                    self.quarantine_notice = Some(seq);
                }
            }
        }
        // Samples behind a mid-run quarantine: the scalar loop would
        // have hit the terminal-state arm once per item.
        self.dropped += (n - cut) as u64;
    }

    /// One `dropped` event payload (the engine logs it at the arrival
    /// index of the sample that overflowed the queue, coalescing bursts).
    pub(crate) fn drop_event(&self, terminal: bool, burst: u64) -> JsonObject {
        let mut o = JsonObject::new();
        o.push_str("event", "dropped")
            .push_str("tenant", &self.tenant)
            .push_str("policy", self.config.drop_policy.label())
            .push_bool("terminal", terminal)
            .push_num("burst", burst as f64)
            .push_num("total", self.dropped as f64);
        o
    }

    /// One `recovered` event payload: the queue admitted a sample again
    /// after a drop burst of `burst` samples.
    pub(crate) fn recovered_event(&self, burst: u64) -> JsonObject {
        let mut o = JsonObject::new();
        o.push_str("event", "recovered")
            .push_str("tenant", &self.tenant)
            .push_num("burst", burst as f64);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SessionConfig {
        SessionConfig {
            profile_ticks: 2_000,
            queue_capacity: 8_192,
            ..SessionConfig::default()
        }
    }

    fn flat_obs(i: u64) -> Observation {
        Observation {
            access_num: 1000.0 + (i % 10) as f64,
            miss_num: 100.0 + (i % 5) as f64,
        }
    }

    fn feed(s: &mut Session, seq0: u64, n: u64, f: impl Fn(u64) -> Observation) -> Vec<SessionEvent> {
        for i in 0..n {
            s.offer(seq0 + i, f(i));
        }
        s.process_queued()
    }

    #[test]
    fn lifecycle_profiling_to_monitoring() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        assert_eq!(s.state(), SessionState::Profiling);
        let events = feed(&mut s, 0, 2_000, flat_obs);
        assert_eq!(s.state(), SessionState::Monitoring);
        let kinds: Vec<&str> =
            events.iter().filter_map(|e| e.payload.get_str("event")).collect();
        assert_eq!(kinds, ["opened", "profile_ready"]);
        assert_eq!(events[1].payload.get("periodic").is_some(), true);
    }

    #[test]
    fn attack_produces_verdict_transitions_and_alarm() {
        let cfg = fast_config();
        let mut s = Session::open("vm-0", cfg).unwrap();
        feed(&mut s, 0, 2_000, flat_obs);
        // Benign monitoring: no transitions expected beyond brief
        // suspicion jitter; then a bus-lock-style collapse.
        feed(&mut s, 2_000, 500, flat_obs);
        let events = feed(&mut s, 2_500, 2_500, |_| Observation {
            access_num: 100.0,
            miss_num: 100.0,
        });
        let alarms: Vec<&SessionEvent> = events
            .iter()
            .filter(|e| {
                e.payload.get_str("event") == Some("verdict")
                    && e.payload.get_str("to") == Some("alarm")
            })
            .collect();
        assert!(!alarms.is_empty(), "collapse must raise an SDS alarm");
        assert!(s.alarms() >= 1);
        // Events are (seq, sub)-ordered as produced.
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.seq, e.sub));
        assert_eq!(
            events.iter().map(|e| (e.seq, e.sub)).collect::<Vec<_>>(),
            sorted.iter().map(|e| (e.seq, e.sub)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quarantine_after_alarm_budget() {
        let cfg = SessionConfig { quarantine_after: 1, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        feed(&mut s, 0, 2_000, flat_obs);
        let events = feed(&mut s, 2_000, 3_000, |_| Observation {
            access_num: 100.0,
            miss_num: 100.0,
        });
        assert_eq!(s.state(), SessionState::Quarantined);
        assert!(events
            .iter()
            .any(|e| e.payload.get_str("event") == Some("quarantined")));
        // Further samples are discarded, not processed.
        let before = s.dropped();
        s.offer(9_999, flat_obs(0));
        assert_eq!(s.dropped(), before + 1);
    }

    #[test]
    fn close_emits_final_accounting() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        feed(&mut s, 0, 100, flat_obs);
        s.offer_close(100, CloseReason::Ctl);
        let events = s.process_queued();
        let closed = events
            .iter()
            .find(|e| e.payload.get_str("event") == Some("closed"))
            .expect("close event");
        assert_eq!(closed.payload.get_f64("ingested"), Some(100.0));
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn drop_policy_oldest_keeps_stream_fresh() {
        let cfg = SessionConfig { queue_capacity: 4, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        for i in 0..6u64 {
            s.offer(i, flat_obs(i));
        }
        assert_eq!(s.queued(), 4);
        assert_eq!(s.dropped(), 2);
        // The queue holds the 4 newest items (seqs 2..=5).
        let first_seq = match s.queue.front() {
            Some(Item::Obs(seq, _)) => *seq,
            _ => u64::MAX,
        };
        assert_eq!(first_seq, 2);
    }

    #[test]
    fn drop_policy_newest_rejects_incoming() {
        let cfg = SessionConfig {
            queue_capacity: 4,
            drop_policy: DropPolicy::Newest,
            ..fast_config()
        };
        let mut s = Session::open("vm-0", cfg).unwrap();
        for i in 0..6u64 {
            s.offer(i, flat_obs(i));
        }
        assert_eq!(s.queued(), 4);
        assert_eq!(s.dropped(), 2);
        let first_seq = match s.queue.front() {
            Some(Item::Obs(seq, _)) => *seq,
            _ => u64::MAX,
        };
        assert_eq!(first_seq, 0);
    }

    #[test]
    fn kstest_stack_runs_beside_sds() {
        let cfg = SessionConfig {
            kstest: Some(KsTestParams::default()),
            ..fast_config()
        };
        let mut s = Session::open("vm-0", cfg).unwrap();
        feed(&mut s, 0, 2_000, flat_obs);
        assert_eq!(s.state(), SessionState::Monitoring);
        assert_eq!(s.detectors.len(), 2);
        // Stepping both through a benign stretch panics nowhere and
        // leaves the session monitoring.
        feed(&mut s, 2_000, 1_000, flat_obs);
        assert_eq!(s.state(), SessionState::Monitoring);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = SessionConfig { profile_ticks: 0, ..SessionConfig::default() };
        assert!(Session::open("vm-0", cfg).is_err());
        let cfg = SessionConfig { queue_capacity: 0, ..SessionConfig::default() };
        assert!(Session::open("vm-0", cfg).is_err());
    }

    #[test]
    fn drop_policy_parse() {
        assert_eq!(DropPolicy::parse("oldest"), Ok(DropPolicy::Oldest));
        assert_eq!(DropPolicy::parse(" newest "), Ok(DropPolicy::Newest));
        assert!(DropPolicy::parse("latest").is_err());
    }

    #[test]
    fn offer_reports_bursts_and_recovery() {
        let cfg = SessionConfig { queue_capacity: 2, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        assert_eq!(s.offer(0, flat_obs(0)), Offered::Admitted);
        assert_eq!(s.offer(1, flat_obs(1)), Offered::Admitted);
        assert_eq!(
            s.offer(2, flat_obs(2)),
            Offered::Dropped { terminal: false, burst: 1, total: 1 }
        );
        assert_eq!(
            s.offer(3, flat_obs(3)),
            Offered::Dropped { terminal: false, burst: 2, total: 2 }
        );
        // Drain the queue; the next offer is a recovery carrying the
        // burst size.
        s.process_queued();
        assert_eq!(s.offer(4, flat_obs(4)), Offered::Recovered { burst: 2 });
        assert_eq!(s.recoveries(), 1);
        assert_eq!(s.dropped(), 2);
    }

    #[test]
    fn duplicate_close_is_idempotent() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        feed(&mut s, 0, 10, flat_obs);
        s.offer_close(10, CloseReason::Ctl);
        s.offer_close(11, CloseReason::Ctl);
        let events = s.process_queued();
        let closes = events
            .iter()
            .filter(|e| e.payload.get_str("event") == Some("closed"))
            .count();
        assert_eq!(closes, 1);
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn close_reason_and_generation_are_logged() {
        let mut s = Session::open_generation("vm-0", fast_config(), 2).unwrap();
        assert_eq!(s.generation(), 2);
        s.offer(0, flat_obs(0));
        s.offer_close(1, CloseReason::Idle);
        let events = s.process_queued();
        let opened = events
            .iter()
            .find(|e| e.payload.get_str("event") == Some("opened"))
            .expect("opened event");
        assert_eq!(opened.payload.get_f64("gen"), Some(2.0));
        let closed = events
            .iter()
            .find(|e| e.payload.get_str("event") == Some("closed"))
            .expect("closed event");
        assert_eq!(closed.payload.get_str("reason"), Some("idle"));
    }
}
