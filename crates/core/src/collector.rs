//! The collector: phase control, safepoints, kickoff, and the parallel
//! stop-the-world pause (paper §2).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcgc_heap::{Heap, ObjectRef, SweepEpoch, SweepSource};
use mcgc_membar::sync::{Condvar, Mutex, MutexGuard};
use mcgc_packets::{PacketPool, WorkBuffer};
use mcgc_telemetry::{SpanGuard, SpanKind, TrackId};

use crate::config::{CollectorMode, GcConfig, SweepMode};
use crate::mutator::Mutator;
use crate::pacing::{CycleKind, CycleOutcome, Pacer};
use crate::roots::{MutatorShared, StwSync};
use crate::scheduler::{Bucket, Scheduler, Session};
use crate::stats::{CycleStats, GcLog, Trigger};
use crate::telemetry::GcTelemetry;

/// Collector phase as seen by mutators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// No collection in progress.
    Idle,
    /// The concurrent (tracing) phase is active.
    Concurrent,
}

pub(crate) const PHASE_IDLE: u8 = 0;
pub(crate) const PHASE_CONCURRENT: u8 = 1;

/// Errors surfaced to mutators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GcError {
    /// The heap cannot satisfy the allocation even after the full
    /// escalation ladder (finishing the concurrent phase, full
    /// stop-the-world collections, heap growth, one bounded backpressure
    /// stall) has run. Carries a postmortem snapshot: the segment map
    /// and how far each ladder rung got.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested_bytes: u64,
        /// Heap occupancy when the ladder gave up, in permille
        /// (0..=1000), of *committed* granules.
        occupancy_permille: u16,
        /// Heap segments committed when the ladder gave up.
        segments_committed: u16,
        /// Hard-limit segment capacity ([`HeapConfig::max_heap_bytes`]).
        ///
        /// [`HeapConfig::max_heap_bytes`]: mcgc_heap::HeapConfig::max_heap_bytes
        segments_max: u16,
        /// Bitmask of committed segments (bit `i` = segment `i`; the
        /// first 64).
        segment_map: u64,
        /// Slow-path iterations this allocation request took.
        ladder_iterations: u32,
        /// Full collections that ran for this request.
        full_collections: u32,
        /// Grow rungs that committed a segment for this request.
        grows: u32,
        /// Whether the bounded backpressure stall ran (and expired)
        /// before this error was surfaced.
        stalled: bool,
    },
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
                ladder_iterations,
                full_collections,
                grows,
                stalled,
            } => write!(
                f,
                "out of memory after full collection: requested {requested_bytes} B \
                 with heap {}.{}% occupied; {segments_committed}/{segments_max} segments \
                 committed (map {segment_map:#x}); ladder: {ladder_iterations} iterations, \
                 {full_collections} full collections, {grows} grows, stalled: {stalled}",
                occupancy_permille / 10,
                occupancy_permille % 10
            ),
        }
    }
}

impl std::error::Error for GcError {}

impl From<mcgc_heap::AllocError> for GcError {
    fn from(e: mcgc_heap::AllocError) -> GcError {
        match e {
            mcgc_heap::AllocError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
            } => GcError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
                // Ladder context is unknown at the heap layer; the
                // mutator's escalation state fills these in via
                // `Escalation::final_error` when it owns the failure.
                ladder_iterations: 0,
                full_collections: 0,
                grows: 0,
                stalled: false,
            },
        }
    }
}

/// Per-cycle atomic work counters (reset at cycle initialization).
#[derive(Debug, Default)]
pub(crate) struct CycleCounters {
    pub traced_mutator: AtomicU64,
    pub traced_background: AtomicU64,
    pub traced_stw: AtomicU64,
    pub card_scanned_bytes: AtomicU64,
    pub cards_cleaned_conc: AtomicU64,
    pub cards_cleaned_stw: AtomicU64,
    pub handshakes: AtomicU64,
    pub deferred: AtomicU64,
    pub overflows: AtomicU64,
    pub root_slots: AtomicU64,
}

impl CycleCounters {
    fn reset(&self) {
        for c in [
            &self.traced_mutator,
            &self.traced_background,
            &self.traced_stw,
            &self.card_scanned_bytes,
            &self.cards_cleaned_conc,
            &self.cards_cleaned_stw,
            &self.handshakes,
            &self.deferred,
            &self.overflows,
            &self.root_slots,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Total bytes traced concurrently (`T` in the progress formula).
    pub fn traced_concurrent(&self) -> u64 {
        self.traced_mutator.load(Ordering::Relaxed) + self.traced_background.load(Ordering::Relaxed)
    }
}

/// Concurrent card-cleaning progress (paper §2.1, §5.3).
#[derive(Debug, Default)]
pub(crate) struct CardCleanState {
    /// Current cleaning pass (0-based; `config.card_clean_passes` total).
    pub pass: usize,
    /// Next card index the snapshot scan will examine.
    pub cursor: usize,
    /// Registered dirty cards awaiting cleaning (§5.3 step 1 output).
    pub registry: VecDeque<usize>,
    /// All configured passes completed.
    pub done: bool,
}

impl CardCleanState {
    fn reset(&mut self) {
        self.pass = 0;
        self.cursor = 0;
        self.registry.clear();
        self.done = false;
    }
}

/// Tracing-increment accumulator for Table 4's tracing factor/fairness.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IncrementAccum {
    pub n: u64,
    pub factor_sum: f64,
    pub factor_sq_sum: f64,
}

/// Cycle boundaries on the flight recorder's clock (ns since the hub was
/// created), with the allocation totals at those moments.
#[derive(Debug)]
struct Timeline {
    /// End of the previous pause.
    last_cycle_end_ns: u64,
    /// The current cycle's initialization (its kickoff, or a fresh
    /// pause's in-pause start); the cycle span begins here.
    kickoff_ns: u64,
    alloc_at_last_end: u64,
    alloc_at_kickoff: u64,
}

#[derive(Debug)]
pub(crate) struct BgWindow {
    pub(crate) at: Instant,
    pub(crate) bg_traced: u64,
    pub(crate) allocated: u64,
}

/// The garbage collector: the paper's parallel, incremental, mostly
/// concurrent mark-sweep (CGC), or the stop-the-world baseline (STW),
/// selected by [`GcConfig::mode`].
///
/// Application threads register via [`Gc::register_mutator`] and perform
/// all heap access through their [`Mutator`] handle; the handle's
/// allocation slow path is where kickoff checks, incremental tracing, and
/// collections happen, exactly as in the paper.
pub struct Gc {
    pub(crate) config: GcConfig,
    pub(crate) heap: Heap,
    pub(crate) pool: PacketPool<ObjectRef>,
    pub(crate) pacer: Mutex<Pacer>,

    phase: AtomicU8,
    cycle: AtomicU64,

    // stop-the-world rendezvous
    pub(crate) stop_requested: AtomicBool,
    stw: Mutex<StwSync>,
    stw_cv: Condvar,
    coordinator: Mutex<()>,

    pub(crate) mutators: Mutex<Vec<Arc<MutatorShared>>>,
    next_mutator_id: AtomicU64,
    pub(crate) global_roots: Mutex<Vec<u64>>,
    pub(crate) global_scanned_cycle: AtomicU64,

    pub(crate) counters: CycleCounters,
    pub(crate) card_state: Mutex<CardCleanState>,
    pub(crate) increments: Mutex<IncrementAccum>,

    timeline: Mutex<Timeline>,
    pub(crate) bg_window: Mutex<BgWindow>,

    /// Straggler-fence accounting accumulated since the last pause: the
    /// fence runs *before* the world stops (kickoff or pre-pause), so its
    /// cost is stashed here and absorbed into the next `CycleStats`.
    straggler_ns: AtomicU64,
    straggler_chunks: AtomicU64,

    log: Mutex<GcLog>,
    pub(crate) tel: GcTelemetry,
    /// Flight-recorder track for cycle/pause-phase spans. Claimed once at
    /// construction: whichever thread wins the coordinator role records
    /// onto this one timeline, so pause phases from different coordinator
    /// threads still render as one track.
    coord_track: Option<TrackId>,
    /// The unified GC scheduler: one persistent worker pool serving
    /// pause sessions (work buckets claimed with a single wakeup per
    /// pause), the §3 background tracer duties, and the background
    /// sweeper — no pause phase or concurrent duty ever pays a
    /// `thread::spawn` or a per-phase barrier.
    sched: Scheduler,
    pub(crate) shutdown_flag: AtomicBool,

    /// §5.3 handshake epoch: bumped by the collector when a card snapshot
    /// needs every mutator to fence; mutators ack by storing the epoch
    /// into their `handshake_seen` at the next safepoint poll.
    pub(crate) handshake_epoch: AtomicU64,
    /// Scheduler workers currently carrying the background tracer duty
    /// (a `bg.death` fault or shutdown decrements it; watched by
    /// `gc_top`).
    pub(crate) bg_alive: AtomicUsize,
    /// Write-barrier executions, flushed by mutators per poll period and
    /// on drop (see [`Gc::write_barriers`]).
    write_barriers: AtomicU64,
}

impl Gc {
    /// Creates a collector and starts its scheduler pool (which carries
    /// the background tracer duties in concurrent mode). Call
    /// [`Gc::shutdown`] when done: the pool threads hold `Arc<Gc>`
    /// references.
    pub fn new(config: GcConfig) -> Arc<Gc> {
        let heap = Heap::new(config.heap);
        let pacer = Pacer::new(&config, heap.total_bytes());
        let now = Instant::now();
        let tel = GcTelemetry::new(config.stw_workers);
        let spans = Arc::clone(tel.hub.spans());
        let coord_track = spans.named_track("gc coordinator");
        heap.free_list().attach_recorder(Arc::clone(&spans));
        let sched = Scheduler::new(config.stw_workers, config.mode, config.background_threads);
        sched.attach_spans(spans);
        let gc = Arc::new(Gc {
            pool: PacketPool::new(config.pool),
            pacer: Mutex::new(pacer),
            phase: AtomicU8::new(PHASE_IDLE),
            cycle: AtomicU64::new(0),
            stop_requested: AtomicBool::new(false),
            stw: Mutex::new(StwSync::default()),
            stw_cv: Condvar::new(),
            coordinator: Mutex::new(()),
            mutators: Mutex::new(Vec::new()),
            next_mutator_id: AtomicU64::new(0),
            global_roots: Mutex::new(Vec::new()),
            global_scanned_cycle: AtomicU64::new(0),
            counters: CycleCounters::default(),
            card_state: Mutex::new(CardCleanState::default()),
            increments: Mutex::new(IncrementAccum::default()),
            timeline: Mutex::new(Timeline {
                last_cycle_end_ns: 0,
                kickoff_ns: 0,
                alloc_at_last_end: 0,
                alloc_at_kickoff: 0,
            }),
            bg_window: Mutex::new(BgWindow {
                at: now,
                bg_traced: 0,
                allocated: 0,
            }),
            straggler_ns: AtomicU64::new(0),
            straggler_chunks: AtomicU64::new(0),
            log: Mutex::new(GcLog::default()),
            tel,
            coord_track,
            sched,
            shutdown_flag: AtomicBool::new(false),
            handshake_epoch: AtomicU64::new(0),
            bg_alive: AtomicUsize::new(0),
            write_barriers: AtomicU64::new(0),
            heap,
            config,
        });
        gc.sched.start(&gc);
        gc
    }

    /// Stops the scheduler pool (pause workers and background tracer
    /// duties alike) and waits for it. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::SeqCst);
        self.sched.shutdown();
    }

    /// The unified GC scheduler.
    pub(crate) fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// The collector configuration.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Work-packet pool statistics.
    pub fn pool_stats(&self) -> mcgc_packets::PoolStats {
        self.pool.stats()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        if self.phase.load(Ordering::Acquire) == PHASE_CONCURRENT {
            Phase::Concurrent
        } else {
            Phase::Idle
        }
    }

    pub(crate) fn in_concurrent_phase(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_CONCURRENT
    }

    /// Current cycle number (0 before the first collection).
    pub fn cycle(&self) -> u64 {
        self.cycle.load(Ordering::Relaxed)
    }

    /// A clone of the completed-cycle log.
    pub fn log(&self) -> GcLog {
        self.log.lock().clone()
    }

    /// The live telemetry hub: flight recorder, pause/increment
    /// histograms, MMU tracker, and the metrics registry. Queryable from
    /// any thread mid-run.
    pub fn telemetry(&self) -> &mcgc_telemetry::Telemetry {
        &self.tel.hub
    }

    /// Opens a timed span on the coordinator track (the one timeline
    /// carrying cycle and pause-phase spans). It measures even when the
    /// recorder is disabled or out of track slots: its `finish()` is the
    /// wall time the phase reports in [`CycleStats`].
    fn coord_span(&self, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        self.tel.hub.spans().timed(self.coord_track, kind, arg)
    }

    /// Refreshes the pull-style gauges (phase, heap occupancy, pacer
    /// `K0`/`L`/`M`/`B` estimates, packet sub-pool occupancy) from live
    /// collector state. Call before reading or exporting the registry —
    /// `gc_top` does so once a second.
    pub fn telemetry_sample(&self) {
        let estimates = self.pacer.lock().estimates();
        let pool = self.pool.stats();
        self.tel.refresh_gauges(
            self.in_concurrent_phase(),
            self.cycle(),
            self.heap.occupancy(),
            self.heap.free_bytes() as u64,
            estimates,
            &pool,
            self.pool.occupancy(),
            self.bg_alive.load(Ordering::Relaxed) as u64,
            &self.heap.alloc_stats(),
            &self.heap.segment_stats(),
            &self.heap.sweep_counters(),
        );
        self.tel.refresh_sched(&self.sched);
        self.tel.refresh_postmortem();
    }

    /// Runs the heap verifier (tests/debugging). Must be called while no
    /// mutators run, e.g. right after creation or with all threads idle.
    pub fn verify_heap(&self) -> Vec<mcgc_heap::Violation> {
        mcgc_heap::verify(&self.heap, false)
    }

    /// Builds the final OOM error for a failed request, capturing the
    /// heap occupancy at the moment the escalation ladder gave up.
    pub(crate) fn oom(&self, requested_bytes: u64) -> GcError {
        GcError::from(self.heap.oom_error(requested_bytes))
    }

    // ------------------------------------------------------------------
    // verify-gc audits
    // ------------------------------------------------------------------

    /// Runs the full soundness audit: the structural verifier plus the
    /// mostly-concurrent tri-color invariant ("every unmarked object
    /// referenced from a marked object is promised to be revisited — its
    /// parent is grey in a work packet, or its parent's card is dirty or
    /// registered for rescanning"). Panics with a report on violation.
    ///
    /// Must be called at a quiescent point: no mutators running, no
    /// packets held. Always available; the `verify-gc` cargo feature
    /// additionally runs it automatically inside every pause and at
    /// single-threaded increment boundaries.
    pub fn audit_now(&self) {
        self.audit_concurrent_state("explicit", true);
    }

    /// The audit body for points where concurrent-marking state (packet
    /// entries, dirty cards, the cleaning registry) is live and excuses
    /// unfinished edges. `structural` additionally runs [`verify_heap`]
    /// — only sound when every allocation cache has been retired
    /// (mark-and-push marks objects whose allocation bits are still
    /// pending, so mark⊆alloc holds only after retirement).
    fn audit_concurrent_state(&self, site: &str, structural: bool) {
        use std::collections::HashSet;
        // The grey set: marked-but-unscanned objects sitting in work
        // packets.
        // SAFETY: the caller is at a quiescent point (world stopped, or
        // the only thread touching the pool), so no packet is held or
        // mutated during the walk.
        let grey: HashSet<usize> = unsafe { self.pool.snapshot_entries() }
            .into_iter()
            .map(|r| r.index())
            .collect();
        // Cards pulled out of the card table by §5.3 snapshot-to-clean
        // but not yet rescanned still cover their objects.
        let registry: HashSet<usize> = self.card_state.lock().registry.iter().copied().collect();
        let cards = self.heap.cards();
        let mut v = if structural {
            mcgc_heap::verify(&self.heap, false)
        } else {
            Vec::new()
        };
        v.extend(mcgc_heap::verify_tricolor(
            &self.heap,
            |g| grey.contains(&g),
            |g| {
                let card = g / mcgc_heap::GRANULES_PER_CARD;
                cards.is_dirty(card) || registry.contains(&card)
            },
        ));
        Self::audit_report(site, v);
    }

    /// The exact audit for the end of marking: the pool is drained, the
    /// card table and registry are clean, so marked objects may only
    /// reference marked objects — no excuses.
    #[cfg(feature = "verify-gc")]
    fn audit_strict(&self, site: &str) {
        let mut v = mcgc_heap::verify(&self.heap, false);
        v.extend(mcgc_heap::verify_tricolor(&self.heap, |_| false, |_| false));
        Self::audit_report(site, v);
    }

    /// Tri-color audit at a mutator increment boundary. Only runs in the
    /// single-threaded configuration (one registered mutator, no
    /// background tracers): anything else has concurrent heap walkers
    /// and the audit itself would race.
    #[cfg(feature = "verify-gc")]
    pub(crate) fn audit_increment_boundary(&self) {
        if self.audits_single_threaded() {
            self.audit_concurrent_state("increment-boundary", false);
        }
    }

    /// The audit at a minor cycle's start, in the same single-threaded
    /// configuration: every marked object with an unmarked child lies on
    /// a card the kickoff registered. (Elsewhere other mutators store
    /// into old objects while the audit walks them.)
    #[cfg(feature = "verify-gc")]
    fn audit_minor_start(&self) {
        if !self.audits_single_threaded() {
            return;
        }
        let registry: std::collections::HashSet<usize> =
            self.card_state.lock().registry.iter().copied().collect();
        let v = mcgc_heap::verify_tricolor(
            &self.heap,
            |_| false,
            |g| registry.contains(&(g / mcgc_heap::GRANULES_PER_CARD)),
        );
        Self::audit_report("minor-cycle-start", v);
    }

    /// One registered mutator and no background tracers: no other thread
    /// walks or mutates the heap while an audit runs outside a pause.
    #[cfg(feature = "verify-gc")]
    fn audits_single_threaded(&self) -> bool {
        self.config.background_threads == 0 && self.mutators.lock().len() == 1
    }

    fn audit_report(site: &str, v: Vec<mcgc_heap::Violation>) {
        if v.is_empty() {
            return;
        }
        let mut msg = format!(
            "verify-gc audit failed at {site} with {} violations:\n",
            v.len()
        );
        for violation in v.iter().take(20) {
            msg.push_str(&format!("  - {violation}\n"));
        }
        panic!("{msg}");
    }

    // ------------------------------------------------------------------
    // global roots
    // ------------------------------------------------------------------

    /// Pushes a global root slot (process-wide, scanned every cycle);
    /// returns its index.
    pub fn global_root_push(&self, value: Option<ObjectRef>) -> usize {
        let mut roots = self.global_roots.lock();
        roots.push(ObjectRef::encode(value));
        roots.len() - 1
    }

    /// Overwrites global root slot `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn global_root_set(&self, idx: usize, value: Option<ObjectRef>) {
        self.global_roots.lock()[idx] = ObjectRef::encode(value);
    }

    /// Reads global root slot `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn global_root_get(&self, idx: usize) -> Option<ObjectRef> {
        ObjectRef::decode(self.global_roots.lock()[idx])
    }

    // ------------------------------------------------------------------
    // registration
    // ------------------------------------------------------------------

    /// Registers the calling thread as a mutator.
    pub fn register_mutator(self: &Arc<Self>) -> Mutator {
        let id = self.next_mutator_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(MutatorShared::new(id));
        // Start already caught up with the handshake epoch, so a freshly
        // registered thread cannot stall an in-flight card handshake.
        shared.handshake_seen.store(
            self.handshake_epoch.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        {
            let mut g = self.stw.lock();
            // A thread arriving mid-pause waits for the world to resume.
            while g.stop {
                self.stw_cv.wait(&mut g);
            }
            g.registered += 1;
            self.mutators.lock().push(Arc::clone(&shared));
        }
        Mutator::new(Arc::clone(self), shared)
    }

    /// Write-barrier executions ([`Mutator::write_ref`] calls) so far.
    /// A mutator adds its count once per safepoint-poll period of
    /// barriers and the remainder when it drops, so the barrier itself
    /// stays one relaxed card store (§5) and the total is exact once
    /// every mutator has dropped.
    pub fn write_barriers(&self) -> u64 {
        self.write_barriers.load(Ordering::Relaxed)
    }

    pub(crate) fn count_write_barriers(&self, n: u64) {
        self.write_barriers.fetch_add(n, Ordering::Relaxed);
    }

    /// Removes a mutator from the rendezvous. Its `Drop` has already
    /// retired its cache.
    pub(crate) fn deregister_mutator(&self, shared: &Arc<MutatorShared>) {
        let mut g = self.stw.lock();
        self.mutators.lock().retain(|m| m.id != shared.id);
        g.registered -= 1;
        self.stw_cv.notify_all();
    }

    /// Registers a collector-internal thread (background tracer) in the
    /// rendezvous protocol.
    pub(crate) fn register_thread(&self) {
        let mut g = self.stw.lock();
        while g.stop {
            self.stw_cv.wait(&mut g);
        }
        g.registered += 1;
    }

    pub(crate) fn deregister_thread(&self) {
        let mut g = self.stw.lock();
        g.registered -= 1;
        self.stw_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // safepoints
    // ------------------------------------------------------------------

    /// Marks the calling registered thread *safe* (parked, blocked, or
    /// waiting). The collector may stop the world while the thread is
    /// safe; the thread must not touch the heap until [`Gc::exit_safe`].
    pub(crate) fn enter_safe(&self) {
        let mut g = self.stw.lock();
        g.safe += 1;
        self.stw_cv.notify_all();
    }

    /// Leaves the safe state, waiting out any stop-the-world pause.
    pub(crate) fn exit_safe(&self) {
        let mut g = self.stw.lock();
        while g.stop {
            self.stw_cv.wait(&mut g);
        }
        g.safe -= 1;
    }

    /// Safepoint poll: parks for the duration of a pause if one is
    /// requested. Cheap when not.
    #[inline]
    pub(crate) fn poll_safepoint(&self) {
        if self.stop_requested.load(Ordering::Relaxed) {
            self.enter_safe();
            self.exit_safe();
        }
    }

    /// §5.3 handshake ack, piggybacked on the safepoint poll: when the
    /// collector has advanced the handshake epoch, the mutator fences
    /// (ordering its preceding slot stores against the card snapshot)
    /// and publishes the epoch it has caught up to.
    #[inline]
    pub(crate) fn poll_handshake(&self, m: &MutatorShared) {
        let epoch = self.handshake_epoch.load(Ordering::Acquire);
        if m.handshake_seen.load(Ordering::Relaxed) == epoch {
            return;
        }
        // Fault: the mutator "loses" the ack — the collector-side timeout
        // must force completion instead.
        if mcgc_fault::point!("handshake.delay") {
            return;
        }
        mcgc_membar::full_fence(mcgc_membar::FenceKind::CardHandshake);
        m.handshake_seen.store(epoch, Ordering::Release);
    }

    /// Stops the world: sets the stop flag and waits until every *other*
    /// registered thread is safe. Caller must hold the coordinator lock
    /// and be a registered thread itself.
    fn stop_world(&self) {
        let mut g = self.stw.lock();
        g.stop = true;
        self.stop_requested.store(true, Ordering::SeqCst);
        while g.safe + 1 < g.registered {
            self.stw_cv.wait(&mut g);
        }
    }

    /// Resumes the world after a pause.
    fn resume_world(&self) {
        let mut g = self.stw.lock();
        g.stop = false;
        self.stop_requested.store(false, Ordering::SeqCst);
        self.stw_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // cycle control
    // ------------------------------------------------------------------

    /// Whether used (committed minus free) heap has crossed the
    /// [`GcConfig::soft_limit_bytes`] soft limit. `false` when the soft
    /// limit is disabled (0).
    ///
    /// [`GcConfig::soft_limit_bytes`]: crate::GcConfig::soft_limit_bytes
    pub(crate) fn soft_limit_pressure(&self) -> bool {
        let soft = self.config.soft_limit_bytes;
        soft > 0
            && self
                .heap
                .total_bytes()
                .saturating_sub(self.heap.free_bytes())
                >= soft
    }

    /// Kickoff check (§3.1): starts a new concurrent cycle when free
    /// memory drops below `(L + M) / K0`, or — independent of the pacer's
    /// schedule — when used memory crosses the soft limit (emergency
    /// kickoff: collect now so the grow rung and hard limit are never
    /// reached). The cycle is minor when the last pause planned one, and
    /// full after an emergency. Called from `requester`'s allocation slow
    /// path; cheap when no cycle is due.
    ///
    /// `starved`: an allocation of that many bytes failed with no cycle
    /// running. A planned minor cycle then starts whatever the free bytes
    /// read — its threshold (young survivors over `K0`) is small enough
    /// for a fragmented heap to fail an allocation before free memory
    /// crosses it — and the caller's collection finishes it instead of
    /// running a full stop-the-world one. Unless another thread's
    /// collection has made room meanwhile: then the caller retries.
    pub(crate) fn maybe_kickoff(&self, requester: &Arc<MutatorShared>, starved: Option<usize>) {
        if self.config.mode != CollectorMode::Concurrent || self.in_concurrent_phase() {
            return;
        }
        if !self.soft_limit_pressure() && self.planned_kickoff(starved.is_some()).is_none() {
            return;
        }
        // Blocking for the coordinator role also throttles allocators
        // that crossed the threshold while another thread initializes the
        // cycle, instead of letting them race through the remaining
        // headroom.
        let _guard = self.lock_coordinator(requester);
        if self.in_concurrent_phase() {
            return;
        }
        if starved.is_some_and(|bytes| {
            self.heap.largest_free_bytes() >= bytes
                || self
                    .heap
                    .lazy_plan()
                    .is_some_and(|p| p.remaining_chunks() > 0)
        }) {
            return;
        }
        // Lazy sweep from the previous cycle must finish before mark bits
        // are recycled or kept.
        let _kick = self
            .tel
            .hub
            .spans()
            .span(SpanKind::KickoffDecision, self.heap.free_bytes() as u64);
        self.finish_lazy_sweep();
        let kind = if self.soft_limit_pressure() {
            self.tel.on_emergency_kickoff();
            CycleKind::Full
        } else {
            match self.planned_kickoff(starved.is_some()) {
                Some(kind) => kind,
                None => return, // finishing the sweep recovered enough space
            }
        };
        self.begin_cycle_locked(kind, Some(requester));
    }

    /// The pacer's kickoff decision: the kind of the cycle the last pause
    /// planned, if the §3 kickoff formula holds for the current headroom
    /// or — for a planned minor cycle — the caller is `starved`.
    fn planned_kickoff(&self, starved: bool) -> Option<CycleKind> {
        let headroom = self.kickoff_headroom();
        let pacer = self.pacer.lock();
        let kind = pacer.kind();
        (pacer.should_kickoff(headroom) || starved && kind == CycleKind::Minor).then_some(kind)
    }

    /// Takes the coordinator role for `requester`'s thread. It waits
    /// *safe*, so an in-progress pause can proceed without it, and
    /// *parked*, so a minor kickoff's card handshake does not wait out its
    /// timeout for an ack this thread cannot give while it blocks; it
    /// acks before unparking, as [`Mutator::blocked`] does.
    fn lock_coordinator(&self, requester: &MutatorShared) -> MutexGuard<'_, ()> {
        requester.park_safe();
        self.enter_safe();
        let guard = self.coordinator.lock();
        // We hold the coordinator lock: nobody else can set `stop`, so
        // this returns without blocking.
        self.exit_safe();
        self.poll_handshake(requester);
        requester.unpark_safe();
        guard
    }

    /// Free bytes as the kickoff formula should see them: actual free
    /// space plus an upper bound on what the in-flight sweep epoch still
    /// holds in unswept chunks, less one allocation cache per mutator.
    ///
    /// The epoch cleared the free list at install, so right after a lazy
    /// pause `free_bytes()` reads near zero — feeding that raw number to
    /// the pacer would kick off the next cycle immediately and turn every
    /// epoch into one big straggler fence, instead of letting
    /// sweep-on-refill and the background sweeper drain it off-pause.
    ///
    /// The caches: kickoff is checked once per cache refill, so between
    /// two checks the mutators can claim one cache each. A threshold
    /// below that — a minor cycle's, whose `L` is only its young
    /// survivors — would otherwise be crossed by an allocation failure
    /// first, turning every cycle into a fresh stop-the-world one.
    fn kickoff_headroom(&self) -> u64 {
        let pending = self.heap.lazy_plan().map_or(0, |p| {
            p.pending_granules(&self.heap) * mcgc_heap::GRANULE_BYTES
        });
        let caches = self.config.heap.cache_bytes * self.mutators.lock().len();
        (self.heap.free_bytes() + pending).saturating_sub(caches) as u64
    }

    /// Initializes a new cycle of `kind` (§2.1): resets work state, sets
    /// up the card table, wakes the background threads (they poll).
    /// Caller holds the coordinator lock; phase is Idle. A minor cycle
    /// begins only at a kickoff, run by `requester`'s thread.
    ///
    /// A full cycle clears the card table, and its mark bits are clear
    /// (§2.1 "the card table is cleared, the mark bits are cleared"): the
    /// previous cycle's sweep epoch was retired first — in its own pause
    /// when eager, by the straggler fence every cycle start runs when
    /// lazy — and retirement clears them, unless it kept them for a
    /// minor cycle that this full one replaces; then they are cleared
    /// here. A minor cycle keeps the marks and turns the cards dirtied
    /// since the last pause into its remembered set
    /// ([`Gc::register_remembered_set`]). So initialization is short,
    /// which matters because mutators keep allocating while this runs
    /// and a slow init would eat the kickoff headroom.
    fn begin_cycle_locked(&self, kind: CycleKind, requester: Option<&Arc<MutatorShared>>) {
        debug_assert!(!self.in_concurrent_phase());
        let minor = kind == CycleKind::Minor;
        debug_assert!(
            !minor || self.heap.marks_kept(),
            "minor cycle without kept marks"
        );
        if !minor {
            if self.heap.marks_kept() {
                self.heap.clear_marks();
            }
            // verify-gc: no mark is left behind.
            #[cfg(feature = "verify-gc")]
            Self::audit_report("cycle-start", mcgc_heap::verify_marks_clear(&self.heap));
            self.heap.cards().clear_all();
        }
        self.counters.reset();
        self.card_state.lock().reset();
        self.pacer.lock().begin_cycle(kind);
        if minor {
            self.register_remembered_set(requester);
            #[cfg(feature = "verify-gc")]
            self.audit_minor_start();
        }
        *self.increments.lock() = IncrementAccum::default();
        self.pool.reset_stats();
        let cycle = self.cycle.fetch_add(1, Ordering::Relaxed) + 1;
        self.tel.on_cycle_begin(minor);
        let spans = self.tel.hub.spans();
        spans.set_cycle(cycle as u32);
        {
            let mut t = self.timeline.lock();
            t.kickoff_ns = spans.now_ns();
            t.alloc_at_kickoff = self.heap.bytes_allocated();
        }
        {
            let mut w = self.bg_window.lock();
            w.at = Instant::now();
            w.bg_traced = 0;
            w.allocated = self.heap.bytes_allocated();
        }
        self.phase.store(PHASE_CONCURRENT, Ordering::Release);
        // Wake the scheduler pool: the paper's background tracers exist
        // to soak up exactly the window that opens here, and on a busy
        // host that window can be shorter than their poll interval.
        self.sched.kickoff_wake();
    }

    /// Requests a collection for `requester`'s thread: finishes the
    /// concurrent phase (or runs a full stop-the-world collection) and
    /// returns once the world has resumed. Any registered mutator thread
    /// may call this; concurrent requests coalesce.
    ///
    /// [`Trigger::Explicit`] always leaves the heap as a full cycle does:
    /// when the phase it finishes belongs to a minor cycle, a full
    /// stop-the-world collection follows.
    pub(crate) fn collect_inner(&self, trigger: Trigger, requester: &MutatorShared) {
        self.collect_for_alloc(trigger, usize::MAX, requester);
    }

    /// Like [`Gc::collect_inner`], but skips the pause if another
    /// thread's collection already produced a free extent of at least
    /// `min_contiguous` bytes (the failed request can now succeed).
    pub(crate) fn collect_for_alloc(
        &self,
        trigger: Trigger,
        min_contiguous: usize,
        requester: &MutatorShared,
    ) {
        let _guard = self.lock_coordinator(requester);

        if trigger == Trigger::AllocationFailure {
            if self.heap.largest_free_bytes() >= min_contiguous {
                // Another thread's collection already freed a usable run;
                // total free space is not the test (it may be fragments).
                return;
            }
            // A collection that raced ahead of us may have *just installed*
            // a sweep epoch — the free list is empty by design until its
            // chunks are swept, so "no usable run" does not mean another
            // pause is needed. Drain the epoch (bounded by its chunk
            // count) before concluding that; without this, an allocation
            // failure right after a lazy pause fences the brand-new epoch
            // and escalates to a full stop-the-world cycle while nearly
            // all of the heap's free space sits in unswept chunks.
            while self.heap.lazy_plan_active() {
                if !self.sweep_some_lazy() {
                    break;
                }
                if self.heap.largest_free_bytes() >= min_contiguous {
                    return;
                }
            }
        }
        if trigger == Trigger::ConcurrentDone && !self.in_concurrent_phase() {
            return; // someone already finished the phase
        }
        loop {
            self.finish_lazy_sweep();
            self.stop_world();
            let minor = self.run_pause(trigger);
            self.resume_world();
            // The second round is a fresh pause, hence full.
            if !(minor && trigger == Trigger::Explicit) {
                break;
            }
        }
    }

    /// The lazy sweep epoch's **completion fence**: drives any chunks the
    /// previous cycle's refill and background sweeping left unswept
    /// (the *stragglers*) to completion, then retires the epoch, before
    /// mark bits are recycled.
    /// Runs as a scheduler session of its own, *before* the world stops
    /// (called at kickoff and pre-pause under the coordinator lock), so
    /// the measured pause itself contains no bulk sweep — only this
    /// bounded, counted remainder. The cost is stashed and folded into
    /// the next `CycleStats` as `straggler_wall`/`straggler_chunks`.
    pub(crate) fn finish_lazy_sweep(&self) {
        let Some(plan) = self.heap.lazy_plan() else {
            return;
        };
        let before = plan.remaining_chunks() as u64;
        let fence = self.coord_span(SpanKind::StragglerFence, before);
        if before > 0 {
            let session = self.sched.open_session();
            session.run(Bucket::Straggler, |w| {
                self.drain_epoch(w, &plan, SweepSource::Straggler)
            });
        }
        // Chunks claimed by a concurrent refill (or a stalled background
        // sweeper that already claimed) may still be in flight; each
        // claimer finishes its chunk promptly, so this wait is bounded.
        while !plan.is_done() {
            std::thread::yield_now();
        }
        let ns = fence.finish().as_nanos() as u64;
        self.straggler_ns.fetch_add(ns, Ordering::Relaxed);
        self.straggler_chunks.fetch_add(before, Ordering::Relaxed);
        self.tel.on_straggler(before, ns);
        self.retire_lazy_plan();
    }

    /// Sweeps a few lazy chunks on behalf of an allocating mutator;
    /// returns true if progress was made (caller retries allocation).
    pub(crate) fn sweep_some_lazy(&self) -> bool {
        let Some(plan) = self.heap.lazy_plan() else {
            return false;
        };
        let mut progressed = false;
        for _ in 0..8 {
            if plan
                .sweep_one_from(&self.heap, SweepSource::Escalation)
                .is_none()
            {
                break;
            }
            progressed = true;
        }
        if plan.is_done() {
            self.try_retire_lazy_plan();
        }
        progressed
    }

    /// One background-sweeper quantum (the sweep-epoch analogue of the
    /// §3 background tracers): drains up to `bg_sweep_batch` chunks of
    /// the active epoch, or parks for this turn when the pacer sees
    /// mutator refills keeping up on their own. Returns true if chunks
    /// were swept (caller yields briefly and comes back).
    pub(crate) fn background_sweep_quantum(&self, pacer: &mut crate::pacing::BgSweepPacer) -> bool {
        if !self.config.bg_sweep || self.config.sweep != SweepMode::Lazy {
            return false;
        }
        let Some(plan) = self.heap.lazy_plan() else {
            return false;
        };
        // Fault: the background sweeper stalls for the payload's duration
        // (milliseconds) *before claiming anything*, so a stalled sweeper
        // never holds a chunk hostage — allocation self-serves via
        // sweep-on-refill and the next fence drains the rest.
        if mcgc_fault::point!("sweep.bg_stall") {
            let ms = match mcgc_fault::payload("sweep.bg_stall") {
                0 => 1000,
                ms => ms.clamp(1, 60_000),
            };
            let deadline = Instant::now() + Duration::from_millis(ms);
            while !self.shutdown_flag.load(Ordering::Relaxed) && Instant::now() < deadline {
                self.enter_safe();
                self.background_park(Duration::from_millis(2));
                self.exit_safe();
            }
            return false;
        }
        if !pacer.should_drain(self.heap.sweep_counters().refill_chunks) {
            return false;
        }
        let mut progressed = false;
        for _ in 0..self.config.bg_sweep_batch.max(1) {
            if plan
                .sweep_one_from(&self.heap, SweepSource::Background)
                .is_none()
            {
                break;
            }
            progressed = true;
        }
        if plan.is_done() {
            self.try_retire_lazy_plan();
        }
        progressed
    }

    /// One worker's share of draining `epoch` in a scheduler bucket:
    /// claims and sweeps chunks on behalf of `source` until none is left
    /// unclaimed. The eager pause runs it in its `Sweep` bucket and the
    /// straggler fence in its `Straggler` bucket; the two differ only in
    /// bucket and source.
    fn drain_epoch(&self, worker: usize, epoch: &SweepEpoch, source: SweepSource) {
        let swept = epoch.drain(&self.heap, source);
        self.sched.add_claimed(worker, swept as u64);
    }

    /// [`Gc::retire_lazy_plan`] for a sweeping thread that does not hold
    /// the coordinator lock. Takes the lock without blocking; when some
    /// thread already holds it (possibly this one), the finished plan
    /// stays installed, and the `finish_lazy_sweep` that every cycle
    /// start runs first retires it.
    fn try_retire_lazy_plan(&self) {
        if let Some(_coordinator) = self.coordinator.try_lock() {
            self.retire_lazy_plan();
        }
    }

    /// Retires a drained lazy epoch ([`Heap::retire_epoch`]: dark bytes
    /// set, mark bits cleared) and logs its live totals into the cycle
    /// that marked it. That is always the last logged cycle: every cycle
    /// start first drains and retires the previous epoch.
    ///
    /// Caller holds the coordinator lock, which every cycle start also
    /// holds: otherwise a kickoff that finds the plan already taken could
    /// start marking while the clear still runs, and the clear would
    /// wipe the new cycle's marks.
    fn retire_lazy_plan(&self) {
        if let Some(plan) = self.heap.take_lazy_plan_if_done() {
            let swept = self.heap.retire_epoch(&plan);
            if let Some(cycle) = self.log.lock().cycles.last_mut() {
                cycle.live_after_objects = swept.live_objects as u64;
                cycle.live_after_bytes = (swept.live_granules * mcgc_heap::GRANULE_BYTES) as u64;
            }
            self.tel.on_lazy_retired();
        }
    }

    // ------------------------------------------------------------------
    // the pause
    // ------------------------------------------------------------------

    /// Runs the stop-the-world phase (paper §2.2) and returns whether the
    /// cycle it ended was minor. World is stopped; caller holds the
    /// coordinator lock.
    fn run_pause(&self, trigger: Trigger) -> bool {
        let fresh = !self.in_concurrent_phase();
        let trigger = if fresh && trigger != Trigger::Explicit {
            Trigger::Baseline
        } else {
            trigger
        };
        // The sweep mode decides only when this cycle's sweep epoch
        // drains: here, in the pause, or off-pause after it.
        let drain_now = self.config.sweep == SweepMode::Eager;
        let spans = self.tel.hub.spans();
        if fresh {
            // A fresh pause initializes its cycle further down; stamp the
            // new cycle number now, so the pause's first spans carry it
            // too (postmortems match phases to their pause by cycle).
            spans.set_cycle(self.cycle() as u32 + 1);
        }
        // The pause's clock: `pause_wall`, the pause histogram and the
        // `gc.pause` span all read this guard. Its phases tile it: the
        // first begins with it, each next one where the previous ended
        // (`SpanGuard::then`), and the last ends with it.
        let pause = self.coord_span(SpanKind::Pause, trigger.code());
        let mut retire = pause.first_phase(SpanKind::PauseRetire, 0);

        // 1. Retire every allocation cache (publishes pending allocation
        //    bits; sweep needs cache tails back on the free list).
        let mutators: Vec<Arc<MutatorShared>> = self.mutators.lock().clone();
        for m in &mutators {
            // SAFETY: the world is stopped (`stop_world` returned,
            // `resume_world` not yet run), so every other owner is safe,
            // holds no borrow, and its last access happened-before
            // `stop_world` returned, through the stw mutex. This thread's
            // own `Mutator`, if any, holds none across `collect_*`.
            self.heap.retire_cache(unsafe { m.cache.owned_mut() });
        }
        retire.set_arg(mutators.len() as u64);

        // Occupancy-driven shrink after an off-pause drain. An eager
        // pause releases empty grown segments when it settles its free
        // list below; a lazily drained epoch freed its extents
        // incrementally, and this pause is the first stop-the-world point
        // where "entirely free" is stable. The release is epoch-aware:
        // should a pause ever fire with a plan still in flight, segments
        // with unswept chunks are not "empty" yet (their dead memory has
        // not reached the free list) and are skipped by the heap's
        // `range_fully_swept` guard.
        if !drain_now {
            self.heap.release_empty_segments();
        }

        // Open the pause's work-bucket session: the one wakeup the
        // whole pause pays. Every phase below publishes a bucket into
        // it; resident workers flow from one bucket to the next with no
        // further condvar traffic.
        let session = self.sched.open_session();

        // Watchdog: the world is stopped, so any packet still checked out
        // belongs to a tracer that stalled or died mid-increment (every
        // healthy thread returns its packets before parking). Condemn
        // those handles — they count toward §4.3 termination and their
        // bodies are written off — and re-derive the lost grey objects by
        // dirtying every marked object's card: the drain loop's
        // redirty/re-clean iteration then rediscovers their children.
        let stalled = self.pool.outstanding();
        if stalled > 0 {
            let reclaimed = self.pool.condemn_outstanding();
            if reclaimed > 0 {
                self.flood_marked_cards(&session);
                self.tel.on_watchdog_reclaim(reclaimed as u64);
            }
        }

        // verify-gc: audit the concurrent phase's parting state — caches
        // retired (so mark⊆alloc must hold), every marked→unmarked edge
        // excused by a packet entry, a dirty card, or the registry.
        #[cfg(feature = "verify-gc")]
        if !fresh {
            self.audit_concurrent_state("pause-start", true);
        }

        // A fresh (baseline/explicit-from-idle) collection initializes
        // its cycle now, under the pause. It is always full.
        if fresh {
            self.begin_cycle_locked(CycleKind::Full, None);
            self.phase.store(PHASE_CONCURRENT, Ordering::Release);
            // timeline: no real concurrent phase
        }

        let cycle_no = self.cycle();
        let kind = self.pacer.lock().kind();
        let free_at_stw_start = self.heap.free_bytes() as u64;

        // 2. Final card cleaning (§2.2) — only meaningful if a concurrent
        //    phase ran (fresh cycles have a clean card table *except* for
        //    barrier activity before this instant, which is harmless to
        //    clean). Cleaned as a scheduler bucket; `cards_wall` also
        //    absorbs the drain loop's re-clean passes below.
        let (retire_wall, cards) = retire.then(SpanKind::PauseCards, 0);
        // With the world stopped, only §4.3 overflow dirties a card
        // (`Gc::overflow_to_card`, which counts it first); the drain loop
        // below re-snapshots the table only when this count has moved.
        let mut overflows_seen = self.counters.overflows.load(Ordering::Relaxed);
        let (cards_left, stw_clean_work) = self.stw_clean_cards(&session, fresh);

        // 3. Rescan all thread stacks and global roots (§2.2), as one
        //    bucket: one task per mutator stack plus chunked global
        //    roots.
        let (mut cards_wall, roots) = cards.then(SpanKind::PauseRoots, mutators.len() as u64);
        let root_slots_before = self.counters.root_slots.load(Ordering::Relaxed);
        self.sched_scan_roots(&session, &mutators);
        let root_slots = self.counters.root_slots.load(Ordering::Relaxed) - root_slots_before;

        // 4. Complete marking in parallel (§2.2; marker similar to Endo
        //    et al.). Packet overflow during this drain falls back to
        //    mark-and-dirty-card (§4.3), so iterate: after each drain
        //    that overflowed (or followed an overflow in the cleaning,
        //    root or re-clean work before it), snapshot the cards (timed
        //    with the drain), clean the dirty ones and drain again.
        //    Marking is monotone, so this terminates.
        let (roots_wall, mut drain) = roots.then(SpanKind::PauseDrain, 0);
        let stw_traced_before = self.counters.traced_stw.load(Ordering::Relaxed);
        let mut extra_clean_ms = 0.0;
        let mut drain_wall = Duration::ZERO;
        let mut drain_round = 0u64;
        let mut redirty = Vec::new();
        loop {
            self.drain_marking_parallel(&session);
            redirty.clear();
            let overflows = self.counters.overflows.load(Ordering::Relaxed);
            if overflows != overflows_seen {
                overflows_seen = overflows;
                self.heap
                    .cards()
                    .snapshot_dirty(0, self.heap.cards().len(), &mut redirty);
            } else {
                // verify-gc: no overflow since the last snapshot, so no
                // card can be dirty.
                #[cfg(feature = "verify-gc")]
                assert_eq!(
                    self.heap.cards().count_dirty(),
                    0,
                    "dirty cards but no overflow since the last snapshot"
                );
            }
            if redirty.is_empty() {
                break;
            }
            drain_round += 1;
            let (wall, reclean) = drain.then(SpanKind::PauseReclean, redirty.len() as u64);
            drain_wall += wall;
            let scanned = self.sched_clean_cards(&session, &redirty);
            let (wall, next) = reclean.then(SpanKind::PauseDrain, drain_round);
            cards_wall += wall;
            drain = next;
            extra_clean_ms += self
                .config
                .cost
                .card_ms(self.heap.cards().len() as u64, redirty.len() as u64)
                + self.config.cost.trace_ms(scanned);
        }
        let stw_traced = self.counters.traced_stw.load(Ordering::Relaxed) - stw_traced_before;

        // verify-gc: marking is complete — the tri-color invariant must
        // now hold with no excuses.
        #[cfg(feature = "verify-gc")]
        self.audit_strict("post-drain");

        // 5. Feed the pacer (§3.1) and plan the next cycle's kind, which
        //    the sweep epoch carries. The `L` observation must be the
        //    FULL trace volume (concurrent + stop-the-world): when a phase
        //    is halted by an allocation failure, the concurrently-traced
        //    bytes alone would underestimate `L`, shrink the kickoff
        //    threshold, and spiral into ever-later kickoffs. Only the
        //    concurrent collector runs minor cycles.
        //    Timed under the sweep span, whose epoch carries the plan.
        let (wall, sweep) = drain.then(SpanKind::PauseSweep, u64::from(!drain_now));
        drain_wall += wall;
        let c = &self.counters;
        let traced = c.traced_concurrent() + c.traced_stw.load(Ordering::Relaxed);
        let next = {
            let mut pacer = self.pacer.lock();
            let predicted = pacer.l_est() as u64;
            pacer.end_cycle(traced, c.card_scanned_bytes.load(Ordering::Relaxed).max(1));
            if self.config.mode == CollectorMode::Concurrent {
                let at_last_pause = self.timeline.lock().alloc_at_last_end;
                pacer.plan_next(&CycleOutcome {
                    kind,
                    traced,
                    predicted,
                    allocated: self.heap.bytes_allocated() - at_last_pause,
                    heap: self.heap.total_bytes() as u64,
                })
            } else {
                CycleKind::Full
            }
        };

        // 6. Sweep: plan the sweep epoch over this cycle's marks. Eager
        //    sweep drains it right here as a scheduler bucket, holding
        //    each chunk's extents, then settles the free list once, with
        //    the world stopped: the held extents in address order, less
        //    any empty segment released, rebuilt (coalescing the splits
        //    at chunk edges). Lazy sweep publishes the epoch instead:
        //    reclamation is paid off-pause by sweep-on-refill and the
        //    background sweeper, and the *next* cycle's fence only
        //    finishes stragglers.
        let epoch = SweepEpoch::new(&self.heap, mcgc_heap::SWEEP_CHUNK_GRANULES)
            .with_recorder(Arc::clone(self.tel.hub.spans()))
            .keeping_marks(next == CycleKind::Minor);
        let drained = if drain_now {
            session.run(Bucket::Sweep, |w| {
                self.drain_epoch(w, &epoch, SweepSource::Pause)
            });
            self.heap.settle_drained_epoch(&epoch);
            Some(epoch)
        } else {
            self.heap.install_lazy_plan(Arc::new(epoch));
            None
        };
        let (sweep_wall, clear) = sweep.then(SpanKind::PauseClear, 0);

        // verify-gc: the settled free list must agree with the bitmaps
        // while the marks are still there (lazy sweeping checks per
        // chunk).
        #[cfg(feature = "verify-gc")]
        if drained.is_some() {
            self.audit_strict("post-sweep");
        }

        // 7. Retire a drained epoch: its chunk sums give the cycle's live
        //    and dark totals, and the mark bits are cleared, so the next
        //    cycle starts with none set, unless that cycle is minor. A
        //    lazy epoch retires off-pause, once drained, and logs its live
        //    totals then.
        let swept = drained.map_or_else(Default::default, |e| self.heap.retire_epoch(&e));
        // Last bucket drained: close the session so the workers park
        // (the accounting below is leader-only).
        drop(session);

        // 8. Account the cycle.
        let (clear_wall, account) = clear.then(SpanKind::PauseAccount, 0);
        let cost = &self.config.cost;
        let card_single_ms = stw_clean_work + extra_clean_ms;
        let root_single_ms = cost.roots_ms(root_slots);
        let trace_single_ms = cost.trace_ms(stw_traced);
        let sweep_single_ms = cost.sweep_ms(swept.live_objects as u64, swept.chunks as u64);
        let workers = cost.workers.max(1) as f64;
        let overhead_ms = cost.pause_overhead_ns / 1e6;
        let mark_ms = (card_single_ms + root_single_ms + trace_single_ms) / workers;
        let sweep_ms = sweep_single_ms / workers;

        let pause_begin_ns = pause.begin_ns();
        let pause_wall = pause.elapsed();
        let (concurrent_wall, pre_concurrent_wall, alloc_conc, alloc_pre) = {
            let t = self.timeline.lock();
            let allocated = self.heap.bytes_allocated();
            let between =
                |from_ns: u64, to_ns: u64| Duration::from_nanos(to_ns.saturating_sub(from_ns));
            if fresh {
                (
                    Duration::ZERO,
                    between(t.last_cycle_end_ns, pause_begin_ns),
                    0,
                    allocated - t.alloc_at_last_end,
                )
            } else {
                (
                    between(t.kickoff_ns, pause_begin_ns),
                    between(t.last_cycle_end_ns, t.kickoff_ns),
                    allocated - t.alloc_at_kickoff,
                    t.alloc_at_kickoff - t.alloc_at_last_end,
                )
            }
        };

        let incr = *self.increments.lock();
        let pool_stats = self.pool.stats();
        let stats = CycleStats {
            cycle: self.cycle(),
            trigger: Some(trigger),
            minor: kind == CycleKind::Minor,
            pause_ms: overhead_ms + mark_ms + sweep_ms,
            mark_ms,
            sweep_ms,
            card_ms: card_single_ms / workers,
            root_ms: root_single_ms / workers,
            pause_wall,
            retire_wall,
            cards_wall,
            roots_wall,
            drain_wall,
            sweep_wall,
            clear_wall,
            straggler_wall: Duration::from_nanos(self.straggler_ns.swap(0, Ordering::Relaxed)),
            straggler_chunks: self.straggler_chunks.swap(0, Ordering::Relaxed),
            concurrent_wall,
            pre_concurrent_wall,
            mutator_traced_bytes: c.traced_mutator.load(Ordering::Relaxed),
            background_traced_bytes: c.traced_background.load(Ordering::Relaxed),
            stw_traced_bytes: c.traced_stw.load(Ordering::Relaxed),
            alloc_concurrent_bytes: alloc_conc,
            alloc_pre_concurrent_bytes: alloc_pre,
            cards_cleaned_concurrent: c.cards_cleaned_conc.load(Ordering::Relaxed),
            cards_cleaned_stw: c.cards_cleaned_stw.load(Ordering::Relaxed),
            cards_left,
            handshakes: c.handshakes.load(Ordering::Relaxed),
            free_at_stw_start,
            live_after_bytes: (swept.live_granules * mcgc_heap::GRANULE_BYTES) as u64,
            live_after_objects: swept.live_objects as u64,
            free_after_bytes: self.heap.free_bytes() as u64,
            occupancy_after: self.heap.occupancy(),
            increments: incr.n,
            tracing_factor_sum: incr.factor_sum,
            tracing_factor_sq_sum: incr.factor_sq_sum,
            cas_ops: pool_stats.cas_ops,
            overflows: c.overflows.load(Ordering::Relaxed),
            deferred_objects: c.deferred.load(Ordering::Relaxed),
            packets_in_use_watermark: pool_stats.in_use_watermark,
            packet_entries_watermark: pool_stats.entries_watermark,
        };

        self.tel.on_stw_end(
            pause_begin_ns,
            pause_begin_ns + pause_wall.as_nanos() as u64,
        );
        self.tel.on_cycle_end(&stats);
        self.log.lock().cycles.push(stats);
        self.phase.store(PHASE_IDLE, Ordering::Release);

        // 9. Flight-recorder epilogue: snapshot heap occupancy into the
        //    trace's counter tracks (still inside the accounting span),
        //    close the pause, then record the enclosing cycle span —
        //    begin = kickoff — so pause phases nest under their cycle.
        //    The drain loop ends with the table clean (its last snapshot
        //    found no card, or no overflow dirtied one since the last
        //    snapshot), and nothing in the pause dirties a card after it,
        //    so `redirty` is empty and its count is the dirty-card point:
        //    no table walk here.
        if spans.is_enabled() {
            mcgc_heap::record_counters(&self.heap, redirty.len(), spans);
        }
        let pause_end_ns = pause_begin_ns + pause.finish_with(account).as_nanos() as u64;
        let kickoff_ns = {
            let mut t = self.timeline.lock();
            t.last_cycle_end_ns = pause_end_ns;
            t.alloc_at_last_end = self.heap.bytes_allocated();
            t.kickoff_ns
        };
        if let Some(track) = self.coord_track {
            spans.record_span(track, SpanKind::Cycle, kickoff_ns, pause_end_ns, cycle_no);
        }
        kind == CycleKind::Minor
    }

    /// Degraded-mode recovery (watchdog): dirties the card of every
    /// marked object. A condemned packet's entries were marked but their
    /// children may be untraced; since any such parent is marked, card
    /// flooding over the mark bitmap is a superset of the lost grey set,
    /// and the pause's redirty/re-clean loop rescans it. Marking is
    /// monotone, so the extra cards only cost time, never soundness.
    ///
    /// Walks the mark bitmap a 64-bit word at a time (at the current
    /// geometry one word covers exactly one card), striped across the
    /// scheduler workers; all-zero words — the vast majority — cost one
    /// load.
    fn flood_marked_cards(&self, session: &Session<'_>) {
        const STRIPE_WORDS: usize = 1 << 12; // 32 KiB of bitmap per claim
        let _flood_span = self.coord_span(SpanKind::PauseFlood, 0);
        let marks = self.heap.mark_bits();
        let cards = self.heap.cards();
        let words = marks.word_len();
        let cursor = AtomicUsize::new(0);
        let gpc = mcgc_heap::GRANULES_PER_CARD;
        session.run(Bucket::Flood, |wk| {
            let mut claims = 0u64;
            loop {
                let start = cursor.fetch_add(STRIPE_WORDS, Ordering::Relaxed);
                if start >= words {
                    break;
                }
                claims += 1;
                for w in start..(start + STRIPE_WORDS).min(words) {
                    let mut bits = marks.load_word(w);
                    if bits == 0 {
                        continue;
                    }
                    let base = w * 64;
                    if gpc >= 64 {
                        // The whole word maps into a single card.
                        cards.dirty(base / gpc);
                    } else {
                        // Several cards per word: dirty each card that
                        // has a set bit, skipping by card.
                        while bits != 0 {
                            let g = base + bits.trailing_zeros() as usize;
                            let card = g / gpc;
                            cards.dirty(card);
                            let card_end = (card + 1) * gpc;
                            if card_end >= base + 64 {
                                break;
                            }
                            bits &= !0u64 << (card_end - base);
                        }
                    }
                }
            }
            self.sched.add_claimed(wk, claims);
        });
    }

    /// Cleans `cards` as a scheduler bucket: workers claim fixed-size
    /// stripes from an atomic cursor and fill their own packet buffers.
    /// Returns the bytes scanned (callers decide which accounting it
    /// feeds).
    fn sched_clean_cards(&self, session: &Session<'_>, cards: &[usize]) -> u64 {
        const STRIPE: usize = 32;
        if cards.is_empty() {
            return 0;
        }
        let cursor = AtomicUsize::new(0);
        let scanned = AtomicU64::new(0);
        session.run(Bucket::Cards, |w| {
            let mut buf = WorkBuffer::new(&self.pool);
            let mut grey = Vec::new();
            let mut local = 0u64;
            let mut claims = 0u64;
            loop {
                let i = cursor.fetch_add(STRIPE, Ordering::Relaxed);
                if i >= cards.len() {
                    break;
                }
                claims += 1;
                let stripe = &cards[i..(i + STRIPE).min(cards.len())];
                for &card in stripe {
                    local += self.clean_one_card(card, &mut grey, true);
                }
                self.push_grey(&mut buf, &mut grey);
                self.counters
                    .cards_cleaned_stw
                    .fetch_add(stripe.len() as u64, Ordering::Relaxed);
            }
            buf.finish();
            scanned.fetch_add(local, Ordering::Relaxed);
            self.sched.add_claimed(w, claims);
        });
        scanned.load(Ordering::Relaxed)
    }

    /// §2.2 root rescanning as a scheduler bucket: each mutator stack is
    /// one task; the global-roots table is claimed in fixed-size chunks.
    /// Stack snapshotting credits `root_slots` inside [`Gc::scan_stack`];
    /// the leader credits the global slots here, mirroring
    /// [`Gc::scan_global_roots`].
    fn sched_scan_roots(&self, session: &Session<'_>, mutators: &[Arc<MutatorShared>]) {
        const GLOBAL_CHUNK: usize = 256;
        let globals: Vec<u64> = self.global_roots.lock().clone();
        self.counters
            .root_slots
            .fetch_add(globals.len() as u64, Ordering::Relaxed);
        let stacks = mutators.len();
        let tasks = stacks + globals.len().div_ceil(GLOBAL_CHUNK);
        let cursor = AtomicUsize::new(0);
        session.run(Bucket::Roots, |w| {
            let mut buf = WorkBuffer::new(&self.pool);
            let mut grey = Vec::new();
            let mut claims = 0u64;
            loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                claims += 1;
                if t < stacks {
                    self.scan_stack(&mutators[t], &mut buf);
                } else {
                    let start = (t - stacks) * GLOBAL_CHUNK;
                    let end = (start + GLOBAL_CHUNK).min(globals.len());
                    grey.extend(
                        globals[start..end]
                            .iter()
                            .filter_map(|&raw| ObjectRef::decode(raw)),
                    );
                    self.push_roots(&mut buf, &mut grey);
                }
            }
            buf.finish();
            self.sched.add_claimed(w, claims);
        });
    }

    /// §2.2 final card cleaning: drains the concurrent registry and
    /// freshly dirty cards as a bucket. Returns `(cards_left, ms)` where
    /// `ms` is the single-worker modelled cost and `cards_left` is
    /// Table 2's "Cards Left" observation: cards still registered for
    /// rescanning plus dirty cards past the halted concurrent cleaner's
    /// snapshot cursor (cards before the cursor were re-dirtied *after*
    /// cleaning, not left behind by it).
    fn stw_clean_cards(&self, session: &Session<'_>, fresh: bool) -> (u64, f64) {
        let ncards = self.heap.cards().len();
        // Halt the concurrent cleaner and take over its registry.
        let (mut to_clean, cursor_at_halt) = {
            let mut cs = self.card_state.lock();
            let cursor = if cs.done { ncards } else { cs.cursor };
            let reg: Vec<usize> = cs.registry.drain(..).collect();
            cs.done = true;
            (reg, cursor)
        };
        let registry_left = to_clean.len() as u64;
        let mut fresh_dirty = Vec::new();
        self.heap
            .cards()
            .snapshot_dirty(0, ncards, &mut fresh_dirty);
        let unreached = fresh_dirty
            .iter()
            .filter(|&&card| card >= cursor_at_halt)
            .count() as u64;
        to_clean.extend(fresh_dirty);

        if fresh {
            // Baseline/fresh cycle: the card table content predates the
            // cycle; nothing is marked yet, so cleaning is a no-op.
            return (0, 0.0);
        }
        let cards_left = registry_left + unreached;
        let scanned_bytes = self.sched_clean_cards(session, &to_clean);
        // Final cleaning contributes to the `M` observation too.
        self.counters
            .card_scanned_bytes
            .fetch_add(scanned_bytes, Ordering::Relaxed);
        let cost = &self.config.cost;
        let ms = cost.card_ms(ncards as u64, to_clean.len() as u64) + cost.trace_ms(scanned_bytes);
        (cards_left, ms)
    }

    /// Parallel drain of all remaining marking work (§2.2). World is
    /// stopped; the leader and the resident scheduler workers pop
    /// packets until the pool reports termination — no thread is created
    /// (and no condvar touched) on this path.
    fn drain_marking_parallel(&self, session: &Session<'_>) {
        session.run(Bucket::Drain, |w| {
            self.drain_marking_worker();
            self.sched.add_claimed(w, 1);
        });
        debug_assert!(self.pool.is_tracing_complete());
        debug_assert!(!self.pool.has_deferred());
    }

    fn drain_marking_worker(&self) {
        let mut batch = Vec::with_capacity(self.config.trace_batch);
        let mut grey = Vec::new();
        loop {
            let mut buf = WorkBuffer::new(&self.pool);
            let mut did_work = false;
            let mut traced = 0u64;
            // §4.3 termination cannot fire while a batch is being
            // scanned or its children wait in the grey buffer: the batch
            // came out of this buffer's input packet, and a buffer that
            // has popped keeps an input packet until `finish()` (pop
            // replaces it get-before-return), so the Empty pool stays
            // one short of the total. Each batch is scanned in full and
            // its grey buffer pushed before the next pop, so the loop
            // ends with nothing popped and unscanned and nothing
            // buffered, ahead of `finish()` and the termination check.
            // The children were marked before they were buffered, so
            // the watchdog's card flood covers them too; and the grey
            // buffer is empty at every audit point, where "grey" means
            // "in a packet snapshot".
            while self.pop_batch(&mut buf, &mut batch) > 0 {
                did_work = true;
                for &obj in &batch {
                    debug_assert!(
                        self.heap.is_published(obj),
                        "unpublished object reached STW tracing"
                    );
                    traced += self.scan_into(obj, &mut grey);
                }
                self.push_grey(&mut buf, &mut grey);
            }
            self.counters
                .traced_stw
                .fetch_add(traced, Ordering::Relaxed);
            self.tel
                .on_packet_claims(buf.input_claims(), buf.output_claims());
            buf.finish();
            // A §4.3 termination attempt follows a productive batch; only
            // those are recorded, so a worker spinning while peers finish
            // does not flood its span ring.
            let _attempt = if did_work {
                Some(self.tel.hub.spans().span(SpanKind::TerminationAttempt, 0))
            } else {
                None
            };
            if self.pool.has_deferred() {
                // All allocation bits are published now (caches retired);
                // deferred objects trace normally.
                self.pool.recycle_deferred();
                continue;
            }
            if self.pool.is_tracing_complete() {
                return;
            }
            if !did_work {
                std::thread::yield_now();
            }
        }
    }
}

impl std::fmt::Debug for Gc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gc")
            .field("phase", &self.phase())
            .field("cycle", &self.cycle())
            .field("heap", &self.heap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgc_heap::ObjectShape;

    /// A sweeper that finishes an epoch while another thread holds the
    /// coordinator lock leaves the plan and the mark bits alone: that
    /// holder may be starting the next cycle's marking. Once the lock is
    /// free, the same call retires the epoch, which clears the bits (the
    /// stop-the-world collector's next cycle is always full).
    #[test]
    fn epoch_retirement_waits_for_the_coordinator() {
        let mut cfg = GcConfig::stw_with_heap_bytes(4 << 20);
        cfg.sweep = SweepMode::Lazy;
        cfg.bg_sweep = false;
        cfg.stw_workers = 1;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let keep = m.alloc(ObjectShape::new(0, 4, 0)).unwrap();
        m.root_push(Some(keep));
        m.collect();
        let plan = gc.heap.lazy_plan().expect("a lazy pause installs an epoch");
        while plan.sweep_one(&gc.heap).is_some() {}
        assert!(plan.is_done());
        {
            let _coordinator = gc.coordinator.lock();
            std::thread::scope(|s| {
                s.spawn(|| gc.sweep_some_lazy());
            });
            assert!(gc.heap.lazy_plan_active(), "epoch retired under the lock");
            assert!(gc.heap.is_marked(keep), "marks cleared under the lock");
        }
        gc.sweep_some_lazy();
        assert!(!gc.heap.lazy_plan_active(), "epoch retired once free");
        assert!(!gc.heap.is_marked(keep));
        drop(m);
        gc.shutdown();
    }

    /// A minor kickoff registers the dirty card of an old object a young
    /// one was stored into, and `collect()` that finds the minor cycle
    /// running finishes it, then runs a full stop-the-world cycle.
    #[test]
    fn explicit_collect_finishes_a_minor_cycle_then_runs_a_full_one() {
        let mut cfg = GcConfig::with_heap_bytes(4 << 20);
        cfg.background_threads = 0;
        cfg.stw_workers = 1;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let old = m.alloc(ObjectShape::new(1, 2, 0)).unwrap();
        m.root_push(Some(old));
        // Unreachable allocation until a concurrent full cycle has run.
        let junk = ObjectShape::new(0, 30, 0);
        while gc.log().cycles.is_empty() || gc.in_concurrent_phase() {
            m.alloc(junk).unwrap();
        }
        assert!(
            gc.heap.marks_kept(),
            "a full cycle keeps its marks for a minor one"
        );
        assert_eq!(gc.pacer.lock().kind(), CycleKind::Minor);
        let young = m.alloc(ObjectShape::new(0, 2, 0)).unwrap();
        m.write_ref(old, 0, Some(young));
        {
            let _coordinator = gc.coordinator.lock();
            let requester = Arc::clone(&gc.mutators.lock()[0]);
            gc.begin_cycle_locked(CycleKind::Minor, Some(&requester));
        }
        assert!(gc.in_concurrent_phase());
        assert!(gc.heap.is_marked(old), "old objects stay black");
        assert!(!gc.heap.is_marked(young));
        assert_eq!(
            Vec::from(gc.card_state.lock().registry.clone()),
            vec![old.card()],
            "the old object's dirty card is the remembered set"
        );
        assert!(!gc.heap.cards().is_dirty(old.card()));
        m.collect();
        let log = gc.log();
        let kinds: Vec<(bool, Option<Trigger>)> =
            log.cycles.iter().map(|c| (c.minor, c.trigger)).collect();
        assert_eq!(
            kinds[1..],
            [
                (true, Some(Trigger::Explicit)),
                (false, Some(Trigger::Explicit)),
            ]
        );
        assert!(!kinds[0].0);
        assert_eq!(log.cycles[2].live_after_objects, 2);
        assert_eq!(m.read_ref(old, 0), Some(young));
        drop(m);
        gc.shutdown();
    }

    /// One pause's phase spans tile it: the first begins with the pause,
    /// each next one where the previous ended, and the last ends with
    /// it, so no wall time between two phases goes unattributed. A tiny
    /// packet pool makes the drain overflow (§4.3), so re-clean rounds
    /// sit between drain rounds.
    #[test]
    fn pause_phase_spans_abut() {
        let mut cfg = GcConfig::stw_with_heap_bytes(8 << 20);
        cfg.stw_workers = 2;
        cfg.sweep = SweepMode::Eager;
        cfg.pool = mcgc_packets::PoolConfig {
            packets: 4,
            capacity: 8,
        };
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let inner = ObjectShape::new(2, 0, 0);
        let mut level = vec![m.alloc(inner).unwrap()];
        m.root_push(Some(level[0]));
        for _ in 0..8 {
            let mut next = Vec::new();
            for &parent in &level {
                for slot in 0..2 {
                    next.push(m.alloc_into(parent, slot, inner).unwrap());
                }
            }
            level = next;
        }
        m.collect();
        let spans: Vec<mcgc_telemetry::Span> = gc
            .tel
            .hub
            .spans()
            .all_spans()
            .into_iter()
            .filter(|&(track, _)| Some(track) == gc.coord_track)
            .map(|(_, s)| s)
            .collect();
        let pause = spans.iter().find(|s| s.kind == SpanKind::Pause).unwrap();
        let mut phases: Vec<_> = spans
            .iter()
            .filter(|s| SpanKind::PAUSE_PHASES.contains(&s.kind) && s.cycle == pause.cycle)
            .collect();
        phases.sort_by_key(|s| (s.begin_ns, s.end_ns));
        assert!(
            phases.iter().any(|s| s.kind == SpanKind::PauseReclean),
            "the drain overflowed into a re-clean round"
        );
        assert_eq!(phases[0].begin_ns, pause.begin_ns);
        assert_eq!(phases.last().unwrap().end_ns, pause.end_ns);
        for pair in phases.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].begin_ns, "{pair:?}");
        }
        drop(m);
        gc.shutdown();
    }

    /// A tracer that meets a mutator's own unpublished object defers it
    /// (§5.2), and the write barrier dirties no card for a store into it.
    /// Once the cache is published, tracing the deferred object marks
    /// the referent that store put there.
    #[test]
    fn deferred_holder_traces_the_store_its_card_never_saw() {
        let mut cfg = GcConfig::with_heap_bytes(4 << 20);
        cfg.background_threads = 0;
        cfg.stw_workers = 1;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let shared = Arc::clone(&gc.mutators.lock()[0]);
        {
            let _coordinator = gc.coordinator.lock();
            gc.begin_cycle_locked(CycleKind::Full, Some(&shared));
        }
        let shape = ObjectShape::new(1, 0, 0);
        let holder = m.alloc(shape).unwrap();
        let referent = m.alloc(shape).unwrap();
        m.root_push(Some(holder));
        let (mut batch, mut safety, mut deferred, mut grey) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut trace = |deferred: &mut Vec<ObjectRef>| {
            let mut buf = WorkBuffer::new(&gc.pool);
            let out =
                gc.trace_batch_concurrent(&mut buf, &mut batch, &mut safety, deferred, &mut grey);
            buf.finish();
            out
        };
        {
            let mut buf = WorkBuffer::new(&gc.pool);
            gc.push_roots(&mut buf, &mut vec![holder]);
            buf.finish();
        }
        assert_eq!(trace(&mut deferred), (1, 0), "popped, not scanned");
        assert_eq!(deferred, [holder]);
        gc.park_deferred(&mut deferred);
        m.write_ref(holder, 0, Some(referent));
        assert!(!gc.heap.cards().is_dirty(holder.card()), "card elided");
        // A refill's first step. SAFETY: the owner's access, from the
        // owner's thread; `m` holds no borrow between calls.
        gc.heap.publish_cache(unsafe { shared.cache.owned_mut() });
        assert_eq!(gc.pool.recycle_deferred(), 1);
        let (popped, scanned) = trace(&mut deferred);
        assert_eq!(popped, 1);
        assert!(scanned > 0 && deferred.is_empty());
        assert!(gc.heap.is_marked(referent), "the elided store was traced");
        m.collect();
        assert_eq!(m.read_ref(holder, 0), Some(referent));
        drop(m);
        gc.shutdown();
    }
}
