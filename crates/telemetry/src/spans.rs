//! The GC flight recorder: per-thread, lock-free rings of *completed*
//! spans (begin/end pairs) recorded through zero-allocation RAII guards.
//!
//! # Design
//!
//! A [`SpanRecorder`] owns up to [`MAX_TRACKS`] **tracks**. A track is
//! one timeline — normally one thread (a mutator, a GC scheduler
//! worker), plus one synthetic "gc coordinator" track for
//! cycle-level spans that outlive any single stack frame. Each track has
//! its own fixed-capacity [`SpanRing`]; when it wraps, the oldest spans
//! are overwritten, so the recorder is bounded-memory and safe to leave
//! **always on**.
//!
//! The rings use a seqlock slot protocol: a writer claims a ticket with
//! one `fetch_add`, marks the slot odd, fills the payload with relaxed
//! stores, and marks it even with a release store; readers re-check the
//! sequence word after copying and discard torn or lapped slots.
//! Crucially a slot holds a *complete* span — begin and end timestamps
//! are written together when the [`SpanGuard`] closes — so a snapshot can
//! never observe a torn or unmatched begin/end pair by construction.
//!
//! Recording is zero-allocation: a guard is five words on the stack, and
//! its drop is one ticket claim plus six atomic stores. When recording is
//! disabled, creating a guard is one relaxed load and a branch.
//!
//! The recorder is also the collector's only clock. A *timed* guard
//! ([`SpanRecorder::timed`]) reads the clock even when recording is off
//! or no track is available, and [`SpanGuard::finish`] returns the
//! elapsed time it measured: the pause-phase walls in the collector's
//! cycle statistics are the very begin/end pairs their spans record.
//!
//! Threads register themselves lazily: the first span a thread records
//! against a recorder claims a track slot and names it after the thread
//! (`std::thread::current().name()`), so the GC scheduler's pooled
//! workers (`mcgc-sched-{i}`) each get a stable, readable
//! track with no explicit wiring. The registration is keyed by recorder
//! id, so several collectors in one process (common in tests) never share
//! a track.
//!
//! Consumers ([`crate::trace_export`]) snapshot the tracks into
//! Perfetto-loadable Chrome trace JSON and fold pause-window spans into
//! per-phase/per-worker postmortems.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum number of tracks (threads + the coordinator) per recorder.
pub const MAX_TRACKS: usize = 64;

/// Default spans retained per track before the oldest are overwritten.
pub const DEFAULT_TRACK_CAPACITY: usize = 2048;

/// Maximum retained counter points (heap-inspector samples et al.).
const COUNTER_CAPACITY: usize = 8192;

/// What a span measures. A **closed catalog**: `mcgc-lint` checks that
/// every `SpanKind::` reference in the tree names one of these variants,
/// and that the pause-phase code paths in the collector carry a guard for
/// each `Pause*` phase kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// One whole GC cycle, kickoff to pause end (coordinator track;
    /// arg = free bytes at kickoff).
    Cycle,
    /// One stop-the-world pause (leader track; arg = trigger code).
    Pause,
    /// Pause phase: retire mutator allocation caches + the packet
    /// watchdog (arg = packets reclaimed).
    PauseRetire,
    /// Watchdog fallback: flood of already-marked cards (nested inside
    /// [`SpanKind::PauseRetire`]).
    PauseFlood,
    /// Pause phase: final stop-the-world card cleaning (arg = cards).
    PauseCards,
    /// Pause phase: root rescanning (arg = stacks scanned).
    PauseRoots,
    /// Pause phase: re-clean of cards redirtied during the drain
    /// (arg = redirtied cards).
    PauseReclean,
    /// Pause phase: parallel packet drain (arg = drain round).
    PauseDrain,
    /// Pause phase: sweep (arg = 0 eager, 1 lazy-planned).
    PauseSweep,
    /// Pause phase: retiring the pause's drained sweep epoch, which
    /// clears the mark bits.
    PauseClear,
    /// Pause phase: accounting tail — stats, pacer feedback, heap
    /// inspection (arg = cycle number).
    PauseAccount,
    /// Leader-side run of one scheduler bucket, publish to drain
    /// (arg = bucket index).
    SchedBucket,
    /// One worker executing its slice of an open bucket (arg = items
    /// claimed).
    SchedJob,
    /// Leader spin-waiting for the open bucket's last executor to leave
    /// before the bucket is drained (arg = bucket index).
    SchedDrainWait,
    /// One mutator tracing increment (arg = bytes traced).
    MutatorIncrement,
    /// One background-thread tracing increment (arg = bytes traced).
    BackgroundIncrement,
    /// One §5.3 card-snapshot handshake (arg = 1 acked, 0 timed out).
    Handshake,
    /// One §4.3 termination check in a drain loop (arg = 1 complete).
    TerminationAttempt,
    /// A pacer kickoff decision that fired (arg = free bytes; the pacer
    /// inputs ride in adjacent counter points).
    KickoffDecision,
    /// One chunk claimed and swept by a parallel-sweep worker
    /// (arg = chunk index).
    SweepChunk,
    /// One chunk swept by the lazy (outside-the-pause) sweeper
    /// (arg = chunk index).
    LazySweepChunk,
    /// An allocation-cache refill satisfied from a shard's own bins
    /// (arg = granules handed out).
    ShardRefill,
    /// A refill that had to steal from sibling shards (arg = shard
    /// stolen from).
    ShardSteal,
    /// A refill that fell through to the wilderness list (arg = granules
    /// handed out).
    WildernessRefill,
    /// One unswept chunk claimed and swept by an allocation-cache refill
    /// that found its stripe's bins empty (sweep-on-refill; arg = chunk
    /// index).
    RefillSweepChunk,
    /// One unswept chunk drained by the background sweeper soaking idle
    /// cycles (arg = chunk index).
    BgSweepChunk,
    /// The sweep epoch's completion fence: the coordinator finishing the
    /// chunks the previous epoch left unswept, before the world stops or
    /// the next cycle begins (coordinator track; arg = straggler chunks).
    StragglerFence,
}

impl SpanKind {
    /// All variants in discriminant order (index == `as u8`).
    pub const ALL: [SpanKind; 27] = [
        SpanKind::Cycle,
        SpanKind::Pause,
        SpanKind::PauseRetire,
        SpanKind::PauseFlood,
        SpanKind::PauseCards,
        SpanKind::PauseRoots,
        SpanKind::PauseReclean,
        SpanKind::PauseDrain,
        SpanKind::PauseSweep,
        SpanKind::PauseClear,
        SpanKind::PauseAccount,
        SpanKind::SchedBucket,
        SpanKind::SchedJob,
        SpanKind::SchedDrainWait,
        SpanKind::MutatorIncrement,
        SpanKind::BackgroundIncrement,
        SpanKind::Handshake,
        SpanKind::TerminationAttempt,
        SpanKind::KickoffDecision,
        SpanKind::SweepChunk,
        SpanKind::LazySweepChunk,
        SpanKind::ShardRefill,
        SpanKind::ShardSteal,
        SpanKind::WildernessRefill,
        SpanKind::RefillSweepChunk,
        SpanKind::BgSweepChunk,
        SpanKind::StragglerFence,
    ];

    /// The top-level pause phases: spans of these kinds tile the pause
    /// wall-clock end to end (the postmortem's coverage metric is the
    /// tiled fraction). [`SpanKind::PauseFlood`] is *nested* inside
    /// retire and deliberately absent.
    pub const PAUSE_PHASES: [SpanKind; 8] = [
        SpanKind::PauseRetire,
        SpanKind::PauseCards,
        SpanKind::PauseRoots,
        SpanKind::PauseDrain,
        SpanKind::PauseReclean,
        SpanKind::PauseSweep,
        SpanKind::PauseClear,
        SpanKind::PauseAccount,
    ];

    pub fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }

    /// Stable dotted display name (used as the trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Cycle => "gc.cycle",
            SpanKind::Pause => "gc.pause",
            SpanKind::PauseRetire => "pause.retire",
            SpanKind::PauseFlood => "pause.flood",
            SpanKind::PauseCards => "pause.cards",
            SpanKind::PauseRoots => "pause.roots",
            SpanKind::PauseReclean => "pause.reclean",
            SpanKind::PauseDrain => "pause.drain",
            SpanKind::PauseSweep => "pause.sweep",
            SpanKind::PauseClear => "pause.clear",
            SpanKind::PauseAccount => "pause.account",
            SpanKind::SchedBucket => "sched.bucket",
            SpanKind::SchedJob => "sched.job",
            SpanKind::SchedDrainWait => "sched.drain_wait",
            SpanKind::MutatorIncrement => "trace.mutator_increment",
            SpanKind::BackgroundIncrement => "trace.background_increment",
            SpanKind::Handshake => "trace.handshake",
            SpanKind::TerminationAttempt => "trace.termination_attempt",
            SpanKind::KickoffDecision => "pacer.kickoff",
            SpanKind::SweepChunk => "sweep.chunk",
            SpanKind::LazySweepChunk => "sweep.lazy_chunk",
            SpanKind::ShardRefill => "shard.refill",
            SpanKind::ShardSteal => "shard.steal",
            SpanKind::WildernessRefill => "shard.wilderness_refill",
            SpanKind::RefillSweepChunk => "sweep.refill_chunk",
            SpanKind::BgSweepChunk => "sweep.bg_chunk",
            SpanKind::StragglerFence => "sweep.straggler_fence",
        }
    }
}

/// A completed span copied out of a ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds since the recorder epoch.
    pub begin_ns: u64,
    pub end_ns: u64,
    /// GC cycle the span belongs to (0 before the first cycle).
    pub cycle: u32,
    pub kind: SpanKind,
    /// Kind-dependent payload; see [`SpanKind`].
    pub arg: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    /// Length of the overlap of this span with `[lo, hi)`.
    pub fn overlap_ns(&self, lo: u64, hi: u64) -> u64 {
        self.end_ns.min(hi).saturating_sub(self.begin_ns.max(lo))
    }
}

struct SpanSlot {
    /// `2 * ticket + 1` mid-write, `2 * ticket + 2` complete.
    seq: AtomicU64,
    begin_ns: AtomicU64,
    end_ns: AtomicU64,
    /// `cycle << 32 | kind` (kind in the low byte, room to grow).
    meta: AtomicU64,
    arg: AtomicU64,
}

/// A fixed-capacity, lock-free ring of completed spans (one per track).
pub struct SpanRing {
    slots: Box<[SpanSlot]>,
    cursor: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding `capacity` spans (rounded up to a power of
    /// two, minimum 8) before the oldest are overwritten.
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.next_power_of_two().max(8);
        let slots = (0..cap)
            .map(|_| SpanSlot {
                seq: AtomicU64::new(0),
                begin_ns: AtomicU64::new(0),
                end_ns: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanRing {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever recorded (monotone; exceeds `capacity` once the
    /// ring has wrapped).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed) // MODEL: seqlock_model (monotone ticket)
    }

    /// Records one completed span. Wait-free: one `fetch_add`, five
    /// relaxed stores, one release store, and one (TSO-free) release
    /// fence. A ring has a single writer — its owning track's thread —
    /// which is what makes the odd/even slot protocol sufficient; see
    /// `seqlock_model` in `crates/check` for the exhaustively checked
    /// protocol and the mutations that break it.
    pub fn record(&self, sp: &Span) {
        // MODEL: seqlock_model — the cursor `fetch_add` is the ticket
        // claim; `TicketReuse` (never advancing it) breaks sequence
        // monotonicity.
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        // MODEL: seqlock_model — the odd store opens the slot; the
        // fence below orders it before the payload stores.
        slot.seq.store(ticket * 2 + 1, Ordering::Relaxed);
        // Without this fence the payload stores may become visible
        // before the odd seq store, and a reader can double-validate a
        // stale even seq around a torn payload
        // (SeqlockMutation::SkipBeginFence — the bug this ring shipped
        // with until the model caught it).
        mcgc_membar::seqlock_write_fence();
        // MODEL: seqlock_model — payload stores; ordered after the odd
        // seq store by the fence above, before the even one below by
        // the release store.
        slot.begin_ns.store(sp.begin_ns, Ordering::Relaxed);
        slot.end_ns.store(sp.end_ns, Ordering::Relaxed);
        slot.meta.store(
            (sp.cycle as u64) << 32 | sp.kind as u8 as u64,
            Ordering::Relaxed,
        );
        slot.arg.store(sp.arg, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    fn read_slot(&self, ticket: u64) -> Option<Span> {
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let want = ticket * 2 + 2;
        if slot.seq.load(Ordering::Acquire) != want {
            return None;
        }
        // seqlock-read: begin — the speculative copy window, validated
        // by the re-check below; mcgc-lint enforces that no store or
        // early return sneaks in between the markers.
        // MODEL: seqlock_model — relaxed payload loads, valid only if
        // the revalidation load still observes `want`.
        let begin_ns = slot.begin_ns.load(Ordering::Relaxed);
        let end_ns = slot.end_ns.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let arg = slot.arg.load(Ordering::Relaxed);
        // seqlock-read: end
        // Order the payload loads before the revalidation (Boehm's
        // seqlock recipe): without it, an overwriter's payload could be
        // visible while its odd seq store is not.
        mcgc_membar::seqlock_read_fence();
        if slot.seq.load(Ordering::Acquire) != want {
            return None; // lapped mid-read
        }
        let kind = SpanKind::from_u8((meta & 0xFF) as u8)?;
        Some(Span {
            begin_ns,
            end_ns,
            cycle: (meta >> 32) as u32,
            kind,
            arg,
        })
    }

    /// Copies out the retained spans, oldest first by ticket, then sorted
    /// by begin timestamp. Slots mid-write or lapped during the read are
    /// skipped; a returned span is always one some writer fully recorded.
    pub fn snapshot(&self) -> Vec<Span> {
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(self.slots.len() as u64);
        let mut spans: Vec<Span> = (start..end).filter_map(|t| self.read_slot(t)).collect();
        spans.sort_by_key(|s| s.begin_ns);
        spans
    }
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Index of a track inside its recorder (also the exporter's `tid - 1`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TrackId(pub u16);

struct Track {
    name: String,
    ring: SpanRing,
}

/// One timestamped sample of a named counter series (heap-inspector
/// occupancy, pacer inputs, ...), exported as a Perfetto counter track.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterPoint {
    pub ts_ns: u64,
    pub name: String,
    pub value: f64,
}

/// A snapshot of one track: its name plus the retained spans.
#[derive(Debug)]
pub struct TrackSnapshot {
    pub id: TrackId,
    pub name: String,
    pub spans: Vec<Span>,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (recorder id, track) pairs for every recorder this thread has
    /// recorded against. Tiny (one entry per live collector), scanned
    /// linearly.
    static THREAD_TRACKS: RefCell<Vec<(u64, TrackId)>> = const { RefCell::new(Vec::new()) };
}

/// The flight recorder. See the module docs for the architecture.
pub struct SpanRecorder {
    /// Process-unique id keying the thread-local track registrations.
    id: u64,
    epoch: Instant,
    enabled: AtomicBool,
    /// Current GC cycle, stamped into spans at guard construction.
    cycle: AtomicU32,
    track_capacity: usize,
    next_track: AtomicUsize,
    tracks: Box<[OnceLock<Track>]>,
    counters: Mutex<std::collections::VecDeque<CounterPoint>>,
}

impl SpanRecorder {
    /// Creates a recorder whose per-track rings retain `track_capacity`
    /// spans. Timestamps count from this call.
    pub fn new(track_capacity: usize) -> SpanRecorder {
        SpanRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            cycle: AtomicU32::new(0),
            track_capacity,
            next_track: AtomicUsize::new(0),
            tracks: (0..MAX_TRACKS).map(|_| OnceLock::new()).collect(),
            counters: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Nanoseconds since the recorder epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether recording is on (it is by default; the rings are bounded,
    /// so always-on costs fixed memory). When off, every guard
    /// constructor is one relaxed load and a branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Stamps the cycle number recorded into subsequently created spans.
    pub fn set_cycle(&self, cycle: u32) {
        self.cycle.store(cycle, Ordering::Relaxed);
    }

    pub fn current_cycle(&self) -> u32 {
        self.cycle.load(Ordering::Relaxed)
    }

    fn claim_track(&self, name: String) -> Option<TrackId> {
        loop {
            let idx = self.next_track.load(Ordering::Relaxed);
            if idx >= self.tracks.len() {
                return None; // out of track slots: record nothing
            }
            if self
                .next_track
                .compare_exchange(idx, idx + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let ok = self.tracks[idx]
                .set(Track {
                    name,
                    ring: SpanRing::new(self.track_capacity),
                })
                .is_ok();
            debug_assert!(ok, "slot {idx} claimed twice");
            return Some(TrackId(idx as u16));
        }
    }

    /// Registers an explicitly named track (the collector's synthetic
    /// "gc coordinator" timeline). Returns `None` if all [`MAX_TRACKS`]
    /// slots are taken.
    pub fn named_track(&self, name: &str) -> Option<TrackId> {
        self.claim_track(name.to_string())
    }

    /// The calling thread's track for this recorder, registering it
    /// (named after the thread) on first use. `None` while recording is
    /// off (nothing is registered then) or once every track slot is taken.
    pub fn current_track(&self) -> Option<TrackId> {
        if !self.is_enabled() {
            return None;
        }
        THREAD_TRACKS.with(|tls| {
            let mut v = tls.borrow_mut();
            if let Some((_, t)) = v.iter().find(|(id, _)| *id == self.id) {
                return Some(*t);
            }
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", self.next_track.load(Ordering::Relaxed)));
            let t = self.claim_track(name)?;
            v.push((self.id, t));
            Some(t)
        })
    }

    /// Opens a span on the calling thread's track, beginning now. The
    /// span is recorded when the guard drops. Zero-allocation after the
    /// thread's one-time track registration; while recording is off the
    /// guard is inert and reads no clock.
    #[inline]
    pub fn span(&self, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        match self.current_track() {
            Some(track) => self.timed(Some(track), kind, arg),
            None => SpanGuard::inert(),
        }
    }

    /// Opens a *timed* span beginning now: unlike [`SpanRecorder::span`],
    /// it reads the clock even when recording is off or `track` is
    /// `None`, so [`SpanGuard::finish`] always returns the measured
    /// elapsed time. The span itself is recorded on `track` only while
    /// recording is on.
    #[inline]
    pub fn timed(&self, track: Option<TrackId>, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        SpanGuard {
            clock: Some(self),
            track: track.filter(|_| self.is_enabled()),
            kind,
            cycle: self.current_cycle(),
            begin_ns: self.now_ns(),
            arg,
        }
    }

    /// Records a completed span with explicit timestamps (cycle-level
    /// spans whose begin predates the recording stack frame).
    pub fn record_span(
        &self,
        track: TrackId,
        kind: SpanKind,
        begin_ns: u64,
        end_ns: u64,
        arg: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record_on(
            track,
            Span {
                begin_ns,
                end_ns,
                cycle: self.current_cycle(),
                kind,
                arg,
            },
        );
    }

    fn record_on(&self, track: TrackId, sp: Span) {
        if let Some(t) = self.tracks.get(track.0 as usize).and_then(OnceLock::get) {
            t.ring.record(&sp);
        }
    }

    /// Appends one counter sample timestamped now (bounded: the oldest
    /// points are dropped past [`COUNTER_CAPACITY`]).
    pub fn record_counter(&self, name: &str, value: f64) {
        self.record_counter_at(self.now_ns(), name, value);
    }

    /// Appends one counter sample with an explicit timestamp (snapshots
    /// attributed to a cycle boundary rather than the sampling instant).
    pub fn record_counter_at(&self, ts_ns: u64, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let point = CounterPoint {
            ts_ns,
            name: name.to_string(),
            value,
        };
        let mut q = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= COUNTER_CAPACITY {
            q.pop_front();
        }
        q.push_back(point);
    }

    /// The retained counter points, oldest first.
    pub fn counter_points(&self) -> Vec<CounterPoint> {
        let q = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        q.iter().cloned().collect()
    }

    /// Snapshots every registered track (name + retained spans).
    pub fn tracks(&self) -> Vec<TrackSnapshot> {
        self.tracks
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let t = slot.get()?;
                Some(TrackSnapshot {
                    id: TrackId(i as u16),
                    name: t.name.clone(),
                    spans: t.ring.snapshot(),
                })
            })
            .collect()
    }

    /// Every retained span across all tracks, tagged with its track id,
    /// sorted by begin timestamp.
    pub fn all_spans(&self) -> Vec<(TrackId, Span)> {
        let mut out: Vec<(TrackId, Span)> = Vec::new();
        for t in self.tracks() {
            out.extend(t.spans.into_iter().map(|s| (t.id, s)));
        }
        out.sort_by_key(|(_, s)| s.begin_ns);
        out
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("tracks", &self.next_track.load(Ordering::Relaxed))
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// RAII span guard: records `[construction, close]` as one completed
/// span when it drops or [`SpanGuard::finish`]es. Inert guards (recorder
/// disabled, track slots exhausted) cost nothing beyond the
/// constructor's branch; timed guards ([`SpanRecorder::timed`]) always
/// measure, whether or not they record.
#[must_use = "a span guard measures its own lifetime; bind it with `let _span = ...`"]
pub struct SpanGuard<'r> {
    /// The recorder whose clock stamped `begin_ns`; `None` for an inert
    /// guard (and once the span is closed).
    clock: Option<&'r SpanRecorder>,
    /// Where the span is recorded on close; `None` measures only.
    track: Option<TrackId>,
    kind: SpanKind,
    cycle: u32,
    begin_ns: u64,
    arg: u64,
}

impl<'r> SpanGuard<'r> {
    fn inert() -> SpanGuard<'static> {
        SpanGuard {
            clock: None,
            track: None,
            kind: SpanKind::Cycle,
            cycle: 0,
            begin_ns: 0,
            arg: 0,
        }
    }

    /// The span's begin timestamp (recorder time; 0 for an inert guard).
    #[inline]
    pub fn begin_ns(&self) -> u64 {
        self.begin_ns
    }

    /// Time since the span began, reading the clock without closing the
    /// span (zero for an inert guard).
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.clock.map_or(Duration::ZERO, |rec| {
            Duration::from_nanos(rec.now_ns().saturating_sub(self.begin_ns))
        })
    }

    /// Closes the span now: records it (if it records) and returns its
    /// duration — the same begin/end pair the recorded span carries.
    #[inline]
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    /// Opens a span of `kind` on this guard's clock and track that begins
    /// when this one began: the first phase of the region this guard
    /// times.
    pub fn first_phase(&self, kind: SpanKind, arg: u64) -> SpanGuard<'r> {
        SpanGuard {
            clock: self.clock,
            track: self.track,
            kind,
            cycle: self.clock.map_or(0, SpanRecorder::current_cycle),
            begin_ns: self.begin_ns,
            arg,
        }
    }

    /// Closes this span and opens the next phase's span of `kind` on the
    /// same clock and track, beginning where this one ends: one clock
    /// read serves both, so consecutive phases abut and no time between
    /// them goes unattributed. Returns this span's duration and the new
    /// guard.
    pub fn then(mut self, kind: SpanKind, arg: u64) -> (Duration, SpanGuard<'r>) {
        let Some(rec) = self.clock else {
            return (Duration::ZERO, SpanGuard::inert());
        };
        let end_ns = rec.now_ns();
        let next = SpanGuard {
            clock: Some(rec),
            track: self.track,
            kind,
            cycle: rec.current_cycle(),
            begin_ns: end_ns,
            arg,
        };
        (self.close_at(end_ns), next)
    }

    /// Closes `last`, this region's final phase, and this span at one
    /// instant, so the phases end with the region. Returns this span's
    /// duration.
    pub fn finish_with(mut self, mut last: SpanGuard<'_>) -> Duration {
        let Some(rec) = self.clock else {
            last.close();
            return Duration::ZERO;
        };
        let end_ns = rec.now_ns();
        last.close_at(end_ns);
        self.close_at(end_ns)
    }

    fn close(&mut self) -> Duration {
        match self.clock {
            Some(rec) => self.close_at(rec.now_ns()),
            None => Duration::ZERO,
        }
    }

    fn close_at(&mut self, end_ns: u64) -> Duration {
        let Some(rec) = self.clock.take() else {
            return Duration::ZERO;
        };
        if let Some(track) = self.track {
            rec.record_on(
                track,
                Span {
                    begin_ns: self.begin_ns,
                    end_ns,
                    cycle: self.cycle,
                    kind: self.kind,
                    arg: self.arg,
                },
            );
        }
        Duration::from_nanos(end_ns.saturating_sub(self.begin_ns))
    }

    /// Replaces the span's payload (e.g. with a count known only at the
    /// end of the measured region).
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// Re-kinds the span (for regions whose classification — refill vs.
    /// steal vs. wilderness — is only known at the end).
    #[inline]
    pub fn set_kind(&mut self, kind: SpanKind) {
        self.kind = kind;
    }

    /// Accumulates into the span's payload.
    #[inline]
    pub fn add_arg(&mut self, n: u64) {
        self.arg += n;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn kind_codec_roundtrip() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i);
            assert_eq!(SpanKind::from_u8(*k as u8), Some(*k));
        }
        assert_eq!(SpanKind::from_u8(SpanKind::ALL.len() as u8), None);
        // Display names are unique (they key exporter tracks).
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
    }

    #[test]
    fn guard_records_complete_span() {
        let r = SpanRecorder::new(64);
        {
            let mut g = r.span(SpanKind::PauseCards, 0);
            g.set_arg(17);
        }
        let tracks = r.tracks();
        assert_eq!(tracks.len(), 1);
        let s = &tracks[0].spans[0];
        assert_eq!(s.kind, SpanKind::PauseCards);
        assert_eq!(s.arg, 17);
        assert!(s.end_ns >= s.begin_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let r = SpanRecorder::new(64);
        r.set_enabled(false);
        drop(r.span(SpanKind::Pause, 0));
        r.record_counter("x", 1.0);
        assert_eq!(r.current_track(), None, "no track registered while off");
        assert!(r.tracks().is_empty());
        assert!(r.counter_points().is_empty());
    }

    #[test]
    fn timed_guard_measures_whether_or_not_it_records() {
        let r = SpanRecorder::new(64);
        let coord = r.named_track("gc coordinator").unwrap();
        let g = r.timed(Some(coord), SpanKind::PauseDrain, 3);
        std::thread::sleep(Duration::from_millis(1));
        let wall = g.finish();
        let spans = r.all_spans();
        assert_eq!(spans.len(), 1, "finish records once, drop adds nothing");
        let (track, s) = spans[0];
        assert_eq!((track, s.kind, s.arg), (coord, SpanKind::PauseDrain, 3));
        assert_eq!(
            Duration::from_nanos(s.duration_ns()),
            wall,
            "one clock pair"
        );
        // No track, or recording off: the guard still measures but
        // records nothing.
        let g = r.timed(None, SpanKind::PauseSweep, 0);
        std::thread::sleep(Duration::from_millis(1));
        assert!(g.elapsed() >= Duration::from_millis(1));
        assert!(g.finish() >= Duration::from_millis(1));
        r.set_enabled(false);
        let g = r.timed(Some(coord), SpanKind::PauseSweep, 0);
        assert!(g.begin_ns() > 0);
        std::thread::sleep(Duration::from_millis(1));
        assert!(g.finish() >= Duration::from_millis(1));
        assert_eq!(r.all_spans().len(), 1);
        // An inert guard measures nothing.
        assert_eq!(r.span(SpanKind::PauseSweep, 0).finish(), Duration::ZERO);
    }

    #[test]
    fn named_and_thread_tracks_are_separate() {
        let r = SpanRecorder::new(64);
        let coord = r.named_track("gc coordinator").unwrap();
        r.record_span(coord, SpanKind::Cycle, 10, 90, 0);
        drop(r.span(SpanKind::MutatorIncrement, 5));
        let tracks = r.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].name, "gc coordinator");
        assert_eq!(tracks[0].spans[0].kind, SpanKind::Cycle);
        assert_eq!(tracks[1].spans[0].kind, SpanKind::MutatorIncrement);
    }

    #[test]
    fn two_recorders_do_not_share_thread_tracks() {
        let a = SpanRecorder::new(64);
        let b = SpanRecorder::new(64);
        drop(a.span(SpanKind::Pause, 1));
        drop(b.span(SpanKind::Cycle, 2));
        assert_eq!(a.tracks().len(), 1);
        assert_eq!(b.tracks().len(), 1);
        assert_eq!(a.tracks()[0].spans[0].kind, SpanKind::Pause);
        assert_eq!(b.tracks()[0].spans[0].kind, SpanKind::Cycle);
    }

    #[test]
    fn cycle_stamped_at_guard_construction() {
        let r = SpanRecorder::new(64);
        r.set_cycle(7);
        let g = r.span(SpanKind::PauseDrain, 0);
        r.set_cycle(8);
        drop(g);
        assert_eq!(r.tracks()[0].spans[0].cycle, 7);
    }

    #[test]
    fn counter_points_bounded() {
        let r = SpanRecorder::new(8);
        for i in 0..(COUNTER_CAPACITY + 10) {
            r.record_counter("heap_occupancy", i as f64);
        }
        let pts = r.counter_points();
        assert_eq!(pts.len(), COUNTER_CAPACITY);
        assert_eq!(pts.last().unwrap().value, (COUNTER_CAPACITY + 9) as f64);
    }

    /// Satellite: multi-thread stress — every snapshotted span must be a
    /// well-formed begin/end pair some thread actually completed, never a
    /// torn or interleaved one, even while the rings wrap.
    #[test]
    fn stress_no_torn_or_interleaved_pairs() {
        let r = Arc::new(SpanRecorder::new(64));
        let threads = 4;
        // Interpreted execution is ~1000x slower; keep the ring-wrapping
        // shape but shrink the volume under Miri.
        let per_thread = if cfg!(miri) { 300u64 } else { 5_000u64 };
        let mut handles = Vec::new();
        for w in 0..threads {
            let r = Arc::clone(&r);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("stress-{w}"))
                    .spawn(move || {
                        for i in 0..per_thread {
                            // Nested guards: outer carries w<<32|i, inner
                            // mirrors it with the kind flipped, so a reader
                            // can verify payload integrity per span.
                            let outer = r.span(SpanKind::SchedJob, (w as u64) << 32 | i);
                            let inner = r.span(SpanKind::SweepChunk, (w as u64) << 32 | i);
                            drop(inner);
                            drop(outer);
                        }
                    })
                    .unwrap(),
            );
        }
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                // Count passes from the first visible span: on a loaded
                // host the reader can otherwise finish every pass before
                // any writer has registered its track. The wait is
                // bounded; the assertion below reports a reader that
                // never saw a span.
                let deadline = Instant::now() + Duration::from_secs(30);
                while r.tracks().iter().all(|t| t.spans.is_empty()) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let mut seen = 0usize;
                for _ in 0..200 {
                    for t in r.tracks() {
                        for s in &t.spans {
                            assert!(s.end_ns >= s.begin_ns, "torn span {s:?}");
                            assert!(
                                s.kind == SpanKind::SchedJob || s.kind == SpanKind::SweepChunk,
                                "foreign kind {s:?}"
                            );
                            let w = s.arg >> 32;
                            let i = s.arg & 0xFFFF_FFFF;
                            assert!(w < threads as u64 && i < per_thread, "payload {s:?}");
                            seen += 1;
                        }
                    }
                    std::thread::yield_now();
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        assert!(reader.join().unwrap() > 0);
        // Quiescent: per-track nesting is intact — every inner span lies
        // within its outer partner's window.
        for t in r.tracks() {
            let outers: Vec<&Span> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::SchedJob)
                .collect();
            for inner in t.spans.iter().filter(|s| s.kind == SpanKind::SweepChunk) {
                assert!(
                    outers.iter().any(|o| o.arg == inner.arg
                        && o.begin_ns <= inner.begin_ns
                        && o.end_ns >= inner.end_ns),
                    "inner span {inner:?} escaped its outer guard"
                );
            }
        }
    }
}
