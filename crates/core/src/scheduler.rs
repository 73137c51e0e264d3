//! The unified GC scheduler: one persistent worker pool serving every
//! worker world — the parallel stop-the-world pause (paper §2.2, §6),
//! the low-priority background tracers (§3), and the background sweeper
//! that drains lazy sweep epochs between cycles.
//!
//! Before this module the reproduction had accreted three separate
//! scheduling mechanisms: a pause *gang* (epoch dispatch with a condvar
//! barrier per phase), dedicated background tracer threads with their
//! own spawn/wakeup path, and the §4 packet pool's ad-hoc claim loops.
//! The gang's per-phase `notify_all` + barrier round-trips were
//! measurable pause overhead (on a single-CPU runner one delayed helper
//! stalls every phase barrier in turn), and a worker that finished root
//! rescanning early parked instead of stealing the next unit of work.
//!
//! The scheduler replaces all of that with **sessions of prioritized
//! work buckets**:
//!
//! - [`Scheduler`] owns one pool of persistent threads
//!   (`mcgc-sched-{i}`), sized to cover both the pause helpers
//!   (`stw_workers - 1`) and, in concurrent mode, the background
//!   tracer/sweeper duties (`background_threads`). Between duties they
//!   park on a single shared condvar.
//! - A pause (or a pre-pause straggler fence) opens a **session**
//!   ([`Scheduler::open_session`]) under the coordinator lock. Opening
//!   issues exactly **one** `notify_all`; that is the only wakeup the
//!   entire pause pays.
//! - Each phase publishes one **bucket** ([`Session::run`]) — final
//!   card cleaning, root rescanning, packet drain, the sweep epoch's
//!   chunks (in the pause, or in the straggler fence). Publishing bumps
//!   a sequence number under the state mutex and does **not** notify:
//!   workers that the session wakeup engaged stay resident, claiming
//!   each new bucket the moment it appears, so a fast worker flows from
//!   root rescan straight into the packet drain with no condvar
//!   round-trip. Work *within* a bucket is claimed from atomic cursors
//!   by the closures themselves (load balancing identical to the packet
//!   pool's).
//! - A bucket **drains** (its successor may open) when its closure has
//!   returned on the leader and `executing == 0` — no worker is still
//!   inside it. The leader waits for that with a bounded spin-yield,
//!   not a condvar: the wait is the tail of the slowest claimer's
//!   current slice, and making it lock-free keeps the zero-wakeup
//!   property exact.
//!
//! **Bucket open/close conditions.** Buckets open strictly in the
//! order the leader publishes them (phase ordering *is* the publish
//! order), a bucket closes to new claims the instant the leader clears
//! `job` in [`DrainGuard::drop`], and `bucket_seq` is monotone so no
//! bucket can be claimed twice by the same worker or re-open after it
//! drained. Only this module writes those fields — a lint rule
//! (`crates/lint`) enforces that bucket state never flips outside the
//! scheduler API.
//!
//! **Leader independence.** The leader runs every bucket itself
//! (worker 0) and never waits for helpers to *start* — only for
//! claimed slices to *finish*. A pool worker that is stalled, busy with
//! tracer duties, or simply not scheduled costs parallelism, never
//! progress; with `stw_workers = 1` no session worker exists and
//! [`Session::run`] degenerates to exactly the serial inline pause.
//!
//! **Panic discipline.** If the *leader's* slice unwinds, the
//! [`DrainGuard`] still closes the bucket (clearing the job before the
//! dispatching frame — which owns the lifetime-erased closure — is torn
//! down) and the panic propagates. If a *pool worker's* slice unwinds,
//! the process aborts: a worker that died without leaving the bucket
//! would strand the leader's drain wait forever, so the failure is made
//! loud instead.
//!
//! **Model checking.** The session/bucket protocol — the single open
//! wakeup, claim-vs-drain ordering, the park predicate, shutdown, and
//! both panic paths — is mirrored by `sched_model` in `crates/check`
//! and explored exhaustively (`cargo run -p mcgc-check`). Its mutation
//! matrix deletes each load-bearing line in turn and proves the checker
//! catches every one. When editing the protocol here, change the model
//! in the same commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mcgc_membar::sync::{Condvar, Mutex};
use mcgc_telemetry::{SpanKind, SpanRecorder};

use crate::collector::Gc;
use crate::config::CollectorMode;
use crate::pacing::BgSweepPacer;
use crate::tracing::TraceRole;

/// Which kind of GC work a bucket carries. Purely a label: the bucket's
/// closure carries the actual work; the label feeds per-bucket
/// run/item accounting (and makes progress visible in thread dumps).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Bucket {
    /// Final card cleaning (§2.2), including redirty/re-clean passes.
    Cards,
    /// Stack + global root rescanning (§2.2).
    Roots,
    /// Packet drain to mark completion (§2.2, §4).
    Drain,
    /// Eager bitwise sweep (§2.2): the pause drains its sweep epoch.
    Sweep,
    /// Watchdog recovery: flood marked objects' cards.
    Flood,
    /// Pre-pause straggler fence: drain the previous sweep epoch's
    /// unswept chunks so the pause itself contains no bulk sweep.
    Straggler,
}

impl Bucket {
    pub(crate) const COUNT: usize = 6;

    pub(crate) fn index(self) -> usize {
        match self {
            Bucket::Cards => 0,
            Bucket::Roots => 1,
            Bucket::Drain => 2,
            Bucket::Sweep => 3,
            Bucket::Flood => 4,
            Bucket::Straggler => 5,
        }
    }

    /// Metric-name fragment for the per-bucket counters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Bucket::Cards => "cards",
            Bucket::Roots => "roots",
            Bucket::Drain => "drain",
            Bucket::Sweep => "sweep",
            Bucket::Flood => "flood",
            Bucket::Straggler => "straggler",
        }
    }

    pub(crate) fn from_index(i: usize) -> Bucket {
        match i {
            0 => Bucket::Cards,
            1 => Bucket::Roots,
            2 => Bucket::Drain,
            3 => Bucket::Sweep,
            4 => Bucket::Flood,
            _ => Bucket::Straggler,
        }
    }
}

/// A published bucket closure: a borrowed closure with its lifetime
/// erased. The `'static` here is a lie told to the type system only;
/// see the SAFETY comment in [`Session::run`] for why no worker can
/// outlive the real borrow.
type Job = &'static (dyn Fn(usize) + Sync);

/// The protocol state. Every field is guarded by one mutex — the
/// protocol itself needs no atomics, which keeps the TSan/Miri story
/// trivial and makes `sched_model`'s state space small.
struct SchedState {
    /// Bumped once per [`Scheduler::open_session`]. Monotone.
    session: u64,
    /// A session is open: session-role workers stay resident, claiming
    /// buckets as they are published, instead of parking.
    open: bool,
    /// Bumped once per published bucket. Monotone across sessions; a
    /// worker records the last value it claimed, so no bucket is ever
    /// claimed twice by the same worker or re-claimed after draining.
    bucket_seq: u64,
    /// The open bucket's closure, present from publish until the drain
    /// guard closes the bucket. `None` means "closed to new claims".
    job: Option<Job>,
    /// Label of the open bucket (index into [`Bucket`]).
    bucket: usize,
    /// Workers currently inside the open bucket's closure.
    executing: usize,
    shutdown: bool,
}

struct SchedShared {
    state: Mutex<SchedState>,
    /// The pool's single park point: session opening notifies it once
    /// per pause; concurrent-phase kickoff notifies it so tracers
    /// engage immediately; shutdown notifies it to release everyone.
    wake_cv: Condvar,
    /// Work items claimed per pause worker (slot 0 = the pause leader),
    /// for the utilization telemetry.
    claimed: Box<[AtomicU64]>,
    /// Bucket runs per [`Bucket`] label.
    // MODEL: sched_model — pure statistics: never read back by the
    // protocol, so Relaxed suffices and the model omits them.
    bucket_runs: [AtomicU64; Bucket::COUNT],
    /// Work items claimed per [`Bucket`] label (leader + workers).
    // MODEL: sched_model — pure statistics, as above.
    bucket_items: [AtomicU64; Bucket::COUNT],
    /// Sessions opened.
    // MODEL: sched_model — pure statistics, as above.
    sessions: AtomicU64,
    /// Per-worker wakeups issued by session opens: each open adds the
    /// session-worker count (the upper bound of threads its single
    /// `notify_all` can release). The pause_shape tests assert this
    /// stays ≤ `pauses × (stw_workers - 1)` — the zero-per-phase-wakeup
    /// property.
    // MODEL: sched_model — pure statistics, as above.
    wakeups: AtomicU64,
    /// Workers that hit the `sched.stall` chaos site.
    // MODEL: sched_model — pure statistics, as above.
    stalls: AtomicU64,
    /// Flight recorder, attached once by the collector after
    /// construction. Workers record `sched.job` spans (arg = work items
    /// claimed) on their own tracks; the leader records each bucket and
    /// its drain wait.
    spans: OnceLock<Arc<SpanRecorder>>,
}

impl SchedShared {
    fn recorder(&self) -> Option<&SpanRecorder> {
        self.spans.get().map(Arc::as_ref).filter(|r| r.is_enabled())
    }
}

/// The unified scheduler. One per [`crate::Gc`]; sessions are opened
/// only by the pause/fence leader (who holds the coordinator lock), so
/// they never overlap.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Pause workers including the leader (`stw_workers`, `>= 1`).
    workers: usize,
    /// Pool threads serving pause sessions (`workers - 1`).
    session_workers: usize,
    /// Pool threads with background tracer/sweeper duties.
    concurrent_workers: usize,
}

impl Scheduler {
    /// Creates the scheduler *without* spawning its pool — the workers
    /// need the `Arc<Gc>` (for safepoint registration and tracer
    /// duties), so [`Scheduler::start`] runs after `Gc` construction.
    pub(crate) fn new(
        stw_workers: usize,
        mode: CollectorMode,
        background_threads: usize,
    ) -> Scheduler {
        let workers = stw_workers.max(1);
        let concurrent_workers = if mode == CollectorMode::Concurrent {
            background_threads
        } else {
            0
        };
        let shared = Arc::new(SchedShared {
            state: Mutex::new(SchedState {
                session: 0,
                open: false,
                bucket_seq: 0,
                job: None,
                bucket: 0,
                executing: 0,
                shutdown: false,
            }),
            wake_cv: Condvar::new(),
            claimed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            bucket_runs: std::array::from_fn(|_| AtomicU64::new(0)),
            bucket_items: std::array::from_fn(|_| AtomicU64::new(0)),
            sessions: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            spans: OnceLock::new(),
        });
        Scheduler {
            shared,
            handles: Mutex::new(Vec::new()),
            workers,
            session_workers: workers - 1,
            concurrent_workers,
        }
    }

    /// Spawns the pool: `max(session_workers, concurrent_workers)`
    /// threads named `mcgc-sched-{i}`. Thread `i` serves pause sessions
    /// iff `i < session_workers` and carries background tracer/sweeper
    /// duties iff `i < concurrent_workers`. They park immediately and
    /// cost nothing until the first session or kickoff.
    pub(crate) fn start(&self, gc: &Arc<Gc>) {
        let pool = self.session_workers.max(self.concurrent_workers);
        let mut handles = self.handles.lock();
        debug_assert!(handles.is_empty(), "scheduler started twice");
        for idx in 0..pool {
            let gc = Arc::clone(gc);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mcgc-sched-{idx}"))
                    .spawn(move || worker_loop(&gc, idx))
                    .expect("spawn scheduler worker"),
            );
        }
    }

    /// Pause workers including the leader.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Pool threads spawned by [`Scheduler::start`].
    pub(crate) fn pool_threads(&self) -> usize {
        self.session_workers.max(self.concurrent_workers)
    }

    /// Attaches the flight recorder (first caller wins; later calls are
    /// no-ops). Kept out of `new` so test construction sites don't need
    /// a recorder.
    pub(crate) fn attach_spans(&self, rec: Arc<SpanRecorder>) {
        let _ = self.shared.spans.set(rec);
    }

    /// Opens a work-bucket session: the one wakeup a pause (or a
    /// pre-pause straggler fence) pays. Must be called by the leader
    /// under the coordinator lock; sessions never overlap. Workers stay
    /// resident, claiming each bucket published via [`Session::run`],
    /// until the returned guard drops (closing the session).
    pub(crate) fn open_session(&self) -> Session<'_> {
        // MODEL: sched_model — pure statistics, never read back.
        self.shared.sessions.fetch_add(1, Ordering::Relaxed);
        if self.session_workers > 0 {
            let mut st = self.shared.state.lock();
            debug_assert!(!st.open, "sessions overlapped");
            st.session += 1;
            st.open = true;
            // The single per-pause wakeup. Every phase bucket after this
            // is published without a notify: resident workers observe
            // the new `bucket_seq` and flow straight into it.
            // MODEL: sched_model — MissedOpenNotify deletes this wake;
            // parked workers sleep through the session (ordinary buckets
            // degrade to leader-only, and the participation scenario's
            // rendezvous bucket deadlocks).
            self.shared.wake_cv.notify_all();
            self.shared
                .wakeups
                .fetch_add(self.session_workers as u64, Ordering::Relaxed);
        }
        Session { sched: self }
    }

    /// Credits `n` claimed work items to pause worker `worker`
    /// (utilization stats; also folded into the per-bucket item
    /// counters by the span epilogue).
    pub(crate) fn add_claimed(&self, worker: usize, n: u64) {
        self.shared.claimed[worker].fetch_add(n, Ordering::Relaxed);
    }

    /// Work items claimed per pause worker since construction (slot 0 =
    /// the pause leader).
    pub(crate) fn claimed_per_worker(&self) -> Vec<u64> {
        self.shared
            .claimed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket runs so far for `bucket`.
    pub(crate) fn bucket_runs(&self, bucket: Bucket) -> u64 {
        self.shared.bucket_runs[bucket.index()].load(Ordering::Relaxed)
    }

    /// Work items claimed so far for `bucket` (all workers).
    pub(crate) fn bucket_items(&self, bucket: Bucket) -> u64 {
        self.shared.bucket_items[bucket.index()].load(Ordering::Relaxed)
    }

    /// Sessions opened so far.
    pub(crate) fn sessions_total(&self) -> u64 {
        // MODEL: sched_model — pure statistics, never read back.
        self.shared.sessions.load(Ordering::Relaxed)
    }

    /// Per-worker wakeups issued by session opens so far.
    pub(crate) fn wakeups_total(&self) -> u64 {
        // MODEL: sched_model — pure statistics, never read back.
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Times a worker hit the `sched.stall` chaos site.
    pub(crate) fn stalls(&self) -> u64 {
        // MODEL: sched_model — pure statistics, never read back.
        self.shared.stalls.load(Ordering::Relaxed)
    }

    /// Workers currently inside a bucket closure (queue-depth gauge).
    pub(crate) fn active_workers(&self) -> usize {
        self.shared.state.lock().executing
    }

    /// Whether a session is currently open (gauge).
    pub(crate) fn session_open(&self) -> bool {
        self.shared.state.lock().open
    }

    /// Wakes the pool at concurrent-phase kickoff so tracer-role
    /// workers engage from the phase's first moment. Gated on the
    /// concurrent role existing: in stop-the-world mode this is a no-op,
    /// preserving the one-wakeup-per-pause property exactly.
    pub(crate) fn kickoff_wake(&self) {
        if self.concurrent_workers == 0 {
            return;
        }
        // Taking the state lock orders this notify against any worker's
        // predicate-check-then-wait, closing the check-then-park race
        // (the phase flag is set before this call; a worker either sees
        // it under the lock or is parked and receives the notify).
        let _st = self.shared.state.lock();
        self.shared.wake_cv.notify_all();
    }

    /// Parks a pool worker for up to `d` (or until a session opens /
    /// shutdown / `wake_if` holds). The predicate is re-checked under
    /// the state lock, so a kickoff or session open between the check
    /// and the wait cannot be missed.
    fn park(&self, d: Option<Duration>, wake_if: impl Fn() -> bool) {
        let mut st = self.shared.state.lock();
        loop {
            // MODEL: sched_model — ParkMissesOpen hoists this predicate
            // out of the lock (check-then-park) and the model finds the
            // worker asleep after the shutdown notify: a join deadlock.
            if st.shutdown || st.open || wake_if() {
                return;
            }
            if let Some(d) = d {
                self.shared.wake_cv.wait_for(&mut st, d);
                return;
            }
            self.shared.wake_cv.wait(&mut st);
        }
    }

    /// Serves the open session: claims each bucket the leader publishes
    /// until the session closes. Called with the worker counted *safe*,
    /// so the stopped world's pause work proceeds while the rendezvous
    /// still counts this thread as parked.
    fn serve(&self, idx: usize, last_seq: &mut u64) {
        // Short-yield first — the next bucket usually appears within the
        // leader's inter-phase bookkeeping — then fall back to a brief
        // timed wait so a large pool never turns a 1-CPU pause into a
        // yield storm (the old gang's 233 ms outlier mode).
        let mut spins = 0u32;
        loop {
            let claim = {
                let mut st = self.shared.state.lock();
                if st.shutdown || (!st.open && st.job.is_none()) {
                    return;
                }
                match st.job {
                    // MODEL: sched_model — SplitClaim drops the
                    // `last_seq` dedup and the model finds a bucket's
                    // closure run twice by one worker (a double-claimed
                    // work item).
                    Some(job) if st.bucket_seq != *last_seq => {
                        *last_seq = st.bucket_seq;
                        st.executing += 1;
                        Some((job, Bucket::from_index(st.bucket)))
                    }
                    _ => None,
                }
            };
            let Some((job, bucket)) = claim else {
                spins += 1;
                if spins < 64 {
                    std::thread::yield_now();
                } else {
                    let mut st = self.shared.state.lock();
                    if st.open || st.job.is_some() {
                        self.shared
                            .wake_cv
                            .wait_for(&mut st, Duration::from_micros(50));
                    }
                }
                continue;
            };
            spins = 0;
            // Chaos: a worker stalls after claiming an open bucket
            // (payload = milliseconds). The pause must still complete —
            // the leader and the remaining workers drain the bucket's
            // cursors — delayed at most by the bounded sleep at the
            // drain wait.
            if mcgc_fault::point!("sched.stall") {
                // MODEL: sched_model — pure statistics, never read back.
                self.shared.stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(
                    mcgc_fault::payload("sched.stall").max(1),
                ));
            }
            // A worker must never unwind out of a claimed bucket: dying
            // without leaving it would hang the leader's drain wait —
            // and the whole stopped world — forever. A panic in a GC
            // job is not recoverable, so surface it (the panic hook has
            // already printed the message and backtrace) and abort.
            // MODEL: sched_model — PanicNoAbort lets the worker die
            // silently instead; the model shows the leader stranded at
            // its drain wait.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_slice_with_span(&self.shared, self.shared.recorder(), idx + 1, bucket, job);
            }))
            .is_err()
            {
                eprintln!("mcgc-sched-{idx}: panic in GC work; aborting");
                std::process::abort();
            }
            self.shared.state.lock().executing -= 1;
        }
    }

    /// Stops and joins the pool threads. Idempotent, and safe to race
    /// with a session: workers finish any bucket slice they claimed
    /// (the drain guard waits them out) before exiting, and a
    /// [`Session::run`] that observes the shutdown flag executes its
    /// bucket inline instead of publishing.
    pub(crate) fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            // MODEL: sched_model — MissedShutdownNotify deletes this
            // wake and the model finds a parked worker sleeping forever:
            // the join below deadlocks.
            self.shared.wake_cv.notify_all();
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("pool_threads", &self.pool_threads())
            .field("sessions", &self.sessions_total())
            .finish()
    }
}

/// An open work-bucket session. Publishes buckets via [`Session::run`];
/// dropping it closes the session (resident workers park again). No
/// notify is needed to close: workers observe `open == false` under the
/// state lock.
pub(crate) struct Session<'a> {
    sched: &'a Scheduler,
}

impl Session<'_> {
    /// Publishes one bucket: the leader runs `f(0)` itself while
    /// resident workers claim the same closure with their worker index;
    /// returns once the bucket has drained (every claimed slice
    /// finished). No condvar is touched: publish is a sequence-number
    /// bump, the drain wait is a bounded spin.
    ///
    /// With no session workers (`stw_workers = 1`) or after shutdown,
    /// runs `f(0)` inline — byte-for-byte the serial pause.
    pub(crate) fn run(&self, bucket: Bucket, f: impl Fn(usize) + Sync) {
        let shared = &self.sched.shared;
        shared.bucket_runs[bucket.index()].fetch_add(1, Ordering::Relaxed);
        let rec = shared.recorder();
        let _bucket_span = rec.map(|r| r.span(SpanKind::SchedBucket, bucket.index() as u64));
        if self.sched.session_workers == 0 {
            run_slice_with_span(shared, rec, 0, bucket, &f);
            return;
        }
        {
            let job: &(dyn Fn(usize) + Sync) = &f;
            // SAFETY: erasing the borrow's lifetime to 'static is sound
            // because this frame — which owns `f`, the referent of the
            // erased reference — is not torn down until the drain guard
            // observes `executing == 0` with `job` already cleared,
            // i.e. until every worker that claimed the bucket has left
            // it and no further claim is possible. The guard runs from
            // `DrainGuard::drop`, so it closes on the unwind path too:
            // a panic in the leader's `f(0)` below still drains the
            // bucket before the frame is freed.
            let job: Job = unsafe { std::mem::transmute(job) };
            let mut st = shared.state.lock();
            if st.shutdown {
                // Shutdown raced ahead of this session: workers are
                // exiting (or already joined), so nobody would claim the
                // bucket. Run it inline instead of publishing into an
                // empty pool. Note the claims-based drain makes even a
                // post-shutdown publish *safe* (the leader runs its own
                // slice and the guard sees `executing == 0`) — the
                // fallback avoids the pointless publication, it is not
                // load-bearing for soundness.
                // MODEL: sched_model — the shutdown_race scenario
                // explores this interleaving (the leader's L_PUBLISH
                // takes the inline path when the closer's shutdown
                // lands first).
                drop(st);
                run_slice_with_span(shared, rec, 0, bucket, &f);
                return;
            }
            debug_assert!(
                st.job.is_none() && st.executing == 0,
                "bucket published before its predecessor drained"
            );
            // MODEL: sched_model — OpenBeforeDrained publishes while
            // `executing > 0` and the model reports a dangling bucket
            // closure.
            st.job = Some(job);
            st.bucket = bucket.index();
            st.bucket_seq += 1;
            // No notify: the session's opening wakeup made the workers
            // resident; they observe the new `bucket_seq` and claim.
        }
        /// Closes the bucket on drop — on the normal path and,
        /// critically, on unwind (see the SAFETY comment above). `job`
        /// is cleared *first* (no new claim can start), then the spin
        /// waits out workers already inside.
        /// MODEL: sched_model — UnwindPastDrain deletes this guard and
        /// the model reports a dangling bucket closure; WaitBeforeClear
        /// swaps the two steps and a late claim races the teardown.
        struct DrainGuard<'a>(&'a SchedShared, Option<&'a SpanRecorder>, usize);
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                let _wait = self
                    .1
                    .map(|r| r.span(SpanKind::SchedDrainWait, self.2 as u64));
                self.0.state.lock().job = None;
                loop {
                    if self.0.state.lock().executing == 0 {
                        return;
                    }
                    std::thread::yield_now();
                }
            }
        }
        let guard = DrainGuard(shared, rec, bucket.index());
        // The leader is worker 0 and pulls from the same cursors.
        run_slice_with_span(shared, rec, 0, bucket, &f);
        drop(guard);
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if self.sched.session_workers == 0 {
            return;
        }
        let mut st = self.sched.shared.state.lock();
        debug_assert!(st.job.is_none(), "session closed with a bucket open");
        st.open = false;
    }
}

/// Runs one worker's slice of a bucket under a `sched.job` span whose
/// arg is the work items the worker claimed while inside it (read from
/// the per-worker claim counters before and after); the delta also
/// feeds the per-bucket item counter.
fn run_slice_with_span(
    shared: &SchedShared,
    rec: Option<&SpanRecorder>,
    idx: usize,
    bucket: Bucket,
    job: &(dyn Fn(usize) + Sync),
) {
    let before = shared.claimed[idx].load(Ordering::Relaxed);
    let mut span = rec.map(|r| r.span(SpanKind::SchedJob, 0));
    job(idx);
    let after = shared.claimed[idx].load(Ordering::Relaxed);
    let items = after.saturating_sub(before);
    shared.bucket_items[bucket.index()].fetch_add(items, Ordering::Relaxed);
    if let Some(s) = span.as_mut() {
        s.set_arg(items);
    }
}

/// Pool worker main loop: serve pause sessions (if session-role), run
/// background tracer/sweeper duties (if concurrent-role), park
/// otherwise. "Low priority" for the tracer duties is approximated by
/// short quanta with yielding parks between them (real thread
/// priorities are not portably available); the paper's accounting
/// (§3.2) only relies on the *measured* background rate `B`.
fn worker_loop(gc: &Arc<Gc>, idx: usize) {
    if gc.config.pin_workers {
        pin_to_cpu(idx);
    }
    let sched = gc.sched();
    let session_role = idx < sched.session_workers;
    let concurrent_role = idx < sched.concurrent_workers;
    gc.register_thread();
    if concurrent_role {
        gc.bg_alive.fetch_add(1, Ordering::Relaxed);
    }
    let mut tracer_alive = concurrent_role;
    let mut sweep_pacer = BgSweepPacer::new();
    let mut last_seq = 0u64;
    loop {
        if gc.shutdown_flag.load(Ordering::Relaxed) || sched.shared.state.lock().shutdown {
            break;
        }
        if tracer_alive && gc.in_concurrent_phase() {
            gc.poll_safepoint();
            // Fault: the tracer dies mid-phase — it abandons its tracing
            // duties abruptly (the thread itself persists for session
            // work, as a real runtime's GC thread would drop only its
            // concurrent duty). Any packets it ever held are already
            // back in the pool; the collector must finish the cycle
            // without its help.
            if mcgc_fault::point!("bg.death") {
                tracer_alive = false;
                gc.bg_alive.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            // Fault: the tracer stalls for the payload's duration while
            // *holding a checked-out packet* — the scenario the pause
            // watchdog exists for.
            if mcgc_fault::point!("bg.stall") {
                stall_holding_packet(gc);
                continue;
            }
            let quantum = gc.config.background_quantum as u64;
            let done = gc.trace_increment(quantum, TraceRole::Background, None);
            if done == 0 {
                // No concurrent work right now: yield (the paper's
                // background threads yield and retry).
                idle(
                    gc,
                    idx,
                    session_role,
                    true,
                    &mut last_seq,
                    Some(Duration::from_micros(200)),
                );
            } else {
                // Brief yield between quanta keeps "low priority".
                std::thread::yield_now();
            }
            continue;
        }
        if tracer_alive && gc.background_sweep_quantum(&mut sweep_pacer) {
            // Between concurrent phases the tracer doubles as the
            // background sweeper: it soaks idle cycles draining the
            // sweep epoch, parking while mutator refills keep up.
            gc.poll_safepoint();
            std::thread::yield_now();
            continue;
        }
        // Nothing to do: park until a session opens, a concurrent phase
        // kicks off, or shutdown. Tracer-role workers use a timed park
        // as a safety net; pure session workers sleep indefinitely (the
        // session open is their only wakeup).
        let d = if tracer_alive {
            Some(Duration::from_micros(500))
        } else {
            None
        };
        idle(gc, idx, session_role, tracer_alive, &mut last_seq, d);
    }
    if tracer_alive {
        gc.bg_alive.fetch_sub(1, Ordering::Relaxed);
    }
    gc.deregister_thread();
}

/// Parks while counted *safe* (so pauses proceed without this thread)
/// and serves any session that opens before leaving the safe window.
/// Serving inside the window is load-bearing, not just a fast path:
/// `exit_safe` blocks while the world is stopped, so a worker that left
/// the window first could never reach the session's buckets.
fn idle(
    gc: &Gc,
    idx: usize,
    session_role: bool,
    tracer_alive: bool,
    last_seq: &mut u64,
    d: Option<Duration>,
) {
    let sched = gc.sched();
    gc.enter_safe();
    loop {
        // Only a live tracer wants the concurrent-phase wakeup; for a
        // pure session worker the phase flag must not end the park, or
        // every concurrent phase would spin it.
        sched.park(d, || tracer_alive && gc.in_concurrent_phase());
        if sched.shared.state.lock().shutdown {
            break;
        }
        if session_role && (sched.session_open() || sched.shared.state.lock().job.is_some()) {
            sched.serve(idx, last_seq);
        }
        // While the world is stopped, stay inside the safe window: a
        // session can close and another open (the straggler fence, then
        // the pause proper), and `exit_safe` below would block anyway.
        if gc.stop_requested.load(Ordering::Relaxed) {
            continue;
        }
        break;
    }
    gc.exit_safe();
}

impl Gc {
    /// Parks a tracer-role worker for up to `d` between polls; used by
    /// the `sweep.bg_stall` fault path. Kickoff's [`Scheduler::
    /// kickoff_wake`] cuts the sleep short the moment a concurrent
    /// phase begins.
    pub(crate) fn background_park(&self, d: Duration) {
        self.sched().park(Some(d), || self.in_concurrent_phase());
    }
}

/// Backs the `bg.stall` fault site: checks a non-empty packet out of
/// the pool and sleeps on it (counted *safe*, so pauses proceed) for
/// the plan's payload in milliseconds (default 1000, clamped to a
/// minute). A healthy thread never parks holding a packet; the pause
/// watchdog must condemn the handle so termination detection still
/// fires.
fn stall_holding_packet(gc: &Arc<Gc>) {
    // Prefer a work-laden input packet (the worst case: greys go missing
    // with it), but any checked-out packet wedges §4.3 termination
    // detection, so fall back to an output-side grab.
    let Some(held) = gc.pool.get_input().or_else(|| gc.pool.get_output()) else {
        // Nothing to hold hostage yet; retry at the next loop turn (the
        // site keeps firing under a `From` trigger).
        std::thread::yield_now();
        return;
    };
    let ms = match mcgc_fault::payload("bg.stall") {
        0 => 1000,
        ms => ms.clamp(1, 60_000),
    };
    let deadline = std::time::Instant::now() + Duration::from_millis(ms);
    while !gc.shutdown_flag.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
        gc.enter_safe();
        gc.background_park(Duration::from_millis(2));
        gc.exit_safe();
    }
    drop(held);
}

/// Pins the calling thread to CPU `idx % available_parallelism`
/// (round-robin; mmtk's `scheduler/affinity.rs` pattern). Linux only —
/// a no-op elsewhere — and only reached behind the `pin_workers`
/// config knob.
#[cfg(target_os = "linux")]
fn pin_to_cpu(idx: usize) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = idx % cpus;
    // A fixed 1024-bit cpu_set_t, the kernel ABI's default width.
    let mut mask = [0u64; 16];
    if cpu / 64 < mask.len() {
        mask[cpu / 64] = 1u64 << (cpu % 64);
    }
    extern "C" {
        // Hand-declared: the workspace is hermetic (no libc crate), and
        // std already links the symbol.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` outlives the call and `cpusetsize` is its exact
    // byte length; pid 0 targets the calling thread. Affinity is
    // advisory — failure (e.g. in a restricted sandbox) is ignored.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_idx: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GcConfig;
    use std::sync::atomic::AtomicUsize;

    fn sched_gc(stw_workers: usize) -> Arc<Gc> {
        let mut cfg = GcConfig::stw_with_heap_bytes(1 << 20);
        cfg.stw_workers = stw_workers;
        cfg.background_threads = 0;
        Gc::new(cfg)
    }

    #[test]
    fn single_worker_runs_inline() {
        let gc = sched_gc(1);
        let hits = AtomicUsize::new(0);
        {
            let session = gc.sched().open_session();
            session.run(Bucket::Drain, |w| {
                assert_eq!(w, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(gc.sched().bucket_runs(Bucket::Drain), 1);
        assert_eq!(gc.sched().wakeups_total(), 0, "no workers, no wakeups");
        gc.shutdown();
    }

    #[test]
    fn all_workers_run_each_bucket() {
        let gc = sched_gc(4);
        for round in 1..=3u64 {
            let ran = AtomicU64::new(0);
            {
                let session = gc.sched().open_session();
                session.run(Bucket::Sweep, |w| {
                    assert!(w < 4);
                    ran.fetch_add(1 << (8 * w), Ordering::Relaxed);
                    // Rendezvous: the bucket closes the moment the
                    // leader's slice returns (leader independence), so
                    // hold every slice open until all four have arrived.
                    while ran.load(Ordering::Relaxed) != 0x01_01_01_01 {
                        std::thread::yield_now();
                    }
                });
            }
            // Each worker ran exactly once: one count in each byte lane.
            assert_eq!(ran.load(Ordering::Relaxed), 0x01_01_01_01);
            assert_eq!(gc.sched().bucket_runs(Bucket::Sweep), round);
        }
        gc.shutdown();
    }

    #[test]
    fn one_wakeup_covers_every_bucket_in_a_session() {
        let gc = sched_gc(3);
        {
            let session = gc.sched().open_session();
            for bucket in [Bucket::Cards, Bucket::Roots, Bucket::Drain, Bucket::Sweep] {
                let ran = AtomicU64::new(0);
                session.run(bucket, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    // Hold the bucket open until all three workers claim
                    // it (see all_workers_run_each_bucket).
                    while ran.load(Ordering::Relaxed) < 3 {
                        std::thread::yield_now();
                    }
                });
                assert_eq!(ran.load(Ordering::Relaxed), 3);
            }
        }
        // One session, two session workers: exactly two per-worker
        // wakeups despite four buckets (zero per-phase wakeups).
        assert_eq!(gc.sched().sessions_total(), 1);
        assert_eq!(gc.sched().wakeups_total(), 2);
        gc.shutdown();
    }

    #[test]
    fn cursor_work_is_fully_claimed() {
        let gc = sched_gc(3);
        const N: usize = 10_000;
        let cursor = AtomicUsize::new(0);
        let sum = AtomicU64::new(0);
        {
            let session = gc.sched().open_session();
            session.run(Bucket::Cards, |w| {
                let mut claims = 0;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= N {
                        break;
                    }
                    claims += 1;
                    sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                }
                gc.sched().add_claimed(w, claims);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), (N as u64 * (N as u64 + 1)) / 2);
        assert_eq!(
            gc.sched().claimed_per_worker().iter().sum::<u64>(),
            N as u64
        );
        assert_eq!(gc.sched().bucket_items(Bucket::Cards), N as u64);
        gc.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let gc = sched_gc(2);
        {
            let session = gc.sched().open_session();
            session.run(Bucket::Roots, |_| {});
        }
        gc.shutdown();
        gc.shutdown();
    }

    #[test]
    fn leader_panic_drains_bucket_and_pool_survives() {
        let gc = sched_gc(3);
        let helpers_ran = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let session = gc.sched().open_session();
            session.run(Bucket::Cards, |w| {
                if w == 0 {
                    // Panic only after both helpers are inside the
                    // bucket, so the unwind drain has slices to wait out.
                    while helpers_ran.load(Ordering::Relaxed) < 2 {
                        std::thread::yield_now();
                    }
                    panic!("leader slice panics");
                }
                helpers_ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err(), "leader panic propagates");
        assert_eq!(helpers_ran.load(Ordering::Relaxed), 2);
        // The unwind path drained the bucket (and the session guard
        // closed the session), so the pool is still serviceable.
        let ran = AtomicU64::new(0);
        {
            let session = gc.sched().open_session();
            session.run(Bucket::Cards, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
                while ran.load(Ordering::Relaxed) < 3 {
                    std::thread::yield_now();
                }
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        gc.shutdown();
    }

    #[test]
    fn session_after_shutdown_runs_inline() {
        let gc = sched_gc(4);
        gc.shutdown();
        let ran = AtomicU64::new(0);
        {
            let session = gc.sched().open_session();
            session.run(Bucket::Drain, |w| {
                assert_eq!(w, 0, "only the caller runs after shutdown");
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_racing_sessions_never_hangs() {
        for _ in 0..50 {
            let gc = sched_gc(3);
            let g = Arc::clone(&gc);
            let t = std::thread::spawn(move || g.shutdown());
            for _ in 0..10 {
                let ran = AtomicU64::new(0);
                {
                    let session = gc.sched().open_session();
                    session.run(Bucket::Roots, |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                // Inline (post-shutdown) or full-pool, the bucket ran.
                assert!(ran.load(Ordering::Relaxed) >= 1);
            }
            t.join().unwrap();
        }
    }
}
