//! Chaos tests: seeded, deterministic fault plans injected into the
//! collector's real degraded-mode machinery, audited under `verify-gc`.
//!
//! Every scenario must satisfy the resilience contract from the paper's
//! server setting: a run either completes with a clean heap audit or
//! fails with a typed [`GcError::OutOfMemory`] — it never hangs and
//! never corrupts the heap. A wall-clock watchdog enforces "never
//! hangs" at the process level: any scenario that exceeds its deadline
//! aborts the whole test binary with exit code 86.
//!
//! Requires `--features fault-inject,verify-gc` (the `[[test]]` stanza
//! declares them as `required-features`, so plain `cargo test` skips
//! this binary). [`mcgc::fault::FaultGuard`] serializes scenarios on a
//! global session lock, so the per-site hit counters never interleave
//! across tests.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcgc::fault::{site, FaultPlan};
use mcgc::{
    fault, CollectorMode, Gc, GcConfig, GcError, ObjectRef, ObjectShape, PoolConfig, SweepMode,
};

/// Hard wall-clock limit per scenario. Generous — scenarios finish in
/// seconds — because its only job is turning a livelock or deadlock
/// into a loud, fast CI failure instead of a job timeout.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `f` on a helper thread and polls for completion. On deadline
/// the process exits with code 86 (a hang is unrecoverable from within
/// the hung process, so no attempt is made to unwind it).
fn with_deadline<F>(name: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let worker = std::thread::spawn(f);
    let deadline = Instant::now() + DEADLINE;
    while !worker.is_finished() {
        if Instant::now() >= deadline {
            eprintln!("chaos scenario `{name}` exceeded the {DEADLINE:?} watchdog: hung");
            std::process::exit(86);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

fn config(heap_bytes: usize, sweep: SweepMode) -> GcConfig {
    let mut c = GcConfig::with_heap_bytes(heap_bytes);
    c.background_threads = 1;
    c.stw_workers = 2;
    c.sweep = sweep;
    c
}

/// Allocation churn with short-lived linked chains: every 8th node
/// unlinks its chain, so the heap stays mostly garbage while `write_ref`
/// traffic keeps dirtying cards. Runs until `cycles` collections have
/// completed (or the iteration cap trips, so an injected stall cannot
/// turn the helper itself into the hang).
fn churn(gc: &Arc<Gc>, cycles: usize, max_iters: u64) -> Result<(), GcError> {
    let mut m = gc.register_mutator();
    let keep = m.alloc(ObjectShape::new(1, 20, 0))?;
    m.root_push(Some(keep));
    let node = ObjectShape::new(2, 6, 0);
    let mut prev: Option<ObjectRef> = None;
    let mut i = 0u64;
    while gc.log().cycles.len() < cycles && i < max_iters {
        let n = m.alloc(node)?;
        if let Some(p) = prev {
            m.write_ref(n, 0, Some(p));
        }
        m.write_ref(keep, 0, Some(n));
        prev = if i.is_multiple_of(8) { None } else { Some(n) };
        i += 1;
    }
    Ok(())
}

fn counters(gc: &Arc<Gc>) -> BTreeMap<String, f64> {
    gc.telemetry_sample();
    gc.telemetry().registry().sample().into_iter().collect()
}

/// Refill failures force `alloc_small_slow` onto the escalation ladder:
/// the retry and rung counters must tick, and the heap must still audit
/// clean. Exercised in both sweep modes: an injected refill failure
/// returns before the refill sweeps, so under `SweepMode::Lazy` the
/// epoch it leaves unswept is drained by `collect_for_alloc` instead.
#[test]
fn refill_faults_escalate_and_stay_sound() {
    for (seed, sweep) in [(0xA110C1u64, SweepMode::Eager), (0xA110C2, SweepMode::Lazy)] {
        with_deadline("refill_faults", move || {
            let _guard = FaultPlan::new(seed)
                .every_k(site::HEAP_REFILL, 13)
                .install();
            let gc = Gc::new(config(16 << 20, sweep));
            churn(&gc, 3, 2_000_000).unwrap();
            assert!(fault::fires(site::HEAP_REFILL) > 0, "plan never fired");
            let s = counters(&gc);
            assert!(s["gc_alloc_retry_total"] >= 1.0, "ladder never re-entered");
            let rungs = s["gc_alloc_rung_finish_total"] + s["gc_alloc_rung_stw_total"];
            assert!(rungs >= 1.0, "no escalation rung recorded");
            gc.audit_now();
            gc.shutdown();
        });
    }
}

/// A permanently failing large-object path must surface as a typed
/// `OutOfMemory` that carries the request size and heap occupancy —
/// after the ladder's bounded full-collection rungs, never a hang.
#[test]
fn large_alloc_oom_reports_context() {
    with_deadline("large_alloc_oom", || {
        let _guard = FaultPlan::new(0x0031)
            .from(site::HEAP_ALLOC_LARGE, 1)
            .install();
        let gc = Gc::new(config(4 << 20, SweepMode::Eager));
        let mut m = gc.register_mutator();
        let big = ObjectShape::new(0, 4096, 0); // 32 KiB >= 8 KiB threshold
        let err = m.alloc(big).expect_err("large alloc must fail");
        assert!(
            matches!(err, GcError::OutOfMemory { requested_bytes, .. } if requested_bytes == big.bytes() as u64),
            "wrong error: {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("requested"), "no request context: {msg}");
        assert!(msg.contains("occupied"), "no occupancy context: {msg}");
        let s = counters(&gc);
        assert!(s["gc_alloc_oom_total"] >= 1.0);
        // The collector survives the OOM: normal allocation still works.
        let ok = m.alloc(ObjectShape::new(0, 4, 0)).unwrap();
        m.root_push(Some(ok));
        drop(m);
        gc.audit_now();
        gc.shutdown();
    });
}

/// Satellite 3: packet-pool exhaustion forced via the fault site. The
/// tracer must degrade to the §4.3 mark-and-dirty-card overflow path,
/// the STW drain must re-clean the flooded cards, and the post-drain
/// audit (automatic under `verify-gc`) plus the final explicit audit
/// must pass — in both sweep modes.
#[test]
fn pool_exhaustion_degrades_to_card_overflow() {
    for (seed, sweep) in [(0x9001u64, SweepMode::Eager), (0x9002, SweepMode::Lazy)] {
        with_deadline("pool_exhaustion", move || {
            let _guard = FaultPlan::new(seed)
                .probability_permille(site::POOL_EXHAUSTED, 700)
                .install();
            let mut cfg = config(16 << 20, sweep);
            cfg.pool = PoolConfig {
                packets: 8,
                capacity: 16,
            };
            let gc = Gc::new(cfg);
            churn(&gc, 3, 2_000_000).unwrap();
            assert!(fault::fires(site::POOL_EXHAUSTED) > 0, "plan never fired");
            let log = gc.log();
            let overflows: u64 = log.cycles.iter().map(|c| c.overflows).sum();
            assert!(overflows > 0, "no overflow events despite exhausted pool");
            let stw_cards: u64 = log.cycles.iter().map(|c| c.cards_cleaned_stw).sum();
            assert!(stw_cards > 0, "overflow-dirtied cards never re-cleaned");
            gc.audit_now();
            gc.shutdown();
        });
    }
}

/// A background tracer stalled mid-checkout must not wedge termination
/// detection: the pause watchdog condemns its packet, refloods marked
/// cards, and the cycle completes with clean audits.
#[test]
fn stalled_tracer_is_reclaimed_by_watchdog() {
    with_deadline("tracer_stall", || {
        let _guard = FaultPlan::new(0x57A11)
            .from(site::BG_STALL, 1)
            .payload(2_000) // stall 2 s per grab — far past any pause
            .install();
        let gc = Gc::new(config(16 << 20, SweepMode::Eager));
        churn(&gc, 3, 2_000_000).unwrap();
        assert!(fault::fires(site::BG_STALL) > 0, "tracer never stalled");
        let s = counters(&gc);
        assert!(
            s["gc_watchdog_reclaimed_packets_total"] >= 1.0,
            "watchdog never condemned the stalled tracer's packet"
        );
        gc.audit_now();
        gc.shutdown();
    });
}

/// A background tracer dying outright (thread exits its run loop) must
/// leave the collector fully functional on mutator increments alone.
#[test]
fn dead_tracer_does_not_stop_collection() {
    with_deadline("tracer_death", || {
        let _guard = FaultPlan::new(0xDEAD).nth(site::BG_DEATH, 2).install();
        let gc = Gc::new(config(16 << 20, SweepMode::Eager));
        churn(&gc, 4, 2_000_000).unwrap();
        assert_eq!(fault::fires(site::BG_DEATH), 1, "nth trigger fires once");
        let s = counters(&gc);
        assert_eq!(
            s["gc_bg_tracers_alive"], 0.0,
            "dead tracer still counted alive"
        );
        assert!(gc.log().cycles.len() >= 4, "collection stopped after death");
        gc.audit_now();
        gc.shutdown();
    });
}

/// Mutators that never ack the §5.3 card handshake must not stall card
/// cleaning forever: the collector times out, leaves the snapshot's
/// cards registered for the pause, and keeps going.
#[test]
fn delayed_handshake_acks_hit_timeout_fallback() {
    with_deadline("handshake_delay", || {
        let _guard = FaultPlan::new(0xCA4D)
            .probability_permille(site::HANDSHAKE_DELAY, 1000)
            .install();
        let gc = Gc::new(config(16 << 20, SweepMode::Eager));
        // Two mutator threads: every handshake one of them requests (or
        // the background tracer drives) leaves the other un-acked, so
        // with acks suppressed each one must resolve via timeout.
        // Whether a given cycle cleans any card *concurrently* (rather
        // than deferring them all to the pause, where parked mutators
        // are implicitly acked) is schedule-dependent, so churn cycles
        // until a concurrent handshake has both fired the fault and
        // been forced through the timeout fallback, bounded by the
        // cycle cap (and, ultimately, the wall-clock watchdog).
        let gc2 = Arc::clone(&gc);
        let done = Arc::new(std::sync::Mutex::new(false));
        let done2 = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            while !*done2.lock().unwrap() {
                churn(&gc2, gc2.log().cycles.len() + 1, 500_000).unwrap();
            }
        });
        for _ in 0..40 {
            churn(&gc, gc.log().cycles.len() + 1, 500_000).unwrap();
            if fault::fires(site::HANDSHAKE_DELAY) > 0
                && counters(&gc)["gc_handshake_timeouts_total"] >= 1.0
            {
                break;
            }
        }
        *done.lock().unwrap() = true;
        t.join().unwrap();
        assert!(fault::fires(site::HANDSHAKE_DELAY) > 0, "plan never fired");
        let s = counters(&gc);
        assert!(
            s["gc_handshake_timeouts_total"] >= 1.0,
            "suppressed acks never forced the timeout fallback"
        );
        gc.audit_now();
        gc.shutdown();
    });
}

/// CAS-retry storms on the packet lists plus artificial card floods:
/// pure contention and extra card work, which must cost time but never
/// soundness.
#[test]
fn cas_storms_and_card_floods_stay_sound() {
    with_deadline("cas_storm_card_flood", || {
        let _guard = FaultPlan::new(0x5707)
            .probability_permille(site::POOL_CAS_STORM, 250)
            // The site is only reachable from slow-path refills inside a
            // concurrent phase, so hits are scarce: flood on every other.
            .every_k(site::CARD_FLOOD, 2)
            .payload(300) // dirty ~300 spread cards per flood
            .install();
        let gc = Gc::new(config(16 << 20, SweepMode::Eager));
        churn(&gc, 4, 2_000_000).unwrap();
        assert!(
            fault::fires(site::POOL_CAS_STORM) > 0,
            "no CAS storms ({} hits)",
            fault::hits(site::POOL_CAS_STORM)
        );
        assert!(
            fault::fires(site::CARD_FLOOD) > 0,
            "no card floods ({} hits)",
            fault::hits(site::CARD_FLOOD)
        );
        gc.audit_now();
        gc.shutdown();
    });
}

/// Everything at once, across seeds and sweep modes: layered faults on
/// allocation, the pool, the tracers, and the handshake. The contract
/// is the weak one — finish with a clean audit or a typed OOM.
#[test]
fn kitchen_sink_matrix_completes_or_fails_typed() {
    for (seed, sweep) in [
        (0xC0FFEEu64, SweepMode::Eager),
        (0xDECADE, SweepMode::Lazy),
        (7, SweepMode::Eager),
        (99, SweepMode::Lazy),
    ] {
        with_deadline("kitchen_sink", move || {
            let _guard = FaultPlan::new(seed)
                .probability_permille(site::HEAP_REFILL, 50)
                .probability_permille(site::POOL_EXHAUSTED, 200)
                .probability_permille(site::POOL_CAS_STORM, 100)
                .probability_permille(site::HANDSHAKE_DELAY, 300)
                .every_k(site::CARD_FLOOD, 9)
                .payload(200)
                .nth(site::BG_STALL, 3)
                .payload(500)
                .install();
            let mut cfg = config(12 << 20, sweep);
            cfg.pool = PoolConfig {
                packets: 16,
                capacity: 32,
            };
            let gc = Gc::new(cfg);
            match churn(&gc, 4, 2_000_000) {
                Ok(()) => {}
                Err(e) => assert!(
                    matches!(e, GcError::OutOfMemory { .. }),
                    "only typed OOM is an acceptable failure: {e:?}"
                ),
            }
            gc.audit_now();
            gc.shutdown();
        });
    }
}

/// Builds a rooted chain of `bytes` worth of live nodes, growing the
/// heap on demand through the escalation ladder. Returns the error that
/// stopped it, if any.
fn fill_live(m: &mut mcgc::Mutator, bytes: usize) -> Result<(), GcError> {
    let node = ObjectShape::new(1, 30, 0); // 32 granules = 256 B
    let head = m.alloc(node)?;
    let slot = m.root_push(Some(head));
    let mut prev = head;
    let mut allocated = node.bytes();
    while allocated < bytes {
        let n = m.alloc(node)?;
        m.write_ref(n, 0, Some(prev));
        m.root_set(slot, Some(n));
        prev = n;
        allocated += node.bytes();
    }
    Ok(())
}

/// Segment reservation failing under pressure (the mmap-failure
/// analogue): the grow rung must come back empty-handed, the one
/// bounded backpressure stall must run and expire at its deadline — not
/// hang — and the request must surface as a typed OOM whose snapshot
/// records the refused growth, all with a clean final audit.
#[test]
fn segment_reserve_faults_end_in_typed_oom_after_bounded_stall() {
    with_deadline("segment_reserve", || {
        let _guard = FaultPlan::new(0x5E6)
            .from(site::HEAP_SEGMENT_RESERVE, 1)
            .install();
        let mut cfg = config(4 << 20, SweepMode::Eager);
        cfg.heap.max_heap_bytes = 16 << 20; // headroom the fault denies
        cfg.alloc_stall_deadline = Duration::from_millis(50);
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let started = Instant::now();
        let err = fill_live(&mut m, 8 << 20).expect_err("live data past the reservation must OOM");
        // Bounded: collections + one 50 ms stall, nowhere near the
        // watchdog. The stall must actually have run before giving up.
        assert!(
            started.elapsed() < DEADLINE / 2,
            "ladder took {:?}: stall not bounded",
            started.elapsed()
        );
        match err {
            GcError::OutOfMemory {
                stalled,
                grows,
                full_collections,
                segments_committed,
                segments_max,
                ..
            } => {
                assert!(stalled, "backpressure stall never ran");
                assert_eq!(grows, 0, "grow rung succeeded despite the fault");
                assert!(full_collections >= 1, "ladder skipped collections");
                assert!(
                    segments_committed < segments_max,
                    "no headroom: the grow rung was never even eligible"
                );
            }
        }
        let msg = err.to_string();
        assert!(msg.contains("segments"), "no segment context: {msg}");
        assert!(msg.contains("stalled: true"), "no stall context: {msg}");
        assert!(fault::fires(site::HEAP_SEGMENT_RESERVE) > 0, "never fired");
        let s = counters(&gc);
        assert!(s["gc_alloc_stalls_total"] >= 1.0, "stall not counted");
        assert_eq!(s["gc_alloc_rung_grow_total"], 0.0);
        assert_eq!(s["heap_segment_grows_total"], 0.0);
        // The collector survives: drop the chain and allocate again.
        m.root_truncate(0);
        m.collect();
        let ok = m.alloc(ObjectShape::new(0, 4, 0)).unwrap();
        m.root_push(Some(ok));
        drop(m);
        gc.audit_now();
        gc.shutdown();
    });
}

/// Segment release failing (the munmap-failure analogue): the trough
/// after a burst wants to return empty segments, the fault refuses, and
/// the heap must simply keep them committed — still sound, still
/// allocatable, no shrink recorded.
#[test]
fn segment_release_faults_keep_segments_committed_and_sound() {
    with_deadline("segment_release", || {
        let _guard = FaultPlan::new(0x5E7)
            .from(site::HEAP_SEGMENT_RELEASE, 1)
            .install();
        let mut cfg = config(2 << 20, SweepMode::Eager);
        cfg.heap.segment_bytes = 256 << 10;
        cfg.heap.max_heap_bytes = 8 << 20;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        // Burst: live data past the initial reservation forces grows.
        fill_live(&mut m, 3 << 20).unwrap();
        let peak = gc.heap().segment_stats();
        assert!(peak.grows > 0, "burst never grew the heap");
        // Trough: drop the chain; the next full collection would release
        // the now-empty grown segments, but every release is refused.
        m.root_truncate(0);
        m.collect();
        m.collect();
        assert!(fault::fires(site::HEAP_SEGMENT_RELEASE) > 0, "never fired");
        let after = gc.heap().segment_stats();
        assert_eq!(after.shrinks, 0, "release succeeded despite the fault");
        assert!(
            after.committed > after.initial,
            "segments vanished although release was refused"
        );
        // Kept segments stay usable: fill into them again.
        fill_live(&mut m, 2 << 20).unwrap();
        m.root_truncate(0);
        drop(m);
        gc.audit_now();
        gc.shutdown();
    });
}

/// A scheduler worker stalling after claiming an open bucket must delay
/// the pause by at most its bounded sleep, never hang it: the leader
/// pulls the same atomic cursors and finishes the bucket's work alone.
/// The stall is watchdog-visible through the `gc_sched_stalls_total`
/// gauge.
///
/// Stop-the-world mode on purpose: its multi-millisecond drain and
/// sweep buckets keep the claim window open long enough that the pool
/// worker wins claims even on a single-CPU host (concurrent mode's
/// sub-millisecond buckets can close before the OS ever schedules the
/// worker, leaving the stall site unreached).
#[test]
fn stalled_sched_worker_never_hangs_the_pause() {
    with_deadline("sched_stall", || {
        let _guard = FaultPlan::new(0x6A46)
            .every_k(site::SCHED_STALL, 1)
            .payload(50) // 50 ms nap per hit: bounded, leader-visible
            .install();
        let mut cfg = config(16 << 20, SweepMode::Eager);
        cfg.mode = CollectorMode::StopTheWorld;
        let gc = Gc::new(cfg);
        churn(&gc, 3, 2_000_000).unwrap();
        assert!(fault::fires(site::SCHED_STALL) > 0, "worker never stalled");
        let s = counters(&gc);
        assert!(
            s["gc_sched_stalls_total"] >= 1.0,
            "stall not visible in telemetry"
        );
        assert_eq!(s["gc_sched_workers"], 2.0);
        assert!(
            s["gc_sched_sessions_total"] >= 1.0,
            "pauses must open scheduler sessions"
        );
        assert!(gc.log().cycles.len() >= 3, "pauses stopped completing");
        // The collector is still fully functional after the stalls.
        churn(&gc, 4, 2_000_000).unwrap();
        gc.audit_now();
        gc.shutdown();
    });
}

/// Tentpole chaos plan: the background sweeper stalls (bounded nap per
/// quantum, injected before it claims any chunk) during lazy sweep
/// epochs. The resilience contract must hold without it: allocation
/// self-serves — a refill that finds its bins empty claims and sweeps
/// unswept chunks itself — so mutators never wedge behind the sleeping
/// sweeper, and the next cycle's straggler fence drains whatever the
/// sweeper never got to. Clean audit or typed OOM; never a hang (the
/// `with_deadline` watchdog turns one into exit 86).
#[test]
fn stalled_background_sweeper_does_not_wedge_allocation() {
    with_deadline("bg_sweep_stall", || {
        let _guard = FaultPlan::new(0xB65A11)
            .every_k(site::SWEEP_BG_STALL, 1) // every quantum stalls
            .payload(100) // 100 ms nap: long vs. the refill path
            .install();
        let gc = Gc::new(config(16 << 20, SweepMode::Lazy));
        match churn(&gc, 4, 4_000_000) {
            Ok(()) => {}
            // The contract allows a typed OOM, never an untyped failure.
            Err(GcError::OutOfMemory { .. }) => {
                gc.audit_now();
                gc.shutdown();
                return;
            }
        }
        assert!(
            fault::fires(site::SWEEP_BG_STALL) > 0,
            "background sweeper never reached a stalled quantum"
        );
        let s = counters(&gc);
        // With the sweeper napping, reclamation lands on the mutators'
        // refill path (and the straggler fences) instead of stalling.
        assert!(
            s["gc_sweep_on_refill_chunks_total"] + s["gc_sweep_straggler_chunks_total"] >= 1.0,
            "no chunk was swept by refill or the straggler fence"
        );
        assert!(gc.log().cycles.len() >= 4, "cycles stopped completing");
        // Epochs still complete: every cycle's fence is bounded by the
        // heap's chunk count, and the collector stays fully functional.
        churn(&gc, 6, 4_000_000).unwrap();
        gc.audit_now();
        gc.shutdown();
    });
}
