//! Differential test for the GC scheduler: the collection *outcome*
//! must be independent of how many pool workers served the sessions.
//!
//! Marking is a monotone closure over the object graph (mark-and-push
//! claims each object exactly once via a mark-bit CAS), and the eager
//! pause settles the free list its sweep epoch produced with one
//! address-ordered rebuild, so the live object/granule counts, free
//! bytes, and the free-list extents are independent of how many workers
//! raced over the session's buckets.
//! The **eager** arms run the same deterministic workload (one mutator,
//! no background tracers, byte-based pacing only) at `stw_workers = 1`
//! (every bucket inline on the leader — the serial pause) and
//! `stw_workers = 4`, in both collector modes, and compare the full
//! address-exact heap state.
//!
//! The **lazy + background sweep** arms additionally cover the off-pause
//! half of the scheduler: sweep-on-refill, the background sweeper duty
//! of the concurrent-role worker, and the pre-pause straggler fence
//! (its own `Bucket::Straggler` session). Reclamation order there is
//! timing-dependent *by design* — the background sweeper and a
//! multi-worker straggler fence interleave bin insertions into the
//! LIFO size-class bins, so allocation *addresses* can differ between
//! runs. What must still be bit-identical at any worker count is the
//! address-independent outcome: which objects live (counts and bytes),
//! the granule populations of the alloc/mark bitmaps once the final
//! epoch is drained, total free bytes, and the cycle/trigger sequence.
//! Cycle boundaries are pinned by explicit collects on a heap sized so
//! the pacer never kicks off spontaneously (a `ConcurrentDone` boundary
//! would land on a card-geometry-dependent allocation index).
//!
//! Deliberately NOT compared: per-cycle scanned-byte counters, modelled
//! millisecond costs, and (lazy arms only) free-list extents and card
//! counts. Parallel card cleaning may overflow packets differently and
//! redirty different cards, so *work* accounting can differ across
//! worker counts even though the *outcome* cannot.

use mcgc::heap::{Extent, GRANULE_BYTES};
use mcgc::{CollectorMode, Gc, GcConfig, ObjectShape, SweepMode, Trigger};

/// Per-cycle outcome facts that must match exactly across worker counts.
#[derive(Debug, PartialEq)]
struct CycleOutcome {
    cycle: u64,
    trigger: Option<Trigger>,
    live_after_objects: u64,
    live_after_bytes: u64,
    free_after_bytes: u64,
    cards_left: u64,
}

/// End-of-run heap facts that must match exactly (eager arms: the full
/// address-exact state, free-list extents included). The mark-bit
/// population is 0 in every eager run: each pause retires its epoch,
/// which clears the marks.
#[derive(Debug, PartialEq)]
struct FinalState {
    alloc_bit_population: usize,
    mark_bit_population: usize,
    free_bytes: usize,
    extents: Vec<Extent>,
    cycles: Vec<CycleOutcome>,
}

/// The address-independent outcome compared by the lazy+bg arms. No
/// mark-bit population here: under lazy sweep the mark bitmap is sweep
/// *plan* state, cleared asynchronously by whichever thread retires the
/// drained epoch — the live granule set is `alloc_bit_population`. The
/// live counts are exact: each cycle's are logged when its epoch
/// retires.
#[derive(Debug, PartialEq)]
struct LazyOutcome {
    alloc_bit_population: usize,
    free_bytes: usize,
    cycles: Vec<CycleOutcome>,
}

fn config(mode: CollectorMode, stw_workers: usize, sweep: SweepMode) -> GcConfig {
    let heap_bytes = match sweep {
        // Small enough that the pacer triggers extra cycles on top of
        // the explicit collects (boundaries are address-deterministic
        // here, so that is safe to compare).
        SweepMode::Eager => 8 << 20,
        // Large enough that only the explicit collects pause: lazy
        // reclamation scrambles bin order, so a pacer-chosen boundary
        // would not be reproducible across worker counts.
        SweepMode::Lazy => 24 << 20,
    };
    let mut cfg = match mode {
        CollectorMode::Concurrent => GcConfig::with_heap_bytes(heap_bytes),
        CollectorMode::StopTheWorld => GcConfig::stw_with_heap_bytes(heap_bytes),
    };
    // Determinism: one mutator thread drives all marking; pacing is
    // purely byte-based, so cycle boundaries land on the same
    // allocation in every run.
    cfg.stw_workers = stw_workers;
    cfg.sweep = sweep;
    match sweep {
        SweepMode::Eager => cfg.background_threads = 0,
        SweepMode::Lazy => {
            // One concurrent-role worker for the background-sweeper
            // duty; a zero tracing quantum keeps it out of marking.
            cfg.background_threads = 1;
            cfg.background_quantum = 0;
            cfg.bg_sweep = true;
        }
    }
    cfg
}

/// The deterministic workload: a retained binary tree, churn garbage,
/// and periodic ref rewiring (dirtying cards), with explicit collects at
/// fixed allocation counts on top of whatever the pacer triggers.
fn workload(gc: &std::sync::Arc<Gc>) {
    let mut m = gc.register_mutator();

    let node = ObjectShape::new(2, 2, 1);
    let root = m.alloc(node).unwrap();
    m.root_push(Some(root));
    let mut frontier = vec![root];
    for _ in 0..7 {
        let mut next = Vec::new();
        for &p in &frontier {
            for s in 0..2 {
                next.push(m.alloc_into(p, s, node).unwrap());
            }
        }
        frontier = next;
    }

    let junk = ObjectShape::new(0, 14, 0);
    let mut rng = 0x9E37_79B9u32;
    for i in 0..60_000u32 {
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        let g = m.alloc(junk).unwrap();
        if rng.is_multiple_of(64) {
            // Rewire a leaf slot: retains a little junk, dirties cards.
            let leaf = frontier[(rng as usize >> 6) % frontier.len()];
            m.write_ref(leaf, (rng >> 3) % 2, Some(g));
        }
        if i % 20_000 == 9_999 {
            m.collect();
        }
    }
    m.collect();
}

fn cycle_outcomes(gc: &Gc) -> Vec<CycleOutcome> {
    gc.log()
        .cycles
        .iter()
        .map(|c| CycleOutcome {
            cycle: c.cycle,
            trigger: c.trigger,
            live_after_objects: c.live_after_objects,
            live_after_bytes: c.live_after_bytes,
            free_after_bytes: c.free_after_bytes,
            cards_left: c.cards_left,
        })
        .collect()
}

fn run_eager(mode: CollectorMode, stw_workers: usize) -> FinalState {
    let gc = Gc::new(config(mode, stw_workers, SweepMode::Eager));
    workload(&gc);
    gc.audit_now();
    let state = FinalState {
        alloc_bit_population: gc.heap().alloc_bits().count(),
        mark_bit_population: gc.heap().mark_bits().count(),
        free_bytes: gc.heap().free_bytes(),
        extents: gc.heap().free_list().extents_sorted(),
        cycles: cycle_outcomes(&gc),
    };
    gc.shutdown();
    state
}

fn run_lazy(mode: CollectorMode, stw_workers: usize) -> LazyOutcome {
    let gc = Gc::new(config(mode, stw_workers, SweepMode::Lazy));
    workload(&gc);
    // Quiesce first: the background sweeper (a scheduler-pool duty)
    // would otherwise keep sweeping chunks under the audit and the
    // captured bitmaps, and the moment the epoch drains it retires it
    // by clearing the mark bitmap — mid-walk, the audit then sees a
    // marked parent with an unmarked child.
    gc.shutdown();
    let mut cycles = cycle_outcomes(&gc);
    // The final collect installed a fresh sweep epoch; drain what the
    // sweeper left so the captured bitmaps and free total describe a
    // fully-swept heap. Unless the sweeper retired it before shutdown,
    // the last cycle's live counts are not logged yet: take the totals
    // its retirement would log.
    if let Some(plan) = gc.heap().lazy_plan() {
        while plan.sweep_one(gc.heap()).is_some() {}
        let totals = plan.totals();
        let last = cycles.last_mut().expect("the workload collects");
        last.live_after_objects = totals.live_objects as u64;
        last.live_after_bytes = (totals.live_granules * GRANULE_BYTES) as u64;
    }
    gc.audit_now();
    LazyOutcome {
        alloc_bit_population: gc.heap().alloc_bits().count(),
        free_bytes: gc.heap().free_bytes(),
        cycles: cycles
            .into_iter()
            .map(|mut c| {
                // Card geometry is address-dependent under lazy bin
                // scrambling; liveness and accounting are not.
                c.cards_left = 0;
                c
            })
            .collect(),
    }
}

#[test]
fn concurrent_mode_outcome_is_worker_count_independent() {
    let serial = run_eager(CollectorMode::Concurrent, 1);
    let parallel = run_eager(CollectorMode::Concurrent, 4);
    assert!(
        serial.cycles.len() >= 4,
        "workload must exercise several cycles, got {}",
        serial.cycles.len()
    );
    assert_eq!(serial, parallel);
}

#[test]
fn stw_baseline_outcome_is_worker_count_independent() {
    let serial = run_eager(CollectorMode::StopTheWorld, 1);
    let parallel = run_eager(CollectorMode::StopTheWorld, 4);
    assert!(!serial.cycles.is_empty());
    // The last cycle's marked population, now cleared by the pause that
    // retired its epoch, survives as that cycle's live-object count.
    assert!(
        serial.cycles.last().unwrap().live_after_objects > 0,
        "the last cycle found live objects"
    );
    assert_eq!(serial, parallel);
}

#[test]
fn concurrent_lazy_bg_outcome_is_worker_count_independent() {
    let serial = run_lazy(CollectorMode::Concurrent, 1);
    let parallel = run_lazy(CollectorMode::Concurrent, 4);
    assert_eq!(
        serial.cycles.len(),
        4,
        "lazy arm must pause only at the explicit collects, got {:?}",
        serial.cycles.iter().map(|c| c.trigger).collect::<Vec<_>>()
    );
    assert!(
        serial
            .cycles
            .iter()
            .all(|c| c.trigger == Some(Trigger::Explicit)),
        "unexpected pacer-triggered cycle: {:?}",
        serial.cycles
    );
    assert!(
        serial.alloc_bit_population > 0,
        "retained tree survives the drained final epoch"
    );
    assert_eq!(serial, parallel);
}

#[test]
fn stw_lazy_outcome_is_worker_count_independent() {
    let serial = run_lazy(CollectorMode::StopTheWorld, 1);
    let parallel = run_lazy(CollectorMode::StopTheWorld, 4);
    assert_eq!(serial.cycles.len(), 4);
    assert!(serial.alloc_bit_population > 0);
    assert_eq!(serial, parallel);
}

/// A lazy cycle logs its live counts when its epoch retires, summed from
/// the same chunk results an eager pause uses. Stop-the-world marking is
/// exact reachability with no floating garbage, so with the same
/// explicit collection points both sweep modes must log the same live
/// objects and bytes for every cycle whose epoch has retired: all of
/// them under eager sweep, all but the last under lazy sweep.
#[test]
fn lazy_live_counts_match_eager_once_retired() {
    let live_counts = |sweep| {
        // The lazy arm's heap: only the explicit collects pause.
        let mut cfg = config(CollectorMode::StopTheWorld, 1, SweepMode::Lazy);
        cfg.sweep = sweep;
        let gc = Gc::new(cfg);
        workload(&gc);
        gc.shutdown();
        gc.log()
            .cycles
            .iter()
            .map(|c| (c.trigger, c.live_after_objects, c.live_after_bytes))
            .collect::<Vec<_>>()
    };
    let eager = live_counts(SweepMode::Eager);
    let lazy = live_counts(SweepMode::Lazy);
    assert_eq!(eager.len(), 4, "explicit collects only: {eager:?}");
    assert_eq!(lazy.len(), eager.len());
    assert!(
        eager
            .iter()
            .all(|&(_, objects, bytes)| objects > 0 && bytes > 0),
        "{eager:?}"
    );
    let retired = lazy.len() - 1;
    assert_eq!(lazy[..retired], eager[..retired]);
}
