//! Minor cycles on sticky mark bits: the concurrent collector keeps the
//! previous cycle's marks, so old objects stay black, and a minor cycle
//! traces only what became reachable since the last pause — from the
//! roots and from the marked objects on the cards dirtied since then.
//!
//! A minor cycle's sweep epoch replays the memo of every chunk nothing
//! was allocated in since the previous epoch swept it, instead of
//! sweeping it again; only minor cycles' pauses replay.
//!
//! Every run here has one mutator, no background tracers and a
//! byte-driven pacer, so it is deterministic. Built with `--features
//! verify-gc` (CI's soundness job), each minor cycle's start is also
//! audited in place: every marked object with an unmarked child must lie
//! on a card the kickoff registered, and every replayed chunk is swept
//! again and compared with its memo.

use std::sync::Arc;

use mcgc::heap::SWEEP_CHUNK_GRANULES;
use mcgc::{
    CollectorMode, CycleStats, Gc, GcConfig, Mutator, ObjectShape, Phase, SweepMode, Trigger,
};

const HEAP: usize = 8 << 20;
/// Orders a jbb-shaped run keeps in its ring.
const RING: u32 = 64;

fn config(mode: CollectorMode, sweep: SweepMode) -> GcConfig {
    let mut cfg = GcConfig::with_heap_bytes(HEAP);
    cfg.mode = mode;
    cfg.sweep = sweep;
    cfg.background_threads = 0;
    cfg.bg_sweep = false;
    cfg.stw_workers = 2;
    cfg
}

/// A xorshift step: the workloads' deterministic input stream.
fn next(rng: &mut u32) -> u32 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 17;
    *rng ^= *rng << 5;
    *rng
}

/// Builds a binary tree of `depth` levels of `node`s, rooted on `m`'s
/// shadow stack; returns its leaves.
fn retained_tree(m: &mut Mutator, node: ObjectShape, depth: u32) -> Vec<mcgc::ObjectRef> {
    let root = m.alloc(node).unwrap();
    m.root_push(Some(root));
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut below = Vec::with_capacity(frontier.len() * 2);
        for &parent in &frontier {
            for slot in 0..2 {
                below.push(m.alloc_into(parent, slot, node).unwrap());
            }
        }
        frontier = below;
    }
    frontier
}

/// jbb's heap shape: a retained tree of about 55% of the heap (the stock
/// data), and an order ring that every transaction writes through the
/// barrier. A transaction allocates an order with a few line items,
/// links it to a stock leaf and stores it into the ring, displacing the
/// order written `RING` transactions earlier: orders die young, and the
/// only old objects stored into are the ring and nothing else.
fn jbb_shaped(gc: &Arc<Gc>, transactions: u32) -> Mutator {
    let mut m = gc.register_mutator();
    let stock = retained_tree(&mut m, ObjectShape::new(2, 6, 1), 15);
    let ring = m.alloc(ObjectShape::new(RING, 0, 2)).unwrap();
    m.root_push(Some(ring));
    let mut rng = 0x5EED_0001u32;
    for t in 0..transactions {
        let items = 3 + next(&mut rng) % 6;
        let order = m.alloc(ObjectShape::new(items + 1, 2, 3)).unwrap();
        let frame = m.root_push(Some(order));
        let leaf = stock[next(&mut rng) as usize % stock.len()];
        m.write_ref(order, 0, Some(leaf));
        for i in 0..items {
            let payload = 4 + next(&mut rng) % 36;
            let line = m
                .alloc_into(order, i + 1, ObjectShape::new(0, payload, 4))
                .unwrap();
            m.write_data(line, 0, u64::from(payload));
        }
        m.write_data(order, 0, u64::from(t));
        m.write_ref(ring, t % RING, Some(order));
        m.root_truncate(frame);
    }
    m
}

fn minors(cycles: &[CycleStats]) -> usize {
    cycles.iter().filter(|c| c.minor).count()
}

/// Chunks the heap's sweep epochs replayed, checked against the bound
/// that only minor cycles' pauses replay: at most every chunk once per
/// minor cycle.
fn replayed_chunks(gc: &Gc, cycles: &[CycleStats]) -> u64 {
    let replayed = gc.heap().sweep_counters().replayed_chunks;
    let chunks = gc.heap().granules().div_ceil(SWEEP_CHUNK_GRANULES);
    assert!(
        replayed <= (minors(cycles) * chunks) as u64,
        "{replayed} replayed"
    );
    replayed
}

/// Runs the jbb-shaped workload, lets a running concurrent phase finish
/// (allocating unreachable junk, so the live set stays the workload's),
/// and collects explicitly. Returns the log, the `gc_minor_cycles_total`
/// counter and the chunks replayed.
fn run_jbb_shaped(mode: CollectorMode, sweep: SweepMode) -> (Vec<CycleStats>, u64, u64) {
    let gc = Gc::new(config(mode, sweep));
    let mut m = jbb_shaped(&gc, 60_000);
    let junk = ObjectShape::new(0, 30, 0);
    while gc.phase() == Phase::Concurrent {
        m.alloc(junk).unwrap();
    }
    m.collect();
    gc.audit_now();
    drop(m);
    gc.shutdown();
    let minor_total = gc
        .telemetry()
        .registry()
        .counter("gc_minor_cycles_total")
        .get();
    let cycles = gc.log().cycles;
    let replayed = replayed_chunks(&gc, &cycles);
    (cycles, minor_total, replayed)
}

/// A jbb-shaped concurrent run is mostly minor cycles, whose sweeps
/// replay the chunks of the stock data, passes the audits, and its final
/// explicit collection — a full cycle, though the kept marks of a minor
/// one preceded it — leaves exactly the live set a stop-the-world run of
/// the same workload does. The stop-the-world runs never replay.
#[test]
fn jbb_shaped_run_is_mostly_minor_and_collects_exactly() {
    for sweep in [SweepMode::Eager, SweepMode::Lazy] {
        let (cgc, minor_total, replayed) = run_jbb_shaped(CollectorMode::Concurrent, sweep);
        let (stw, stw_minor_total, stw_replayed) =
            run_jbb_shaped(CollectorMode::StopTheWorld, sweep);
        assert!(replayed > 0, "{sweep:?}: no chunk replayed");
        assert_eq!(stw_replayed, 0, "{sweep:?}");
        let kinds: Vec<bool> = cgc.iter().map(|c| c.minor).collect();
        assert!(minors(&cgc) >= 10, "{sweep:?}: minor cycles {kinds:?}");
        assert!(
            cgc.iter().any(|c| !c.minor),
            "{sweep:?}: no full cycle {kinds:?}"
        );
        assert!(!cgc[0].minor, "{sweep:?}: the first cycle is full");
        assert_eq!(minor_total, minors(&cgc) as u64, "{sweep:?}");

        // The explicit collection ran from idle, after a minor cycle
        // that kept its marks for another.
        let [.., before, last] = &cgc[..] else {
            panic!("{sweep:?}: too few cycles");
        };
        assert!(before.minor, "{sweep:?}: {kinds:?}");
        assert!(!last.minor, "{sweep:?}");
        assert_eq!(last.trigger, Some(Trigger::Explicit), "{sweep:?}");

        // Stop-the-world mode never runs a minor cycle.
        assert_eq!(minors(&stw), 0, "{sweep:?}");
        assert_eq!(stw_minor_total, 0, "{sweep:?}");
        let stw_last = stw.last().expect("the workload collects");
        if sweep == SweepMode::Eager {
            assert_eq!(
                (last.live_after_objects, last.live_after_bytes),
                (stw_last.live_after_objects, stw_last.live_after_bytes),
                "{sweep:?}: the final collection's live set"
            );
            assert!(last.live_after_objects > 0);
        }
    }
}

/// A lazy epoch logs its cycle's live counts when it retires, so the
/// lazy arm compares them once the final epoch is drained.
#[test]
fn lazy_final_collection_matches_stop_the_world() {
    let live_after_final_collect = |mode| {
        let gc = Gc::new(config(mode, SweepMode::Lazy));
        let mut m = jbb_shaped(&gc, 30_000);
        m.collect();
        let plan = gc
            .heap()
            .lazy_plan()
            .expect("a lazy pause installs an epoch");
        while plan.sweep_one(gc.heap()).is_some() {}
        let totals = plan.totals();
        drop(m);
        gc.shutdown();
        let log = gc.log();
        assert!(!log.cycles.last().unwrap().minor);
        (
            totals.live_objects,
            totals.live_granules,
            minors(&log.cycles),
        )
    };
    let (cgc_objects, cgc_granules, cgc_minors) =
        live_after_final_collect(CollectorMode::Concurrent);
    let (stw_objects, stw_granules, stw_minors) =
        live_after_final_collect(CollectorMode::StopTheWorld);
    assert!(cgc_minors >= 3, "{cgc_minors}");
    assert_eq!(stw_minors, 0);
    assert_eq!((cgc_objects, cgc_granules), (stw_objects, stw_granules));
}

/// javac's heap shape: a retained symbol table of 35% of the heap, and a
/// queue of compiled units, another 35%, each holding its AST until
/// `QUEUE` later units replace it. Nearly everything a cycle allocates
/// survives it, so a minor cycle would free next to nothing: the policy
/// probes, fails and backs off, and the run stays mostly full. Its
/// chunks replay only at the probes' pauses.
#[test]
fn javac_shaped_run_stays_mostly_full() {
    const QUEUE: u32 = 16;
    let gc = Gc::new(config(CollectorMode::Concurrent, SweepMode::Eager));
    let mut m = gc.register_mutator();
    let symtab_node = ObjectShape::new(2, 2, 1);
    let symbols = retained_tree(&mut m, symtab_node, 15);
    let queue = m.alloc(ObjectShape::new(QUEUE, 0, 2)).unwrap();
    m.root_push(Some(queue));
    let ast = ObjectShape::new(2, 3, 6);
    // A unit is a right-leaning chain with symbol references: ~1/QUEUE of
    // 35% of the heap.
    let unit_nodes = (HEAP as f64 * 0.35 / f64::from(QUEUE) / ast.bytes() as f64) as u32;
    let mut rng = 0x7A7A_0001u32;
    let mut unit = 0u32;
    while gc.log().cycles.len() < 24 {
        let head = m.alloc(ast).unwrap();
        let frame = m.root_push(Some(head));
        let mut tail = head;
        for _ in 1..unit_nodes {
            let n = m.alloc_into(tail, 0, ast).unwrap();
            let sym = symbols[next(&mut rng) as usize % symbols.len()];
            m.write_ref(n, 1, Some(sym));
            tail = n;
        }
        m.write_ref(queue, unit % QUEUE, Some(head));
        m.root_truncate(frame);
        unit += 1;
    }
    let log = gc.log();
    let kinds: Vec<bool> = log.cycles.iter().map(|c| c.minor).collect();
    assert!(minors(&log.cycles) >= 1, "the policy probes: {kinds:?}");
    assert!(
        minors(&log.cycles) * 4 < log.cycles.len(),
        "minor cycles {} of {}: {kinds:?}",
        minors(&log.cycles),
        log.cycles.len()
    );
    m.collect();
    drop(m);
    gc.audit_now();
    gc.shutdown();
    replayed_chunks(&gc, &gc.log().cycles);
}
