//! Exact accounting of the counters the hot paths sum per thread and
//! flush per batch: traced bytes in the stop-the-world drain (flushed
//! once per packet batch, scanned in prefetched batches of `trace_batch`
//! objects) and the write-barrier count (flushed once per safepoint-poll
//! period and when a mutator drops). The drain moves packet entries in
//! bulk: each batch comes out of the input packet with one `pop_many`,
//! and the children it marks go out through a local grey buffer with one
//! `push_many`. A local sum that is never flushed, a popped object left
//! unscanned when a drain worker stops, or a grey buffer not pushed
//! before its `WorkBuffer` finishes breaks these equalities. With a pool
//! too small for the graph, the bulk push's §4.3 overflow arm must still
//! leave the live set exact.

use mcgc::{
    CycleStats, Gc, GcConfig, Mutator, ObjectRef, ObjectShape, PoolConfig, SweepMode, Trigger,
};

const LIST_NODES: usize = 20_000;
const TREE_DEPTH: u32 = 12;

/// Builds a `LIST_NODES`-node singly linked list and a complete binary
/// tree `TREE_DEPTH` levels below its root, both rooted. Returns the
/// objects and bytes the graph holds.
fn build_graph(m: &mut Mutator) -> (u64, u64) {
    let node = ObjectShape::new(1, 1, 0);
    let head = m.alloc(node).unwrap();
    m.root_push(Some(head));
    let mut tail = head;
    for _ in 1..LIST_NODES {
        tail = m.alloc_into(tail, 0, node).unwrap();
    }

    let inner = ObjectShape::new(2, 0, 1);
    let root = m.alloc(inner).unwrap();
    m.root_push(Some(root));
    let mut level: Vec<ObjectRef> = vec![root];
    for _ in 0..TREE_DEPTH {
        let mut next = Vec::with_capacity(level.len() * 2);
        for &parent in &level {
            for slot in 0..2 {
                next.push(m.alloc_into(parent, slot, inner).unwrap());
            }
        }
        level = next;
    }

    let tree_nodes = (1u64 << (TREE_DEPTH + 1)) - 1;
    (
        LIST_NODES as u64 + tree_nodes,
        LIST_NODES as u64 * node.bytes() as u64 + tree_nodes * inner.bytes() as u64,
    )
}

/// Builds the graph on a fresh STW collector with `workers` STW workers,
/// `trace_batch` and `pool`, collects it explicitly, and asserts that
/// the cycle found exactly the graph's objects and bytes live. Returns
/// the cycle's stats and a label for the case.
fn collect_graph(workers: usize, trace_batch: usize, pool: PoolConfig) -> (CycleStats, String) {
    let mut cfg = GcConfig::stw_with_heap_bytes(32 << 20);
    cfg.stw_workers = workers;
    cfg.trace_batch = trace_batch;
    cfg.pool = pool;
    cfg.sweep = SweepMode::Eager;
    let gc = Gc::new(cfg);
    let (objects, bytes) = {
        let mut m = gc.register_mutator();
        let graph = build_graph(&mut m);
        m.collect();
        graph
    };
    let log = gc.log();
    let c = log.cycles.last().expect("a collection ran").clone();
    let case = format!("workers={workers} trace_batch={trace_batch} pool={pool:?}");
    assert_eq!(c.trigger, Some(Trigger::Explicit), "{case}");
    assert_eq!(c.live_after_objects, objects, "{case}");
    assert_eq!(c.live_after_bytes, bytes, "{case}");
    gc.shutdown();
    (c, case)
}

fn assert_drain_accounts_every_byte(workers: usize, trace_batch: usize) {
    let (c, case) = collect_graph(workers, trace_batch, PoolConfig::default());
    assert_eq!(c.overflows, 0, "{case}: no §4.3 overflow");
    assert_eq!(
        c.stw_traced_bytes, c.live_after_bytes,
        "{case}: every live object traced exactly once"
    );
}

#[test]
fn stw_drain_traces_live_bytes_exactly_one_worker() {
    assert_drain_accounts_every_byte(1, 64);
}

#[test]
fn stw_drain_traces_live_bytes_exactly_four_workers() {
    assert_drain_accounts_every_byte(4, 64);
}

/// Both edges of the drain batch: one object per batch, and a whole
/// packet (493 entries) per batch. The graph spans dozens of packets, so
/// batches straddle input-packet replacement either way.
#[test]
fn stw_drain_traces_live_bytes_exactly_at_batch_edges() {
    for trace_batch in [1, 493] {
        for workers in [1, 4] {
            assert_drain_accounts_every_byte(workers, trace_batch);
        }
    }
}

/// A pool of 4 packets of 8 entries cannot hold the drain's grey set, so
/// the bulk push overflows (§4.3): each overflowed object stays marked,
/// its card is dirtied, and the pause's re-clean rounds rescan it (the
/// drain loop re-snapshots the card table because the overflow count
/// moved). The live set must still come out exact. (Card cleaning, not the drain,
/// scans the overflowed objects, so `stw_traced_bytes` is not compared
/// here.)
#[test]
fn stw_drain_overflow_keeps_live_set_exact() {
    let tiny = PoolConfig {
        packets: 4,
        capacity: 8,
    };
    for workers in [1, 4] {
        let (c, case) = collect_graph(workers, 64, tiny);
        assert!(c.overflows > 0, "{case}: the pool overflowed");
        // A fresh pause cleans no card before its drain, so every card
        // it cleaned was a re-clean round's.
        assert!(c.cards_cleaned_stw > 0, "{case}: no re-clean round ran");
    }
}

/// Write counts straddling the poll period, on one thread at a time and
/// on several at once.
#[test]
fn write_barriers_count_every_write_ref() {
    let gc = Gc::new(GcConfig::with_heap_bytes(8 << 20));
    let writes_on = |gc: &std::sync::Arc<Gc>, writes: u64| {
        let mut m = gc.register_mutator();
        let holder = m.alloc(ObjectShape::new(2, 0, 0)).unwrap();
        m.root_push(Some(holder));
        for i in 0..writes {
            m.write_ref(holder, (i % 2) as u32, Some(holder));
        }
    };
    let mut expected = 0;
    for writes in [0, 1, 63, 64, 65, 1000] {
        writes_on(&gc, writes);
        expected += writes;
        assert_eq!(gc.write_barriers(), expected, "after {writes} writes");
    }
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let gc = &gc;
            s.spawn(move || writes_on(gc, 5_000 + 17 * t));
        }
    });
    expected += 3 * 5_000 + 17 * 3;
    assert_eq!(gc.write_barriers(), expected, "concurrent mutators");
    gc.shutdown();
}
