//! End-to-end tests of the §4 work-packet protocol and the §5 fence
//! protocols as exercised by the collector.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mcgc::packets::{PacketPool, PoolConfig, PushOutcome, WorkBuffer};
use mcgc::workloads::rng::SmallRng;
use mcgc::{Gc, GcConfig, ObjectShape};

/// §4.3 termination: after arbitrary single-threaded sequences of
/// per-entry and bulk pushes and pops, the pool reports completion
/// exactly when no work remains anywhere. Sequences come from the
/// in-repo seeded PRNG (256 cases).
#[test]
fn termination_matches_reality_proptest() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E51_0000 + seed);
        let pool: PacketPool<u64> = PacketPool::new(PoolConfig {
            packets: 16,
            capacity: 8,
        });
        let mut buf = WorkBuffer::new(&pool);
        let mut outstanding = 0u64;
        let mut next = 0u64;
        let mut scratch = Vec::new();
        for _ in 0..rng.gen_range_usize(1, 500) {
            match rng.gen_range_usize(0, 4) {
                0 => {
                    if let PushOutcome::Pushed = buf.push(next) {
                        outstanding += 1;
                        next += 1;
                    }
                }
                1 => {
                    if buf.pop().is_some() {
                        outstanding -= 1;
                    }
                }
                2 => {
                    let run = rng.gen_range_usize(0, 40) as u64;
                    scratch.extend(next..next + run);
                    next += run;
                    let mut overflowed = 0;
                    buf.push_many(&mut scratch, |_| overflowed += 1);
                    outstanding += run - overflowed;
                }
                _ => {
                    scratch.clear();
                    let max = rng.gen_range_usize(0, 40);
                    let popped = buf.pop_many(&mut scratch, max);
                    assert_eq!(popped, scratch.len(), "seed {seed}");
                    outstanding -= popped as u64;
                    scratch.clear();
                }
            }
        }
        while buf.pop().is_some() {
            outstanding -= 1;
        }
        buf.finish();
        assert_eq!(outstanding, 0, "seed {seed}");
        assert!(pool.is_tracing_complete(), "seed {seed}");
    }
}

/// Many concurrent producer/consumer threads over a small pool: every
/// item is consumed exactly once and termination is detected.
///
/// Each producer returns its last packet to the pool (`finish`) and then
/// counts itself done. A consumer stops only at an empty pop that began
/// after every producer was done: by then every item is in a packet the
/// pool or a consumer holds, so no producer can be left spinning on a
/// full pool with nobody draining it.
#[test]
fn stress_no_loss_no_duplication() {
    let pool: Arc<PacketPool<u64>> = Arc::new(PacketPool::new(PoolConfig {
        packets: 48,
        capacity: 16,
    }));
    let total_items = 40_000u64;
    let producers = 4u64;
    let producers_done = AtomicU64::new(0);
    let seen: Vec<_> = (0..total_items).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        for t in 0..producers {
            let pool = Arc::clone(&pool);
            let producers_done = &producers_done;
            s.spawn(move || {
                let mut buf = WorkBuffer::new(&pool);
                let per = total_items / producers;
                for i in (t * per)..((t + 1) * per) {
                    loop {
                        match buf.push(i) {
                            PushOutcome::Pushed => break,
                            PushOutcome::Overflow(_) => std::thread::yield_now(),
                        }
                    }
                }
                buf.finish();
                producers_done.fetch_add(1, Ordering::Release);
            });
        }
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            let (seen, producers_done) = (&seen, &producers_done);
            s.spawn(move || {
                let mut buf = WorkBuffer::new(&pool);
                loop {
                    let all_produced = producers_done.load(Ordering::Acquire) == producers;
                    match buf.pop() {
                        Some(i) => {
                            let was = seen[i as usize].swap(true, Ordering::Relaxed);
                            assert!(!was, "item {i} consumed twice");
                        }
                        None if all_produced => break,
                        None => std::thread::yield_now(),
                    }
                }
                buf.finish();
            });
        }
    });
    let consumed = seen.iter().filter(|b| b.load(Ordering::Relaxed)).count() as u64;
    let left = pool.stats().entries as u64;
    assert_eq!(consumed + left, total_items);
}

/// §5.2 deferral end-to-end: objects referenced before their allocation
/// bits are published get deferred, then traced later — never lost.
#[test]
fn deferred_objects_are_eventually_traced() {
    let heap = 12 << 20;
    let mut cfg = GcConfig::with_heap_bytes(heap);
    cfg.background_threads = 2;
    cfg.tracing_rate = 2.0; // long concurrent phases: more deferral windows
    let gc = Gc::new(cfg);
    let mut m = gc.register_mutator();
    let node = ObjectShape::new(1, 1, 0);
    let junk = ObjectShape::new(0, 20, 0);
    // A chain extended object-by-object: each new node is referenced from
    // a published node the instant it is allocated (before its own bit is
    // published), which is the §5.2 hazard window.
    let head = m.alloc(node).unwrap();
    m.root_push(Some(head));
    let mut tail = head;
    for _ in 0..20_000 {
        let n = m.alloc(node).unwrap();
        m.write_ref(tail, 0, Some(n));
        tail = n;
        for _ in 0..4 {
            m.alloc(junk).unwrap();
        }
    }
    let cycles = gc.log();
    assert!(!cycles.cycles.is_empty());
    // The chain is fully intact.
    let mut len = 1;
    let mut cur = head;
    while let Some(next) = m.read_ref(cur, 0) {
        len += 1;
        cur = next;
    }
    assert_eq!(len, 20_001);
    drop(m);
    gc.shutdown();
}

/// The §6.3 watermarks are recorded and plausible: packet memory use is
/// a tiny fraction of the heap.
#[test]
fn packet_memory_watermarks_small() {
    let heap = 16 << 20;
    let mut cfg = GcConfig::with_heap_bytes(heap);
    cfg.background_threads = 2;
    let gc = Gc::new(cfg);
    {
        let mut m = gc.register_mutator();
        let node = ObjectShape::new(2, 1, 0);
        let root = m.alloc(node).unwrap();
        m.root_push(Some(root));
        // A wide tree (BFS-hostile) plus churn to force cycles.
        let mut frontier = vec![root];
        for _ in 0..6 {
            let mut next = Vec::new();
            for &p in &frontier {
                for s in 0..2 {
                    next.push(m.alloc_into(p, s, node).unwrap());
                }
            }
            frontier = next;
        }
        let junk = ObjectShape::new(0, 30, 0);
        for _ in 0..120_000 {
            m.alloc(junk).unwrap();
        }
    }
    let log = gc.log();
    assert!(!log.cycles.is_empty());
    let max_entries = log
        .cycles
        .iter()
        .map(|c| c.packet_entries_watermark)
        .max()
        .unwrap();
    // Entry = 8 bytes; §6.3 found 0.11%-0.25% of heap. Allow 2%.
    let bytes = max_entries * 8;
    assert!(
        bytes < heap / 50,
        "packet memory watermark {bytes} B too large for {heap} B heap"
    );
    gc.shutdown();
}
