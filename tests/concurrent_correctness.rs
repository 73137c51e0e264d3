//! Cross-crate correctness tests: the collector must never reclaim a
//! reachable object, under any interleaving of mutators, background
//! threads, and collection phases.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcgc::{CollectorMode, Gc, GcConfig, ObjectRef, ObjectShape, SweepMode};

fn config(heap_mb: usize) -> GcConfig {
    let mut c = GcConfig::with_heap_bytes(heap_mb << 20);
    c.background_threads = 2;
    c.stw_workers = 2;
    c
}

/// Each thread maintains a private linked list, continuously replacing
/// its tail and churning garbage; the list must stay intact through many
/// concurrent cycles.
#[test]
fn private_lists_survive_concurrent_churn() {
    let gc = Gc::new(config(16));
    let stop = Arc::new(AtomicBool::new(false));
    let node = ObjectShape::new(1, 2, 1);
    let junk = ObjectShape::new(0, 14, 0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut m = gc.register_mutator();
                // Build a 500-node list.
                let head = m.alloc(node).unwrap();
                m.root_push(Some(head));
                let mut tail = head;
                for i in 0..499 {
                    let n = m.alloc(node).unwrap();
                    m.write_data(n, 0, t * 1000 + i);
                    m.write_ref(tail, 0, Some(n));
                    tail = n;
                }
                while !stop.load(Ordering::Relaxed) {
                    // Churn garbage and rotate the list head: drop the
                    // first node, append a new one.
                    for _ in 0..200 {
                        m.alloc(junk).unwrap();
                    }
                    let new_head = m.read_ref(head, 0); // second node
                    let _ = new_head;
                    let n = m.alloc(node).unwrap();
                    m.write_ref(tail, 0, Some(n));
                    tail = n;
                    // Verify the whole list is reachable and intact.
                    let mut len = 0;
                    let mut cur = Some(head);
                    while let Some(c) = cur {
                        len += 1;
                        cur = m.read_ref(c, 0);
                        assert!(len < 1_000_000, "cycle in list: corruption");
                    }
                    assert!(len >= 500, "list shrank: {len}");
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1500));
        stop.store(true, Ordering::SeqCst);
    });
    assert!(gc.log().cycles.len() >= 2, "churn must trigger cycles");
    gc.shutdown();
}

/// Threads share objects through global roots; cross-thread references
/// stored during concurrent marking must be retained (write barrier +
/// card cleaning correctness).
#[test]
fn cross_thread_shared_graph_is_retained() {
    let gc = Gc::new(config(16));
    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));
    // A shared table: 64 slots, each thread publishes nodes into it.
    let table = {
        let mut m = gc.register_mutator();
        let t = m.alloc(ObjectShape::new(64, 0, 9)).unwrap();
        m.gc().global_root_push(Some(t));
        // keep the registering mutator alive via scope below
        drop(m);
        t
    };
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            s.spawn(move || {
                let mut m = gc.register_mutator();
                let payload = ObjectShape::new(1, 4, 2);
                let junk = ObjectShape::new(0, 30, 0);
                let my_slots: Vec<u32> = (0..64).filter(|i| i % 4 == t).collect();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Publish a fresh two-object chain into each owned
                    // slot. `a` is rooted before the next allocation — the
                    // shadow stack is this substrate's "register".
                    for &slot in &my_slots {
                        let a = m.alloc(payload).unwrap();
                        let r = m.root_push(Some(a));
                        let b = m.alloc(payload).unwrap();
                        m.write_data(b, 0, round);
                        m.write_ref(a, 0, Some(b));
                        m.write_ref(table, slot, Some(a));
                        m.root_truncate(r);
                    }
                    for _ in 0..400 {
                        m.alloc(junk).unwrap();
                    }
                    // Check every slot in the table (including other
                    // threads'): the chain must be readable.
                    for slot in 0..64 {
                        if let Some(a) = m.read_ref(table, slot) {
                            if let Some(b) = m.read_ref(a, 0) {
                                let _ = m.read_data(b, 0);
                                checked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    round += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1500));
        stop.store(true, Ordering::SeqCst);
    });
    assert!(checked.load(Ordering::Relaxed) > 1000);
    assert!(gc.log().cycles.len() >= 2);
    // The heap must verify structurally once quiescent.
    let violations = gc.verify_heap();
    assert!(violations.is_empty(), "{violations:?}");
    gc.shutdown();
}

/// The same workload under both collectors and both sweep modes must
/// never corrupt the heap.
#[test]
fn all_modes_pass_verification() {
    for (mode, sweep) in [
        (CollectorMode::Concurrent, SweepMode::Eager),
        (CollectorMode::Concurrent, SweepMode::Lazy),
        (CollectorMode::StopTheWorld, SweepMode::Eager),
    ] {
        let mut cfg = config(8);
        cfg.mode = mode;
        cfg.sweep = sweep;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let node = ObjectShape::new(2, 2, 1);
        let root_slot = m.root_push(None);
        let mut keep: Option<ObjectRef> = None;
        for i in 0..80_000u64 {
            let obj = m.alloc(node).unwrap();
            if i % 97 == 0 {
                m.write_ref(obj, 0, keep);
                m.root_set(root_slot, Some(obj));
                keep = Some(obj);
            }
        }
        // Walk the retained chain.
        let mut len = 0;
        let mut cur = keep;
        while let Some(c) = cur {
            len += 1;
            cur = m.read_ref(c, 0);
        }
        assert!(len > 700, "{mode:?}/{sweep:?}: chain len {len}");
        drop(m);
        // Quiesce any lazy sweep then verify.
        let violations = gc.verify_heap();
        assert!(violations.is_empty(), "{mode:?}/{sweep:?}: {violations:?}");
        gc.shutdown();
    }
}

/// Mutators registering and deregistering mid-cycle must not confuse the
/// safepoint protocol or lose objects.
#[test]
fn mutator_churn_during_cycles() {
    let gc = Gc::new(config(8));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // A stable allocator keeps cycles coming.
        {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut m = gc.register_mutator();
                let junk = ObjectShape::new(0, 22, 0);
                while !stop.load(Ordering::Relaxed) {
                    m.alloc(junk).unwrap();
                }
            });
        }
        // Short-lived mutators come and go.
        for _ in 0..3 {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let shape = ObjectShape::new(1, 1, 3);
                while !stop.load(Ordering::Relaxed) {
                    let mut m = gc.register_mutator();
                    let a = m.alloc(shape).unwrap();
                    m.root_push(Some(a));
                    for _ in 0..50 {
                        m.alloc(shape).unwrap();
                    }
                    assert!(gc.heap().header(a).class_id == 3);
                    drop(m); // deregisters
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1200));
        stop.store(true, Ordering::SeqCst);
    });
    assert!(!gc.log().cycles.is_empty());
    gc.shutdown();
}

/// Think-time (blocked) regions let collection proceed while threads
/// sleep, and waking threads synchronize with an in-progress pause.
#[test]
fn blocked_regions_do_not_stall_collection() {
    let gc = Gc::new(config(8));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Sleepy threads: mostly blocked.
        for _ in 0..3 {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut m = gc.register_mutator();
                let shape = ObjectShape::new(1, 2, 0);
                while !stop.load(Ordering::Relaxed) {
                    let a = m.alloc(shape).unwrap();
                    m.root_push(Some(a));
                    m.think(Duration::from_millis(5));
                    m.root_truncate(0);
                }
            });
        }
        // One busy allocator forcing collections.
        {
            let gc = Arc::clone(&gc);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut m = gc.register_mutator();
                let junk = ObjectShape::new(0, 30, 0);
                while !stop.load(Ordering::Relaxed) {
                    m.alloc(junk).unwrap();
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1200));
        stop.store(true, Ordering::SeqCst);
    });
    assert!(
        gc.log().cycles.len() >= 2,
        "collection proceeded despite sleeping threads"
    );
    gc.shutdown();
}

/// True if granule `g` lies in a free-list extent.
fn is_free(gc: &Gc, g: usize) -> bool {
    gc.heap()
        .free_list()
        .extents_sorted()
        .iter()
        .any(|e| e.start <= g && g < e.end())
}

/// Allocation caches take no lock: the owner bump-allocates, and the
/// pause retires a cache from the coordinator's thread only once the
/// world is stopped. Mutator A allocates objects its roots hold but its
/// cache has not published, then parks in `blocked()`; mutator B runs a
/// collection. The pause must publish A's objects (they survive), put
/// A's cache tail back on the free list, and leave a heap the auditor
/// accepts; A then allocates normally. A mutator that drops with
/// pending objects publishes them itself on deregistration.
#[test]
fn pause_retires_a_parked_mutators_cache() {
    let gc = Gc::new(config(8));
    let shape = ObjectShape::new(1, 2, 7);
    std::thread::scope(|s| {
        // Channels live in this closure, so a failed assertion below
        // drops `resume_tx` and unparks A instead of hanging the scope.
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let gc = &gc;
        let a = s.spawn(move || {
            let mut m = gc.register_mutator();
            let objs: Vec<ObjectRef> = (0..8u64)
                .map(|i| {
                    let o = m.alloc(shape).unwrap();
                    m.write_data(o, 0, 100 + i);
                    m.root_push(Some(o));
                    o
                })
                .collect();
            for &o in &objs {
                assert!(!gc.heap().is_published(o), "{o:?} still pending");
            }
            m.blocked(|| {
                parked_tx.send(objs.clone()).unwrap();
                resume_rx.recv().unwrap();
            });
            // Unparked: the retired cache refills like a fresh one,
            // several times over, and the old objects are intact.
            let mut prev = None;
            for _ in 0..5_000 {
                let o = m.alloc(shape).unwrap();
                m.write_ref(o, 0, prev);
                prev = Some(o);
            }
            m.root_push(prev);
            for (i, &o) in objs.iter().enumerate() {
                assert_eq!(m.read_data(o, 0), 100 + i as u64);
            }
            m.collect();
            let mut len = 0;
            let mut cur = prev;
            while let Some(c) = cur {
                len += 1;
                cur = m.read_ref(c, 0);
            }
            assert_eq!(len, 5_000, "chain allocated after unparking survives");
        });

        let objs = parked_rx.recv().unwrap();
        let tail = objs.last().unwrap().index() + shape.granules();
        assert!(!is_free(gc, tail), "A's cache still owns its tail");
        let published_before = gc.heap().objects_allocated();
        let mut b = gc.register_mutator();
        b.collect();
        assert_eq!(
            gc.heap().objects_allocated(),
            published_before + objs.len() as u64,
            "the retire folded A's pending objects into the totals"
        );
        for (i, &o) in objs.iter().enumerate() {
            assert!(gc.heap().is_published(o), "{o:?} published and live");
            assert_eq!(b.read_data(o, 0), 100 + i as u64);
        }
        assert!(is_free(gc, tail), "A's cache tail is back on the free list");
        gc.audit_now();
        drop(b);
        resume_tx.send(()).unwrap();
        a.join().unwrap();
    });

    // Deregistration publishes: C's objects are pending until it drops.
    let mut c = gc.register_mutator();
    let held: Vec<ObjectRef> = (0..5)
        .map(|_| {
            let o = c.alloc(shape).unwrap();
            gc.global_root_push(Some(o));
            o
        })
        .collect();
    assert!(held.iter().all(|&o| !gc.heap().is_published(o)));
    drop(c);
    assert!(held.iter().all(|&o| gc.heap().is_published(o)));
    gc.register_mutator().collect();
    assert!(held.iter().all(|&o| gc.heap().is_published(o)), "survive");
    gc.audit_now();
    gc.shutdown();
}
