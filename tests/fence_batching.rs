//! §5 fence batching at the system level, in a test binary of its own:
//! `FenceStats` are process-wide, so any sibling test running a
//! collector or pool in parallel would add its fences to this test's
//! window. Cargo runs test binaries one at a time.

use mcgc::membar::FenceStats;
use mcgc::{Gc, GcConfig, ObjectShape};

/// §5.1/§5.2 fence batching at the system level: a jbb-style run emits
/// far fewer fences than the naive one-per-object/one-per-write scheme
/// would, and every §5 fence category shows up.
#[test]
fn fence_batching_reduces_fence_count() {
    let heap = 16 << 20;
    let mut cfg = GcConfig::with_heap_bytes(heap);
    cfg.background_threads = 1;
    let gc = Gc::new(cfg);
    let before = FenceStats::snapshot();
    let objects_before = gc.heap().objects_allocated();
    {
        let mut m = gc.register_mutator();
        let shape = ObjectShape::new(1, 3, 0);
        let keep = m.alloc(shape).unwrap();
        m.root_push(Some(keep));
        for i in 0..200_000u64 {
            let o = m.alloc(shape).unwrap();
            if i % 7 == 0 {
                m.write_ref(keep, 0, Some(o)); // write barrier, no fence
            }
        }
    }
    let fences = FenceStats::snapshot().since(&before);
    let objects = gc.heap().objects_allocated() - objects_before;
    let barrier_stores = gc.write_barriers();
    // Naive scheme: one fence per allocated object + one per barrier.
    let naive = objects + barrier_stores;
    assert!(
        fences.total() * 20 < naive,
        "batched fences {} should be <5% of naive {}",
        fences.total(),
        naive
    );
    // Allocation batches dominate and are roughly one per cache of
    // objects, not one per object.
    assert!(fences.alloc_batch > 0);
    assert!(
        fences.alloc_batch < objects / 10,
        "alloc fences {} vs objects {}",
        fences.alloc_batch,
        objects
    );
    gc.shutdown();
}
