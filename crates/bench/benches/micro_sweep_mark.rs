//! Micro-benchmarks of the heap substrate: bitwise sweep throughput
//! (serial vs parallel, and a minor cycle's epoch replaying the chunk
//! memos of the one before), mark-bit operations, the write barrier, and
//! small allocation (heap bump path and `Mutator::alloc`).
//! Self-timed with `std::time::Instant` (no external harness) so the
//! workspace builds hermetically.

use std::time::Instant;

use mcgc_core::{CollectorMode, Gc, GcConfig};
use mcgc_heap::{
    sweep_serial, AllocCache, Heap, HeapConfig, ObjectShape, SweepEpoch, SweepSource, SweepStats,
    SWEEP_CHUNK_GRANULES,
};

/// Times `iters` runs of `setup` + `f` and prints the mean of `f` alone
/// (setup and the input's teardown excluded), as ns/iter and MB/s over
/// `bytes`.
fn bench_batched<T>(
    name: &str,
    iters: u64,
    bytes: u64,
    mut setup: impl FnMut() -> T,
    f: impl Fn(&T),
) {
    let mut total_ns = 0u128;
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        f(&input);
        total_ns += start.elapsed().as_nanos();
        // Freeing a 16 MB heap takes from ~0 to ~2 ms, depending on the
        // state earlier arms left the allocator in: off the clock.
        drop(input);
    }
    let per_iter = total_ns as f64 / iters as f64;
    if bytes > 0 {
        let mbps = bytes as f64 / (per_iter / 1e9) / (1 << 20) as f64;
        println!("{name:<40} {per_iter:>14.0} ns/iter  {mbps:>9.0} MB/s");
    } else {
        println!("{name:<40} {per_iter:>14.1} ns/iter");
    }
}

/// Times a cheap operation in a tight loop (with warmup).
fn bench_op(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<40} {per_iter:>14.2} ns/iter");
}

fn build_heap(heap_bytes: usize, live_every: u32) -> Heap {
    let heap = Heap::new(HeapConfig::with_heap_bytes(heap_bytes));
    let mut cache = AllocCache::new();
    let shape = ObjectShape::new(2, 4, 1);
    let mut i = 0u32;
    loop {
        match heap.alloc_small(&mut cache, shape) {
            Some(obj) => {
                if i.is_multiple_of(live_every) {
                    heap.mark(obj);
                }
                i += 1;
            }
            None => {
                if !heap.refill_cache(&mut cache, shape.granules()) {
                    break;
                }
            }
        }
    }
    heap.retire_cache(&mut cache);
    heap
}

/// One eager epoch at the collector's chunk size that keeps its marks,
/// as a pause ahead of a minor cycle does: it records every chunk's
/// memo, and an epoch planned after it replays the chunks nothing was
/// allocated in since.
fn sweep_keeping_marks(heap: &Heap) -> SweepStats {
    let epoch = SweepEpoch::new(heap, SWEEP_CHUNK_GRANULES).keeping_marks(true);
    epoch.drain(heap, SweepSource::Pause);
    heap.settle_drained_epoch(&epoch);
    heap.retire_epoch(&epoch)
}

fn sweep_throughput() {
    let heap_bytes = 16 << 20;
    for (name, live_every) in [("60pct_live", 2u32), ("sparse_live", 16)] {
        bench_batched(
            &format!("sweep/serial/{name}"),
            6,
            heap_bytes as u64,
            || build_heap(heap_bytes, live_every),
            |heap| {
                std::hint::black_box(sweep_serial(heap, 16 << 10));
            },
        );
        bench_batched(
            &format!("sweep/parallel2/{name}"),
            6,
            heap_bytes as u64,
            || build_heap(heap_bytes, live_every),
            |heap| {
                // Two threads (the caller and one more) drain one epoch,
                // then settle and retire it as the eager pause's leader
                // and worker do.
                let epoch = SweepEpoch::new(heap, 16 << 10);
                std::thread::scope(|s| {
                    s.spawn(|| epoch.drain(heap, SweepSource::Pause));
                    epoch.drain(heap, SweepSource::Pause);
                });
                heap.settle_drained_epoch(&epoch);
                std::hint::black_box(heap.retire_epoch(&epoch));
            },
        );
        // A kept-marks epoch off the clock, then a replaying one on it.
        bench_batched(
            &format!("sweep/replay/{name}"),
            6,
            heap_bytes as u64,
            || {
                let heap = build_heap(heap_bytes, live_every);
                sweep_keeping_marks(&heap);
                heap
            },
            |heap| {
                std::hint::black_box(sweep_keeping_marks(heap));
                let chunks = heap.granules().div_ceil(SWEEP_CHUNK_GRANULES) as u64;
                assert_eq!(heap.sweep_counters().replayed_chunks, chunks);
            },
        );
    }
}

fn mark_bit_ops() {
    let heap = Heap::new(HeapConfig::with_heap_bytes(8 << 20));
    let mut cache = AllocCache::new();
    heap.refill_cache(&mut cache, 8);
    let obj = heap
        .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
        .unwrap();
    heap.publish_cache(&mut cache);
    heap.mark(obj);
    bench_op("mark/set_already_marked", 2_000_000, || {
        std::hint::black_box(heap.mark(obj));
    });
    bench_op("mark/is_marked", 2_000_000, || {
        std::hint::black_box(heap.is_marked(obj));
    });
}

/// `Mutator::write_ref`, one timing per barrier path: a store into a
/// holder in the caller's own unpublished cache (the slot store alone)
/// and a store into a published holder (the slot store and its card).
/// Each includes the safepoint poll every 64th store. A stop-the-world
/// collector whose heap holds everything, so no collection runs.
fn write_barrier() {
    let mut cfg = GcConfig::with_heap_bytes(8 << 20);
    cfg.mode = CollectorMode::StopTheWorld;
    cfg.background_threads = 0;
    let gc = Gc::new(cfg);
    let mut m = gc.register_mutator();
    let shape = ObjectShape::new(2, 0, 0);
    let published = m.alloc(shape).unwrap();
    m.root_push(Some(published));
    m.collect(); // retires the cache: `published` is
    let unpublished = m.alloc(shape).unwrap();
    let value = m.alloc(ObjectShape::new(0, 2, 0)).unwrap();
    bench_op("write_barrier/unpublished_holder", 2_000_000, || {
        m.write_ref(unpublished, 0, Some(value));
    });
    bench_op("write_barrier/published_holder", 2_000_000, || {
        m.write_ref(published, 0, Some(value));
    });
    assert!(gc.heap().is_published(published));
    assert!(!gc.heap().is_published(unpublished), "no refill ran");
    drop(m);
    gc.shutdown();
}

fn allocation_fast_path() {
    let shape = ObjectShape::new(1, 3, 0);
    let per_batch = 10_000u64;
    bench_batched(
        "alloc/small_bump_10k",
        40,
        0,
        || Heap::new(HeapConfig::with_heap_bytes(16 << 20)),
        |heap| {
            let mut cache = AllocCache::new();
            heap.refill_cache(&mut cache, shape.granules());
            for _ in 0..per_batch {
                match heap.alloc_small(&mut cache, shape) {
                    Some(o) => {
                        std::hint::black_box(o);
                    }
                    None => {
                        heap.refill_cache(&mut cache, shape.granules());
                    }
                }
            }
        },
    );
}

/// `Mutator::alloc` whole: the safepoint poll, the bump in the
/// mutator's own cache, and the refills and publications (one fence,
/// then a word at a time) that come with it. One mutator allocates 1M
/// 64-byte objects into a stop-the-world collector whose heap holds
/// them all, so no collection runs; best of 15 fresh collectors.
fn mutator_alloc() {
    let shape = ObjectShape::new(0, 7, 0);
    let n = 1_000_000u32;
    let mut best = f64::MAX;
    for _ in 0..15 {
        let mut cfg = GcConfig::with_heap_bytes(96 << 20);
        cfg.mode = CollectorMode::StopTheWorld;
        cfg.background_threads = 0;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(m.alloc(shape).expect("heap holds every object"));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(n));
        assert!(
            gc.log().cycles.is_empty(),
            "a collection ran inside the loop"
        );
        drop(m);
        gc.shutdown();
    }
    println!(
        "{:<40} {best:>14.2} ns/iter",
        "alloc/mutator_64b_1m_best_of_15"
    );
}

fn main() {
    mcgc_bench::banner(
        "micro: sweep, mark bits, write barrier, allocation",
        "heap substrate costs underlying §6 pause/throughput numbers",
    );
    sweep_throughput();
    mark_bit_ops();
    write_barrier();
    allocation_fast_path();
    mutator_alloc();
}
