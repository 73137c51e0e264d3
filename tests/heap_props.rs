//! Property-based tests of the heap substrate: the free list, bitmaps,
//! and sweep must uphold their invariants for arbitrary operation
//! sequences. Cases are generated by the in-repo seeded PRNG
//! (`mcgc::workloads::rng::SmallRng`) so the suite is deterministic and
//! needs no external property-testing crate.

use mcgc::heap::{
    sweep_serial, AllocCache, Bitmap, Extent, FreeList, Heap, HeapConfig, ObjectRef, ObjectShape,
    ShardedFreeList, SweepEpoch, SweepSource, MIN_FREE_EXTENT_GRANULES,
};
use mcgc::workloads::rng::SmallRng;

/// Free-list alloc/free round trips preserve the total and never produce
/// overlapping extents.
#[test]
fn freelist_conserves_granules() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xF1EE_0000 + seed);
        let total = 100_000usize;
        let mut fl = FreeList::with_extent(1, total);
        let mut held: Vec<(usize, usize)> = Vec::new();
        let n_ops = rng.gen_range_usize(1, 200);
        for _ in 0..n_ops {
            let len = rng.gen_range_usize(1, 64);
            let free_one = rng.gen_bool();
            if free_one && !held.is_empty() {
                let (start, len) = held.swap_remove(held.len() / 2);
                fl.free(start, len);
            } else if let Some(start) = fl.alloc(len) {
                held.push((start, len));
            }
        }
        let held_total: usize = held.iter().map(|&(_, l)| l).sum();
        assert_eq!(fl.free_granules() + held_total, total, "seed {seed}");
        // Extents are address-ordered and disjoint.
        let extents: Vec<_> = fl.iter().collect();
        for w in extents.windows(2) {
            assert!(w[0].end() <= w[1].start, "seed {seed} overlap: {w:?}");
        }
        // Held regions never overlap each other or free extents.
        let mut regions: Vec<(usize, usize)> = held
            .iter()
            .map(|&(s, l)| (s, s + l))
            .chain(extents.iter().map(|e| (e.start, e.end())))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "seed {seed} region overlap: {w:?}");
        }
    }
}

/// Bitmap range operations agree with per-bit operations.
#[test]
fn bitmap_ranges_match_bits() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xB17_0000 + seed);
        let len = rng.gen_range_usize(1, 500);
        let map = Bitmap::new(len);
        let mut model = vec![false; len];
        let n_sets = rng.gen_range_usize(0, 100);
        for _ in 0..n_sets {
            let s = rng.gen_range_usize(0, 500);
            if s < len {
                map.set(s);
                model[s] = true;
            }
        }
        let (a, b) = (rng.gen_range_usize(0, 500), rng.gen_range_usize(0, 500));
        let (start, end) = (a.min(b).min(len), a.max(b).min(len));
        assert_eq!(
            map.count_range(start, end),
            model[start..end].iter().filter(|&&x| x).count(),
            "seed {seed}"
        );
        assert_eq!(
            map.next_set_before(start, end),
            (start..end).find(|&i| model[i]),
            "seed {seed}"
        );
        assert_eq!(
            map.prev_set(end),
            (0..end).rev().find(|&i| model[i]),
            "seed {seed}"
        );
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(map.get(i), m, "seed {seed} bit {i}");
        }
    }
}

/// A heap holding 500 small objects, the ones flagged in `marks`
/// marked live. Returns the heap and each object with its size; the
/// build is deterministic, so equal `marks` give identical heaps.
fn marked_heap(marks: &[bool]) -> (Heap, Vec<(ObjectRef, usize)>) {
    let heap = Heap::new(HeapConfig {
        heap_bytes: 1 << 20,
        cache_bytes: 4 << 10,
        large_object_bytes: 2 << 10,
        alloc_shards: 4,
        ..HeapConfig::default()
    });
    let mut cache = AllocCache::new();
    let mut objs = Vec::new();
    for i in 0..marks.len() as u32 {
        let shape = ObjectShape::new(i % 3, i % 11, 1);
        let obj = loop {
            match heap.alloc_small(&mut cache, shape) {
                Some(o) => break o,
                None => assert!(heap.refill_cache(&mut cache, shape.granules())),
            }
        };
        objs.push((obj, shape.granules()));
    }
    heap.retire_cache(&mut cache);
    for (&(obj, _), &mark) in objs.iter().zip(marks) {
        if mark {
            heap.mark(obj);
        }
    }
    (heap, objs)
}

/// The free space a sweep in `chunk`-granule chunks must leave on a
/// heap of `end` granules whose live objects are `live` (address-ordered
/// `(start, granules)`): the gaps between live objects (granule 0 is
/// reserved), cut at chunk edges because each chunk sweeps alone, runs
/// shorter than `min_extent` dark, the rest coalesced across chunk edges
/// as the free-list rebuild does. Returns the extents and the dark total.
fn reference_free(
    live: &[(usize, usize)],
    end: usize,
    chunk: usize,
    min_extent: usize,
) -> (Vec<Extent>, usize) {
    let mut extents: Vec<Extent> = Vec::new();
    let mut dark = 0;
    let mut cursor = 1;
    for &(start, len) in live.iter().chain(&[(end, 0)]) {
        let mut a = cursor;
        while a < start {
            let b = start.min((a / chunk + 1) * chunk);
            if b - a < min_extent {
                dark += b - a;
            } else {
                match extents.last_mut() {
                    Some(e) if e.end() == a => e.len += b - a,
                    _ => extents.push(Extent {
                        start: a,
                        len: b - a,
                    }),
                }
            }
            a = b;
        }
        cursor = start + len;
    }
    (extents, dark)
}

/// Sweeping with an arbitrary mark pattern conserves every granule
/// (live + freed + dark = heap) and leaves exactly the reference free
/// list. A chunk size that is not a multiple of 64 puts chunk edges
/// inside bitmap words; the parallel sweep must match the serial one
/// there too.
#[test]
fn sweep_conserves_heap() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EE9_0000 + seed);
        let marks: Vec<bool> = (0..500).map(|_| rng.gen_bool()).collect();
        let chunk_pow = rng.gen_range_usize(6, 12);
        for chunk in [1 << chunk_pow, 1000] {
            let (heap, objs) = marked_heap(&marks);
            let mut live: Vec<(usize, usize)> = objs
                .iter()
                .zip(&marks)
                .filter(|&(_, &mark)| mark)
                .map(|(&(obj, g), _)| (obj.index(), g))
                .collect();
            live.sort_unstable();
            let live_expected: usize = live.iter().map(|&(_, g)| g).sum();
            let stats = sweep_serial(&heap, chunk);
            assert_eq!(
                stats.live_granules, live_expected,
                "seed {seed} chunk {chunk}"
            );
            assert_eq!(stats.live_objects, live.len(), "seed {seed} chunk {chunk}");
            assert_eq!(
                stats.live_granules + stats.freed_granules + stats.dark_granules,
                heap.granules() - 1,
                "seed {seed} chunk {chunk}"
            );
            let (want, want_dark) =
                reference_free(&live, heap.granules(), chunk, MIN_FREE_EXTENT_GRANULES);
            assert_eq!(
                heap.free_list().extents_sorted(),
                want,
                "seed {seed} chunk {chunk}: free list"
            );
            assert_eq!(stats.dark_granules, want_dark, "seed {seed} chunk {chunk}");
            // Marked objects keep allocation bits; unmarked lose them.
            for (&(obj, _), &mark) in objs.iter().zip(&marks) {
                assert_eq!(heap.is_published(obj), mark, "seed {seed} chunk {chunk}");
            }
            // The swept heap verifies.
            let violations = mcgc::heap::verify(&heap, false);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");

            // Four threads drain one epoch, then settle and retire it as
            // the eager pause does.
            let (heap_p, _) = marked_heap(&marks);
            let epoch = SweepEpoch::new(&heap_p, chunk);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| epoch.drain(&heap_p, SweepSource::Pause));
                }
            });
            heap_p.settle_drained_epoch(&epoch);
            let stats_p = heap_p.retire_epoch(&epoch);
            assert_eq!(stats_p, stats, "seed {seed} chunk {chunk}: parallel stats");
            assert_eq!(
                heap_p.free_list().extents_sorted(),
                want,
                "seed {seed} chunk {chunk}: parallel free list"
            );
            assert_eq!(
                heap_p.alloc_bits().count(),
                live.len(),
                "seed {seed} chunk {chunk}: parallel allocation bits"
            );
        }
    }
}

/// Sweeping conserves every granule across a segmented heap that grew at
/// runtime: live + freed + dark = committed, with arbitrary mark
/// patterns, and releasing empty grown segments keeps the free-list and
/// segment accounting consistent.
#[test]
fn sweep_conserves_heap_across_segments() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x5E63_0000 + seed);
        let heap = Heap::new(HeapConfig {
            heap_bytes: 256 << 10,
            cache_bytes: 4 << 10,
            large_object_bytes: 2 << 10,
            alloc_shards: 4,
            segment_bytes: 32 << 10,
            max_heap_bytes: 1 << 20,
        });
        let seg_granules = heap.segment_granules();
        let mut cache = AllocCache::new();
        let mut objs = Vec::new();
        // Allocate ~1.5x the initial reservation, growing on demand: the
        // heap must end up spanning several runtime-committed segments.
        let target = (256 << 10) / mcgc::heap::GRANULE_BYTES * 3 / 2;
        let mut allocated = 0usize;
        while allocated < target {
            let shape = ObjectShape::new(rng.gen_range_u32(0, 4), rng.gen_range_u32(0, 12), 1);
            match heap.alloc_small(&mut cache, shape) {
                Some(obj) => {
                    objs.push((obj, shape.granules()));
                    allocated += shape.granules();
                }
                None => {
                    if !heap.refill_cache(&mut cache, shape.granules()) {
                        assert!(heap.try_grow(), "seed {seed}: grow refused under limit");
                    }
                }
            }
        }
        heap.retire_cache(&mut cache);
        let before = heap.segment_stats();
        assert!(before.grows > 0, "seed {seed}: heap never grew");
        assert!(
            before.committed > before.initial,
            "seed {seed}: growth did not raise the committed count"
        );
        // Mark ~25% live so the tail segments mostly empty out.
        let mut live_expected = 0usize;
        for &(obj, g) in &objs {
            if rng.gen_range_usize(0, 4) == 0 {
                heap.mark(obj);
                live_expected += g;
            }
        }
        let committed_granules = heap.total_bytes() / mcgc::heap::GRANULE_BYTES;
        let stats = sweep_serial(&heap, 1 << 10);
        assert_eq!(stats.live_granules, live_expected, "seed {seed}");
        // Conservation is against granules committed when the sweep ran
        // (granule 0 is reserved); released segments were counted freed
        // first and then taken off the free list.
        assert_eq!(
            stats.live_granules + stats.freed_granules + stats.dark_granules,
            committed_granules - 1,
            "seed {seed}"
        );
        let after = heap.segment_stats();
        let released = (after.shrinks - before.shrinks) as usize;
        assert_eq!(after.committed, before.committed - released, "seed {seed}");
        assert_eq!(
            heap.free_bytes() / mcgc::heap::GRANULE_BYTES,
            stats.freed_granules - released * seg_granules,
            "seed {seed}"
        );
        let violations = mcgc::heap::verify(&heap, false);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// Header encoding round-trips for all field values.
#[test]
fn header_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x4EAD_0000 + seed);
        let refs = rng.gen_range_u32(0, 250);
        let data = rng.gen_range_u32(0, 250);
        let class = rng.gen_range_u32(0, 256) as u8;
        let shape = ObjectShape::new(refs, data, class);
        let heap = Heap::new(HeapConfig::with_heap_bytes(1 << 20));
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, shape.granules());
        let obj = heap.alloc_small(&mut cache, shape).unwrap();
        let h = heap.header(obj);
        assert_eq!(h.ref_count, refs, "seed {seed}");
        assert_eq!(h.data_count(), data, "seed {seed}");
        assert_eq!(h.class_id, class, "seed {seed}");
        assert_eq!(h.size_granules as usize, shape.granules(), "seed {seed}");
    }
}

/// The sharded substrate conserves granules for arbitrary alloc /
/// free / alloc_from_end sequences at arbitrary shard counts, never
/// produces overlapping extents, and a rebuild round-trip (the STW sweep
/// path, which coalesces across shard boundaries) preserves the total.
#[test]
fn sharded_freelist_conserves_granules() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5AA4_0000 + seed);
        let total = 100_000usize;
        let nshards = rng.gen_range_usize(1, 9);
        let stripe = 1 << rng.gen_range_usize(5, 10);
        let fl = ShardedFreeList::new(nshards, stripe);
        fl.rebuild([mcgc::heap::Extent {
            start: 1,
            len: total,
        }]);
        let mut held: Vec<(usize, usize)> = Vec::new();
        let mut home = 0usize;
        let n_ops = rng.gen_range_usize(1, 300);
        for _ in 0..n_ops {
            let len = rng.gen_range_usize(1, 200);
            match rng.gen_range_usize(0, 4) {
                0 if !held.is_empty() => {
                    let (start, len) = held.swap_remove(held.len() / 2);
                    fl.free(start, len);
                }
                1 => {
                    if let Some(start) = fl.alloc_from_end(len) {
                        held.push((start, len));
                    }
                }
                _ => {
                    if let Some(start) = fl.alloc(len, &mut home) {
                        held.push((start, len));
                    }
                }
            }
        }
        let held_total: usize = held.iter().map(|&(_, l)| l).sum();
        assert_eq!(fl.free_granules() + held_total, total, "seed {seed}");
        // No extent overlaps another extent or a held region.
        let extents = fl.extents_sorted();
        assert_eq!(
            extents.iter().map(|e| e.len).sum::<usize>(),
            fl.free_granules(),
            "seed {seed}"
        );
        let mut regions: Vec<(usize, usize)> = held
            .iter()
            .map(|&(s, l)| (s, s + l))
            .chain(extents.iter().map(|e| (e.start, e.end())))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "seed {seed} region overlap: {w:?}");
        }
        // Rebuild (STW sweep path): coalescing across shard boundaries
        // keeps the total and yields strictly disjoint, sorted extents.
        let before = fl.free_granules();
        fl.rebuild(fl.extents_sorted());
        assert_eq!(fl.free_granules(), before, "seed {seed} rebuild total");
        let after = fl.extents_sorted();
        for w in after.windows(2) {
            assert!(w[0].end() <= w[1].start, "seed {seed} rebuild overlap");
        }
    }
}

/// Threads hammering one sharded free list with allocs and frees of
/// their own regions neither lose nor duplicate granules.
#[test]
fn sharded_freelist_concurrent_stress() {
    let total = 1 << 20;
    let threads = 8;
    let fl = ShardedFreeList::new(threads, 512);
    fl.rebuild([mcgc::heap::Extent {
        start: 1,
        len: total,
    }]);
    let leftover: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fl = &fl;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC0C0 + t as u64);
                    let mut held: Vec<(usize, usize)> = Vec::new();
                    let mut home = t;
                    for _ in 0..4000 {
                        let len = rng.gen_range_usize(1, 128);
                        if rng.gen_bool() && !held.is_empty() {
                            let (start, len) = held.swap_remove(held.len() / 2);
                            fl.free(start, len);
                        } else if let Some(start) = fl.alloc(len, &mut home) {
                            held.push((start, len));
                        }
                    }
                    held.iter().map(|&(_, l)| l).sum::<usize>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(fl.free_granules() + leftover, total);
    // Quiescent now: the extents must be disjoint and sum to the counter.
    let extents = fl.extents_sorted();
    assert_eq!(
        extents.iter().map(|e| e.len).sum::<usize>(),
        fl.free_granules()
    );
    for w in extents.windows(2) {
        assert!(w[0].end() <= w[1].start, "overlap: {w:?}");
    }
}

/// Heap-level multi-thread refill/retire churn: concurrent mutator
/// caches must carve disjoint regions, and a full sweep afterwards
/// recovers every non-live granule with a verifiable heap.
#[test]
fn concurrent_refill_retire_stress() {
    let heap = Heap::new(HeapConfig {
        heap_bytes: 8 << 20,
        cache_bytes: 4 << 10,
        large_object_bytes: 1 << 10,
        alloc_shards: 4,
        ..HeapConfig::default()
    });
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let heap = &heap;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBEEF + t as u64);
                let mut cache = AllocCache::new();
                for round in 0..300 {
                    let shape = ObjectShape::new(t % 4, rng.gen_range_u32(0, 16), 1);
                    for _ in 0..rng.gen_range_usize(1, 32) {
                        loop {
                            match heap.alloc_small(&mut cache, shape) {
                                Some(_) => break,
                                None => assert!(
                                    heap.refill_cache(&mut cache, shape.granules()),
                                    "thread {t} round {round} oom"
                                ),
                            }
                        }
                    }
                    if round % 7 == 0 {
                        heap.retire_cache(&mut cache);
                    }
                }
                heap.retire_cache(&mut cache);
            });
        }
    });
    let violations = mcgc::heap::verify(&heap, true);
    assert!(violations.is_empty(), "{violations:?}");
    // Nothing is marked: sweeping must recover every granule.
    let stats = sweep_serial(&heap, 1 << 12);
    assert_eq!(stats.live_objects, 0);
    assert_eq!(
        stats.freed_granules + stats.dark_granules,
        heap.granules() - 1
    );
    assert_eq!(
        heap.free_bytes() / mcgc::heap::GRANULE_BYTES,
        stats.freed_granules
    );
}
