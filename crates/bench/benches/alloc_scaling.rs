//! Multi-mutator allocation scaling: the sharded, size-class-binned
//! substrate (`ShardedFreeList`) vs the single global next-fit lock it
//! replaced (`alloc_shards = 1` keeps every operation on one wilderness
//! `FreeList`, which is byte-for-byte the old allocator).
//!
//! The heap layout models a server heap mid-lifecycle: a churn zone the
//! mutators refill from and retire into, sitting *between* two fields of
//! small surviving-object holes — old-generation survivors below it,
//! large-object/metadata survivors above it — each hole too small for
//! any refill. Every mutator holds a ring of refilled regions and
//! retires a random one per iteration (mixed object lifetimes).
//!
//! The survivor fields are what the single address-ordered list chokes
//! on: every retire must re-insert its extent *between* the two fields,
//! and keeping one flat deque sorted means shifting at least an entire
//! survivor field's entries on each insert — O(survivors) memmove per
//! retire, paid under the one global lock that every other mutator is
//! queued on. The sharded substrate routes the same retire to its home
//! shard's size-class bin: an O(1) push behind a lock nobody else
//! needs. Refill pops are O(1) in both designs (next-fit's rotor parks
//! where frees cluster; class bins pop directly), so the measured gap
//! is the list-maintenance cost the tentpole deletes.
//!
//! On a multi-core host the same single lock additionally serializes
//! mutators against each other — the contention half of the story that a
//! single-CPU runner cannot exhibit; the structural O(n) half shows at
//! every thread count.
//!
//! Prints one row per (mode, threads) point and writes machine-readable
//! results to `BENCH_alloc.json` (override with `MCGC_BENCH_OUT`); CI's
//! `bench-smoke` job checks that file and uploads it as an artifact (it
//! is not checked in).

use std::time::Instant;

use mcgc_heap::{Extent, ShardedFreeList, GRANULE_BYTES};

/// Churn zone the mutators cycle through, in granules.
const CHURN_GRANULES: usize = 448 << 10;
/// Surviving-object holes in each field flanking the churn zone. Each is
/// an 8-granule hole on a 16-granule pitch (half survivors, half holes),
/// so no hole ever straddles a stripe boundary.
const PINS_PER_FIELD: usize = 1024;
const PIN_PITCH: usize = 16;
const PIN_LEN: usize = 8;
/// Shards in sharded mode (the acceptance criterion's 8-mutator point).
const SHARDS: usize = 8;
/// Stripe size in granules. Much larger than one thread's ring footprint
/// so a mutator's retire/refill working set stays in its home shard.
const STRIPE_GRANULES: usize = 1 << 15;
/// Per-thread ring of held regions (mutator caches not yet retired).
const RING: usize = 128;
/// Refill/retire churn iterations per thread.
const ITERS: usize = 20_000;
/// Refill sizes in granules: 2 KiB caches on even threads, 4 KiB on odd.
const SIZES: [usize; 2] = [256, 512];

struct Point {
    mode: &'static str,
    threads: usize,
    bytes: u64,
    secs: f64,
    refill_steals: u64,
    wilderness_refills: u64,
    contended_locks: u64,
}

impl Point {
    fn throughput(&self) -> f64 {
        self.bytes as f64 / self.secs
    }
}

/// Runs the churn at `threads` mutators against a fresh substrate with
/// `shards` shards and returns the measured point.
fn run(mode: &'static str, shards: usize, threads: usize) -> Point {
    let fl = ShardedFreeList::new(shards, STRIPE_GRANULES);
    let low_field = PINS_PER_FIELD * PIN_PITCH;
    let churn_base = (1 + low_field).next_multiple_of(STRIPE_GRANULES);
    let high_base = (churn_base + CHURN_GRANULES).next_multiple_of(STRIPE_GRANULES);
    fl.rebuild(
        (0..PINS_PER_FIELD)
            .map(|i| Extent {
                start: 1 + i * PIN_PITCH,
                len: PIN_LEN,
            })
            .chain(std::iter::once(Extent {
                start: churn_base,
                len: CHURN_GRANULES,
            }))
            .chain((0..PINS_PER_FIELD).map(|i| Extent {
                start: high_base + i * PIN_PITCH,
                len: PIN_LEN,
            })),
    );
    let start = Instant::now();
    let bytes: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fl = &fl;
                s.spawn(move || {
                    let size = SIZES[t % SIZES.len()];
                    let mut home = t;
                    let mut ring: Vec<(usize, usize)> = Vec::with_capacity(RING);
                    let mut carved = 0u64;
                    // Deterministic xorshift32: random retirement order,
                    // reproducible runs.
                    let mut rng = 0x9E37_79B9u32 ^ (t as u32 + 1);
                    for _ in 0..ITERS {
                        if ring.len() == RING {
                            rng ^= rng << 13;
                            rng ^= rng >> 17;
                            rng ^= rng << 5;
                            let victim = rng as usize % ring.len();
                            let (s, l) = ring[victim];
                            fl.free(s, l);
                            match fl.alloc(size, &mut home) {
                                Some(start) => ring[victim] = (start, size),
                                None => {
                                    ring.swap_remove(victim);
                                    continue;
                                }
                            }
                        } else {
                            match fl.alloc(size, &mut home) {
                                Some(start) => ring.push((start, size)),
                                None => continue,
                            }
                        }
                        carved += (size * GRANULE_BYTES) as u64;
                    }
                    carved
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = fl.stats();
    Point {
        mode,
        threads,
        bytes,
        secs,
        refill_steals: stats.refill_steals,
        wilderness_refills: stats.wilderness_refills,
        contended_locks: stats.contended_locks,
    }
}

fn main() {
    mcgc_bench::banner(
        "alloc scaling: sharded size-class substrate vs single global lock",
        "multi-mutator allocation scalability premise (§1, §2.1)",
    );
    println!(
        "{:<10} {:>7}  {:>10} {:>9}  {:>8} {:>9} {:>9}",
        "mode", "threads", "MB/s", "refill/s", "steals", "wild_ref", "contended"
    );
    let thread_points = [1usize, 2, 4, 8];
    let mut points = Vec::new();
    for &threads in &thread_points {
        for (mode, shards) in [("baseline", 1usize), ("sharded", SHARDS)] {
            let p = run(mode, shards, threads);
            println!(
                "{:<10} {:>7}  {:>10.1} {:>9.0}  {:>8} {:>9} {:>9}",
                p.mode,
                p.threads,
                p.throughput() / (1 << 20) as f64,
                p.bytes as f64 / (SIZES[0] * GRANULE_BYTES) as f64 / p.secs,
                p.refill_steals,
                p.wilderness_refills,
                p.contended_locks,
            );
            points.push(p);
        }
    }

    let tp = |mode: &str, threads: usize| {
        points
            .iter()
            .find(|p| p.mode == mode && p.threads == threads)
            .map(|p| p.throughput())
            .unwrap_or(f64::NAN)
    };
    let speedup_8t = tp("sharded", 8) / tp("baseline", 8);
    let ratio_1t = tp("sharded", 1) / tp("baseline", 1);
    println!();
    println!("speedup at 8 threads (sharded / baseline): {speedup_8t:.2}x");
    println!("1-thread ratio (sharded / baseline):       {ratio_1t:.2}x");

    let mut json = String::from("{\n  \"bench\": \"alloc_scaling\",\n");
    json.push_str(&mcgc_bench::host_meta_json("baseline|sharded"));
    json.push_str(&format!(
        "  \"churn_granules\": {CHURN_GRANULES},\n  \"survivor_holes_per_field\": {PINS_PER_FIELD},\n  \"shards\": {SHARDS},\n  \"ring\": {RING},\n  \"iters_per_thread\": {ITERS},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"bytes\": {}, \"secs\": {:.6}, \
             \"bytes_per_sec\": {:.0}, \"refill_steals\": {}, \"wilderness_refills\": {}, \
             \"contended_locks\": {}}}{}\n",
            p.mode,
            p.threads,
            p.bytes,
            p.secs,
            p.throughput(),
            p.refill_steals,
            p.wilderness_refills,
            p.contended_locks,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_8_threads\": {speedup_8t:.3},\n  \"ratio_1_thread\": {ratio_1t:.3}\n}}\n"
    ));
    let out = std::env::var("MCGC_BENCH_OUT").unwrap_or_else(|_| "BENCH_alloc.json".into());
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
