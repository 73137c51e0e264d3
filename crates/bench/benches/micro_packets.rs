//! Micro-benchmarks of the §4 work packet mechanism: get/put cost,
//! push/pop throughput per entry and in bulk, contended access, and
//! termination checks.
//! Self-timed with `std::time::Instant` (no external harness) so the
//! workspace builds hermetically.

use std::time::Instant;

use mcgc_packets::{PacketPool, PoolConfig, WorkBuffer};

/// Times `iters` runs of `f` after `iters / 10` warmup runs and prints
/// mean ns/iter (and per-element cost when `elements > 1`).
fn bench(name: &str, iters: u64, elements: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per_iter = total.as_nanos() as f64 / iters as f64;
    if elements > 1 {
        println!(
            "{name:<40} {per_iter:>12.1} ns/iter  {:>8.2} ns/elem",
            per_iter / elements as f64
        );
    } else {
        println!("{name:<40} {per_iter:>12.1} ns/iter");
    }
}

fn packet_get_put() {
    let pool: PacketPool<u64> = PacketPool::new(PoolConfig::default());
    bench("packets/get_output_put", 200_000, 1, || {
        let p = pool.get_output().expect("packet");
        std::hint::black_box(&p);
        pool.put(p);
    });
}

fn packet_push_pop() {
    let pool: PacketPool<u64> = PacketPool::new(PoolConfig::default());
    bench("packets/push_pop/1000_items_roundtrip", 2_000, 1000, || {
        let mut buf = WorkBuffer::new(&pool);
        for i in 0..1000u64 {
            let _ = buf.push(i);
        }
        let mut n = 0;
        while buf.pop().is_some() {
            n += 1;
        }
        std::hint::black_box(n);
    });
    // The tracers' path: one bulk push, then pops of the default
    // 64-entry trace batch.
    let (mut items, mut batch) = (Vec::with_capacity(1000), Vec::with_capacity(64));
    bench(
        "packets/push_pop_many/1000_items_roundtrip",
        2_000,
        1000,
        || {
            let mut buf = WorkBuffer::new(&pool);
            items.extend(0..1000u64);
            buf.push_many(&mut items, |_| unreachable!("the pool holds 1000 items"));
            let mut n = 0;
            while buf.pop_many(&mut batch, 64) > 0 {
                n += batch.len();
                batch.clear();
            }
            std::hint::black_box(n);
        },
    );
}

fn termination_check() {
    let pool: PacketPool<u64> = PacketPool::new(PoolConfig::default());
    bench("packets/is_tracing_complete", 1_000_000, 1, || {
        std::hint::black_box(pool.is_tracing_complete());
    });
}

fn contended_pool() {
    // Four threads hammering a small pool: measures CAS-loop behaviour
    // under contention (Table 4's cost metric at micro scale).
    bench("packets/contended/4_threads_2000_each", 20, 8000, || {
        let pool = PacketPool::<u64>::new(PoolConfig {
            packets: 64,
            capacity: 16,
        });
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    let mut buf = WorkBuffer::new(pool);
                    for i in 0..2000u64 {
                        let _ = buf.push(t * 10_000 + i);
                        if i % 3 == 0 {
                            let _ = buf.pop();
                        }
                    }
                    while buf.pop().is_some() {}
                });
            }
        });
        std::hint::black_box(pool.stats().cas_ops);
    });
}

fn main() {
    mcgc_bench::banner(
        "micro: work packets",
        "§4 get/put, push/pop, contention, termination",
    );
    packet_get_put();
    packet_push_pop();
    termination_check();
    contended_pool();
}
