//! `gc_pressure` — drive a burst/trough allocation pattern against a
//! growable segmented heap and report its memory-pressure behaviour:
//! segment grow/shrink events, the peak segment count, emergency
//! (soft-limit) kickoffs, and allocation backpressure stalls.
//!
//! ```text
//! cargo run --release --example gc_pressure [bursts] [out.json]
//! ```
//!
//! The run self-validates the acceptance contract: every burst must
//! raise the committed-segment count past the initial reservation, and
//! every trough must return segments — the process exits non-zero
//! otherwise. The optional JSON output carries the machine-readable
//! summary that CI uploads as an artifact.

use mcgc::{Gc, GcConfig, ObjectShape};

fn main() {
    let mut args = std::env::args().skip(1);
    let bursts: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let out_path = args.next();

    // 2 MiB reserved, 256 KiB segments, 8 MiB hard limit, soft limit at
    // 3 MiB so each burst also forces an emergency kickoff.
    let mut cfg = GcConfig::with_heap_bytes(2 << 20);
    cfg.heap.segment_bytes = 256 << 10;
    cfg.heap.max_heap_bytes = 8 << 20;
    cfg.soft_limit_bytes = 3 << 20;
    let gc = Gc::new(cfg);
    let mut m = gc.register_mutator();

    let initial = gc.heap().segment_stats();
    println!(
        "gc_pressure: {} bursts; {} segments reserved ({} KiB each), hard limit {}",
        bursts,
        initial.initial,
        initial.seg_bytes >> 10,
        initial.max
    );

    let node = ObjectShape::new(1, 30, 0); // 32 granules = 256 B
    let mut peak_seen = initial.committed;
    let mut trough_failures = 0;
    for burst in 0..bursts {
        // Burst: ~3.5 MiB of live chain in the 2 MiB reservation.
        let head = m.alloc(node).expect("burst alloc");
        let slot = m.root_push(Some(head));
        let mut prev = head;
        let mut allocated = node.bytes();
        while allocated < (3 << 20) + (1 << 19) {
            let n = m.alloc(node).expect("burst alloc");
            m.write_ref(n, 0, Some(prev));
            m.root_set(slot, Some(n));
            prev = n;
            allocated += node.bytes();
        }
        let at_peak = gc.heap().segment_stats();
        peak_seen = peak_seen.max(at_peak.committed);
        // Trough: drop the chain and collect until the empties return.
        m.root_truncate(0);
        m.collect();
        m.collect();
        let at_trough = gc.heap().segment_stats();
        println!(
            "burst {}: {} -> {} segments at peak, {} after the trough",
            burst + 1,
            initial.initial,
            at_peak.committed,
            at_trough.committed
        );
        if at_peak.committed <= initial.initial || at_trough.committed >= at_peak.committed {
            trough_failures += 1;
        }
    }

    gc.telemetry_sample();
    let s: std::collections::BTreeMap<String, f64> =
        gc.telemetry().registry().sample().into_iter().collect();
    let stats = gc.heap().segment_stats();
    println!(
        "totals: peak {} segments, {} grows, {} shrinks, {} emergency kickoffs, {} stalls",
        stats.peak,
        stats.grows,
        stats.shrinks,
        s["gc_emergency_kickoffs_total"],
        s["gc_alloc_stalls_total"]
    );
    print!("{}", mcgc::heap::inspect(gc.heap()).render());
    drop(m);
    gc.shutdown();

    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"bursts\": {},\n  \"initial_segments\": {},\n  \"peak_segments\": {},\n  \
             \"final_segments\": {},\n  \"grow_events\": {},\n  \"shrink_events\": {},\n  \
             \"emergency_kickoffs\": {},\n  \"alloc_stalls\": {}\n}}\n",
            bursts,
            stats.initial,
            stats.peak,
            stats.committed,
            stats.grows,
            stats.shrinks,
            s["gc_emergency_kickoffs_total"],
            s["gc_alloc_stalls_total"]
        );
        std::fs::write(&path, json).expect("write json");
        println!("wrote {path}");
    }

    if trough_failures > 0 {
        eprintln!("gc_pressure: {trough_failures} burst(s) violated the grow-then-shrink contract");
        std::process::exit(1);
    }
    if stats.grows == 0 || stats.shrinks == 0 {
        eprintln!("gc_pressure: no grow/shrink events recorded");
        std::process::exit(1);
    }
}
