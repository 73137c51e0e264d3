//! §5: fence reduction on weak-ordering hardware. A straightforward
//! implementation needs a fence on every object allocation, in every
//! write barrier, and for every object marked; the paper's batching needs
//! one per allocation cache, none in the write barrier, and one per work
//! packet. This bench measures the batched counts during a jbb run and
//! compares them with the naive counts computed from the same run's
//! object/write/mark volumes.

use mcgc_bench::{banner, gc_config, heap_bytes, jbb_opts, seconds};
use mcgc_core::CollectorMode;
use mcgc_membar::FenceStats;
use mcgc_workloads::jbb;

fn main() {
    banner(
        "Fence counts (§5): batched protocols vs naive per-operation fences",
        "one fence per alloc cache; none in write barrier; one per packet",
    );
    let heap = heap_bytes(48);
    let secs = seconds(2.5);
    let opts = jbb_opts(heap, 4, secs);
    let cfg = gc_config(CollectorMode::Concurrent, heap);

    let gc = mcgc_core::Gc::new(cfg);
    let before = FenceStats::snapshot();
    let objects_before = gc.heap().objects_allocated();
    let barrier_before = gc.write_barriers();
    let report = jbb::run(&gc, &opts);
    let fences = FenceStats::snapshot().since(&before);
    let objects = gc.heap().objects_allocated() - objects_before;
    let barriers = gc.write_barriers() - barrier_before;
    let marked: u64 = report.log.cycles.iter().map(|c| c.live_after_objects).sum();
    let handshakes: u64 = report.log.cycles.iter().map(|c| c.handshakes).sum();
    let mutators = report.threads as u64;
    gc.shutdown();

    println!("batched (measured):");
    println!(
        "  alloc-cache publication fences : {:>12}",
        fences.alloc_batch
    );
    println!(
        "  large-object fences            : {:>12}",
        fences.large_alloc
    );
    println!(
        "  tracer batch fences            : {:>12}",
        fences.trace_batch
    );
    println!(
        "  packet publication fences      : {:>12}",
        fences.packet_publish
    );
    println!(
        "  card handshake fences          : {:>12}  ({} batches x {} mutators = {} on real HW)",
        fences.card_handshake,
        handshakes,
        mutators,
        handshakes * mutators
    );
    let batched_total = fences.total() + handshakes * mutators.saturating_sub(1);
    println!("  total (with per-mutator HW handshakes): {batched_total}");

    println!("\nnaive (computed from the same run):");
    println!("  one per object allocated       : {objects:>12}");
    println!("  one per write barrier          : {barriers:>12}");
    println!("  one per object marked          : {marked:>12}");
    let naive_total = objects + barriers + marked;
    println!("  total                          : {naive_total:>12}");

    println!(
        "\nreduction: {:.1}x fewer fences than the naive scheme",
        naive_total as f64 / batched_total.max(1) as f64
    );
    println!("(§5's goal; the store-buffer models in mcgc-check show the");
    println!("batched protocols are still sound under weak ordering.)");
}
