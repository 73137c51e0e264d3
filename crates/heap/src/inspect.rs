//! Heap occupancy inspector: a consistent, cheap summary of where the
//! heap's memory is — per-shard and per-size-class free space, external
//! fragmentation, card-table state — intended to be snapshotted at cycle
//! boundaries and fed to the flight recorder as counter tracks.
//!
//! Everything here reads the same lock-free counters and briefly-held
//! shard locks the allocator itself uses; an inspection is safe to take
//! at any time, though the per-shard numbers are only mutually consistent
//! when taken inside a pause (which is where the collector takes them).

use mcgc_telemetry::SpanRecorder;

use crate::heap::{Heap, SegmentStats};
use crate::object::GRANULE_BYTES;
use crate::shards::{BinOccupancy, NUM_CLASSES};

/// A point-in-time summary of heap occupancy and fragmentation.
#[derive(Clone, Debug, PartialEq)]
pub struct HeapInspection {
    /// Committed heap size in bytes (released segments excluded).
    pub total_bytes: usize,
    /// Bytes on the free list (shards + wilderness).
    pub free_bytes: usize,
    /// Bytes lost to dark matter (runs below the minimum extent size).
    pub dark_bytes: usize,
    /// `1 - free/total`, the collector's kickoff input.
    pub occupancy: f64,
    /// Number of free extents across all shards and the wilderness.
    pub free_extents: usize,
    /// Largest single free extent in bytes.
    pub largest_free_bytes: usize,
    /// `1 - largest_free/free`: 0 when all free space is one extent,
    /// approaching 1 as free space shatters. 0 when nothing is free.
    pub external_fragmentation: f64,
    /// Free space held by each allocation shard.
    pub shards: Vec<BinOccupancy>,
    /// Free space held by the wilderness (next-fit tail) list.
    pub wilderness: BinOccupancy,
    /// Shard + wilderness extents bucketed by size class
    /// (`floor(log2(len))`, capped at [`NUM_CLASSES`] - 1).
    pub classes: [BinOccupancy; NUM_CLASSES],
    /// Total cards in the card table.
    pub cards_total: usize,
    /// Cards currently dirty.
    pub cards_dirty: usize,
    /// Cumulative bytes allocated since heap creation.
    pub bytes_allocated: u64,
    /// Cumulative objects allocated since heap creation.
    pub objects_allocated: u64,
    /// Segment-table snapshot: committed/peak/max counts and cumulative
    /// grow/shrink events.
    pub segments: SegmentStats,
    /// Bitmask of committed segments (bit `i` = segment `i`; first 64).
    pub segment_map: u64,
    /// Chunks of the active sweep epoch not yet swept (0 when no epoch
    /// is in flight): memory the heap owns but the free list cannot see
    /// yet.
    pub lazy_unswept_chunks: usize,
    /// Cumulative sweep accounting: per-path chunk counts and the
    /// on-/off-pause reclaimed-granule split.
    pub sweep: crate::heap::SweepCounters,
}

/// Takes an occupancy snapshot of `heap`. See the module docs for the
/// consistency caveat outside pauses.
pub fn inspect(heap: &Heap) -> HeapInspection {
    let fl = heap.free_list();
    let total_bytes = heap.total_bytes();
    let free_bytes = heap.free_bytes();
    let largest_free_bytes = heap.largest_free_bytes();
    let cards = heap.cards();
    HeapInspection {
        total_bytes,
        free_bytes,
        dark_bytes: heap.dark_bytes(),
        occupancy: heap.occupancy(),
        free_extents: heap.free_extent_count(),
        largest_free_bytes,
        external_fragmentation: fragmentation(free_bytes, largest_free_bytes),
        shards: fl.shard_occupancy(),
        wilderness: fl.wilderness_occupancy(),
        classes: fl.class_occupancy(),
        cards_total: cards.len(),
        cards_dirty: cards.count_dirty(),
        bytes_allocated: heap.bytes_allocated(),
        objects_allocated: heap.objects_allocated(),
        segments: heap.segment_stats(),
        segment_map: heap.segment_map(),
        lazy_unswept_chunks: lazy_unswept_chunks(heap),
        sweep: heap.sweep_counters(),
    }
}

/// Emits `heap`'s occupancy into `rec` as counter points (Perfetto
/// counter tracks), timestamped now: the twelve [`HeapInspection`]
/// figures a trace plots, with the same values. Names carry the `heap_`
/// prefix so trace counters line up with the registry's gauge names.
///
/// The caller supplies `cards_dirty`, so no card table is walked here
/// (the pause epilogue passes its last card snapshot's count), and the
/// per-shard and per-class histograms are not read.
pub fn record_counters(heap: &Heap, cards_dirty: usize, rec: &SpanRecorder) {
    let free_bytes = heap.free_bytes();
    let largest_free_bytes = heap.largest_free_bytes();
    let segments = heap.segment_stats();
    rec.record_counter("heap_occupancy", heap.occupancy());
    rec.record_counter("heap_free_bytes", free_bytes as f64);
    rec.record_counter("heap_largest_free_bytes", largest_free_bytes as f64);
    rec.record_counter(
        "heap_external_fragmentation",
        fragmentation(free_bytes, largest_free_bytes),
    );
    rec.record_counter("heap_free_extents", heap.free_extent_count() as f64);
    rec.record_counter("heap_dark_bytes", heap.dark_bytes() as f64);
    rec.record_counter("heap_cards_dirty", cards_dirty as f64);
    rec.record_counter("heap_segments_committed", segments.committed as f64);
    rec.record_counter("heap_segments_peak", segments.peak as f64);
    rec.record_counter("heap_segment_grows", segments.grows as f64);
    rec.record_counter("heap_segment_shrinks", segments.shrinks as f64);
    rec.record_counter("heap_lazy_unswept_chunks", lazy_unswept_chunks(heap) as f64);
}

/// `1 - largest/free`, or 0 when nothing is free.
fn fragmentation(free_bytes: usize, largest_free_bytes: usize) -> f64 {
    if free_bytes == 0 {
        0.0
    } else {
        1.0 - largest_free_bytes as f64 / free_bytes as f64
    }
}

fn lazy_unswept_chunks(heap: &Heap) -> usize {
    heap.lazy_plan().map_or(0, |p| p.remaining_chunks())
}

impl HeapInspection {
    /// A human-readable multi-line rendering (for `gc_top` and the
    /// `gc_trace` postmortem report).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mib = |b: usize| b as f64 / (1 << 20) as f64;
        let _ = writeln!(
            out,
            "heap {:.1} MiB, {:.1} MiB free ({:.1}% occupied), {:.1} MiB dark",
            mib(self.total_bytes),
            mib(self.free_bytes),
            self.occupancy * 100.0,
            mib(self.dark_bytes),
        );
        let _ = writeln!(
            out,
            "free extents: {} (largest {:.1} MiB, external fragmentation {:.1}%)",
            self.free_extents,
            mib(self.largest_free_bytes),
            self.external_fragmentation * 100.0,
        );
        let _ = writeln!(
            out,
            "cards: {} dirty / {}",
            self.cards_dirty, self.cards_total,
        );
        let _ = writeln!(
            out,
            "segments: {} committed / {} max ({:.1} MiB each, peak {}, {} grows, {} shrinks)",
            self.segments.committed,
            self.segments.max,
            mib(self.segments.seg_bytes),
            self.segments.peak,
            self.segments.grows,
            self.segments.shrinks,
        );
        let _ = writeln!(
            out,
            "sweep: {} unswept chunks; reclaimed {:.1} MiB on-pause / {:.1} MiB off-pause \
             (refill {} chunks, background {}, straggler {}, escalation {})",
            self.lazy_unswept_chunks,
            mib(self.sweep.on_pause_granules as usize * GRANULE_BYTES),
            mib(self.sweep.off_pause_granules as usize * GRANULE_BYTES),
            self.sweep.refill_chunks,
            self.sweep.bg_chunks,
            self.sweep.straggler_chunks,
            self.sweep.escalation_chunks,
        );
        let shard_granules: usize = self.shards.iter().map(|s| s.free_granules).sum();
        let _ = writeln!(
            out,
            "shards: {} holding {:.1} MiB; wilderness {:.1} MiB in {} extents",
            self.shards.len(),
            mib(shard_granules * GRANULE_BYTES),
            mib(self.wilderness.free_granules * GRANULE_BYTES),
            self.wilderness.extents,
        );
        let _ = writeln!(out, "size classes (free granules / extents):");
        for (c, bin) in self.classes.iter().enumerate() {
            if bin.extents == 0 {
                continue;
            }
            let lo = 1usize << c;
            let _ = writeln!(
                out,
                "  class {c:>2} (>= {lo:>8} granules): {:>10} / {}",
                bin.free_granules, bin.extents,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{AllocCache, HeapConfig, ObjectShape};
    use crate::sweep::sweep_serial;

    fn build_heap() -> Heap {
        let heap = Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            cache_bytes: 8 << 10,
            large_object_bytes: 4 << 10,
            min_free_extent_granules: 2,
            alloc_shards: 4,
            ..HeapConfig::default()
        });
        let mut cache = AllocCache::new();
        for i in 0..1500u32 {
            let shape = ObjectShape::new(i % 4, i % 7, 1);
            loop {
                match heap.alloc_small(&mut cache, shape) {
                    Some(_) => break,
                    None => assert!(heap.refill_cache(&mut cache, shape.granules())),
                }
            }
        }
        heap.retire_cache(&mut cache);
        heap
    }

    #[test]
    fn inspection_is_internally_consistent() {
        let heap = build_heap();
        let insp = inspect(&heap);
        assert_eq!(insp.total_bytes, heap.total_bytes());
        assert_eq!(insp.free_bytes, heap.free_bytes());
        assert!(insp.occupancy > 0.0 && insp.occupancy <= 1.0);
        // Per-class totals cover exactly the shard + wilderness granules.
        let class_granules: usize = insp.classes.iter().map(|b| b.free_granules).sum();
        let shard_granules: usize = insp.shards.iter().map(|b| b.free_granules).sum();
        assert_eq!(
            class_granules,
            shard_granules + insp.wilderness.free_granules
        );
        assert_eq!(class_granules * GRANULE_BYTES, insp.free_bytes);
        let class_extents: usize = insp.classes.iter().map(|b| b.extents).sum();
        assert_eq!(class_extents, insp.free_extents);
        assert!(insp.largest_free_bytes <= insp.free_bytes);
        assert!((0.0..=1.0).contains(&insp.external_fragmentation));
    }

    #[test]
    fn fragmentation_rises_after_partial_sweep() {
        let heap = build_heap();
        let before = inspect(&heap);
        // Nothing marked: sweeping frees everything into few large
        // extents — fragmentation drops, free space rises.
        sweep_serial(&heap, 1 << 10);
        let after = inspect(&heap);
        assert!(after.free_bytes > before.free_bytes);
        assert!(after.largest_free_bytes >= before.largest_free_bytes);
    }

    #[test]
    fn counters_land_in_recorder() {
        let heap = build_heap();
        let rec = SpanRecorder::new(64);
        let insp = inspect(&heap);
        record_counters(&heap, insp.cards_dirty, &rec);
        let pts = rec.counter_points();
        assert_eq!(pts.len(), 12);
        assert!(pts.iter().all(|p| p.name.starts_with("heap_")));
        let value = |name: &str| pts.iter().find(|p| p.name == name).unwrap().value;
        assert!(value("heap_occupancy") > 0.0);
        // The same values an inspection reports.
        assert_eq!(value("heap_occupancy"), insp.occupancy);
        assert_eq!(value("heap_free_bytes"), insp.free_bytes as f64);
        assert_eq!(value("heap_free_extents"), insp.free_extents as f64);
        assert_eq!(
            value("heap_external_fragmentation"),
            insp.external_fragmentation
        );
        assert_eq!(value("heap_cards_dirty"), insp.cards_dirty as f64);
    }

    #[test]
    fn render_mentions_key_lines() {
        let heap = build_heap();
        let text = inspect(&heap).render();
        assert!(text.contains("heap "));
        assert!(text.contains("free extents:"));
        assert!(text.contains("cards:"));
        assert!(text.contains("size classes"));
    }
}
