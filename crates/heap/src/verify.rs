//! A heap verifier used by tests and debug assertions: walks the
//! allocation bit vector and checks structural invariants.

use crate::heap::Heap;
use crate::object::ObjectRef;

/// A structural problem found by [`verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An object extends past the end of the heap.
    ObjectOutOfBounds {
        /// Offending object.
        obj: u32,
        /// Its decoded end granule.
        end: usize,
    },
    /// An object header decodes to zero size.
    ZeroSizeObject {
        /// Offending object.
        obj: u32,
    },
    /// Two allocated objects overlap.
    Overlap {
        /// Earlier object.
        first: u32,
        /// Overlapping later object.
        second: u32,
    },
    /// A reference slot points outside the heap.
    DanglingRef {
        /// Object holding the slot.
        obj: u32,
        /// Slot index.
        slot: u32,
        /// The bad target granule.
        target: u32,
    },
    /// A reference targets a granule with no (published) allocation bit.
    UnpublishedRef {
        /// Object holding the slot.
        obj: u32,
        /// Slot index.
        slot: u32,
        /// The unpublished target.
        target: u32,
    },
    /// A free-list extent overlaps an allocated object.
    FreeListOverlap {
        /// Extent start granule.
        start: usize,
        /// Extent length.
        len: usize,
    },
    /// A marked granule has no allocation bit.
    MarkWithoutAlloc {
        /// The granule.
        granule: usize,
    },
    /// The free list is not address-ordered, or holds a zero-length or
    /// overlapping extent.
    FreeListDisorder {
        /// Offending extent start granule.
        start: usize,
        /// Offending extent length.
        len: usize,
    },
    /// A free-list extent intersects an unmapped (released) segment: an
    /// allocation from it would hand out memory the heap gave back.
    FreeListUnmapped {
        /// Extent start granule.
        start: usize,
        /// Extent length.
        len: usize,
    },
    /// A free-list extent overlaps a chunk the active sweep epoch has
    /// not finished sweeping: extents only enter the free list after
    /// their chunk is published as swept, so this extent was either
    /// forged or double-freed out of an unswept region.
    FreeListUnswept {
        /// Extent start granule.
        start: usize,
        /// Extent length.
        len: usize,
    },
    /// Mark bits are set when a full collection cycle begins: neither
    /// the previous sweep epoch's retirement nor the cycle start cleared
    /// them, and the new cycle would take objects marked last cycle for
    /// already traced.
    StaleMarks {
        /// The lowest marked granule.
        first: usize,
        /// Marked granules in the whole heap.
        count: usize,
    },
    /// A marked (black) object references an unmarked object without
    /// being covered: the mostly-concurrent tri-color invariant (§2.1)
    /// is broken, and the referent would be swept while reachable.
    TriColor {
        /// The marked, already-scanned parent.
        parent: u32,
        /// Slot index holding the uncovered reference.
        slot: u32,
        /// The unmarked child.
        child: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ObjectOutOfBounds { obj, end } => {
                write!(f, "object {obj:#x} extends to {end:#x}, past heap end")
            }
            Violation::ZeroSizeObject { obj } => write!(f, "object {obj:#x} has zero size"),
            Violation::Overlap { first, second } => {
                write!(f, "objects {first:#x} and {second:#x} overlap")
            }
            Violation::DanglingRef { obj, slot, target } => {
                write!(
                    f,
                    "object {obj:#x} slot {slot} points out of heap: {target:#x}"
                )
            }
            Violation::UnpublishedRef { obj, slot, target } => write!(
                f,
                "object {obj:#x} slot {slot} targets unpublished granule {target:#x}"
            ),
            Violation::FreeListOverlap { start, len } => {
                write!(f, "free extent [{start:#x}, +{len}) overlaps a live object")
            }
            Violation::MarkWithoutAlloc { granule } => {
                write!(f, "granule {granule:#x} is marked but not allocated")
            }
            Violation::FreeListDisorder { start, len } => {
                write!(
                    f,
                    "free extent [{start:#x}, +{len}) is out of order, empty, or overlapping"
                )
            }
            Violation::FreeListUnmapped { start, len } => {
                write!(
                    f,
                    "free extent [{start:#x}, +{len}) intersects an unmapped segment"
                )
            }
            Violation::FreeListUnswept { start, len } => {
                write!(
                    f,
                    "free extent [{start:#x}, +{len}) overlaps a chunk the active sweep \
                     epoch has not swept"
                )
            }
            Violation::StaleMarks { first, count } => write!(
                f,
                "{count} mark bits set at cycle start, the first at granule {first:#x}"
            ),
            Violation::TriColor {
                parent,
                slot,
                child,
            } => write!(
                f,
                "tri-color violation: marked object {parent:#x} slot {slot} references \
                 unmarked {child:#x} with no card coverage"
            ),
        }
    }
}

/// Walks the heap and returns every structural violation found.
///
/// Must run while the heap is quiescent (no concurrent mutators) — e.g.,
/// in tests, or at a safepoint with all caches retired. Unpublished
/// references are only reported when `strict_refs` is set, because during
/// a concurrent phase references to still-pending cache allocations are
/// legal (§5.2 defers them).
pub fn verify(heap: &Heap, strict_refs: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let granules = heap.granules();
    let alloc = heap.alloc_bits();

    // Pass 1: object walk.
    let mut prev: Option<(u32, usize)> = None;
    let mut cursor = 1;
    while let Some(start) = alloc.next_set(cursor) {
        let obj = ObjectRef::from_granule(start as u32);
        let h = heap.header(obj);
        let size = h.size_granules as usize;
        if size == 0 {
            violations.push(Violation::ZeroSizeObject { obj: start as u32 });
            cursor = start + 1;
            continue;
        }
        let end = start + size;
        // Past the frontier, or spanning into a hole left by a released
        // segment — either way the object's granules are not all backed.
        if end > granules || !heap.is_range_mapped(start, size) {
            violations.push(Violation::ObjectOutOfBounds {
                obj: start as u32,
                end,
            });
            cursor = start + 1;
            continue;
        }
        if let Some((pobj, pend)) = prev {
            if start < pend {
                violations.push(Violation::Overlap {
                    first: pobj,
                    second: start as u32,
                });
            }
        }
        for i in 0..h.ref_count {
            if let Some(target) = heap.load_ref(obj, i) {
                if target.index() >= granules || !heap.is_range_mapped(target.index(), 1) {
                    violations.push(Violation::DanglingRef {
                        obj: start as u32,
                        slot: i,
                        target: target.granule(),
                    });
                } else if strict_refs && !alloc.get(target.index()) {
                    violations.push(Violation::UnpublishedRef {
                        obj: start as u32,
                        slot: i,
                        target: target.granule(),
                    });
                }
            }
        }
        prev = Some((start as u32, end));
        cursor = start + 1;
    }

    // Pass 2: free extents must be well-formed. The wilderness bin is a
    // next-fit list that keeps address order, so its iteration order is
    // checked directly; shard size-class bins are unordered by design, so
    // across the whole substrate the *sorted* union is checked for
    // zero-length extents, overlap, and alloc-bit intersection.
    let fl = heap.free_list();
    let lazy_plan = heap.lazy_plan();
    let mut prev_end = 0usize;
    for e in fl.wilderness_extents() {
        if e.start < prev_end {
            violations.push(Violation::FreeListDisorder {
                start: e.start,
                len: e.len,
            });
        }
        prev_end = prev_end.max(e.start + e.len);
    }
    let mut all = fl.wilderness_extents();
    all.extend(fl.shard_extents());
    all.sort_unstable_by_key(|e| (e.start, e.len));
    let mut prev_end = 0usize;
    for e in all {
        if e.len == 0 || e.start < prev_end {
            violations.push(Violation::FreeListDisorder {
                start: e.start,
                len: e.len,
            });
        }
        prev_end = prev_end.max(e.start + e.len);
        if alloc.count_range(e.start, (e.start + e.len).min(granules)) != 0 {
            violations.push(Violation::FreeListOverlap {
                start: e.start,
                len: e.len,
            });
        }
        if e.len > 0 && !heap.is_range_mapped(e.start, e.len) {
            violations.push(Violation::FreeListUnmapped {
                start: e.start,
                len: e.len,
            });
        }
        // Epoch-aware audit: the free list is cleared when a sweep epoch
        // is installed and extents re-enter it only after their chunk is
        // published swept, so no extent may overlap a still-unswept
        // chunk of the epoch's snapshot.
        if e.len > 0 {
            if let Some(p) = &lazy_plan {
                if !p.range_fully_swept(e.start, e.start + e.len) {
                    violations.push(Violation::FreeListUnswept {
                        start: e.start,
                        len: e.len,
                    });
                }
            }
        }
    }

    // Pass 3: marks imply allocation.
    let marks = heap.mark_bits();
    let mut m = 0;
    while let Some(g) = marks.next_set(m) {
        if !alloc.get(g) {
            violations.push(Violation::MarkWithoutAlloc { granule: g });
        }
        m = g + 1;
    }

    violations
}

/// Checks that no mark bit is set: the state every full collection
/// cycle must begin in, because retiring the previous sweep epoch clears
/// them all ([`Heap::retire_epoch`]) unless it kept them for a minor
/// cycle, and a full cycle that finds them kept clears them first
/// ([`Heap::clear_marks`]). A minor cycle begins with the previous
/// cycle's marks; [`verify_tricolor`] checks its start instead.
pub fn verify_marks_clear(heap: &Heap) -> Vec<Violation> {
    let marks = heap.mark_bits();
    match marks.next_set(0) {
        Some(first) => vec![Violation::StaleMarks {
            first,
            count: marks.count(),
        }],
        None => Vec::new(),
    }
}

/// Checks the mostly-concurrent tri-color invariant (§2.1): every
/// reference held by a marked (black) object must lead to a marked
/// object, unless something else promises the reference will be
/// revisited — the parent is *grey* (marked but not yet scanned: its
/// entry sits in a work packet), or the parent is *covered* (the card
/// holding its header is dirty or registered for rescanning, so card
/// cleaning will re-trace it).
///
/// `grey(granule)` and `covered(granule)` answer those questions for an
/// object's header granule; the caller derives them from the packet pool
/// and the card table + cleaning registry. Run only at a quiescent point
/// (a safepoint, or in tests): mid-increment the mark bits are racing.
///
/// At the end of marking — after final card cleaning, with the packet
/// pool drained — pass `|_| false` for both and the check is exact:
/// marked objects may only reference marked objects.
pub fn verify_tricolor(
    heap: &Heap,
    grey: impl Fn(usize) -> bool,
    covered: impl Fn(usize) -> bool,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let granules = heap.granules();
    let alloc = heap.alloc_bits();
    let marks = heap.mark_bits();
    let mut cursor = 1;
    while let Some(start) = marks.next_set(cursor) {
        cursor = start + 1;
        // Structural problems (marks without alloc bits, bad headers) are
        // verify()'s business; skip anything it would already flag.
        if !alloc.get(start) {
            continue;
        }
        let obj = ObjectRef::from_granule(start as u32);
        let h = heap.header(obj);
        if h.size_granules == 0 || start + h.size_granules as usize > granules {
            continue;
        }
        if grey(start) || covered(start) {
            continue;
        }
        for i in 0..h.ref_count {
            if let Some(target) = heap.load_ref(obj, i) {
                if target.index() < granules && !marks.get(target.index()) {
                    violations.push(Violation::TriColor {
                        parent: start as u32,
                        slot: i,
                        child: target.granule(),
                    });
                }
            }
        }
    }
    violations
}

/// Panics with a readable report if [`verify`] finds violations.
pub fn assert_heap_valid(heap: &Heap, strict_refs: bool) {
    let v = verify(heap, strict_refs);
    if !v.is_empty() {
        let mut msg = format!("heap verification failed with {} violations:\n", v.len());
        for violation in v.iter().take(20) {
            msg.push_str(&format!("  - {violation}\n"));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{AllocCache, HeapConfig, ObjectShape};

    fn heap() -> Heap {
        Heap::new(HeapConfig::with_heap_bytes(1 << 20))
    }

    #[test]
    fn clean_heap_verifies() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let a = h
            .alloc_small(&mut cache, ObjectShape::new(1, 1, 0))
            .unwrap();
        let b = h
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        h.store_ref_unbarriered(a, 0, Some(b));
        h.retire_cache(&mut cache);
        assert_eq!(verify(&h, true), vec![]);
        assert_heap_valid(&h, true);
    }

    #[test]
    fn pending_refs_only_flagged_in_strict_mode() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let a = h
            .alloc_small(&mut cache, ObjectShape::new(1, 0, 0))
            .unwrap();
        let b = h
            .alloc_small(&mut cache, ObjectShape::new(0, 0, 0))
            .unwrap();
        h.publish_cache(&mut cache);
        let c = h
            .alloc_small(&mut cache, ObjectShape::new(0, 0, 0))
            .unwrap();
        h.store_ref_unbarriered(a, 0, Some(b));
        h.store_ref_unbarriered(a, 0, Some(c)); // c is pending
        assert_eq!(verify(&h, false), vec![]);
        let strict = verify(&h, true);
        assert_eq!(
            strict,
            vec![Violation::UnpublishedRef {
                obj: a.granule(),
                slot: 0,
                target: c.granule()
            }]
        );
    }

    #[test]
    fn detects_mark_without_alloc() {
        let h = heap();
        h.mark_bits().set(500);
        let v = verify(&h, true);
        assert_eq!(v, vec![Violation::MarkWithoutAlloc { granule: 500 }]);
    }

    #[test]
    fn detects_stale_marks() {
        let h = heap();
        assert_eq!(verify_marks_clear(&h), vec![]);
        h.mark_bits().set(700);
        h.mark_bits().set(500);
        let v = verify_marks_clear(&h);
        assert_eq!(
            v,
            vec![Violation::StaleMarks {
                first: 500,
                count: 2
            }]
        );
        assert!(v[0].to_string().contains("2 mark bits set at cycle start"));
    }

    #[test]
    fn detects_zero_size_object() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        // Host object with data granules we can forge headers into.
        let x = h
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        h.retire_cache(&mut cache);
        // An allocation bit inside x's (zeroed) data area decodes as an
        // object of size 0.
        let g = x.index() + 2;
        h.alloc_bits().set(g);
        let v = verify(&h, true);
        assert_eq!(v, vec![Violation::ZeroSizeObject { obj: g as u32 }]);
    }

    #[test]
    fn detects_object_out_of_bounds() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let x = h
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        h.retire_cache(&mut cache);
        // Forge a header whose size runs past the end of the 1 MiB heap.
        let huge = crate::object::Header::new(0, 1 << 20, 0);
        h.store_data(x, 1, huge.encode());
        let g = x.index() + 2;
        h.alloc_bits().set(g);
        let v = verify(&h, true);
        assert_eq!(
            v,
            vec![Violation::ObjectOutOfBounds {
                obj: g as u32,
                end: g + huge.size_granules as usize,
            }]
        );
    }

    #[test]
    fn detects_overlapping_objects() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let x = h
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        h.retire_cache(&mut cache);
        // Forge a well-formed one-granule object inside x.
        let forged = crate::object::Header::new(0, 0, 0);
        h.store_data(x, 1, forged.encode());
        let g = x.index() + 2;
        h.alloc_bits().set(g);
        let v = verify(&h, true);
        assert_eq!(
            v,
            vec![Violation::Overlap {
                first: x.granule(),
                second: g as u32,
            }]
        );
    }

    #[test]
    fn detects_free_list_overlap() {
        let h = heap();
        // An allocation bit in the middle of free space: the covering
        // free extent now overlaps an "object" (which also decodes as
        // zero-size, since the memory is zeroed).
        let g = h.granules() - 100;
        h.alloc_bits().set(g);
        let v = verify(&h, true);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::FreeListOverlap { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::ZeroSizeObject { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_free_list_disorder() {
        use crate::freelist::Extent;
        let h = heap();
        let e = h.free_list().extents_sorted();
        assert!(!e.is_empty());
        // Split the first real extent into two out-of-order pieces.
        let first = e[0];
        let a = Extent {
            start: first.start + 8,
            len: first.len - 8,
        };
        let b = Extent {
            start: first.start,
            len: 8,
        };
        h.free_list().set_extents_unchecked(vec![a, b]);
        let v = verify(&h, true);
        assert_eq!(
            v,
            vec![Violation::FreeListDisorder {
                start: b.start,
                len: b.len,
            }]
        );
    }

    #[test]
    fn detects_tricolor_violation_and_respects_grey_and_coverage() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let a = h
            .alloc_small(&mut cache, ObjectShape::new(1, 0, 0))
            .unwrap();
        let b = h
            .alloc_small(&mut cache, ObjectShape::new(0, 0, 0))
            .unwrap();
        h.retire_cache(&mut cache);
        h.store_ref_unbarriered(a, 0, Some(b));
        // a is black (marked, treated as scanned), b is white, no card
        // coverage: the reference to b would be lost.
        h.mark(a);
        let strict = verify_tricolor(&h, |_| false, |_| false);
        assert_eq!(
            strict,
            vec![Violation::TriColor {
                parent: a.granule(),
                slot: 0,
                child: b.granule(),
            }]
        );
        // Any of the three escape hatches clears it: a is still grey …
        assert_eq!(verify_tricolor(&h, |g| g == a.index(), |_| false), vec![]);
        // … or a's card is covered (dirty / registered for rescanning) …
        assert_eq!(verify_tricolor(&h, |_| false, |g| g == a.index()), vec![]);
        // … or b gets marked.
        h.mark(b);
        assert_eq!(verify_tricolor(&h, |_| false, |_| false), vec![]);
    }

    #[test]
    fn grow_and_shrink_keep_heap_valid_and_holes_are_flagged() {
        use crate::freelist::Extent;
        let h = Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            max_heap_bytes: 2 << 20,
            ..HeapConfig::default()
        });
        // Grown heap verifies clean.
        assert!(h.try_grow());
        assert_eq!(verify(&h, true), vec![]);
        // Release the grown segment again (it is entirely free).
        assert_eq!(h.release_empty_segments(), 1);
        assert_eq!(verify(&h, true), vec![]);
        // Forge an extent reaching into the hole: flagged as unmapped.
        let sg = h.segment_granules();
        let hole = h.segment_stats().initial * sg;
        let mut forged = h.free_list().extents_sorted();
        forged.push(Extent {
            start: hole + 8,
            len: 16,
        });
        h.free_list().set_extents_unchecked(forged);
        let v = verify(&h, true);
        assert_eq!(
            v,
            vec![Violation::FreeListUnmapped {
                start: hole + 8,
                len: 16,
            }]
        );
    }

    #[test]
    fn detects_dangling_ref() {
        let h = heap();
        let mut cache = AllocCache::new();
        h.refill_cache(&mut cache, 1);
        let a = h
            .alloc_small(&mut cache, ObjectShape::new(1, 0, 0))
            .unwrap();
        h.publish_cache(&mut cache);
        // Forge an out-of-heap reference.
        h.store_ref_unbarriered(a, 0, Some(ObjectRef::from_granule(u32::MAX)));
        let v = verify(&h, true);
        assert!(matches!(v[0], Violation::DanglingRef { .. }));
    }
}
