//! The segment table: the heap as a set of independently reserved
//! arenas behind an address-range lookup.
//!
//! The global granule index space is unchanged — [`crate::ObjectRef`] is
//! still a `u32` granule index — but the backing storage is split into
//! fixed-size, power-of-two-aligned **segments**, each carrying its own
//! slot arena, allocation/mark bitmaps, and card table. Segments are
//! committed (grown) and released (shrunk) at runtime:
//!
//! * **Grow** publishes a fully constructed [`Segment`] into its table
//!   slot with a release CAS; readers acquire-load the slot, so a
//!   non-null pointer always refers to a completely initialized segment.
//! * **Release** happens only under stop-the-world (the parallel sweep's
//!   finish step), and only for segments whose granules are entirely
//!   free. The segment is *parked*, not deallocated: a concurrent
//!   telemetry reader that acquired the pointer just before the swap may
//!   still be walking the (empty) bitmaps, so the backing allocation
//!   stays alive until the table is dropped — the committed-granule
//!   accounting, free list, and telemetry all observe the shrink
//!   immediately, and a later grow of the same slot scrubs and reuses
//!   the parked arena instead of reserving a fresh one. This models
//!   `munmap`/`mmap` without a reclamation epoch.
//!
//! Segment size is a power of two and a multiple of 512 granules, so a
//! segment boundary is simultaneously a bitmap-word boundary (64
//! granules), a card boundary (64 granules), and a card-table-word
//! boundary (8 cards): every word-granular operation on the facades
//! ([`HeapBitmap`], [`HeapCards`]) stays inside one segment.
//!
//! A table slot that was released (or never committed) is a **hole**.
//! The facades give holes absorbing semantics — reads see empty
//! (unmarked, unallocated, clean), bulk clears skip them — while
//! single-bit publication into a hole panics: no live object can exist
//! there, so a write means the caller holds a dangling granule index.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::cards::CardTable;
use crate::object::GRANULES_PER_CARD;

/// Granule alignment every segment honours: one card-table word (8 cards
/// of 64 granules) and 8 mark/alloc bitmap words.
pub const SEGMENT_ALIGN_GRANULES: usize = 512;

/// One independently reserved arena: slots plus its own side metadata.
pub struct Segment {
    /// First global granule this segment covers.
    base: usize,
    /// Granules in this segment (the table's uniform segment size).
    granules: usize,
    /// Slot storage (one `AtomicU64` per granule).
    slots: Box<[AtomicU64]>,
    /// Allocation bits, indexed by segment-local granule.
    alloc: Bitmap,
    /// Mark bits, indexed by segment-local granule.
    marks: Bitmap,
    /// Card table covering this segment's granules.
    cards: CardTable,
}

impl Segment {
    fn new(base: usize, granules: usize) -> Segment {
        Segment {
            base,
            granules,
            slots: (0..granules).map(|_| AtomicU64::new(0)).collect(),
            alloc: Bitmap::new(granules),
            marks: Bitmap::new(granules),
            cards: CardTable::new(granules),
        }
    }

    /// First global granule of this segment.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Resets a parked segment for recommitment: side metadata cleared
    /// (slot contents are irrelevant — allocation zeroes object granules
    /// at format time).
    fn scrub(&self) {
        self.alloc.clear_all();
        self.marks.clear_all();
        self.cards.clear_all();
    }

    /// Allocation bits, indexed by segment-local granule.
    #[inline]
    pub(crate) fn alloc_bits(&self) -> &Bitmap {
        &self.alloc
    }

    /// Mark bits, indexed by segment-local granule.
    #[inline]
    pub(crate) fn mark_bits(&self) -> &Bitmap {
        &self.marks
    }

    #[inline]
    pub(crate) fn slot(&self, offset: usize) -> &AtomicU64 {
        &self.slots[offset]
    }

    /// Slots `range` (segment-local), or `None` when the range runs past
    /// this segment's end.
    #[inline]
    pub(crate) fn slots(&self, range: std::ops::Range<usize>) -> Option<&[AtomicU64]> {
        self.slots.get(range)
    }
}

/// Which bitmap a [`HeapBitmap`] facade addresses.
#[derive(Copy, Clone, Debug)]
pub(crate) enum BitKind {
    Alloc,
    Mark,
}

/// The address-range lookup: `max_segments` slots, each holding either a
/// committed [`Segment`] or null (a hole).
pub struct SegmentTable {
    /// Granules per segment (power of two, multiple of
    /// [`SEGMENT_ALIGN_GRANULES`]).
    seg_granules: usize,
    /// `seg_granules == 1 << shift`.
    shift: u32,
    /// Segments committed at construction; these are never released, so
    /// the original heap floor is always mapped.
    initial: usize,
    /// Committed segments by index; null = hole.
    slots: Box<[AtomicPtr<Segment>]>,
    /// Released segments parked for reuse (see module docs); one slot per
    /// index, only ever populated for indices `>= initial`.
    parked: Box<[AtomicPtr<Segment>]>,
    /// Segment-count high-water mark *by index*: every committed segment
    /// has index < frontier. Monotone, so address-space-derived sizes
    /// (bitmap word counts, card counts, sweep chunk counts) never
    /// shrink mid-operation.
    frontier: AtomicUsize,
    /// Granules currently committed.
    committed_granules: AtomicUsize,
    /// Segments currently committed.
    committed_segs: AtomicUsize,
    /// Most segments ever committed at once.
    peak_segs: AtomicUsize,
    /// Total grow (commit) events.
    grows: AtomicU64,
    /// Total shrink (release) events.
    shrinks: AtomicU64,
}

impl SegmentTable {
    /// Creates a table with `initial` committed segments of
    /// `seg_granules` granules each, growable to `max_segments`.
    pub fn new(initial: usize, seg_granules: usize, max_segments: usize) -> SegmentTable {
        assert!(seg_granules.is_power_of_two() && seg_granules >= SEGMENT_ALIGN_GRANULES);
        assert!(initial >= 1 && initial <= max_segments);
        let slots: Box<[AtomicPtr<Segment>]> = (0..max_segments)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        for (i, slot) in slots.iter().enumerate().take(initial) {
            let seg = Box::into_raw(Box::new(Segment::new(i * seg_granules, seg_granules)));
            slot.store(seg, Ordering::Release);
        }
        SegmentTable {
            seg_granules,
            shift: seg_granules.trailing_zeros(),
            initial,
            slots,
            parked: (0..max_segments)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            frontier: AtomicUsize::new(initial),
            committed_granules: AtomicUsize::new(initial * seg_granules),
            committed_segs: AtomicUsize::new(initial),
            peak_segs: AtomicUsize::new(initial),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
        }
    }

    /// Granules per segment.
    #[inline]
    pub fn seg_granules(&self) -> usize {
        self.seg_granules
    }

    /// Segments committed at construction (never released).
    pub fn initial_segments(&self) -> usize {
        self.initial
    }

    /// Hard-limit segment capacity.
    pub fn max_segments(&self) -> usize {
        self.slots.len()
    }

    /// Segments currently committed.
    pub fn segments_committed(&self) -> usize {
        self.committed_segs.load(Ordering::Relaxed)
    }

    /// Most segments ever committed at once.
    pub fn segments_peak(&self) -> usize {
        self.peak_segs.load(Ordering::Relaxed)
    }

    /// Granules currently committed.
    pub fn committed_granules(&self) -> usize {
        self.committed_granules.load(Ordering::Relaxed)
    }

    /// Total grow (commit) events since construction.
    pub fn grow_count(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }

    /// Total shrink (release) events since construction.
    pub fn shrink_count(&self) -> u64 {
        self.shrinks.load(Ordering::Relaxed)
    }

    /// One-past-the-last committed segment index (monotone).
    #[inline]
    pub fn frontier(&self) -> usize {
        self.frontier.load(Ordering::Relaxed)
    }

    /// Granule-space extent: `frontier * seg_granules`. Holes below the
    /// frontier are *inside* this range; the facades skip them.
    #[inline]
    pub fn frontier_granules(&self) -> usize {
        self.frontier() << self.shift
    }

    /// Bitmask of committed segments (bit `i` = segment `i`; segments
    /// past 63 are not representable and are summarized by the committed
    /// count alongside).
    pub fn segment_map(&self) -> u64 {
        let mut map = 0u64;
        for si in 0..self.frontier().min(64) {
            if self.seg(si).is_some() {
                map |= 1 << si;
            }
        }
        map
    }

    /// The committed segment with index `si`, or `None` for a hole or an
    /// out-of-range index.
    #[inline]
    pub(crate) fn seg(&self, si: usize) -> Option<&Segment> {
        let p = self.slots.get(si)?.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: non-null slot pointers come from `Box::into_raw` of
            // a fully constructed `Segment`, published with release
            // ordering (store/CAS) and acquire-loaded here. Released
            // segments are parked, never deallocated, until the table
            // itself drops — so the pointee outlives every borrow derived
            // from `&self`.
            Some(unsafe { &*p })
        }
    }

    /// The segment containing global granule `g` plus the segment-local
    /// offset, or `None` when `g` falls in a hole or past the frontier.
    #[inline]
    pub(crate) fn seg_of_granule(&self, g: usize) -> Option<(&Segment, usize)> {
        let seg = self.seg(g >> self.shift)?;
        Some((seg, g & (self.seg_granules - 1)))
    }

    /// True if global granule `g` lies in a committed segment.
    #[inline]
    pub fn is_mapped(&self, g: usize) -> bool {
        self.seg(g >> self.shift).is_some()
    }

    /// True if the whole granule range `[start, start + len)` lies in
    /// committed segments.
    pub fn is_range_mapped(&self, start: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let mut si = start >> self.shift;
        let last = (start + len - 1) >> self.shift;
        while si <= last {
            if self.seg(si).is_none() {
                return false;
            }
            si += 1;
        }
        true
    }

    /// The maximal committed subranges of `[start, end)`, in address
    /// order. Adjacent committed segments coalesce into one range.
    pub fn mapped_ranges(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let end = end.min(self.frontier_granules());
        let mut g = start;
        while g < end {
            let si = g >> self.shift;
            let seg_end = (si + 1) << self.shift;
            if self.seg(si).is_some() {
                match out.last_mut() {
                    Some((_, e)) if *e == g => *e = seg_end.min(end),
                    _ => out.push((g, seg_end.min(end))),
                }
            }
            g = seg_end;
        }
        out
    }

    /// Commits one segment: the first hole below `max_segments` gains a
    /// (reused or fresh) arena. Returns the new segment's index, or
    /// `None` at the hard limit. Concurrent committers race on the CAS
    /// and retry on later slots, so two growers get two distinct
    /// segments.
    pub fn commit_one(&self) -> Option<usize> {
        for si in 0..self.slots.len() {
            if !self.slots[si].load(Ordering::Relaxed).is_null() {
                continue;
            }
            // Reuse the parked arena for this index if a release left
            // one, else reserve fresh.
            let parked = self.parked[si].swap(std::ptr::null_mut(), Ordering::AcqRel);
            let seg = if parked.is_null() {
                Box::into_raw(Box::new(Segment::new(si << self.shift, self.seg_granules)))
            } else {
                // SAFETY: `parked` slots hold `Box::into_raw` pointers
                // stored by `release`; the swap above transferred sole
                // ownership of this one to us.
                unsafe { (*parked).scrub() };
                parked
            };
            match self.slots[si].compare_exchange(
                std::ptr::null_mut(),
                seg,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.frontier.fetch_max(si + 1, Ordering::Relaxed);
                    self.committed_granules
                        .fetch_add(self.seg_granules, Ordering::Relaxed);
                    let now = self.committed_segs.fetch_add(1, Ordering::Relaxed) + 1;
                    self.peak_segs.fetch_max(now, Ordering::Relaxed);
                    self.grows.fetch_add(1, Ordering::Relaxed);
                    return Some(si);
                }
                Err(_) => {
                    // Lost the race for this slot; park the arena back
                    // and try the next hole.
                    self.parked[si].store(seg, Ordering::Release);
                }
            }
        }
        None
    }

    /// Releases segment `si` (parks its arena for reuse). Caller must
    /// guarantee a stop-the-world context and that the segment's
    /// granules are entirely free (off every allocation path).
    ///
    /// # Panics
    /// Panics if `si` is an initial segment or already a hole.
    pub fn release(&self, si: usize) {
        assert!(si >= self.initial, "initial segments are never released");
        let p = self.slots[si].swap(std::ptr::null_mut(), Ordering::AcqRel);
        assert!(!p.is_null(), "segment {si} already released");
        self.parked[si].store(p, Ordering::Release);
        self.committed_granules
            .fetch_sub(self.seg_granules, Ordering::Relaxed);
        self.committed_segs.fetch_sub(1, Ordering::Relaxed);
        self.shrinks.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for SegmentTable {
    fn drop(&mut self) {
        for slot in self.slots.iter().chain(self.parked.iter()) {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: every non-null slot/parked pointer came from
                // `Box::into_raw` and is owned exclusively by the table;
                // `&mut self` means no reader can hold a borrow.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl std::fmt::Debug for SegmentTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentTable")
            .field("seg_granules", &self.seg_granules)
            .field("committed", &self.segments_committed())
            .field("frontier", &self.frontier())
            .field("max", &self.max_segments())
            .finish()
    }
}

/// A heap-wide bitmap view over the per-segment bitmaps. Mirrors the
/// [`Bitmap`] API; granule indices are global. Holes read as all-clear
/// and absorb bulk clears; publishing a single bit into a hole panics.
pub struct HeapBitmap {
    table: Arc<SegmentTable>,
    kind: BitKind,
}

impl HeapBitmap {
    pub(crate) fn new(table: Arc<SegmentTable>, kind: BitKind) -> HeapBitmap {
        HeapBitmap { table, kind }
    }

    #[inline]
    fn bm<'a>(&self, seg: &'a Segment) -> &'a Bitmap {
        match self.kind {
            BitKind::Alloc => &seg.alloc,
            BitKind::Mark => &seg.marks,
        }
    }

    /// Bits addressable (the granule frontier; holes included).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.frontier_granules()
    }

    /// True if the heap has no granules (never in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads bit `i`; unmapped granules read clear.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self.table.seg_of_granule(i) {
            Some((s, off)) => self.bm(s).get(off),
            None => false,
        }
    }

    /// Atomically sets bit `i`; returns true if this call won.
    ///
    /// # Panics
    /// Panics if `i` lies in an unmapped segment: no object can live in
    /// a hole, so the caller's granule index is dangling.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        let (s, off) = self
            .table
            .seg_of_granule(i)
            .expect("bit set in unmapped segment");
        self.bm(s).set(off)
    }

    /// Atomically sets the bits at `granules`: one segment lookup per run
    /// of granules inside one segment, and one `fetch_or` per bitmap word
    /// the run touches. Any order is correct; ascending order (a
    /// bump-allocated cache's pending starts) makes the runs whole
    /// segments. No word straddles two segments (module docs), so a word
    /// is always ORed into the segment its granules belong to.
    ///
    /// # Panics
    /// Panics if a granule lies in an unmapped segment, like
    /// [`HeapBitmap::set`].
    pub(crate) fn set_many(&self, granules: &[u32]) {
        let seg_granules = self.table.seg_granules();
        let mut rest = granules;
        while let Some(&first) = rest.first() {
            let (s, off) = self
                .table
                .seg_of_granule(first as usize)
                .expect("bit set in unmapped segment");
            let base = first as usize - off;
            let bm = self.bm(s);
            let mut word = off / 64;
            let mut mask = 0u64;
            let mut taken = 0;
            for &g in rest {
                let local = (g as usize).wrapping_sub(base);
                if local >= seg_granules {
                    break;
                }
                if local / 64 != word {
                    bm.or_word(word, mask);
                    word = local / 64;
                    mask = 0;
                }
                mask |= 1 << (local % 64);
                taken += 1;
            }
            bm.or_word(word, mask);
            rest = &rest[taken..];
        }
    }

    /// Atomically clears bit `i`; returns true if it was set. Unmapped
    /// granules were already clear.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        match self.table.seg_of_granule(i) {
            Some((s, off)) => self.bm(s).clear(off),
            None => false,
        }
    }

    /// Clears every bit (skipping holes, which hold none).
    pub fn clear_all(&self) {
        for si in 0..self.table.frontier() {
            if let Some(s) = self.table.seg(si) {
                self.bm(s).clear_all();
            }
        }
    }

    /// Number of 64-bit words covering the frontier.
    pub fn word_len(&self) -> usize {
        self.len() / 64
    }

    /// Loads word `w`; words over holes read zero.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        let wps = self.table.seg_granules() / 64;
        match self.table.seg(w / wps) {
            Some(s) => self.bm(s).load_word(w & (wps - 1)),
            None => 0,
        }
    }

    /// Index of the first set bit at or after `from`, skipping holes.
    pub fn next_set(&self, from: usize) -> Option<usize> {
        self.next_set_before(from, self.len())
    }

    /// First set bit in `[from, end)`, skipping holes.
    pub fn next_set_before(&self, from: usize, end: usize) -> Option<usize> {
        let end = end.min(self.len());
        let mut g = from;
        while g < end {
            let si = g >> self.table.shift;
            let base = si << self.table.shift;
            let seg_end = base + self.table.seg_granules();
            if let Some(s) = self.table.seg(si) {
                let local_end = end.min(seg_end) - base;
                if let Some(off) = self.bm(s).next_set_before(g - base, local_end) {
                    return Some(base + off);
                }
            }
            g = seg_end;
        }
        None
    }

    /// Greatest set bit strictly below `before`, skipping holes.
    pub fn prev_set(&self, before: usize) -> Option<usize> {
        let mut b = before.min(self.len());
        while b > 0 {
            let si = (b - 1) >> self.table.shift;
            let base = si << self.table.shift;
            if let Some(s) = self.table.seg(si) {
                if let Some(off) = self.bm(s).prev_set(b - base) {
                    return Some(base + off);
                }
            }
            b = base;
        }
        None
    }

    /// Number of set bits in `[start, end)` (holes contribute zero).
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        let mut n = 0;
        for (rs, re) in self.table.mapped_ranges(start, end) {
            let mut g = rs;
            while g < re {
                let (s, off) = self.table.seg_of_granule(g).expect("mapped range");
                let seg_end = g - off + s.granules;
                let stop = re.min(seg_end);
                n += self.bm(s).count_range(off, off + (stop - g));
                g = stop;
            }
        }
        n
    }

    /// Total set bits.
    pub fn count(&self) -> usize {
        self.count_range(0, self.len())
    }
}

impl std::fmt::Debug for HeapBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapBitmap")
            .field("kind", &self.kind)
            .field("len", &self.len())
            .field("count", &self.count())
            .finish()
    }
}

/// A heap-wide card-table view over the per-segment card tables. Card
/// indices are global (granule / [`GRANULES_PER_CARD`]). Cards over
/// holes read clean; dirtying one panics (the write barrier only runs
/// against live objects, which never sit in a hole).
pub struct HeapCards {
    table: Arc<SegmentTable>,
}

impl HeapCards {
    pub(crate) fn new(table: Arc<SegmentTable>) -> HeapCards {
        HeapCards { table }
    }

    #[inline]
    fn cards_per_seg(&self) -> usize {
        self.table.seg_granules() / GRANULES_PER_CARD
    }

    /// Cards covering the granule frontier (holes included).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.frontier() * self.cards_per_seg()
    }

    /// True if the table covers zero cards.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dirties `card` (the write-barrier store).
    ///
    /// # Panics
    /// Panics if the card lies in an unmapped segment.
    #[inline]
    pub fn dirty(&self, card: usize) {
        let cps = self.cards_per_seg();
        let s = self
            .table
            .seg(card / cps)
            .expect("card dirtied in unmapped segment");
        s.cards.dirty(card & (cps - 1));
    }

    /// Reads whether `card` is dirty; cards over holes read clean.
    #[inline]
    pub fn is_dirty(&self, card: usize) -> bool {
        let cps = self.cards_per_seg();
        match self.table.seg(card / cps) {
            Some(s) => s.cards.is_dirty(card & (cps - 1)),
            None => false,
        }
    }

    /// Clears `card`'s dirty indicator (no-op over a hole).
    #[inline]
    pub fn clear(&self, card: usize) {
        let cps = self.cards_per_seg();
        if let Some(s) = self.table.seg(card / cps) {
            s.cards.clear(card & (cps - 1));
        }
    }

    /// Clears the whole table, skipping holes.
    pub fn clear_all(&self) {
        for si in 0..self.table.frontier() {
            if let Some(s) = self.table.seg(si) {
                s.cards.clear_all();
            }
        }
    }

    /// §5.3 register-and-clear over global card range `[start, end)`:
    /// pushes the global indices of dirty cards onto `out` and clears
    /// their indicators, segment by segment.
    pub fn snapshot_dirty(&self, start: usize, end: usize, out: &mut Vec<usize>) {
        let cps = self.cards_per_seg();
        let end = end.min(self.len());
        let mut c = start;
        while c < end {
            let si = c / cps;
            let base = si * cps;
            let seg_end = base + cps;
            if let Some(s) = self.table.seg(si) {
                let n0 = out.len();
                s.cards
                    .snapshot_dirty(c - base, end.min(seg_end) - base, out);
                // The per-segment table pushes local indices; rebase.
                for v in &mut out[n0..] {
                    *v += base;
                }
            }
            c = seg_end;
        }
    }

    /// Counts dirty cards across committed segments.
    pub fn count_dirty(&self) -> usize {
        let mut n = 0;
        for si in 0..self.table.frontier() {
            if let Some(s) = self.table.seg(si) {
                n += s.cards.count_dirty();
            }
        }
        n
    }
}

impl std::fmt::Debug for HeapCards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapCards")
            .field("cards", &self.len())
            .field("dirty", &self.count_dirty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(initial: usize, max: usize) -> Arc<SegmentTable> {
        Arc::new(SegmentTable::new(initial, SEGMENT_ALIGN_GRANULES, max))
    }

    #[test]
    fn commit_and_release_roundtrip() {
        let t = table(2, 4);
        assert_eq!(t.segments_committed(), 2);
        assert_eq!(t.frontier_granules(), 2 * 512);
        assert_eq!(t.segment_map(), 0b11);

        let si = t.commit_one().unwrap();
        assert_eq!(si, 2);
        assert_eq!(t.segments_committed(), 3);
        assert_eq!(t.committed_granules(), 3 * 512);
        assert_eq!(t.grow_count(), 1);
        assert_eq!(t.segment_map(), 0b111);

        t.release(2);
        assert_eq!(t.segments_committed(), 2);
        assert_eq!(t.shrink_count(), 1);
        assert!(!t.is_mapped(2 * 512));
        // Frontier is monotone: the hole stays inside the address range.
        assert_eq!(t.frontier_granules(), 3 * 512);
        assert_eq!(t.segment_map(), 0b011);

        // Recommit reuses the parked arena.
        assert_eq!(t.commit_one(), Some(2));
        assert_eq!(t.segments_peak(), 3);
        assert_eq!(t.grow_count(), 2);
    }

    #[test]
    fn commit_stops_at_hard_limit() {
        let t = table(1, 2);
        assert_eq!(t.commit_one(), Some(1));
        assert_eq!(t.commit_one(), None);
        assert_eq!(t.segments_committed(), 2);
    }

    #[test]
    #[should_panic(expected = "never released")]
    fn initial_segments_cannot_be_released() {
        table(2, 4).release(1);
    }

    #[test]
    fn bitmap_facade_skips_holes() {
        let t = table(1, 4);
        t.commit_one();
        t.commit_one();
        t.commit_one();
        let bm = HeapBitmap::new(Arc::clone(&t), BitKind::Mark);
        assert_eq!(bm.len(), 4 * 512);
        bm.set(100);
        bm.set(512 + 7);
        bm.set(3 * 512 + 5);
        t.release(1); // hole over the middle bit
        assert!(!bm.get(512 + 7), "hole reads clear");
        assert_eq!(bm.next_set(101), Some(3 * 512 + 5), "walk skips the hole");
        assert_eq!(bm.prev_set(3 * 512 + 5), Some(100));
        assert_eq!(bm.count(), 2);
        assert_eq!(bm.count_range(0, 2 * 512), 1);
        assert_eq!(bm.load_word(512 / 64), 0, "word over a hole reads zero");
        bm.clear_all(); // must not touch the hole
        assert_eq!(bm.count(), 0);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn bitmap_set_in_hole_panics() {
        let t = table(1, 4);
        t.commit_one();
        t.release(1);
        HeapBitmap::new(t, BitKind::Alloc).set(512 + 3);
    }

    #[test]
    fn bitmap_word_ops_cross_segments() {
        let t = table(2, 2);
        let bm = HeapBitmap::new(Arc::clone(&t), BitKind::Alloc);
        assert_eq!(bm.word_len(), 2 * 512 / 64);
        bm.set(63);
        bm.set(512);
        assert_eq!(bm.load_word(0), 1 << 63);
        assert_eq!(bm.load_word(512 / 64), 1);
        bm.clear_all();
        assert_eq!(bm.count(), 0);
    }

    #[test]
    fn cards_facade_rebases_snapshot_indices() {
        let t = table(1, 3);
        t.commit_one();
        t.commit_one();
        let cards = HeapCards::new(Arc::clone(&t));
        let cps = 512 / GRANULES_PER_CARD;
        assert_eq!(cards.len(), 3 * cps);
        cards.dirty(1);
        cards.dirty(cps + 2); // second segment
        cards.dirty(2 * cps + 3); // third segment
        assert!(cards.is_dirty(cps + 2));
        assert_eq!(cards.count_dirty(), 3);
        t.release(1);
        assert!(!cards.is_dirty(cps + 2), "hole reads clean");
        let mut snap = Vec::new();
        cards.snapshot_dirty(0, cards.len(), &mut snap);
        assert_eq!(snap, vec![1, 2 * cps + 3], "global indices, hole skipped");
        assert_eq!(cards.count_dirty(), 0);
    }

    #[test]
    fn mapped_ranges_coalesce_and_clip() {
        let t = table(1, 4);
        t.commit_one();
        t.commit_one();
        t.commit_one();
        t.release(2);
        assert_eq!(
            t.mapped_ranges(0, 4 * 512),
            vec![(0, 2 * 512), (3 * 512, 4 * 512)]
        );
        assert_eq!(t.mapped_ranges(100, 600), vec![(100, 600)]);
        assert_eq!(t.mapped_ranges(2 * 512, 3 * 512), vec![]);
        assert!(t.is_range_mapped(0, 1024));
        assert!(!t.is_range_mapped(1024, 1024));
    }
}
