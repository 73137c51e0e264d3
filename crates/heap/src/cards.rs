//! The card table used by the write barrier (paper §2, §5.3).
//!
//! One byte per 512-byte card, packed eight cards to a `u64` word. The
//! write barrier dirties the card of the object whose reference slot was
//! updated with a single relaxed byte store; collector-side scans
//! (snapshot, counting, bulk clears) walk the table a word at a time — a
//! zero word skips eight clean cards in one load, and `trailing_zeros`
//! jumps straight to the next dirty lane, mirroring the mark-bitmap walk
//! in [`crate::bitmap`]. Card *cleaning* rescans marked objects on dirty
//! cards to pick up references stored after they were traced. The §5.3
//! snapshot protocol (register dirty cards, clear the indicators,
//! handshake, then clean from the registry) is implemented by
//! [`CardTable::snapshot_dirty`] plus the collector's fence handshake.
//!
//! # On mixed-size atomics
//!
//! Mutators store bytes while scans load words, which the C++/Rust
//! memory model does not fully bless (non-synchronized conflicting
//! atomic accesses of different sizes). The table is deliberately
//! structured so that no correctness property depends on a word read:
//! word loads only *filter* which lanes to visit, and the authoritative
//! register-and-clear is a same-size per-byte `swap`. A racy word read
//! can at worst delay a card to the next scan (it stays dirty in the
//! table), which is exactly the guarantee the byte-at-a-time loop gave
//! under relaxed loads. This is the standard card-table layout of
//! production collectors (HotSpot, MMTk side metadata).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::object::GRANULES_PER_CARD;

const CLEAN: u8 = 0;
const DIRTY: u8 = 1;
/// Cards packed into one `u64` scan word.
const CARDS_PER_WORD: usize = 8;

/// A concurrent card table, one byte per card, scanned word-at-a-time.
pub struct CardTable {
    /// Card bytes packed eight to a word. The write barrier addresses
    /// single bytes through [`CardTable::byte`]; scans load whole words.
    words: Box<[AtomicU64]>,
    /// Number of cards actually covering heap (the last word may have
    /// trailing padding lanes, which are never dirtied).
    n_cards: usize,
}

impl CardTable {
    /// Creates a card table covering `granules` granules of heap.
    pub fn new(granules: usize) -> CardTable {
        let n = granules.div_ceil(GRANULES_PER_CARD);
        let words = n.div_ceil(CARDS_PER_WORD);
        CardTable {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            n_cards: n,
        }
    }

    /// Number of cards.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_cards
    }

    /// True if the table covers zero cards.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_cards == 0
    }

    /// Byte view of one card's indicator.
    #[inline]
    fn byte(&self, card: usize) -> &AtomicU8 {
        assert!(card < self.n_cards, "card {card} out of bounds");
        // SAFETY: `card < n_cards <= words.len() * CARDS_PER_WORD`, so
        // the byte at offset `card` lies inside the `words` allocation,
        // and `AtomicU8` has size 1 and the same representation as one
        // byte of an `AtomicU64`. Mixed-size access is confined to the
        // advisory word loads (see module docs).
        unsafe { &*self.words.as_ptr().cast::<AtomicU8>().add(card) }
    }

    /// Dirties `card`. This is the write-barrier store; a plain relaxed
    /// store, with **no fence** (paper §5: "no fence at all in the write
    /// barrier") — the snapshot protocol on the collector side compensates.
    #[inline]
    pub fn dirty(&self, card: usize) {
        self.byte(card).store(DIRTY, Ordering::Relaxed);
    }

    /// Reads whether `card` is dirty.
    #[inline]
    pub fn is_dirty(&self, card: usize) -> bool {
        self.byte(card).load(Ordering::Relaxed) == DIRTY
    }

    /// Clears the dirty indicator of `card`.
    #[inline]
    pub fn clear(&self, card: usize) {
        self.byte(card).store(CLEAN, Ordering::Relaxed);
    }

    /// Clears the whole table (collector initialization, at a safepoint).
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Step 1 of the §5.3 card-cleaning protocol: scan the table,
    /// *register* (return) all dirty card indices in `[start, end)` and
    /// clear their indicators.
    ///
    /// Walks eight cards per word load, skipping clean words outright;
    /// each candidate lane is then cleared with a per-byte `swap`, which
    /// avoids losing a concurrent re-dirty: if the mutator dirties
    /// between our load and clear, the swap still observes `DIRTY` and
    /// registers the card.
    ///
    /// The caller must force a mutator fence handshake before scanning the
    /// registered cards' contents.
    pub fn snapshot_dirty(&self, start: usize, end: usize, out: &mut Vec<usize>) {
        debug_assert!(start <= end && end <= self.n_cards);
        let first = start / CARDS_PER_WORD;
        // The loop over clean words, nearly all of a pause's table, keeps
        // its state in registers because the dirty-word path, which can
        // grow `out`, is out of line: inlined, it makes the compiler keep
        // the word index in a stack slot, a store-to-load chain per word
        // whose cost depends on where the loop is placed.
        for (i, word) in self.words[first..end.div_ceil(CARDS_PER_WORD)]
            .iter()
            .enumerate()
        {
            let lanes = word.load(Ordering::Relaxed);
            if lanes != 0 {
                self.take_dirty_lanes(first + i, lanes, start, end, out);
            }
        }
    }

    /// Registers and clears the dirty cards in `[start, end)` among the
    /// lanes of word `w`, which read `lanes`.
    #[inline(never)]
    fn take_dirty_lanes(
        &self,
        w: usize,
        lanes: u64,
        start: usize,
        end: usize,
        out: &mut Vec<usize>,
    ) {
        let word_base = w * CARDS_PER_WORD;
        // `to_le` makes lane i of the integer correspond to memory
        // byte (= card) word_base + i on either endianness.
        let mut lanes = lanes.to_le();
        if start > word_base {
            lanes &= !0u64 << ((start - word_base) * 8);
        }
        let word_end = word_base + CARDS_PER_WORD;
        if end < word_end {
            lanes &= !0u64 >> ((word_end - end) * 8);
        }
        while lanes != 0 {
            let lane = (lanes.trailing_zeros() / 8) as usize;
            let card = word_base + lane;
            if self.byte(card).swap(CLEAN, Ordering::Relaxed) == DIRTY {
                out.push(card);
            }
            lanes &= !(0xFFu64 << (lane * 8));
        }
    }

    /// Counts dirty cards in the whole table (diagnostics / metering).
    ///
    /// Card bytes only ever hold 0 or 1, so a word's popcount is its
    /// dirty-card count.
    pub fn count_dirty(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// First granule of `card`.
    #[inline]
    pub fn card_start_granule(card: usize) -> usize {
        card * GRANULES_PER_CARD
    }

    /// One-past-last granule of `card`, clamped to `heap_granules`.
    #[inline]
    pub fn card_end_granule(card: usize, heap_granules: usize) -> usize {
        ((card + 1) * GRANULES_PER_CARD).min(heap_granules)
    }
}

impl std::fmt::Debug for CardTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CardTable")
            .field("cards", &self.n_cards)
            .field("dirty", &self.count_dirty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_and_snapshot() {
        let t = CardTable::new(GRANULES_PER_CARD * 10);
        assert_eq!(t.len(), 10);
        t.dirty(3);
        t.dirty(7);
        t.dirty(7);
        assert!(t.is_dirty(3));
        assert_eq!(t.count_dirty(), 2);

        let mut snap = Vec::new();
        t.snapshot_dirty(0, 10, &mut snap);
        assert_eq!(snap, vec![3, 7]);
        assert_eq!(t.count_dirty(), 0, "snapshot clears indicators");

        snap.clear();
        t.snapshot_dirty(0, 10, &mut snap);
        assert!(snap.is_empty());
    }

    #[test]
    fn snapshot_range_partial() {
        let t = CardTable::new(GRANULES_PER_CARD * 8);
        for c in 0..8 {
            t.dirty(c);
        }
        let mut snap = Vec::new();
        t.snapshot_dirty(2, 5, &mut snap);
        assert_eq!(snap, vec![2, 3, 4]);
        assert_eq!(t.count_dirty(), 5, "cards outside range untouched");
    }

    #[test]
    fn snapshot_range_straddles_words() {
        // A range crossing word boundaries, with dirty cards in the
        // masked-off lanes on both sides.
        let t = CardTable::new(GRANULES_PER_CARD * 24);
        for c in [5, 6, 8, 12, 15, 16, 20, 23] {
            t.dirty(c);
        }
        let mut snap = Vec::new();
        t.snapshot_dirty(6, 21, &mut snap);
        assert_eq!(snap, vec![6, 8, 12, 15, 16, 20]);
        assert!(t.is_dirty(5) && t.is_dirty(23), "outside lanes untouched");
        assert_eq!(t.count_dirty(), 2);
    }

    #[test]
    fn rounds_up_partial_card() {
        let t = CardTable::new(GRANULES_PER_CARD + 1);
        assert_eq!(t.len(), 2);
        assert_eq!(
            CardTable::card_end_granule(1, GRANULES_PER_CARD + 1),
            GRANULES_PER_CARD + 1
        );
        assert_eq!(CardTable::card_start_granule(1), GRANULES_PER_CARD);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn padding_lanes_are_not_addressable() {
        // 2 cards share a word with 6 padding lanes; the byte view must
        // still bounds-check against the card count, not the word count.
        let t = CardTable::new(GRANULES_PER_CARD * 2);
        t.dirty(2);
    }

    #[test]
    fn concurrent_dirty_never_lost() {
        // A card dirtied concurrently with snapshotting must end up either
        // in the snapshot or still dirty in the table.
        use std::sync::Arc;
        let t = Arc::new(CardTable::new(GRANULES_PER_CARD * 64));
        for round in 0..50 {
            let t2 = Arc::clone(&t);
            let writer = std::thread::spawn(move || {
                for c in 0..64 {
                    t2.dirty((c * 7 + round) % 64);
                }
            });
            let mut snap = Vec::new();
            t.snapshot_dirty(0, 64, &mut snap);
            writer.join().unwrap();
            let mut rest = Vec::new();
            t.snapshot_dirty(0, 64, &mut rest);
            let mut all: Vec<usize> = snap.into_iter().chain(rest).collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 64, "round {round}: some card lost: {all:?}");
        }
    }
}
