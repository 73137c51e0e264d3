//! Atomic bitmaps used for the mark bit vector and the allocation bit
//! vector (one bit per granule, paper §2.1 and §5.2).

use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = 64;

/// A fixed-size concurrent bitmap, one bit per granule.
///
/// All single-bit operations are atomic; bulk operations
/// ([`Bitmap::clear_all`]) must only run while no other thread mutates the
/// bitmap (i.e., during collector initialization at a safepoint).
pub struct Bitmap {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap covering `len` bits, all zero.
    pub fn new(len: usize) -> Bitmap {
        let words = len.div_ceil(BITS);
        Bitmap {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let w = self.words[idx / BITS].load(Ordering::Relaxed);
        w & (1 << (idx % BITS)) != 0
    }

    /// Atomically sets bit `idx`, returning `true` if this call changed it
    /// from 0 to 1 (i.e., the caller won the race).
    ///
    /// A relaxed load comes first: a bit that already reads set returns
    /// `false` without the read-modify-write, so threads racing to mark
    /// a hot object share its word's cache line instead of bouncing it.
    /// A set bit is only cleared at a safepoint, so the load cannot
    /// misreport a bit this call could still win.
    #[inline]
    pub fn set(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % BITS);
        let word = &self.words[idx / BITS];
        if word.load(Ordering::Relaxed) & mask != 0 {
            return false;
        }
        word.fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Atomically clears bit `idx`, returning `true` if this call changed
    /// it from 1 to 0.
    #[inline]
    pub fn clear(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % BITS);
        let prev = self.words[idx / BITS].fetch_and(!mask, Ordering::Relaxed);
        prev & mask != 0
    }

    /// Clears every bit. Not atomic with respect to concurrent set/clear;
    /// callers must hold the heap at a safepoint.
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of 64-bit words backing the map (the unit of
    /// [`Bitmap::load_word`]).
    #[inline]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Reads backing word `w` (bits `[64w, 64w + 64)`); bits at or past
    /// [`Bitmap::len`] are always zero. Lets scanners advance a word at
    /// a time instead of probing bit by bit.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Relaxed)
    }

    /// Atomically ANDs backing word `w` with `keep`: bits clear in
    /// `keep` are cleared, every other bit (including ones a concurrent
    /// `set` publishes meanwhile) is left alone. The sweep's per-word
    /// form of "allocation bits &= mark bits".
    #[inline]
    pub(crate) fn and_word(&self, w: usize, keep: u64) {
        self.words[w].fetch_and(keep, Ordering::Relaxed);
    }

    /// Atomically ORs `bits` into backing word `w`: every bit already
    /// set (including ones a concurrent `set` publishes meanwhile) stays
    /// set. Allocation-bit publication's per-word form of
    /// [`Bitmap::set`].
    #[inline]
    pub(crate) fn or_word(&self, w: usize, bits: u64) {
        self.words[w].fetch_or(bits, Ordering::Relaxed);
    }

    /// Finds the first set bit at or after `from`, or `None`.
    pub fn next_set(&self, from: usize) -> Option<usize> {
        self.next_set_before(from, self.len)
    }

    /// Finds the last set bit strictly before `before`, or `None`.
    pub fn prev_set(&self, before: usize) -> Option<usize> {
        if before == 0 {
            return None;
        }
        let before = before.min(self.len);
        let mut wi = (before - 1) / BITS;
        let top = (before - 1) % BITS;
        let mut word = self.words[wi].load(Ordering::Relaxed);
        if top < BITS - 1 {
            word &= (1u64 << (top + 1)) - 1;
        }
        loop {
            if word != 0 {
                return Some(wi * BITS + (BITS - 1 - word.leading_zeros() as usize));
            }
            if wi == 0 {
                return None;
            }
            wi -= 1;
            word = self.words[wi].load(Ordering::Relaxed);
        }
    }

    /// Finds the first set bit in `[from, limit)`, or `None`. Loads no
    /// word past the one holding bit `limit - 1`.
    pub fn next_set_before(&self, from: usize, limit: usize) -> Option<usize> {
        debug_assert!(limit <= self.len);
        if from >= limit {
            return None;
        }
        let last = (limit - 1) / BITS;
        let mut wi = from / BITS;
        let mut word = self.words[wi].load(Ordering::Relaxed) & (!0u64 << (from % BITS));
        loop {
            if word != 0 {
                let idx = wi * BITS + word.trailing_zeros() as usize;
                return (idx < limit).then_some(idx);
            }
            if wi == last {
                return None;
            }
            wi += 1;
            word = self.words[wi].load(Ordering::Relaxed);
        }
    }

    /// Counts set bits in `[start, end)`: only the two end words are
    /// masked; the words between are counted whole.
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len);
        if start == end {
            return 0;
        }
        let (first, last) = (start / BITS, (end - 1) / BITS);
        let head = !0u64 << (start % BITS);
        let tail = !0u64 >> (BITS - 1 - (end - 1) % BITS);
        let word = |w: usize| self.words[w].load(Ordering::Relaxed);
        if first == last {
            return (word(first) & head & tail).count_ones() as usize;
        }
        let inner: u32 = (first + 1..last).map(|w| word(w).count_ones()).sum();
        ((word(first) & head).count_ones() + inner + (word(last) & tail).count_ones()) as usize
    }

    /// Counts all set bits.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bitmap")
            .field("len", &self.len)
            .field("set", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let b = Bitmap::new(200);
        assert!(!b.get(63));
        assert!(b.set(63));
        assert!(!b.set(63), "second set returns false");
        assert!(b.get(63));
        assert!(b.clear(63));
        assert!(!b.clear(63));
        assert!(!b.get(63));
    }

    #[test]
    fn next_set_scans_across_words() {
        let b = Bitmap::new(300);
        b.set(0);
        b.set(64);
        b.set(299);
        assert_eq!(b.next_set(0), Some(0));
        assert_eq!(b.next_set(1), Some(64));
        assert_eq!(b.next_set(65), Some(299));
        assert_eq!(b.next_set(300), None);
        assert_eq!(b.next_set_before(65, 299), None);
        assert_eq!(b.next_set_before(65, 300), Some(299));
    }

    #[test]
    fn count_range_partial_words() {
        let b = Bitmap::new(256);
        for i in (0..256).step_by(3) {
            b.set(i);
        }
        let brute = |s: usize, e: usize| (s..e).filter(|&i| b.get(i)).count();
        for &(s, e) in &[(0, 256), (1, 255), (63, 65), (64, 128), (100, 101), (5, 5)] {
            assert_eq!(b.count_range(s, e), brute(s, e), "range {s}..{e}");
        }
        assert_eq!(b.count(), brute(0, 256));
        // Ragged ranges over many words, on a map whose length is not a
        // word multiple: every start and end offset within a word, and
        // spans of zero to dozens of whole words between the end words.
        let b = Bitmap::new(64 * 40 + 17);
        for i in 0..b.len() {
            if (i * 7 + i / 5) % 3 != 0 {
                b.set(i);
            }
        }
        let brute = |s: usize, e: usize| (s..e).filter(|&i| b.get(i)).count();
        for s in (0..b.len()).step_by(13) {
            for e in [s, s + 1, s + 63, s + 64, s + 65, s + 640 + 5, b.len()] {
                let e = e.min(b.len());
                assert_eq!(b.count_range(s, e), brute(s, e), "range {s}..{e}");
            }
        }
        assert_eq!(b.count_range(0, b.len()), b.count());
    }

    #[test]
    fn word_level_access() {
        let b = Bitmap::new(200);
        assert_eq!(b.word_len(), 4);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert_eq!(b.load_word(0), (1 << 63) | 1);
        assert_eq!(b.load_word(1), 1);
        assert_eq!(b.load_word(3), 1 << (199 % 64));
        b.and_word(0, 1 << 63);
        assert_eq!(b.load_word(0), 1 << 63, "bits clear in `keep` cleared");
        b.or_word(0, 0b110);
        assert_eq!(b.load_word(0), (1 << 63) | 0b110, "set bits kept");
        b.clear_all();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn prev_set_scans_backwards() {
        let b = Bitmap::new(300);
        b.set(0);
        b.set(64);
        b.set(299);
        assert_eq!(b.prev_set(0), None);
        assert_eq!(b.prev_set(1), Some(0));
        assert_eq!(b.prev_set(64), Some(0));
        assert_eq!(b.prev_set(65), Some(64));
        assert_eq!(b.prev_set(299), Some(64));
        assert_eq!(b.prev_set(300), Some(299));
        assert_eq!(b.prev_set(10_000), Some(299), "clamped to len");
        let empty = Bitmap::new(100);
        assert_eq!(empty.prev_set(100), None);
    }

    #[test]
    fn concurrent_set_unique_winners() {
        use std::sync::Arc;
        let b = Arc::new(Bitmap::new(1 << 14));
        let winners: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || (0..b.len()).filter(|&i| b.set(i)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.iter().sum::<usize>(), 1 << 14);
        assert_eq!(b.count(), 1 << 14);
    }
}
