//! Seeded input generation. Every input the collector sees (transaction
//! sizes, graph shapes, symbol choices) is drawn from these streams, so
//! the same `--seed` replays the same operations.

/// SplitMix64 (Steele, Lea & Flood 2014): one `u64` of state, same seed
/// same stream. Owned by the benchmark so its inputs do not change when
/// the program's own generators do.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream for worker `stream` of a run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng {
            state: seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        };
        r.next_u64();
        r
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + ((u128::from(self.next_u64()) * u128::from(hi - lo)) >> 64) as u32
    }

    /// True with probability `1 / n`.
    #[inline]
    pub fn one_in(&mut self, n: u32) -> bool {
        self.range(0, n) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_mix() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..1000)
                .map(|_| (r.range(3, 9), r.one_in(128)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert_ne!(
            Rng::new(42, 0).next_u64(),
            Rng::new(42, 1).next_u64(),
            "workers get distinct streams"
        );
        let mut r = Rng::new(0, 0);
        for _ in 0..10_000 {
            assert!((3..9).contains(&r.range(3, 9)));
        }
    }
}
