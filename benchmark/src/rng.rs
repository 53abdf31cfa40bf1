//! The benchmark's own generator, so the op stream depends on `--seed` and
//! nothing else (no vendored `rand`, no global state).

/// One SplitMix64 scramble of `x`: the seeding hash and the per-key hash.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream: ~1 ns per draw, good enough to pick keys and op kinds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and `stream` (worker id, phase, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-40 for n < 2^24).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 2);
        assert!((0..10_000).all(|_| r.below(10) < 10));
    }
}
