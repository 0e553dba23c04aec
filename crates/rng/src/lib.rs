//! A small, dependency-free, deterministic PRNG.
//!
//! Everything in this workspace that needs randomness — the distributed
//! simulator, the benchmark harness, and above all the conformance
//! fuzzer — must be reproducible from a single `u64` seed with no
//! wall-clock or OS entropy. This crate provides that: a SplitMix64
//! generator (the one `poet::Linearizer` draws its tie-breaks from)
//! wrapped in the handful of sampling helpers the workspace needs
//! (`gen_range`, `gen_bool`, `shuffle`, `choose`, stream forking).
//!
//! SplitMix64 passes BigCrush on its own and its 2^64 period is far
//! beyond anything a fuzzing run can exhaust; for differential testing
//! the only property that matters is determinism, which it has by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Deterministic SplitMix64 generator.
///
/// Construct with [`Rng::seed_from_u64`]; every sequence of calls on an
/// equal seed yields identical results on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a `u64` seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Next raw 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform sample from a half-open range. Panics if the range is empty.
    #[inline]
    pub fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Derives an independent child generator; the parent advances by
    /// one step, so sibling forks never share a stream.
    #[must_use]
    pub fn fork(&mut self) -> Rng {
        // XOR with a constant so `fork()` and `next_u64()` at the same
        // state do not produce correlated child seeds.
        Rng::seed_from_u64(self.next_u64() ^ 0x5851_f42d_4c95_7f2d)
    }

    /// Uniform index in `0..len` via Lemire's multiply-shift reduction.
    #[inline]
    fn index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        ((u128::from(self.next_u64()) * len as u128) >> 64) as usize
    }
}

/// Integer types that [`Rng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// Samples uniformly from `range`; panics if it is empty.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range on an empty range");
                let span = (range.end - range.start) as u64;
                range.start + (((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as $t)
            }
        }
    )*};
}

impl_uniform_unsigned!(u8, u16, u32, u64);

impl UniformInt for usize {
    #[inline]
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range on an empty range");
        let span = (range.end - range.start) as u64;
        range.start + (((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as usize)
    }
}

impl UniformInt for i64 {
    #[inline]
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range on an empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        let off = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start.wrapping_add(off as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_reference_splitmix64() {
        // Reference values for seed 1234567 from the canonical
        // SplitMix64 implementation (Steele, Lea & Flood 2014).
        let mut r = Rng::seed_from_u64(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.gen_range(2usize..9);
            assert!((2..9).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bucket values reachable");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng::seed_from_u64(4);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(6);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "50 elements virtually never fixed"
        );
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = Rng::seed_from_u64(8);
        assert_eq!(r.choose::<u8>(&[]), None);
        let xs = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = r.choose(&xs).unwrap();
            seen[(v / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut parent1 = Rng::seed_from_u64(9);
        let mut parent2 = Rng::seed_from_u64(9);
        let mut c1a = parent1.fork();
        let mut c1b = parent1.fork();
        let mut c2a = parent2.fork();
        assert_eq!(c1a.next_u64(), c2a.next_u64(), "forking is deterministic");
        assert_ne!(c1a.next_u64(), c1b.next_u64(), "sibling forks diverge");
    }

    #[test]
    fn i64_ranges_spanning_zero() {
        let mut r = Rng::seed_from_u64(10);
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }
}
