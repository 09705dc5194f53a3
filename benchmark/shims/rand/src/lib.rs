//! Offline stand-in for the slice of `rand` 0.8 that the crates on the
//! training path use: `rngs::SmallRng`, `SeedableRng::seed_from_u64` and
//! `Rng::{gen, gen_range, gen_bool}`.
//!
//! The generator is xoshiro256++ seeded through splitmix64, as in `rand`'s
//! 64-bit `SmallRng`, but the float and integer range sampling below is
//! simpler than `rand`'s, so **streams differ from the published crate**.
//! Numbers produced by a build against this shim compare only with other
//! builds against this shim.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of a 64-bit word).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce (`rand`'s `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[lo, hi)`; the caller guarantees `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `[lo, hi]`; the caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let v = lo + (hi - lo) * <$t as Standard>::sample(rng);
                // Rounding can land exactly on `hi`; fold that one value back.
                if v < hi { v } else { lo }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                (lo + (hi - lo) * <$t as Standard>::sample(rng)).min(hi)
            }
        }
    )*};
}
uniform_float!(f32, f64);

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                Self::sample_inclusive(lo, hi - 1, rng)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                // Width of the range minus one, computed in i128 so signed
                // and full-width ranges cannot overflow.
                let span = (hi as i128 - lo as i128) as u128 + 1;
                // Multiply-shift maps 64 random bits onto `0..span`; the bias
                // is below 2^-32 for every span this repository asks for.
                let off = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range types `Rng::gen_range` accepts. One blanket impl per range type,
/// so `rng.gen_range(-1.0..1.0) * x_f32` still infers `f32`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++: small, fast, not cryptographic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            // splitmix64 expands the seed; its outputs are never all zero.
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let draw = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..8).map(|_| r.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..20_000 {
            let a: usize = r.gen_range(3..7);
            assert!((3..7).contains(&a));
            let b: usize = r.gen_range(0..=2);
            assert!(b <= 2);
            seen_lo |= b == 0;
            seen_hi |= b == 2;
            let c: i32 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&c));
            let d: f32 = r.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&d));
            let e: f32 = r.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&e));
            let f: f64 = r.gen_range(0.25..=0.5);
            assert!((0.25..=0.5).contains(&f));
            let g: f32 = r.gen();
            assert!((0.0..1.0).contains(&g));
        }
        assert!(seen_lo && seen_hi, "inclusive range never reached an end point");
        assert_eq!(r.gen_range(4..=4usize), 4);
        assert_eq!(r.gen_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
    }

    #[test]
    fn float_literal_range_infers_the_other_operand() {
        let mut r = SmallRng::seed_from_u64(2);
        let noise: f32 = 0.5;
        let v = r.gen_range(-1.0..1.0) * noise;
        assert!(v.abs() <= 0.5);
    }

    #[test]
    fn gen_bool_matches_its_probability() {
        let mut r = SmallRng::seed_from_u64(3);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "{heads} heads of 10000");
    }
}
