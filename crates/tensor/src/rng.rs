//! The workspace's one pseudo-random generator, and the seeded case runner
//! its property tests run on.
//!
//! [`Rng`] is xoshiro256++ seeded through splitmix64. Its stream — the raw
//! words and every sampling method below — is what `benchmark/golden.json`
//! and `worker_codec_suite`'s `PARENT_DIGEST` were recorded on;
//! `tests::stream_is_pinned` holds literal outputs so an edit here cannot
//! move them unnoticed.

use std::ops::{Range, RangeInclusive};

/// Small, fast, seedable generator; not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds the generator from a 64-bit seed.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        // splitmix64 expands the seed; its outputs are never all zero.
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Rng { s }
    }

    /// The generator's position in its stream, for a checkpoint.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The generator at a position [`Rng::state`] reported.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)`, from the top 24 bits of one word.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// `true` with probability `p` (53 bits of one word against `p`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Uniform in `range`: `lo..hi` for `f32`, `lo..hi` and `lo..=hi` for
    /// `usize`, `u64` and `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Ranges [`Rng::gen_range`] samples from.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample(self, rng: &mut Rng) -> T;
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut Rng) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * rng.gen_f32();
        // Rounding can land exactly on the end; fold that one value back.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                // Multiply-shift maps one word onto `0..span`; the bias is
                // below 2^-32 for every span this repository asks for.
                let span = u128::from(hi as u64 - lo as u64) + 1;
                lo + ((u128::from(rng.next_u64()) * span) >> 64) as $t
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample(rng)
            }
        }
    )*};
}
int_ranges!(usize, u64, u32);

/// Runs `property` on `cases` generators seeded from `name` and the case
/// index, so every run of a test draws the same inputs. A failing case
/// prints its seed while the panic unwinds (replay it with
/// [`Rng::seed_from_u64`]); there is no shrinking.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Rng)) {
    struct Report<'a> {
        name: &'a str,
        case: u32,
        seed: u64,
    }
    impl Drop for Report<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property `{}` failed at case {} (seed {:#x})",
                    self.name, self.case, self.seed
                );
            }
        }
    }
    // FNV-1a of the name, so the properties of one file draw different inputs.
    let base = name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3));
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case));
        let _report = Report { name, case, seed };
        property(&mut Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Literal outputs recorded from `benchmark/shims/rand`, the stream the
    /// benchmark's golden losses and the dist suites' digests were taken on.
    #[test]
    fn stream_is_pinned() {
        let words = |seed| {
            let mut r = Rng::seed_from_u64(seed);
            std::array::from_fn::<u64, 8, _>(|_| r.next_u64())
        };
        assert_eq!(
            words(0),
            [
                0x53175D61490B23DF,
                0x61DA6F3DC380D507,
                0x5C0FDF91EC9A7BFC,
                0x02EEBF8C3BBE5E1A,
                0x7ECA04EBAF4A5EEA,
                0x0543C37757F08D9A,
                0xDB7490C75AB5026E,
                0xD87343E6464BC959
            ]
        );
        assert_eq!(
            words(1),
            [
                0xCFC5D07F6F03C29B,
                0xBF424132963FE08D,
                0x19A37D5757AAF520,
                0xBF08119F05CD56D6,
                0x2F47184B86186FA4,
                0x97299FCAE7202345,
                0xFCA3C79508F41507,
                0x85FEA5C90363F221
            ]
        );
        assert_eq!(
            words(7),
            [
                0x0E2C1A002AAE913D,
                0x2C0FC8DDFA4E9E14,
                0xB7B311B3B0D45872,
                0x6D5D9F6A6318013C,
                0xF6B263F2F5790376,
                0x77385B627C22C489,
                0xB951F9B3621EA380,
                0x54705B5ADC01E528
            ]
        );

        // One draw per sampling method, in this order, from seed 7.
        let mut r = Rng::seed_from_u64(7);
        assert_eq!(r.gen_f32().to_bits(), 0x3D62C1A0);
        assert_eq!(r.gen_range(-2.0..2.0).to_bits(), 0xBFA7E070);
        assert_eq!(r.gen_range(f32::EPSILON..1.0).to_bits(), 0x3F37B312);
        assert_eq!(r.gen_range(0..1000usize), 427);
        assert_eq!(r.gen_range(0..=9usize), 9);
        assert_eq!([0usize, 1, 5].map(|i| r.gen_range(0..=i)), [0, 1, 1]);
        assert_eq!(r.gen_range(3..=u64::MAX), 18120654544720102365);
        assert_eq!(r.gen_range(10..20u32), 10);
        assert_eq!(
            std::array::from_fn::<bool, 8, _>(|_| r.gen_bool(0.5)),
            [true, true, false, true, true, true, true, true]
        );
        assert_eq!(r.next_u64(), 0x1C2503D28C43D52B);
    }

    #[test]
    fn a_restored_state_continues_the_stream() {
        let mut a = Rng::seed_from_u64(7);
        let _ = a.next_u64();
        let mut b = Rng::from_state(a.state());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds_and_reach_both_ends() {
        let mut r = Rng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..20_000 {
            assert!((3..7).contains(&r.gen_range(3..7usize)));
            seen[r.gen_range(0..=2usize)] = true;
            assert!((-2.0..2.0).contains(&r.gen_range(-2.0..2.0)));
            assert!((f32::EPSILON..1.0).contains(&r.gen_range(f32::EPSILON..1.0)));
            assert!((0.0..1.0).contains(&r.gen_f32()));
        }
        assert_eq!(seen, [true; 3], "inclusive range never reached an end point");
        assert_eq!(r.gen_range(4..=4usize), 4);
        assert_eq!(r.gen_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn check_runs_every_case_on_its_own_repeatable_seed() {
        let draws = |name| {
            let mut firsts = Vec::new();
            check(name, 16, |rng| firsts.push(rng.next_u64()));
            firsts
        };
        let a = draws("a_property");
        assert_eq!(a.len(), 16);
        assert_eq!(a, draws("a_property"));
        assert_ne!(a, draws("another_property"));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "cases must not repeat an input");
    }

    #[test]
    #[should_panic(expected = "case 3 is wrong")]
    fn check_lets_the_failing_case_panic_through() {
        let mut case = 0;
        check("failing_property", 8, |_| {
            assert!(case != 3, "case {case} is wrong");
            case += 1;
        });
    }
}
