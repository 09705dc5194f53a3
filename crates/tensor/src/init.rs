//! Random tensor constructors and weight initializers.
//!
//! All constructors take an explicit `seed` so that every experiment in the
//! workspace is reproducible; the paper averages over 3 seeds and we follow
//! the same protocol in the bench harness.

use crate::rng::Rng;
use crate::{workspace, Tensor};

impl Tensor {
    /// Standard-normal tensor scaled by `std`, deterministic in `seed`.
    ///
    /// # Example
    ///
    /// ```
    /// # use puffer_tensor::Tensor;
    /// let a = Tensor::randn(&[4, 4], 1.0, 7);
    /// let b = Tensor::randn(&[4, 4], 1.0, 7);
    /// assert_eq!(a, b); // same seed, same tensor
    /// ```
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let len = shape.iter().product();
        // Pushed, not filled and then overwritten: a pooled buffer that
        // misses the arena would be zeroed in full first.
        let mut data = workspace::take_with_capacity(len);
        data.extend(normal_samples(std, &mut rng).take(len));
        Tensor::from_vec(data, shape).expect("one sample per element")
    }

    /// Uniform tensor on `[lo, hi)`, deterministic in `seed`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        // Overwritten in place: with a draw this cheap, pushing it measured
        // slower than the fill a missed arena take still costs.
        let mut t = Tensor::unfilled(shape);
        for x in t.as_mut_slice() {
            *x = rng.gen_range(lo..hi);
        }
        t
    }
}

/// N(0, std²) samples via Box–Muller: each pair of uniforms gives a cosine
/// sample and then a sine sample.
fn normal_samples(std: f32, rng: &mut Rng) -> impl Iterator<Item = f32> + '_ {
    std::iter::repeat_with(move || {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        [r * theta.cos() * std, r * theta.sin() * std]
    })
    .flatten()
}

/// Kaiming (He) normal initialization for a layer with `fan_in` inputs.
///
/// This is the initializer PyTorch applies to conv and FC layers and hence
/// what the paper's vanilla models start from.
pub fn kaiming_normal(shape: &[usize], fan_in: usize, seed: u64) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(shape, std, seed)
}

/// Xavier/Glorot uniform initialization (`U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`), used for the Transformer and LSTM.
pub fn xavier_uniform(shape: &[usize], fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(shape, -a, a, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn randn_moments() {
        let t = Tensor::randn(&[10_000], 2.0, 11);
        let mean = stats::mean(&t);
        let var =
            t.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / (t.len() - 1) as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, 3);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Tensor::randn(&[16], 1.0, 1);
        let b = Tensor::randn(&[16], 1.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let t = kaiming_normal(&[64, 576], 576, 5);
        let var = t.as_slice().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / 576.0;
        assert!((var - expected).abs() < expected * 0.2, "var {var} vs {expected}");
    }

    #[test]
    fn xavier_bound() {
        let t = xavier_uniform(&[32, 32], 32, 32, 9);
        let a = (6.0f32 / 64.0).sqrt();
        assert!(t.as_slice().iter().all(|&x| x.abs() <= a));
    }

    #[test]
    fn odd_length_box_muller() {
        // Regression: odd-length buffers must be fully filled.
        let t = Tensor::randn(&[7], 1.0, 13);
        assert!(t.as_slice().iter().any(|&x| x != 0.0));
    }
}
