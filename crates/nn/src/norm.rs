//! Normalization layers: [`BatchNorm2d`] (CNNs) and [`LayerNorm`]
//! (Transformer blocks).
//!
//! Pufferfish does not factorize normalization layers — their parameters are
//! vectors (paper §2.4) — but the warm-start step copies both the affine
//! weights **and the running statistics** from the partially trained vanilla
//! model into the hybrid model (paper §3), which [`BatchNorm2d::state`] and
//! [`BatchNorm2d::load_state`] support.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::{NnError, Result};
use puffer_tensor::{workspace, Tensor};
use std::ops::Range;

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;

/// Accumulator chains a per-channel reduction keeps in flight. A chain is
/// one `f32` accumulator and the elements added to it, in order: a plane's
/// sum, a channel's `Σ(x−μ)²`, a channel's `Σdy` and `Σdy·x̂`. One chain
/// advances an element per floating-point add latency however fast memory
/// is, so [`BatchNorm2d`] walks `ABREAST` consecutive planes together — one
/// chain each, because consecutive planes belong to different channels.
/// Which additions share an accumulator, and in which order, is the same as
/// walking the planes one after another; only the interleaving in time
/// differs, and no result depends on that. 4 and 8 measured alike, 2 up to
/// a third slower (EXPERIMENTS.md, "BatchNorm at memory speed").
const ABREAST: usize = 4;

/// Elements a chain takes before the next chain has its turn. The runs are
/// of constant length, so the compiler unrolls a round of `ABREAST` runs and
/// the chains' additions interleave (it loads each run as a vector and
/// transposes them, one chain per lane); a whole plane per turn would be one
/// chain at a time again.
const TILE: usize = 4;

/// Planes `p0..p0 + K` of an `[N, C, spatial]` activation.
#[inline(always)]
fn planes_at<const K: usize>(data: &[f32], spatial: usize, p0: usize) -> [&[f32]; K] {
    std::array::from_fn(|j| &data[(p0 + j) * spatial..][..spatial])
}

/// The channels of planes `p0..p0 + K` (`K ≤ c`).
#[inline(always)]
fn channels_at<const K: usize>(c: usize, p0: usize) -> [usize; K] {
    let c0 = p0 % c;
    std::array::from_fn(|j| if c0 + j < c { c0 + j } else { c0 + j - c })
}

/// Advances `K` chains abreast over planes of `spatial` elements:
/// `step(j, run)` feeds chain `j` the elements `run` of its plane, and every
/// chain gets its runs in ascending order, [`TILE`] elements at a time and
/// then the rest of the plane.
#[inline(always)]
fn abreast<const K: usize>(spatial: usize, mut step: impl FnMut(usize, Range<usize>)) {
    let tiled = spatial - spatial % TILE;
    for s in (0..tiled).step_by(TILE) {
        (0..K).for_each(|j| step(j, s..s + TILE));
    }
    (0..K).for_each(|j| step(j, tiled..spatial));
}

/// Calls `group(p0, true)` for every run of [`ABREAST`] consecutive planes
/// and `group(p, false)` for each plane left over, in memory order. Runs are
/// only formed when they cannot hold two planes of one channel
/// (`c ≥ ABREAST`), so a channel's chain never meets itself inside a run.
fn for_plane_groups(planes: usize, c: usize, mut group: impl FnMut(usize, bool)) {
    let abreast = if c >= ABREAST { planes - planes % ABREAST } else { 0 };
    (0..abreast).step_by(ABREAST).for_each(|p0| group(p0, true));
    (abreast..planes).for_each(|p| group(p, false));
}

/// Per-channel batch mean and biased variance of an `[N, C, spatial]`
/// activation with `count` elements per channel.
fn batch_stats(x: &[f32], c: usize, spatial: usize, count: f32) -> (Vec<f32>, Vec<f32>) {
    /// Appends the sums of planes `p0..p0 + K`: each its own chain, seeded
    /// like `Iterator::sum`, its elements added in memory order.
    fn plane_sums<const K: usize>(x: &[f32], spatial: usize, p0: usize, sums: &mut Vec<f32>) {
        let planes = planes_at::<K>(x, spatial, p0);
        let mut acc = [std::iter::empty::<f32>().sum(); K];
        abreast::<K>(spatial, |j, run| planes[j][run].iter().for_each(|v| acc[j] += v));
        sums.extend_from_slice(&acc);
    }
    /// Continues the `Σ(x−μ)²` chains of the channels of planes `p0..p0 + K`.
    fn squares<const K: usize>(x: &[f32], spatial: usize, p0: usize, mean: &[f32], sq: &mut [f32]) {
        let planes = planes_at::<K>(x, spatial, p0);
        let channels = channels_at::<K>(mean.len(), p0);
        let (m, mut acc) = (channels.map(|ci| mean[ci]), channels.map(|ci| sq[ci]));
        abreast::<K>(spatial, |j, run| {
            for v in &planes[j][run] {
                let d = v - m[j];
                acc[j] += d * d;
            }
        });
        channels.into_iter().zip(acc).for_each(|(ci, acc)| sq[ci] = acc);
    }

    let planes = x.len() / spatial;
    let mut sums = Vec::with_capacity(planes);
    for_plane_groups(planes, c, |p0, abreast| match abreast {
        true => plane_sums::<ABREAST>(x, spatial, p0, &mut sums),
        false => plane_sums::<1>(x, spatial, p0, &mut sums),
    });
    // A channel's sum folds its planes' sums in image order.
    let mean: Vec<f32> = (0..c)
        .map(|ci| {
            let mut sum = 0.0;
            for plane_sum in sums.iter().skip(ci).step_by(c) {
                sum += plane_sum;
            }
            sum / count
        })
        .collect();
    let mut sq = vec![0.0f32; c];
    for_plane_groups(planes, c, |p0, abreast| match abreast {
        true => squares::<ABREAST>(x, spatial, p0, &mean, &mut sq),
        false => squares::<1>(x, spatial, p0, &mean, &mut sq),
    });
    let var = sq.iter().map(|&sq| sq / count).collect();
    (mean, var)
}

/// Per-channel `[Σdy, Σdy·x̂]`, each one chain over the channel's planes in
/// image order.
fn grad_sums(dy: &[f32], x_hat: &[f32], c: usize, spatial: usize) -> Vec<[f32; 2]> {
    /// Continues both chains of the channels of planes `p0..p0 + K`.
    fn group<const K: usize>(
        dy: &[f32],
        x_hat: &[f32],
        spatial: usize,
        p0: usize,
        sums: &mut [[f32; 2]],
    ) {
        let (gs, hs) = (planes_at::<K>(dy, spatial, p0), planes_at::<K>(x_hat, spatial, p0));
        let channels = channels_at::<K>(sums.len(), p0);
        let mut sum_dy = channels.map(|ci| sums[ci][0]);
        let mut sum_dy_xhat = channels.map(|ci| sums[ci][1]);
        abreast::<K>(spatial, |j, run| {
            for (g, xh) in gs[j][run.clone()].iter().zip(&hs[j][run]) {
                sum_dy[j] += g;
                sum_dy_xhat[j] += g * xh;
            }
        });
        for (j, ci) in channels.into_iter().enumerate() {
            sums[ci] = [sum_dy[j], sum_dy_xhat[j]];
        }
    }

    let mut sums = vec![[0.0f32; 2]; c];
    for_plane_groups(dy.len() / spatial, c, |p0, abreast| match abreast {
        true => group::<ABREAST>(dy, x_hat, spatial, p0, &mut sums),
        false => group::<1>(dy, x_hat, spatial, p0, &mut sums),
    });
    sums
}

fn inv_std(var: &[f32]) -> Vec<f32> {
    var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect()
}

/// Per-channel batch normalization over `[N, C, H, W]`.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    affine: bool,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

/// Snapshot of a batch-norm layer's learnable and running state, used by
/// Pufferfish's warm-start surgery.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormState {
    /// Scale (γ).
    pub gamma: Tensor,
    /// Shift (β).
    pub beta: Tensor,
    /// Running mean (inference statistics).
    pub running_mean: Vec<f32>,
    /// Running variance (inference statistics).
    pub running_var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates an affine batch-norm layer over `channels` channels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `channels` is zero.
    pub fn new(channels: usize) -> Result<Self> {
        Self::with_affine(channels, true)
    }

    /// Creates a batch-norm layer, optionally without learnable affine
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `channels` is zero.
    pub fn with_affine(channels: usize, affine: bool) -> Result<Self> {
        if channels == 0 {
            return Err(NnError::BadConfig {
                layer: "BatchNorm2d",
                reason: "zero channels".into(),
            });
        }
        Ok(BatchNorm2d {
            gamma: Param::new_no_decay("bn.weight", Tensor::ones(&[channels])),
            beta: Param::new_no_decay("bn.bias", Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            affine,
            cache: None,
        })
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Snapshot of the layer's state for warm-start surgery.
    pub fn state(&self) -> BatchNormState {
        BatchNormState {
            gamma: self.gamma.value.clone(),
            beta: self.beta.value.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
        }
    }

    /// Restores a previously captured state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the state's channel count differs.
    pub fn load_state(&mut self, state: &BatchNormState) -> Result<()> {
        if state.gamma.len() != self.channels {
            return Err(NnError::BadConfig {
                layer: "BatchNorm2d",
                reason: format!(
                    "state has {} channels, layer has {}",
                    state.gamma.len(),
                    self.channels
                ),
            });
        }
        self.gamma.value = state.gamma.clone();
        self.beta.value = state.beta.clone();
        self.running_mean = state.running_mean.clone();
        self.running_var = state.running_var.clone();
        Ok(())
    }

    /// The scale parameters γ (used by the Early-Bird pruning baseline,
    /// which ranks channels by |γ|).
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }

    /// What the last train-mode forward kept for `backward`: x̂ and the
    /// per-channel `1/√(σ²+ε)`. Read by the bitwise oracle suite
    /// (`tests/batchnorm_bitwise.rs`).
    pub fn cached(&self) -> Option<(&Tensor, &[f32])> {
        self.cache.as_ref().map(|cache| (&cache.x_hat, &cache.inv_std[..]))
    }

    /// Channel `ci`'s `(γ, β)`; `(1, 0)` without the affine pair.
    fn scale_shift(&self, ci: usize) -> (f32, f32) {
        if self.affine {
            (self.gamma.value.as_slice()[ci], self.beta.value.as_slice()[ci])
        } else {
            (1.0, 0.0)
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [N, C, H, W]");
        let s = input.shape().to_vec();
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let x = input.as_slice();
        // Both branches push one element per element of `x`, in memory
        // order, into buffers taken empty: nothing here is filled first.
        let mut out = workspace::take_with_capacity(x.len());
        match mode {
            Mode::Eval => {
                let inv_std = inv_std(&self.running_var);
                for (idx, xs) in x.chunks_exact(spatial).enumerate() {
                    let ci = idx % c;
                    let (g, b) = self.scale_shift(ci);
                    let (m, is) = (self.running_mean[ci], inv_std[ci]);
                    out.extend(xs.iter().map(|&v| g * ((v - m) * is) + b));
                }
            }
            Mode::Train => {
                let count = (n * spatial) as f32;
                let (mean, var) = batch_stats(x, c, spatial, count);
                // Update running statistics (unbiased variance, as PyTorch).
                let unbias = if count > 1.0 { count / (count - 1.0) } else { 1.0 };
                for ci in 0..c {
                    self.running_mean[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_mean[ci] + BN_MOMENTUM * mean[ci];
                    self.running_var[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_var[ci] + BN_MOMENTUM * var[ci] * unbias;
                }
                let inv_std = inv_std(&var);
                let mut x_hat = workspace::take_with_capacity(x.len());
                for (idx, xs) in x.chunks_exact(spatial).enumerate() {
                    let ci = idx % c;
                    let (g, b) = self.scale_shift(ci);
                    let (m, is) = (mean[ci], inv_std[ci]);
                    x_hat.extend(xs.iter().map(|&v| (v - m) * is));
                    out.extend(x_hat[idx * spatial..].iter().map(|&h| g * h + b));
                }
                let x_hat = Tensor::from_vec(x_hat, &s).expect("one x̂ per element of x");
                self.cache = Some(BnCache { x_hat, inv_std, shape: s.clone() });
            }
        }
        Tensor::from_vec(out, &s).expect("one output per element of x")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before train-mode forward");
        let s = &cache.shape;
        assert_eq!(grad_output.shape(), &s[..], "BatchNorm2d gradient shape mismatch");
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        let count = (n * spatial) as f32;

        let (dy, x_hat) = (grad_output.as_slice(), cache.x_hat.as_slice());
        // Channel-wise sums: Σdy, Σdy·x̂.
        let sums = grad_sums(dy, x_hat, c, spatial);
        if self.affine {
            for (ci, [sum_dy, sum_dy_xhat]) in sums.iter().enumerate() {
                self.gamma.grad.as_mut_slice()[ci] += sum_dy_xhat;
                self.beta.grad.as_mut_slice()[ci] += sum_dy;
            }
        }
        let mut dx = workspace::take_with_capacity(dy.len());
        let planes = dy.chunks_exact(spatial).zip(x_hat.chunks_exact(spatial));
        for (idx, (gs, hs)) in planes.enumerate() {
            let ci = idx % c;
            let [sum_dy, sum_dy_xhat] = sums[ci];
            let k = self.scale_shift(ci).0 * cache.inv_std[ci];
            // `xh * sum_dy_xhat / count` divides a per-element product, so
            // only the first of the two quotients is loop-invariant.
            let mean_dy = sum_dy / count;
            let rows = gs.iter().zip(hs);
            dx.extend(rows.map(|(&g, &xh)| k * (g - mean_dy - xh * sum_dy_xhat / count)));
        }
        Tensor::from_vec(dx, s).expect("one gradient per element of dy")
    }

    fn params(&self) -> Vec<&Param> {
        if self.affine {
            vec![&self.gamma, &self.beta]
        } else {
            Vec::new()
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        if self.affine {
            vec![&mut self.gamma, &mut self.beta]
        } else {
            Vec::new()
        }
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn buffers(&self) -> Vec<Tensor> {
        vec![
            Tensor::from_vec(self.running_mean.clone(), &[self.channels]).expect("channel count"),
            Tensor::from_vec(self.running_var.clone(), &[self.channels]).expect("channel count"),
        ]
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        assert_eq!(buffers.len(), 2, "BatchNorm2d expects 2 buffers");
        assert_eq!(buffers[0].len(), self.channels, "running-mean length mismatch");
        assert_eq!(buffers[1].len(), self.channels, "running-var length mismatch");
        self.running_mean = buffers[0].as_slice().to_vec();
        self.running_var = buffers[1].as_slice().to_vec();
    }
}

/// Layer normalization over the last dimension of a 2-D or 3-D activation.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    features: usize,
    eps: f32,
    cache: Option<LnCache>,
}

#[derive(Debug)]
struct LnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer-norm over `features` with ε = 1e-6 (the paper's
    /// Transformer setting, appendix Table 16).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `features` is zero.
    pub fn new(features: usize) -> Result<Self> {
        if features == 0 {
            return Err(NnError::BadConfig { layer: "LayerNorm", reason: "zero features".into() });
        }
        Ok(LayerNorm {
            gamma: Param::new_no_decay("ln.weight", Tensor::ones(&[features])),
            beta: Param::new_no_decay("ln.bias", Tensor::zeros(&[features])),
            features,
            eps: 1e-6,
            cache: None,
        })
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.features
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let f = self.features;
        assert_eq!(input.shape()[input.ndim() - 1], f, "LayerNorm feature mismatch");
        let (x, gamma, beta) =
            (input.as_slice(), self.gamma.value.as_slice(), self.beta.value.as_slice());
        // Rows are pushed in memory order into buffers taken empty: y in
        // both modes, x̂ and 1/σ only in train mode, which keeps them.
        let mut out = workspace::take_with_capacity(x.len());
        let mut x_hat = Vec::new();
        let mut inv_std = Vec::new();
        if mode == Mode::Train {
            x_hat = workspace::take_with_capacity(x.len());
            inv_std.reserve_exact(x.len() / f);
        }
        for row in x.chunks_exact(f) {
            let mean: f32 = row.iter().sum::<f32>() / f as f32;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / f as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            let normalized = row.iter().map(|&xj| (xj - mean) * is);
            let affine = |(xh, (&g, &b)): (f32, (&f32, &f32))| g * xh + b;
            match mode {
                Mode::Train => {
                    let start = x_hat.len();
                    x_hat.extend(normalized);
                    out.extend(
                        x_hat[start..].iter().copied().zip(gamma.iter().zip(beta)).map(affine),
                    );
                    inv_std.push(is);
                }
                Mode::Eval => out.extend(normalized.zip(gamma.iter().zip(beta)).map(affine)),
            }
        }
        if mode == Mode::Train {
            let x_hat = Tensor::from_vec(x_hat, input.shape()).expect("one x̂ per element of x");
            self.cache = Some(LnCache { x_hat, inv_std });
        }
        Tensor::from_vec(out, input.shape()).expect("one output per element of x")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before train-mode forward");
        let f = self.features;
        assert_eq!(grad_output.len(), cache.x_hat.len(), "LayerNorm gradient shape mismatch");
        let gamma = self.gamma.value.as_slice();
        let (gamma_grad, beta_grad) =
            (self.gamma.grad.as_mut_slice(), self.beta.grad.as_mut_slice());
        let (dy, x_hat) = (grad_output.as_slice(), cache.x_hat.as_slice());
        let mut dx = workspace::take_with_capacity(dy.len());
        let rows = dy.chunks_exact(f).zip(x_hat.chunks_exact(f)).zip(&cache.inv_std);
        for ((dys, xhs), &is) in rows {
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for ((&dy_raw, &xh), &g) in dys.iter().zip(xhs).zip(gamma) {
                let dy = dy_raw * g;
                sum_dy += dy;
                sum_dy_xhat += dy * xh;
            }
            // Each feature's dγ and dβ take their rows in order, as before;
            // which feature goes first within a row changes nothing.
            let grads = gamma_grad.iter_mut().zip(beta_grad.iter_mut());
            for ((dg, db), (&dy_raw, &xh)) in grads.zip(dys.iter().zip(xhs)) {
                *dg += dy_raw * xh;
                *db += dy_raw;
            }
            dx.extend(dys.iter().zip(xhs).zip(gamma).map(|((&dy_raw, &xh), &g)| {
                let dy = dy_raw * g;
                is * (dy - sum_dy / f as f32 - xh * sum_dy_xhat / f as f32)
            }));
        }
        Tensor::from_vec(dx, grad_output.shape()).expect("one gradient per element of dy")
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn describe(&self) -> String {
        format!("LayerNorm({})", self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_input_check;

    #[test]
    fn bn_train_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, 1);
        let y = bn.forward(&x, Mode::Train);
        // Per channel, output should have ~zero mean and ~unit variance.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                let base = (ni * 2 + ci) * 9;
                vals.extend_from_slice(&y.as_slice()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn bn_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        // Run many training batches so running stats converge.
        for seed in 0..50 {
            let x = Tensor::randn(&[8, 1, 2, 2], 2.0, seed);
            let shifted = x.map(|v| v + 5.0);
            let _ = bn.forward(&shifted, Mode::Train);
        }
        let x = Tensor::full(&[1, 1, 2, 2], 5.0);
        let y = bn.forward(&x, Mode::Eval);
        // Input at the running mean should map near zero.
        assert!(y.as_slice().iter().all(|&v| v.abs() < 0.3), "{y:?}");
    }

    #[test]
    fn bn_gradcheck() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::randn(&[3, 2, 2, 2], 1.0, 2);
        let dev = finite_diff_input_check(&mut bn, &x, 1e-2);
        assert!(dev < 5e-2, "bn grad deviation {dev}");
    }

    #[test]
    fn bn_state_round_trip() {
        let mut a = BatchNorm2d::new(3).unwrap();
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, 3);
        let _ = a.forward(&x, Mode::Train);
        let state = a.state();
        let mut b = BatchNorm2d::new(3).unwrap();
        b.load_state(&state).unwrap();
        assert_eq!(b.state(), state);
        let bad = BatchNorm2d::new(4).unwrap().state();
        assert!(b.load_state(&bad).is_err());
    }

    #[test]
    fn bn_without_affine_has_no_params() {
        let bn = BatchNorm2d::with_affine(4, false).unwrap();
        assert_eq!(bn.param_count(), 0);
        let affine = BatchNorm2d::new(4).unwrap();
        assert_eq!(affine.param_count(), 8);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8).unwrap();
        let x = Tensor::randn(&[4, 8], 5.0, 4);
        let y = ln.forward(&x, Mode::Train);
        for r in 0..4 {
            let row = &y.as_slice()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    /// The loops the layer's pushed passes replaced, verbatim but for the
    /// parameter access: `(y, x̂, 1/σ)` and `(dx, dγ, dβ)`.
    #[allow(clippy::type_complexity)]
    fn layernorm_reference(
        x: &[f32],
        dy: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> ((Vec<f32>, Vec<f32>, Vec<f32>), (Vec<f32>, Vec<f32>, Vec<f32>)) {
        let f = gamma.len();
        let rows = x.len() / f;
        let (mut x_hat, mut out, mut inv_std) =
            (vec![0.0; x.len()], vec![0.0; x.len()], vec![0.0; rows]);
        for (r, inv_std_r) in inv_std.iter_mut().enumerate() {
            let row = &x[r * f..(r + 1) * f];
            let mean: f32 = row.iter().sum::<f32>() / f as f32;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / f as f32;
            let is = 1.0 / (var + eps).sqrt();
            *inv_std_r = is;
            for (j, &xj) in row.iter().enumerate() {
                let xh = (xj - mean) * is;
                x_hat[r * f + j] = xh;
                out[r * f + j] = gamma[j] * xh + beta[j];
            }
        }
        let (mut gin, mut dgamma, mut dbeta) = (vec![0.0; x.len()], vec![0.0; f], vec![0.0; f]);
        for r in 0..rows {
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for j in 0..f {
                let d = dy[r * f + j] * gamma[j];
                let xh = x_hat[r * f + j];
                sum_dy += d;
                sum_dy_xhat += d * xh;
            }
            for j in 0..f {
                let idx = r * f + j;
                let dy_raw = dy[idx];
                let xh = x_hat[idx];
                dgamma[j] += dy_raw * xh;
                dbeta[j] += dy_raw;
                let d = dy_raw * gamma[j];
                gin[idx] = inv_std[r] * (d - sum_dy / f as f32 - xh * sum_dy_xhat / f as f32);
            }
        }
        ((out, x_hat, inv_std), (gin, dgamma, dbeta))
    }

    #[test]
    fn layernorm_matches_the_loops_it_replaced_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (shape, seed) in [(vec![3usize, 5], 1u64), (vec![2, 7, 32], 2), (vec![1, 1, 1], 3)] {
            let f = shape[shape.len() - 1];
            let mut ln = LayerNorm::new(f).unwrap();
            ln.gamma.value = Tensor::randn(&[f], 1.0, seed + 10);
            ln.beta.value = Tensor::randn(&[f], 1.0, seed + 20);
            let x = Tensor::randn(&shape, 3.0, seed);
            let dy = Tensor::randn(&shape, 1.0, seed + 30);
            let ((y, x_hat, inv_std), (dx, dgamma, dbeta)) = layernorm_reference(
                x.as_slice(),
                dy.as_slice(),
                ln.gamma.value.as_slice(),
                ln.beta.value.as_slice(),
                ln.eps,
            );
            let eval = ln.forward(&x, Mode::Eval);
            assert!(ln.cache.is_none(), "eval keeps nothing");
            assert_eq!(bits(eval.as_slice()), bits(&y), "eval y, {shape:?}");
            let train = ln.forward(&x, Mode::Train);
            assert_eq!(train.shape(), &shape[..]);
            assert_eq!(bits(train.as_slice()), bits(&y), "train y, {shape:?}");
            let cache = ln.cache.as_ref().unwrap();
            assert_eq!(bits(cache.x_hat.as_slice()), bits(&x_hat), "x̂, {shape:?}");
            assert_eq!(bits(&cache.inv_std), bits(&inv_std), "1/σ, {shape:?}");
            let got = ln.backward(&dy);
            assert_eq!(bits(got.as_slice()), bits(&dx), "dx, {shape:?}");
            assert_eq!(bits(ln.gamma.grad.as_slice()), bits(&dgamma), "dγ, {shape:?}");
            assert_eq!(bits(ln.beta.grad.as_slice()), bits(&dbeta), "dβ, {shape:?}");
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(5).unwrap();
        let x = Tensor::randn(&[3, 5], 1.0, 5);
        let dev = finite_diff_input_check(&mut ln, &x, 1e-2);
        assert!(dev < 5e-2, "ln grad deviation {dev}");
    }

    #[test]
    fn constructors_validate() {
        assert!(BatchNorm2d::new(0).is_err());
        assert!(LayerNorm::new(0).is_err());
    }
}
