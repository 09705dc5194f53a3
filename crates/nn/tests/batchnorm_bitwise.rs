//! `BatchNorm2d` against the loops it replaced, bit for bit.
//!
//! The layer runs its per-channel reductions several accumulator chains
//! abreast and produces its buffers without filling them first
//! (`crates/nn/src/norm.rs`, `ABREAST`). Neither may move a bit: which
//! additions share an accumulator, and in which order, is what [`Oracle`]
//! below does — the forward and backward loops of the commit before, moved
//! here verbatim, one channel and one chain at a time. `scripts/check.sh`
//! runs this file in debug and in release, because the element-wise passes
//! vectorize differently in the two profiles and the bits must not.

use puffer_nn::layer::{Layer, Mode};
use puffer_nn::norm::BatchNorm2d;
use puffer_tensor::rng::Rng;
use puffer_tensor::Tensor;

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;

/// The reference: state and loops of `BatchNorm2d` as of the parent commit.
struct Oracle {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    gamma_grad: Vec<f32>,
    beta_grad: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    affine: bool,
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl Oracle {
    fn new(gamma: &[f32], beta: &[f32], affine: bool) -> Self {
        let c = gamma.len();
        Oracle {
            gamma: gamma.to_vec(),
            beta: beta.to_vec(),
            gamma_grad: vec![0.0; c],
            beta_grad: vec![0.0; c],
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            affine,
            x_hat: Vec::new(),
            inv_std: Vec::new(),
        }
    }

    fn forward(&mut self, x: &[f32], s: [usize; 4], mode: Mode) -> Vec<f32> {
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        let count = (n * spatial) as f32;

        let (mean, var): (Vec<f32>, Vec<f32>) = match mode {
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for ci in 0..c {
                    let mut sum = 0.0;
                    for ni in 0..n {
                        sum += x[(ni * c + ci) * spatial..][..spatial].iter().sum::<f32>();
                    }
                    let m = sum / count;
                    let mut sq = 0.0;
                    for ni in 0..n {
                        for &v in &x[(ni * c + ci) * spatial..][..spatial] {
                            let d = v - m;
                            sq += d * d;
                        }
                    }
                    mean[ci] = m;
                    var[ci] = sq / count;
                }
                // Update running statistics (unbiased variance, as PyTorch).
                let unbias = if count > 1.0 { count / (count - 1.0) } else { 1.0 };
                for ci in 0..c {
                    self.running_mean[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_mean[ci] + BN_MOMENTUM * mean[ci];
                    self.running_var[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_var[ci] + BN_MOMENTUM * var[ci] * unbias;
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let mut x_hat = vec![0.0f32; x.len()];
        let mut out = vec![0.0f32; x.len()];
        let planes = out
            .chunks_exact_mut(spatial)
            .zip(x_hat.chunks_exact_mut(spatial))
            .zip(x.chunks_exact(spatial));
        for (idx, ((o, xh), xs)) in planes.enumerate() {
            let ci = idx % c;
            let (g, b) = if self.affine { (self.gamma[ci], self.beta[ci]) } else { (1.0, 0.0) };
            let (m, is) = (mean[ci], inv_std[ci]);
            for ((o, h), &v) in o.iter_mut().zip(xh).zip(xs) {
                *h = (v - m) * is;
                *o = g * *h + b;
            }
        }
        if mode == Mode::Train {
            self.x_hat = x_hat;
            self.inv_std = inv_std;
        }
        out
    }

    fn backward(&mut self, dy: &[f32], s: [usize; 4]) -> Vec<f32> {
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        let count = (n * spatial) as f32;

        let mut dx = vec![0.0f32; dy.len()];
        let x_hat = &self.x_hat;
        for ci in 0..c {
            // Channel-wise sums: Σdy, Σdy·x̂.
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                for (&g, &xh) in dy[base..][..spatial].iter().zip(&x_hat[base..][..spatial]) {
                    sum_dy += g;
                    sum_dy_xhat += g * xh;
                }
            }
            if self.affine {
                self.gamma_grad[ci] += sum_dy_xhat;
                self.beta_grad[ci] += sum_dy;
            }
            let g = if self.affine { self.gamma[ci] } else { 1.0 };
            let k = g * self.inv_std[ci];
            // `xh * sum_dy_xhat / count` divides a per-element product, so
            // only the first of the two quotients is loop-invariant.
            let mean_dy = sum_dy / count;
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                let rows = dy[base..][..spatial].iter().zip(&x_hat[base..][..spatial]);
                for (d, (&g, &xh)) in dx[base..][..spatial].iter_mut().zip(rows) {
                    *d = k * (g - mean_dy - xh * sum_dy_xhat / count);
                }
            }
        }
        dx
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values of mixed sign and magnitude; every seventh one a multiple of 2⁻¹⁰
/// so that cancellation to an exact zero happens now and then.
fn values(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = rng.gen_range(-4.0f32..5.0);
            if i % 7 == 0 {
                (v * 1024.0).round() / 1024.0
            } else {
                v
            }
        })
        .collect()
}

/// A layer and its oracle holding the same non-trivial γ and β.
fn pair(c: usize, affine: bool, rng: &mut Rng) -> (BatchNorm2d, Oracle) {
    let mut layer = BatchNorm2d::with_affine(c, affine).unwrap();
    let gamma: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5f32..2.0)).collect();
    let beta: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let mut state = layer.state();
    state.gamma = Tensor::from_vec(gamma.clone(), &[c]).unwrap();
    state.beta = Tensor::from_vec(beta.clone(), &[c]).unwrap();
    layer.load_state(&state).unwrap();
    (layer, Oracle::new(&gamma, &beta, affine))
}

/// Drives layer and oracle through the same calls — `steps` train-mode
/// forwards each followed by two backwards without `zero_grad`, then an
/// eval-mode forward — and compares every observable after each call.
fn check(s: [usize; 4], affine: bool, steps: usize, input: impl Fn(usize, &mut Rng) -> Vec<f32>) {
    let (c, len) = (s[1], s.iter().product::<usize>());
    let tag = format!("shape {s:?} affine {affine}");
    let mut rng = Rng::seed_from_u64(len as u64 ^ 0xb17);
    let (mut layer, mut oracle) = pair(c, affine, &mut rng);
    for step in 0..steps {
        let x = input(len, &mut rng);
        let y = layer.forward(&Tensor::from_vec(x.clone(), &s).unwrap(), Mode::Train);
        let want = oracle.forward(&x, s, Mode::Train);
        assert_eq!(bits(y.as_slice()), bits(&want), "y, {tag}, step {step}");
        let (x_hat, inv_std) = layer.cached().expect("train-mode forward caches");
        assert_eq!(bits(x_hat.as_slice()), bits(&oracle.x_hat), "x̂, {tag}, step {step}");
        assert_eq!(bits(inv_std), bits(&oracle.inv_std), "inv_std, {tag}, step {step}");
        for round in 0..2 {
            let dy = input(len, &mut rng);
            let dx = layer.backward(&Tensor::from_vec(dy.clone(), &s).unwrap());
            let want = oracle.backward(&dy, s);
            assert_eq!(bits(dx.as_slice()), bits(&want), "dx, {tag}, step {step}.{round}");
        }
    }
    let buffers = layer.buffers();
    assert_eq!(bits(buffers[0].as_slice()), bits(&oracle.running_mean), "running mean, {tag}");
    assert_eq!(bits(buffers[1].as_slice()), bits(&oracle.running_var), "running var, {tag}");
    if affine {
        let params = layer.params();
        assert_eq!(bits(params[0].grad.as_slice()), bits(&oracle.gamma_grad), "dγ, {tag}");
        assert_eq!(bits(params[1].grad.as_slice()), bits(&oracle.beta_grad), "dβ, {tag}");
    } else {
        assert!(layer.params().is_empty(), "{tag}");
    }
    let x = input(len, &mut rng);
    let y = layer.forward(&Tensor::from_vec(x.clone(), &s).unwrap(), Mode::Eval);
    let want = oracle.forward(&x, s, Mode::Eval);
    assert_eq!(bits(y.as_slice()), bits(&want), "eval y, {tag}");
    let (x_hat, _) = layer.cached().expect("eval keeps the train-mode cache");
    assert_eq!(bits(x_hat.as_slice()), bits(&oracle.x_hat), "eval left x̂ alone, {tag}");
}

const CHANNELS: [usize; 6] = [1, 3, 4, 5, 16, 33];
const IMAGES: [usize; 6] = [1, 2, 3, 4, 5, 32];
/// `(H, W)` with `H·W ∈ {1, 4, 49, 1024}`.
const PLANES: [(usize, usize); 4] = [(1, 1), (2, 2), (7, 7), (32, 32)];

#[test]
fn every_tail_shape_matches_the_oracle() {
    for c in CHANNELS {
        for n in IMAGES {
            for (h, w) in PLANES {
                // The big planes only where a tail differs: c or n small.
                if h * w == 1024 && c > 5 && n > 5 {
                    continue;
                }
                for affine in [true, false] {
                    check([n, c, h, w], affine, 2, values);
                }
            }
        }
    }
}

#[test]
fn benchmark_shapes_match_the_oracle() {
    // ResNet-18 ×0.25 at batch 32: wide planes few channels, and the reverse.
    for s in [[32, 16, 32, 32], [32, 32, 16, 16], [32, 64, 8, 8], [32, 128, 4, 4]] {
        check(s, true, 3, values);
    }
}

#[test]
fn signed_zero_planes_match_the_oracle() {
    // An all-(−0.0) plane sums to −0.0 when the chain starts from −0.0 (what
    // `Iterator::sum` does) and to +0.0 when it starts from +0.0.
    for zero in [0.0f32, -0.0] {
        for s in [[2, 3, 2, 2], [4, 5, 7, 7], [3, 16, 1, 1], [5, 4, 3, 3]] {
            check(s, true, 2, |len, _| vec![zero; len]);
            // Zero planes in some channels only, data in the others.
            check(s, true, 2, |len, rng| {
                let spatial = s[2] * s[3];
                let mut v = values(len, rng);
                for (p, plane) in v.chunks_exact_mut(spatial).enumerate() {
                    if p % 2 == 0 {
                        plane.fill(zero);
                    }
                }
                v
            });
        }
    }
}

#[test]
fn non_finite_inputs_match_the_oracle() {
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for s in [[2, 3, 2, 2], [4, 5, 7, 7], [3, 16, 1, 1], [5, 33, 2, 2]] {
            // One poisoned element per call, at a position drawn per call, so
            // forward, backward and eval each meet it in different channels.
            check(s, true, 2, |len, rng| {
                let mut v = values(len, rng);
                v[rng.gen_range(0..len)] = poison;
                v
            });
        }
    }
    // Both infinities in one channel: the plane sum itself goes NaN.
    check([2, 4, 3, 3], false, 2, |len, rng| {
        let mut v = values(len, rng);
        v[1] = f32::INFINITY;
        v[2] = f32::NEG_INFINITY;
        v
    });
}
