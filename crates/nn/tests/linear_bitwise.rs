//! `Linear`, dense and factorized, against the two layers it merged, bit
//! for bit.
//!
//! The FC layer holds its weight as a `MatOp` and runs `MatOp::apply` and
//! `MatOp::backward`; a factorized layer recomputes `x·Vᵀ` in backward
//! instead of caching it. [`OldLinear`] and [`OldLowRankLinear`] below are
//! the previous commit's two layers — construction, forward and backward —
//! moved here verbatim. Built from the same seeds, both sides must hold the
//! same parameters, and over two train steps and one eval step give the
//! same output, input gradient and accumulated parameter gradients in every
//! bit, with and without bias.

use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::{accumulate_bias_grad, add_bias_rows, Linear};
use puffer_nn::param::Param;
use puffer_tensor::init::kaiming_normal;
use puffer_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use puffer_tensor::Tensor;

/// What the test drives of an old layer.
trait Oracle {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;
    fn params(&self) -> Vec<&Param>;
}

/// The reference dense layer `y = x·Wᵀ + b`.
struct OldLinear {
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl OldLinear {
    fn new(in_features: usize, out_features: usize, bias: bool, seed: u64) -> Self {
        let weight =
            Param::new("weight", kaiming_normal(&[out_features, in_features], in_features, seed));
        let bias = bias.then(|| Param::new_no_decay("bias", Tensor::zeros(&[out_features])));
        OldLinear { weight, bias, cached_input: None }
    }
}

impl Oracle for OldLinear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut y = matmul_nt(input, &self.weight.value).expect("shapes checked");
        if let Some(b) = &self.bias {
            add_bias_rows(&mut y, &b.value);
        }
        if mode == Mode::Train {
            puffer_nn::layer::cache_activation(&mut self.cached_input, input);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before train-mode forward");
        let dw = matmul_tn(grad_output, x).expect("shapes checked");
        self.weight.grad.axpy(1.0, &dw).expect("grad shape");
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(&mut b.grad, grad_output);
        }
        matmul(grad_output, &self.weight.value).expect("shapes checked")
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        v.extend(self.bias.as_ref());
        v
    }
}

/// The reference factorized layer `y = ((x·V)·Uᵀ) + b`, caching `x·V`.
struct OldLowRankLinear {
    u: Param,
    vt: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
    cached_hidden: Option<Tensor>,
}

impl OldLowRankLinear {
    fn new(in_features: usize, out_features: usize, rank: usize, bias: bool, seed: u64) -> Self {
        let std = (2.0 / in_features as f32).sqrt() / (rank as f32).sqrt();
        let u = Param::new("weight_u", Tensor::randn(&[out_features, rank], std.sqrt(), seed));
        let vt = Param::new(
            "weight_v",
            Tensor::randn(&[rank, in_features], std.sqrt(), seed.wrapping_add(1)),
        );
        let bias = bias.then(|| Param::new_no_decay("bias", Tensor::zeros(&[out_features])));
        OldLowRankLinear { u, vt, bias, cached_input: None, cached_hidden: None }
    }
}

impl Oracle for OldLowRankLinear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let hidden = matmul_nt(input, &self.vt.value).expect("shapes checked"); // [N, r]
        let mut y = matmul_nt(&hidden, &self.u.value).expect("shapes checked"); // [N, out]
        if let Some(b) = &self.bias {
            add_bias_rows(&mut y, &b.value);
        }
        if mode == Mode::Train {
            puffer_nn::layer::cache_activation(&mut self.cached_input, input);
            self.cached_hidden = Some(hidden);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before train-mode forward");
        let h = self.cached_hidden.as_ref().expect("backward before train-mode forward");
        // dU = dYᵀ·H, dH = dY·U, dVᵀ = dHᵀ·X, dX = dH·Vᵀ
        let du = matmul_tn(grad_output, h).expect("shapes checked");
        self.u.grad.axpy(1.0, &du).expect("grad shape");
        let dh = matmul(grad_output, &self.u.value).expect("shapes checked");
        let dvt = matmul_tn(&dh, x).expect("shapes checked");
        self.vt.grad.axpy(1.0, &dvt).expect("grad shape");
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(&mut b.grad, grad_output);
        }
        matmul(&dh, &self.vt.value).expect("shapes checked")
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.u, &self.vt];
        v.extend(self.bias.as_ref());
        v
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Names, values and gradients of a parameter list, as bits.
fn param_bits(params: &[&Param]) -> Vec<(String, Vec<u32>, Vec<u32>)> {
    params.iter().map(|p| (p.name.clone(), bits(&p.value), bits(&p.grad))).collect()
}

/// Two train steps and an eval step through `layer` and `oracle`.
fn check(what: &str, layer: &mut Linear, oracle: &mut dyn Oracle, batch: usize) {
    let (fin, fout) = (layer.in_features(), layer.out_features());
    assert_eq!(param_bits(&layer.params()), param_bits(&oracle.params()), "{what}: construction");
    for step in 0..2 {
        let x = Tensor::randn(&[batch, fin], 1.0, 100 + step);
        let dy = Tensor::randn(&[batch, fout], 1.0, 200 + step);
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(bits(&y), bits(&oracle.forward(&x, Mode::Train)), "{what}: y, step {step}");
        let dx = layer.backward(&dy);
        assert_eq!(bits(&dx), bits(&oracle.backward(&dy)), "{what}: dx, step {step}");
        let (got, want) = (param_bits(&layer.params()), param_bits(&oracle.params()));
        assert_eq!(got, want, "{what}: gradients, step {step}");
    }
    let x = Tensor::randn(&[batch + 1, fin], 1.0, 300);
    let (y, want) = (layer.forward(&x, Mode::Eval), oracle.forward(&x, Mode::Eval));
    assert_eq!(bits(&y), bits(&want), "{what}: eval");
}

/// Shapes around the GEMM engine's tile edges, and one of V's FC widths.
const SHAPES: [(usize, usize, usize); 4] = [(5, 4, 7), (17, 33, 3), (64, 10, 16), (256, 256, 8)];

#[test]
fn dense_linear_matches_the_old_layer() {
    for (fin, fout, batch) in SHAPES {
        for bias in [false, true] {
            let seed = (fin * 31 + fout) as u64;
            let mut layer = Linear::new(fin, fout, bias, seed).unwrap();
            let mut oracle = OldLinear::new(fin, fout, bias, seed);
            check(&format!("dense {fin}→{fout}, bias {bias}"), &mut layer, &mut oracle, batch);
        }
    }
}

#[test]
fn low_rank_linear_matches_the_old_layer() {
    for (fin, fout, batch) in SHAPES {
        for rank in [1, fin.min(fout) / 2, fin.min(fout)] {
            for bias in [false, true] {
                let seed = (fin * 31 + fout + rank) as u64;
                let mut layer = Linear::low_rank(fin, fout, rank, bias, seed).unwrap();
                let mut oracle = OldLowRankLinear::new(fin, fout, rank, bias, seed);
                let what = format!("low-rank {fin}→{fout} r={rank}, bias {bias}");
                check(&what, &mut layer, &mut oracle, batch);
            }
        }
    }
}
