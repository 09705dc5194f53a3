//! Systematic finite-difference gradient checks across every layer family
//! and several compositions — the safety net under all training results.

use puffer_nn::activation::{Relu, Tanh};
use puffer_nn::conv::{Conv2d, LowRankConv2d};
use puffer_nn::dropout::Dropout;
use puffer_nn::layer::{finite_diff_input_check, finite_diff_param_check, Layer, Mode, Sequential};
use puffer_nn::linear::Linear;
use puffer_nn::norm::{BatchNorm2d, LayerNorm};
use puffer_nn::pool::{Flatten, GlobalAvgPool, MaxPool2d};
use puffer_tensor::Tensor;

const TOL: f32 = 3e-2;
const EPS: f32 = 1e-2;

fn check_input<L: Layer>(name: &str, layer: &mut L, input: &Tensor) {
    let dev = finite_diff_input_check(layer, input, EPS);
    assert!(dev < TOL, "{name}: input grad deviation {dev}");
}

fn check_params<L: Layer>(name: &str, layer: &mut L, input: &Tensor) {
    let dev = finite_diff_param_check(layer, input, EPS);
    assert!(dev < TOL, "{name}: param grad deviation {dev}");
}

#[test]
fn dense_layers_gradcheck() {
    let x2 = Tensor::randn(&[3, 5], 0.8, 1);
    check_input("linear", &mut Linear::new(5, 4, true, 1).unwrap(), &x2);
    check_params("linear", &mut Linear::new(5, 4, true, 2).unwrap(), &x2);
    check_input("low_rank_linear", &mut Linear::low_rank(5, 4, 2, true, 3).unwrap(), &x2);
    check_params("low_rank_linear", &mut Linear::low_rank(5, 4, 2, true, 4).unwrap(), &x2);
}

#[test]
fn conv_layers_gradcheck() {
    let x4 = Tensor::randn(&[2, 2, 5, 5], 0.8, 5);
    check_input("conv_s1", &mut Conv2d::new(2, 3, 3, 1, 1, true, 6).unwrap(), &x4);
    check_params("conv_s1", &mut Conv2d::new(2, 3, 3, 1, 1, true, 7).unwrap(), &x4);
    check_input("conv_s2_p0", &mut Conv2d::new(2, 2, 3, 2, 0, false, 8).unwrap(), &x4);
    check_input("conv_1x1", &mut Conv2d::new(2, 4, 1, 1, 0, false, 9).unwrap(), &x4);
    check_input("low_rank_conv", &mut LowRankConv2d::new(2, 4, 3, 1, 1, 2, 10).unwrap(), &x4);
    check_params("low_rank_conv", &mut LowRankConv2d::new(2, 4, 3, 1, 1, 2, 11).unwrap(), &x4);
}

#[test]
fn norm_layers_gradcheck() {
    let x4 = Tensor::randn(&[3, 2, 3, 3], 0.8, 12);
    check_input("batchnorm", &mut BatchNorm2d::new(2).unwrap(), &x4);
    check_params("batchnorm", &mut BatchNorm2d::new(2).unwrap(), &x4);
    let x2 = Tensor::randn(&[4, 6], 0.8, 13);
    check_input("layernorm", &mut LayerNorm::new(6).unwrap(), &x2);
    check_params("layernorm", &mut LayerNorm::new(6).unwrap(), &x2);
}

#[test]
fn activation_and_pool_gradcheck() {
    // Keep inputs away from ReLU/max kinks where the derivative jumps.
    let x = Tensor::rand_uniform(&[2, 8], 0.2, 1.0, 14);
    check_input("relu", &mut Relu::new(), &x);
    check_input("tanh", &mut Tanh::new(), &x);

    let ximg =
        Tensor::from_vec((0..32).map(|i| i as f32 * 0.37 % 5.0).collect(), &[1, 2, 4, 4]).unwrap();
    check_input("maxpool", &mut MaxPool2d::new(2, 2), &ximg);
    check_input("gap", &mut GlobalAvgPool::new(), &ximg);
    check_input("flatten", &mut Flatten::new(), &ximg);
}

#[test]
fn composite_stack_gradcheck() {
    // The full CNN motif: conv → BN-free ReLU chain → pool → flatten → FC.
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::new(2, 3, 3, 1, 1, false, 20).unwrap()),
        Box::new(Tanh::new()), // smooth activation for clean finite diffs
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * 2 * 2, 3, true, 21).unwrap()),
    ]);
    let x = Tensor::randn(&[2, 2, 4, 4], 0.6, 22);
    check_input("composite", &mut net, &x);
    check_params("composite", &mut net, &x);
}

#[test]
fn dropout_eval_passthrough_gradcheck() {
    // In eval mode dropout is the identity; in train mode the mask makes
    // finite differencing invalid (fresh mask per forward), so only the
    // deterministic path is checked here.
    let mut d = Dropout::new(0.5, 1);
    let x = Tensor::randn(&[3, 4], 1.0, 23);
    let y = d.forward(&x, Mode::Eval);
    assert_eq!(y, x);
    let g = d.backward(&Tensor::ones(&[3, 4]));
    assert_eq!(g.as_slice(), &[1.0; 12]);
}

#[test]
fn low_rank_layers_match_dense_gradients_at_full_rank() {
    // At full rank with warm-start factors, the *input gradients* of the
    // factorized layer match the dense layer's (chain rule through UVᵀ).
    let mut dense = Linear::new(4, 3, false, 30).unwrap();
    let f = puffer_tensor::svd::truncated_svd(&dense.weight(), 3).unwrap();
    let (u, vt) = f.split_balanced();
    let mut lr = Linear::from_factors(u, vt, None).unwrap();
    let x = Tensor::randn(&[2, 4], 1.0, 31);
    let kappa = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, 32);
    let _ = dense.forward(&x, Mode::Train);
    let gd = dense.backward(&kappa);
    let _ = lr.forward(&x, Mode::Train);
    let gl = lr.backward(&kappa);
    assert!(
        puffer_tensor::stats::rel_error(&gd, &gl) < 1e-3,
        "grad err {}",
        puffer_tensor::stats::rel_error(&gd, &gl)
    );
}
