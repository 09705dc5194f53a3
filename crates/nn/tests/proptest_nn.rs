//! Property tests for the NN substrate's core invariants, on the seeded case
//! runner (`puffer_tensor::rng::check`).

use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::{Linear, LowRankLinear};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::norm::{BatchNorm2d, LayerNorm};
use puffer_nn::optim::{clip_grad_norm, Sgd};
use puffer_nn::param::Param;
use puffer_tensor::rng::{check, Rng};
use puffer_tensor::stats::l2_norm;
use puffer_tensor::Tensor;

fn tensor2(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let v = (0..rows * cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
    Tensor::from_vec(v, &[rows, cols]).unwrap()
}

#[test]
fn bias_free_linear_is_linear() {
    check("bias_free_linear_is_linear", 32, |rng| {
        let (x, y) = (tensor2(rng, 3, 4), tensor2(rng, 3, 4));
        let a = rng.gen_range(-2.0..2.0);
        let mut l = Linear::new(4, 5, false, 7).unwrap();
        let fx = l.forward(&x, Mode::Eval);
        let fy = l.forward(&y, Mode::Eval);
        let mixed = x.zip_map(&y, |xv, yv| a * xv + yv).unwrap();
        let fmix = l.forward(&mixed, Mode::Eval);
        let expected = fx.zip_map(&fy, |u, v| a * u + v).unwrap();
        assert!(puffer_tensor::stats::rel_error(&expected, &fmix) < 1e-3, "linearity violated");
    });
}

#[test]
fn low_rank_linear_is_linear_too() {
    check("low_rank_linear_is_linear_too", 32, |rng| {
        let x = tensor2(rng, 2, 6);
        let a = rng.gen_range(-2.0..2.0);
        let mut l = LowRankLinear::new(6, 4, 2, false, 9).unwrap();
        let fx = l.forward(&x, Mode::Eval);
        let scaled = x.map(|v| a * v);
        let fs = l.forward(&scaled, Mode::Eval);
        for (u, v) in fs.as_slice().iter().zip(fx.as_slice()) {
            assert!((u - a * v).abs() < 1e-3 * (1.0 + v.abs()));
        }
    });
}

#[test]
fn batchnorm_train_output_is_standardized() {
    check("batchnorm_train_output_is_standardized", 32, |rng| {
        let seed = rng.gen_range(0..500u64);
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::randn(&[6, 2, 3, 3], 2.0, seed);
        let y = bn.forward(&x, Mode::Train);
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..6 {
                let base = (n * 2 + c) * 9;
                vals.extend_from_slice(&y.as_slice()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
        }
    });
}

#[test]
fn layernorm_is_shift_invariant() {
    check("layernorm_is_shift_invariant", 32, |rng| {
        let x = tensor2(rng, 4, 6);
        let shift = rng.gen_range(-5.0..5.0);
        let mut ln = LayerNorm::new(6).unwrap();
        let y1 = ln.forward(&x, Mode::Eval);
        let shifted = x.map(|v| v + shift);
        let y2 = ln.forward(&shifted, Mode::Eval);
        assert!(puffer_tensor::stats::rel_error(&y1, &y2) < 1e-2);
    });
}

#[test]
fn ce_gradient_rows_sum_to_zero() {
    check("ce_gradient_rows_sum_to_zero", 32, |rng| {
        let logits = tensor2(rng, 4, 5);
        let t0 = rng.gen_range(0..5usize);
        let targets = [t0, (t0 + 1) % 5, (t0 + 2) % 5, (t0 + 3) % 5];
        let (_, grad) = softmax_cross_entropy(&logits, &targets, 0.05).unwrap();
        for i in 0..4 {
            let s: f32 = grad.row_slice(i).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    });
}

#[test]
fn ce_loss_nonnegative_without_smoothing() {
    check("ce_loss_nonnegative_without_smoothing", 32, |rng| {
        let logits = tensor2(rng, 3, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2], 0.0).unwrap();
        assert!(loss >= -1e-6);
    });
}

#[test]
fn sgd_step_moves_against_gradient() {
    check("sgd_step_moves_against_gradient", 32, |rng| {
        let len = rng.gen_range(1..8usize);
        let w0: Vec<f32> = (0..len).map(|_| rng.gen_range(-5.0..5.0)).collect();
        // One plain-SGD step on f(w) = ½‖w‖² shrinks the norm.
        let mut p = Param::new("w", Tensor::from_vec(w0.clone(), &[w0.len()]).unwrap());
        p.grad = p.value.clone();
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let before = l2_norm(&p.value);
        opt.step(&mut [&mut p]);
        assert!(l2_norm(&p.value) <= before + 1e-6);
    });
}

#[test]
fn clip_never_increases_norm() {
    check("clip_never_increases_norm", 32, |rng| {
        let len = rng.gen_range(1..16usize);
        let g: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let max = rng.gen_range(0.1..5.0);
        let mut p = Param::new("w", Tensor::zeros(&[g.len()]));
        p.grad = Tensor::from_vec(g, &[p.value.len()]).unwrap();
        let before = l2_norm(&p.grad);
        clip_grad_norm(&mut [&mut p], max);
        let after = l2_norm(&p.grad);
        assert!(after <= before + 1e-5);
        assert!(after <= max + 1e-4);
    });
}

#[test]
fn backward_after_forward_shape_contract() {
    check("backward_after_forward_shape_contract", 32, |rng| {
        let rows = rng.gen_range(1..5usize);
        let mut l = Linear::new(3, 2, true, 11).unwrap();
        let x = Tensor::randn(&[rows, 3], 1.0, rows as u64);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[rows, 2]);
        let gx = l.backward(&Tensor::ones(&[rows, 2]));
        assert_eq!(gx.shape(), &[rows, 3]);
    });
}
