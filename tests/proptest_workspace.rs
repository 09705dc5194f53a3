//! Cross-crate property tests: the invariants that tie the factorization
//! machinery, compression, and packing together, on the seeded case runner
//! (`puffer_tensor::rng::check`).

use pufferfish_repro::compress::exact_mean;
use pufferfish_repro::compress::none::NoCompression;
use pufferfish_repro::compress::pack::{pack, unpack};
use pufferfish_repro::compress::signum::SignMessage;
use pufferfish_repro::compress::GradCompressor;
use pufferfish_repro::models::units::{factorize_conv, factorize_linear, FactorInit};
use pufferfish_repro::nn::conv::Conv2d;
use pufferfish_repro::nn::linear::Linear;
use pufferfish_repro::nn::{Layer, Mode};
use pufferfish_repro::tensor::rng::check;
use pufferfish_repro::tensor::stats::rel_error;
use pufferfish_repro::tensor::Tensor;

#[test]
fn full_rank_linear_factorization_is_lossless() {
    check("full_rank_linear_factorization_is_lossless", 24, |rng| {
        let (out_f, in_f) = (rng.gen_range(2..6usize), rng.gen_range(2..6usize));
        let seed = rng.gen_range(0..1000u64);
        let mut dense = Linear::new(in_f, out_f, true, seed).unwrap();
        let rank = in_f.min(out_f);
        let mut lr = factorize_linear(&dense, rank, FactorInit::WarmStart).unwrap();
        let x = Tensor::randn(&[3, in_f], 1.0, seed + 1);
        let err = rel_error(&dense.forward(&x, Mode::Eval), &lr.forward(&x, Mode::Eval));
        assert!(err < 1e-3, "err {err}");
    });
}

#[test]
fn full_rank_conv_factorization_is_lossless() {
    check("full_rank_conv_factorization_is_lossless", 24, |rng| {
        let (c_in, seed) = (rng.gen_range(1..4usize), rng.gen_range(0..1000u64));
        let c_out = 3usize;
        let mut dense = Conv2d::new(c_in, c_out, 3, 1, 1, false, seed).unwrap();
        let rank = (c_in * 9).min(c_out);
        let mut lr = factorize_conv(&dense, rank, FactorInit::WarmStart).unwrap();
        let x = Tensor::randn(&[2, c_in, 5, 5], 1.0, seed + 1);
        let err = rel_error(&dense.forward(&x, Mode::Eval), &lr.forward(&x, Mode::Eval));
        assert!(err < 1e-3, "err {err}");
    });
}

#[test]
fn truncated_factorization_never_grows_params() {
    check("truncated_factorization_never_grows_params", 24, |rng| {
        let (c_in, c_out) = (rng.gen_range(2..5usize), rng.gen_range(4..9usize));
        let ratio = rng.gen_range(0.1..0.5);
        let dense = Conv2d::new(c_in, c_out, 3, 1, 1, false, 1).unwrap();
        let max = (c_in * 9).min(c_out);
        let rank = ((c_out as f32 * ratio).round() as usize).clamp(1, max);
        let lr = factorize_conv(&dense, rank, FactorInit::Random(2)).unwrap();
        // r(c_in k² + c_out) < c_in c_out k² whenever r <= c_out/4-ish;
        // at minimum the constructor must keep counts consistent.
        assert_eq!(lr.param_count(), c_in * rank * 9 + rank * c_out);
    });
}

#[test]
fn pack_unpack_round_trips() {
    check("pack_unpack_round_trips", 24, |rng| {
        let n = rng.gen_range(1..6usize);
        let dims: Vec<(usize, usize)> =
            (0..n).map(|_| (rng.gen_range(1..5usize), rng.gen_range(1..5usize))).collect();
        let seed = rng.gen_range(0..100u64);
        let tensors: Vec<Tensor> = dims
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Tensor::randn(&[a, b], 1.0, seed + i as u64))
            .collect();
        let (buf, layout) = pack(&tensors);
        assert_eq!(unpack(&buf, &layout), tensors);
    });
}

#[test]
fn exact_mean_is_permutation_invariant() {
    check("exact_mean_is_permutation_invariant", 24, |rng| {
        let (seed, n_workers) = (rng.gen_range(0..100u64), rng.gen_range(2..5usize));
        let grads: Vec<Vec<Tensor>> =
            (0..n_workers).map(|w| vec![Tensor::randn(&[4, 3], 1.0, seed + w as u64)]).collect();
        let mut reversed = grads.clone();
        reversed.reverse();
        let a = exact_mean(&grads);
        let b = exact_mean(&reversed);
        assert!(rel_error(&a[0], &b[0]) < 1e-5);
    });
}

#[test]
fn vanilla_compressor_round_equals_exact_mean() {
    check("vanilla_compressor_round_equals_exact_mean", 24, |rng| {
        let (seed, n_workers) = (rng.gen_range(0..100u64), rng.gen_range(1..4usize));
        let grads: Vec<Vec<Tensor>> = (0..n_workers)
            .map(|w| {
                vec![
                    Tensor::randn(&[6], 1.0, seed + w as u64),
                    Tensor::randn(&[2, 2], 1.0, 77 + w as u64),
                ]
            })
            .collect();
        let mut comp = NoCompression::new();
        let (out, stats) = comp.round(&grads);
        let reference = exact_mean(&grads);
        for (o, r) in out.iter().zip(&reference) {
            assert!(rel_error(r, o) < 1e-6);
        }
        assert_eq!(stats.bytes_per_worker, 10 * 4);
    });
}

#[test]
fn sign_message_round_trips_signs() {
    check("sign_message_round_trips_signs", 24, |rng| {
        let len = rng.gen_range(1..200usize);
        let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let msg = SignMessage::encode(&values);
        for (i, &v) in values.iter().enumerate() {
            let expected = if v >= 0.0 { 1.0 } else { -1.0 };
            assert_eq!(msg.sign(i), expected);
        }
        assert!(msg.bytes() <= values.len().div_ceil(64) * 8);
    });
}
