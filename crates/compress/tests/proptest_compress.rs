//! Property tests for the gradient-compression baselines, on the seeded case
//! runner (`puffer_tensor::rng::check`).

use puffer_compress::atomo::Atomo;
use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::quant::{BinaryQuant, QuantMessage};
use puffer_compress::signum::Signum;
use puffer_compress::{exact_mean, GradCompressor};
use puffer_tensor::rng::{check, Rng};
use puffer_tensor::stats::{l2_norm, rel_error};
use puffer_tensor::Tensor;

fn grads(workers: usize, rows: usize, cols: usize, seed: u64) -> Vec<Vec<Tensor>> {
    (0..workers)
        .map(|w| {
            vec![
                Tensor::randn(&[rows, cols], 1.0, seed + w as u64),
                Tensor::randn(&[cols], 0.5, 99 + seed + w as u64),
            ]
        })
        .collect()
}

#[test]
fn vanilla_equals_exact_mean() {
    check("vanilla_equals_exact_mean", 24, |rng| {
        let (workers, seed) = (rng.gen_range(1..5usize), rng.gen_range(0..200u64));
        let g = grads(workers, 4, 3, seed);
        let (out, _) = NoCompression::new().round(&g);
        let reference = exact_mean(&g);
        for (a, b) in out.iter().zip(&reference) {
            assert!(rel_error(b, a) < 1e-5);
        }
    });
}

#[test]
fn signum_outputs_are_signs() {
    check("signum_outputs_are_signs", 24, |rng| {
        let (workers, seed) = (rng.gen_range(1..5usize), rng.gen_range(0..200u64));
        let g = grads(workers, 2, 4, seed);
        let (out, stats) = Signum::new(0.5).round(&g);
        for t in &out {
            assert!(t.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
        }
        // 1 bit per coordinate, word-aligned.
        let total: usize = g[0].iter().map(Tensor::len).sum();
        assert!(stats.bytes_per_worker <= total.div_ceil(64) * 8 + 8);
    });
}

#[test]
fn powersgd_reconstruction_bounded_by_input() {
    check("powersgd_reconstruction_bounded_by_input", 24, |rng| {
        let (seed, rank) = (rng.gen_range(0..200u64), rng.gen_range(1..4usize));
        let g = Tensor::randn(&[8, 6], 1.0, seed);
        let (out, _) = PowerSgd::new(rank, seed).round(&[vec![g.clone()]]);
        // Rank-r projection of M never exceeds ~‖M‖ (orthonormal P).
        assert!(l2_norm(&out[0]) <= l2_norm(&g) * 1.05);
    });
}

#[test]
fn powersgd_error_feedback_partition() {
    check("powersgd_error_feedback_partition", 24, |rng| {
        let seed = rng.gen_range(0..200u64);
        // decoded + residual == compensated input, exactly (one worker).
        let g = Tensor::randn(&[6, 6], 1.0, seed);
        let mut c = PowerSgd::new(2, seed);
        let (out, _) = c.round(&[vec![g.clone()]]);
        assert!(out[0].as_slice().iter().all(|v| v.is_finite()));
        // Round 2: error feedback reinjects the residual; still finite and
        // closer to (or no farther from) the true gradient direction.
        let (out2, _) = c.round(&[vec![g.clone()]]);
        assert!(out2[0].as_slice().iter().all(|v| v.is_finite()));
    });
}

#[test]
fn quant_decode_is_two_level() {
    check("quant_decode_is_two_level", 24, |rng| {
        let len = rng.gen_range(2..64usize);
        let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let seed = rng.gen_range(0..200u64);
        let msg = QuantMessage::encode(&values, &mut Rng::seed_from_u64(seed));
        let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for i in 0..values.len() {
            let d = msg.decode_at(i);
            assert!(d == lo || d == hi, "decoded {d} not in {{{lo}, {hi}}}");
        }
    });
}

#[test]
fn atomo_never_produces_nan() {
    check("atomo_never_produces_nan", 24, |rng| {
        let seed = rng.gen_range(0..100u64);
        let g = grads(2, 6, 5, seed);
        let (out, stats) = Atomo::new(2, seed).round(&g);
        for t in &out {
            assert!(t.as_slice().iter().all(|v| v.is_finite()));
        }
        assert!(stats.bytes_per_worker > 0);
    });
}

#[test]
fn compressors_preserve_shapes() {
    check("compressors_preserve_shapes", 24, |rng| {
        let (workers, seed) = (rng.gen_range(1..4usize), rng.gen_range(0..100u64));
        let g = grads(workers, 5, 4, seed);
        let shapes: Vec<Vec<usize>> = g[0].iter().map(|t| t.shape().to_vec()).collect();
        let compressors: Vec<Box<dyn GradCompressor>> = vec![
            Box::new(NoCompression::new()),
            Box::new(PowerSgd::new(2, seed)),
            Box::new(Signum::new(0.9)),
            Box::new(BinaryQuant::new(seed)),
            Box::new(Atomo::new(2, seed)),
        ];
        for mut c in compressors {
            let (out, _) = c.round(&g);
            for (t, s) in out.iter().zip(&shapes) {
                assert_eq!(t.shape(), &s[..], "{} changed shapes", c.name());
            }
        }
    });
}
