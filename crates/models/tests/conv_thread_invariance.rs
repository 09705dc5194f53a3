//! A whole training step of the paper's hybrid ResNet-18 — dense and
//! factorized convolutions, stride 1 and 2, 1×1 shortcuts — must leave
//! bit-identical parameters whatever the pool width: every convolution
//! partitions output regions across threads and keeps each element's
//! reduction order (DESIGN.md §10). All of them run the direct kernels,
//! which split images (forward, input gradient) and tiles of taps × output
//! channels (weight gradient); the implicit GEMM's panel split is
//! `tests/conv_implicit.rs`' business in `puffer-tensor`. Six images over
//! four threads is an uneven split.

use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::units::FactorInit;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::Sgd;
use puffer_tensor::matmul::{parallel_threshold, set_parallel_threshold};
use puffer_tensor::{pool, Tensor};

fn param_bits_after_one_step(threads: usize) -> Vec<u32> {
    pool::set_num_threads(threads);
    let mut model = ResNet::new(ResNetConfig::resnet18(0.25, 10, 3))
        .unwrap()
        .to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(4))
        .unwrap();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let images = Tensor::randn(&[6, 3, 32, 32], 1.0, 5);
    let labels: Vec<usize> = (0..6).map(|i| (i * 3) % 10).collect();
    model.zero_grad();
    let logits = model.forward(&images, Mode::Train);
    let (_, dl) = softmax_cross_entropy(&logits, &labels, 0.0).unwrap();
    let _ = model.backward(&dl);
    opt.step(&mut model.params_mut());
    model.params().iter().flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits())).collect()
}

#[test]
fn hybrid_resnet18_step_is_bitwise_identical_at_one_two_and_four_threads() {
    let (prev_threads, prev_threshold) = (pool::num_threads(), parallel_threshold());
    // Thread every kernel, not only the ones above the fan-out threshold.
    set_parallel_threshold(0);
    let one = param_bits_after_one_step(1);
    let wider = [2, 4].map(param_bits_after_one_step);
    pool::set_num_threads(prev_threads);
    set_parallel_threshold(prev_threshold);
    for (threads, bits) in [2, 4].iter().zip(&wider) {
        assert_eq!(one.len(), bits.len());
        let first_diff = one.iter().zip(bits).position(|(a, b)| a != b);
        assert_eq!(first_diff, None, "{threads} threads: parameters diverge at {first_diff:?}");
    }
}
