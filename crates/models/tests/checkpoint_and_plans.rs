//! Model-zoo integration tests: checkpoint round-trips through every model
//! family and hybrid-plan structure checks.

use puffer_models::lstm_lm::{LstmLm, LstmLmConfig};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::transformer::{TransformerConfig, TransformerModel};
use puffer_models::units::FactorInit;
use puffer_models::vgg::{Vgg, VggConfig};
use puffer_nn::activation::Relu;
use puffer_nn::checkpoint::{load_state_dict, state_dict};
use puffer_nn::layer::{Layer, Mode, Sequential};
use puffer_nn::linear::Linear;
use puffer_nn::param::Param;
use puffer_tensor::Tensor;

#[test]
fn vgg_checkpoint_round_trip() {
    let mut a = Vgg::new(VggConfig::vgg11(0.0625, 4, 1)).unwrap();
    let mut b = Vgg::new(VggConfig::vgg11(0.0625, 4, 2)).unwrap();
    let x = Tensor::randn(&[1, 3, 32, 32], 1.0, 3);
    assert_ne!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    load_state_dict(&mut b, &state_dict(&a)).unwrap();
    assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
}

#[test]
fn hybrid_resnet_checkpoint_round_trip() {
    // Checkpoints work across surgery: a hybrid's state dict restores into
    // a freshly converted hybrid of the same plan.
    let base = ResNet::new(ResNetConfig::resnet18(0.0625, 4, 1)).unwrap();
    let mut a = base.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(5)).unwrap();
    let mut b = base.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(9)).unwrap();
    load_state_dict(&mut b, &state_dict(&a)).unwrap();
    let x = Tensor::randn(&[1, 3, 16, 16], 1.0, 3);
    assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
}

#[test]
fn vanilla_checkpoint_rejected_by_hybrid() {
    let base = ResNet::new(ResNetConfig::resnet18(0.0625, 4, 1)).unwrap();
    let mut hybrid =
        base.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(5)).unwrap();
    assert!(load_state_dict(&mut hybrid, &state_dict(&base)).is_err());
}

#[test]
fn lstm_lm_state_round_trip_via_params() {
    let mut a = LstmLm::new(LstmLmConfig::small(20, 8, 1)).unwrap();
    let mut b = LstmLm::new(LstmLmConfig::small(20, 8, 2)).unwrap();
    let values: Vec<Tensor> = a.params().iter().map(|p| p.value.clone()).collect();
    for (p, v) in b.params_mut().into_iter().zip(values) {
        p.value = v;
    }
    let inputs = vec![vec![1, 2], vec![3, 4]];
    assert_eq!(a.forward(&inputs, false), b.forward(&inputs, false));
}

#[test]
fn transformer_param_lists_are_stable_across_construction() {
    let a = TransformerModel::new(TransformerConfig::small(32, 1)).unwrap();
    let b = TransformerModel::new(TransformerConfig::small(32, 2)).unwrap();
    let sa: Vec<Vec<usize>> = a.params().iter().map(|p| p.value.shape().to_vec()).collect();
    let sb: Vec<Vec<usize>> = b.params().iter().map(|p| p.value.shape().to_vec()).collect();
    assert_eq!(sa, sb, "same config must give same parameter layout");
}

#[test]
fn hybrid_plans_hit_expected_layer_counts() {
    // VGG-19 at any width: K = 10 factorizes convs 10..16 and both hidden
    // FCs: 7 + 2 = 9 low-rank layers.
    let vgg = Vgg::new(VggConfig::vgg19(0.125, 10, 1)).unwrap();
    let h = vgg.to_hybrid(10, 0.25, FactorInit::Random(1)).unwrap();
    assert_eq!(h.low_rank_layer_count(), 9);

    // ResNet-50 paper plan: exactly the 3 conv5_x blocks.
    let net = ResNet::new(ResNetConfig::resnet50(0.0625, 10, 1)).unwrap();
    let h = net.to_hybrid(&ResNetHybridPlan::resnet50_paper(), FactorInit::Random(1)).unwrap();
    assert_eq!(h.low_rank_block_count(), 3);
    assert_eq!(h.block_count(), 16);

    // ResNet-18 paper plan: 7 of 8 blocks.
    let net = ResNet::new(ResNetConfig::resnet18(0.125, 10, 1)).unwrap();
    let h = net.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(1)).unwrap();
    assert_eq!(h.low_rank_block_count(), 7);
}

#[test]
fn warm_start_survives_checkpoint() {
    // SVD warm-start → save → load → eval parity with the source hybrid.
    let base = Vgg::new(VggConfig::vgg11(0.0625, 4, 1)).unwrap();
    let mut warm = base.to_hybrid(1, 0.5, FactorInit::WarmStart).unwrap();
    let path = std::env::temp_dir().join("puffer_models_ckpt.puft");
    puffer_nn::checkpoint::save(&warm, &path).unwrap();
    let mut restored = base.to_hybrid(1, 0.5, FactorInit::Random(99)).unwrap();
    puffer_nn::checkpoint::load(&mut restored, &path).unwrap();
    let x = Tensor::randn(&[1, 3, 32, 32], 1.0, 4);
    assert_eq!(warm.forward(&x, Mode::Eval), restored.forward(&x, Mode::Eval));
    std::fs::remove_file(path).ok();
}

/// FNV-1a over every parameter's name, shape and value bits (or gradient
/// bits), in `params()` order.
fn digest(params: &[&Param], grads: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in params {
        eat(p.name.as_bytes());
        let t = if grads { &p.grad } else { &p.value };
        for &d in t.shape() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in t.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Token rows for the sequence models: `rows` rows of `len` ids below 20.
fn tokens(rows: usize, len: usize, salt: usize) -> Vec<Vec<usize>> {
    (0..rows).map(|r| (0..len).map(|t| (r * 7 + t * 3 + salt) % 20).collect()).collect()
}

/// The conversions no benchmark workload runs, pinned to the digests the
/// parent commit of the shared `MatOp` (39e2b03) gave: the converted
/// parameters, then the gradients of one train step through the result.
/// Every factorization goes through one SVD warm start and every factorized
/// FC, gate and projection through one operator, so a moved bit in either
/// shows here.
#[test]
fn conversions_keep_their_pinned_bits() {
    let mut got = Vec::new();

    let mut vgg = Vgg::new(VggConfig::vgg11(0.0625, 4, 1)).unwrap();
    let _ = vgg.forward(&Tensor::randn(&[4, 3, 32, 32], 1.0, 2), Mode::Train);
    for init in [FactorInit::WarmStart, FactorInit::Random(5)] {
        // K = 7: the last two convolutions and both hidden FCs.
        let mut h = vgg.to_hybrid(7, 0.25, init).unwrap();
        got.push(digest(&h.params(), false));
        h.zero_grad();
        let y = h.forward(&Tensor::randn(&[2, 3, 32, 32], 1.0, 3), Mode::Train);
        let _ = h.backward(&Tensor::randn(y.shape(), 1.0, 4));
        got.push(digest(&h.params(), true));
    }

    let mut lm = LstmLm::new(LstmLmConfig::small(20, 8, 1)).unwrap();
    let _ = lm.forward(&tokens(3, 4, 0), true);
    let mut low = lm.to_low_rank(2, true).unwrap();
    got.push(digest(&low.params(), false));
    low.zero_grad();
    let logits = low.forward(&tokens(3, 4, 1), true);
    low.backward(&Tensor::randn(logits.shape(), 1.0, 5));
    got.push(digest(&low.params(), true));

    let tf = TransformerModel::new(TransformerConfig::small(20, 1)).unwrap();
    let mut hybrid = tf.to_hybrid(4, true).unwrap();
    got.push(digest(&hybrid.params(), false));
    hybrid.zero_grad();
    let logits = hybrid.forward(&tokens(2, 5, 2), &tokens(2, 4, 3), true);
    hybrid.backward(&Tensor::randn(logits.shape(), 1.0, 6));
    got.push(digest(&hybrid.params(), true));

    // `puffer-bench trace-demo`'s network: dense, factorized, dense.
    let seed = 17;
    let mut demo = Sequential::new(vec![
        Box::new(Linear::new(12, 32, true, seed).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::low_rank(32, 32, 4, true, seed + 1).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(32, 4, true, seed + 2).unwrap()),
    ]);
    got.push(digest(&demo.params(), false));
    for step in 0..2 {
        let y = demo.forward(&Tensor::randn(&[8, 12], 1.0, 7 + step), Mode::Train);
        let _ = demo.backward(&Tensor::randn(y.shape(), 1.0, 9 + step));
    }
    got.push(digest(&demo.params(), true));

    let hex: Vec<String> = got.iter().map(|d| format!("{d:016x}")).collect();
    assert_eq!(hex, PINNED, "conversion digests moved");
}

const PINNED: [&str; 10] = [
    "67e047108666c715", // VGG-11, K = 7, warm start: parameters
    "46025b5688767dfe", // and gradients
    "afa194470b451277", // VGG-11, K = 7, random factors: parameters
    "051948d2ee46a0d6", // and gradients
    "6a5cefeb97c49e13", // LSTM LM at rank 2, warm start: parameters
    "07a9a339718583cd", // and gradients
    "e3ac84d836967664", // Transformer hybrid at rank 4, warm start: parameters
    "32482995819385a2", // and gradients
    "4ee3d23338696a06", // trace-demo network: parameters
    "1ba22c570e0b5043", // and gradients after two steps
];
