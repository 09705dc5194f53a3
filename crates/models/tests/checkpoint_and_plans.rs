//! Model-zoo integration tests: checkpoint round-trips through every model
//! family and hybrid-plan structure checks.

use puffer_models::lstm_lm::{LstmLm, LstmLmConfig};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::transformer::{TransformerConfig, TransformerModel};
use puffer_models::units::FactorInit;
use puffer_models::vgg::{Vgg, VggConfig};
use puffer_nn::checkpoint::{load_state_dict, state_dict};
use puffer_nn::layer::{Layer, Mode};
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
