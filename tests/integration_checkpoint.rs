//! Checkpoint integration: pause/resume across Algorithm 1's phase switch.

use pufferfish_repro::core::trainer::{evaluate, train, ModelPlan, TrainConfig};
use pufferfish_repro::data::images::{ImageDataset, ImageDatasetConfig};
use pufferfish_repro::models::units::FactorInit;
use pufferfish_repro::models::vgg::{Vgg, VggConfig};
use pufferfish_repro::nn::checkpoint;
use pufferfish_repro::nn::layer::{Layer, Mode};
use pufferfish_repro::tensor::Tensor;

fn dataset() -> ImageDataset {
    ImageDataset::generate(ImageDatasetConfig {
        classes: 3,
        channels: 3,
        size: 16,
        train: 96,
        test: 48,
        noise: 0.1,
        seed: 23,
    })
}

fn vgg() -> Vgg {
    Vgg::new(VggConfig {
        stages: vec![vec![6], vec![8]],
        fc_hidden: vec![12],
        classes: 3,
        input_size: 16,
        seed: 5,
    })
    .unwrap()
}

#[test]
fn warmup_checkpoint_resumes_into_hybrid() {
    let data = dataset();
    // Phase 1: warm-up only, then checkpoint the vanilla weights.
    let cfg = TrainConfig::cifar_small(2, 0);
    let out = train(vgg(), ModelPlan::None, &data, &cfg).unwrap();
    let path = std::env::temp_dir().join("puffer_resume_test.puft");
    checkpoint::save(&out.model, &path).unwrap();

    // Phase 2 (a fresh process, conceptually): load the warm-up weights
    // into a new vanilla model, factorize with warm start, fine-tune.
    let mut restored = vgg();
    checkpoint::load(&mut restored, &path).unwrap();
    let hybrid = restored.to_hybrid(2, 0.5, FactorInit::WarmStart).unwrap();
    let cfg = TrainConfig::cifar_small(2, 0);
    let resumed = train(hybrid, ModelPlan::None, &data, &cfg).unwrap();
    assert!(resumed.report.epochs.iter().all(|e| e.train_loss.is_finite()));

    // The resumed hybrid performs at least as well as an un-warm-started
    // hybrid trained for the same 2 epochs.
    let cold = vgg().to_hybrid(2, 0.5, FactorInit::Random(9)).unwrap();
    let cold = train(cold, ModelPlan::None, &data, &cfg).unwrap();
    assert!(
        resumed.report.final_eval_loss() <= cold.report.final_eval_loss() + 0.25,
        "resumed {} vs cold {}",
        resumed.report.final_eval_loss(),
        cold.report.final_eval_loss()
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn checkpoint_preserves_eval_behaviour_exactly() {
    let data = dataset();
    let cfg = TrainConfig::cifar_small(2, 1);
    let out =
        train(vgg(), ModelPlan::VggHybrid { first_low_rank: 2, rank_ratio: 0.5 }, &data, &cfg)
            .unwrap();
    let mut trained = out.model;
    let (loss_before, acc_before) = {
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, 1);
        let _ = trained.forward(&x, Mode::Eval);
        evaluate(&mut trained, &data, 16).unwrap()
    };
    let path = std::env::temp_dir().join("puffer_eval_ckpt.puft");
    checkpoint::save(&trained, &path).unwrap();
    // Fresh architecture with the same plan + loaded weights.
    let mut fresh: pufferfish_repro::core::trainer::ImageModel =
        vgg().to_hybrid(2, 0.5, FactorInit::Random(31)).unwrap().into();
    checkpoint::load(&mut fresh, &path).unwrap();
    // BN running statistics travel with the checkpoint as buffers, so
    // evaluation behaviour is restored exactly.
    let (loss_after, acc_after) = evaluate(&mut fresh, &data, 16).unwrap();
    assert!((loss_before - loss_after).abs() < 1e-5, "loss drifted: {loss_before} vs {loss_after}");
    assert!((acc_before - acc_after).abs() < 1e-6, "acc drifted: {acc_before} vs {acc_after}");
    std::fs::remove_file(path).ok();
}
