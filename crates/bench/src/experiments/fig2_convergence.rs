//! **Figure 2**: convergence of vanilla models vs *fully low-rank from
//! scratch* models (rank ratio 0.25, every layer except the first conv and
//! last FC factorized):
//! (a) VGG-11 on CIFAR-10, (b) ResNet-50 on ImageNet(-lite).
//!
//! The shape under reproduction: the from-scratch low-rank network
//! converges to a *worse* final accuracy, with the gap larger on the
//! harder task — the observation motivating hybrid + warm-up (paper §3).

use crate::setups;
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use pufferfish::report::TrainReport;
use pufferfish::trainer::{train, ModelPlan, TrainConfig};

/// Trains both pairs and prints the per-epoch accuracies.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig2-convergence");
    let scale = args.scale;
    let epochs = scale.pick(6, 16);
    println!("== Figure 2: vanilla vs low-rank-from-scratch convergence ==\n");

    // Per-epoch accuracies of both runs side by side, then the final gap.
    let mut compare = |model: &str, vanilla: &TrainReport, low_rank: &TrainReport| {
        let mut t = Table::new(vec![
            "epoch".to_string(),
            format!("vanilla {model} acc"),
            format!("low-rank {model} acc"),
        ]);
        for (v, l) in vanilla.epochs.iter().zip(&low_rank.epochs) {
            t.row(vec![
                v.epoch.to_string(),
                format!("{:.3}", v.eval_accuracy.unwrap_or(0.0)),
                format!("{:.3}", l.eval_accuracy.unwrap_or(0.0)),
            ]);
        }
        rec.table(t);
        let gap = vanilla.final_test_accuracy() - low_rank.final_test_accuracy();
        println!("final-accuracy gap (vanilla - low-rank): {gap:+.3}");
    };

    // (a) VGG-11 on CIFAR-like.
    let data = setups::cifar_data(scale);
    let cfg = TrainConfig::cifar_small(epochs, 0);
    let vanilla = train(setups::vgg11(10, 1), ModelPlan::None, &data, &cfg).expect("training");
    let low_rank = train(
        setups::vgg11(10, 1),
        ModelPlan::VggHybrid { first_low_rank: 2, rank_ratio: 0.25 },
        &data,
        &cfg,
    )
    .expect("training");
    println!("(a) VGG-11 / CIFAR-10:");
    compare("VGG-11", &vanilla.report, &low_rank.report);

    // (b) ResNet-50 on ImageNet-lite.
    let data = setups::imagenet_lite_data(scale);
    let cfg = TrainConfig::imagenet_small(epochs, 0);
    let classes = data.config().classes;
    let vanilla =
        train(setups::resnet50(classes, 1), ModelPlan::None, &data, &cfg).expect("training");
    let low_rank = train(
        setups::resnet50(classes, 1),
        ModelPlan::ResNetHybrid(ResNetHybridPlan::all_layers(0.25)),
        &data,
        &cfg,
    )
    .expect("training");
    println!("\n(b) ResNet-50 / ImageNet-lite:");
    compare("ResNet-50", &vanilla.report, &low_rank.report);
    println!("\npaper shape: low-rank-from-scratch loses accuracy; gap larger on the harder task");
    println!("(paper: ~0.4% on CIFAR VGG, ~3% top-1 on ImageNet ResNet-50).");
    rec
}
