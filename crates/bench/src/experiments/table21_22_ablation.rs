//! **Tables 21–22** (appendix L): the accuracy-mitigation ablation on the
//! remaining tasks — ResNet-50 on ImageNet(-lite) (Table 21) and VGG-19 on
//! CIFAR-10 (Table 22): low-rank vs hybrid vs hybrid+warm-up.
//!
//! Shape under reproduction (paper): ResNet-50 top-1 71.03 → 75.85 → 76.43;
//! VGG-19 93.34 → 93.53 → 93.89.

use crate::setups::{self, accuracies_pct, mean_pm_std};
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use pufferfish::trainer::{ModelPlan, TrainConfig};

/// Runs the three arms of both ablations.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table21-22-ablation");
    let scale = args.scale;
    let epochs = scale.pick(6, 14);
    let warmup = scale.pick(2, 4);
    let seeds = scale.seeds();

    // Table 21: ResNet-50 on ImageNet-lite.
    let data = setups::imagenet_lite_data(scale);
    let classes = data.config().classes;
    println!("== Table 21: ResNet-50 ablation on ImageNet-lite ==\n");
    let mut t = Table::new(vec!["Model architectures", "Top-1 (synthetic)", "paper top-1"]);
    let arms: [(&str, ModelPlan, usize, &str); 3] = [
        (
            "Low-rank ResNet-50",
            ModelPlan::ResNetHybrid(ResNetHybridPlan::all_layers(0.25)),
            0,
            "71.03%",
        ),
        (
            "Hybrid ResNet-50 (wo. vanilla warm-up)",
            ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet50_paper()),
            0,
            "75.85%",
        ),
        (
            "Hybrid ResNet-50 (w. vanilla warm-up)",
            ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet50_paper()),
            warmup,
            "76.43%",
        ),
    ];
    for (label, plan, wu, paper) in arms {
        let cfg = TrainConfig::imagenet_small(epochs, wu);
        let accs =
            accuracies_pct(&seeds, cfg, plan, &data, |seed| setups::resnet50(classes, seed).into());
        t.row(vec![label.into(), mean_pm_std(&accs), paper.into()]);
    }
    rec.table(t);

    // Table 22: VGG-19 on CIFAR-like.
    let data = setups::cifar_data(scale);
    println!("\n== Table 22: VGG-19-BN ablation on CIFAR-10 ==\n");
    let mut t = Table::new(vec!["Model architectures", "Test Acc. (synthetic)", "paper acc."]);
    let arms: [(&str, usize, usize, &str); 3] = [
        ("Low-rank VGG-19-BN", 2, 0, "93.34 ± 0.08%"),
        ("Hybrid VGG-19-BN (wo. vanilla warm-up)", 10, 0, "93.53 ± 0.13%"),
        ("Hybrid VGG-19-BN (w. vanilla warm-up)", 10, warmup, "93.89 ± 0.14%"),
    ];
    for (label, k, wu, paper) in arms {
        let cfg = TrainConfig::cifar_small(epochs, wu);
        let plan = ModelPlan::VggHybrid { first_low_rank: k, rank_ratio: 0.25 };
        let accs = accuracies_pct(&seeds, cfg, plan, &data, |seed| setups::vgg19(10, seed).into());
        t.row(vec![label.into(), mean_pm_std(&accs), paper.into()]);
    }
    rec.table(t);
    println!("\nshape: accuracy should be non-decreasing down each table (mitigations help).");
    rec
}
