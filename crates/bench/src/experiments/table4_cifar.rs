//! **Table 4**: VGG-19 and ResNet-18 on CIFAR-10 — parameters, test
//! accuracy, and MACs, under both FP32 and emulated mixed precision (AMP).
//!
//! Parameter/MAC columns reproduce the paper's *exact full-scale* counts
//! from the spec ledgers; accuracy columns come from end-to-end training of
//! the width-scaled models on the synthetic CIFAR-like task (3 seeds at
//! `--full`), where the claim under test is accuracy *parity* between
//! vanilla and Pufferfish, in both precision modes.

use crate::setups::{self, accuracies_pct, mean_pm_std};
use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::spec::{resnet18_cifar, vgg19_cifar, SpecVariant};
use pufferfish::trainer::{ImageModel, ModelPlan, TrainConfig};

/// Trains every arm over the seeds and prints Table 4.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table4-cifar");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs = scale.pick(6, 16);
    let warmup = scale.pick(2, 5);
    let seeds = scale.seeds();
    println!(
        "== Table 4: CIFAR-10 params / accuracy / MACs (epochs={epochs}, seeds={}) ==\n",
        seeds.len()
    );

    let mut t = Table::new(vec![
        "Model Archs.",
        "# Params (full-scale)",
        "Test Acc. (synthetic)",
        "MACs (G, full-scale)",
        "Paper acc.",
    ]);

    type Build = fn(u64) -> ImageModel;
    let vgg: Build = |seed| setups::vgg19(10, seed).into();
    let resnet: Build = |seed| setups::resnet18(10, seed).into();
    // (arch, model, hybrid plan, full-scale ledgers, paper acc. FP32, AMP —
    // each vanilla then Pufferfish)
    let archs = [
        (
            "VGG-19",
            vgg,
            ModelPlan::VggHybrid { first_low_rank: 10, rank_ratio: 0.25 },
            [vgg19_cifar(SpecVariant::Vanilla), vgg19_cifar(SpecVariant::Pufferfish)],
            [["93.91", "93.89"], ["94.12", "93.98"]],
        ),
        (
            "ResNet-18",
            resnet,
            ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet18_paper()),
            [resnet18_cifar(SpecVariant::Vanilla), resnet18_cifar(SpecVariant::Pufferfish)],
            [["95.09", "94.87"], ["95.02", "94.70"]],
        ),
    ];
    for amp in [false, true] {
        let tag = if amp { "AMP" } else { "FP32" };
        for (arch, model, hybrid, specs, paper) in &archs {
            // Vanilla, then Pufferfish (warm-up → hybrid).
            let arms = [("Vanilla", ModelPlan::None, 0), ("Pufferfish", *hybrid, warmup)];
            for (i, (label, plan, warmup)) in arms.into_iter().enumerate() {
                let mut cfg = TrainConfig::cifar_small(epochs, warmup);
                cfg.amp = amp;
                let accs = accuracies_pct(&seeds, cfg, plan, &data, model);
                t.row(vec![
                    format!("{label} {arch} ({tag})"),
                    commas(specs[i].params()),
                    mean_pm_std(&accs),
                    format!("{:.2}", specs[i].macs() as f64 / 1e9),
                    paper[usize::from(amp)][i].into(),
                ]);
            }
        }
    }
    rec.table(t);
    println!("\nShape checks: full-scale param counts equal the paper's Table 4 exactly");
    println!("(VGG 20,560,330 -> 8,370,634; ResNet-18 +128 stem-BN delta, see DESIGN.md).");
    println!("The reproduction claim is vanilla ≈ Pufferfish accuracy in each precision row.");
    rec
}
