//! **Table 5**: ResNet-50 and WideResNet-50-2 on ImageNet(-lite):
//! parameters, accuracy (top-1/top-5), MACs, FP32 + emulated AMP.
//!
//! Full-scale parameter columns come from the spec ledgers (vanilla
//! 25,557,032 / Pufferfish 15,202,344 for ResNet-50 — the paper's hybrid
//! count reproduced exactly; compression ratios 1.68× / 1.72× as in the
//! paper's limitations section). Accuracies come from bench-scale training
//! on ImageNet-lite, where the claim is accuracy parity.

use crate::setups;
use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_models::resnet::{ResNet, ResNetHybridPlan};
use puffer_models::spec::{resnet50_imagenet, wide_resnet50_2_imagenet, ModelSpec, SpecVariant};
use puffer_nn::loss::top_k_accuracy;
use puffer_nn::{Layer, Mode};
use pufferfish::trainer::{train, ModelPlan, TrainConfig};

/// Trains every arm and prints Table 5.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table5-imagenet");
    let scale = args.scale;
    let epochs = scale.pick(5, 14);
    let warmup = scale.pick(2, 4);
    let data = setups::imagenet_lite_data(scale);
    let classes = data.config().classes;
    println!("== Table 5: ImageNet-lite params / top-1 / top-5 / MACs (epochs={epochs}) ==\n");

    let mut t = Table::new(vec![
        "Model Archs.",
        "# Params (full-scale)",
        "Top-1 (synthetic)",
        "Top-5 (synthetic)",
        "MACs (G, full-scale)",
    ]);

    type Build = fn(usize) -> ResNet;
    // (arch, model, full-scale ledgers vanilla then Pufferfish, precisions —
    // AMP rows only for ResNet-50, as in the paper)
    let archs: [(&str, Build, [ModelSpec; 2], &[bool]); 2] = [
        (
            "ResNet-50",
            |classes| setups::resnet50(classes, 1),
            [resnet50_imagenet(SpecVariant::Vanilla), resnet50_imagenet(SpecVariant::Pufferfish)],
            &[false, true],
        ),
        (
            "WideResNet-50-2",
            |classes| setups::wide_resnet50(classes, 1),
            [
                wide_resnet50_2_imagenet(SpecVariant::Vanilla),
                wide_resnet50_2_imagenet(SpecVariant::Pufferfish),
            ],
            &[false],
        ),
    ];
    let hybrid = ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet50_paper());
    for (arch, model, specs, precisions) in &archs {
        for &amp in *precisions {
            let tag = if amp { "AMP" } else { "FP32" };
            let arms = [("Vanilla", ModelPlan::None, 0), ("Pufferfish", hybrid, warmup)];
            for ((label, plan, warmup), spec) in arms.into_iter().zip(specs) {
                let mut cfg = TrainConfig::imagenet_small(epochs, warmup);
                cfg.amp = amp;
                let mut out = train(model(classes), plan, &data, &cfg).expect("training");
                // Top-5 on the test split.
                let mut top5_sum = 0.0f64;
                let mut n = 0usize;
                for (images, labels) in data.test_batches(32) {
                    let logits = out.model.forward(&images, Mode::Eval);
                    top5_sum += top_k_accuracy(&logits, &labels, 5) as f64 * labels.len() as f64;
                    n += labels.len();
                }
                let top5 = (top5_sum / n.max(1) as f64) as f32;
                let top1 = out.report.final_test_accuracy();
                t.row(vec![
                    format!("{label} {arch} ({tag})"),
                    commas(spec.params()),
                    format!("{:.2}%", top1 * 100.0),
                    format!("{:.2}%", top5 * 100.0),
                    if amp { "N/A".into() } else { format!("{:.2}", spec.macs() as f64 / 1e9) },
                ]);
            }
        }
        println!(
            "{arch}: full-scale compression ratio = {:.2}x",
            specs[0].params() as f64 / specs[1].params() as f64
        );
    }
    rec.table(t);
    println!("\npaper shape: Pufferfish ≈ vanilla accuracy at 1.68x (ResNet-50) / 1.72x");
    println!("(WideResNet-50-2) fewer parameters; stability under AMP.");
    rec
}
