//! **Figure 3(b)**: final accuracy of hybrid ResNet-50 as a function of the
//! vanilla warm-up period `E_wu ∈ {2, 5, 10, 15, 20}` (scaled to the bench
//! epoch budget).
//!
//! The shape under reproduction: some warm-up clearly beats none, and a
//! tuned warm-up period sits in the middle of the range — too much warm-up
//! leaves too few epochs to fine-tune the factorized model (paper §3).

use crate::setups;
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use pufferfish::trainer::{train, ModelPlan, TrainConfig};

/// Sweeps the warm-up length and prints the accuracy table.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig3b-warmup");
    let scale = args.scale;
    let epochs = scale.pick(8, 18);
    // The paper sweeps E_wu = {2, 5, 10, 15, 20} of 90 ImageNet epochs;
    // we sweep the same fractions of our budget.
    let warmups: Vec<usize> = scale.pick(vec![0, 2, 4], vec![0, 1, 2, 4, 6, 9]);
    let data = setups::imagenet_lite_data(scale);
    let classes = data.config().classes;

    println!("== Figure 3(b): hybrid ResNet-50 accuracy vs warm-up epochs (total {epochs}) ==\n");
    let mut t = Table::new(vec!["E_wu", "final acc", "switch epoch", "svd time (ms)"]);
    let mut best = (0usize, 0.0f32);
    for &wu in &warmups {
        let cfg = TrainConfig::imagenet_small(epochs, wu);
        let out = train(
            setups::resnet50(classes, 1),
            ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet50_paper()),
            &data,
            &cfg,
        )
        .expect("training");
        let acc = out.report.final_test_accuracy();
        if acc > best.1 {
            best = (wu, acc);
        }
        t.row(vec![
            wu.to_string(),
            format!("{acc:.3}"),
            out.report.switch_epoch.map(|e| e.to_string()).unwrap_or_default(),
            out.report
                .svd_time
                .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    rec.table(t);
    println!("\nbest warm-up: E_wu = {} (acc {:.3})", best.0, best.1);
    println!("paper shape: warm-up > no warm-up, with an interior optimum (~10 of 90 epochs).");
    rec
}
