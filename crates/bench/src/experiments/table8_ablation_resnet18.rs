//! **Table 8** (and **Table 22**'s VGG variant): the accuracy-mitigation
//! ablation on CIFAR-10 — low-rank-from-scratch vs hybrid-without-warm-up
//! vs hybrid-with-warm-up, ResNet-18, averaged over seeds.
//!
//! Shape under reproduction: loss(low-rank) ≥ loss(hybrid) ≥
//! loss(hybrid+warm-up) and the accuracy order reversed (paper:
//! 93.75 → 93.92 → 94.87).

use crate::setups;
use crate::table::Table;
use crate::{Args, Record};
use pufferfish::ablation::{run_resnet18_arm, AblationArm};

/// Runs the three ablation arms over the seeds.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table8-ablation-resnet18");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs = scale.pick(6, 16);
    let warmup = scale.pick(2, 5);
    let seeds = scale.seeds();
    println!(
        "== Table 8: ResNet-18 ablation (epochs={epochs}, warm-up={warmup}, seeds={}) ==\n",
        seeds.len()
    );

    let mut t = Table::new(vec!["Methods", "Test Loss", "Test Acc. (%)", "paper acc."]);
    let paper = ["93.75 ± 0.19", "93.92 ± 0.45", "94.87 ± 0.21"];
    let mut accs = Vec::new();
    for (arm, paper_acc) in AblationArm::all().into_iter().zip(paper) {
        let res = run_resnet18_arm(arm, &data, setups::CNN_SCALE, epochs, warmup, 0.25, &seeds)
            .expect("ablation arm");
        t.row(vec![
            arm.label().into(),
            format!("{:.3} ± {:.3}", res.mean_loss, res.std_loss),
            format!("{:.2} ± {:.2}", res.mean_accuracy * 100.0, res.std_accuracy * 100.0),
            paper_acc.into(),
        ]);
        accs.push(res.mean_accuracy);
    }
    rec.table(t);
    println!(
        "\nshape: low-rank {:.3} <= hybrid {:.3} <= hybrid+warm-up {:.3} expected (paper ordering)",
        accs[0], accs[1], accs[2]
    );
    rec
}
