//! **Figure 3(a)**: final test accuracy of hybrid VGG-19 as a function of
//! the first-low-rank layer index `K` (everything from layer `K` on is
//! factorized at rank ratio 0.25).
//!
//! The shape under reproduction: accuracy increases (loss of accuracy
//! shrinks) as `K` grows — later-only factorization hurts less, because
//! early-layer approximation error propagates (paper §3).

use crate::setups;
use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_nn::Layer;
use pufferfish::trainer::{train, ModelPlan, TrainConfig};

/// Sweeps `K` and prints the accuracy table.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig3a-hybrid-k");
    let scale = args.scale;
    let epochs = scale.pick(6, 14);
    let warmup = scale.pick(2, 4);
    let data = setups::cifar_data(scale);
    let n_layers = setups::vgg19(10, 1).config().factorizable_layers();
    let ks = scale.pick(vec![1, 9, 17], vec![1, 5, 9, 13, 17]);

    println!("== Figure 3(a): hybrid VGG-19 accuracy vs first low-rank index K ==");
    println!("(VGG-19 has {n_layers} factorizable layers; K = L+1 means fully vanilla)\n");

    // Vanilla reference.
    let cfg = TrainConfig::cifar_small(epochs, 0);
    let vanilla = train(setups::vgg19(10, 1), ModelPlan::None, &data, &cfg).expect("training");
    let van_acc = vanilla.report.final_test_accuracy();

    let mut t = Table::new(vec!["K", "# params", "final acc", "acc - vanilla"]);
    let mut accs = Vec::new();
    for &k in &ks {
        let cfg = TrainConfig::cifar_small(epochs, warmup);
        let out = train(
            setups::vgg19(10, 1),
            ModelPlan::VggHybrid { first_low_rank: k, rank_ratio: 0.25 },
            &data,
            &cfg,
        )
        .expect("training");
        let acc = out.report.final_test_accuracy();
        accs.push(acc);
        t.row(vec![
            k.to_string(),
            commas(out.model.param_count() as u64),
            format!("{acc:.3}"),
            format!("{:+.3}", acc - van_acc),
        ]);
    }
    t.row(vec![
        "vanilla".into(),
        commas(vanilla.model.param_count() as u64),
        format!("{van_acc:.3}"),
        "+0.000".into(),
    ]);
    rec.table(t);

    // Shape check: the most factorized model (smallest K) should not beat
    // the least factorized one.
    if let (Some(first), Some(last)) = (accs.first(), accs.last()) {
        println!(
            "\nshape: acc(K={}) = {first:.3} vs acc(K={}) = {last:.3} (paper: larger K recovers accuracy)",
            ks[0],
            ks[ks.len() - 1]
        );
    }
    rec
}
