//! **Figure 4(b)**: per-epoch breakdown and end-to-end convergence for
//! vanilla SGD, PowerSGD (rank 2), Signum, and Pufferfish — ResNet-18 on
//! CIFAR-10, 8-node cluster.
//!
//! Shape under reproduction (paper §4.2): PowerSGD has the *smallest
//! communication* but pays encode/decode; Pufferfish has no codec cost and
//! lower compute, so its **overall** epoch time wins:
//! 1.33× vs PowerSGD, 1.67× vs Signum, 1.92× vs vanilla.

use crate::setups::{self, breakdown_table, no_codec, Method};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::signum::Signum;
use puffer_models::resnet::ResNetHybridPlan;

const NODES: usize = 8;

/// Measures the four methods and prints the table and Pufferfish's speedups.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig4b-breakdown-cifar");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs = scale.pick(2, 4);
    let batches = data.train_batches(32, 0);
    println!("== Figure 4(b): ResNet-18 / CIFAR-10 breakdown, {NODES} nodes ==\n");

    let runs = breakdown_table(
        NODES,
        (&|| setups::resnet18(10, 1), &ResNetHybridPlan::resnet18_paper()),
        &batches,
        epochs,
        &[
            Method::baseline("vanilla-sgd", no_codec),
            Method::baseline("powersgd-r2", || Box::new(PowerSgd::new(2, 7))),
            Method::baseline("signum", || Box::new(Signum::new(0.9))),
            Method::pufferfish("pufferfish", no_codec),
        ],
    );
    let mut t = Table::new(vec![
        "method",
        "compute s/epoch",
        "encode+decode",
        "comm (modeled)",
        "total",
        "final loss",
    ]);
    for run in &runs {
        t.row(run.breakdown_row(run.method.into(), 4));
    }
    rec.table(t);
    let total = |m: &str| {
        let run = runs.iter().find(|r| r.method == m).expect("method ran");
        run.last().0.total().as_secs_f64()
    };
    let p = total("pufferfish");
    println!("\nper-epoch speedups of pufferfish: vs powersgd {:.2}x (paper 1.33x), vs signum {:.2}x (paper 1.67x), vs vanilla {:.2}x (paper 1.92x)",
        total("powersgd-r2") / p, total("signum") / p, total("vanilla-sgd") / p);
    println!("note: PowerSGD should show the smallest comm column but nonzero codec cost.");
    rec
}
