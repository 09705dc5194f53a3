//! **Intro claim** (§1): per-batch compression compute is prohibitive —
//! "ATOMO requires to compute gradient factorizations using SVD for every
//! single batch".
//!
//! Measures, on the same ResNet-18 gradients and cluster profile, the
//! cumulative encode+decode time over an epoch for ATOMO (SVD every step),
//! PowerSGD (one power iteration per step), and Pufferfish (zero per-step
//! codec; one SVD total, at the warm-up boundary).

use crate::setups::{self, breakdown_table, no_codec, Method};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::atomo::Atomo;
use puffer_compress::powersgd::PowerSgd;
use puffer_models::resnet::ResNetHybridPlan;

const NODES: usize = 8;

/// Measures the three methods over one (shortened) epoch and prints the table.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("atomo-overhead");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let batches: Vec<_> = data.train_batches(32, 0).into_iter().take(scale.pick(6, 24)).collect();
    println!(
        "== Intro claim: per-step SVD (ATOMO) vs one-time SVD (Pufferfish), {} steps ==\n",
        batches.len()
    );

    let runs = breakdown_table(
        NODES,
        (&|| setups::resnet18(10, 1), &ResNetHybridPlan::resnet18_paper()),
        &batches,
        1,
        &[
            Method::baseline("atomo-r2", || Box::new(Atomo::new(2, 3))),
            Method::baseline("powersgd-r2", || Box::new(PowerSgd::new(2, 3))),
            Method::pufferfish("pufferfish", no_codec),
        ],
    );
    let mut t =
        Table::new(vec!["method", "codec s/epoch", "codec calls", "comm (modeled)", "total"]);
    for run in &runs {
        let (bd, _) = run.last();
        let pufferfish = run.method == "pufferfish";
        let codec = (bd.encode + bd.decode).as_secs_f64() + run.svd_s;
        let calls = if pufferfish {
            "1 (one-time SVD)".to_string()
        } else {
            format!("{} (every step)", batches.len())
        };
        t.row(vec![
            run.method.into(),
            format!("{codec:.3}"),
            calls,
            format!("{:.4}", bd.comm.as_secs_f64()),
            format!("{:.3}", (bd.total().as_secs_f64() + run.svd_s)),
        ]);
    }
    rec.table(t);
    println!("\nshape: ATOMO's codec column dwarfs PowerSGD's, and Pufferfish pays its SVD once —");
    println!("the paper's argument for folding compression into the architecture.");
    rec
}
