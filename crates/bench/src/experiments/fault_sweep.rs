//! Straggler sweep for the fault-tolerant data-parallel trainer.
//!
//! Trains the vanilla ResNet-18 and its Pufferfish hybrid with the
//! threaded trainer while one worker is slowed 1×–8× by injected compute
//! delay, at 4 and 8 workers, and reports throughput (steps/s of modeled
//! wall-clock). Synchronous SGD runs at the pace of the slowest member, so
//! throughput degrades with the straggler factor for *both* models — but
//! the Pufferfish hybrid's smaller gradient keeps its per-step
//! communication cheaper at every slowdown. `total_s` is the breakdown's
//! total, built on per-node compute: on a host with fewer hardware threads
//! than workers it is a node's own time, not a time-sliced thread's.
//!
//! Usage: `puffer-bench fault-sweep` (`--quick` shrinks the run).

use crate::table::Table;
use crate::{setups, Args, Record};
use puffer_compress::none::NoCompression;
use puffer_dist::fault::FaultPlan;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_models::resnet::{ResNet, ResNetHybridPlan};
use puffer_models::units::FactorInit;

const SEED: u64 = 42;

fn build(model: &str, seed: u64) -> ResNet {
    let net = setups::resnet18(4, seed);
    if model == "pufferfish" {
        net.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::WarmStart).expect("hybrid")
    } else {
        net
    }
}

/// Runs the model × worker count × slowdown grid and prints one row each.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fault-sweep");
    let scale = args.scale;
    let steps = scale.pick(3, 8);
    let data = setups::gaussian_batches(steps, &[32, 3, 8, 8], 4, 500);
    let slowdowns = [1.0f64, 2.0, 4.0, 8.0];
    let worker_counts = [4usize, 8];

    let mut t = Table::new(vec!["model", "workers", "slowdown", "total_s", "steps/s", "comm_s"]);
    for model in ["vanilla", "pufferfish"] {
        for &workers in &worker_counts {
            for &slowdown in &slowdowns {
                let cfg = DistConfig::p3(workers, 0.05);
                // One straggler: the highest-indexed worker runs `slowdown`
                // times slower than its measured compute.
                let faults = if slowdown > 1.0 {
                    FaultPlan::new(SEED).with_slowdown(workers - 1, slowdown)
                } else {
                    FaultPlan::none()
                };
                let opts = RunOptions { faults, ..RunOptions::default() };
                let mut comp = NoCompression::new();
                let out =
                    train_data_parallel_with(|_| build(model, 5), &data, &mut comp, &cfg, &opts)
                        .expect("sweep run");
                assert!(out.faults.is_clean(), "straggler must not be declared dead");
                let total = out.breakdown.total().as_secs_f64();
                let throughput = steps as f64 / total;
                let comm = out.breakdown.comm.as_secs_f64();
                t.row(vec![
                    model.into(),
                    format!("{workers}"),
                    format!("{slowdown:.0}x"),
                    format!("{total:.3}"),
                    format!("{throughput:.3}"),
                    format!("{comm:.4}"),
                ]);
            }
        }
    }
    rec.table(t);
    println!("\nsynchronous SGD paces at the slowest member: throughput falls with the straggler");
    println!("factor while the hybrid keeps the cheaper communication at every slowdown.");
    rec
}
