//! Distributed training with real worker threads: why Pufferfish saves
//! wall-clock in data-parallel training.
//!
//! Spawns an 8-worker data-parallel run (real gradients, shared-memory
//! allreduce) for (a) the vanilla model, (b) the Pufferfish hybrid, and
//! (c) the vanilla model with Signum gradient compression — then prints
//! each run's compute / encode+decode / communication breakdown under a
//! 10 Gbps 8-node cluster cost model. The compute and encode+decode columns
//! are **per node**: the slowest node's own time, summed over the steps. On
//! a host with fewer than eight hardware threads the replicas take turns in
//! the regions their clocks cover (one per hardware thread at a time)
//! instead of time-slicing, so the columns read the same there as on a
//! machine with a core per worker; the run's wall time is not a column.
//!
//! ```sh
//! cargo run --release --example distributed_speedup
//! ```

use pufferfish_repro::compress::none::NoCompression;
use pufferfish_repro::compress::signum::Signum;
use pufferfish_repro::compress::GradCompressor;
use pufferfish_repro::data::images::{ImageDataset, ImageDatasetConfig};
use pufferfish_repro::dist::trainer::{train_data_parallel, DistConfig};
use pufferfish_repro::models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use pufferfish_repro::models::units::FactorInit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = ImageDataset::generate(ImageDatasetConfig::cifar_like(512, 128, 3));
    let batches = data.train_batches(32, 0);
    let cfg = DistConfig::p3(8, 0.05);

    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10}",
        "method", "compute", "encode+decode", "comm(model)", "loss"
    );
    for method in ["vanilla", "pufferfish", "signum"] {
        let mut none_c;
        let mut sig_c;
        let compressor: &mut dyn GradCompressor = if method == "signum" {
            sig_c = Signum::new(0.9);
            &mut sig_c
        } else {
            none_c = NoCompression::new();
            &mut none_c
        };
        let hybrid = method == "pufferfish";
        let out = train_data_parallel(
            move |_| {
                let net = ResNet::new(ResNetConfig::resnet18(0.125, 10, 1)).expect("config");
                if hybrid {
                    net.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(5))
                        .expect("hybrid")
                } else {
                    net
                }
            },
            &batches,
            compressor,
            &cfg,
        )?;
        let b = out.breakdown;
        println!(
            "{:<22} {:>9.2}s {:>13.3}s {:>11.4}s {:>10.3}",
            method,
            b.compute.as_secs_f64(),
            (b.encode + b.decode).as_secs_f64(),
            b.comm.as_secs_f64(),
            out.step_losses.last().copied().unwrap_or(f32::NAN),
        );
    }
    println!("\nPufferfish ships ~3x fewer gradient bytes with zero encode/decode cost;");
    println!("Signum ships ~32x fewer bytes but pays majority-vote decoding and allgather.");
    Ok(())
}
