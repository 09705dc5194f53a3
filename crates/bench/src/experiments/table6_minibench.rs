//! **Table 6** and **Table 20**: runtime mini-benchmark — per-epoch training
//! wall-clock of vanilla vs Pufferfish VGG-19 and ResNet-18, single process.
//!
//! The paper measures it twice, under reproducibility-optimized cuDNN
//! (Table 6) and speed-optimized cuDNN (Table 20, appendix J). That is a
//! GPU kernel-selection setting with no CPU counterpart: the one GEMM engine
//! here is deterministic and fast at once. So the experiment runs once and
//! prints its measured speedup beside both paper columns. Results are
//! averaged over several measured epochs, as in the paper (10 epochs, batch
//! 128 on a V100; here bench scale on CPU).

use crate::setups::{self, time_trials, train_step};
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::units::FactorInit;
use puffer_nn::layer::Layer;
use puffer_nn::optim::Sgd;

/// Mean ± std seconds of `reps` training epochs (a fresh shuffle each).
fn epoch_time<M: Layer>(
    model: &mut M,
    data: &puffer_data::images::ImageDataset,
    reps: usize,
) -> (f64, f64) {
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut rep = 0;
    time_trials(reps, || {
        for (images, labels) in data.train_batches(32, rep) {
            train_step(model, &mut opt, &images, &labels);
        }
        rep += 1;
    })
}

/// Times vanilla and Pufferfish epochs of both models.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table6-minibench");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let reps = scale.pick(2, 5);
    println!("== Runtime mini-benchmark, {reps} epochs ==\n");

    let mut t = Table::new(vec![
        "Model Archs.",
        "Epoch Time (sec.)",
        "Speedup",
        "paper, Table 6",
        "paper, Table 20",
    ]);
    let mut rows = |arch: &str, (vm, vs): (f64, f64), (pm, ps): (f64, f64), paper: [&str; 2]| {
        t.row(vec![
            format!("Vanilla {arch}"),
            format!("{vm:.2} ± {vs:.2}"),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        t.row(vec![
            format!("Pufferfish {arch}"),
            format!("{pm:.2} ± {ps:.2}"),
            format!("{:.2}x", vm / pm),
            paper[0].into(),
            paper[1].into(),
        ]);
    };

    let mut vanilla = setups::vgg19(10, 1);
    let vanilla_time = epoch_time(&mut vanilla, &data, reps);
    let mut puffer = vanilla.to_hybrid(10, 0.25, FactorInit::WarmStart).expect("hybrid");
    let puffer_time = epoch_time(&mut puffer, &data, reps);
    rows("VGG-19", vanilla_time, puffer_time, ["1.23x", "1.01x"]);

    let mut vanilla = setups::resnet18(10, 1);
    let vanilla_time = epoch_time(&mut vanilla, &data, reps);
    let mut puffer = vanilla
        .to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::WarmStart)
        .expect("hybrid");
    let puffer_time = epoch_time(&mut puffer, &data, reps);
    rows("ResNet-18", vanilla_time, puffer_time, ["1.48x", "1.16x"]);

    rec.table(t);
    println!("\nshape under reproduction: Pufferfish > 1x speedup, larger for ResNet-18 than");
    println!("VGG-19. The paper's Table 6 / Table 20 split is a cuDNN kernel-selection");
    println!("setting; this engine has one profile, deterministic and fast at once.");
    rec
}
