//! **Table 6** (and **Table 20** with `--optimized`): runtime
//! mini-benchmark — per-epoch training wall-clock of vanilla vs Pufferfish
//! VGG-19 and ResNet-18, single process.
//!
//! Table 6 uses the reproducibility-optimized compute profile; `--optimized`
//! switches to the speed-optimized profile (the paper's appendix-J cuDNN
//! setting), under which the factorized network's advantage shrinks — the
//! shape we reproduce. Results are averaged over several measured epochs,
//! as in the paper (10 epochs, batch 128 on a V100; here bench scale on
//! CPU).

use crate::setups::{self, time_trials, train_step};
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::units::FactorInit;
use puffer_nn::layer::Layer;
use puffer_nn::optim::Sgd;
use puffer_tensor::matmul::{default_profile, set_default_profile, MatmulProfile};

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
    let optimized = args.optimized;
    // Process-wide: put back at the end, `all` runs the next experiment in
    // this process.
    let prior_profile = default_profile();
    set_default_profile(if optimized {
        MatmulProfile::Optimized
    } else {
        MatmulProfile::Reproducible
    });
    let profile_name =
        if optimized { "speed-optimized (Table 20)" } else { "reproducible (Table 6)" };
    let data = setups::cifar_data(scale);
    let reps = scale.pick(2, 5);
    println!("== Runtime mini-benchmark, {profile_name} profile, {reps} epochs ==\n");

    let mut t = Table::new(vec!["Model Archs.", "Epoch Time (sec.)", "Speedup", "paper speedup"]);
    let mut rows = |arch: &str, (vm, vs): (f64, f64), (pm, ps): (f64, f64), paper: &str| {
        t.row(vec![
            format!("Vanilla {arch}"),
            format!("{vm:.2} ± {vs:.2}"),
            "-".into(),
            "-".into(),
        ]);
        t.row(vec![
            format!("Pufferfish {arch}"),
            format!("{pm:.2} ± {ps:.2}"),
            format!("{:.2}x", vm / pm),
            paper.into(),
        ]);
    };

    let mut vanilla = setups::vgg19(10, 1);
    let vanilla_time = epoch_time(&mut vanilla, &data, reps);
    let mut puffer = vanilla.to_hybrid(10, 0.25, FactorInit::WarmStart).expect("hybrid");
    let puffer_time = epoch_time(&mut puffer, &data, reps);
    rows("VGG-19", vanilla_time, puffer_time, if optimized { "1.01x" } else { "1.23x" });

    let mut vanilla = setups::resnet18(10, 1);
    let vanilla_time = epoch_time(&mut vanilla, &data, reps);
    let mut puffer = vanilla
        .to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::WarmStart)
        .expect("hybrid");
    let puffer_time = epoch_time(&mut puffer, &data, reps);
    rows("ResNet-18", vanilla_time, puffer_time, if optimized { "1.16x" } else { "1.48x" });

    set_default_profile(prior_profile);
    rec.table(t);
    println!("\nshape under reproduction: Pufferfish > 1x speedup, larger for ResNet-18 than");
    println!("VGG-19, and smaller under the speed-optimized profile (run with --optimized).");
    rec
}
