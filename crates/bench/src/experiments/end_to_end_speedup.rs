//! **Figure 4 end-to-end numbers** (§4.2): total time-to-accuracy of
//! Pufferfish vs vanilla SGD, Signum, and PowerSGD on ResNet-18 / CIFAR-10
//! (8 nodes), *including* Pufferfish's warm-up phase and SVD overhead.
//!
//! Pufferfish's warm-up epochs run on the **full-rank** model (the paper
//! additionally compresses those epochs with PowerSGD rank 4, which we
//! reproduce); the remaining epochs run on the hybrid model with plain
//! allreduce. Shape under reproduction: end-to-end Pufferfish beats
//! vanilla (paper 1.74×), Signum (1.52×), and PowerSGD (1.22×) while
//! matching vanilla accuracy.

use crate::setups::{self, breakdown_table, no_codec, Method};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::signum::Signum;
use puffer_models::resnet::ResNetHybridPlan;
use pufferfish::trainer::evaluate;

const NODES: usize = 8;

/// Trains the four methods end to end and prints time-to-accuracy and the
/// convergence curves.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("end-to-end-speedup");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs = scale.pick(4, 10);
    let warmup = scale.pick(1, 3);
    let batches = data.train_batches(32, 0);
    println!("== End-to-end speedup, ResNet-18 / CIFAR-10, {NODES} nodes, {epochs} epochs ==\n");

    // Baselines: the whole budget on the full-rank model. Pufferfish:
    // warm-up epochs on the full model with PowerSGD rank 4, then SVD
    // (timed), then hybrid epochs with plain allreduce.
    let runs = breakdown_table(
        NODES,
        (&|| setups::resnet18(10, 1), &ResNetHybridPlan::resnet18_paper()),
        &batches,
        epochs,
        &[
            Method::baseline("vanilla-sgd", no_codec),
            Method::baseline("signum", || Box::new(Signum::new(0.9))),
            Method::baseline("powersgd-r2", || Box::new(PowerSgd::new(2, 3))),
            Method {
                name: "pufferfish",
                codec: no_codec,
                warmup: Some((warmup, || Box::new(PowerSgd::new(4, 3)))),
            },
        ],
    );

    // (method, end-to-end seconds, accuracy) and, per method, the
    // post-switch (cumulative seconds, train loss) series — the
    // convergence-vs-wall-clock curves of the paper's Figure 4 bottom rows.
    let mut results: Vec<(&str, f64, f32)> = Vec::new();
    let mut curves: Vec<(&str, Vec<(f64, f32)>)> = Vec::new();
    for mut run in runs {
        let mut total = 0.0f64;
        let mut curve = Vec::new();
        for (i, (bd, loss)) in run.epochs.iter().enumerate() {
            if i == run.warmup_epochs {
                total += run.svd_s; // SVD overhead included
            }
            total += bd.total().as_secs_f64();
            if i >= run.warmup_epochs {
                curve.push((total, *loss));
            }
        }
        let (_, acc) = evaluate(&mut run.model, &data, 32).expect("eval");
        results.push((run.method, total, acc));
        curves.push((run.method, curve));
    }

    let mut t =
        Table::new(vec!["method", "end-to-end (s)", "final acc", "speedup of pufferfish", "paper"]);
    let puffer_total = results.iter().find(|(m, _, _)| *m == "pufferfish").expect("ran").1;
    for (method, total, acc) in &results {
        let paper = match *method {
            "vanilla-sgd" => "1.74x",
            "signum" => "1.52x",
            "powersgd-r2" => "1.22x",
            _ => "-",
        };
        t.row(vec![
            (*method).into(),
            format!("{total:.2}"),
            format!("{acc:.3}"),
            if *method == "pufferfish" {
                "-".into()
            } else {
                format!("{:.2}x", total / puffer_total)
            },
            paper.into(),
        ]);
    }
    rec.table(t);

    // Convergence vs wall-clock (Figure 4 bottom-row analogue).
    println!("\nconvergence vs cumulative wall-clock (train loss @ seconds):");
    for (method, curve) in &curves {
        let series: Vec<String> = curve.iter().map(|(s, l)| format!("{l:.2}@{s:.1}s")).collect();
        println!("  {method:<14} {}", series.join(" -> "));
    }
    println!("\nall reported times include Pufferfish's warm-up + SVD overhead (as in the paper).");
    rec
}
