//! **Figure 4(c)**: DDP scalability — per-epoch time of vanilla vs
//! Pufferfish ResNet-50 under PyTorch-DDP-style bucketed, overlapped
//! allreduce across 2/4/8/16 nodes, plus end-to-end convergence at 8
//! nodes.
//!
//! Per-batch forward/backward times are measured on the real bench-scale
//! models; gradient sizes use the **full-scale** ledgers (what determines
//! real DDP traffic); bucketing and overlap are the trainer's own
//! [`BucketPlan`] and [`overlap_timeline`] at DDP's 25 MB bucket size,
//! with buckets becoming ready at evenly spaced points of backward. Shape
//! under reproduction: Pufferfish's per-epoch speedup grows with node
//! count (paper: 1.52× at 16 nodes). Every time column is per node: the
//! per-batch times are one model's on the calling thread, and the
//! convergence check at the end — an 8-replica `train_data_parallel` run,
//! of which only the losses are printed — times each replica only while it
//! has a hardware thread to itself.

use crate::setups;
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::pack::PackLayout;
use puffer_dist::bucket::{overlap_timeline, BucketPlan};
use puffer_dist::cost::ClusterProfile;
use puffer_models::spec::{resnet50_imagenet, SpecVariant};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_probe::Stopwatch;
use puffer_tensor::Tensor;
use std::time::Duration;

/// Measures mean (forward, backward) time per batch.
fn fwd_bwd_time<M: Layer>(
    model: &mut M,
    images: &Tensor,
    labels: &[usize],
    reps: usize,
) -> (Duration, Duration) {
    let (mut fwd, mut bwd) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..reps {
        model.zero_grad();
        let t0 = Stopwatch::start();
        let logits = model.forward(images, Mode::Train);
        fwd += t0.elapsed();
        let (_, dl) = softmax_cross_entropy(&logits, labels, 0.0).expect("loss");
        let t0 = Stopwatch::start();
        let _ = model.backward(&dl);
        bwd += t0.elapsed();
    }
    (fwd / reps as u32, bwd / reps as u32)
}

/// DDP's default bucket size (25 MB), per the paper's footnote 2.
const DDP_BUCKET_BYTES: usize = 25 << 20;

/// The full-scale gradient layout DDP ships for `variant`, cut into DDP's
/// buckets.
fn ddp_plan(variant: SpecVariant) -> BucketPlan {
    let spec = resnet50_imagenet(variant);
    let shapes = spec.layers.iter().map(|l| vec![l.params as usize]).collect();
    BucketPlan::new(&PackLayout::from_shapes(shapes), DDP_BUCKET_BYTES)
}

/// Seconds per DDP step: compute plus whatever communication the overlap
/// could not hide behind backward.
fn ddp_step_seconds(fwd: Duration, bwd: Duration, plan: &BucketPlan, nodes: usize) -> f64 {
    let profile = ClusterProfile::p3_like(nodes);
    let n = plan.buckets();
    let ready_us: Vec<u64> =
        (1..=n).map(|i| (fwd + bwd.mul_f64(i as f64 / n as f64)).as_micros() as u64).collect();
    let compute = fwd + bwd;
    let exposed: Duration =
        overlap_timeline(plan, &ready_us, compute, nodes, |bytes| profile.allreduce(bytes))
            .iter()
            .map(|b| b.exposed)
            .sum();
    (compute + exposed).as_secs_f64()
}

/// Measures compute, prices the overlap at 2–16 nodes, and checks convergence.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig4c-ddp-scaling");
    let scale = args.scale;
    let data = setups::imagenet_lite_data(scale);
    let classes = data.config().classes;
    let reps = scale.pick(2, 5);
    let steps_per_epoch = scale.pick(20, 100);
    let (images, labels) = &data.train_batches(32, 0)[0];

    // Measured compute at bench scale for the vanilla model. At 1/64 width
    // the conv5_x-only factorization's compute saving is inside CPU noise
    // (and the added 1x1 layers even cost overhead), so Pufferfish's
    // compute is derived from the measured vanilla times via the exact
    // full-scale MAC ratio (4.09G -> 3.53G, Table 5 ledgers) — the same
    // extrapolation Figure 4(a) prints.
    let mut vanilla = setups::resnet50(classes, 1);
    let (fv, bv) = fwd_bwd_time(&mut vanilla, images, labels, reps);
    let mac_ratio = resnet50_imagenet(SpecVariant::Pufferfish).macs() as f64
        / resnet50_imagenet(SpecVariant::Vanilla).macs() as f64;
    let fp = Duration::from_secs_f64(fv.as_secs_f64() * mac_ratio);
    let bp = Duration::from_secs_f64(bv.as_secs_f64() * mac_ratio);

    let vanilla_plan = ddp_plan(SpecVariant::Vanilla);
    let puffer_plan = ddp_plan(SpecVariant::Pufferfish);

    println!("== Figure 4(c): DDP per-epoch scaling, ResNet-50, {steps_per_epoch} steps/epoch ==");
    println!("compute/batch: vanilla fwd {:.1}ms bwd {:.1}ms (measured) | pufferfish fwd {:.1}ms bwd {:.1}ms (MAC-ratio {:.3})\n",
        fv.as_secs_f64() * 1e3, bv.as_secs_f64() * 1e3, fp.as_secs_f64() * 1e3, bp.as_secs_f64() * 1e3, mac_ratio);

    // One row per node count: epoch seconds of both models for the given
    // per-batch (forward, backward) times.
    let scaling_table = |(fv, bv): (Duration, Duration), (fp, bp): (Duration, Duration)| {
        let mut t =
            Table::new(vec!["nodes", "vanilla s/epoch", "pufferfish s/epoch", "speedup", "paper"]);
        for nodes in [2usize, 4, 8, 16] {
            let ev = ddp_step_seconds(fv, bv, &vanilla_plan, nodes) * steps_per_epoch as f64;
            let ep = ddp_step_seconds(fp, bp, &puffer_plan, nodes) * steps_per_epoch as f64;
            t.row(vec![
                nodes.to_string(),
                format!("{ev:.2}"),
                format!("{ep:.2}"),
                format!("{:.2}x", ev / ep),
                if nodes == 16 { "1.52x".into() } else { String::new() },
            ]);
        }
        t
    };
    rec.table(scaling_table((fv, bv), (fp, bp)));

    // On CPU, compute per batch is ~10x a V100's, so communication hides
    // entirely behind backward and the speedup stays flat in the node
    // count. Re-run the same bucketed-overlap simulation with the paper's
    // compute regime (~100 ms per batch-32 forward+backward on a V100,
    // Goyal et al.-era throughput) to expose the scaling shape.
    println!("\nV100-like compute regime (fwd 30ms / bwd 70ms per batch):");
    let (fv100, bv100) = (Duration::from_millis(30), Duration::from_millis(70));
    let fp100 = Duration::from_secs_f64(fv100.as_secs_f64() * mac_ratio);
    let bp100 = Duration::from_secs_f64(bv100.as_secs_f64() * mac_ratio);
    rec.table(scaling_table((fv100, bv100), (fp100, bp100)));

    // End-to-end convergence at 8 nodes: real training of both models on
    // the threaded data-parallel trainer.
    println!("\nend-to-end convergence check (8 worker threads, real gradients):");
    let epochs = scale.pick(1, 2);
    let mut comp = puffer_compress::none::NoCompression::new();
    let batches: Vec<_> = (0..epochs).flat_map(|e| data.train_batches(32, e as u64)).collect();
    let cfg = puffer_dist::trainer::DistConfig::p3(8, 0.02);
    let out = puffer_dist::trainer::train_data_parallel(
        |_| setups::resnet50(classes, 9),
        &batches,
        &mut comp,
        &cfg,
    )
    .expect("ddp run");
    let early: f32 =
        out.step_losses.iter().take(3).sum::<f32>() / out.step_losses.len().clamp(1, 3) as f32;
    let late_n = out.step_losses.len().clamp(1, 3);
    let late: f32 = out.step_losses.iter().rev().take(late_n).sum::<f32>() / late_n as f32;
    println!(
        "vanilla DDP loss (3-step means): {early:.3} -> {late:.3} over {} steps",
        out.step_losses.len()
    );
    rec
}
