//! The direct convolutions against the core's FMA peak: every layer shape
//! the benchmark workloads run on the direct kernels (`conv_direct.rs`),
//! each primitive timed on one thread on every kernel tier the host has.
//!
//! The shapes are those of the hybrid ResNet-18 ×0.25 step at a worker's
//! batch of 32 (`dp2_resnet18_hybrid_bucketed`, all 34 of its convolutions),
//! the direct layers of ResNet-18 ×0.25 at batch 16 (`resnet18_alg1`: its
//! vanilla and its hybrid phase) and VGG-19 ×0.5's two 32-channel layers at
//! batch 8 (`dp2_vgg19_powersgd`). Each row is one distinct shape: how
//! often each workload's step runs it (`uses`), the best-of-`reps` time of
//! forward, weight gradient and input gradient in ms, their GFLOP/s, and
//! `of_peak` against that tier's `fma-peak` row (the register-only FMA
//! loop of `gemm-scaling`, one core). `B/fma` is the compulsory traffic per
//! multiply–add: the bytes of `x`, `W` and `y` (each primitive reads two of
//! them and writes the third) over the layer's multiply–adds; the thinner
//! the layer, the higher it is and the further below the peak its bound
//! lies. The `step` rows sum `uses × (fwd + dW + dX)` per workload: one
//! worker's convolution time per training step (for R, one vanilla and one
//! hybrid step together).
//!
//! Usage: `puffer-bench conv-roofline [--quick]` (`--quick`: best of 3
//! instead of 7). The scalar tier runs each primitive once. The tool leaves
//! the tier and the pool width as it found them.

use super::gemm_scaling::fma_peak;
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::{RankRule, ResNetConfig, ResNetHybridPlan};
use puffer_models::units::rank_for;
use puffer_models::vgg::VggConfig;
use puffer_probe::Stopwatch;
use puffer_tensor::conv::{
    conv2d_forward, conv2d_grad_input, conv2d_grad_weight, ConvGeometry, DIRECT_MAX_C_OUT,
    DIRECT_MAX_C_OUT_1X1,
};
use puffer_tensor::gemm::{self, Tier};
use puffer_tensor::{pool, Tensor};

/// One convolution of a model: its geometry and output channels.
type Conv = (ConvGeometry, usize);

/// The convolutions of ResNet-18 ×0.25 on 32×32 inputs, in model order:
/// vanilla, or under the paper's hybrid plan (each covered `k × k` layer
/// is a `k × k` conv to `rank` channels and a 1×1 conv back out).
fn resnet18(hybrid: bool) -> Vec<Conv> {
    let cfg = ResNetConfig::resnet18(0.25, 10, 0);
    let plan = ResNetHybridPlan::resnet18_paper();
    assert!(plan.rank_rule == RankRule::OutChannels && !plan.factorize_shortcut);
    let geo = |c_in, h, k, stride, padding| ConvGeometry { c_in, h, w: h, k, stride, padding };
    let mut convs = Vec::new();
    let push = |convs: &mut Vec<Conv>, low_rank: bool, c_in, c_out, h, stride| {
        if low_rank {
            let (u, r) = (geo(c_in, h, 3, stride, 1), rank_for(c_out, plan.rank_ratio, c_out));
            convs.push((u, r));
            convs.push((geo(r, u.h_out(), 1, 1, 0), c_out));
        } else {
            convs.push((geo(c_in, h, 3, stride, 1), c_out));
        }
    };
    let (mut c_in, mut h) = (cfg.base_width, 32);
    push(&mut convs, false, 3, c_in, h, 1);
    for (stage, &blocks) in cfg.stage_blocks.iter().enumerate() {
        let c_out = cfg.base_width << stage;
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let low_rank = hybrid
                && (stage > plan.start_stage
                    || (stage == plan.start_stage && block >= plan.start_block));
            push(&mut convs, low_rank, c_in, c_out, h, stride);
            let h_out = geo(c_in, h, 3, stride, 1).h_out();
            push(&mut convs, low_rank, c_out, c_out, h_out, 1);
            if stride != 1 || c_in != c_out {
                convs.push((geo(c_in, h, 1, stride, 0), c_out));
            }
            (c_in, h) = (c_out, h_out);
        }
    }
    convs
}

/// VGG-19 ×0.5's convolutions (3×3, padding 1, 2×2 pooling after each
/// stage) on 32×32 inputs.
fn vgg19() -> Vec<Conv> {
    let cfg = VggConfig::vgg19(0.5, 10, 0);
    let (mut c_in, mut h, mut convs) = (3, cfg.input_size, Vec::new());
    for stage in &cfg.stages {
        for &c_out in stage {
            convs.push((ConvGeometry { c_in, h, w: h, k: 3, stride: 1, padding: 1 }, c_out));
            c_in = c_out;
        }
        h /= 2;
    }
    convs
}

/// Whether the direct kernels take a layer — the bound `conv2d_*` applies
/// for the stride-1 and stride-2 layers these models have.
fn direct(&(geo, c_out): &Conv) -> bool {
    let widest = if geo.k == 1 { DIRECT_MAX_C_OUT_1X1 } else { DIRECT_MAX_C_OUT };
    geo.stride <= 2 && c_out <= widest
}

/// The workloads' direct layers: `(name, batch, convolutions)`.
fn workloads() -> Vec<(&'static str, usize, Vec<Conv>)> {
    let mut r = resnet18(false);
    r.extend(resnet18(true));
    [("B", 32, resnet18(true)), ("R", 16, r), ("V", 8, vgg19())]
        .into_iter()
        .map(|(name, batch, convs)| (name, batch, convs.into_iter().filter(direct).collect()))
        .collect()
}

/// Best of `reps` wall times of `f`, in seconds, after one untimed call.
fn best_of(reps: usize, mut f: impl FnMut() -> Tensor) -> f64 {
    assert!(f().as_slice().iter().all(|v| v.is_finite()));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        // Keep the result observable so the call cannot be elided.
        assert!(!out.as_slice().is_empty());
    }
    best
}

/// Times every distinct direct shape of the three workloads on every host
/// tier, one thread, then sums each workload's step.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("conv-roofline");
    let (prev_threads, prev_tier) = (pool::num_threads(), gemm::tier());
    let reps = args.scale.pick(3, 7);
    let loads = workloads();
    // Distinct (shape, batch), with each workload's uses of it per step.
    let mut shapes: Vec<(Conv, usize, Vec<usize>)> = Vec::new();
    for (w, (_, batch, convs)) in loads.iter().enumerate() {
        for &conv in convs {
            let at = shapes.iter().position(|&(c, b, _)| (c, b) == (conv, *batch));
            let at = at.unwrap_or_else(|| {
                shapes.push((conv, *batch, vec![0; loads.len()]));
                shapes.len() - 1
            });
            shapes[at].2[w] += 1;
        }
    }
    println!(
        "direct convolutions, 1 thread, host tier {}: {} distinct shapes ({})",
        gemm::host_tier().name(),
        shapes.len(),
        loads
            .iter()
            .map(|(n, b, c)| format!("{n}: {} at batch {b}", c.len()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut t = Table::new(vec![
        "shape",
        "batch",
        "uses B/R/V",
        "tier",
        "B/fma",
        "fwd_ms",
        "dW_ms",
        "dX_ms",
        "fwd_gflops",
        "dW_gflops",
        "dX_gflops",
        "fwd_of_peak",
        "dW_of_peak",
        "dX_of_peak",
    ]);
    pool::set_num_threads(1);
    for tier in gemm::host_tiers().collect::<Vec<_>>().into_iter().rev() {
        let peak = fma_peak(tier);
        gemm::set_tier(tier);
        let reps = if tier == Tier::Scalar { 1 } else { reps };
        let mut steps = vec![0.0f64; loads.len()];
        for (i, &((geo, c_out), n, ref uses)) in shapes.iter().enumerate() {
            let x = Tensor::randn(&[n, geo.c_in, geo.h, geo.w], 1.0, 1 + i as u64);
            let w = Tensor::randn(&[c_out, geo.c_in, geo.k, geo.k], 0.1, 2 + i as u64);
            let dy = Tensor::randn(&[n, c_out, geo.h_out(), geo.w_out()], 1.0, 3 + i as u64);
            let secs = [
                best_of(reps, || conv2d_forward(&x, &w, &geo).unwrap()),
                best_of(reps, || conv2d_grad_weight(&x, &dy, &geo).unwrap()),
                best_of(reps, || conv2d_grad_input(&w, &dy, &geo).unwrap()),
            ];
            let macs = (n * c_out * geo.patch_rows() * geo.h_out() * geo.w_out()) as f64;
            let bytes = 4 * (x.as_slice().len() + w.as_slice().len() + dy.as_slice().len());
            let gflops = secs.map(|s| 2.0 * macs / s / 1e9);
            for (step, &u) in steps.iter_mut().zip(uses) {
                *step += u as f64 * secs.iter().sum::<f64>();
            }
            let mut row = vec![
                format!("{}->{} k{} s{} @{}x{}", geo.c_in, c_out, geo.k, geo.stride, geo.h, geo.w),
                n.to_string(),
                uses.iter().map(usize::to_string).collect::<Vec<_>>().join("/"),
                tier.name().into(),
                format!("{:.2}", bytes as f64 / macs),
            ];
            row.extend(secs.iter().map(|s| format!("{:.3}", s * 1e3)));
            row.extend(gflops.iter().map(|g| format!("{g:.2}")));
            row.extend(gflops.iter().map(|g| format!("{:.2}", g / peak)));
            t.row(row);
        }
        for ((name, batch, _), step) in loads.iter().zip(&steps) {
            let mut row = vec![
                format!("step {name}"),
                batch.to_string(),
                "-".into(),
                tier.name().into(),
                "-".into(),
                format!("{:.3}", step * 1e3),
            ];
            row.extend(["-"; 8].map(String::from));
            t.row(row);
        }
        t.row({
            let mut row =
                vec!["fma-peak".into(), "-".into(), "-".into(), tier.name().into(), "-".into()];
            row.extend(["-"; 3].map(String::from));
            row.extend([format!("{peak:.2}"), "-".into(), "-".into()]);
            row.extend(["1.00", "-", "-"].map(String::from));
            row
        });
    }
    gemm::set_tier(prev_tier);
    pool::set_num_threads(prev_threads);
    rec.table(t);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workloads_direct_layers_are_counted() {
        let loads = workloads();
        // B runs every one of its 34 convolutions direct; V its first two.
        assert_eq!(loads[0].2.len(), 34);
        assert_eq!(resnet18(true).len(), 34);
        assert_eq!(loads[2].2.len(), 2);
        assert!(loads[2].2.iter().all(|&(geo, c_out)| c_out == 32 && geo.h == 32));
    }
}
