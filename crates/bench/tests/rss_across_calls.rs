//! Satellite guarantee: calling the data-parallel trainer again and again
//! in one process does not grow the process.
//!
//! Every call spawns its worker threads afresh, and every worker owns a
//! replica's worth of buffers. What used to happen: gradient-sized buffers
//! allocated on a worker were dropped on the caller's thread (and the
//! other way round) and ended up in the wrong thread's arena, and what the
//! dying workers freed stayed on the allocator's free lists where the next
//! call's fresh threads only found part of it — the peak resident set of
//! the tenth call was up to twice that of the first. Now payload buffers
//! stay with the thread that allocated them, what a worker hands over at
//! the end of a run is copied and freed, and the trainer trims the heap
//! once its workers are joined.
//!
//! The two configurations are the benchmark's data-parallel workloads at a
//! reduced width. One test only, and nothing else in this binary: the
//! resident set is the process's.

#![cfg(target_os = "linux")]

use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::GradCompressor;
use puffer_dist::cost::CollectiveAlgo;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::units::FactorInit;
use puffer_models::vgg::{Vgg, VggConfig};
use puffer_nn::layer::Layer;
use puffer_tensor::Tensor;

/// Peak resident set in bytes since the process started or the watermark
/// was last reset.
fn peak_rss() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0
}

/// Restarts the watermark at the current resident set. Where the kernel
/// refuses, the watermark keeps running and a call's peak is the peak so
/// far — which a creeping process still fails and a steady one still
/// passes.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

fn image_batches(steps: usize, rows: usize, seed: u64) -> Vec<(Tensor, Vec<usize>)> {
    (0..steps)
        .map(|b| {
            let x = Tensor::randn(&[rows, 3, 32, 32], 1.0, seed + b as u64);
            (x, (0..rows).map(|i| (i + b) % 10).collect())
        })
        .collect()
}

/// Peak resident set of each of `calls` identical runs.
fn peaks<M: Layer + Send>(
    calls: usize,
    factory: impl Fn(usize) -> M + Sync,
    compressor: impl Fn() -> Box<dyn GradCompressor>,
    batches: &[(Tensor, Vec<usize>)],
    opts: &RunOptions,
) -> Vec<f64> {
    let cfg = DistConfig::p3(2, 0.05);
    (0..calls)
        .map(|_| {
            reset_peak_rss();
            let mut comp = compressor();
            let out = train_data_parallel_with(&factory, batches, comp.as_mut(), &cfg, opts)
                .expect("clean run");
            assert!(out.faults.is_clean());
            peak_rss()
        })
        .collect()
}

fn assert_steady(what: &str, peaks: &[f64]) {
    let mb: Vec<u64> = peaks.iter().map(|p| (p / 1e6).round() as u64).collect();
    let (second, last) = (peaks[1], peaks[peaks.len() - 1]);
    assert!(
        last <= 1.10 * second,
        "{what}: peak RSS of call {} is {:.2}x that of call 2 (MB per call: {mb:?})",
        peaks.len(),
        last / second
    );
}

#[test]
fn peak_rss_of_the_tenth_call_is_that_of_the_second() {
    puffer_tensor::pool::set_num_threads(1);

    // dp2_vgg19_powersgd at half its width: vanilla VGG-19, PowerSGD rank 4,
    // one flat bucket.
    let opts = RunOptions {
        bucket_bytes: Some(usize::MAX),
        collective: Some(CollectiveAlgo::Ring),
        ..RunOptions::default()
    };
    let vgg = peaks(
        10,
        |_| Vgg::new(VggConfig::vgg19(0.25, 10, 5)).expect("valid config"),
        || Box::new(PowerSgd::new(4, 5)),
        &image_batches(2, 8, 70),
        &opts,
    );
    assert_steady("vgg19 + powersgd", &vgg);

    // dp2_resnet18_hybrid_bucketed at half its batch: hybrid ResNet-18, no
    // codec, 256 KiB buckets.
    let opts = RunOptions { bucket_bytes: Some(256 * 1024), ..opts };
    let resnet = peaks(
        10,
        |_| {
            ResNet::new(ResNetConfig::resnet18(0.25, 10, 5))
                .and_then(|m| {
                    m.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(5))
                })
                .expect("valid config")
        },
        || Box::new(NoCompression::new()),
        &image_batches(2, 32, 90),
        &opts,
    );
    assert_steady("hybrid resnet18, bucketed", &resnet);
}
