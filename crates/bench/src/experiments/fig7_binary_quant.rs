//! **Figure 7** (appendix F): why "cheap" gradient quantization is slow in
//! practice — per-epoch breakdown of stochastic binary quantization
//! (Suresh et al. 2016) vs Pufferfish and vanilla SGD on ResNet-50 /
//! ImageNet(-lite), 16 nodes.
//!
//! Shape under reproduction: binary quantization compresses 32× on the
//! wire, but (i) its messages need allgather, whose cost grows with node
//! count, and (ii) its *decompression* cost scales linearly in the number
//! of workers — making it slower end-to-end than uncompressed allreduce
//! (the paper measures 12.1 s compress, 118.4 s decompress per epoch).

use crate::setups::{self, breakdown_table, no_codec, Method};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::quant::BinaryQuant;
use puffer_models::resnet::ResNetHybridPlan;

const NODES: usize = 16;

/// Measures the three methods over one epoch and prints the table.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig7-binary-quant");
    let scale = args.scale;
    let data = setups::imagenet_lite_data(scale);
    let classes = data.config().classes;
    let batches = data.train_batches(32, 0);
    println!("== Figure 7: stochastic binary quantization breakdown, {NODES} nodes ==\n");

    let runs = breakdown_table(
        NODES,
        (&|| setups::resnet50(classes, 1), &ResNetHybridPlan::resnet50_paper()),
        &batches,
        1,
        &[
            Method::baseline("vanilla-sgd", no_codec),
            Method::pufferfish("pufferfish", no_codec),
            Method::baseline("binary-quant", || Box::new(BinaryQuant::new(5))),
        ],
    );
    let mut t = Table::new(vec!["method", "compute", "compress", "decompress", "comm", "total"]);
    for run in &runs {
        let (bd, _) = run.last();
        t.row(vec![
            run.method.into(),
            format!("{:.3}", bd.compute.as_secs_f64()),
            format!("{:.3}", bd.encode.as_secs_f64()),
            format!("{:.3}", bd.decode.as_secs_f64()),
            format!("{:.4}", bd.comm.as_secs_f64()),
            format!("{:.3}", bd.total().as_secs_f64()),
        ]);
    }
    rec.table(t);
    let (quant, _) = runs.last().expect("three methods ran").last();
    println!(
        "\nshape: binary-quant decompress ({:.3}s) >> compress ({:.3}s) — the paper's 118.4 vs 12.1 asymmetry,",
        quant.decode.as_secs_f64(),
        quant.encode.as_secs_f64()
    );
    println!("because allgather decoding expands all {NODES} workers' messages.");
    rec
}
