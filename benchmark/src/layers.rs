//! The traced pass: where one training step's time goes, layer by layer,
//! measured from outside through public APIs only. Three sources:
//!
//! 1. a *driven step loop* — the trainer's own step sequence replayed by the
//!    benchmark over the same model and data, one span per phase of the step;
//! 2. a *deck replay* — every distinct layer call of the step ([`crate::deck`])
//!    and every GEMM / `im2col` / `col2im` / SVD beneath them, timed
//!    standalone at exactly the workload's shapes;
//! 3. direct calls into the codec, packing, bucketing and collective code on
//!    gradient-shaped buffers of the workload's model.
//!
//! `core.*` and `dist.*` breakdown numbers come from the reports the timed
//! units returned. A metric that does not apply to a workload reads 0.

use crate::deck::{self, Gemm, GemmKind, Lowering, Op};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    repeat_for, DataParallel, Detail, DpKind, ResnetAlg1, TransformerAlg1, Unit, Workload,
};
use puffer_compress::pack::{pack_refs_with, unpack, PackLayout};
use puffer_data::translation::TokenBatch;
use puffer_dist::breakdown::EpochBreakdown;
use puffer_dist::bucket::{BucketPlan, BucketedReducer};
use puffer_dist::ring::ring_allreduce;
use puffer_dist::trainer::DistConfig;
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::transformer::TransformerModel;
use puffer_models::units::FactorInit;
use puffer_nn::activation::Relu;
use puffer_nn::attention::{BlockRank, FeedForward, MultiHeadAttention};
use puffer_nn::conv::{Conv2d, LowRankConv2d};
use puffer_nn::embedding::Embedding;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::norm::{BatchNorm2d, LayerNorm};
use puffer_nn::optim::{clip_grad_norm, Adam, Sgd};
use puffer_nn::pool::{GlobalAvgPool, MaxPool2d};
use puffer_nn::schedule::LrSchedule;
use puffer_tensor::conv::{col2im, im2col, ConvGeometry};
use puffer_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use puffer_tensor::svd::truncated_svd_seeded;
use puffer_tensor::Tensor;
use pufferfish::seq2seq::{evaluate_nll, masked_ce, teacher_forcing};
use pufferfish::trainer::{evaluate, ImageModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Repetitions of every standalone layer / kernel call; the median counts.
const REPLAY_REPS: usize = 5;
/// Fewest rounds (one whole unit and one driven epoch per model phase) of an
/// Algorithm-1 traced pass, and epochs the data-parallel driven loop runs.
/// Medians over them count, so one disturbed stretch decides nothing.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` a data-parallel traced pass spends on whole units
/// before it turns to the driven loop and the replays.
const DP_UNIT_SHARE: f64 = 0.4;
/// Where `trace.driver_vs_e2e_ratio` must sit on the Algorithm-1 workloads.
const REPRESENTATIVE_RATIO: std::ops::RangeInclusive<f64> = 0.9..=1.1;
/// Side of the CIFAR-like images.
const IMAGE_HW: usize = 32;

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Median seconds of `reps` calls of `f`, each recorded as a span.
fn timed_reps(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let from = tr.spans().len();
    for _ in 0..reps {
        tr.span(layer, name, |_| f());
    }
    median_us(tr, from, name) / 1e6
}

/// Median of `values`, 0 for none.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Median duration (µs) of the spans called `name` recorded since `from`;
/// 0 if there are none (a phase the step does not have, such as clipping).
fn median_us(tr: &Tracer, from: usize, name: &str) -> f64 {
    let d: Vec<f64> =
        tr.spans()[from..].iter().filter(|s| s.name == name).map(|s| s.dur_us()).collect();
    median_or_zero(&d)
}

fn counted<T: Ord + Copy>(items: impl IntoIterator<Item = T>) -> BTreeMap<T, usize> {
    let mut m = BTreeMap::new();
    for it in items {
        *m.entry(it).or_insert(0) += 1;
    }
    m
}

// ------------------------------------------------------------ driven step loop

/// Milliseconds of the driven step over one epoch of batches: the median of
/// each phase of the step, and the *mean* of the whole step, because the
/// trainers' epoch wall it is compared with is a sum over every step.
#[derive(Debug, Clone, Copy, Default)]
struct StepTimes {
    zero_grad: f64,
    forward: f64,
    loss: f64,
    backward: f64,
    clip: f64,
    optim: f64,
    step_mean: f64,
}

impl StepTimes {
    /// Field by field, the median over the epochs driven.
    fn median_of(epochs: &[StepTimes]) -> StepTimes {
        let m = |f: fn(&StepTimes) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
        StepTimes {
            zero_grad: m(|e| e.zero_grad),
            forward: m(|e| e.forward),
            loss: m(|e| e.loss),
            backward: m(|e| e.backward),
            clip: m(|e| e.clip),
            optim: m(|e| e.optim),
            step_mean: m(|e| e.step_mean),
        }
    }
}

fn step_times(tr: &Tracer, from: usize) -> StepTimes {
    let m = |name| median_us(tr, from, name) / 1e3;
    StepTimes {
        zero_grad: m("zero_grad"),
        forward: m("forward"),
        loss: m("loss"),
        backward: m("backward"),
        clip: m("clip"),
        optim: m("optim_step"),
        step_mean: {
            let steps: Vec<f64> = tr.spans()[from..]
                .iter()
                .filter(|s| s.name == "step")
                .map(|s| s.dur_us())
                .collect();
            steps.iter().sum::<f64>() / steps.len().max(1) as f64 / 1e3
        },
    }
}

/// The image trainers' step: `pufferfish::trainer::train` with clipping, a
/// data-parallel worker's without.
fn drive_image(
    tr: &mut Tracer,
    model: &mut dyn Layer,
    batches: &[(Tensor, Vec<usize>)],
    opt: &mut Sgd,
    clip: Option<f32>,
    label_smoothing: f32,
) -> StepTimes {
    let from = tr.spans().len();
    for (i, (images, labels)) in batches.iter().enumerate() {
        tr.set_unit(i as u32);
        tr.span("core", "step", |tr| {
            tr.span("models", "zero_grad", |_| model.zero_grad());
            let logits = tr.span("models", "forward", |_| model.forward(images, Mode::Train));
            let (_, dlogits) = tr.span("nn", "loss", |_| {
                softmax_cross_entropy(&logits, labels, label_smoothing).expect("labels in range")
            });
            tr.span("models", "backward", |_| black_box(model.backward(&dlogits)));
            if let Some(c) = clip {
                tr.span("nn", "clip", |_| clip_grad_norm(&mut model.params_mut(), c));
            }
            tr.span("nn", "optim_step", |_| opt.step(&mut model.params_mut()));
        });
    }
    step_times(tr, from)
}

/// `pufferfish::seq2seq::train_seq2seq`'s step.
fn drive_seq(
    tr: &mut Tracer,
    model: &mut TransformerModel,
    batches: &[TokenBatch],
    opt: &mut Adam,
    clip: f32,
    label_smoothing: f32,
) -> StepTimes {
    let from = tr.spans().len();
    for (i, (src, tgt)) in batches.iter().enumerate() {
        tr.set_unit(i as u32);
        tr.span("core", "step", |tr| {
            let (tgt_in, targets, mask) =
                tr.span("core", "teacher_forcing", |_| teacher_forcing(tgt));
            tr.span("models", "zero_grad", |_| model.zero_grad());
            let logits = tr.span("models", "forward", |_| model.forward(src, &tgt_in, true));
            let (_, dlogits) = tr.span("nn", "loss", |_| {
                masked_ce(&logits, &targets, &mask, label_smoothing).expect("targets in range")
            });
            tr.span("models", "backward", |_| model.backward(&dlogits));
            tr.span("nn", "clip", |_| clip_grad_norm(&mut model.params_mut(), clip));
            tr.span("nn", "optim_step", |_| opt.step(&mut model.params_mut()));
        });
    }
    step_times(tr, from)
}

// ------------------------------------------------------------------ deck replay

/// Per-step milliseconds of one model phase, from standalone replays.
#[derive(Debug, Default)]
struct Replay {
    /// Layer time by replay span name (`conv_fwd`, `batchnorm_bwd`, `relu_fwd`, …).
    layer_ms: BTreeMap<&'static str, f64>,
    gemm_ms: f64,
    gemm_calls: f64,
    gemm_flops: f64,
    fullrank_ms: f64,
    fullrank_flops: f64,
    lowrank_ms: f64,
    lowrank_flops: f64,
    im2col_ms: f64,
    col2im_ms: f64,
    im2col_bytes: f64,
}

impl Replay {
    fn layers_total_ms(&self) -> f64 {
        self.layer_ms.values().sum()
    }
}

/// Seconds of one standalone forward/backward pair, booked under the span
/// names `fwd` and `bwd`. `call(false)` runs the forward, `call(true)` the
/// backward that consumes its cache.
fn replay_pair(
    tr: &mut Tracer,
    fwd: &'static str,
    bwd: &'static str,
    mut call: impl FnMut(bool),
) -> [(&'static str, f64); 2] {
    let from = tr.spans().len();
    for _ in 0..REPLAY_REPS {
        tr.span("nn", fwd, |_| call(false));
        tr.span("nn", bwd, |_| call(true));
    }
    [(fwd, median_us(tr, from, fwd) / 1e6), (bwd, median_us(tr, from, bwd) / 1e6)]
}

/// [`replay_pair`] for anything behind the `Layer` trait.
fn replay_layer(
    tr: &mut Tracer,
    fwd: &'static str,
    bwd: &'static str,
    layer: &mut dyn Layer,
    x: &Tensor,
) -> [(&'static str, f64); 2] {
    let dy = Tensor::randn(layer.forward(x, Mode::Train).shape(), 1.0, 11);
    replay_pair(tr, fwd, bwd, |backward| {
        black_box(if backward { layer.backward(&dy) } else { layer.forward(x, Mode::Train) });
    })
}

/// Replays one deck entry at `batch` samples; returns its forward and
/// backward seconds under the span names they were recorded with.
fn replay_op(tr: &mut Tracer, op: Op, batch: usize) -> [(&'static str, f64); 2] {
    let image = |c: usize, hw: usize| Tensor::randn(&[batch, c, hw, hw], 1.0, 7);
    let sequence = |t: usize, d: usize, seed: u64| Tensor::randn(&[batch, t, d], 1.0, seed);
    let block_rank = |r: Option<usize>| r.map_or(BlockRank::Full, BlockRank::LowRank);
    let ok = "deck shapes come from a valid model";
    match op {
        Op::Conv { c_in, c_out, k, stride, pad, hw, rank: None } => {
            let mut l = Conv2d::new(c_in, c_out, k, stride, pad, false, 1).expect(ok);
            replay_layer(tr, "conv_fwd", "conv_bwd", &mut l, &image(c_in, hw))
        }
        Op::Conv { c_in, c_out, k, stride, pad, hw, rank: Some(r) } => {
            let mut l = LowRankConv2d::new(c_in, c_out, k, stride, pad, r, 1).expect(ok);
            replay_layer(tr, "lowrank_conv_fwd", "lowrank_conv_bwd", &mut l, &image(c_in, hw))
        }
        Op::BatchNorm { c, hw } => {
            let mut l = BatchNorm2d::new(c).expect(ok);
            replay_layer(tr, "batchnorm_fwd", "batchnorm_bwd", &mut l, &image(c, hw))
        }
        Op::Relu { c, hw } => {
            replay_layer(tr, "relu_fwd", "relu_bwd", &mut Relu::new(), &image(c, hw))
        }
        Op::MaxPool { c, hw } => {
            replay_layer(tr, "pool_fwd", "pool_bwd", &mut MaxPool2d::new(2, 2), &image(c, hw))
        }
        Op::GlobalAvgPool { c, hw } => {
            replay_layer(tr, "pool_fwd", "pool_bwd", &mut GlobalAvgPool::new(), &image(c, hw))
        }
        Op::Linear { fin, fout } => {
            let mut l = Linear::new(fin, fout, true, 1).expect(ok);
            let x = Tensor::randn(&[batch, fin], 1.0, 7);
            replay_layer(tr, "linear_fwd", "linear_bwd", &mut l, &x)
        }
        Op::LayerNorm { d, t } => {
            let mut l = LayerNorm::new(d).expect(ok);
            replay_layer(tr, "layernorm_fwd", "layernorm_bwd", &mut l, &sequence(t, d, 7))
        }
        Op::Attention { d, heads, tq, tk, rank, causal } => {
            let mut l = MultiHeadAttention::new(d, heads, block_rank(rank), 1).expect(ok);
            let (q, kv, dy) = (sequence(tq, d, 7), sequence(tk, d, 8), sequence(tq, d, 9));
            replay_pair(tr, "attention_fwd", "attention_bwd", |backward| {
                if backward {
                    black_box(l.backward(&dy));
                } else {
                    black_box(l.forward(&q, &kv, causal));
                }
            })
        }
        Op::FeedForward { d, t, rank } => {
            let mut l = FeedForward::new(d, block_rank(rank), 1).expect(ok);
            let (x, dy) = (sequence(t, d, 7), sequence(t, d, 9));
            replay_pair(tr, "linear_fwd", "linear_bwd", |backward| {
                black_box(if backward { l.backward(&dy) } else { l.forward(&x) });
            })
        }
        Op::Embedding { vocab, d, t } => {
            let mut l = Embedding::new(vocab, d, 1).expect(ok);
            let tokens: Vec<usize> = (0..batch * t).map(|i| (i * 7 + 3) % vocab).collect();
            let grad = Tensor::randn(&[tokens.len(), d], 1.0, 9);
            replay_pair(tr, "embedding_fwd", "embedding_bwd", |backward| {
                if backward {
                    l.backward_for(&tokens, &grad);
                } else {
                    black_box(l.forward(&tokens));
                }
            })
        }
        Op::Projection { vocab, d, t } => {
            let mut l = Embedding::new(vocab, d, 1).expect(ok);
            let h = Tensor::randn(&[batch * t, d], 1.0, 7);
            let dlogits = Tensor::randn(&[batch * t, vocab], 1.0, 9);
            replay_pair(tr, "embedding_fwd", "embedding_bwd", |backward| {
                black_box(if backward {
                    l.backward_projection(&dlogits)
                } else {
                    l.project_logits(&h)
                });
            })
        }
    }
}

fn replay_gemm(tr: &mut Tracer, g: Gemm) -> f64 {
    let Gemm { kind, m, k, n, .. } = g;
    let (a, b) = match kind {
        GemmKind::Nn => (Tensor::randn(&[m, k], 1.0, 1), Tensor::randn(&[k, n], 1.0, 2)),
        GemmKind::Tn => (Tensor::randn(&[k, m], 1.0, 1), Tensor::randn(&[k, n], 1.0, 2)),
        GemmKind::Nt => (Tensor::randn(&[m, k], 1.0, 1), Tensor::randn(&[n, k], 1.0, 2)),
    };
    let ok = "deck GEMM shapes are consistent";
    match kind {
        GemmKind::Nn => timed_reps(tr, "tensor", "matmul", REPLAY_REPS, || {
            black_box(matmul(&a, &b).expect(ok));
        }),
        GemmKind::Tn => timed_reps(tr, "tensor", "matmul_tn", REPLAY_REPS, || {
            black_box(matmul_tn(&a, &b).expect(ok));
        }),
        GemmKind::Nt => timed_reps(tr, "tensor", "matmul_nt", REPLAY_REPS, || {
            black_box(matmul_nt(&a, &b).expect(ok));
        }),
    }
}

/// `(im2col seconds, col2im seconds, bytes one im2col reads + writes)`.
fn replay_lowering(tr: &mut Tracer, l: Lowering, batch: usize) -> (f64, f64, f64) {
    let geo =
        ConvGeometry { c_in: l.c_in, h: l.hw, w: l.hw, k: l.k, stride: l.stride, padding: l.pad };
    let x = Tensor::randn(&[batch, l.c_in, l.hw, l.hw], 1.0, 3);
    let cols = im2col(&x, &geo).expect("deck geometry is valid");
    let fwd = timed_reps(tr, "tensor", "im2col", REPLAY_REPS, || {
        black_box(im2col(&x, &geo).expect("deck geometry is valid"));
    });
    let bwd = timed_reps(tr, "tensor", "col2im", REPLAY_REPS, || {
        black_box(col2im(&cols, &geo, batch).expect("deck geometry is valid"));
    });
    (fwd, bwd, 4.0 * (x.len() + cols.len()) as f64)
}

fn replay_deck(tr: &mut Tracer, deck: &[Op], batch: usize) -> Replay {
    let mut r = Replay::default();
    for (op, n) in counted(deck.iter().copied()) {
        for (span, secs) in replay_op(tr, op, batch) {
            *r.layer_ms.entry(span).or_insert(0.0) += ms(secs) * n as f64;
        }
    }
    let mut gemms = Vec::new();
    let mut lowerings = Vec::new();
    for op in deck {
        op.gemms(batch, &mut gemms);
        op.lowerings(&mut lowerings);
    }
    for (g, n) in counted(gemms) {
        let (t, f) = (ms(replay_gemm(tr, g)) * n as f64, g.flops() * n as f64);
        r.gemm_ms += t;
        r.gemm_flops += f;
        r.gemm_calls += n as f64;
        if g.low_rank {
            r.lowrank_ms += t;
            r.lowrank_flops += f;
        } else {
            r.fullrank_ms += t;
            r.fullrank_flops += f;
        }
    }
    for (l, n) in counted(lowerings) {
        let (fwd, bwd, bytes) = replay_lowering(tr, l, batch);
        r.im2col_ms += ms(fwd) * n as f64;
        r.col2im_ms += ms(bwd) * n as f64;
        r.im2col_bytes += bytes * n as f64;
    }
    r
}

// --------------------------------------------------------------------- phases

/// One model phase of a workload's unit: vanilla or hybrid.
struct Phase {
    hybrid: bool,
    /// Share of the unit's training steps taken in this phase.
    weight: f64,
    driven: StepTimes,
    replay: Replay,
}

impl Phase {
    /// A phase of an Algorithm-1 unit, `warm` being the share of its epochs
    /// spent in vanilla warm-up.
    fn of_alg1(hybrid: bool, warm: f64, driven: StepTimes, replay: Replay) -> Phase {
        Phase { hybrid, weight: if hybrid { 1.0 - warm } else { warm }, driven, replay }
    }
}

/// Step-weighted per-step value over the phases.
fn mix(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    phases.iter().map(|p| p.weight * f(p)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Books everything that is computed the same way for every workload.
fn book_phases(m: &mut Metrics, phases: &[Phase]) {
    let layer_ms = |spans: &'static [&'static str]| {
        // `fold`, not `sum`: an empty f64 sum is -0.0, which would print as "-0".
        move |p: &Phase| {
            spans.iter().filter_map(|s| p.replay.layer_ms.get(s)).fold(0.0, |a, v| a + v)
        }
    };
    let by_spans: [(&'static str, &'static [&'static str]); 13] = [
        ("nn.conv_fwd_ms_per_step", &["conv_fwd"]),
        ("nn.conv_bwd_ms_per_step", &["conv_bwd"]),
        ("nn.lowrank_conv_fwd_ms_per_step", &["lowrank_conv_fwd"]),
        ("nn.lowrank_conv_bwd_ms_per_step", &["lowrank_conv_bwd"]),
        ("nn.batchnorm_fwd_ms_per_step", &["batchnorm_fwd"]),
        ("nn.batchnorm_bwd_ms_per_step", &["batchnorm_bwd"]),
        ("nn.relu_ms_per_step", &["relu_fwd", "relu_bwd"]),
        ("nn.pool_ms_per_step", &["pool_fwd", "pool_bwd"]),
        ("nn.linear_ms_per_step", &["linear_fwd", "linear_bwd"]),
        ("nn.attention_fwd_ms_per_step", &["attention_fwd"]),
        ("nn.attention_bwd_ms_per_step", &["attention_bwd"]),
        ("nn.layernorm_ms_per_step", &["layernorm_fwd", "layernorm_bwd"]),
        ("nn.embedding_ms_per_step", &["embedding_fwd", "embedding_bwd"]),
    ];
    for (metric, spans) in by_spans {
        m.insert(metric, mix(phases, layer_ms(spans)));
    }
    m.insert("nn.loss_ms_per_step", mix(phases, |p| p.driven.loss));
    m.insert("nn.clip_ms_per_step", mix(phases, |p| p.driven.clip));
    m.insert("nn.optim_ms_per_step", mix(phases, |p| p.driven.optim));

    let gemm_ms = mix(phases, |p| p.replay.gemm_ms);
    let fwd_bwd_ms = mix(phases, |p| p.driven.forward + p.driven.backward);
    m.insert("tensor.gemm_ms_per_step", gemm_ms);
    m.insert("tensor.gemm_calls_per_step", mix(phases, |p| p.replay.gemm_calls));
    // flops / ms / 1e6 = GFLOP/s
    m.insert("tensor.gemm_gflops", ratio(mix(phases, |p| p.replay.gemm_flops), gemm_ms * 1e6));
    m.insert(
        "tensor.gemm_fullrank_gflops",
        ratio(
            mix(phases, |p| p.replay.fullrank_flops),
            mix(phases, |p| p.replay.fullrank_ms) * 1e6,
        ),
    );
    m.insert(
        "tensor.gemm_lowrank_gflops",
        ratio(mix(phases, |p| p.replay.lowrank_flops), mix(phases, |p| p.replay.lowrank_ms) * 1e6),
    );
    let im2col_ms = mix(phases, |p| p.replay.im2col_ms);
    m.insert("tensor.im2col_ms_per_step", im2col_ms);
    m.insert("tensor.col2im_ms_per_step", mix(phases, |p| p.replay.col2im_ms));
    // bytes / ms / 1e6 = GB/s
    m.insert("tensor.im2col_gbps", ratio(mix(phases, |p| p.replay.im2col_bytes), im2col_ms * 1e6));
    m.insert("nn.non_gemm_share", ratio(fwd_bwd_ms - gemm_ms, fwd_bwd_ms));
    m.insert(
        "models.glue_share",
        ratio(fwd_bwd_ms - mix(phases, |p| p.replay.layers_total_ms()), fwd_bwd_ms),
    );

    for hybrid in [false, true] {
        let d = phases.iter().find(|p| p.hybrid == hybrid).map(|p| p.driven).unwrap_or_default();
        let names: [&'static str; 3] = if hybrid {
            [
                "models.fwd_ms_per_step.hybrid",
                "models.bwd_ms_per_step.hybrid",
                "models.zero_grad_ms_per_step.hybrid",
            ]
        } else {
            [
                "models.fwd_ms_per_step.vanilla",
                "models.bwd_ms_per_step.vanilla",
                "models.zero_grad_ms_per_step.vanilla",
            ]
        };
        m.insert(names[0], d.forward);
        m.insert(names[1], d.backward);
        m.insert(names[2], d.zero_grad);
    }
}

/// The deck's fidelity check: its parameters must sum to the model's, or the
/// replay timed the wrong shapes.
fn deck_drift(what: &str, deck: &[Op], model_params: usize) -> Option<String> {
    let ours = deck::param_count(deck);
    (ours != model_params).then(|| {
        format!("{what} deck has {ours} parameters, the model {model_params}: deck.rs has drifted")
    })
}

/// Seconds of the truncated SVDs the switch performs, on random matrices of
/// the same shapes.
fn svd_seconds(tr: &mut Tracer, shapes: &[(usize, usize, usize)]) -> f64 {
    counted(shapes.iter().copied())
        .into_iter()
        .map(|((rows, cols, rank), n)| {
            let a = Tensor::randn(&[rows, cols], 1.0, 5);
            n as f64
                * timed_reps(tr, "tensor", "truncated_svd", 3, || {
                    black_box(truncated_svd_seeded(&a, rank, 0x5EED).expect("rank fits the shape"));
                })
        })
        .sum()
}

/// Median over units of a value read from each unit's report.
fn unit_median(units: &[Unit], f: impl Fn(&Unit) -> Option<f64>) -> f64 {
    median_or_zero(&units.iter().filter_map(f).collect::<Vec<_>>())
}

/// A whole unit, recorded as a span.
fn traced_unit(tr: &mut Tracer, k: usize, unit: impl FnOnce() -> Unit) -> Unit {
    tr.set_unit(k as u32);
    tr.span("core", "unit", |_| unit())
}

/// One round of an Algorithm-1 traced pass: a whole unit between a driven
/// vanilla epoch and a driven hybrid epoch, which puts each driven epoch next
/// to the unit's epochs of the same phase. The machine's speed drifts over
/// tens of seconds; taken round by round, the driven step and the trainer's
/// step it is compared with see the same machine.
struct Round {
    unit: Unit,
    /// Vanilla, hybrid.
    driven: [StepTimes; 2],
}

/// Rounds until `seconds` have passed, at least `at_least`.
fn alg1_rounds(
    tr: &mut Tracer,
    seconds: f64,
    at_least: usize,
    unit: impl Fn() -> Unit,
    mut drive_vanilla: impl FnMut(&mut Tracer) -> StepTimes,
    mut drive_hybrid: impl FnMut(&mut Tracer) -> StepTimes,
) -> Vec<Round> {
    repeat_for(seconds, at_least, |k| {
        let vanilla = drive_vanilla(tr);
        let unit = traced_unit(tr, k, &unit);
        Round { unit, driven: [vanilla, drive_hybrid(tr)] }
    })
}

/// Mean wall seconds of the unit's vanilla and of its hybrid epochs.
fn epoch_walls(unit: &Unit, warmup_epochs: usize) -> Option<[f64; 2]> {
    let Some(Detail::Alg1(report)) = &unit.detail else { return None };
    let (vanilla, hybrid) = report.epochs.split_at_checked(warmup_epochs)?;
    let mean = |epochs: &[pufferfish::report::EpochMetrics]| {
        (!epochs.is_empty())
            .then(|| epochs.iter().map(|e| e.wall.as_secs_f64()).sum::<f64>() / epochs.len() as f64)
    };
    Some([mean(vanilla)?, mean(hybrid)?])
}

/// `core.*` from the units' `TrainReport`s plus the driven loop. `warm` is
/// the share of a unit's epochs spent in vanilla warm-up. Returns a problem
/// if the driven step is not the step the trainer ran.
#[must_use]
fn book_core(
    m: &mut Metrics,
    rounds: &[Round],
    warmup_epochs: usize,
    warm: f64,
    steps_per_epoch: f64,
    eval_s: f64,
) -> Option<String> {
    let walls: Vec<[f64; 2]> =
        rounds.iter().filter_map(|r| epoch_walls(&r.unit, warmup_epochs)).collect();
    let vanilla_s = median_or_zero(&walls.iter().map(|w| w[0]).collect::<Vec<_>>());
    let hybrid_s = median_or_zero(&walls.iter().map(|w| w[1]).collect::<Vec<_>>());
    m.insert("core.epoch_vanilla_s", vanilla_s);
    m.insert("core.epoch_hybrid_s", hybrid_s);
    m.insert("core.hybrid_speedup", ratio(vanilla_s, hybrid_s));
    let switches: Vec<f64> = rounds
        .iter()
        .filter_map(|r| match &r.unit.detail {
            Some(Detail::Alg1(report)) => report.svd_time.map(|d| d.as_secs_f64()),
            _ => None,
        })
        .collect();
    m.insert("core.switch_s", median_or_zero(&switches));
    m.insert("core.eval_s_per_epoch", eval_s);

    // Round by round: the unit's mean epoch against the mean driven step.
    let mix = |v: [f64; 2]| warm * v[0] + (1.0 - warm) * v[1];
    let (mut overhead, mut driver_vs_e2e) = (Vec::new(), Vec::new());
    for r in rounds {
        let Some(walls) = epoch_walls(&r.unit, warmup_epochs) else { continue };
        let epoch_s = mix(walls);
        let driven_step_s = mix(r.driven.map(|d| d.step_mean)) / 1e3;
        overhead.push(ratio(epoch_s - steps_per_epoch * driven_step_s - eval_s, epoch_s));
        driver_vs_e2e.push(ratio(driven_step_s, (epoch_s - eval_s) / steps_per_epoch));
    }
    m.insert("core.driver_overhead_share", median_or_zero(&overhead));
    let driver_vs_e2e = median_or_zero(&driver_vs_e2e);
    m.insert("trace.driver_vs_e2e_ratio", driver_vs_e2e);
    (!REPRESENTATIVE_RATIO.contains(&driver_vs_e2e)).then(|| {
        format!(
            "driven step is {driver_vs_e2e:.3} of the trainer's, outside {REPRESENTATIVE_RATIO:?}: \
             the per-layer numbers do not describe the trainer's step"
        )
    })
}

/// What a traced pass is given to spend on whole units and driven epochs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    /// Fewest units (rounds, on the Algorithm-1 workloads).
    pub at_least: usize,
}

impl Budget {
    /// One unit, for `--quick`.
    pub const QUICK: Budget = Budget { seconds: 0.0, at_least: 1 };

    pub fn of(seconds: f64) -> Budget {
        Budget { seconds, at_least: MIN_ROUNDS }
    }
}

// --------------------------------------------------------------- per workload

fn profile_resnet(
    w: &ResnetAlg1,
    budget: Budget,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (Vec<Unit>, Vec<String>) {
    let batch = w.cfg.batch_size;
    let (batches, secs) = tr.timed("data", "train_batches", |_| w.data.train_batches(batch, 0));
    m.insert("data.epoch_batches_ms", ms(secs));

    let vanilla = w.vanilla();
    let (hybrid, secs) =
        tr.timed("models", "to_hybrid", |_| vanilla.to_hybrid(&w.plan(), FactorInit::WarmStart));
    let hybrid = hybrid.expect("paper plan fits ResNet-18");
    m.insert("models.factorize_s", secs);
    let params = [vanilla.param_count(), hybrid.param_count()];
    m.insert("models.params_vanilla", params[0] as f64);
    m.insert("models.params_hybrid", params[1] as f64);

    let mut vanilla = ImageModel::from(vanilla);
    let mut hybrid = ImageModel::from(hybrid);
    let (eval, eval_s) = tr.timed("core", "evaluate", |_| evaluate(&mut vanilla, &w.data, batch));
    eval.expect("labels in range");

    let cfg = w.model_config();
    let decks = [deck::resnet(&cfg, None, IMAGE_HW), deck::resnet(&cfg, Some(&w.plan()), IMAGE_HW)];
    let drift =
        [deck_drift("vanilla", &decks[0], params[0]), deck_drift("hybrid", &decks[1], params[1])];
    m.insert("tensor.svd_s", svd_seconds(tr, &deck::svd_shapes(&decks[0], &decks[1])));

    let sgd = |epoch| Sgd::new(w.cfg.schedule.lr_at(epoch), w.cfg.momentum, w.cfg.weight_decay);
    let mut opts = [sgd(0), sgd(w.cfg.warmup_epochs)];
    let [opt_vanilla, opt_hybrid] = &mut opts;
    let (clip, smoothing) = (w.cfg.clip, w.cfg.label_smoothing);
    let rounds = alg1_rounds(
        tr,
        budget.seconds,
        budget.at_least,
        || w.unit(),
        |tr| drive_image(tr, &mut vanilla, &batches, opt_vanilla, clip, smoothing),
        |tr| drive_image(tr, &mut hybrid, &batches, opt_hybrid, clip, smoothing),
    );

    let warm = w.cfg.warmup_epochs as f64 / w.cfg.epochs as f64;
    let phases = [false, true].map(|is_hybrid| {
        let p = is_hybrid as usize;
        let driven = StepTimes::median_of(&rounds.iter().map(|r| r.driven[p]).collect::<Vec<_>>());
        Phase::of_alg1(is_hybrid, warm, driven, replay_deck(tr, &decks[p], batch))
    });
    book_phases(m, &phases);
    let steps = w.steps_per_epoch() as f64;
    let unlike = book_core(m, &rounds, w.cfg.warmup_epochs, warm, steps, eval_s);
    let units = rounds.into_iter().map(|r| r.unit).collect();
    (units, drift.into_iter().flatten().chain(unlike).collect())
}

fn profile_transformer(
    w: &TransformerAlg1,
    budget: Budget,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (Vec<Unit>, Vec<String>) {
    let batch = w.cfg.batch_size;
    let (batches, secs) =
        tr.timed("data", "batches", |_| w.data.batches(w.data.train_pairs(), batch));
    m.insert("data.epoch_batches_ms", ms(secs));

    let mut vanilla = w.vanilla();
    let (hybrid, secs) = tr.timed("models", "to_hybrid", |_| vanilla.to_hybrid(w.cfg.rank, true));
    let mut hybrid = hybrid.expect("rank fits d_model");
    m.insert("models.factorize_s", secs);
    let params = [vanilla.param_count(), hybrid.param_count()];
    m.insert("models.params_vanilla", params[0] as f64);
    m.insert("models.params_hybrid", params[1] as f64);

    let (eval, eval_s) = tr.timed("core", "evaluate_nll", |_| {
        evaluate_nll(&mut vanilla, &w.data, w.data.valid_pairs(), batch)
    });
    eval.expect("targets in range");

    // The deck needs one sequence length per side; batches are padded to
    // their own longest pair, so take the mean padded length of the epoch.
    let mean_len = |f: fn(&TokenBatch) -> usize| {
        (batches.iter().map(f).sum::<usize>() as f64 / batches.len() as f64).round() as usize
    };
    let ts = mean_len(|b| b.0[0].len());
    let tt = mean_len(|b| b.1[0].len() - 1); // decoder input drops the last token
    let decks =
        [deck::transformer(vanilla.config(), ts, tt), deck::transformer(hybrid.config(), ts, tt)];
    let drift =
        [deck_drift("vanilla", &decks[0], params[0]), deck_drift("hybrid", &decks[1], params[1])];
    m.insert("tensor.svd_s", svd_seconds(tr, &deck::svd_shapes(&decks[0], &decks[1])));

    let adam = || Adam::new(w.cfg.lr, 0.9, 0.98, 1e-8, 0.0);
    let mut opts = [adam(), adam()];
    let [opt_vanilla, opt_hybrid] = &mut opts;
    let (clip, smoothing) = (w.cfg.clip, w.cfg.label_smoothing);
    let rounds = alg1_rounds(
        tr,
        budget.seconds,
        budget.at_least,
        || w.unit(),
        |tr| drive_seq(tr, &mut vanilla, &batches, opt_vanilla, clip, smoothing),
        |tr| drive_seq(tr, &mut hybrid, &batches, opt_hybrid, clip, smoothing),
    );

    let warm = w.cfg.warmup_epochs as f64 / w.cfg.epochs as f64;
    let phases = [false, true].map(|is_hybrid| {
        let p = is_hybrid as usize;
        let driven = StepTimes::median_of(&rounds.iter().map(|r| r.driven[p]).collect::<Vec<_>>());
        Phase::of_alg1(is_hybrid, warm, driven, replay_deck(tr, &decks[p], batch))
    });
    book_phases(m, &phases);
    let steps = w.steps_per_epoch() as f64;
    let unlike = book_core(m, &rounds, w.cfg.warmup_epochs, warm, steps, eval_s);
    let units = rounds.into_iter().map(|r| r.unit).collect();
    (units, drift.into_iter().flatten().chain(unlike).collect())
}

/// Samples `rows` of an image batch, as a batch of their own.
fn rows_of(batch: &(Tensor, Vec<usize>), rows: Range<usize>) -> (Tensor, Vec<usize>) {
    let shape = batch.0.shape();
    let per = batch.0.len() / shape[0];
    let t = Tensor::from_vec(
        batch.0.as_slice()[rows.start * per..rows.end * per].to_vec(),
        &[rows.len(), shape[1], shape[2], shape[3]],
    )
    .expect("row slice keeps the image shape");
    (t, batch.1[rows].to_vec())
}

/// `dist.*` and the codec's share, from the trainer's own account of the
/// units.
fn book_dist(m: &mut Metrics, units: &[Unit], steps: f64, driven_step_ms: f64) {
    let dist = |f: fn(&EpochBreakdown) -> f64| {
        unit_median(units, |u| match &u.detail {
            Some(Detail::Dist { breakdown, .. }) => Some(f(breakdown)),
            _ => None,
        })
    };
    let compute_s = dist(|b| b.compute.as_secs_f64());
    let encode_s = dist(|b| b.encode.as_secs_f64());
    let decode_s = dist(|b| b.decode.as_secs_f64());
    m.insert("dist.compute_s", compute_s);
    m.insert("dist.encode_s", encode_s);
    m.insert("dist.decode_s", decode_s);
    m.insert("dist.comm_model_s", dist(|b| b.comm.as_secs_f64()));
    m.insert("dist.comm_exposed_s", dist(|b| b.comm_exposed.as_secs_f64()));
    m.insert("dist.skipped_steps", dist(|b| b.skipped_steps as f64));
    m.insert(
        "dist.lost_contributions",
        unit_median(units, |u| match &u.detail {
            Some(Detail::Dist { lost_contributions, .. }) => Some(*lost_contributions as f64),
            _ => None,
        }),
    );
    let wall_s = unit_median(units, |u| Some(u.cost.wall_s));
    let overhead_s = wall_s - compute_s - encode_s - decode_s;
    m.insert("dist.overhead_s", overhead_s);
    m.insert("dist.overhead_share", ratio(overhead_s, wall_s));
    m.insert("compress.encode_ms_per_step", ms(encode_s) / steps);
    m.insert("compress.decode_ms_per_step", ms(decode_s) / steps);
    m.insert("trace.driver_vs_e2e_ratio", ratio(driven_step_ms / 1e3, compute_s / steps));
}

/// Codec, packing, bucketing and the collective, called directly on the
/// per-worker gradients `grads` of one step.
fn profile_gradient_path(
    w: &DataParallel,
    grads: &[Vec<Tensor>],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let mut compressor = w.compressor();
    let mut stats = None;
    let round_s = timed_reps(tr, "compress", "round", 3, || {
        stats = Some(compressor.round(grads).1);
    });
    let stats = stats.expect("at least one round ran");
    m.insert("compress.round_ms_per_step", ms(round_s));
    m.insert("compress.wire_bytes_per_step", stats.bytes_per_worker as f64);

    let refs: Vec<&Tensor> = grads[0].iter().collect();
    let layout = PackLayout::of_refs(&refs);
    m.insert("compress.ratio", ratio(layout.total_bytes() as f64, stats.bytes_per_worker as f64));
    // What one worker does per step: pack its gradients, unpack the mean.
    let pack_s = timed_reps(tr, "compress", "pack_unpack", REPLAY_REPS, || {
        let flat = pack_refs_with(&layout, &refs);
        black_box(unpack(&flat, &layout));
    });
    m.insert("compress.pack_ms_per_step", ms(pack_s));

    let bucket_bytes = w.opts.bucket_bytes.expect("workloads fix the bucket size");
    let plan = tr.span("dist", "bucket_plan", |_| BucketPlan::new(&layout, bucket_bytes));
    m.insert("dist.bucket_count", plan.buckets() as f64);
    let flats: Vec<Tensor> =
        grads.iter().map(|g| pack_refs_with(&layout, &g.iter().collect::<Vec<_>>())).collect();
    let members: Vec<usize> = (0..grads.len()).collect();
    let mut reducer = BucketedReducer::new(plan);
    let reduce_s = timed_reps(tr, "dist", "bucketed_reduce", REPLAY_REPS, || {
        reducer.start_round();
        for b in 0..reducer.plan().buckets() {
            let range = reducer.plan().range(b);
            for (wk, f) in flats.iter().enumerate() {
                assert!(reducer.accept(wk, b, &f.as_slice()[range.clone()]), "bucket rejected");
            }
            reducer.try_reduce(&members);
        }
        black_box(reducer.finalize(&members));
    });
    m.insert("dist.reduce_ms_per_step", ms(reduce_s));
    let ring_s = timed_reps(tr, "dist", "ring_allreduce", REPLAY_REPS, || {
        let mut bufs: Vec<Vec<f32>> = flats.iter().map(|f| f.as_slice().to_vec()).collect();
        black_box(ring_allreduce(&mut bufs));
    });
    m.insert("dist.ring_allreduce_ms", ms(ring_s));
}

fn profile_dp(
    w: &DataParallel,
    budget: Budget,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (Vec<Unit>, Vec<String>) {
    let units = repeat_for(budget.seconds * DP_UNIT_SHARE, budget.at_least, |k| {
        traced_unit(tr, k, || w.unit())
    });
    let workers = w.cfg.workers;
    let steps = w.batches.len() as f64;
    let shard = w.global_batch() / workers;
    m.insert("data.epoch_batches_ms", ms(w.epoch_batches_s));

    // One worker's step, alone on the machine.
    let shards: Vec<_> = w.batches.iter().map(|b| rows_of(b, 0..shard)).collect();
    let mut model = w.replica();
    let (hybrid, deck) = match w.kind {
        DpKind::VggPowerSgd => (false, deck::vgg(&w.vgg_config())),
        DpKind::ResnetHybridBucketed => {
            let plan = ResNetHybridPlan::resnet18_paper();
            (true, deck::resnet(&w.resnet_config(), Some(&plan), IMAGE_HW))
        }
    };
    m.insert(
        if hybrid { "models.params_hybrid" } else { "models.params_vanilla" },
        model.param_count() as f64,
    );
    let drift = deck_drift("replica", &deck, model.param_count());
    let mut opt = Sgd::new(w.cfg.lr, w.cfg.momentum, w.cfg.weight_decay);
    let epochs: Vec<StepTimes> = (0..budget.at_least)
        .map(|_| drive_image(tr, &mut model, &shards, &mut opt, None, 0.0))
        .collect();
    let driven = StepTimes::median_of(&epochs);
    let replay = replay_deck(tr, &deck, shard);
    book_phases(m, &[Phase { hybrid, weight: 1.0, driven, replay }]);
    book_dist(m, &units, steps, driven.step_mean);

    // The driven loop left the last shard's gradients in `model`; a second
    // replica computes the other worker's on the other half of that batch.
    let mut other = w.replica();
    let last = w.batches.last().expect("workload has batches");
    let (images, labels) = rows_of(last, shard..2 * shard);
    let logits = other.forward(&images, Mode::Train);
    let (_, dlogits) = softmax_cross_entropy(&logits, &labels, 0.0).expect("labels in range");
    other.backward(&dlogits);
    let grads: Vec<Vec<Tensor>> = [&model, &other]
        .iter()
        .map(|r| r.params().iter().map(|p| p.grad.clone()).collect())
        .collect();
    profile_gradient_path(w, &grads, tr, m);

    // The same call with one worker: the plain baseline.
    let single =
        tr.span("dist", "single_worker_unit", |_| w.unit_with(&DistConfig::p3(1, w.cfg.lr)));
    let wall_s = unit_median(&units, |u| Some(u.cost.wall_s));
    m.insert("dist.single_worker_step_ms", ms(single.cost.wall_s) / steps);
    m.insert("dist.scaling_efficiency", ratio(single.cost.wall_s, wall_s * workers as f64));
    (units, drift.into_iter().collect())
}

/// The traced pass: runs whole units within `budget`, and fills `m` with
/// every per-layer metric the run's set-up did not already give. Returns the
/// units and what makes the profile unrepresentative: a deck that no longer
/// matches its model, or, on the Algorithm-1 workloads, a driven step that
/// does not take the time the trainer's step takes.
pub fn profile(
    w: &Workload,
    budget: Budget,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (Vec<Unit>, Vec<String>) {
    let (units, problems) = match w {
        Workload::Resnet(w) => profile_resnet(w, budget, tr, m),
        Workload::Transformer(w) => profile_transformer(w, budget, tr, m),
        Workload::Dp(w) => profile_dp(w, budget, tr, m),
    };
    let width = puffer_tensor::pool::num_threads();
    let dispatch_s = timed_reps(tr, "tensor", "pool_dispatch", 200, || {
        puffer_tensor::pool::run_partitioned(width, |r| {
            black_box(r);
        });
    });
    m.insert("tensor.pool_dispatch_us", dispatch_s * 1e6);
    m.insert("tensor.arena_mb", puffer_tensor::workspace::thread_arena_bytes() as f64 / 1e6);
    (units, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Cost;
    use pufferfish::report::{EpochMetrics, TrainReport};
    use std::time::Duration;

    /// A round whose unit reports one vanilla and one hybrid epoch of
    /// `epoch_s` seconds, next to driven epochs with `driven_ms` a step.
    fn round(epoch_s: [f64; 2], driven_ms: [f64; 2]) -> Round {
        let epoch = |i: usize| EpochMetrics {
            epoch: i,
            train_loss: 1.0,
            eval_loss: 1.0,
            eval_accuracy: None,
            lr: 0.1,
            params: 1,
            wall: Duration::from_secs_f64(epoch_s[i]),
        };
        let report = TrainReport { epochs: vec![epoch(0), epoch(1)], ..TrainReport::default() };
        Round {
            unit: Unit {
                cost: Cost::default(),
                steps: 20,
                samples: 200,
                final_loss: 1.0,
                digest: 0,
                problems: Vec::new(),
                detail: Some(Detail::Alg1(report)),
            },
            driven: driven_ms.map(|ms| StepTimes { step_mean: ms, ..StepTimes::default() }),
        }
    }

    /// Ten steps an epoch, no evaluation, the trainer's step at 100 ms
    /// (vanilla) and 80 ms (hybrid).
    fn ratio_of(driven_ms: [[f64; 2]; 3]) -> (f64, Option<String>) {
        let rounds = driven_ms.map(|d| round([1.0, 0.8], d));
        let mut m = Metrics::new();
        let problem = book_core(&mut m, &rounds, 1, 0.5, 10.0, 0.0);
        (m["trace.driver_vs_e2e_ratio"], problem)
    }

    #[test]
    fn a_driven_step_unlike_the_trainers_fails_the_traced_run() {
        let (ratio, problem) = ratio_of([[100.0, 80.0]; 3]);
        assert!((ratio - 1.0).abs() < 1e-9 && problem.is_none());
        // 15 % slower in every round: not the step the trainer runs.
        let (ratio, problem) = ratio_of([[115.0, 92.0]; 3]);
        assert!((ratio - 1.15).abs() < 1e-9);
        assert!(problem.expect("outside 0.9..=1.1").contains("1.150"));
        let (_, problem) = ratio_of([[85.0, 68.0]; 3]);
        assert!(problem.is_some());
    }

    #[test]
    fn one_disturbed_round_does_not_decide_the_ratio() {
        let (ratio, problem) = ratio_of([[100.0, 80.0], [170.0, 136.0], [104.0, 83.2]]);
        assert!((ratio - 1.04).abs() < 1e-9 && problem.is_none());
    }
}
