//! Shared bench-scale workloads and models.
//!
//! All experiments draw their datasets and scaled models from here so
//! that, e.g., "ResNet-18 on CIFAR-10" means the same thing in
//! Figure 4(b), Table 4, and Table 8. Width scales are chosen so a full
//! experiment runs in minutes on one CPU core while preserving each
//! architecture's shape (stage structure, hybrid plans, rank ratios).
//! [`breakdown_table`] is the one *method × per-epoch breakdown* loop
//! behind Figures 4(a), 4(b), 6, 7, the ATOMO claim and the end-to-end
//! comparison: every phase of every method is a run of the data-parallel
//! trainer ([`train_data_parallel`]) with one replica per node, so the
//! figures report the real protocol — per-node codec halves, momentum
//! carried across epochs, BatchNorm statistics per replica — and their
//! compute/encode/decode columns are the slowest node's own time at any
//! node count on any host.

use crate::scale::RunScale;
use puffer_compress::GradCompressor;
use puffer_data::images::{ImageDataset, ImageDatasetConfig};
use puffer_data::text::{TextCorpus, TextCorpusConfig};
use puffer_data::translation::{TranslationConfig, TranslationDataset};
use puffer_dist::breakdown::EpochBreakdown;
use puffer_dist::trainer::{train_data_parallel, DistConfig};
use puffer_models::lstm_lm::{LstmLm, LstmLmConfig};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::transformer::{TransformerConfig, TransformerModel};
use puffer_models::units::FactorInit;
use puffer_models::vgg::{Vgg, VggConfig};
use puffer_nn::checkpoint::{load_state_dict, state_dict};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::Sgd;
use puffer_probe::Stopwatch;
use puffer_tensor::Tensor;
use pufferfish::ablation::mean_std;
use pufferfish::lm::{train_lm, LmTrainConfig};
use pufferfish::trainer::{train, ImageModel, ModelPlan, TrainConfig};

/// Width multiplier used for every bench-scale CNN.
pub const CNN_SCALE: f32 = 0.125;

/// The CIFAR-10 stand-in at bench scale.
pub fn cifar_data(scale: RunScale) -> ImageDataset {
    let (train, test) = scale.pick((384, 128), (2_048, 512));
    ImageDataset::generate(ImageDatasetConfig {
        noise: 0.25,
        ..ImageDatasetConfig::cifar_like(train, test, 42)
    })
}

/// The ImageNet-lite stand-in (more classes) at bench scale.
pub fn imagenet_lite_data(scale: RunScale) -> ImageDataset {
    let (train, test) = scale.pick((384, 128), (2_048, 512));
    ImageDataset::generate(ImageDatasetConfig {
        noise: 0.25,
        ..ImageDatasetConfig::imagenet_lite(train, test, 43)
    })
}

/// Bench-scale VGG-19 (16 convs, the paper's CIFAR VGG).
pub fn vgg19(classes: usize, seed: u64) -> Vgg {
    Vgg::new(VggConfig::vgg19(CNN_SCALE, classes, seed)).expect("valid config")
}

/// Bench-scale VGG-11 (Figure 2a's model).
pub fn vgg11(classes: usize, seed: u64) -> Vgg {
    Vgg::new(VggConfig::vgg11(CNN_SCALE, classes, seed)).expect("valid config")
}

/// Bench-scale ResNet-18.
pub fn resnet18(classes: usize, seed: u64) -> ResNet {
    ResNet::new(ResNetConfig::resnet18(CNN_SCALE, classes, seed)).expect("valid config")
}

/// Bench-scale ResNet-50 (bottleneck).
pub fn resnet50(classes: usize, seed: u64) -> ResNet {
    ResNet::new(ResNetConfig::resnet50(CNN_SCALE, classes, seed)).expect("valid config")
}

/// Bench-scale WideResNet-50-2.
pub fn wide_resnet50(classes: usize, seed: u64) -> ResNet {
    ResNet::new(ResNetConfig::wide_resnet50_2(CNN_SCALE, classes, seed)).expect("valid config")
}

/// The WikiText-2 stand-in corpus.
pub fn lm_corpus(scale: RunScale) -> TextCorpus {
    let (train, heldout) = scale.pick((4_000, 800), (24_000, 2_400));
    TextCorpus::generate(TextCorpusConfig {
        vocab: 200,
        branching: 4,
        train_tokens: train,
        valid_tokens: heldout,
        test_tokens: heldout,
        seed: 44,
    })
}

/// Bench-scale 2-layer LSTM LM (embedding = hidden, tied), matching the
/// paper's structure.
pub fn lstm_lm(vocab: usize, seed: u64) -> LstmLm {
    LstmLm::new(LstmLmConfig::small(vocab, 64, seed)).expect("valid config")
}

/// The LSTM factorization rank at bench scale (the paper's hidden/4 rule).
pub const LSTM_RANK: usize = 16;

/// The WMT'16 stand-in translation task.
pub fn translation_data(scale: RunScale) -> TranslationDataset {
    let (train, valid) = scale.pick((512, 96), (3_000, 256));
    TranslationDataset::generate(TranslationConfig {
        vocab: 64,
        min_len: 4,
        max_len: 9,
        train_pairs: train,
        valid_pairs: valid,
        seed: 45,
    })
}

/// Bench-scale Transformer (2+2 layers, d_model 32, 4 heads).
pub fn transformer(vocab: usize, rank: Option<usize>, seed: u64) -> TransformerModel {
    TransformerModel::new(TransformerConfig {
        vocab,
        d_model: 32,
        heads: 4,
        enc_layers: 2,
        dec_layers: 2,
        rank,
        seed,
    })
    .expect("valid config")
}

/// The Transformer factorization rank at bench scale (d_model/4).
pub const TRANSFORMER_RANK: usize = 8;

/// `n` seeded Gaussian batches of `shape` (rows first) with round-robin
/// labels over `classes`; batch `b` draws from seed `seed + b`. The data of
/// the system runs (`soak`, `overlap-sweep`, `trace-demo`, `fault-sweep`),
/// which exercise the trainer rather than learn a task.
pub fn gaussian_batches(
    n: usize,
    shape: &[usize],
    classes: usize,
    seed: u64,
) -> Vec<(Tensor, Vec<usize>)> {
    let batch = |b: usize| {
        let labels = (0..shape[0]).map(|i| (i + b) % classes).collect();
        (Tensor::randn(shape, 1.0, seed + b as u64), labels)
    };
    (0..n).map(batch).collect()
}

/// Stamps the probe's run header for an uncompressed data-parallel run, so
/// the exported trace and metrics are self-describing and insight can
/// reconcile its α–β fit against the configured profile. `PUFFER_*` env
/// knobs ride along. A no-op while the probe is disabled.
pub fn stamp_run_header(bench: &str, seed: u64, steps: usize, cfg: &DistConfig) {
    puffer_probe::run_header(&[
        ("bench", bench.into()),
        ("seed", seed.into()),
        ("workers", cfg.workers.into()),
        ("steps", steps.into()),
        ("scheme", "none".into()),
        ("alpha", cfg.profile.alpha.into()),
        ("beta", cfg.profile.beta.into()),
    ]);
    puffer_probe::run_header_env();
}

/// One SGD training step on a classification batch; returns the logits.
pub fn train_step<M: Layer>(
    model: &mut M,
    opt: &mut Sgd,
    images: &Tensor,
    labels: &[usize],
) -> Tensor {
    model.zero_grad();
    let logits = model.forward(images, Mode::Train);
    let (_, dl) = softmax_cross_entropy(&logits, labels, 0.0).expect("loss");
    let _ = model.backward(&dl);
    opt.step(&mut model.params_mut());
    logits
}

/// Wall time of `trials` calls of `f`: mean and (population) standard
/// deviation in seconds — the paper's `mean ± std` timing cells.
pub fn time_trials(trials: usize, mut f: impl FnMut()) -> (f64, f64) {
    let times: Vec<f64> = (0..trials)
        .map(|_| {
            let t0 = Stopwatch::start();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let mean = times.iter().sum::<f64>() / trials as f64;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / trials as f64;
    (mean, var.sqrt())
}

/// Per-seed train, validation and test perplexity of the bench LSTM under
/// Algorithm 1 with `warmup` vanilla epochs of `epochs` (`warmup == epochs`
/// never factorizes; `0` is low-rank from scratch) — Tables 2 and 9.
pub fn lstm_perplexities(
    corpus: &TextCorpus,
    seeds: &[u64],
    epochs: usize,
    warmup: usize,
) -> [Vec<f32>; 3] {
    let mut ppl = [vec![], vec![], vec![]];
    for &seed in seeds {
        let cfg = LmTrainConfig::small(epochs, warmup, LSTM_RANK);
        let out = train_lm(lstm_lm(corpus.vocab(), seed), corpus, &cfg).expect("lm training");
        ppl[0].push(out.report.epochs.last().map(|e| e.train_loss.exp()).unwrap_or(f32::NAN));
        ppl[1].push(out.report.final_perplexity());
        ppl[2].push(out.test_perplexity);
    }
    ppl
}

/// Final test accuracy (in %) per seed of one Algorithm 1 arm: `cfg` with
/// its seed set to each of `seeds` in turn, `model(seed)` trained under
/// `plan` — Tables 4, 21 and 22.
pub fn accuracies_pct(
    seeds: &[u64],
    mut cfg: TrainConfig,
    plan: ModelPlan,
    data: &ImageDataset,
    model: impl Fn(u64) -> ImageModel,
) -> Vec<f32> {
    let mut accuracy = |&seed: &u64| {
        cfg.seed = seed;
        let out = train(model(seed), plan, data, &cfg).expect("training");
        out.report.final_test_accuracy() * 100.0
    };
    seeds.iter().map(&mut accuracy).collect()
}

/// `mean ± std` over per-seed values, to two places — the paper's cell
/// format.
pub fn mean_pm_std(xs: &[f32]) -> String {
    let (mean, std) = mean_std(xs);
    format!("{mean:.2} ± {std:.2}")
}

/// Builds one arm's gradient compressor (`|| Box::new(Signum::new(0.9))`).
pub type Codec = fn() -> Box<dyn GradCompressor>;

/// Plain allreduce of the raw gradient.
pub fn no_codec() -> Box<dyn GradCompressor> {
    Box::new(puffer_compress::none::NoCompression::new())
}

/// One arm of a breakdown comparison.
#[derive(Clone, Copy)]
pub struct Method {
    /// Row label.
    pub name: &'static str,
    /// Codec of the epochs after the switch (of every epoch, for a
    /// baseline).
    pub codec: Codec,
    /// `Some((epochs, codec))` makes the arm Pufferfish: that many vanilla
    /// warm-up epochs under that codec, the timed SVD switch to the paper's
    /// hybrid, then hybrid epochs under [`Method::codec`]. `None` trains
    /// the vanilla model throughout.
    pub warmup: Option<(usize, Codec)>,
}

impl Method {
    /// The vanilla model under `codec`.
    pub fn baseline(name: &'static str, codec: Codec) -> Self {
        Method { name, codec, warmup: None }
    }

    /// The hybrid, factorized from the freshly initialized model (no
    /// warm-up epochs), under `codec`.
    pub fn pufferfish(name: &'static str, codec: Codec) -> Self {
        Method { name, codec, warmup: Some((0, no_codec)) }
    }
}

/// What [`breakdown_table`] measured for one [`Method`].
pub struct MethodRun {
    /// The method's row label.
    pub method: &'static str,
    /// Breakdown and mean training loss of every epoch run, warm-up epochs
    /// first.
    pub epochs: Vec<(EpochBreakdown, f32)>,
    /// How many of [`MethodRun::epochs`] were vanilla warm-up.
    pub warmup_epochs: usize,
    /// Seconds the one-off SVD switch took (0 for a baseline).
    pub svd_s: f64,
    /// The trained model.
    pub model: ImageModel,
}

impl MethodRun {
    /// The last epoch's breakdown and loss.
    pub fn last(&self) -> (EpochBreakdown, f32) {
        self.epochs.last().copied().unwrap_or((EpochBreakdown::default(), f32::NAN))
    }

    /// The six cells Figures 4(a), 4(b) and 6 print for a method: `label`,
    /// compute, encode+decode, modeled comm (to `comm_digits` places),
    /// total, final loss.
    pub fn breakdown_row(&self, label: String, comm_digits: usize) -> Vec<String> {
        let (last, loss) = self.last();
        vec![
            label,
            format!("{:.3}", last.compute.as_secs_f64()),
            format!("{:.3}", (last.encode + last.decode).as_secs_f64()),
            format!("{:.comm_digits$}", last.comm.as_secs_f64()),
            format!("{:.3}", last.total().as_secs_f64()),
            format!("{loss:.3}"),
        ]
    }
}

/// Trains `run.model` for `n` more epochs of `batches` under `codec` in one
/// [`train_data_parallel`] run of `cfg.workers` replicas seeded from its
/// state — momentum carried from epoch to epoch, BatchNorm statistics per
/// replica — and books the epochs: the run's breakdown in `n` equal parts,
/// each with the mean of its own steps' losses. The model is left holding
/// the surviving replica's parameters and buffers.
fn train_phase(
    run: &mut MethodRun,
    cfg: &DistConfig,
    plan: &ResNetHybridPlan,
    batches: &[(Tensor, Vec<usize>)],
    codec: Codec,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let ImageModel::ResNet(net) = &run.model else {
        unreachable!("breakdown_table builds ResNets")
    };
    let (config, hybrid) = (net.config().clone(), net.low_rank_block_count() > 0);
    let state = state_dict(net);
    // Same shapes as `run.model` (random factors cost no SVD), then its state.
    let replica = |_| {
        let mut net = ResNet::new(config.clone()).expect("valid config");
        if hybrid {
            net = net.to_hybrid(plan, FactorInit::Random(0)).expect("hybrid");
        }
        load_state_dict(&mut net, &state).expect("same architecture");
        net
    };
    let phase: Vec<_> = (0..n).flat_map(|_| batches.iter().cloned()).collect();
    let out = train_data_parallel(replica, &phase, codec().as_mut(), cfg).expect("phase");
    let per_epoch = out.breakdown.scaled(1.0 / n as f64);
    for losses in out.step_losses.chunks(batches.len().max(1)) {
        run.epochs.push((per_epoch, losses.iter().sum::<f32>() / losses.len() as f32));
    }
    let trained: Vec<(String, Tensor)> =
        out.final_params.into_iter().chain(out.final_buffers).map(|t| (String::new(), t)).collect();
    load_state_dict(&mut run.model, &trained).expect("same architecture");
}

/// The rows of a *method × per-epoch breakdown* table: trains each method
/// for `epochs` epochs over `batches` on a `nodes`-node p3-like cluster —
/// `nodes` replicas on the trainer's worker threads, computation and
/// encode/decode measured there on real gradients (the slowest node's own
/// time: members are admitted to their timed regions so that the host is
/// never oversubscribed, whatever its core count), communication priced by
/// the α–β model — and returns every epoch's breakdown. A Pufferfish arm is
/// two runs with Algorithm 1's switch between them: the warm-up's trained
/// model is factorized on the calling thread (timed), and the hybrid run
/// starts from its state with fresh momentum. `vanilla` builds the
/// full-rank model, `plan` is its paper hybrid.
///
/// # Panics
///
/// Panics if a batch cannot feed `nodes` shards.
pub fn breakdown_table(
    nodes: usize,
    (vanilla, plan): (&dyn Fn() -> ResNet, &ResNetHybridPlan),
    batches: &[(Tensor, Vec<usize>)],
    epochs: usize,
    methods: &[Method],
) -> Vec<MethodRun> {
    let cfg = DistConfig::p3(nodes, 0.05);
    let measure = |m: &Method| {
        let mut run = MethodRun {
            method: m.name,
            epochs: Vec::with_capacity(epochs),
            warmup_epochs: 0,
            svd_s: 0.0,
            model: vanilla().into(),
        };
        if let Some((warmup, warmup_codec)) = m.warmup {
            train_phase(&mut run, &cfg, plan, batches, warmup_codec, warmup);
            run.warmup_epochs = warmup;
            let ImageModel::ResNet(net) = run.model else { unreachable!("built above") };
            let t0 = Stopwatch::start();
            let hybrid = net.to_hybrid(plan, FactorInit::WarmStart).expect("hybrid");
            run.svd_s = t0.elapsed().as_secs_f64();
            run.model = hybrid.into();
        }
        let rest = epochs - run.warmup_epochs;
        train_phase(&mut run, &cfg, plan, batches, m.codec, rest);
        run
    };
    methods.iter().map(measure).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_nn::Layer;

    #[test]
    fn setups_construct() {
        let d = cifar_data(RunScale::Quick);
        assert_eq!(d.config().classes, 10);
        assert!(vgg19(10, 1).param_count() > vgg11(10, 1).param_count());
        assert!(wide_resnet50(10, 1).param_count() > resnet50(10, 1).param_count());
        let c = lm_corpus(RunScale::Quick);
        assert_eq!(c.vocab(), 200);
        let t = translation_data(RunScale::Quick);
        assert_eq!(t.config().vocab, 64);
        let m = transformer(64, Some(TRANSFORMER_RANK), 2);
        assert!(m.param_count() > 0);
        let _ = lstm_lm(200, 3);
    }

    #[test]
    fn breakdown_table_trains_both_phases_on_the_trainer() {
        use puffer_compress::powersgd::PowerSgd;
        use puffer_models::resnet::ResNetConfig;
        use std::time::Duration;

        let vanilla = || ResNet::new(ResNetConfig::resnet18(0.0625, 4, 1)).expect("valid config");
        let batches = gaussian_batches(3, &[8, 3, 16, 16], 4, 5);
        let methods = [
            Method::baseline("vanilla", no_codec),
            Method {
                name: "pufferfish",
                codec: no_codec,
                warmup: Some((1, || Box::new(PowerSgd::new(2, 3)))),
            },
        ];
        let plan = ResNetHybridPlan::resnet18_paper();
        let runs = breakdown_table(2, (&vanilla, &plan), &batches, 2, &methods);
        let [base, puffer] = &runs[..] else { panic!("one run per method") };

        for run in &runs {
            assert_eq!(run.epochs.len(), 2, "{}", run.method);
            for (bd, loss) in &run.epochs {
                assert!(bd.total() > Duration::ZERO && bd.comm_exposed <= bd.comm);
                assert!(loss.is_finite());
            }
        }
        assert_eq!((base.warmup_epochs, base.svd_s), (0, 0.0));
        assert_eq!(puffer.warmup_epochs, 1);
        assert!(puffer.svd_s > 0.0);
        // The hybrid ships fewer bytes than the full-rank model.
        assert!(puffer.model.param_count() < base.model.param_count());
        assert!(puffer.last().0.comm < base.last().0.comm);

        // What comes back is the trained replica, BatchNorm statistics and all.
        let (x, labels) = &batches[0];
        for run in runs {
            let mut model = run.model;
            assert_ne!(model.buffers(), vanilla().buffers(), "{}", run.method);
            let logits = model.forward(x, Mode::Eval);
            let (loss, _) = softmax_cross_entropy(&logits, labels, 0.0).expect("loss");
            assert!(loss.is_finite(), "{}: {loss}", run.method);
        }
    }
}
