//! The four workloads. Each owns its seeded inputs and runs *units*: one
//! call of a public training entry point, timed from outside, with every
//! output checked.
//!
//! Sizes are fixed here and nowhere else. They are about a third of what
//! the issue sketched, because a run has to fit a dozen units into
//! `run_seconds`; the models, plans and hyper-parameters are the issue's.

use crate::procfs::{self, CpuTimes};
use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::GradCompressor;
use puffer_data::images::{ImageDataset, ImageDatasetConfig};
use puffer_data::translation::{TranslationConfig, TranslationDataset};
use puffer_dist::breakdown::EpochBreakdown;
use puffer_dist::cost::CollectiveAlgo;
use puffer_dist::fault::{any_nonfinite, message_checksum};
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::transformer::{TransformerConfig, TransformerModel};
use puffer_models::units::FactorInit;
use puffer_models::vgg::{Vgg, VggConfig};
use puffer_nn::layer::Layer;
use puffer_nn::param::Param;
use puffer_probe::Stopwatch;
use puffer_tensor::Tensor;
use pufferfish::report::TrainReport;
use pufferfish::seq2seq::{train_seq2seq, Seq2SeqConfig};
use pufferfish::trainer::{train, ModelPlan, TrainConfig};

const RESNET18_ALG1: &str = "resnet18_alg1";
const TRANSFORMER_ALG1: &str = "transformer_alg1";
const DP2_VGG19_POWERSGD: &str = "dp2_vgg19_powersgd";
const DP2_RESNET18_HYBRID_BUCKETED: &str = "dp2_resnet18_hybrid_bucketed";

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] =
    [RESNET18_ALG1, TRANSFORMER_ALG1, DP2_VGG19_POWERSGD, DP2_RESNET18_HYBRID_BUCKETED];

/// Image classes of the CIFAR-like task.
const CLASSES: usize = 10;

/// Divergence guard for the image workloads: ten times the loss of a uniform
/// guess (ln 10). Their units are 6 to 16 optimizer steps, which do not train
/// a CNN: across seeds the last steps' loss lands anywhere from half to
/// one-and-a-half times the first steps' (VGG-19 starts with a transient up to
/// 7), so "the loss fell" would fail on healthy runs. The sharp check on
/// these workloads is the golden loss.
const IMAGE_LOSS_CAP: f64 = 23.0;

/// How much data a workload instance holds: the measured size, or the
/// roughly ten-times-smaller one whose single discarded unit warms the
/// arenas and pool threads during set-up (same batch shapes, fewer steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Warmup,
}

/// Compute threads the tensor pool may use for the single-process
/// workloads: `min(2, nproc)`.
pub fn alg1_pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// What a unit cost, measured from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall_s: f64,
    /// Process CPU time, all threads.
    pub cpu: CpuTimes,
    /// Peak resident set while the unit ran (see [`procfs::reset_peak_rss`]).
    pub peak_rss_mb: f64,
}

/// What one unit cost and did.
pub struct Unit {
    pub cost: Cost,
    /// Optimizer steps the unit was asked to take.
    pub steps: u64,
    /// Training samples those steps consume (images or sentence pairs).
    pub samples: u64,
    /// Mean training loss of the last epoch (or last third of the steps).
    pub final_loss: f64,
    /// `message_checksum` of the final parameters.
    pub digest: u64,
    /// Every output check that failed; empty = the unit is correct.
    pub problems: Vec<String>,
    /// `None` when the entry point returned an error.
    pub detail: Option<Detail>,
}

/// The program's own account of the unit.
pub enum Detail {
    Alg1(TrainReport),
    Dist { breakdown: EpochBreakdown, lost_contributions: usize },
}

/// A unit whose entry point returned an error: all of its steps failed.
fn errored(steps: u64, samples: u64, cost: Cost, err: String) -> Unit {
    Unit {
        cost,
        steps,
        samples,
        final_loss: f64::NAN,
        digest: 0,
        problems: vec![format!("entry point returned an error: {err}")],
        detail: None,
    }
}

/// Calls `f(0)`, `f(1)`, … until `seconds` have passed, and at least
/// `at_least` times; this is how every run fills its measuring time.
pub fn repeat_for<T>(seconds: f64, at_least: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Stopwatch::start();
    let mut out = Vec::new();
    while out.len() < at_least || t0.elapsed().as_secs_f64() < seconds {
        out.push(f(out.len()));
    }
    out
}

/// Measures what `f` costs.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    procfs::reset_peak_rss();
    let cpu0 = procfs::cpu_times();
    let t0 = Stopwatch::start();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_times().since(&cpu0);
    (out, Cost { wall_s, cpu, peak_rss_mb: procfs::peak_rss_mb() })
}

/// Checks shared by the two Algorithm-1 trainers, which report per epoch.
/// `loss_cap`: the last epoch's train loss must stay below it; without one
/// the loss must fall from the first epoch to the last.
fn check_alg1(
    report: &TrainReport,
    epochs: usize,
    switch: usize,
    final_params: &[Tensor],
    loss_cap: Option<f32>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if report.epochs.len() != epochs {
        problems.push(format!("{} epochs reported, {epochs} asked", report.epochs.len()));
    }
    if report.switch_epoch != Some(switch) || report.svd_time.is_none() {
        problems.push(format!("no SVD switch at epoch {switch}: {:?}", report.switch_epoch));
    }
    if report.hybrid_params >= report.vanilla_params {
        problems.push("hybrid model is not smaller than the vanilla one".into());
    }
    if !report.epochs.iter().all(|e| e.train_loss.is_finite() && e.eval_loss.is_finite()) {
        problems.push("non-finite epoch loss".into());
    }
    if let (Some(first), Some(last)) = (report.epochs.first(), report.epochs.last()) {
        match loss_cap {
            Some(cap) if last.train_loss >= cap => {
                problems.push(format!("train loss {} reached the cap {cap}", last.train_loss));
            }
            None if last.train_loss >= first.train_loss => problems.push(format!(
                "train loss did not fall: {} -> {}",
                first.train_loss, last.train_loss
            )),
            _ => {}
        }
    }
    if any_nonfinite(final_params) {
        problems.push("non-finite final parameter".into());
    }
    problems
}

/// The parameter values of a trained model, as the checks and the digest
/// (`puffer_dist::fault::message_checksum`, FNV-1a over the bit patterns)
/// take them.
fn values_of(params: &[&Param]) -> Vec<Tensor> {
    params.iter().map(|p| p.value.clone()).collect()
}

// ---------------------------------------------------------------- resnet18_alg1

/// `train(ResNet-18 ×0.25, ResNetHybrid(resnet18_paper()), cifar_like,
/// TrainConfig::cifar_small(2, 1))`: vanilla epoch, SVD switch, hybrid epoch,
/// one evaluation after each.
pub struct ResnetAlg1 {
    pub seed: u64,
    pub data: ImageDataset,
    pub cfg: TrainConfig,
    pub dataset_gen_s: f64,
    pub build_s: f64,
}

impl ResnetAlg1 {
    pub const BATCH: usize = 16;
    pub const WIDTH: f32 = 0.25;

    pub fn new(seed: u64, size: Size) -> Self {
        let (train, test) = match size {
            Size::Full => (8 * Self::BATCH, 2 * Self::BATCH),
            Size::Warmup => (Self::BATCH, Self::BATCH / 2),
        };
        let t0 = Stopwatch::start();
        let data = ImageDataset::generate(ImageDatasetConfig::cifar_like(train, test, seed));
        let dataset_gen_s = t0.elapsed().as_secs_f64();
        let mut cfg = TrainConfig::cifar_small(2, 1);
        cfg.batch_size = Self::BATCH;
        cfg.seed = seed;
        let mut w = ResnetAlg1 { seed, data, cfg, dataset_gen_s, build_s: 0.0 };
        let t0 = Stopwatch::start();
        std::hint::black_box(w.vanilla());
        w.build_s = t0.elapsed().as_secs_f64();
        w
    }

    pub fn model_config(&self) -> ResNetConfig {
        ResNetConfig::resnet18(Self::WIDTH, CLASSES, self.seed)
    }

    pub fn plan(&self) -> ResNetHybridPlan {
        ResNetHybridPlan::resnet18_paper()
    }

    /// A freshly initialized vanilla model; every unit starts from one.
    pub fn vanilla(&self) -> ResNet {
        ResNet::new(self.model_config()).expect("ResNet-18 config is valid")
    }

    pub fn steps_per_epoch(&self) -> u64 {
        self.data.train_len().div_ceil(self.cfg.batch_size) as u64
    }

    pub fn unit(&self) -> Unit {
        let steps = self.steps_per_epoch() * self.cfg.epochs as u64;
        let samples = (self.data.train_len() * self.cfg.epochs) as u64;
        let model = self.vanilla();
        let plan = ModelPlan::ResNetHybrid(self.plan());
        let (out, cost) = timed(|| train(model, plan, &self.data, &self.cfg));
        let out = match out {
            Ok(out) => out,
            Err(e) => return errored(steps, samples, cost, e.to_string()),
        };
        let params = values_of(&out.model.params());
        Unit {
            cost,
            steps,
            samples,
            final_loss: out.report.epochs.last().map_or(f64::NAN, |e| e.train_loss as f64),
            digest: message_checksum(&params),
            problems: check_alg1(
                &out.report,
                self.cfg.epochs,
                self.cfg.warmup_epochs,
                &params,
                Some(IMAGE_LOSS_CAP as f32),
            ),
            detail: Some(Detail::Alg1(out.report)),
        }
    }
}

// ------------------------------------------------------------- transformer_alg1

/// `train_seq2seq(Transformer d_model 32 / 4 heads / 2+2 layers / vocab 64,
/// Seq2SeqConfig::small(4, 2, 8))`: two vanilla epochs, SVD switch, two
/// rank-8 epochs, validation NLL after each, one greedy-decode BLEU pass.
pub struct TransformerAlg1 {
    pub seed: u64,
    pub data: TranslationDataset,
    pub cfg: Seq2SeqConfig,
    pub dataset_gen_s: f64,
    pub build_s: f64,
}

impl TransformerAlg1 {
    pub const VOCAB: usize = 64;

    pub fn new(seed: u64, size: Size) -> Self {
        let (train_pairs, valid_pairs) = match size {
            Size::Full => (1024, 96),
            Size::Warmup => (96, 24),
        };
        let t0 = Stopwatch::start();
        let data = TranslationDataset::generate(TranslationConfig {
            train_pairs,
            valid_pairs,
            ..TranslationConfig::small(seed)
        });
        let dataset_gen_s = t0.elapsed().as_secs_f64();
        let cfg = Seq2SeqConfig::small(4, 2, 8);
        let mut w = TransformerAlg1 { seed, data, cfg, dataset_gen_s, build_s: 0.0 };
        let t0 = Stopwatch::start();
        std::hint::black_box(w.vanilla());
        w.build_s = t0.elapsed().as_secs_f64();
        w
    }

    pub fn model_config(&self) -> TransformerConfig {
        TransformerConfig::small(Self::VOCAB, self.seed)
    }

    pub fn vanilla(&self) -> TransformerModel {
        TransformerModel::new(self.model_config()).expect("Transformer config is valid")
    }

    pub fn steps_per_epoch(&self) -> u64 {
        self.data.train_pairs().len().div_ceil(self.cfg.batch_size) as u64
    }

    pub fn unit(&self) -> Unit {
        let steps = self.steps_per_epoch() * self.cfg.epochs as u64;
        let samples = (self.data.train_pairs().len() * self.cfg.epochs) as u64;
        let model = self.vanilla();
        let (out, cost) = timed(|| train_seq2seq(model, &self.data, &self.cfg));
        let out = match out {
            Ok(out) => out,
            Err(e) => return errored(steps, samples, cost, e.to_string()),
        };
        let params = values_of(&out.model.params());
        let mut problems =
            check_alg1(&out.report, self.cfg.epochs, self.cfg.warmup_epochs, &params, None);
        if !(0.0..=100.0).contains(&out.valid_bleu) {
            problems.push(format!("BLEU {} outside 0..=100", out.valid_bleu));
        }
        Unit {
            cost,
            steps,
            samples,
            final_loss: out.report.epochs.last().map_or(f64::NAN, |e| e.train_loss as f64),
            digest: message_checksum(&params),
            problems,
            detail: Some(Detail::Alg1(out.report)),
        }
    }
}

// --------------------------------------------------- the two data-parallel ones

/// Which model and gradient path a data-parallel workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpKind {
    /// Vanilla VGG-19 ×0.5, PowerSGD rank 4, one flat bucket: codec-heavy,
    /// synchronous aggregation.
    VggPowerSgd,
    /// Hybrid ResNet-18 ×0.25, no compression, 256 KiB buckets: overlap path.
    ResnetHybridBucketed,
}

/// A model either data-parallel workload trains; the trainer needs one
/// concrete `Layer` type per call. One value exists per worker, so boxing
/// the larger network would only add pointer chasing.
#[allow(clippy::large_enum_variant)]
pub enum DpModel {
    Vgg(Vgg),
    ResNet(ResNet),
}

impl DpModel {
    fn inner(&self) -> &dyn Layer {
        match self {
            DpModel::Vgg(m) => m,
            DpModel::ResNet(m) => m,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn Layer {
        match self {
            DpModel::Vgg(m) => m,
            DpModel::ResNet(m) => m,
        }
    }
}

impl Layer for DpModel {
    fn forward(&mut self, input: &Tensor, mode: puffer_nn::layer::Mode) -> Tensor {
        self.inner_mut().forward(input, mode)
    }
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.inner_mut().backward(grad_output)
    }
    fn backward_with_ready(
        &mut self,
        grad_output: &Tensor,
        on_ready: &mut dyn FnMut(usize),
    ) -> Tensor {
        self.inner_mut().backward_with_ready(grad_output, on_ready)
    }
    fn params(&self) -> Vec<&Param> {
        self.inner().params()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner_mut().params_mut()
    }
    fn describe(&self) -> String {
        self.inner().describe()
    }
    fn buffers(&self) -> Vec<Tensor> {
        self.inner().buffers()
    }
    fn load_buffers(&mut self, buffers: &[Tensor]) {
        self.inner_mut().load_buffers(buffers);
    }
}

/// `train_data_parallel_with` over two worker threads, pool width 1 each.
pub struct DataParallel {
    pub kind: DpKind,
    pub seed: u64,
    pub batches: Vec<(Tensor, Vec<usize>)>,
    pub cfg: DistConfig,
    pub opts: RunOptions,
    pub dataset_gen_s: f64,
    pub epoch_batches_s: f64,
    pub build_s: f64,
}

impl DataParallel {
    pub const WORKERS: usize = 2;
    pub const BUCKET_BYTES: usize = 256 * 1024;

    pub fn new(kind: DpKind, seed: u64, size: Size) -> Self {
        let (global_batch, full_steps) = match kind {
            DpKind::VggPowerSgd => (16, 6),
            DpKind::ResnetHybridBucketed => (64, 6),
        };
        let steps = match size {
            Size::Full => full_steps,
            Size::Warmup => 1,
        };
        let t0 = Stopwatch::start();
        let data = ImageDataset::generate(ImageDatasetConfig::cifar_like(
            global_batch * steps,
            global_batch,
            seed,
        ));
        let dataset_gen_s = t0.elapsed().as_secs_f64();
        let t0 = Stopwatch::start();
        let batches = data.train_batches(global_batch, 0);
        let epoch_batches_s = t0.elapsed().as_secs_f64();
        let opts = RunOptions {
            bucket_bytes: Some(match kind {
                DpKind::VggPowerSgd => usize::MAX,
                DpKind::ResnetHybridBucketed => Self::BUCKET_BYTES,
            }),
            collective: Some(CollectiveAlgo::Ring),
            ..RunOptions::default()
        };
        let mut w = DataParallel {
            kind,
            seed,
            batches,
            cfg: DistConfig::p3(Self::WORKERS, 0.05),
            opts,
            dataset_gen_s,
            epoch_batches_s,
            build_s: 0.0,
        };
        let t0 = Stopwatch::start();
        std::hint::black_box(w.replica());
        w.build_s = t0.elapsed().as_secs_f64();
        w
    }

    pub fn vgg_config(&self) -> VggConfig {
        VggConfig::vgg19(0.5, CLASSES, self.seed)
    }

    pub fn resnet_config(&self) -> ResNetConfig {
        ResNetConfig::resnet18(ResnetAlg1::WIDTH, CLASSES, self.seed)
    }

    /// One replica, exactly as the factory hands it to every worker.
    pub fn replica(&self) -> DpModel {
        match self.kind {
            DpKind::VggPowerSgd => {
                DpModel::Vgg(Vgg::new(self.vgg_config()).expect("VGG-19 config is valid"))
            }
            DpKind::ResnetHybridBucketed => DpModel::ResNet(
                ResNet::new(self.resnet_config())
                    .and_then(|m| {
                        m.to_hybrid(
                            &ResNetHybridPlan::resnet18_paper(),
                            FactorInit::Random(self.seed),
                        )
                    })
                    .expect("ResNet-18 hybrid config is valid"),
            ),
        }
    }

    /// A compressor in its initial state; PowerSGD carries error feedback
    /// across rounds, so units must not share one.
    pub fn compressor(&self) -> Box<dyn GradCompressor> {
        match self.kind {
            DpKind::VggPowerSgd => Box::new(PowerSgd::new(4, self.seed)),
            DpKind::ResnetHybridBucketed => Box::new(NoCompression::new()),
        }
    }

    pub fn global_batch(&self) -> usize {
        self.batches.first().map_or(0, |b| b.1.len())
    }

    pub fn unit(&self) -> Unit {
        self.unit_with(&self.cfg)
    }

    /// The same call with another fleet size (the traced pass runs a
    /// single-worker baseline).
    pub fn unit_with(&self, cfg: &DistConfig) -> Unit {
        let steps = self.batches.len() as u64;
        let samples: u64 = self.batches.iter().map(|b| b.1.len() as u64).sum();
        let mut compressor = self.compressor();
        let (out, cost) = timed(|| {
            train_data_parallel_with(
                |_| self.replica(),
                &self.batches,
                compressor.as_mut(),
                cfg,
                &self.opts,
            )
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => return errored(steps, samples, cost, e.to_string()),
        };
        let mut problems = Vec::new();
        if out.step_losses.len() as u64 != steps {
            problems.push(format!("{} step losses for {steps} steps", out.step_losses.len()));
        }
        if !out.step_losses.iter().all(|l| l.is_finite()) {
            problems.push("non-finite step loss".into());
        }
        if any_nonfinite(&out.final_params) {
            problems.push("non-finite final parameter".into());
        }
        if !out.faults.is_clean() {
            problems.push(format!("fault report is not clean: {:?}", out.faults));
        }
        if out.breakdown.skipped_steps != 0 {
            problems.push(format!("{} steps skipped", out.breakdown.skipped_steps));
        }
        // No epochs here: the mean loss of the last third of the steps
        // stands for the final loss.
        let third = (out.step_losses.len() / 3).max(1);
        let tail = &out.step_losses[out.step_losses.len().saturating_sub(third)..];
        let final_loss = tail.iter().map(|&v| v as f64).sum::<f64>() / tail.len().max(1) as f64;
        if final_loss.is_nan() || final_loss >= IMAGE_LOSS_CAP {
            problems.push(format!("train loss {final_loss} reached the cap {IMAGE_LOSS_CAP}"));
        }
        Unit {
            cost,
            steps,
            samples,
            final_loss,
            digest: message_checksum(&out.final_params),
            problems,
            detail: Some(Detail::Dist {
                breakdown: out.breakdown,
                lost_contributions: out.faults.lost_contributions,
            }),
        }
    }
}

// ------------------------------------------------------------------ dispatch

/// One value exists per process.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Resnet(ResnetAlg1),
    Transformer(TransformerAlg1),
    Dp(DataParallel),
}

impl Workload {
    /// Builds the named workload's inputs from `seed`. Also fixes the tensor
    /// pool width the workload runs at, so no environment variable decides it.
    fn new(name: &str, seed: u64, size: Size) -> Option<Workload> {
        let w = match name {
            RESNET18_ALG1 | TRANSFORMER_ALG1 => {
                puffer_tensor::pool::set_num_threads(alg1_pool_width());
                if name == RESNET18_ALG1 {
                    Workload::Resnet(ResnetAlg1::new(seed, size))
                } else {
                    Workload::Transformer(TransformerAlg1::new(seed, size))
                }
            }
            DP2_VGG19_POWERSGD | DP2_RESNET18_HYBRID_BUCKETED => {
                puffer_tensor::pool::set_num_threads(1);
                let kind = if name == DP2_VGG19_POWERSGD {
                    DpKind::VggPowerSgd
                } else {
                    DpKind::ResnetHybridBucketed
                };
                Workload::Dp(DataParallel::new(kind, seed, size))
            }
            _ => return None,
        };
        Some(w)
    }

    pub fn unit(&self) -> Unit {
        match self {
            Workload::Resnet(w) => w.unit(),
            Workload::Transformer(w) => w.unit(),
            Workload::Dp(w) => w.unit(),
        }
    }

    pub fn dataset_gen_s(&self) -> f64 {
        match self {
            Workload::Resnet(w) => w.dataset_gen_s,
            Workload::Transformer(w) => w.dataset_gen_s,
            Workload::Dp(w) => w.dataset_gen_s,
        }
    }

    pub fn build_s(&self) -> f64 {
        match self {
            Workload::Resnet(w) => w.build_s,
            Workload::Transformer(w) => w.build_s,
            Workload::Dp(w) => w.build_s,
        }
    }
}

/// One complete set-up: inputs and model at full size, then one discarded
/// unit at warm-up size. Returns the workload and the seconds it all took.
pub fn set_up(name: &str, seed: u64) -> Option<(Workload, f64)> {
    let t0 = Stopwatch::start();
    let full = Workload::new(name, seed, Size::Full)?;
    let warm = Workload::new(name, seed, Size::Warmup)?;
    std::hint::black_box(warm.unit());
    Some((full, t0.elapsed().as_secs_f64()))
}
