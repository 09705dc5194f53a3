//! Algorithm 1 for the CNN image-classification tasks (VGG / ResNet on the
//! CIFAR-like and ImageNet-lite datasets).

use crate::report::{EpochMetrics, TrainReport};
use puffer_data::images::ImageDataset;
use puffer_models::resnet::{ResNet, ResNetHybridPlan};
use puffer_models::units::FactorInit;
use puffer_models::vgg::Vgg;
use puffer_nn::amp::AmpSession;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::{accuracy, softmax_cross_entropy};
use puffer_nn::optim::{clip_grad_norm, Sgd};
use puffer_nn::param::Param;
use puffer_nn::schedule::{LrSchedule, StepDecay};
use puffer_nn::Result;
use puffer_probe as probe;
use puffer_tensor::Tensor;

/// An image-classification model Pufferfish can train: either family of
/// the paper's CNNs.
///
/// Variant sizes differ by design: one ImageModel exists per training run,
/// so boxing the larger network would only add pointer chasing.
#[allow(clippy::large_enum_variant)]
pub enum ImageModel {
    /// A VGG-style network.
    Vgg(Vgg),
    /// A ResNet-style network.
    ResNet(ResNet),
}

impl From<Vgg> for ImageModel {
    fn from(m: Vgg) -> Self {
        ImageModel::Vgg(m)
    }
}

impl From<ResNet> for ImageModel {
    fn from(m: ResNet) -> Self {
        ImageModel::ResNet(m)
    }
}

impl Layer for ImageModel {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match self {
            ImageModel::Vgg(m) => m.forward(input, mode),
            ImageModel::ResNet(m) => m.forward(input, mode),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self {
            ImageModel::Vgg(m) => m.backward(grad_output),
            ImageModel::ResNet(m) => m.backward(grad_output),
        }
    }

    fn backward_with_ready(
        &mut self,
        grad_output: &Tensor,
        on_ready: &mut dyn FnMut(usize),
    ) -> Tensor {
        match self {
            ImageModel::Vgg(m) => m.backward_with_ready(grad_output, on_ready),
            ImageModel::ResNet(m) => m.backward_with_ready(grad_output, on_ready),
        }
    }

    fn params(&self) -> Vec<&Param> {
        match self {
            ImageModel::Vgg(m) => m.params(),
            ImageModel::ResNet(m) => m.params(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            ImageModel::Vgg(m) => m.params_mut(),
            ImageModel::ResNet(m) => m.params_mut(),
        }
    }

    fn describe(&self) -> String {
        match self {
            ImageModel::Vgg(m) => m.describe(),
            ImageModel::ResNet(m) => m.describe(),
        }
    }

    fn buffers(&self) -> Vec<Tensor> {
        match self {
            ImageModel::Vgg(m) => m.buffers(),
            ImageModel::ResNet(m) => m.buffers(),
        }
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        match self {
            ImageModel::Vgg(m) => m.load_buffers(buffers),
            ImageModel::ResNet(m) => m.load_buffers(buffers),
        }
    }
}

/// Which architecture conversion Algorithm 1 applies at the warm-up
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelPlan {
    /// No conversion — plain vanilla SGD for all epochs.
    None,
    /// VGG hybrid: factorize layers `first_low_rank..` at `rank_ratio`.
    VggHybrid {
        /// 1-based index of the first factorized layer (the paper's `K`).
        first_low_rank: usize,
        /// Global rank ratio (paper: 0.25).
        rank_ratio: f32,
    },
    /// ResNet hybrid following a [`ResNetHybridPlan`].
    ResNetHybrid(ResNetHybridPlan),
}

/// Hyper-parameters for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Total epochs `E`.
    pub epochs: usize,
    /// Vanilla warm-up epochs `E_wu` (0 = train the hybrid from scratch).
    pub warmup_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// LR schedule over epochs.
    pub schedule: StepDecay,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// ℓ2 weight decay (paper: 1e-4, BN/bias exempt).
    pub weight_decay: f32,
    /// Label smoothing (paper: 0.1 on ImageNet, 0 on CIFAR).
    pub label_smoothing: f32,
    /// Emulated mixed precision (Tables 4–5 "AMP" rows).
    pub amp: bool,
    /// Optional global gradient-norm clip.
    pub clip: Option<f32>,
    /// Seed for cold-start factor initialization.
    pub seed: u64,
}

impl TrainConfig {
    /// A CPU-scale CIFAR-style recipe: lr 0.1, step decay at 50%/83% of the
    /// run (the paper's 150/250-of-300 pattern).
    pub fn cifar_small(epochs: usize, warmup_epochs: usize) -> Self {
        TrainConfig {
            epochs,
            warmup_epochs,
            batch_size: 32,
            schedule: StepDecay::new(0.1, vec![epochs / 2, epochs * 5 / 6], 0.1),
            momentum: 0.9,
            weight_decay: 1e-4,
            label_smoothing: 0.0,
            amp: false,
            clip: Some(5.0),
            seed: 7,
        }
    }

    /// The ImageNet-style recipe scaled down (label smoothing 0.1, decay at
    /// 1/3 and 2/3 like the paper's 30/60/80-of-90 pattern).
    pub fn imagenet_small(epochs: usize, warmup_epochs: usize) -> Self {
        let mut c = Self::cifar_small(epochs, warmup_epochs);
        c.schedule = StepDecay::new(0.1, vec![epochs / 3, epochs * 2 / 3], 0.1);
        c.label_smoothing = 0.1;
        c
    }
}

/// The result of a training run: the final model plus its report.
pub struct TrainOutcome {
    /// The trained model (hybrid if a conversion happened).
    pub model: ImageModel,
    /// Per-epoch telemetry.
    pub report: TrainReport,
}

/// Runs Algorithm 1: vanilla warm-up for `cfg.warmup_epochs`, SVD
/// factorization into the hybrid architecture of `plan`, consecutive
/// low-rank training to `cfg.epochs`. With `warmup_epochs = 0` the hybrid
/// is trained from scratch (randomly initialized factors); with
/// `plan = ModelPlan::None` this is plain vanilla training.
///
/// # Errors
///
/// Propagates model-surgery and loss errors.
pub fn train(
    vanilla: impl Into<ImageModel>,
    plan: ModelPlan,
    data: &ImageDataset,
    cfg: &TrainConfig,
) -> Result<TrainOutcome> {
    let mut model = vanilla.into();
    let mut report = TrainReport {
        vanilla_params: model.param_count(),
        hybrid_params: model.param_count(),
        ..TrainReport::default()
    };

    // Hybrid-from-scratch: convert immediately with random factors.
    if cfg.warmup_epochs == 0 {
        if let Some(converted) = convert(&model, plan, FactorInit::Random(cfg.seed))? {
            model = converted;
            report.hybrid_params = model.param_count();
            report.switch_epoch = Some(0);
        }
    }

    let mut opt = Sgd::new(cfg.schedule.lr_at(0), cfg.momentum, cfg.weight_decay);
    let mut amp = AmpSession::new();

    for epoch in 0..cfg.epochs {
        // Warm-up boundary: factorize the partially trained weights.
        if epoch == cfg.warmup_epochs && cfg.warmup_epochs > 0 {
            let sp =
                probe::timed_span_with("core", "svd_factorize", || vec![("epoch", epoch.into())]);
            if let Some(converted) = convert(&model, plan, FactorInit::WarmStart)? {
                model = converted;
                report.svd_time = Some(sp.finish());
                report.switch_epoch = Some(epoch);
                report.hybrid_params = model.param_count();
                // Parameter set changed: fresh optimizer state, same schedule.
                opt = Sgd::new(cfg.schedule.lr_at(epoch), cfg.momentum, cfg.weight_decay);
            }
        }
        let lr = cfg.schedule.lr_at(epoch);
        opt.set_lr(lr);

        let epoch_span = probe::timed_span_with("core", "epoch", || {
            vec![("epoch", epoch.into()), ("lr", lr.into())]
        });
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (images, labels) in data.train_batches(cfg.batch_size, epoch as u64) {
            model.zero_grad();
            let loss = if cfg.amp {
                amp.cast_params_to_f16(&mut model.params_mut());
                let logits = model.forward(&images, Mode::Train);
                let (loss, mut dlogits) =
                    softmax_cross_entropy(&logits, &labels, cfg.label_smoothing)?;
                dlogits = amp.scale_loss_grad(&dlogits);
                let _ = model.backward(&dlogits);
                amp.restore_masters(&mut model.params_mut());
                if !amp.unscale_grads(&mut model.params_mut()) {
                    probe::counter_add("core.amp_skipped_steps", 1);
                    continue; // overflow: skip step, scale backed off
                }
                loss
            } else {
                let logits = model.forward(&images, Mode::Train);
                let (loss, dlogits) = softmax_cross_entropy(&logits, &labels, cfg.label_smoothing)?;
                let _ = model.backward(&dlogits);
                loss
            };
            if let Some(c) = cfg.clip {
                clip_grad_norm(&mut model.params_mut(), c);
            }
            opt.step(&mut model.params_mut());
            loss_sum += loss as f64;
            batches += 1;
        }
        let (eval_loss, eval_acc) = evaluate(&mut model, data, cfg.batch_size)?;
        // The epoch span (and EpochMetrics::wall) covers train + eval, as
        // the pre-probe accounting did.
        let wall = epoch_span.finish();
        let train_loss = (loss_sum / batches.max(1) as f64) as f32;
        probe::metrics_row(
            "epoch",
            &[
                ("epoch", epoch.into()),
                ("train_loss", train_loss.into()),
                ("eval_loss", eval_loss.into()),
                ("eval_acc", eval_acc.into()),
                ("lr", lr.into()),
                ("wall_us", (wall.as_micros() as u64).into()),
            ],
        );
        report.epochs.push(EpochMetrics {
            epoch,
            train_loss,
            eval_loss,
            eval_accuracy: Some(eval_acc),
            lr,
            params: model.param_count(),
            wall,
        });
    }
    Ok(TrainOutcome { model, report })
}

/// Evaluates a model on the test split: `(mean loss, top-1 accuracy)`.
///
/// # Errors
///
/// Propagates loss errors.
pub fn evaluate(
    model: &mut ImageModel,
    data: &ImageDataset,
    batch_size: usize,
) -> Result<(f32, f32)> {
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    let mut n = 0usize;
    for (images, labels) in data.test_batches(batch_size) {
        let logits = model.forward(&images, Mode::Eval);
        let (loss, _) = softmax_cross_entropy(&logits, &labels, 0.0)?;
        loss_sum += loss as f64 * labels.len() as f64;
        acc_sum += accuracy(&logits, &labels) as f64 * labels.len() as f64;
        n += labels.len();
    }
    let n = n.max(1) as f64;
    Ok(((loss_sum / n) as f32, (acc_sum / n) as f32))
}

fn convert(model: &ImageModel, plan: ModelPlan, init: FactorInit) -> Result<Option<ImageModel>> {
    match (model, plan) {
        (_, ModelPlan::None) => Ok(None),
        (ImageModel::Vgg(v), ModelPlan::VggHybrid { first_low_rank, rank_ratio }) => {
            Ok(Some(ImageModel::Vgg(v.to_hybrid(first_low_rank, rank_ratio, init)?)))
        }
        (ImageModel::ResNet(r), ModelPlan::ResNetHybrid(p)) => {
            Ok(Some(ImageModel::ResNet(r.to_hybrid(&p, init)?)))
        }
        _ => Err(puffer_nn::NnError::BadConfig {
            layer: "pufferfish::trainer",
            reason: "model plan does not match model family".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_data::images::ImageDatasetConfig;
    use puffer_models::vgg::VggConfig;

    fn tiny_data() -> ImageDataset {
        ImageDataset::generate(ImageDatasetConfig {
            classes: 4,
            channels: 3,
            size: 16,
            train: 192,
            test: 64,
            noise: 0.1,
            seed: 5,
        })
    }

    fn tiny_vgg() -> Vgg {
        Vgg::new(VggConfig {
            stages: vec![vec![6], vec![8], vec![12]],
            fc_hidden: vec![16],
            classes: 4,
            input_size: 16,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn image_model_passes_its_networks_readiness_on() {
        // conv units 3, FC 1, classifier: five announcements, not the
        // trait default's one.
        let mut model = ImageModel::from(tiny_vgg());
        let y = model.forward(&Tensor::randn(&[2, 3, 16, 16], 1.0, 1), Mode::Train);
        let mut announced = Vec::new();
        let _ = model.backward_with_ready(&Tensor::ones(y.shape()), &mut |first| {
            announced.push(first);
        });
        assert_eq!(announced.len(), 5, "{announced:?}");
        assert_eq!(announced.last(), Some(&0));
    }

    #[test]
    fn vanilla_training_learns() {
        let cfg = TrainConfig::cifar_small(6, 0);
        let out = train(tiny_vgg(), ModelPlan::None, &tiny_data(), &cfg).unwrap();
        assert_eq!(out.report.epochs.len(), 6);
        assert!(
            out.report.final_test_accuracy() > 0.45,
            "acc {}",
            out.report.final_test_accuracy()
        );
        assert!(out.report.switch_epoch.is_none());
    }

    #[test]
    fn algorithm1_switches_architecture() {
        let cfg = TrainConfig::cifar_small(6, 2);
        let plan = ModelPlan::VggHybrid { first_low_rank: 2, rank_ratio: 0.5 };
        let out = train(tiny_vgg(), plan, &tiny_data(), &cfg).unwrap();
        assert_eq!(out.report.switch_epoch, Some(2));
        assert!(out.report.svd_time.is_some());
        assert!(out.report.hybrid_params < out.report.vanilla_params);
        // Epoch param counts reflect the switch.
        assert_eq!(out.report.epochs[1].params, out.report.vanilla_params);
        assert_eq!(out.report.epochs[2].params, out.report.hybrid_params);
        assert!(out.report.final_test_accuracy() > 0.4, "acc {}", out.report.final_test_accuracy());
    }

    #[test]
    fn from_scratch_low_rank_uses_random_factors() {
        let cfg = TrainConfig::cifar_small(2, 0);
        let plan = ModelPlan::VggHybrid { first_low_rank: 1, rank_ratio: 0.25 };
        let out = train(tiny_vgg(), plan, &tiny_data(), &cfg).unwrap();
        assert_eq!(out.report.switch_epoch, Some(0));
        assert!(out.report.svd_time.is_none());
        assert!(out.report.hybrid_params < out.report.vanilla_params);
    }

    #[test]
    fn amp_training_is_stable() {
        let mut cfg = TrainConfig::cifar_small(5, 1);
        cfg.amp = true;
        let plan = ModelPlan::VggHybrid { first_low_rank: 2, rank_ratio: 0.5 };
        let out = train(tiny_vgg(), plan, &tiny_data(), &cfg).unwrap();
        assert!(out.report.epochs.iter().all(|e| e.train_loss.is_finite()));
        assert!(
            out.report.final_test_accuracy() > 0.35,
            "acc {}",
            out.report.final_test_accuracy()
        );
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let cfg = TrainConfig::cifar_small(1, 0);
        let plan = ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet18_paper());
        assert!(train(tiny_vgg(), plan, &tiny_data(), &cfg).is_err());
    }

    #[test]
    fn resnet_plan_works_end_to_end() {
        use puffer_models::resnet::ResNetConfig;
        let net = ResNet::new(ResNetConfig::resnet18(0.0625, 4, 2)).unwrap();
        let cfg = TrainConfig::cifar_small(2, 1);
        let plan = ModelPlan::ResNetHybrid(ResNetHybridPlan::resnet18_paper());
        let out = train(net, plan, &tiny_data(), &cfg).unwrap();
        assert_eq!(out.report.switch_epoch, Some(1));
        assert!(out.report.hybrid_params < out.report.vanilla_params);
    }
}
