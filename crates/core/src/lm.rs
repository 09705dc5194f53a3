//! Algorithm 1 for the LSTM language-modeling task (the paper's WikiText-2
//! experiment, Tables 2 and 9).
//!
//! Follows the paper's recipe (appendix I): plain SGD, gradient-norm
//! clipping at 0.25, plateau LR decay ×0.25, and a 0.5× LR cut at the
//! warm-up → low-rank switch.

use crate::report::{EpochMetrics, TrainReport};
use puffer_data::text::{batchify, bptt_batches, TextCorpus};
use puffer_models::lstm_lm::LstmLm;
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::clip_grad_norm;
use puffer_nn::schedule::PlateauDecay;
use puffer_nn::Result;
use puffer_probe as probe;

/// Hyper-parameters for the LM run.
#[derive(Debug, Clone)]
pub struct LmTrainConfig {
    /// Total epochs.
    pub epochs: usize,
    /// Vanilla warm-up epochs (0 = low-rank from scratch).
    pub warmup_epochs: usize,
    /// Rank for the factorized gates (the paper: `hidden/4`).
    pub rank: usize,
    /// Batch size (token columns).
    pub batch_size: usize,
    /// BPTT window length.
    pub bptt: usize,
    /// Initial learning rate (paper: 20 at full scale).
    pub lr: f32,
    /// Plateau decay factor (paper: 0.25).
    pub plateau_factor: f32,
    /// Gradient-norm clip (paper: 0.25).
    pub clip: f32,
}

impl LmTrainConfig {
    /// A CPU-scale recipe preserving the paper's structure.
    pub fn small(epochs: usize, warmup_epochs: usize, rank: usize) -> Self {
        LmTrainConfig {
            epochs,
            warmup_epochs,
            rank,
            batch_size: 10,
            bptt: 16,
            lr: 2.0,
            plateau_factor: 0.25,
            clip: 0.25,
        }
    }
}

/// The result of an LM run.
pub struct LmOutcome {
    /// The trained model.
    pub model: LstmLm,
    /// Telemetry (eval loss is validation NLL; perplexity = `exp`).
    pub report: TrainReport,
    /// Test-set perplexity after the final epoch.
    pub test_perplexity: f32,
}

/// Runs Algorithm 1 on the LM: warm-up as vanilla, convert via per-gate
/// truncated SVD, continue training the low-rank model. With
/// `warmup_epochs = 0`, trains the low-rank model from scratch; to train a
/// vanilla LSTM end-to-end set `warmup_epochs = epochs`.
///
/// # Errors
///
/// Propagates model and loss errors.
pub fn train_lm(vanilla: LstmLm, corpus: &TextCorpus, cfg: &LmTrainConfig) -> Result<LmOutcome> {
    let mut model = vanilla;
    let mut report = TrainReport {
        vanilla_params: model.param_count(),
        hybrid_params: model.param_count(),
        ..TrainReport::default()
    };
    if cfg.warmup_epochs == 0 && cfg.epochs > 0 && needs_conversion(cfg) {
        model = model.to_low_rank(cfg.rank, false)?;
        report.switch_epoch = Some(0);
        report.hybrid_params = model.param_count();
    }

    let train_b = batchify(corpus.train_stream(), cfg.batch_size);
    let valid_b = batchify(corpus.valid_stream(), cfg.batch_size);
    let test_b = batchify(corpus.test_stream(), cfg.batch_size);
    let mut lr_ctl = PlateauDecay::new(cfg.lr, cfg.plateau_factor);

    for epoch in 0..cfg.epochs {
        if epoch == cfg.warmup_epochs && cfg.warmup_epochs > 0 && needs_conversion(cfg) {
            let sp =
                probe::timed_span_with("core", "svd_factorize", || vec![("epoch", epoch.into())]);
            model = model.to_low_rank(cfg.rank, true)?;
            report.svd_time = Some(sp.finish());
            report.switch_epoch = Some(epoch);
            report.hybrid_params = model.param_count();
            // Paper: LR halves at the switch.
            lr_ctl.scale_lr(0.5);
        }
        let lr = lr_ctl.lr();
        let epoch_span = probe::timed_span_with("core", "epoch", || {
            vec![("epoch", epoch.into()), ("lr", lr.into())]
        });
        let mut loss_sum = 0.0f64;
        let mut steps = 0usize;
        for batch in bptt_batches(&train_b, cfg.bptt) {
            model.zero_grad();
            let logits = model.forward(&batch.inputs, true);
            let targets: Vec<usize> = batch.targets.iter().flatten().copied().collect();
            let (loss, dl) = softmax_cross_entropy(&logits, &targets, 0.0)?;
            model.backward(&dl);
            clip_grad_norm(&mut model.params_mut(), cfg.clip);
            // Vanilla SGD (no momentum), per the paper's LSTM recipe.
            for p in model.params_mut() {
                p.value.axpy(-lr, &p.grad)?;
            }
            loss_sum += loss as f64;
            steps += 1;
        }
        let val_loss = eval_stream(&mut model, &valid_b, cfg.bptt)?;
        // The epoch span covers train + eval, as in the image trainer.
        let wall = epoch_span.finish();
        lr_ctl.observe(val_loss);
        report.epochs.push(EpochMetrics {
            epoch,
            train_loss: (loss_sum / steps.max(1) as f64) as f32,
            eval_loss: val_loss,
            eval_accuracy: None,
            lr,
            params: model.param_count(),
            wall,
        });
    }
    let test_loss = eval_stream(&mut model, &test_b, cfg.bptt)?;
    Ok(LmOutcome { model, report, test_perplexity: test_loss.exp() })
}

fn needs_conversion(cfg: &LmTrainConfig) -> bool {
    cfg.warmup_epochs < cfg.epochs
}

/// Mean NLL of a batchified stream under the model.
///
/// # Errors
///
/// Propagates loss errors.
pub fn eval_stream(model: &mut LstmLm, batchified: &[Vec<usize>], bptt: usize) -> Result<f32> {
    let mut loss_sum = 0.0f64;
    let mut tokens = 0usize;
    for batch in bptt_batches(batchified, bptt) {
        let logits = model.forward(&batch.inputs, false);
        let targets: Vec<usize> = batch.targets.iter().flatten().copied().collect();
        let (loss, _) = softmax_cross_entropy(&logits, &targets, 0.0)?;
        loss_sum += loss as f64 * targets.len() as f64;
        tokens += targets.len();
    }
    Ok((loss_sum / tokens.max(1) as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_data::text::TextCorpusConfig;
    use puffer_models::lstm_lm::LstmLmConfig;

    fn tiny_corpus() -> TextCorpus {
        TextCorpus::generate(TextCorpusConfig {
            vocab: 30,
            branching: 2,
            train_tokens: 2_000,
            valid_tokens: 400,
            test_tokens: 400,
            seed: 2,
        })
    }

    #[test]
    fn vanilla_lm_beats_uniform() {
        let corpus = tiny_corpus();
        let model = LstmLm::new(LstmLmConfig::small(30, 16, 1)).unwrap();
        let cfg = LmTrainConfig { epochs: 3, warmup_epochs: 3, ..LmTrainConfig::small(3, 3, 4) };
        let out = train_lm(model, &corpus, &cfg).unwrap();
        // Uniform perplexity = vocab = 30; the chain is very predictable.
        assert!(out.test_perplexity < 25.0, "ppl {}", out.test_perplexity);
        assert!(out.report.switch_epoch.is_none());
    }

    #[test]
    fn algorithm1_lm_switches_and_shrinks() {
        let corpus = tiny_corpus();
        let model = LstmLm::new(LstmLmConfig::small(30, 16, 1)).unwrap();
        let cfg = LmTrainConfig::small(4, 2, 4);
        let out = train_lm(model, &corpus, &cfg).unwrap();
        assert_eq!(out.report.switch_epoch, Some(2));
        assert!(out.report.hybrid_params < out.report.vanilla_params);
        assert!(out.report.svd_time.is_some());
        assert!(out.test_perplexity < 28.0, "ppl {}", out.test_perplexity);
    }

    #[test]
    fn from_scratch_low_rank() {
        let corpus = tiny_corpus();
        let model = LstmLm::new(LstmLmConfig::small(30, 16, 1)).unwrap();
        let cfg = LmTrainConfig::small(2, 0, 4);
        let out = train_lm(model, &corpus, &cfg).unwrap();
        assert_eq!(out.report.switch_epoch, Some(0));
        assert!(out.report.hybrid_params < out.report.vanilla_params);
    }
}
