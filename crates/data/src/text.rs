//! Markov-chain language-modeling corpus — the WikiText-2 stand-in.
//!
//! A sparse first-order Markov chain over a configurable vocabulary
//! generates token streams with genuine sequential structure: each token
//! admits only a few likely successors, so a language model that captures
//! the transitions reaches much lower perplexity than the unigram baseline.
//! The corpus is laid out for truncated BPTT exactly as the PyTorch
//! `word_language_model` example the paper builds on (`batchify` +
//! contiguous `(input, target)` windows).

use puffer_tensor::rng::Rng;

/// Configuration of the synthetic language corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextCorpusConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Successors per token in the Markov chain (branching factor).
    pub branching: usize,
    /// Tokens in the train split.
    pub train_tokens: usize,
    /// Tokens in the validation split.
    pub valid_tokens: usize,
    /// Tokens in the test split.
    pub test_tokens: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TextCorpusConfig {
    /// A small default suitable for unit tests and CI-scale training.
    pub fn small(seed: u64) -> Self {
        TextCorpusConfig {
            vocab: 200,
            branching: 4,
            train_tokens: 20_000,
            valid_tokens: 2_000,
            test_tokens: 2_000,
            seed,
        }
    }
}

/// A generated corpus with train/valid/test token streams.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    config: TextCorpusConfig,
    train: Vec<usize>,
    valid: Vec<usize>,
    test: Vec<usize>,
}

impl TextCorpus {
    /// Generates the corpus deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `branching` is zero or exceeds `vocab`.
    pub fn generate(config: TextCorpusConfig) -> Self {
        assert!(
            config.branching > 0 && config.branching <= config.vocab,
            "branching must be in 1..=vocab"
        );
        let mut rng = Rng::seed_from_u64(config.seed);
        // Transition table: token -> `branching` successors with geometric
        // weights (first successor most likely).
        let successors: Vec<Vec<usize>> = (0..config.vocab)
            .map(|_| (0..config.branching).map(|_| rng.gen_range(0..config.vocab)).collect())
            .collect();
        let sample_stream = |len: usize, rng: &mut Rng| -> Vec<usize> {
            let mut out = Vec::with_capacity(len);
            let mut cur = rng.gen_range(0..config.vocab);
            for _ in 0..len {
                out.push(cur);
                // Geometric choice over successors with small uniform smoothing.
                cur = if rng.gen_f32() < 0.05 {
                    rng.gen_range(0..config.vocab)
                } else {
                    let mut k = 0;
                    while k + 1 < config.branching && rng.gen_f32() < 0.4 {
                        k += 1;
                    }
                    successors[cur][k]
                };
            }
            out
        };
        let train = sample_stream(config.train_tokens, &mut rng);
        let valid = sample_stream(config.valid_tokens, &mut rng);
        let test = sample_stream(config.test_tokens, &mut rng);
        TextCorpus { config, train, valid, test }
    }

    /// The configuration.
    pub fn config(&self) -> &TextCorpusConfig {
        &self.config
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.config.vocab
    }

    /// The raw train token stream.
    pub fn train_stream(&self) -> &[usize] {
        &self.train
    }

    /// The raw validation token stream.
    pub fn valid_stream(&self) -> &[usize] {
        &self.valid
    }

    /// The raw test token stream.
    pub fn test_stream(&self) -> &[usize] {
        &self.test
    }
}

/// Lays a token stream out as `batch_size` contiguous columns (PyTorch's
/// `batchify`): returns a `[n_steps][batch_size]` matrix of tokens.
pub fn batchify(stream: &[usize], batch_size: usize) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be nonzero");
    let n_steps = stream.len() / batch_size;
    let mut out = vec![vec![0usize; batch_size]; n_steps];
    for b in 0..batch_size {
        for (t, row) in out.iter_mut().enumerate() {
            row[b] = stream[b * n_steps + t];
        }
    }
    out
}

/// A BPTT window: `seq_len` input steps plus their next-token targets,
/// each step being a `batch_size` token row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpttBatch {
    /// Input token rows, `seq_len × batch_size`.
    pub inputs: Vec<Vec<usize>>,
    /// Target token rows (inputs shifted by one), `seq_len × batch_size`.
    pub targets: Vec<Vec<usize>>,
}

/// Splits a batchified stream into BPTT windows of `seq_len`.
pub fn bptt_batches(batchified: &[Vec<usize>], seq_len: usize) -> Vec<BpttBatch> {
    assert!(seq_len > 0, "seq_len must be nonzero");
    let mut out = Vec::new();
    let mut t = 0;
    while t + 1 < batchified.len() {
        let len = seq_len.min(batchified.len() - 1 - t);
        out.push(BpttBatch {
            inputs: batchified[t..t + len].to_vec(),
            targets: batchified[t + 1..t + 1 + len].to_vec(),
        });
        t += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = TextCorpus::generate(TextCorpusConfig::small(3));
        let b = TextCorpus::generate(TextCorpusConfig::small(3));
        assert_eq!(a.train_stream(), b.train_stream());
    }

    #[test]
    fn tokens_in_vocab() {
        let c = TextCorpus::generate(TextCorpusConfig::small(4));
        assert!(c.train_stream().iter().all(|&t| t < c.vocab()));
        assert_eq!(c.train_stream().len(), 20_000);
    }

    #[test]
    fn stream_has_structure() {
        // Bigram entropy must be far below the uniform log2(V): the chain is
        // predictable, so an LM has something to learn.
        let c = TextCorpus::generate(TextCorpusConfig::small(5));
        let v = c.vocab();
        // BTreeMap: the entropy below is a float sum over the iteration
        // order, which must not depend on the hasher.
        let mut counts = std::collections::BTreeMap::new();
        let s = c.train_stream();
        for w in s.windows(2) {
            *counts.entry((w[0], w[1])).or_insert(0usize) += 1;
        }
        let mut ctx_totals = std::collections::BTreeMap::new();
        for (&(a, _), &n) in &counts {
            *ctx_totals.entry(a).or_insert(0usize) += n;
        }
        let mut entropy = 0.0f64;
        for (&(a, _), &n) in &counts {
            let p = n as f64 / ctx_totals[&a] as f64;
            let w = n as f64 / (s.len() - 1) as f64;
            entropy -= w * p.log2();
        }
        assert!(entropy < (v as f64).log2() * 0.7, "entropy {entropy}");
    }

    #[test]
    fn batchify_layout() {
        let stream: Vec<usize> = (0..10).collect();
        let b = batchify(&stream, 2);
        // Two columns of 5: col0 = 0..5, col1 = 5..10.
        assert_eq!(b.len(), 5);
        assert_eq!(b[0], vec![0, 5]);
        assert_eq!(b[4], vec![4, 9]);
    }

    #[test]
    fn bptt_targets_are_shifted_inputs() {
        let stream: Vec<usize> = (0..21).collect();
        let b = batchify(&stream, 3);
        let batches = bptt_batches(&b, 2);
        for batch in &batches {
            assert_eq!(batch.inputs.len(), batch.targets.len());
        }
        // First batch: inputs rows t=0,1; targets rows t=1,2.
        assert_eq!(batches[0].inputs[1], batches[0].targets[0]);
        // All steps covered exactly once as inputs (except the final row).
        let total: usize = batches.iter().map(|b| b.inputs.len()).sum();
        assert_eq!(total, b.len() - 1);
    }

    #[test]
    #[should_panic(expected = "branching")]
    fn invalid_branching_panics() {
        let mut cfg = TextCorpusConfig::small(1);
        cfg.branching = 0;
        let _ = TextCorpus::generate(cfg);
    }
}
