//! Synthetic sequence-to-sequence translation task — the WMT'16 stand-in.
//!
//! A "translation" is a deterministic function of the source sentence: each
//! source token maps through a fixed random bijection into the target
//! vocabulary and the sentence order is reversed. Reversal forces the model
//! to use attention over the whole source (a classic seq2seq diagnostic),
//! while the bijection gives a clean learnable signal measurable with real
//! perplexity and BLEU.
//!
//! Special tokens follow the reference Transformer implementation the paper
//! builds on: `PAD = 0`, `BOS = 1`, `EOS = 2`.

use puffer_tensor::rng::Rng;

/// Padding token id.
pub const PAD: usize = 0;
/// Beginning-of-sequence token id.
pub const BOS: usize = 1;
/// End-of-sequence token id.
pub const EOS: usize = 2;
/// First id available for content tokens.
pub const FIRST_CONTENT: usize = 3;

/// Configuration of the synthetic translation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationConfig {
    /// Total vocabulary size (shared source/target, includes specials).
    pub vocab: usize,
    /// Minimum content length of a sentence.
    pub min_len: usize,
    /// Maximum content length of a sentence.
    pub max_len: usize,
    /// Training pairs.
    pub train_pairs: usize,
    /// Validation pairs.
    pub valid_pairs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TranslationConfig {
    /// A small default.
    pub fn small(seed: u64) -> Self {
        TranslationConfig {
            vocab: 64,
            min_len: 4,
            max_len: 10,
            train_pairs: 2_000,
            valid_pairs: 200,
            seed,
        }
    }
}

/// One padded batch: `(source rows, target rows)`, each `[batch][max_len]`.
pub type TokenBatch = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// A sentence pair: source and target token sequences, both wrapped in
/// `BOS … EOS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentencePair {
    /// Source tokens, `BOS c₁ … c_n EOS`.
    pub source: Vec<usize>,
    /// Target tokens, `BOS m(c_n) … m(c₁) EOS`.
    pub target: Vec<usize>,
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct TranslationDataset {
    config: TranslationConfig,
    mapping: Vec<usize>,
    train: Vec<SentencePair>,
    valid: Vec<SentencePair>,
}

impl TranslationDataset {
    /// Generates the dataset deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary is too small for the special tokens or
    /// `min_len > max_len`.
    pub fn generate(config: TranslationConfig) -> Self {
        assert!(config.vocab > FIRST_CONTENT + 1, "vocabulary too small");
        assert!(config.min_len >= 1 && config.min_len <= config.max_len, "bad length range");
        let mut rng = Rng::seed_from_u64(config.seed);
        // Random bijection over content tokens.
        let content = config.vocab - FIRST_CONTENT;
        let mut perm: Vec<usize> = (0..content).collect();
        for i in (1..content).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mapping: Vec<usize> = perm.iter().map(|&p| p + FIRST_CONTENT).collect();

        let gen_pairs = |count: usize, rng: &mut Rng| -> Vec<SentencePair> {
            (0..count)
                .map(|_| {
                    let len = rng.gen_range(config.min_len..=config.max_len);
                    let content: Vec<usize> =
                        (0..len).map(|_| rng.gen_range(FIRST_CONTENT..config.vocab)).collect();
                    let mut source = vec![BOS];
                    source.extend(&content);
                    source.push(EOS);
                    let mut target = vec![BOS];
                    target.extend(content.iter().rev().map(|&c| mapping[c - FIRST_CONTENT]));
                    target.push(EOS);
                    SentencePair { source, target }
                })
                .collect()
        };
        let train = gen_pairs(config.train_pairs, &mut rng);
        let valid = gen_pairs(config.valid_pairs, &mut rng);
        TranslationDataset { config, mapping, train, valid }
    }

    /// The configuration.
    pub fn config(&self) -> &TranslationConfig {
        &self.config
    }

    /// Training pairs.
    pub fn train_pairs(&self) -> &[SentencePair] {
        &self.train
    }

    /// Validation pairs.
    pub fn valid_pairs(&self) -> &[SentencePair] {
        &self.valid
    }

    /// The ground-truth token mapping (content token → translated token),
    /// exposed for oracle tests.
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// Groups pairs into padded batches: returns
    /// `(source rows, target rows)` where each row set is
    /// `[batch][max_len]` padded with [`PAD`].
    pub fn batches(&self, pairs: &[SentencePair], batch_size: usize) -> Vec<TokenBatch> {
        assert!(batch_size > 0, "batch size must be nonzero");
        pairs
            .chunks(batch_size)
            .map(|chunk| {
                let smax = chunk.iter().map(|p| p.source.len()).max().unwrap_or(0);
                let tmax = chunk.iter().map(|p| p.target.len()).max().unwrap_or(0);
                let pad_to = |seq: &[usize], len: usize| {
                    let mut v = seq.to_vec();
                    v.resize(len, PAD);
                    v
                };
                (
                    chunk.iter().map(|p| pad_to(&p.source, smax)).collect(),
                    chunk.iter().map(|p| pad_to(&p.target, tmax)).collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = TranslationDataset::generate(TranslationConfig::small(7));
        let b = TranslationDataset::generate(TranslationConfig::small(7));
        assert_eq!(a.train_pairs()[0], b.train_pairs()[0]);
    }

    #[test]
    fn target_is_mapped_reversal() {
        let d = TranslationDataset::generate(TranslationConfig::small(8));
        for pair in d.train_pairs().iter().take(20) {
            let content = &pair.source[1..pair.source.len() - 1];
            let expected: Vec<usize> =
                content.iter().rev().map(|&c| d.mapping()[c - FIRST_CONTENT]).collect();
            assert_eq!(&pair.target[1..pair.target.len() - 1], &expected[..]);
        }
    }

    #[test]
    fn mapping_is_bijection() {
        let d = TranslationDataset::generate(TranslationConfig::small(9));
        let mut seen = vec![false; d.config().vocab];
        for &m in d.mapping() {
            assert!(m >= FIRST_CONTENT && m < d.config().vocab);
            assert!(!seen[m], "duplicate image {m}");
            seen[m] = true;
        }
    }

    #[test]
    fn sentences_are_framed() {
        let d = TranslationDataset::generate(TranslationConfig::small(10));
        for p in d.valid_pairs() {
            assert_eq!(p.source[0], BOS);
            assert_eq!(*p.source.last().unwrap(), EOS);
            assert_eq!(p.target[0], BOS);
            assert_eq!(*p.target.last().unwrap(), EOS);
        }
    }

    #[test]
    fn batches_are_padded_uniformly() {
        let d = TranslationDataset::generate(TranslationConfig::small(11));
        let batches = d.batches(d.train_pairs(), 16);
        for (src, tgt) in &batches {
            let slen = src[0].len();
            assert!(src.iter().all(|s| s.len() == slen));
            let tlen = tgt[0].len();
            assert!(tgt.iter().all(|t| t.len() == tlen));
        }
        let total: usize = batches.iter().map(|(s, _)| s.len()).sum();
        assert_eq!(total, 2_000);
    }

    #[test]
    fn oracle_translation_scores_perfect_bleu() {
        // Translating with the ground-truth rule gives BLEU 100.
        let d = TranslationDataset::generate(TranslationConfig::small(12));
        let hyps: Vec<Vec<usize>> = d
            .valid_pairs()
            .iter()
            .map(|p| {
                let content = &p.source[1..p.source.len() - 1];
                content.iter().rev().map(|&c| d.mapping()[c - FIRST_CONTENT]).collect()
            })
            .collect();
        let refs: Vec<Vec<usize>> =
            d.valid_pairs().iter().map(|p| p.target[1..p.target.len() - 1].to_vec()).collect();
        assert!((crate::bleu::bleu4_percent(&hyps, &refs) - 100.0).abs() < 1e-6);
    }
}
