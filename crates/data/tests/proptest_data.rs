//! Property tests for the synthetic workload generators, on the seeded case
//! runner (`puffer_tensor::rng::check`).

use puffer_data::bleu::corpus_bleu;
use puffer_data::images::{ImageDataset, ImageDatasetConfig};
use puffer_data::text::{batchify, bptt_batches};
use puffer_data::translation::{TranslationConfig, TranslationDataset, EOS, FIRST_CONTENT};
use puffer_tensor::rng::check;

#[test]
fn batchify_preserves_column_contiguity() {
    check("batchify_preserves_column_contiguity", 16, |rng| {
        let (len, batch) = (rng.gen_range(10..200usize), rng.gen_range(1..8usize));
        let stream: Vec<usize> = (0..len).collect();
        let b = batchify(&stream, batch);
        let steps = len / batch;
        assert_eq!(b.len(), steps);
        // Column c holds the contiguous slice starting at c·steps.
        for c in 0..batch {
            for (t, row) in b.iter().enumerate() {
                assert_eq!(row[c], c * steps + t);
            }
        }
    });
}

#[test]
fn bptt_windows_tile_the_stream() {
    check("bptt_windows_tile_the_stream", 16, |rng| {
        let (len, batch) = (rng.gen_range(20..200usize), rng.gen_range(1..5usize));
        let bptt = rng.gen_range(1..12usize);
        let stream: Vec<usize> = (0..len).collect();
        let b = batchify(&stream, batch);
        let windows = bptt_batches(&b, bptt);
        let covered: usize = windows.iter().map(|w| w.inputs.len()).sum();
        assert_eq!(covered, b.len().saturating_sub(1));
        for w in &windows {
            assert!(w.inputs.len() <= bptt);
            assert_eq!(w.inputs.len(), w.targets.len());
        }
    });
}

#[test]
fn bleu_is_bounded_and_self_maximal() {
    check("bleu_is_bounded_and_self_maximal", 16, |rng| {
        let n_sents = rng.gen_range(1..6usize);
        let sents: Vec<Vec<usize>> = (0..n_sents)
            .map(|_| {
                let len = rng.gen_range(1..12usize);
                (0..len).map(|_| rng.gen_range(0..20usize)).collect()
            })
            .collect();
        let b = corpus_bleu(&sents, &sents, 4);
        assert!((0.0..=1.0 + 1e-9).contains(&b));
        // Any corruption cannot beat the perfect score.
        let mut corrupted = sents.clone();
        corrupted[0].push(19);
        corrupted[0].push(18);
        let bc = corpus_bleu(&corrupted, &sents, 4);
        assert!(bc <= b + 1e-9);
    });
}

#[test]
fn image_batches_partition_training_set() {
    check("image_batches_partition_training_set", 16, |rng| {
        let (train, batch) = (rng.gen_range(16..100usize), rng.gen_range(1..32usize));
        let d = ImageDataset::generate(ImageDatasetConfig {
            classes: 3,
            channels: 3,
            size: 8,
            train,
            test: 4,
            noise: 0.1,
            seed: 3,
        });
        let batches = d.train_batches(batch, 1);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, train);
        for (imgs, labels) in &batches {
            assert_eq!(imgs.shape()[0], labels.len());
            assert!(labels.iter().all(|&l| l < 3));
            assert!(imgs.as_slice().iter().all(|v| v.is_finite()));
        }
    });
}

#[test]
fn translation_pairs_are_consistent() {
    check("translation_pairs_are_consistent", 16, |rng| {
        let seed = rng.gen_range(0..100u64);
        let d = TranslationDataset::generate(TranslationConfig {
            vocab: 20,
            min_len: 2,
            max_len: 6,
            train_pairs: 20,
            valid_pairs: 5,
            seed,
        });
        for p in d.train_pairs().iter().chain(d.valid_pairs()) {
            // Same content length on both sides; all content tokens valid.
            assert_eq!(p.source.len(), p.target.len());
            assert!(p.source[1..p.source.len() - 1]
                .iter()
                .all(|t| (FIRST_CONTENT..20).contains(t)));
            assert!(p.target[1..p.target.len() - 1]
                .iter()
                .all(|t| (FIRST_CONTENT..20).contains(t)));
            assert_eq!(*p.source.last().unwrap(), EOS);
        }
    });
}
