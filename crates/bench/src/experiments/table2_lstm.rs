//! **Table 2**: vanilla vs Pufferfish 2-layer LSTM on WikiText-2(-like):
//! parameters, train/val/test perplexity, MACs.
//!
//! Full-scale parameter/MAC columns reproduce the paper's exact counts
//! (85,962,278 → 67,962,278; MAC ratio 2×); perplexities come from
//! training the bench-scale tied LSTM on the synthetic Markov corpus,
//! averaged over seeds. Shape under reproduction: the factorized model's
//! perplexity stays close to (the paper: slightly worse train ppl, nearly
//! equal val/test ppl than) the vanilla model at ~0.79× the parameters.

use crate::setups::{self, lstm_perplexities, mean_pm_std};
use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_models::spec::{lstm_wikitext2, SpecVariant};

/// Trains both LSTMs over the seeds and prints Table 2.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table2-lstm");
    let scale = args.scale;
    let epochs = scale.pick(3, 8);
    let warmup = scale.pick(1, 2);
    let seeds = scale.seeds();
    let corpus = setups::lm_corpus(scale);
    println!(
        "== Table 2: LSTM on WikiText-2-like corpus (epochs={epochs}, seeds={}) ==\n",
        seeds.len()
    );

    let mut t = Table::new(vec![
        "Model archs.",
        "# Params (full-scale)",
        "Train Ppl.",
        "Val. Ppl.",
        "Test Ppl.",
        "MACs (full-scale)",
    ]);
    // Vanilla: warm-up = total epochs (never converts). Pufferfish: warm-up
    // then factorized.
    for (name, variant, warmup) in [
        ("Vanilla LSTM", SpecVariant::Vanilla, epochs),
        ("Pufferfish LSTM", SpecVariant::Pufferfish, warmup),
    ] {
        let [train, valid, test] = lstm_perplexities(&corpus, &seeds, epochs, warmup);
        let spec = lstm_wikitext2(variant);
        t.row(vec![
            name.into(),
            commas(spec.params()),
            mean_pm_std(&train),
            mean_pm_std(&valid),
            mean_pm_std(&test),
            format!("{}M", spec.macs() / 1_000_000),
        ]);
    }
    rec.table(t);
    println!("\npaper reference: params 85,962,278 -> 67,962,278 (reproduced exactly at full");
    println!("scale); val ppl 92.49 vs 93.62, test 88.16 vs 88.72 — near-parity at 0.79x params.");
    println!("uniform-baseline perplexity on this corpus = {}", corpus.vocab());
    rec
}
