//! **Table 9**: warm-up ablation on the low-rank LSTM / WikiText-2-like
//! corpus — low-rank from scratch vs low-rank with vanilla warm-up.
//!
//! Shape under reproduction: warm-up improves train/val/test perplexity
//! (paper: val 97.59 → 93.62, test 92.04 → 88.72).

use crate::setups::{self, lstm_perplexities, mean_pm_std};
use crate::table::Table;
use crate::{Args, Record};

/// Runs both arms over the seeds.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table9-ablation-lstm");
    let scale = args.scale;
    let corpus = setups::lm_corpus(scale);
    let epochs = scale.pick(3, 8);
    let warmup = scale.pick(1, 2);
    let seeds = scale.seeds();
    println!("== Table 9: LSTM warm-up ablation (epochs={epochs}, seeds={}) ==\n", seeds.len());

    let mut t = Table::new(vec!["Methods", "Train Ppl.", "Val. Ppl.", "Test Ppl."]);
    for (name, warmup) in
        [("Low-rank LSTM (wo. vanilla warm-up)", 0), ("Low-rank LSTM (w. vanilla warm-up)", warmup)]
    {
        let [train, valid, test] = lstm_perplexities(&corpus, &seeds, epochs, warmup);
        t.row(vec![name.into(), mean_pm_std(&train), mean_pm_std(&valid), mean_pm_std(&test)]);
    }
    rec.table(t);
    println!("\npaper shape: warm-up lowers all three perplexities");
    println!("(paper: train 68.04->62.2, val 97.59->93.62, test 92.04->88.72).");
    rec
}
