//! **Table 1**: parameter counts and computational complexity of vanilla
//! vs factorized FC, convolution, LSTM, attention, and FFN layers.
//!
//! The closed forms come from `puffer_nn::complexity`; this experiment
//! instantiates representative layers at the paper's dimensions and prints
//! the symbolic formula next to the evaluated counts, cross-checking the
//! formulas against actually constructed layers.

use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_nn::complexity as cx;
use puffer_nn::conv::{Conv2d, LowRankConv2d};
use puffer_nn::layer::Layer;
use puffer_nn::linear::{BlockRank, Linear};
use puffer_nn::lstm::LstmLayer;

/// Prints Table 1 and gates on the formulas matching the instantiated layers.
pub fn run(_args: &Args) -> Record {
    let mut rec = Record::new("table1-complexity");
    println!("== Table 1: #params and computational complexity ==\n");
    let mut t =
        Table::new(vec!["Network", "# Params (formula)", "evaluated", "instantiated", "MACs"]);

    // FC at the paper's classifier dims m = n = 512, r = 128.
    let (m, n, r) = (512u64, 512u64, 128u64);
    let fc = Linear::new(n as usize, m as usize, false, 1).unwrap();
    t.row(vec![
        "Vanilla FC".into(),
        "m x n".into(),
        commas(cx::fc_params(m, n)),
        commas(fc.param_count() as u64),
        commas(cx::fc_macs(m, n)),
    ]);
    let fc_lr = Linear::low_rank(n as usize, m as usize, r as usize, false, 1).unwrap();
    t.row(vec![
        "Factorized FC".into(),
        "r(m+n)".into(),
        commas(cx::fc_low_rank_params(m, n, r)),
        commas(fc_lr.param_count() as u64),
        commas(cx::fc_low_rank_macs(m, n, r)),
    ]);

    // Conv at the paper's VGG conv10 dims: 512→512, k = 3, r = 128, 4x4 map.
    let (ci, co, k, rc, h, w) = (512u64, 512u64, 3u64, 128u64, 4u64, 4u64);
    let conv = Conv2d::new(ci as usize, co as usize, k as usize, 1, 1, false, 1).unwrap();
    t.row(vec![
        "Vanilla Conv.".into(),
        "c_in c_out k^2".into(),
        commas(cx::conv_params(ci, co, k)),
        commas(conv.param_count() as u64),
        commas(cx::conv_macs(ci, co, k, h, w)),
    ]);
    let conv_lr =
        LowRankConv2d::new(ci as usize, co as usize, k as usize, 1, 1, rc as usize, 1).unwrap();
    t.row(vec![
        "Factorized Conv.".into(),
        "c_in r k^2 + r c_out".into(),
        commas(cx::conv_low_rank_params(ci, co, k, rc)),
        commas(conv_lr.param_count() as u64),
        commas(cx::conv_low_rank_macs(ci, co, k, rc, h, w)),
    ]);

    // LSTM at d = h = 1500, r = 375 (parameter formulas exclude biases in
    // Table 1; our instantiated layers include the 4h gate biases).
    let (d, hh, rl) = (1500u64, 1500u64, 375u64);
    let lstm = LstmLayer::new(48, 48, BlockRank::Full, 1).unwrap();
    let lstm_lr = LstmLayer::new(48, 48, BlockRank::LowRank(12), 1).unwrap();
    t.row(vec![
        "Vanilla LSTM".into(),
        "4(dh + h^2)".into(),
        commas(cx::lstm_params(d, hh) - 4 * hh),
        format!("{} (d=h=48, +bias)", commas(lstm.param_count() as u64)),
        commas(cx::lstm_macs(d, hh)),
    ]);
    t.row(vec![
        "Factorized LSTM".into(),
        "4dr + 12hr".into(),
        commas(cx::lstm_low_rank_params(d, hh, rl) - 4 * hh),
        format!("{} (d=h=48, +bias)", commas(lstm_lr.param_count() as u64)),
        commas(cx::lstm_low_rank_macs(d, hh, rl)),
    ]);

    // Transformer blocks at p = 8, d = 64 (d_model 512), r = 128, N = 32.
    let (p, dd, rt, nn) = (8u64, 64u64, 128u64, 32u64);
    t.row(vec![
        "Vanilla Attention".into(),
        "4 p^2 d^2".into(),
        commas(cx::attention_params(p, dd)),
        String::new(),
        commas(cx::attention_macs(p, dd, nn)),
    ]);
    t.row(vec![
        "Factorized Attention".into(),
        "(3p+5) p r d".into(),
        commas(cx::attention_low_rank_params(p, dd, rt)),
        String::new(),
        commas(cx::attention_low_rank_macs(p, dd, rt, nn)),
    ]);
    t.row(vec![
        "Vanilla FFN".into(),
        "8 p^2 d^2".into(),
        commas(cx::ffn_params(p, dd)),
        String::new(),
        commas(cx::ffn_macs(p, dd, nn)),
    ]);
    t.row(vec![
        "Factorized FFN".into(),
        "10 p d r".into(),
        commas(cx::ffn_low_rank_params(p, dd, rt)),
        String::new(),
        commas(cx::ffn_low_rank_macs(p, dd, rt, nn)),
    ]);
    rec.table(t);

    // Cross-check: evaluated formulas match instantiated layers exactly.
    let checks = [
        (cx::fc_params(m, n), fc.param_count()),
        (cx::fc_low_rank_params(m, n, r), fc_lr.param_count()),
        (cx::conv_params(ci, co, k), conv.param_count()),
        (cx::conv_low_rank_params(ci, co, k, rc), conv_lr.param_count()),
        (cx::lstm_params(48, 48), lstm.param_count()),
        (cx::lstm_low_rank_params(48, 48, 12), lstm_lr.param_count()),
    ];
    let matching = checks.iter().filter(|(formula, built)| *formula == *built as u64).count();
    if matching == checks.len() {
        println!("\nall formulas cross-checked against instantiated layers ✓");
    }
    rec.gate(
        "formulas_match_instantiated_layers",
        matching == checks.len(),
        format!("{matching} of {} closed forms equal param_count()", checks.len()),
    );
    rec
}
