//! The *deck*: a model configuration walked into the list of layer calls one
//! training step makes, with the exact shapes, so each layer and each kernel
//! underneath it can be timed standalone at the sizes the workload uses.
//!
//! The walk mirrors `puffer-models`' constructors. The fidelity check is the
//! parameter count: a deck whose parameters do not sum to
//! `model.param_count()` has drifted from the model and its replay means
//! nothing (tested for all four workload models, vanilla and hybrid).

use puffer_models::resnet::{BlockKind, RankRule, ResNetConfig, ResNetHybridPlan};
use puffer_models::transformer::TransformerConfig;
use puffer_models::units::rank_for;
use puffer_models::vgg::VggConfig;

/// One layer call of a training step. Spatial sizes are the *input's*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `Conv2d`, or `LowRankConv2d` when `rank` is set. No bias (BN follows).
    Conv {
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        hw: usize,
        rank: Option<usize>,
    },
    BatchNorm {
        c: usize,
        hw: usize,
    },
    /// ReLU over a `[N, c, hw, hw]` activation (the models inline it).
    Relu {
        c: usize,
        hw: usize,
    },
    MaxPool {
        c: usize,
        hw: usize,
    },
    GlobalAvgPool {
        c: usize,
        hw: usize,
    },
    /// `Linear` with bias; one row per sample.
    Linear {
        fin: usize,
        fout: usize,
    },
    /// `MultiHeadAttention` over `tq` query and `tk` key/value positions.
    Attention {
        d: usize,
        heads: usize,
        tq: usize,
        tk: usize,
        rank: Option<usize>,
        causal: bool,
    },
    /// `FeedForward` (hidden `4·d`) over `t` positions.
    FeedForward {
        d: usize,
        t: usize,
        rank: Option<usize>,
    },
    LayerNorm {
        d: usize,
        t: usize,
    },
    /// Embedding lookup and its scatter-add backward over `t` positions.
    Embedding {
        vocab: usize,
        d: usize,
        t: usize,
    },
    /// Tied output projection `h·Eᵀ`; shares the embedding's parameters.
    Projection {
        vocab: usize,
        d: usize,
        t: usize,
    },
}

/// Which operand of `C = A·B` is stored transposed (`puffer_tensor::matmul`'s
/// `matmul`, `matmul_tn`, `matmul_nt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GemmKind {
    Nn,
    Tn,
    Nt,
}

/// One GEMM call: `C[m,n] = A[m,k]·B[k,n]` up to the stored transposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gemm {
    pub kind: GemmKind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Whether a factorized layer issued it.
    pub low_rank: bool,
}

impl Gemm {
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// One `im2col` (forward) and the matching `col2im` (backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lowering {
    pub c_in: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
    pub hw: usize,
}

fn out_hw(hw: usize, k: usize, stride: usize, pad: usize) -> usize {
    (hw + 2 * pad - k) / stride + 1
}

/// Forward + backward GEMMs of `y = x·Wᵀ` for `rows` input rows
/// (`Linear`, and `MatOp` dense or factorized).
fn matop_gemms(out: usize, inp: usize, rows: usize, rank: Option<usize>, into: &mut Vec<Gemm>) {
    use GemmKind::*;
    let g = |kind, m, k, n| Gemm { kind, m, k, n, low_rank: rank.is_some() };
    match rank {
        None => into.extend([g(Nt, rows, inp, out), g(Tn, out, rows, inp), g(Nn, rows, out, inp)]),
        Some(r) => into.extend([
            g(Nt, rows, inp, r),
            g(Nt, rows, r, out),
            g(Nt, rows, inp, r), // backward recomputes the hidden activation
            g(Tn, out, rows, r),
            g(Nn, rows, out, r),
            g(Tn, r, rows, inp),
            g(Nn, rows, r, inp),
        ]),
    }
}

/// Forward + backward GEMMs of one dense convolution.
fn conv_gemms(
    c_in: usize,
    c_out: usize,
    k: usize,
    cols: usize,
    low_rank: bool,
    into: &mut Vec<Gemm>,
) {
    use GemmKind::*;
    let patch = c_in * k * k;
    into.extend([
        Gemm { kind: Nn, m: c_out, k: patch, n: cols, low_rank },
        Gemm { kind: Nt, m: c_out, k: cols, n: patch, low_rank },
        Gemm { kind: Tn, m: patch, k: c_out, n: cols, low_rank },
    ]);
}

impl Op {
    /// Trainable scalars this call owns.
    pub fn params(&self) -> usize {
        let matop = |out: usize, inp: usize, rank: Option<usize>| match rank {
            None => out * inp,
            Some(r) => r * (out + inp),
        };
        match *self {
            Op::Conv { c_in, c_out, k, rank: None, .. } => c_out * c_in * k * k,
            Op::Conv { c_in, c_out, k, rank: Some(r), .. } => r * c_in * k * k + c_out * r,
            Op::BatchNorm { c, .. } => 2 * c,
            Op::Linear { fin, fout } => fin * fout + fout,
            Op::Attention { d, rank, .. } => 4 * matop(d, d, rank),
            Op::FeedForward { d, rank, .. } => {
                matop(4 * d, d, rank) + matop(d, 4 * d, rank) + 5 * d
            }
            Op::LayerNorm { d, .. } => 2 * d,
            Op::Embedding { vocab, d, .. } => vocab * d,
            Op::Relu { .. }
            | Op::MaxPool { .. }
            | Op::GlobalAvgPool { .. }
            | Op::Projection { .. } => 0,
        }
    }

    /// Every GEMM the call's forward and backward issue at `batch` samples.
    pub fn gemms(&self, batch: usize, into: &mut Vec<Gemm>) {
        match *self {
            Op::Conv { c_in, c_out, k, stride, pad, hw, rank } => {
                let o = out_hw(hw, k, stride, pad);
                let cols = batch * o * o;
                match rank {
                    None => conv_gemms(c_in, c_out, k, cols, false, into),
                    Some(r) => {
                        conv_gemms(c_in, r, k, cols, true, into);
                        conv_gemms(r, c_out, 1, cols, true, into);
                    }
                }
            }
            Op::Linear { fin, fout } => matop_gemms(fout, fin, batch, None, into),
            Op::Attention { d, tq, tk, rank, .. } => {
                matop_gemms(d, d, batch * tq, rank, into); // Wq
                matop_gemms(d, d, batch * tk, rank, into); // Wk
                matop_gemms(d, d, batch * tk, rank, into); // Wv
                matop_gemms(d, d, batch * tq, rank, into); // Wo
            }
            Op::FeedForward { d, t, rank } => {
                matop_gemms(4 * d, d, batch * t, rank, into);
                matop_gemms(d, 4 * d, batch * t, rank, into);
            }
            Op::Projection { vocab, d, t } => matop_gemms(vocab, d, batch * t, None, into),
            Op::BatchNorm { .. }
            | Op::Relu { .. }
            | Op::MaxPool { .. }
            | Op::GlobalAvgPool { .. }
            | Op::LayerNorm { .. }
            | Op::Embedding { .. } => {}
        }
    }

    /// The `im2col`/`col2im` pairs the call issues (a factorized conv lowers
    /// twice: the thin `k×k` conv and the `1×1` one).
    pub fn lowerings(&self, into: &mut Vec<Lowering>) {
        if let Op::Conv { c_in, k, stride, pad, hw, rank, .. } = *self {
            into.push(Lowering { c_in, k, stride, pad, hw });
            if let Some(r) = rank {
                into.push(Lowering {
                    c_in: r,
                    k: 1,
                    stride: 1,
                    pad: 0,
                    hw: out_hw(hw, k, stride, pad),
                });
            }
        }
    }
}

/// Total trainable scalars of a deck.
pub fn param_count(deck: &[Op]) -> usize {
    deck.iter().map(Op::params).sum()
}

/// `(rows, cols, rank)` of every truncated SVD the warm-up → hybrid switch
/// performs, given the same model's vanilla and hybrid decks.
pub fn svd_shapes(vanilla: &[Op], hybrid: &[Op]) -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for (v, h) in vanilla.iter().zip(hybrid) {
        match (*v, *h) {
            (Op::Conv { c_in, c_out, k, rank: None, .. }, Op::Conv { rank: Some(r), .. }) => {
                shapes.push((c_in * k * k, c_out, r)); // the unrolled weight
            }
            (Op::Attention { d, rank: None, .. }, Op::Attention { rank: Some(r), .. }) => {
                shapes.extend([(d, d, r); 4]);
            }
            (Op::FeedForward { d, rank: None, .. }, Op::FeedForward { rank: Some(r), .. }) => {
                shapes.extend([(4 * d, d, r), (d, 4 * d, r)]);
            }
            _ => {}
        }
    }
    shapes
}

/// conv → BN → optional ReLU, the motif of both CNN families. Returns the
/// output's spatial size.
#[allow(clippy::too_many_arguments)]
fn conv_bn(
    deck: &mut Vec<Op>,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    hw: usize,
    rank: Option<usize>,
    relu: bool,
) -> usize {
    let o = out_hw(hw, k, stride, pad);
    deck.push(Op::Conv { c_in, c_out, k, stride, pad, hw, rank });
    deck.push(Op::BatchNorm { c: c_out, hw: o });
    if relu {
        deck.push(Op::Relu { c: c_out, hw: o });
    }
    o
}

/// Rank a plan assigns to one conv of a covered block.
fn plan_rank(plan: &ResNetHybridPlan, c_in: usize, c_out: usize, k: usize) -> usize {
    let base = match plan.rank_rule {
        RankRule::OutChannels => c_out,
        RankRule::MinChannels => c_in.min(c_out),
    };
    rank_for(base, plan.rank_ratio, (c_in * k * k).min(c_out))
}

/// Walks a ResNet (vanilla when `plan` is `None`) on `hw × hw` inputs.
pub fn resnet(cfg: &ResNetConfig, plan: Option<&ResNetHybridPlan>, hw: usize) -> Vec<Op> {
    let mut deck = Vec::new();
    let mut hw = conv_bn(&mut deck, 3, cfg.base_width, 3, 1, 1, hw, None, true);
    let expansion = match cfg.kind {
        BlockKind::Basic => 1,
        BlockKind::Bottleneck => 4,
    };
    let mut c_in = cfg.base_width;
    for (stage, &nblocks) in cfg.stage_blocks.iter().enumerate() {
        let base = cfg.base_width << stage;
        let c_out = base * expansion;
        for block in 0..nblocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let covered = plan.filter(|p| {
                stage > p.start_stage || (stage == p.start_stage && block >= p.start_block)
            });
            let rank = |ci, co, k| covered.map(|p| plan_rank(p, ci, co, k));
            let in_hw = hw;
            hw = match cfg.kind {
                BlockKind::Basic => {
                    let h = conv_bn(
                        &mut deck,
                        c_in,
                        c_out,
                        3,
                        stride,
                        1,
                        in_hw,
                        rank(c_in, c_out, 3),
                        true,
                    );
                    conv_bn(&mut deck, c_out, c_out, 3, 1, 1, h, rank(c_out, c_out, 3), false)
                }
                BlockKind::Bottleneck => {
                    let inner = base * cfg.width_factor;
                    let h =
                        conv_bn(&mut deck, c_in, inner, 1, 1, 0, in_hw, rank(c_in, inner, 1), true);
                    let h = conv_bn(
                        &mut deck,
                        inner,
                        inner,
                        3,
                        stride,
                        1,
                        h,
                        rank(inner, inner, 3),
                        true,
                    );
                    conv_bn(&mut deck, inner, c_out, 1, 1, 0, h, rank(inner, c_out, 1), false)
                }
            };
            if stride != 1 || c_in != c_out {
                let r =
                    covered.filter(|p| p.factorize_shortcut).map(|p| plan_rank(p, c_in, c_out, 1));
                conv_bn(&mut deck, c_in, c_out, 1, stride, 0, in_hw, r, false);
            }
            deck.push(Op::Relu { c: c_out, hw }); // after the residual add
            c_in = c_out;
        }
    }
    deck.push(Op::GlobalAvgPool { c: c_in, hw });
    deck.push(Op::Linear { fin: c_in, fout: cfg.classes });
    deck
}

/// Walks a vanilla VGG.
pub fn vgg(cfg: &VggConfig) -> Vec<Op> {
    let mut deck = Vec::new();
    let mut hw = cfg.input_size;
    let mut c_in = 3;
    for stage in &cfg.stages {
        for &c_out in stage {
            conv_bn(&mut deck, c_in, c_out, 3, 1, 1, hw, None, true);
            c_in = c_out;
        }
        deck.push(Op::MaxPool { c: c_in, hw });
        hw /= 2;
    }
    let mut feat = c_in * hw * hw;
    for &h in &cfg.fc_hidden {
        deck.push(Op::Linear { fin: feat, fout: h });
        deck.push(Op::Relu { c: h, hw: 1 });
        feat = h;
    }
    deck.push(Op::Linear { fin: feat, fout: cfg.classes });
    deck
}

/// Walks the encoder–decoder Transformer for source length `ts` and decoder
/// input length `tt`; `cfg.rank` decides vanilla or hybrid (layer 0 of each
/// stack stays full-rank).
pub fn transformer(cfg: &TransformerConfig, ts: usize, tt: usize) -> Vec<Op> {
    let (d, heads) = (cfg.d_model, cfg.heads);
    let rank_of = |layer: usize| cfg.rank.filter(|_| layer >= 1);
    // One shared table serves both lookups; count its parameters once.
    let mut deck = vec![Op::Embedding { vocab: cfg.vocab, d, t: ts + tt }];
    for l in 0..cfg.enc_layers {
        let rank = rank_of(l);
        deck.extend([
            Op::Attention { d, heads, tq: ts, tk: ts, rank, causal: false },
            Op::LayerNorm { d, t: ts },
            Op::FeedForward { d, t: ts, rank },
            Op::LayerNorm { d, t: ts },
        ]);
    }
    for l in 0..cfg.dec_layers {
        let rank = rank_of(l);
        deck.extend([
            Op::Attention { d, heads, tq: tt, tk: tt, rank, causal: true },
            Op::LayerNorm { d, t: tt },
            Op::Attention { d, heads, tq: tt, tk: ts, rank, causal: false },
            Op::LayerNorm { d, t: tt },
            Op::FeedForward { d, t: tt, rank },
            Op::LayerNorm { d, t: tt },
        ]);
    }
    deck.push(Op::Projection { vocab: cfg.vocab, d, t: tt });
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DataParallel, DpKind, ResnetAlg1, Size, TransformerAlg1};
    use puffer_models::units::FactorInit;
    use puffer_nn::layer::Layer;

    #[test]
    fn deck_parameter_counts_match_the_four_workload_models() {
        // resnet18_alg1: vanilla, then the hybrid the switch produces.
        let r = ResnetAlg1::new(3, Size::Warmup);
        let vanilla = r.vanilla();
        assert_eq!(param_count(&resnet(&r.model_config(), None, 32)), vanilla.param_count());
        let hybrid = vanilla.to_hybrid(&r.plan(), FactorInit::WarmStart).unwrap();
        assert_eq!(
            param_count(&resnet(&r.model_config(), Some(&r.plan()), 32)),
            hybrid.param_count()
        );
        assert!(hybrid.param_count() < vanilla.param_count());

        // transformer_alg1: vanilla and rank-8 hybrid.
        let t = TransformerAlg1::new(3, Size::Warmup);
        let vanilla = t.vanilla();
        assert_eq!(param_count(&transformer(&t.model_config(), 9, 11)), vanilla.param_count());
        let hybrid = vanilla.to_hybrid(t.cfg.rank, true).unwrap();
        assert_eq!(param_count(&transformer(hybrid.config(), 9, 11)), hybrid.param_count());

        // dp2_vgg19_powersgd: vanilla VGG-19.
        let p = DataParallel::new(DpKind::VggPowerSgd, 3, Size::Warmup);
        assert_eq!(param_count(&vgg(&p.vgg_config())), p.replica().param_count());

        // dp2_resnet18_hybrid_bucketed: randomly initialized hybrid.
        let b = DataParallel::new(DpKind::ResnetHybridBucketed, 3, Size::Warmup);
        let plan = ResNetHybridPlan::resnet18_paper();
        assert_eq!(
            param_count(&resnet(&b.resnet_config(), Some(&plan), 32)),
            b.replica().param_count()
        );
    }

    #[test]
    fn bottleneck_walk_matches_resnet50_with_factorized_shortcuts() {
        let cfg = ResNetConfig::resnet50(0.125, 10, 1);
        let plan = ResNetHybridPlan::resnet50_paper();
        let model = puffer_models::resnet::ResNet::new(cfg.clone()).unwrap();
        assert_eq!(param_count(&resnet(&cfg, None, 32)), model.param_count());
        let hybrid = model.to_hybrid(&plan, FactorInit::Random(1)).unwrap();
        assert_eq!(param_count(&resnet(&cfg, Some(&plan), 32)), hybrid.param_count());
    }

    #[test]
    fn conv_gemm_shapes_and_flops() {
        let op = Op::Conv { c_in: 16, c_out: 32, k: 3, stride: 2, pad: 1, hw: 32, rank: None };
        let mut g = Vec::new();
        op.gemms(4, &mut g);
        let cols = 4 * 16 * 16;
        assert_eq!(g[0], Gemm { kind: GemmKind::Nn, m: 32, k: 144, n: cols, low_rank: false });
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|x| x.flops() == 2.0 * 32.0 * 144.0 * cols as f64));

        let lr = Op::Conv { c_in: 16, c_out: 32, k: 3, stride: 2, pad: 1, hw: 32, rank: Some(8) };
        let mut g = Vec::new();
        lr.gemms(4, &mut g);
        assert_eq!(g.len(), 6);
        assert!(g.iter().all(|x| x.low_rank));
        let mut l = Vec::new();
        lr.lowerings(&mut l);
        assert_eq!(l[1], Lowering { c_in: 8, k: 1, stride: 1, pad: 0, hw: 16 });
    }

    #[test]
    fn svd_shapes_cover_exactly_the_factorized_layers() {
        let cfg = ResNetConfig::resnet18(0.25, 10, 1);
        let plan = ResNetHybridPlan::resnet18_paper();
        let shapes = svd_shapes(&resnet(&cfg, None, 32), &resnet(&cfg, Some(&plan), 32));
        // 8 blocks × 2 convs, minus the first block, shortcuts untouched.
        assert_eq!(shapes.len(), 14);
        assert_eq!(shapes[0], (16 * 9, 16, 4));

        let mut t = TransformerConfig::small(64, 1);
        let vanilla = transformer(&t, 8, 8);
        t.rank = Some(8);
        let shapes = svd_shapes(&vanilla, &transformer(&t, 8, 8));
        // Layer 1 of each stack: encoder 4 + 2, decoder 4 + 4 + 2.
        assert_eq!(shapes.len(), 16);
    }
}
