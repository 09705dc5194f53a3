//! Runnable ResNet models (basic-block ResNet-18 style and bottleneck
//! ResNet-50 style, including the 2× wide variant) with Pufferfish hybrid
//! conversion.
//!
//! Full-scale parameter ledgers live in [`crate::spec`]; the runnable
//! models use a width multiplier for CPU-scale training while preserving
//! the architecture's shape and the paper's hybrid plans:
//!
//! * ResNet-18 (appendix Table 13): factorize everything from the 2nd block
//!   of stage 1, rank `c_out/4`, shortcuts untouched;
//! * ResNet-50 / WideResNet-50-2 (Tables 14–15): factorize only the last
//!   stage (`conv5_x`), rank `min(c_in, c_out)/4`, downsample included.

use crate::units::{rank_for, ConvBnUnit, FactorInit, FusedRelu};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::param::Param;
use puffer_nn::pool::GlobalAvgPool;
use puffer_nn::Result;
use puffer_tensor::Tensor;

/// Residual block family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Two 3×3 convs (ResNet-18/34).
    Basic,
    /// 1×1 → 3×3 → 1×1 with 4× expansion (ResNet-50+).
    Bottleneck,
}

/// How the factorization rank is derived from a conv's channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankRule {
    /// `rank = ratio × c_out` (the paper's ResNet-18 rule).
    OutChannels,
    /// `rank = ratio × min(c_in, c_out)` (the ResNet-50 rule).
    MinChannels,
}

impl RankRule {
    fn rank(self, c_in: usize, c_out: usize, k: usize, ratio: f32) -> usize {
        let base = match self {
            RankRule::OutChannels => c_out,
            RankRule::MinChannels => c_in.min(c_out),
        };
        rank_for(base, ratio, (c_in * k * k).min(c_out))
    }
}

/// Which blocks a hybrid conversion factorizes and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResNetHybridPlan {
    /// First factorized stage (0-based).
    pub start_stage: usize,
    /// First factorized block within that stage (0-based); later stages are
    /// factorized entirely.
    pub start_block: usize,
    /// Global rank ratio (paper: 0.25).
    pub rank_ratio: f32,
    /// Whether projection shortcuts are factorized too.
    pub factorize_shortcut: bool,
    /// Rank derivation rule.
    pub rank_rule: RankRule,
}

impl ResNetHybridPlan {
    /// The paper's ResNet-18 plan (Table 13).
    pub fn resnet18_paper() -> Self {
        ResNetHybridPlan {
            start_stage: 0,
            start_block: 1,
            rank_ratio: 0.25,
            factorize_shortcut: false,
            rank_rule: RankRule::OutChannels,
        }
    }

    /// The paper's ResNet-50 / WideResNet-50-2 plan (Tables 14–15).
    pub fn resnet50_paper() -> Self {
        ResNetHybridPlan {
            start_stage: 3,
            start_block: 0,
            rank_ratio: 0.25,
            factorize_shortcut: true,
            rank_rule: RankRule::MinChannels,
        }
    }

    /// A fully-low-rank plan (Figure 2's from-scratch baseline).
    pub fn all_layers(rank_ratio: f32) -> Self {
        ResNetHybridPlan {
            start_stage: 0,
            start_block: 0,
            rank_ratio,
            factorize_shortcut: false,
            rank_rule: RankRule::OutChannels,
        }
    }

    fn covers(&self, stage: usize, block: usize) -> bool {
        stage > self.start_stage || (stage == self.start_stage && block >= self.start_block)
    }
}

/// Configuration of a runnable ResNet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Block family.
    pub kind: BlockKind,
    /// Blocks per stage (ResNet-18: `[2,2,2,2]`; ResNet-50: `[3,4,6,3]`).
    pub stage_blocks: Vec<usize>,
    /// Stem width; stage widths are `base × [1, 2, 4, 8]`.
    pub base_width: usize,
    /// Bottleneck inner-width multiplier (2 = WideResNet-50-2).
    pub width_factor: usize,
    /// Number of classes.
    pub classes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ResNetConfig {
    /// Width-scaled ResNet-18 for 32×32 inputs (`scale = 1.0` is the paper's
    /// CIFAR model).
    pub fn resnet18(scale: f32, classes: usize, seed: u64) -> Self {
        ResNetConfig {
            kind: BlockKind::Basic,
            stage_blocks: vec![2, 2, 2, 2],
            base_width: ((64.0 * scale).round() as usize).max(4),
            width_factor: 1,
            classes,
            seed,
        }
    }

    /// Width-scaled bottleneck ResNet-50 for 32×32 inputs.
    pub fn resnet50(scale: f32, classes: usize, seed: u64) -> Self {
        ResNetConfig {
            kind: BlockKind::Bottleneck,
            stage_blocks: vec![3, 4, 6, 3],
            base_width: ((64.0 * scale).round() as usize).max(4),
            width_factor: 1,
            classes,
            seed,
        }
    }

    /// Width-scaled WideResNet-50-2.
    pub fn wide_resnet50_2(scale: f32, classes: usize, seed: u64) -> Self {
        let mut c = Self::resnet50(scale, classes, seed);
        c.width_factor = 2;
        c
    }
}

/// A residual block of either family.
#[derive(Debug)]
pub struct ResBlock {
    units: Vec<ConvBnUnit>, // 2 (basic) or 3 (bottleneck); last has relu=false
    shortcut: Option<ConvBnUnit>,
    relu: FusedRelu,
}

impl ResBlock {
    fn basic(c_in: usize, c_out: usize, stride: usize, seed: u64) -> Result<Self> {
        let unit1 = ConvBnUnit::dense(c_in, c_out, 3, stride, 1, true, seed)?;
        let unit2 = ConvBnUnit::dense(c_out, c_out, 3, 1, 1, false, seed.wrapping_add(1))?;
        let shortcut = if stride != 1 || c_in != c_out {
            Some(ConvBnUnit::dense(c_in, c_out, 1, stride, 0, false, seed.wrapping_add(2))?)
        } else {
            None
        };
        Ok(ResBlock { units: vec![unit1, unit2], shortcut, relu: FusedRelu::default() })
    }

    fn bottleneck(
        c_in: usize,
        inner: usize,
        c_out: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self> {
        let unit1 = ConvBnUnit::dense(c_in, inner, 1, 1, 0, true, seed)?;
        let unit2 = ConvBnUnit::dense(inner, inner, 3, stride, 1, true, seed.wrapping_add(1))?;
        let unit3 = ConvBnUnit::dense(inner, c_out, 1, 1, 0, false, seed.wrapping_add(2))?;
        let shortcut = if stride != 1 || c_in != c_out {
            Some(ConvBnUnit::dense(c_in, c_out, 1, stride, 0, false, seed.wrapping_add(3))?)
        } else {
            None
        };
        Ok(ResBlock { units: vec![unit1, unit2, unit3], shortcut, relu: FusedRelu::default() })
    }

    fn to_low_rank(&self, plan: &ResNetHybridPlan, init: FactorInit) -> Result<Self> {
        let mut units = Vec::with_capacity(self.units.len());
        for u in &self.units {
            let (c_in, c_out, k, _, _) = u.conv.geometry();
            let rank = plan.rank_rule.rank(c_in, c_out, k, plan.rank_ratio);
            units.push(u.to_low_rank(rank, init)?);
        }
        let shortcut = match &self.shortcut {
            None => None,
            Some(s) if plan.factorize_shortcut => {
                let (c_in, c_out, k, _, _) = s.conv.geometry();
                let rank = plan.rank_rule.rank(c_in, c_out, k, plan.rank_ratio);
                Some(s.to_low_rank(rank, init)?)
            }
            Some(s) => Some(s.clone_dense()?),
        };
        Ok(ResBlock { units, shortcut, relu: FusedRelu::default() })
    }

    fn clone_dense(&self) -> Result<Self> {
        let units = self.units.iter().map(|u| u.clone_dense()).collect::<Result<Vec<_>>>()?;
        let shortcut = self.shortcut.as_ref().map(|s| s.clone_dense()).transpose()?;
        Ok(ResBlock { units, shortcut, relu: FusedRelu::default() })
    }

    /// Whether any conv in the block is factorized.
    pub fn is_low_rank(&self) -> bool {
        self.units.iter().any(|u| u.conv.is_low_rank())
            || self.shortcut.as_ref().is_some_and(|s| s.conv.is_low_rank())
    }
}

impl Layer for ResBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (first, rest) = self.units.split_first_mut().expect("a block has units");
        let mut main = first.forward(input, mode);
        for u in rest {
            main = u.forward(&main, mode);
        }
        // The main path's output is owned and dead after the add: the sum
        // goes into it (`a += b` and `a + b` are the same bits).
        match &mut self.shortcut {
            Some(s) => main += &s.forward(input, mode),
            None => main += input,
        }
        self.relu.forward(&mut main, mode);
        main
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        // Main path.
        let (last, rest) = self.units.split_last_mut().expect("a block has units");
        let mut gm = last.backward(&g);
        for u in rest.iter_mut().rev() {
            gm = u.backward(&gm);
        }
        // Residual path, added into the main path's gradient.
        match &mut self.shortcut {
            Some(s) => gm += &s.backward(&g),
            None => gm += &g,
        }
        gm
    }

    fn params(&self) -> Vec<&Param> {
        let mut v: Vec<&Param> = self.units.iter().flat_map(|u| u.params()).collect();
        if let Some(s) = &self.shortcut {
            v.extend(s.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = self.units.iter_mut().flat_map(|u| u.params_mut()).collect();
        if let Some(s) = &mut self.shortcut {
            v.extend(s.params_mut());
        }
        v
    }

    fn describe(&self) -> String {
        format!(
            "ResBlock[{}]",
            self.units.iter().map(|u| u.describe()).collect::<Vec<_>>().join(", ")
        )
    }

    fn buffers(&self) -> Vec<Tensor> {
        let mut v: Vec<Tensor> = self.units.iter().flat_map(|u| u.buffers()).collect();
        if let Some(s) = &self.shortcut {
            v.extend(s.buffers());
        }
        v
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        let mut off = 0;
        for u in &mut self.units {
            let n = u.buffers().len();
            u.load_buffers(&buffers[off..off + n]);
            off += n;
        }
        if let Some(s) = &mut self.shortcut {
            let n = s.buffers().len();
            s.load_buffers(&buffers[off..off + n]);
            off += n;
        }
        assert_eq!(off, buffers.len(), "buffer count mismatch");
    }
}

/// A runnable ResNet.
pub struct ResNet {
    config: ResNetConfig,
    stem: ConvBnUnit,
    stages: Vec<Vec<ResBlock>>,
    gap: GlobalAvgPool,
    fc: Linear,
}

impl ResNet {
    /// Builds the vanilla (full-rank) network with a 3×3 CIFAR stem.
    ///
    /// # Errors
    ///
    /// Propagates layer construction errors.
    pub fn new(config: ResNetConfig) -> Result<Self> {
        let mut seed = config.seed;
        let stem = ConvBnUnit::dense(3, config.base_width, 3, 1, 1, true, seed)?;
        seed = seed.wrapping_add(10);
        let expansion = match config.kind {
            BlockKind::Basic => 1,
            BlockKind::Bottleneck => 4,
        };
        let mut stages = Vec::new();
        let mut c_in = config.base_width;
        for (stage, &nblocks) in config.stage_blocks.iter().enumerate() {
            let base = config.base_width << stage;
            let c_out = base * expansion;
            let mut blocks = Vec::new();
            for b in 0..nblocks {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                let block = match config.kind {
                    BlockKind::Basic => ResBlock::basic(c_in, c_out, stride, seed)?,
                    BlockKind::Bottleneck => {
                        ResBlock::bottleneck(c_in, base * config.width_factor, c_out, stride, seed)?
                    }
                };
                seed = seed.wrapping_add(10);
                blocks.push(block);
                c_in = c_out;
            }
            stages.push(blocks);
        }
        let fc = Linear::new(c_in, config.classes, true, seed)?;
        Ok(ResNet { config, stem, stages, gap: GlobalAvgPool::new(), fc })
    }

    /// The configuration.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Converts to a Pufferfish hybrid following `plan`.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn to_hybrid(&self, plan: &ResNetHybridPlan, init: FactorInit) -> Result<Self> {
        let stem = self.stem.clone_dense()?;
        let mut stages = Vec::new();
        for (si, stage) in self.stages.iter().enumerate() {
            let mut blocks = Vec::new();
            for (bi, block) in stage.iter().enumerate() {
                if plan.covers(si, bi) {
                    blocks.push(block.to_low_rank(plan, init)?);
                } else {
                    blocks.push(block.clone_dense()?);
                }
            }
            stages.push(blocks);
        }
        let fc = Linear::from_weights(self.fc.weight(), self.fc.bias().cloned())?;
        Ok(ResNet { config: self.config.clone(), stem, stages, gap: GlobalAvgPool::new(), fc })
    }

    /// Number of factorized blocks.
    pub fn low_rank_block_count(&self) -> usize {
        self.stages.iter().flatten().filter(|b| b.is_low_rank()).count()
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }
}

impl Layer for ResNet {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = self.stem.forward(input, mode);
        for stage in &mut self.stages {
            for block in stage {
                x = block.forward(&x, mode);
            }
        }
        let pooled = self.gap.forward(&x, mode);
        self.fc.forward(&pooled, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_with_ready(grad_output, &mut |_| {})
    }

    fn backward_with_ready(
        &mut self,
        grad_output: &Tensor,
        on_ready: &mut dyn FnMut(usize),
    ) -> Tensor {
        // Parameters are ordered stem, blocks, fc and backward runs them in
        // reverse: once a child returns, every tensor from its first one on
        // holds its final gradient.
        let mut first = self.params().len() - self.fc.params().len();
        let g = self.fc.backward(grad_output);
        on_ready(first);
        let mut g = self.gap.backward(&g);
        for block in self.stages.iter_mut().flatten().rev() {
            g = block.backward(&g);
            first -= block.params().len();
            on_ready(first);
        }
        let g = self.stem.backward(&g);
        on_ready(0);
        g
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.stem.params();
        v.extend(self.stages.iter().flatten().flat_map(|b| b.params()));
        v.extend(self.fc.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.stem.params_mut();
        v.extend(self.stages.iter_mut().flatten().flat_map(|b| b.params_mut()));
        v.extend(self.fc.params_mut());
        v
    }

    fn describe(&self) -> String {
        format!(
            "ResNet({:?}, blocks={:?}, base={}, {} low-rank blocks)",
            self.config.kind,
            self.config.stage_blocks,
            self.config.base_width,
            self.low_rank_block_count()
        )
    }

    fn buffers(&self) -> Vec<Tensor> {
        let mut v = self.stem.buffers();
        v.extend(self.stages.iter().flatten().flat_map(|b| b.buffers()));
        v
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        let mut off = self.stem.buffers().len();
        self.stem.load_buffers(&buffers[..off]);
        for block in self.stages.iter_mut().flatten() {
            let n = block.buffers().len();
            block.load_buffers(&buffers[off..off + n]);
            off += n;
        }
        assert_eq!(off, buffers.len(), "buffer count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::stats::rel_error;

    fn tiny_resnet18() -> ResNet {
        ResNet::new(ResNetConfig::resnet18(0.125, 4, 1)).unwrap() // base 8
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_resnet18();
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, 2);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 4]);
        let g = net.backward(&Tensor::ones(&[2, 4]));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn backward_announces_readiness_block_by_block() {
        // fc, then the eight blocks last to first, then the stem — for the
        // vanilla network and for the paper's hybrid, whose blocks hold
        // three tensors per factorized conv instead of one.
        let vanilla = tiny_resnet18();
        let hybrid =
            vanilla.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(3)).unwrap();
        for mut net in [vanilla, hybrid] {
            let mut children = vec![net.stem.params().len()];
            children.extend(net.stages.iter().flatten().map(|b| b.params().len()));
            children.push(net.fc.params().len());
            assert_eq!(children.len(), 10);
            let x = Tensor::randn(&[2, 3, 16, 16], 1.0, 2);
            crate::units::tests::assert_announces_children_in_reverse(&mut net, &children, &x);
        }
    }

    #[test]
    fn paper_resnet18_plan_factorizes_seven_blocks() {
        let net = tiny_resnet18();
        assert_eq!(net.block_count(), 8);
        let h = net.to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(3)).unwrap();
        assert_eq!(h.low_rank_block_count(), 7); // all but stage0 block0
        assert!(h.param_count() < net.param_count());
    }

    #[test]
    fn resnet50_plan_touches_only_last_stage() {
        let net = ResNet::new(ResNetConfig::resnet50(0.0625, 4, 5)).unwrap();
        let h = net.to_hybrid(&ResNetHybridPlan::resnet50_paper(), FactorInit::Random(7)).unwrap();
        assert_eq!(h.low_rank_block_count(), 3); // conv5_x only
        assert!(h.param_count() < net.param_count());
    }

    #[test]
    fn wide_variant_is_wider() {
        let narrow = ResNet::new(ResNetConfig::resnet50(0.0625, 4, 5)).unwrap();
        let wide = ResNet::new(ResNetConfig::wide_resnet50_2(0.0625, 4, 5)).unwrap();
        assert!(wide.param_count() > narrow.param_count());
    }

    #[test]
    fn residual_identity_gradient_flows() {
        // With an identity shortcut, input gradient includes the residual
        // term: zeroing the main path's contribution still leaves gradient.
        let mut block = ResBlock::basic(4, 4, 1, 9).unwrap();
        let x = Tensor::randn(&[1, 4, 6, 6], 1.0, 10);
        let _ = block.forward(&x, Mode::Train);
        let g = block.backward(&Tensor::ones(&[1, 4, 6, 6]));
        assert!(puffer_tensor::stats::l2_norm(&g) > 0.1);
    }

    #[test]
    fn res_block_equals_its_layers_run_one_by_one_bitwise() {
        // main = unit₂(unit₁(x)), y = relu(main + shortcut(x)) and its
        // backward, spelled out with `nn::Relu` and explicit sums, against
        // the block's fused mask and borrowed operands — identity and
        // projection shortcuts, over two steps (the second reuses the mask
        // buffer).
        use crate::units::tests::{bits, grad_bits};
        use puffer_nn::activation::Relu;
        for (c_in, c_out, stride) in [(4, 4, 1), (4, 6, 2)] {
            let mut block = ResBlock::basic(c_in, c_out, stride, 13).unwrap();
            let mut twin = block.clone_dense().unwrap();
            let mut relu = Relu::new();
            for step in 0..2 {
                let x = Tensor::randn(&[3, c_in, 6, 6], 1.0, 14 + step);
                block.zero_grad();
                twin.zero_grad();
                let y = block.forward(&x, Mode::Train);
                let mut main = x.clone();
                for u in &mut twin.units {
                    main = u.forward(&main, Mode::Train);
                }
                let residual = match &mut twin.shortcut {
                    Some(s) => s.forward(&x, Mode::Train),
                    None => x.clone(),
                };
                let want_y = relu.forward(&(&main + &residual), Mode::Train);
                assert_eq!(bits(&y), bits(&want_y), "forward, stride {stride}");

                let g = Tensor::randn(y.shape(), 1.0, 24 + step);
                let dx = block.backward(&g);
                let g = relu.backward(&g);
                let mut gm = g.clone();
                for u in twin.units.iter_mut().rev() {
                    gm = u.backward(&gm);
                }
                let gr = match &mut twin.shortcut {
                    Some(s) => s.backward(&g),
                    None => g,
                };
                assert_eq!(bits(&dx), bits(&(&gm + &gr)), "input gradient, stride {stride}");
                assert_eq!(grad_bits(&block), grad_bits(&twin), "parameter gradients");
            }
        }
    }

    #[test]
    fn warm_start_hybrid_close_to_parent() {
        let mut net = tiny_resnet18();
        for s in 0..3 {
            let xb = Tensor::randn(&[4, 3, 16, 16], 1.0, s);
            let _ = net.forward(&xb, Mode::Train);
        }
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, 20);
        let y = net.forward(&x, Mode::Eval);
        let mut plan = ResNetHybridPlan::resnet18_paper();
        plan.rank_ratio = 0.95;
        let mut warm = net.to_hybrid(&plan, FactorInit::WarmStart).unwrap();
        let mut cold = net.to_hybrid(&plan, FactorInit::Random(30)).unwrap();
        let ew = rel_error(&y, &warm.forward(&x, Mode::Eval));
        let ec = rel_error(&y, &cold.forward(&x, Mode::Eval));
        assert!(ew < ec, "warm {ew} vs cold {ec}");
    }

    #[test]
    fn gradcheck_small_block() {
        let mut block = ResBlock::basic(2, 3, 2, 11).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 0.7, 12);
        let dev = puffer_nn::layer::finite_diff_input_check(&mut block, &x, 1e-2);
        assert!(dev < 5e-2, "block grad deviation {dev}");
    }

    #[test]
    fn plan_coverage_logic() {
        let plan = ResNetHybridPlan::resnet18_paper();
        assert!(!plan.covers(0, 0));
        assert!(plan.covers(0, 1));
        assert!(plan.covers(2, 0));
        let plan = ResNetHybridPlan::resnet50_paper();
        assert!(!plan.covers(2, 5));
        assert!(plan.covers(3, 0));
    }
}
