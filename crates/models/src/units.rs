//! Shared building units for the CNN model zoo: conv/BN/ReLU units that are
//! either dense or factorized, plus the SVD warm-start surgery that converts
//! a trained dense unit into its low-rank twin (paper §3, Algorithm 1).

use puffer_nn::conv::{Conv2d, LowRankConv2d};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::norm::BatchNorm2d;
use puffer_nn::param::Param;
use puffer_nn::Result;
use puffer_tensor::svd::truncated_svd_seeded;
use puffer_tensor::{workspace, Tensor};

/// How a factorized layer is initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorInit {
    /// Truncated SVD of the current dense weight
    /// (`U = Ũ Σ^½`, `Vᵀ = Σ^½ Ṽᵀ`) — Pufferfish's vanilla warm-up.
    WarmStart,
    /// Fresh random factors — the "train low-rank from scratch" baseline.
    Random(u64),
}

/// Pufferfish's warm start (§3): the truncated SVD `W ≈ ŨΣṼᵀ` of a dense
/// weight at `rank`, split as `U = ŨΣ^½` and `Vᵀ = Σ^½Ṽᵀ`. Every
/// factorization in the model zoo starts here; `seed` picks the randomized
/// SVD's sketch.
pub(crate) fn warm_start_factors(w: &Tensor, rank: usize, seed: u64) -> Result<(Tensor, Tensor)> {
    Ok(truncated_svd_seeded(w, rank, seed)?.split_balanced())
}

/// Factorizes a dense convolution into a [`LowRankConv2d`] at `rank`.
///
/// # Errors
///
/// Propagates construction errors (rank out of range).
pub fn factorize_conv(conv: &Conv2d, rank: usize, init: FactorInit) -> Result<LowRankConv2d> {
    let (c_in, c_out, k, stride, padding) = conv.geometry();
    match init {
        FactorInit::Random(seed) => LowRankConv2d::new(c_in, c_out, k, stride, padding, rank, seed),
        FactorInit::WarmStart => {
            // u: (c_in k², r), vt: (r, c_out) of the unrolled (c_in k², c_out) weight
            let (u, vt) = warm_start_factors(&conv.unrolled_weight(), rank, 0x5EED)?;
            let u4 = u.transpose().reshape(&[rank, c_in, k, k]).expect("factor element count");
            LowRankConv2d::from_factors(u4, vt.transpose(), stride, padding)
        }
    }
}

/// Factorizes an FC layer at `rank`, carrying the bias over unchanged.
///
/// # Errors
///
/// Propagates construction errors (rank out of range).
pub fn factorize_linear(layer: &Linear, rank: usize, init: FactorInit) -> Result<Linear> {
    match init {
        FactorInit::Random(seed) => {
            let (fin, fout) = (layer.in_features(), layer.out_features());
            let mut lr = Linear::low_rank(fin, fout, rank, layer.bias().is_some(), seed)?;
            // Random factors, but keep the (possibly trained) bias.
            if let (Some(b), Some(p)) = (layer.bias(), lr.params_mut().pop()) {
                p.value = b.clone();
            }
            Ok(lr)
        }
        FactorInit::WarmStart => {
            let (u, vt) = warm_start_factors(&layer.weight(), rank, 0x5EED)?;
            Linear::from_factors(u, vt, layer.bias().cloned())
        }
    }
}

/// A convolution that is either dense or factorized.
///
/// The variants intentionally differ in size: ConvKind values live inside
/// long-lived model structs, so boxing the larger one would only add an
/// indirection on the hot forward path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ConvKind {
    /// Full-rank convolution.
    Dense(Conv2d),
    /// Pufferfish-factorized convolution.
    LowRank(LowRankConv2d),
}

impl ConvKind {
    /// `(c_in, c_out, k, stride, padding)`.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        match self {
            ConvKind::Dense(c) => c.geometry(),
            ConvKind::LowRank(c) => c.geometry(),
        }
    }

    /// Whether this conv is factorized.
    pub fn is_low_rank(&self) -> bool {
        matches!(self, ConvKind::LowRank(_))
    }
}

impl Layer for ConvKind {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match self {
            ConvKind::Dense(c) => c.forward(input, mode),
            ConvKind::LowRank(c) => c.forward(input, mode),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self {
            ConvKind::Dense(c) => c.backward(grad_output),
            ConvKind::LowRank(c) => c.backward(grad_output),
        }
    }

    fn params(&self) -> Vec<&Param> {
        match self {
            ConvKind::Dense(c) => c.params(),
            ConvKind::LowRank(c) => c.params(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            ConvKind::Dense(c) => c.params_mut(),
            ConvKind::LowRank(c) => c.params_mut(),
        }
    }

    fn describe(&self) -> String {
        match self {
            ConvKind::Dense(c) => c.describe(),
            ConvKind::LowRank(c) => c.describe(),
        }
    }
}

/// A ReLU fused into the unit that owns it. All it keeps of a train-mode
/// forward is where the input was positive, in a buffer it reuses step after
/// step (a cached output tensor would hold four times as much).
#[derive(Debug, Default)]
pub(crate) struct FusedRelu {
    positive: Vec<bool>,
}

impl FusedRelu {
    /// `y ← max(y, 0)`; in train mode, records where `y > 0`.
    pub(crate) fn forward(&mut self, y: &mut Tensor, mode: Mode) {
        if mode != Mode::Train {
            y.map_inplace(|v| v.max(0.0));
            return;
        }
        self.positive.clear();
        self.positive.extend(y.as_mut_slice().iter_mut().map(|v| {
            let positive = *v > 0.0;
            *v = v.max(0.0);
            positive
        }));
    }

    /// `g` where the recorded forward was positive, `+0.0` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if no train-mode forward of `g`'s size was recorded.
    pub(crate) fn backward(&self, g: &Tensor) -> Tensor {
        assert_eq!(self.positive.len(), g.len(), "backward before train-mode forward");
        let mut data = workspace::take_with_capacity(g.len());
        let masked = g.as_slice().iter().zip(&self.positive);
        data.extend(masked.map(|(&g, &positive)| if positive { g } else { 0.0 }));
        Tensor::from_vec(data, g.shape()).expect("one element per element of g")
    }
}

/// A conv → BN → optional ReLU unit, the repeated motif of VGG and ResNet.
#[derive(Debug)]
pub struct ConvBnUnit {
    /// The convolution (dense or factorized).
    pub conv: ConvKind,
    /// The batch normalization following it.
    pub bn: BatchNorm2d,
    /// Whether a ReLU follows BN (residual blocks apply ReLU after the add).
    pub relu: bool,
    fused_relu: FusedRelu,
}

impl ConvBnUnit {
    /// Creates a dense unit.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors from the conv or BN.
    pub fn dense(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        padding: usize,
        relu: bool,
        seed: u64,
    ) -> Result<Self> {
        Ok(ConvBnUnit {
            conv: ConvKind::Dense(Conv2d::new(c_in, c_out, k, stride, padding, false, seed)?),
            bn: BatchNorm2d::new(c_out)?,
            relu,
            fused_relu: FusedRelu::default(),
        })
    }

    /// Creates a unit from explicit parts.
    pub fn from_parts(conv: ConvKind, bn: BatchNorm2d, relu: bool) -> Self {
        ConvBnUnit { conv, bn, relu, fused_relu: FusedRelu::default() }
    }

    /// Deep-copies a dense unit (weights, BN state). Hybrid conversion uses
    /// this for the layers below `K` that stay full-rank.
    ///
    /// # Errors
    ///
    /// Returns an error if the unit is already factorized.
    pub fn clone_dense(&self) -> Result<Self> {
        match &self.conv {
            ConvKind::Dense(c) => {
                let (_, _, _, stride, padding) = c.geometry();
                let conv = Conv2d::from_weight(c.weight().clone(), stride, padding)?;
                let mut bn = BatchNorm2d::new(self.bn.channels())?;
                bn.load_state(&self.bn.state())?;
                Ok(ConvBnUnit::from_parts(ConvKind::Dense(conv), bn, self.relu))
            }
            ConvKind::LowRank(_) => Err(puffer_nn::NnError::BadConfig {
                layer: "ConvBnUnit",
                reason: "cannot deep-copy an already-factorized unit".into(),
            }),
        }
    }

    /// Converts this unit into a factorized twin at `rank`, carrying the BN
    /// state over (the paper's warm-start copies BN weights and running
    /// statistics, §3).
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn to_low_rank(&self, rank: usize, init: FactorInit) -> Result<Self> {
        let conv = match &self.conv {
            ConvKind::Dense(c) => factorize_conv(c, rank, init)?,
            ConvKind::LowRank(_) => {
                // Already factorized: deep-copy by reusing the factors.
                return Err(puffer_nn::NnError::BadConfig {
                    layer: "ConvBnUnit",
                    reason: "unit is already low-rank".into(),
                });
            }
        };
        let mut bn = BatchNorm2d::new(self.bn.channels())?;
        bn.load_state(&self.bn.state())?;
        Ok(ConvBnUnit::from_parts(ConvKind::LowRank(conv), bn, self.relu))
    }
}

impl Layer for ConvBnUnit {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let x = self.conv.forward(input, mode);
        let mut y = self.bn.forward(&x, mode);
        if self.relu {
            self.fused_relu.forward(&mut y, mode);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = if self.relu {
            self.bn.backward(&self.fused_relu.backward(grad_output))
        } else {
            self.bn.backward(grad_output)
        };
        self.conv.backward(&g)
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.conv.params();
        v.extend(self.bn.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.conv.params_mut();
        v.extend(self.bn.params_mut());
        v
    }

    fn describe(&self) -> String {
        format!("{}+BN{}", self.conv.describe(), if self.relu { "+ReLU" } else { "" })
    }

    fn buffers(&self) -> Vec<Tensor> {
        self.bn.buffers()
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        self.bn.load_buffers(buffers);
    }
}

/// Rounds `channels × ratio` to a rank, clamping to the valid range
/// `[1, min(c_in·k², c_out)]`. The paper uses `ratio = 0.25` everywhere.
pub fn rank_for(channels: usize, ratio: f32, max: usize) -> usize {
    (((channels as f32) * ratio).round() as usize).clamp(1, max)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use puffer_tensor::stats::rel_error;

    #[test]
    fn warm_start_conv_approximates_dense() {
        let dense = Conv2d::new(4, 8, 3, 1, 1, false, 1).unwrap();
        // Full-rank warm start reproduces the dense conv exactly.
        let lr = factorize_conv(&dense, 8, FactorInit::WarmStart).unwrap();
        let x = Tensor::randn(&[2, 4, 5, 5], 1.0, 2);
        let mut d = dense;
        let mut l = lr;
        let yd = d.forward(&x, Mode::Eval);
        let yl = l.forward(&x, Mode::Eval);
        assert!(rel_error(&yd, &yl) < 1e-3, "{}", rel_error(&yd, &yl));
    }

    #[test]
    fn warm_start_beats_random_at_matching_dense() {
        let dense = Conv2d::new(4, 8, 3, 1, 1, false, 3).unwrap();
        let warm = factorize_conv(&dense, 4, FactorInit::WarmStart).unwrap();
        let cold = factorize_conv(&dense, 4, FactorInit::Random(9)).unwrap();
        let x = Tensor::randn(&[2, 4, 5, 5], 1.0, 4);
        let mut d = dense;
        let yd = d.forward(&x, Mode::Eval);
        let mut warm = warm;
        let mut cold = cold;
        let ew = rel_error(&yd, &warm.forward(&x, Mode::Eval));
        let ec = rel_error(&yd, &cold.forward(&x, Mode::Eval));
        assert!(ew < ec, "warm {ew} vs cold {ec}");
    }

    #[test]
    fn warm_start_linear_full_rank_exact() {
        let dense = Linear::new(6, 4, true, 5).unwrap();
        let lr = factorize_linear(&dense, 4, FactorInit::WarmStart).unwrap();
        let x = Tensor::randn(&[3, 6], 1.0, 6);
        let mut d = dense;
        let mut l = lr;
        assert!(rel_error(&d.forward(&x, Mode::Eval), &l.forward(&x, Mode::Eval)) < 1e-3);
    }

    #[test]
    fn conv_bn_unit_forward_backward() {
        let mut unit = ConvBnUnit::dense(3, 8, 3, 1, 1, true, 7).unwrap();
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, 8);
        let y = unit.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 6, 6]);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0)); // post-ReLU
        let g = unit.backward(&Tensor::ones(&[2, 8, 6, 6]));
        assert_eq!(g.shape(), x.shape());
    }

    /// Bits of a layer's parameter gradients, in `params()` order.
    pub(crate) fn grad_bits(layer: &dyn Layer) -> Vec<u32> {
        layer.params().iter().flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits())).collect()
    }

    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The readiness contract of a model whose parameters are its
    /// `children`'s, in order, and whose backward runs them in reverse:
    /// `backward_with_ready` announces each child's first tensor index as
    /// that child finishes — strictly decreasing, ending at 0 — and leaves
    /// the bits `backward` leaves in every gradient and in the input's.
    pub(crate) fn assert_announces_children_in_reverse(
        model: &mut dyn Layer,
        children: &[usize],
        x: &Tensor,
    ) {
        let firsts: Vec<usize> = children
            .iter()
            .scan(0, |at, n| {
                let first = *at;
                *at += n;
                Some(first)
            })
            .collect();
        assert_eq!(children.iter().sum::<usize>(), model.params().len());

        model.zero_grad();
        let y = model.forward(x, Mode::Train);
        let dy = Tensor::randn(y.shape(), 1.0, 77);
        let dx = model.backward(&dy);
        let plain = grad_bits(model);

        model.zero_grad();
        let _ = model.forward(x, Mode::Train);
        let mut announced = Vec::new();
        let dx_ready = model.backward_with_ready(&dy, &mut |first| announced.push(first));
        assert_eq!(announced, firsts.iter().rev().copied().collect::<Vec<_>>());
        assert!(announced.windows(2).all(|w| w[0] > w[1]), "strictly decreasing: {announced:?}");
        assert_eq!(announced.last(), Some(&0));
        assert_eq!(grad_bits(model), plain, "parameter gradients");
        assert_eq!(bits(&dx_ready), bits(&dx), "input gradient");
    }

    #[test]
    fn fused_relu_unit_equals_conv_bn_relu_layers_bitwise() {
        // The fused mask (a reused Vec<bool>, applied as a select) against
        // the three layers run one after the other, dense and factorized,
        // over two steps so that the second reuses the first's buffer.
        use puffer_nn::activation::Relu;
        use puffer_nn::Sequential;
        let dense = ConvBnUnit::dense(3, 8, 3, 1, 1, true, 21).unwrap();
        let low_rank = dense.to_low_rank(2, FactorInit::WarmStart).unwrap();
        for mut unit in [dense, low_rank] {
            let conv: Box<dyn Layer> = match &unit.conv {
                ConvKind::Dense(c) => {
                    Box::new(Conv2d::from_weight(c.weight().clone(), 1, 1).unwrap())
                }
                ConvKind::LowRank(_) => {
                    let p = unit.conv.params();
                    let (u, v) = (p[0].value.clone(), p[1].value.reshape(&[8, 2]).unwrap());
                    Box::new(LowRankConv2d::from_factors(u, v, 1, 1).unwrap())
                }
            };
            let mut layers = Sequential::new(vec![
                conv,
                Box::new(BatchNorm2d::new(8).unwrap()),
                Box::new(Relu::new()),
            ]);
            for step in 0..2 {
                let x = Tensor::randn(&[3, 3, 6, 5], 1.0, 22 + step);
                let g = Tensor::randn(&[3, 8, 6, 5], 1.0, 32 + step);
                unit.zero_grad();
                layers.zero_grad();
                let (y, want_y) = (unit.forward(&x, Mode::Train), layers.forward(&x, Mode::Train));
                assert_eq!(bits(&y), bits(&want_y), "forward, {}", unit.describe());
                assert!(y.as_slice().contains(&0.0) && y.as_slice().iter().any(|&v| v > 0.0));
                let (dx, want_dx) = (unit.backward(&g), layers.backward(&g));
                assert_eq!(bits(&dx), bits(&want_dx), "input gradient, {}", unit.describe());
                assert_eq!(grad_bits(&unit), grad_bits(&layers), "parameter gradients");
            }
            let x = Tensor::randn(&[2, 3, 6, 5], 1.0, 40);
            assert_eq!(bits(&unit.forward(&x, Mode::Eval)), bits(&layers.forward(&x, Mode::Eval)));
        }
    }

    #[test]
    fn unit_to_low_rank_carries_bn_state() {
        let mut unit = ConvBnUnit::dense(3, 8, 3, 1, 1, true, 9).unwrap();
        // Train a few steps so BN accumulates statistics.
        for s in 0..5 {
            let x = Tensor::randn(&[4, 3, 6, 6], 2.0, s);
            let _ = unit.forward(&x, Mode::Train);
        }
        let lr = unit.to_low_rank(2, FactorInit::WarmStart).unwrap();
        assert!(lr.conv.is_low_rank());
        assert_eq!(lr.bn.state(), unit.bn.state());
        // Double factorization is rejected.
        assert!(lr.to_low_rank(2, FactorInit::WarmStart).is_err());
    }

    #[test]
    fn rank_for_clamps() {
        assert_eq!(rank_for(64, 0.25, 64), 16);
        assert_eq!(rank_for(2, 0.25, 64), 1);
        assert_eq!(rank_for(1000, 0.25, 64), 64);
    }
}
