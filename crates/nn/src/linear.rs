//! The dense-or-factorized linear map [`MatOp`] and the fully connected
//! layer [`Linear`] built on it.
//!
//! Pufferfish factorizes every weight the same way: `W ∈ R^{out×in}`
//! becomes `U·Vᵀ` with `U ∈ R^{out×r}` and `Vᵀ ∈ R^{r×in}` (paper §2.1).
//! [`MatOp`] is that one map, dense or factorized; FC layers, the LSTM
//! gates ([`crate::lstm`]) and the Transformer projections
//! ([`crate::attention`]) all hold one.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::{NnError, Result};
use puffer_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use puffer_tensor::Tensor;

/// The rank a [`MatOp`] is built at: dense, or factorized at rank `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRank {
    /// Dense weight.
    Full,
    /// `U·Vᵀ` at this rank.
    LowRank(usize),
}

/// Checks that an `out×in` matrix can be built at `rank`: both dimensions
/// nonzero and, factorized, `1 ≤ r ≤ min(in, out)`. The one rank check;
/// [`crate::conv::LowRankConv2d`] calls it with `in = c_in·k²`.
pub(crate) fn check_rank(
    layer: &'static str,
    in_dim: usize,
    out_dim: usize,
    rank: BlockRank,
) -> Result<()> {
    let max = in_dim.min(out_dim);
    let fits = match rank {
        BlockRank::Full => max > 0,
        BlockRank::LowRank(r) => (1..=max).contains(&r),
    };
    if fits {
        return Ok(());
    }
    Err(NnError::BadConfig {
        layer,
        reason: format!(
            "{rank:?} needs nonzero dimensions and a rank in 1..=min(in, out), got {in_dim}→{out_dim}"
        ),
    })
}

/// A linear map `y = x·Wᵀ` whose weight is dense (`W ∈ R^{out×in}`) or
/// factorized (`U ∈ R^{out×r}`, `Vᵀ ∈ R^{r×in}`).
#[derive(Debug)]
pub enum MatOp {
    /// Dense weight.
    Dense(Param),
    /// Low-rank factors.
    LowRank {
        /// `U ∈ R^{out×r}`.
        u: Param,
        /// `Vᵀ ∈ R^{r×in}`.
        vt: Param,
    },
}

impl MatOp {
    /// Creates an `out_dim×in_dim` op at `rank`. A dense weight is drawn
    /// from `N(0, std²)`. Each factor entry is drawn with standard deviation
    /// `√(std/√r)`, `Vᵀ` from the seed after `U`'s, so that `U·Vᵀ` has the
    /// dense weight's variance. The parameters are named `name`, or
    /// `{name}_u` and `{name}_v`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if a dimension is zero or the rank is
    /// outside `1..=min(in_dim, out_dim)`.
    pub fn new(
        name: &str,
        out_dim: usize,
        in_dim: usize,
        rank: BlockRank,
        std: f32,
        seed: u64,
    ) -> Result<Self> {
        check_rank("MatOp", in_dim, out_dim, rank)?;
        Ok(match rank {
            BlockRank::Full => {
                MatOp::Dense(Param::new(name, Tensor::randn(&[out_dim, in_dim], std, seed)))
            }
            BlockRank::LowRank(r) => {
                let factor_std = (std / (r as f32).sqrt()).sqrt();
                MatOp::LowRank {
                    u: Param::new(
                        format!("{name}_u"),
                        Tensor::randn(&[out_dim, r], factor_std, seed),
                    ),
                    vt: Param::new(
                        format!("{name}_v"),
                        Tensor::randn(&[r, in_dim], factor_std, seed.wrapping_add(1)),
                    ),
                }
            }
        })
    }

    /// Builds a low-rank op from explicit factors `U: out×r`, `Vᵀ: r×in`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the factors are not 2-D or their
    /// inner dimensions differ.
    pub fn from_factors(name: &str, u: Tensor, vt: Tensor) -> Result<Self> {
        if u.ndim() != 2 || vt.ndim() != 2 || u.shape()[1] != vt.shape()[0] {
            return Err(NnError::BadConfig {
                layer: "MatOp",
                reason: format!("incompatible factors {:?} / {:?}", u.shape(), vt.shape()),
            });
        }
        Ok(MatOp::LowRank {
            u: Param::new(format!("{name}_u"), u),
            vt: Param::new(format!("{name}_v"), vt),
        })
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            MatOp::Dense(w) => w.value.shape()[0],
            MatOp::LowRank { u, .. } => u.value.shape()[0],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        match self {
            MatOp::Dense(w) => w.value.shape()[1],
            MatOp::LowRank { vt, .. } => vt.value.shape()[1],
        }
    }

    /// Whether the op is dense, or factorized at which rank.
    pub fn rank(&self) -> BlockRank {
        match self {
            MatOp::Dense(_) => BlockRank::Full,
            MatOp::LowRank { u, .. } => BlockRank::LowRank(u.value.shape()[1]),
        }
    }

    /// `y = x·Wᵀ` for `x: [n, in]`.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        match self {
            MatOp::Dense(w) => matmul_nt(x, &w.value).expect("MatOp shape"),
            MatOp::LowRank { u, vt } => {
                let h = matmul_nt(x, &vt.value).expect("MatOp shape");
                matmul_nt(&h, &u.value).expect("MatOp shape")
            }
        }
    }

    /// Accumulates parameter gradients for `y = x·Wᵀ` given `x` and
    /// `dy`, returning `dx`. A factorized op recomputes `x·Vᵀ` rather than
    /// keeping it from [`MatOp::apply`].
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        match self {
            MatOp::Dense(w) => {
                let dw = matmul_tn(dy, x).expect("MatOp shape");
                w.grad.axpy(1.0, &dw).expect("grad shape");
                matmul(dy, &w.value).expect("MatOp shape")
            }
            MatOp::LowRank { u, vt } => {
                // dU = dYᵀ·H, dH = dY·U, dVᵀ = dHᵀ·X, dX = dH·Vᵀ
                let hidden = matmul_nt(x, &vt.value).expect("MatOp shape");
                let du = matmul_tn(dy, &hidden).expect("MatOp shape");
                u.grad.axpy(1.0, &du).expect("grad shape");
                let dh = matmul(dy, &u.value).expect("MatOp shape");
                let dvt = matmul_tn(&dh, x).expect("MatOp shape");
                vt.grad.axpy(1.0, &dvt).expect("grad shape");
                matmul(&dh, &vt.value).expect("MatOp shape")
            }
        }
    }

    /// The effective dense matrix (`W` or `U·Vᵀ`).
    pub fn effective(&self) -> Tensor {
        match self {
            MatOp::Dense(w) => w.value.clone(),
            MatOp::LowRank { u, vt } => matmul(&u.value, &vt.value).expect("factor shapes"),
        }
    }

    /// Immutable parameter views (`[w]` or `[u, vt]`).
    pub fn params(&self) -> Vec<&Param> {
        match self {
            MatOp::Dense(w) => vec![w],
            MatOp::LowRank { u, vt } => vec![u, vt],
        }
    }

    /// Mutable parameter views, same order as [`MatOp::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            MatOp::Dense(w) => vec![w],
            MatOp::LowRank { u, vt } => vec![u, vt],
        }
    }
}

/// Fully connected layer `y = x·Wᵀ + b` over a [`MatOp`] weight named
/// `weight` (dense) or `weight_u`, `weight_v` (factorized). Factorized, it
/// holds `r·(out+in)` weights instead of `out·in` (Table 1).
#[derive(Debug)]
pub struct Linear {
    op: MatOp,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized dense layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, bias: bool, seed: u64) -> Result<Self> {
        Self::with_rank(in_features, out_features, BlockRank::Full, bias, seed)
    }

    /// Creates a randomly initialized factorized layer whose `U·Vᵀ` has
    /// Kaiming variance: each factor gets its fourth root.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either dimension is zero or `rank`
    /// is outside `1..=min(in, out)`.
    pub fn low_rank(
        in_features: usize,
        out_features: usize,
        rank: usize,
        bias: bool,
        seed: u64,
    ) -> Result<Self> {
        Self::with_rank(in_features, out_features, BlockRank::LowRank(rank), bias, seed)
    }

    fn with_rank(
        in_features: usize,
        out_features: usize,
        rank: BlockRank,
        bias: bool,
        seed: u64,
    ) -> Result<Self> {
        let std = (2.0 / in_features as f32).sqrt();
        let op = MatOp::new("weight", out_features, in_features, rank, std, seed)?;
        let bias = bias.then(|| Param::new_no_decay("bias", Tensor::zeros(&[out_features])));
        Ok(Linear { op, bias, cached_input: None })
    }

    /// Creates a dense layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `weight` is not 2-D or `bias` has
    /// the wrong length.
    pub fn from_weights(weight: Tensor, bias: Option<Tensor>) -> Result<Self> {
        if weight.ndim() != 2 {
            return Err(NnError::BadConfig {
                layer: "Linear",
                reason: "weight must be 2-D".into(),
            });
        }
        Self::from_op(MatOp::Dense(Param::new("weight", weight)), bias)
    }

    /// Creates a factorized layer from explicit factors (`U: out×r`,
    /// `Vᵀ: r×in`), the output of Pufferfish's SVD warm-start.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] on factor shape mismatch or a bias of
    /// the wrong length.
    pub fn from_factors(u: Tensor, vt: Tensor, bias: Option<Tensor>) -> Result<Self> {
        Self::from_op(MatOp::from_factors("weight", u, vt)?, bias)
    }

    fn from_op(op: MatOp, bias: Option<Tensor>) -> Result<Self> {
        if let Some(b) = &bias {
            if b.len() != op.out_dim() {
                return Err(NnError::BadConfig {
                    layer: "Linear",
                    reason: format!("bias length {} != out features {}", b.len(), op.out_dim()),
                });
            }
        }
        let bias = bias.map(|b| Param::new_no_decay("bias", b));
        Ok(Linear { op, bias, cached_input: None })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.op.in_dim()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.op.out_dim()
    }

    /// Whether the weight is dense, or factorized at which rank.
    pub fn rank(&self) -> BlockRank {
        self.op.rank()
    }

    /// The effective weight matrix (`out×in`): `W`, or `U·Vᵀ` when
    /// factorized.
    pub fn weight(&self) -> Tensor {
        self.op.effective()
    }

    /// The bias vector, if present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|p| &p.value)
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.ndim(), 2, "Linear expects [batch, features]");
        assert_eq!(input.shape()[1], self.in_features(), "Linear input feature mismatch");
        let mut y = self.op.apply(input);
        if let Some(b) = &self.bias {
            add_bias_rows(&mut y, &b.value);
        }
        if mode == Mode::Train {
            crate::layer::cache_activation(&mut self.cached_input, input);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before train-mode forward");
        let dx = self.op.backward(x, grad_output);
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(&mut b.grad, grad_output);
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.op.params();
        v.extend(self.bias.as_ref());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.op.params_mut();
        v.extend(self.bias.as_mut());
        v
    }

    fn describe(&self) -> String {
        let (fin, fout) = (self.in_features(), self.out_features());
        match self.rank() {
            BlockRank::Full => format!("Linear({fin}→{fout})"),
            BlockRank::LowRank(r) => format!("LowRankLinear({fin}→{fout}, r={r})"),
        }
    }
}

/// Adds a bias vector to every row of a `[rows, features]` activation.
/// Shared by every layer with a per-feature bias.
pub fn add_bias_rows(y: &mut Tensor, bias: &Tensor) {
    let cols = y.shape()[y.ndim() - 1];
    debug_assert_eq!(bias.len(), cols);
    for row in y.as_mut_slice().chunks_mut(cols) {
        for (v, b) in row.iter_mut().zip(bias.as_slice()) {
            *v += b;
        }
    }
}

/// Accumulates a bias gradient: the row-sum of `grad_output`. The adjoint
/// of [`add_bias_rows`].
pub fn accumulate_bias_grad(bias_grad: &mut Tensor, grad_output: &Tensor) {
    let cols = bias_grad.len();
    for row in grad_output.as_slice().chunks(cols) {
        for (g, d) in bias_grad.as_mut_slice().iter_mut().zip(row) {
            *g += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{finite_diff_input_check, finite_diff_param_check};
    use puffer_tensor::stats::rel_error;

    #[test]
    fn linear_forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut l = Linear::from_weights(w, Some(b)).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]).unwrap();
        let y = l.forward(&x, Mode::Eval);
        // y = [1-3+0.5, 4-6-0.5] = [-1.5, -2.5]
        assert_eq!(y.as_slice(), &[-1.5, -2.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut l = Linear::new(4, 3, true, 1).unwrap();
        let x = Tensor::randn(&[2, 4], 1.0, 2);
        assert!(finite_diff_input_check(&mut l, &x, 1e-2) < 1e-2);
        assert!(finite_diff_param_check(&mut l, &x, 1e-2) < 1e-2);
    }

    #[test]
    fn low_rank_gradcheck() {
        let mut l = Linear::low_rank(5, 4, 2, true, 3).unwrap();
        let x = Tensor::randn(&[3, 5], 1.0, 4);
        assert!(finite_diff_input_check(&mut l, &x, 1e-2) < 1e-2);
        assert!(finite_diff_param_check(&mut l, &x, 1e-2) < 1e-2);
    }

    #[test]
    fn full_rank_factorization_is_exact() {
        // With r = min(in, out), a factorized Linear can represent any dense one.
        let mut dense = Linear::new(6, 4, false, 5).unwrap();
        let f = puffer_tensor::svd::truncated_svd(&dense.weight(), 4).unwrap();
        let (u, vt) = f.split_balanced();
        let mut lr = Linear::from_factors(u, vt, None).unwrap();
        let x = Tensor::randn(&[3, 6], 1.0, 6);
        let yd = dense.forward(&x, Mode::Eval);
        let yl = lr.forward(&x, Mode::Eval);
        assert!(rel_error(&yd, &yl) < 1e-3, "rel err {}", rel_error(&yd, &yl));
    }

    #[test]
    fn param_counts_match_table1() {
        let (m, n, r) = (128usize, 64usize, 16usize);
        let dense = Linear::new(n, m, false, 1).unwrap();
        assert_eq!(dense.param_count(), m * n);
        let lr = Linear::low_rank(n, m, r, false, 1).unwrap();
        assert_eq!(lr.param_count(), r * (m + n));
        assert_eq!(lr.describe(), "LowRankLinear(64→128, r=16)");
        let names: Vec<&str> = lr.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["weight_u", "weight_v"]);
    }

    #[test]
    fn bias_gradient_accumulates_batch() {
        let mut l = Linear::new(2, 2, true, 1).unwrap();
        let x = Tensor::ones(&[4, 2]);
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&Tensor::ones(&[4, 2]));
        // db = sum over 4 batch rows of ones = 4.
        assert_eq!(l.params()[1].grad.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn constructors_validate() {
        assert!(Linear::new(0, 4, true, 1).is_err());
        assert!(Linear::low_rank(4, 4, 5, true, 1).is_err());
        assert!(Linear::low_rank(4, 4, 0, true, 1).is_err());
        assert!(Linear::low_rank(6, 3, 4, true, 1).is_err()); // > min(6, 3)
        assert!(Linear::low_rank(6, 3, 3, true, 1).is_ok());
        let u = Tensor::zeros(&[4, 2]);
        let vt = Tensor::zeros(&[3, 5]);
        assert!(Linear::from_factors(u, vt, None).is_err());
        let (u, vt) = (Tensor::zeros(&[4, 2]), Tensor::zeros(&[2, 5]));
        assert!(Linear::from_factors(u, vt, Some(Tensor::zeros(&[5]))).is_err());
        assert!(MatOp::new("w", 3, 4, BlockRank::LowRank(0), 1.0, 1).is_err());
        assert!(MatOp::new("w", 3, 4, BlockRank::LowRank(4), 1.0, 1).is_err());
        assert!(MatOp::new("w", 0, 4, BlockRank::Full, 1.0, 1).is_err());
        assert!(MatOp::new("w", 3, 4, BlockRank::LowRank(3), 1.0, 1).is_ok());
    }

    #[test]
    fn effective_weight_matches_factors() {
        let lr = Linear::low_rank(4, 3, 2, false, 7).unwrap();
        assert_eq!(lr.rank(), BlockRank::LowRank(2));
        let w = lr.weight();
        assert_eq!(w.shape(), &[3, 4]);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut l = Linear::new(2, 2, false, 1).unwrap();
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&g);
        let g1 = l.params()[0].grad.clone();
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&g);
        let g2 = l.params()[0].grad.clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
    }

    #[test]
    fn matop_dense_vs_lowrank_full_rank_equivalence() {
        let w = Tensor::randn(&[4, 6], 1.0, 1);
        let f = puffer_tensor::svd::truncated_svd(&w, 4).unwrap();
        let (u, vt) = f.split_balanced();
        let dense = MatOp::Dense(Param::new("w", w));
        let lr = MatOp::from_factors("w", u, vt).unwrap();
        let x = Tensor::randn(&[3, 6], 1.0, 2);
        assert!(rel_error(&dense.apply(&x), &lr.apply(&x)) < 1e-3);
    }

    #[test]
    fn matop_backward_gradcheck() {
        for rank in [BlockRank::Full, BlockRank::LowRank(2)] {
            let mut op = MatOp::new("w", 3, 4, rank, 0.5, 1).unwrap();
            let x = Tensor::randn(&[2, 4], 1.0, 3);
            let kappa = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, 4);
            let dx = op.backward(&x, &kappa);
            let eps = 1e-2;
            let mut xp = x.clone();
            for idx in 0..x.len() {
                let orig = xp.as_slice()[idx];
                xp.as_mut_slice()[idx] = orig + eps;
                let fp = op.apply(&xp).dot(&kappa).unwrap();
                xp.as_mut_slice()[idx] = orig - eps;
                let fm = op.apply(&xp).dot(&kappa).unwrap();
                xp.as_mut_slice()[idx] = orig;
                let num = (fp - fm) / (2.0 * eps);
                assert!((num - dx.as_slice()[idx]).abs() < 1e-2);
            }
        }
    }
}
