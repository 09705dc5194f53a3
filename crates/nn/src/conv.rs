//! Convolution layers: vanilla [`Conv2d`] and Pufferfish's
//! [`LowRankConv2d`] — a thin `k×k` convolution with `r` filters followed by
//! a `1×1` convolution that linearly combines them back to `c_out` channels
//! (paper §2.2, Figure 1).

use crate::layer::{Layer, Mode};
use crate::linear::{check_rank, BlockRank};
use crate::param::Param;
use crate::{NnError, Result};
use puffer_tensor::conv::{conv2d_forward, conv2d_grad_input, conv2d_grad_weight, ConvGeometry};
use puffer_tensor::init::kaiming_normal;
use puffer_tensor::matmul::matmul;
use puffer_tensor::Tensor;

/// 2-D convolution `y = W * x (+ b)` with weight `(c_out, c_in, k, k)`,
/// run as implicit GEMMs over the NCHW activations
/// ([`puffer_tensor::conv`]). Training caches the layer's input — not its
/// patch matrix — for the weight gradient.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<(Tensor, ConvGeometry)>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution. The paper's CNNs use
    /// bias-free convolutions (BatchNorm follows every conv), so `bias` is
    /// normally `false`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if any dimension or the stride is zero.
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        seed: u64,
    ) -> Result<Self> {
        if c_in == 0 || c_out == 0 || k == 0 || stride == 0 {
            return Err(NnError::BadConfig {
                layer: "Conv2d",
                reason: format!("zero dimension in ({c_in}, {c_out}, k={k}, stride={stride})"),
            });
        }
        let fan_in = c_in * k * k;
        let weight = Param::new("weight", kaiming_normal(&[c_out, c_in, k, k], fan_in, seed));
        let bias = bias.then(|| Param::new_no_decay("bias", Tensor::zeros(&[c_out])));
        Ok(Conv2d { weight, bias, c_in, c_out, k, stride, padding, cached_input: None })
    }

    /// Creates a convolution from an explicit weight `(c_out, c_in, k, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the weight is not 4-D.
    pub fn from_weight(weight: Tensor, stride: usize, padding: usize) -> Result<Self> {
        if weight.ndim() != 4 {
            return Err(NnError::BadConfig {
                layer: "Conv2d",
                reason: "weight must be 4-D".into(),
            });
        }
        let s = weight.shape().to_vec();
        let mut conv = Self::new(s[1], s[0], s[2], stride, padding, false, 0)?;
        conv.weight.value = weight;
        Ok(conv)
    }

    /// `(c_in, c_out, kernel, stride, padding)`.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.c_in, self.c_out, self.k, self.stride, self.padding)
    }

    /// The 4-D weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The weight unrolled to the paper's 2-D form `(c_in·k², c_out)`,
    /// the matrix Pufferfish factorizes via SVD.
    pub fn unrolled_weight(&self) -> Tensor {
        let w_mat = self
            .weight
            .value
            .reshape(&[self.c_out, self.c_in * self.k * self.k])
            .expect("weight is (c_out, c_in, k, k)");
        w_mat.transpose()
    }

    /// `y = W ∗ x (+ b)` and the geometry it ran with.
    fn apply(&self, input: &Tensor) -> (Tensor, ConvGeometry) {
        assert_eq!(input.ndim(), 4, "Conv2d expects [N, C, H, W]");
        let s = input.shape();
        assert_eq!(s[1], self.c_in, "Conv2d channel mismatch");
        let geo = ConvGeometry {
            c_in: self.c_in,
            h: s[2],
            w: s[3],
            k: self.k,
            stride: self.stride,
            padding: self.padding,
        };
        let mut out = conv2d_forward(input, &self.weight.value, &geo).expect("kernel fits input");
        if let Some(b) = &self.bias {
            add_channel_bias(&mut out, &b.value);
        }
        (out, geo)
    }

    /// [`Layer::forward`] of an input the caller hands over: training caches
    /// it as it is instead of a copy.
    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let (out, geo) = self.apply(&input);
        if mode == Mode::Train {
            self.cached_input = Some((input, geo));
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (out, geo) = self.apply(input);
        if mode == Mode::Train {
            self.cached_input = Some((input.clone(), geo));
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (input, geo) = self.cached_input.as_ref().expect("backward before train-mode forward");
        assert_eq!(
            grad_output.shape(),
            &[input.shape()[0], self.c_out, geo.h_out(), geo.w_out()],
            "Conv2d gradient shape mismatch"
        );
        let dw = conv2d_grad_weight(input, grad_output, geo).expect("shapes checked");
        self.weight.grad.axpy(1.0, &dw).expect("grad shape");
        if let Some(b) = &mut self.bias {
            accumulate_channel_bias_grad(&mut b.grad, grad_output);
        }
        conv2d_grad_input(&self.weight.value, grad_output, geo).expect("shapes checked")
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        v.extend(self.bias.as_ref());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        v.extend(self.bias.as_mut());
        v
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}→{}, k={}, s={}, p={})",
            self.c_in, self.c_out, self.k, self.stride, self.padding
        )
    }
}

/// Pufferfish factorized convolution: a `k×k` convolution with `r` filters
/// (`U ∈ R^{r×c_in×k×k}`) followed by a `1×1` convolution
/// (`Vᵀ ∈ R^{c_out×r×1×1}`) that forms the original `c_out` output channels
/// as linear combinations of the `r` basis responses.
///
/// Parameter count drops from `c_in·c_out·k²` to `c_in·r·k² + r·c_out`
/// (Table 1).
#[derive(Debug)]
pub struct LowRankConv2d {
    u: Conv2d,
    v: Conv2d,
    rank: usize,
}

impl LowRankConv2d {
    /// Creates a randomly initialized factorized convolution.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `rank` is zero or exceeds
    /// `min(c_in·k², c_out)` (the rank of the unrolled weight, §2.2).
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        padding: usize,
        rank: usize,
        seed: u64,
    ) -> Result<Self> {
        check_rank("LowRankConv2d", c_in * k * k, c_out, BlockRank::LowRank(rank))?;
        let mut u = Conv2d::new(c_in, rank, k, stride, padding, false, seed)?;
        let v = Conv2d::new(rank, c_out, 1, 1, 0, false, seed.wrapping_add(1))?;
        u.weight.name = "conv_u.weight".into();
        let mut v = v;
        v.weight.name = "conv_v.weight".into();
        Ok(LowRankConv2d { u, v, rank })
    }

    /// Builds the layer from explicit factor tensors: `u: (r, c_in, k, k)`
    /// and `vt: (c_out, r)` — the reshaped output of truncated SVD on the
    /// unrolled weight.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] on factor shape mismatch.
    pub fn from_factors(u: Tensor, vt: Tensor, stride: usize, padding: usize) -> Result<Self> {
        if u.ndim() != 4 || vt.ndim() != 2 || vt.shape()[1] != u.shape()[0] {
            return Err(NnError::BadConfig {
                layer: "LowRankConv2d",
                reason: format!("incompatible factors {:?} / {:?}", u.shape(), vt.shape()),
            });
        }
        let rank = u.shape()[0];
        let c_out = vt.shape()[0];
        let mut u_conv = Conv2d::from_weight(u, stride, padding)?;
        let v4 = vt.reshape(&[c_out, rank, 1, 1]).expect("vt is (c_out, r)");
        let mut v_conv = Conv2d::from_weight(v4, 1, 0)?;
        u_conv.weight.name = "conv_u.weight".into();
        v_conv.weight.name = "conv_v.weight".into();
        Ok(LowRankConv2d { u: u_conv, v: v_conv, rank })
    }

    /// The factorization rank (number of basis filters).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `(c_in, c_out, kernel, stride, padding)` of the layer as a whole.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        let (c_in, _, k, stride, padding) = self.u.geometry();
        let (_, c_out, _, _, _) = self.v.geometry();
        (c_in, c_out, k, stride, padding)
    }

    /// Reconstructs the effective dense 4-D weight `(c_out, c_in, k, k)`.
    pub fn effective_weight(&self) -> Tensor {
        let (c_in, _, k, _, _) = self.u.geometry();
        let (_, c_out, _, _, _) = self.v.geometry();
        let u_mat = self.u.weight().reshape(&[self.rank, c_in * k * k]).expect("u shape");
        let v_mat = self.v.weight().reshape(&[c_out, self.rank]).expect("v shape");
        matmul(&v_mat, &u_mat)
            .expect("factor shapes are consistent")
            .reshape(&[c_out, c_in, k, k])
            .expect("element count matches")
    }
}

impl Layer for LowRankConv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mid = self.u.forward(input, mode);
        self.v.forward_owned(mid, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dmid = self.v.backward(grad_output);
        self.u.backward(&dmid)
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.u.params();
        v.extend(self.v.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.u.params_mut();
        v.extend(self.v.params_mut());
        v
    }

    fn describe(&self) -> String {
        let (c_in, c_out, k, s, p) = self.geometry();
        format!("LowRankConv2d({c_in}→{c_out}, k={k}, s={s}, p={p}, r={})", self.rank)
    }
}

fn add_channel_bias(t: &mut Tensor, bias: &Tensor) {
    let s = t.shape().to_vec();
    let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
    for ni in 0..n {
        for ci in 0..c {
            let b = bias.as_slice()[ci];
            let base = (ni * c + ci) * spatial;
            for v in &mut t.as_mut_slice()[base..base + spatial] {
                *v += b;
            }
        }
    }
}

fn accumulate_channel_bias_grad(bias_grad: &mut Tensor, grad_output: &Tensor) {
    let s = grad_output.shape();
    let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * spatial;
            let sum: f32 = grad_output.as_slice()[base..base + spatial].iter().sum();
            bias_grad.as_mut_slice()[ci] += sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{finite_diff_input_check, finite_diff_param_check};
    use puffer_tensor::stats::rel_error;

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity channel mixing is the identity map.
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap();
        let mut conv = Conv2d::from_weight(w, 1, 0).unwrap();
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, 1);
        let y = conv.forward(&x, Mode::Eval);
        assert!(rel_error(&x, &y.reshape(x.shape()).unwrap()) < 1e-6);
    }

    #[test]
    fn conv_known_values() {
        // Single 2x2 averaging-ish kernel on a known image.
        let w = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let mut conv = Conv2d::from_weight(w, 1, 0).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[10.0]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, 1).unwrap();
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 2);
        assert!(finite_diff_input_check(&mut conv, &x, 1e-2) < 2e-2);
        assert!(finite_diff_param_check(&mut conv, &x, 1e-2) < 2e-2);
    }

    #[test]
    fn strided_conv_gradcheck() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, false, 3).unwrap();
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, 4);
        assert!(finite_diff_input_check(&mut conv, &x, 1e-2) < 2e-2);
    }

    #[test]
    fn low_rank_conv_gradcheck() {
        let mut conv = LowRankConv2d::new(2, 4, 3, 1, 1, 2, 5).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, 6);
        assert!(finite_diff_input_check(&mut conv, &x, 1e-2) < 2e-2);
        assert!(finite_diff_param_check(&mut conv, &x, 1e-2) < 2e-2);
    }

    #[test]
    fn full_rank_factorized_conv_matches_dense() {
        // Factorize a dense conv at full rank via SVD: outputs must agree.
        let mut dense = Conv2d::new(3, 4, 3, 1, 1, false, 7).unwrap();
        let unrolled = dense.unrolled_weight(); // (c_in k², c_out) = (27, 4)
        let f = puffer_tensor::svd::truncated_svd(&unrolled, 4).unwrap();
        let (u, vt) = f.split_balanced(); // u: (27, 4), vt: (4, 4)
                                          // u columns are basis filters: reshape uᵀ to (r, c_in, k, k);
                                          // vt maps basis → c_out: (c_out, r) = vtᵀ.
        let u4 = u.transpose().reshape(&[4, 3, 3, 3]).unwrap();
        let v2 = vt.transpose();
        let mut lr = LowRankConv2d::from_factors(u4, v2, 1, 1).unwrap();
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, 8);
        let yd = dense.forward(&x, Mode::Eval);
        let yl = lr.forward(&x, Mode::Eval);
        assert!(rel_error(&yd, &yl) < 1e-3, "rel err {}", rel_error(&yd, &yl));
    }

    #[test]
    fn param_counts_match_table1() {
        let (c_in, c_out, k, r) = (64usize, 128usize, 3usize, 16usize);
        let dense = Conv2d::new(c_in, c_out, k, 1, 1, false, 1).unwrap();
        assert_eq!(dense.param_count(), c_in * c_out * k * k);
        let lr = LowRankConv2d::new(c_in, c_out, k, 1, 1, r, 1).unwrap();
        assert_eq!(lr.param_count(), c_in * r * k * k + r * c_out);
    }

    #[test]
    fn constructors_validate() {
        assert!(Conv2d::new(0, 4, 3, 1, 1, false, 1).is_err());
        assert!(Conv2d::new(4, 4, 3, 0, 1, false, 1).is_err());
        assert!(LowRankConv2d::new(2, 4, 3, 1, 1, 0, 1).is_err());
        assert!(LowRankConv2d::new(2, 4, 3, 1, 1, 5, 1).is_err()); // > min(18, 4)
        assert!(LowRankConv2d::new(1, 16, 3, 1, 1, 10, 1).is_err()); // > min(9, 16)
        assert!(LowRankConv2d::new(1, 16, 3, 1, 1, 9, 1).is_ok());
    }

    #[test]
    fn effective_weight_reconstruction() {
        let lr = LowRankConv2d::new(2, 3, 3, 1, 1, 2, 11).unwrap();
        let w = lr.effective_weight();
        assert_eq!(w.shape(), &[3, 2, 3, 3]);
    }
}
