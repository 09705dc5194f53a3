//! LSTM layers: vanilla and per-gate low-rank factorized (paper §2.3).
//!
//! The paper factorizes each of the eight gate matrices independently
//! (`W_ii, W_if, W_ig, W_io` on the input and `W_hi, W_hf, W_hg, W_ho` on
//! the hidden state), giving `4dr + 12hr` parameters per layer versus
//! `4(dh + h²)` for the vanilla layer (Table 1; appendix Table 12 lists the
//! factor shapes `1500×375` / `375×1500`). Each gate matrix is a
//! [`MatOp`], the dense-or-factorized map FC layers and attention use too.

use crate::activation::sigmoid;
use crate::linear::{BlockRank, MatOp};
use crate::param::Param;
use crate::Result;
use puffer_tensor::Tensor;

const GATE_NAMES: [&str; 4] = ["i", "f", "g", "o"];

#[derive(Debug)]
struct Gate {
    wx: MatOp,
    wh: MatOp,
    bias: Param,
}

#[derive(Debug, Default)]
struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    gates: [Tensor; 4], // post-activation i, f, g, o
    tanh_c: Tensor,
}

/// A single LSTM layer processing `[T]` steps of `[batch, d]` inputs.
///
/// Not a [`crate::Layer`]: sequences need their own forward/backward API
/// (`forward_seq` / `backward_seq`, full BPTT).
#[derive(Debug)]
pub struct LstmLayer {
    gates: Vec<Gate>,
    d: usize,
    h: usize,
    cache: Vec<StepCache>,
}

impl LstmLayer {
    /// Creates an LSTM layer with input size `d`, hidden size `h`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadConfig`] for zero dimensions or a rank
    /// exceeding `min(d, h)`.
    pub fn new(d: usize, h: usize, rank: BlockRank, seed: u64) -> Result<Self> {
        // PyTorch LSTM init: U(-1/sqrt(h), 1/sqrt(h)); we use a normal with
        // matching scale.
        let std = 1.0 / (h as f32).sqrt();
        let mut gates = Vec::with_capacity(4);
        for (gi, gname) in GATE_NAMES.iter().enumerate() {
            let s = seed.wrapping_add(100 * gi as u64);
            gates.push(Gate {
                wx: MatOp::new(&format!("weight.i{gname}"), h, d, rank, std, s)?,
                wh: MatOp::new(&format!("weight.h{gname}"), h, h, rank, std, s.wrapping_add(1))?,
                bias: Param::new_no_decay(format!("bias.{gname}"), Tensor::zeros(&[h])),
            });
        }
        Ok(LstmLayer { gates, d, h, cache: Vec::new() })
    }

    /// `(input_size, hidden_size)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.d, self.h)
    }

    /// The gate rank configuration.
    pub fn rank(&self) -> BlockRank {
        self.gates[0].wx.rank()
    }

    /// Immutable parameter views (stable order: per gate `wx, wh, bias`).
    pub fn params(&self) -> Vec<&Param> {
        self.gates
            .iter()
            .flat_map(|g| {
                let mut v = g.wx.params();
                v.extend(g.wh.params());
                v.push(&g.bias);
                v
            })
            .collect()
    }

    /// Mutable parameter views, same order as [`LstmLayer::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.gates
            .iter_mut()
            .flat_map(|g| {
                let mut v = g.wx.params_mut();
                v.extend(g.wh.params_mut());
                v.push(&mut g.bias);
                v
            })
            .collect()
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Dense effective gate matrices `(Wx, Wh, b)` for gate `gi ∈ 0..4`
    /// (i, f, g, o) — used by the SVD warm-start.
    pub fn gate_weights(&self, gi: usize) -> (Tensor, Tensor, Tensor) {
        let g = &self.gates[gi];
        (g.wx.effective(), g.wh.effective(), g.bias.value.clone())
    }

    /// Replaces gate `gi`'s maps with explicit [`MatOp`]s and bias (used by
    /// warm-start surgery).
    pub fn set_gate(&mut self, gi: usize, wx: MatOp, wh: MatOp, bias: Tensor) {
        self.gates[gi] =
            Gate { wx, wh, bias: Param::new_no_decay(format!("bias.{}", GATE_NAMES[gi]), bias) };
    }

    /// Runs the layer over a sequence, returning hidden states per step.
    /// Starts from zero initial state. Caches for [`LstmLayer::backward_seq`].
    ///
    /// # Panics
    ///
    /// Panics if any step has the wrong feature dimension.
    pub fn forward_seq(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        self.cache.clear();
        let batch = if xs.is_empty() { 0 } else { xs[0].shape()[0] };
        let mut h = Tensor::zeros(&[batch, self.h]);
        let mut c = Tensor::zeros(&[batch, self.h]);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            assert_eq!(x.shape(), &[batch, self.d], "LSTM step input shape");
            let mut acts: Vec<Tensor> = Vec::with_capacity(4);
            for g in &self.gates {
                let mut z = g.wx.apply(x);
                let zh = g.wh.apply(&h);
                z.axpy(1.0, &zh).expect("gate shapes");
                crate::linear::add_bias_rows(&mut z, &g.bias.value);
                acts.push(z);
            }
            let i = acts[0].map(sigmoid);
            let f = acts[1].map(sigmoid);
            let g_ = acts[2].map(f32::tanh);
            let o = acts[3].map(sigmoid);
            let new_c = f
                .hadamard(&c)
                .expect("shape")
                .zip_map(&i.hadamard(&g_).expect("shape"), |a, b| a + b)
                .expect("shape");
            let tanh_c = new_c.map(f32::tanh);
            let new_h = o.hadamard(&tanh_c).expect("shape");
            // Move the previous state into the cache and the new state into
            // the recurrence in one swap — no h/c clones per step.
            self.cache.push(StepCache {
                x: x.clone(),
                h_prev: std::mem::replace(&mut h, new_h.clone()),
                c_prev: std::mem::replace(&mut c, new_c),
                gates: [i, f, g_, o],
                tanh_c,
            });
            out.push(new_h);
        }
        out
    }

    /// Full BPTT given `∂L/∂h_t` for every step; accumulates parameter
    /// gradients and returns `∂L/∂x_t` per step.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_seq` or with a mismatched number of
    /// step gradients.
    pub fn backward_seq(&mut self, dhs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(dhs.len(), self.cache.len(), "gradient steps != forward steps");
        let t_len = dhs.len();
        if t_len == 0 {
            return Vec::new();
        }
        let batch = dhs[0].shape()[0];
        let mut dxs = vec![Tensor::default(); t_len];
        let mut dh_rec = Tensor::zeros(&[batch, self.h]);
        let mut dc_next = Tensor::zeros(&[batch, self.h]);
        for t in (0..t_len).rev() {
            let cache = &self.cache[t];
            let mut dh = dhs[t].clone();
            dh.axpy(1.0, &dh_rec).expect("shape");
            let [i, f, g_, o] = &cache.gates;
            // dc = dh ⊙ o ⊙ (1 − tanh²c) + dc_next
            let mut dc = dh
                .hadamard(o)
                .expect("shape")
                .zip_map(&cache.tanh_c, |a, tc| a * (1.0 - tc * tc))
                .expect("shape");
            dc.axpy(1.0, &dc_next).expect("shape");
            // Pre-activation gate gradients.
            let dz_o = dh
                .hadamard(&cache.tanh_c)
                .expect("shape")
                .zip_map(o, |a, ov| a * ov * (1.0 - ov))
                .expect("shape");
            let dz_f = dc
                .hadamard(&cache.c_prev)
                .expect("shape")
                .zip_map(f, |a, fv| a * fv * (1.0 - fv))
                .expect("shape");
            let dz_i = dc
                .hadamard(g_)
                .expect("shape")
                .zip_map(i, |a, iv| a * iv * (1.0 - iv))
                .expect("shape");
            let dz_g = dc
                .hadamard(i)
                .expect("shape")
                .zip_map(g_, |a, gv| a * (1.0 - gv * gv))
                .expect("shape");
            dc_next = dc.hadamard(f).expect("shape");

            let mut dx = Tensor::zeros(&[batch, self.d]);
            let mut dh_prev = Tensor::zeros(&[batch, self.h]);
            for (gi, dz) in [&dz_i, &dz_f, &dz_g, &dz_o].into_iter().enumerate() {
                let gate = &mut self.gates[gi];
                crate::linear::accumulate_bias_grad(&mut gate.bias.grad, dz);
                dx.axpy(1.0, &gate.wx.backward(&cache.x, dz)).expect("shape");
                dh_prev.axpy(1.0, &gate.wh.backward(&cache.h_prev, dz)).expect("shape");
            }
            dxs[t] = dx;
            dh_rec = dh_prev;
        }
        dxs
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::stats::rel_error;

    #[test]
    fn lstm_forward_shapes_and_state_flow() {
        let mut lstm = LstmLayer::new(5, 7, BlockRank::Full, 1).unwrap();
        let xs: Vec<Tensor> = (0..4).map(|t| Tensor::randn(&[2, 5], 1.0, t)).collect();
        let hs = lstm.forward_seq(&xs);
        assert_eq!(hs.len(), 4);
        assert!(hs.iter().all(|h| h.shape() == [2, 7]));
        // Hidden state evolves: consecutive steps differ.
        assert!(rel_error(&hs[0], &hs[1]) > 1e-4);
    }

    #[test]
    fn lstm_bptt_gradcheck_input() {
        let mut lstm = LstmLayer::new(3, 4, BlockRank::Full, 2).unwrap();
        let xs: Vec<Tensor> = (0..3).map(|t| Tensor::randn(&[2, 3], 0.5, 10 + t)).collect();
        let hs = lstm.forward_seq(&xs);
        let dhs: Vec<Tensor> =
            hs.iter().map(|h| Tensor::rand_uniform(h.shape(), -1.0, 1.0, 99)).collect();
        let _ = lstm.forward_seq(&xs);
        let dxs = lstm.backward_seq(&dhs);

        let eps = 1e-2;
        let objective = |lstm: &mut LstmLayer, xs: &[Tensor]| -> f32 {
            let hs = lstm.forward_seq(xs);
            hs.iter().zip(&dhs).map(|(h, k)| h.dot(k).unwrap()).sum()
        };
        for t in 0..3 {
            for idx in 0..xs[t].len() {
                let mut xs2: Vec<Tensor> = xs.to_vec();
                xs2[t].as_mut_slice()[idx] += eps;
                let fp = objective(&mut lstm, &xs2);
                xs2[t].as_mut_slice()[idx] -= 2.0 * eps;
                let fm = objective(&mut lstm, &xs2);
                let num = (fp - fm) / (2.0 * eps);
                let ana = dxs[t].as_slice()[idx];
                assert!((num - ana).abs() < 2e-2, "t={t} idx={idx}: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn lstm_bptt_gradcheck_params_low_rank() {
        let mut lstm = LstmLayer::new(3, 3, BlockRank::LowRank(2), 3).unwrap();
        let xs: Vec<Tensor> = (0..2).map(|t| Tensor::randn(&[1, 3], 0.5, 20 + t)).collect();
        let hs = lstm.forward_seq(&xs);
        let dhs: Vec<Tensor> =
            hs.iter().map(|h| Tensor::rand_uniform(h.shape(), -1.0, 1.0, 98)).collect();
        lstm.zero_grad();
        let _ = lstm.forward_seq(&xs);
        let _ = lstm.backward_seq(&dhs);
        let analytic: Vec<Tensor> = lstm.params().iter().map(|p| p.grad.clone()).collect();

        let eps = 1e-2;
        for (pi, analytic_p) in analytic.iter().enumerate() {
            for idx in 0..analytic_p.len().min(6) {
                let orig = lstm.params()[pi].value.as_slice()[idx];
                lstm.params_mut()[pi].value.as_mut_slice()[idx] = orig + eps;
                let fp: f32 =
                    lstm.forward_seq(&xs).iter().zip(&dhs).map(|(h, k)| h.dot(k).unwrap()).sum();
                lstm.params_mut()[pi].value.as_mut_slice()[idx] = orig - eps;
                let fm: f32 =
                    lstm.forward_seq(&xs).iter().zip(&dhs).map(|(h, k)| h.dot(k).unwrap()).sum();
                lstm.params_mut()[pi].value.as_mut_slice()[idx] = orig;
                let num = (fp - fm) / (2.0 * eps);
                let ana = analytic_p.as_slice()[idx];
                assert!((num - ana).abs() < 2e-2, "param {pi} idx {idx}: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn param_count_matches_table1() {
        let (d, h, r) = (20usize, 16usize, 4usize);
        let full = LstmLayer::new(d, h, BlockRank::Full, 1).unwrap();
        assert_eq!(full.param_count(), 4 * (d * h + h * h) + 4 * h);
        let lr = LstmLayer::new(d, h, BlockRank::LowRank(r), 1).unwrap();
        assert_eq!(lr.param_count(), 4 * d * r + 12 * h * r + 4 * h);
    }

    #[test]
    fn constructor_validation() {
        assert!(LstmLayer::new(0, 4, BlockRank::Full, 1).is_err());
        assert!(LstmLayer::new(4, 4, BlockRank::LowRank(5), 1).is_err());
        assert!(LstmLayer::new(4, 4, BlockRank::LowRank(0), 1).is_err());
        assert!(LstmLayer::new(6, 3, BlockRank::LowRank(4), 1).is_err()); // > min(d, h)
        assert!(LstmLayer::new(3, 6, BlockRank::LowRank(4), 1).is_err());
        assert!(LstmLayer::new(3, 6, BlockRank::LowRank(3), 1).is_ok());
    }

    #[test]
    fn empty_sequence() {
        let mut lstm = LstmLayer::new(2, 2, BlockRank::Full, 1).unwrap();
        assert!(lstm.forward_seq(&[]).is_empty());
        assert!(lstm.backward_seq(&[]).is_empty());
    }
}
