//! Inverted dropout.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use puffer_tensor::rng::Rng;
use puffer_tensor::Tensor;

/// Inverted dropout: in training, each activation is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; evaluation is the identity.
///
/// The paper's LSTM uses `p = 0.65` and its Transformer `p = 0.1`
/// (appendix Tables 12/16).
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: Rng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        Dropout { p, rng: Rng::seed_from_u64(seed), mask: None }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> =
            (0..input.len()).map(|_| if self.rng.gen_f32() < keep { scale } else { 0.0 }).collect();
        let mut out = input.clone();
        for (o, m) in out.as_mut_slice().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_output.clone(),
            Some(mask) => {
                assert_eq!(mask.len(), grad_output.len(), "Dropout gradient shape mismatch");
                let mut g = grad_output.clone();
                for (gv, m) in g.as_mut_slice().iter_mut().zip(mask) {
                    *gv *= m;
                }
                g
            }
        }
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn describe(&self) -> String {
        format!("Dropout(p={})", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::randn(&[10], 1.0, 2);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 3);
        let x = Tensor::ones(&[100_000]);
        let y = d.forward(&x, Mode::Train);
        let mean = puffer_tensor::stats::mean(&y);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones(&[64]));
        // Gradient zero exactly where output is zero, scaled where kept.
        for (yo, go) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(yo, go);
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0, 1);
    }
}
