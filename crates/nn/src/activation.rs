//! Element-wise activation layers.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use puffer_tensor::Tensor;

/// Rectified linear unit `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    /// The train-mode output: `y > 0` exactly where `x > 0`, so it doubles
    /// as the backward mask, and being a tensor it lives in the arena.
    cached_output: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_output: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = input.map(|x| x.max(0.0));
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("backward before train-mode forward");
        grad_output
            .zip_map(y, |g, y| if y > 0.0 { g } else { 0.0 })
            .expect("Relu gradient shape mismatch")
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn describe(&self) -> String {
        "Relu".into()
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Tanh { cached_output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = input.map(f32::tanh);
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("backward before train-mode forward");
        grad_output.zip_map(y, |g, y| g * (1.0 - y * y)).expect("Tanh gradient shape mismatch")
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn describe(&self) -> String {
        "Tanh".into()
    }
}

/// Numerically stable logistic sigmoid on a scalar.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_input_check;

    #[test]
    fn relu_forward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(r.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        let _ = r.forward(&x, Mode::Train);
        let g = r.backward(&Tensor::from_vec(vec![5.0, 5.0], &[2]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut t = Tanh::new();
        let x = Tensor::randn(&[2, 3], 1.0, 1);
        assert!(finite_diff_input_check(&mut t, &x, 1e-3) < 1e-2);
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(-1000.0).is_finite());
    }
}
