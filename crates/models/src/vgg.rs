//! Runnable VGG models (VGG-11 / VGG-19 style) with Pufferfish hybrid
//! conversion.
//!
//! The full-scale VGG-19 is described exactly in [`crate::spec`]; the
//! runnable models here use a width multiplier so the paper's experiments
//! can be exercised end-to-end on CPU while keeping the architecture's
//! shape (stage structure, pooling schedule, classifier head, hybrid-K
//! semantics).

use crate::units::{rank_for, ConvBnUnit, FactorInit, FcKind};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::param::Param;
use puffer_nn::pool::{Flatten, MaxPool2d};
use puffer_nn::Result;
use puffer_tensor::Tensor;

/// Configuration of a runnable VGG.
#[derive(Debug, Clone, PartialEq)]
pub struct VggConfig {
    /// Channels of each conv, grouped into stages (a max-pool follows each
    /// stage).
    pub stages: Vec<Vec<usize>>,
    /// Hidden FC widths of the classifier (the final class FC is implicit).
    pub fc_hidden: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// Input image side (32 for the CIFAR-like task).
    pub input_size: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl VggConfig {
    /// A width-scaled VGG-11 (`scale = 1.0` gives the paper's channel
    /// counts: 64-128-256×2-512×2-512×2).
    pub fn vgg11(scale: f32, classes: usize, seed: u64) -> Self {
        let s = |c: usize| ((c as f32 * scale).round() as usize).max(4);
        VggConfig {
            stages: vec![
                vec![s(64)],
                vec![s(128)],
                vec![s(256), s(256)],
                vec![s(512), s(512)],
                vec![s(512), s(512)],
            ],
            fc_hidden: vec![s(512), s(512)],
            classes,
            input_size: 32,
            seed,
        }
    }

    /// A width-scaled VGG-19 (16 convs; `scale = 1.0` is the paper's model).
    pub fn vgg19(scale: f32, classes: usize, seed: u64) -> Self {
        let s = |c: usize| ((c as f32 * scale).round() as usize).max(4);
        VggConfig {
            stages: vec![
                vec![s(64), s(64)],
                vec![s(128), s(128)],
                vec![s(256), s(256), s(256), s(256)],
                vec![s(512), s(512), s(512), s(512)],
                vec![s(512), s(512), s(512), s(512)],
            ],
            fc_hidden: vec![s(512), s(512)],
            classes,
            input_size: 32,
            seed,
        }
    }

    /// Total number of factorizable layers (convs + hidden FCs); the last
    /// class FC is never factorized (paper §3).
    pub fn factorizable_layers(&self) -> usize {
        self.stages.iter().map(Vec::len).sum::<usize>() + self.fc_hidden.len()
    }
}

/// A runnable VGG network.
pub struct Vgg {
    config: VggConfig,
    conv_units: Vec<ConvBnUnit>,
    pool_after: Vec<bool>,
    pools: Vec<MaxPool2d>,
    flatten: Flatten,
    fc_units: Vec<FcKind>,
    fc_relu_masks: Vec<Option<Vec<bool>>>,
    classifier: Linear,
}

impl Vgg {
    /// Builds the vanilla (full-rank) network.
    ///
    /// # Errors
    ///
    /// Propagates layer construction errors.
    pub fn new(config: VggConfig) -> Result<Self> {
        let mut conv_units = Vec::new();
        let mut pool_after = Vec::new();
        let mut pools = Vec::new();
        let mut c_in = 3usize;
        let mut seed = config.seed;
        for stage in &config.stages {
            for (i, &c_out) in stage.iter().enumerate() {
                conv_units.push(ConvBnUnit::dense(c_in, c_out, 3, 1, 1, true, seed)?);
                seed = seed.wrapping_add(1);
                pool_after.push(i + 1 == stage.len());
                c_in = c_out;
            }
            pools.push(MaxPool2d::new(2, 2));
        }
        // After len(stages) pools of stride 2 on input_size.
        let final_hw = config.input_size >> config.stages.len();
        let mut feat = c_in * final_hw * final_hw;
        let mut fc_units = Vec::new();
        for &h in &config.fc_hidden {
            fc_units.push(FcKind::Dense(Linear::new(feat, h, true, seed)?));
            seed = seed.wrapping_add(1);
            feat = h;
        }
        let classifier = Linear::new(feat, config.classes, true, seed)?;
        let n_fc = fc_units.len();
        Ok(Vgg {
            config,
            conv_units,
            pool_after,
            pools,
            flatten: Flatten::new(),
            fc_units,
            fc_relu_masks: (0..n_fc).map(|_| None).collect(),
            classifier,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// Converts to the Pufferfish hybrid: layers with 1-based index
    /// `>= first_low_rank` are factorized at `rank_ratio × c_out`
    /// (classifier excluded). `first_low_rank = 1` gives the fully-low-rank
    /// network of Figure 2.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn to_hybrid(
        &self,
        first_low_rank: usize,
        rank_ratio: f32,
        init: FactorInit,
    ) -> Result<Self> {
        let mut conv_units = Vec::new();
        for (i, unit) in self.conv_units.iter().enumerate() {
            let idx = i + 1;
            if idx >= first_low_rank {
                let (c_in, c_out, k, _, _) = unit.conv.geometry();
                let rank = rank_for(c_out, rank_ratio, (c_in * k * k).min(c_out));
                conv_units.push(unit.to_low_rank(rank, init)?);
            } else {
                conv_units.push(unit.clone_dense()?);
            }
        }
        let n_convs = self.conv_units.len();
        let mut fc_units = Vec::new();
        for (j, fc) in self.fc_units.iter().enumerate() {
            let idx = n_convs + j + 1;
            if idx >= first_low_rank {
                let (fin, fout) = fc.dims();
                let rank = rank_for(fout, rank_ratio, fin.min(fout));
                fc_units.push(fc.to_low_rank(rank, init)?);
            } else {
                fc_units.push(clone_fc(fc)?);
            }
        }
        let classifier = Linear::from_weights(
            self.classifier.weight().clone(),
            self.classifier.bias().cloned(),
        )?;
        let n_fc = fc_units.len();
        Ok(Vgg {
            config: self.config.clone(),
            conv_units,
            pool_after: self.pool_after.clone(),
            pools: self.config.stages.iter().map(|_| MaxPool2d::new(2, 2)).collect(),
            flatten: Flatten::new(),
            fc_units,
            fc_relu_masks: (0..n_fc).map(|_| None).collect(),
            classifier,
        })
    }

    /// Number of factorized layers (for tests and reporting).
    pub fn low_rank_layer_count(&self) -> usize {
        self.conv_units.iter().filter(|u| u.conv.is_low_rank()).count()
            + self.fc_units.iter().filter(|f| f.is_low_rank()).count()
    }
}

fn clone_fc(fc: &FcKind) -> Result<FcKind> {
    match fc {
        FcKind::Dense(l) => {
            Ok(FcKind::Dense(Linear::from_weights(l.weight().clone(), l.bias().cloned())?))
        }
        FcKind::LowRank(_) => Err(puffer_nn::NnError::BadConfig {
            layer: "Vgg",
            reason: "cannot deep-copy an already-hybrid FC".into(),
        }),
    }
}

impl Layer for Vgg {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        let mut pool_idx = 0;
        for (unit, &pool) in self.conv_units.iter_mut().zip(&self.pool_after) {
            x = unit.forward(&x, mode);
            if pool {
                x = self.pools[pool_idx].forward(&x, mode);
                pool_idx += 1;
            }
        }
        x = self.flatten.forward(&x, mode);
        for (i, fc) in self.fc_units.iter_mut().enumerate() {
            x = fc.forward(&x, mode);
            if mode == Mode::Train {
                self.fc_relu_masks[i] = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
            }
            x.map_inplace(|v| v.max(0.0));
        }
        self.classifier.forward(&x, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_with_ready(grad_output, &mut |_| {})
    }

    fn backward_with_ready(
        &mut self,
        grad_output: &Tensor,
        on_ready: &mut dyn FnMut(usize),
    ) -> Tensor {
        // Parameters are ordered conv units, FC units, classifier and
        // backward runs them in reverse: once a child returns, every tensor
        // from its first one on holds its final gradient.
        let mut first = self.params().len() - self.classifier.params().len();
        let mut g = self.classifier.backward(grad_output);
        on_ready(first);
        for (i, fc) in self.fc_units.iter_mut().enumerate().rev() {
            let mask = self.fc_relu_masks[i].as_ref().expect("backward before train-mode forward");
            for (gv, &m) in g.as_mut_slice().iter_mut().zip(mask) {
                if !m {
                    *gv = 0.0;
                }
            }
            g = fc.backward(&g);
            first -= fc.params().len();
            on_ready(first);
        }
        g = self.flatten.backward(&g);
        let mut pool_idx = self.pools.len();
        for (unit, &pool) in self.conv_units.iter_mut().zip(&self.pool_after).rev() {
            if pool {
                pool_idx -= 1;
                g = self.pools[pool_idx].backward(&g);
            }
            g = unit.backward(&g);
            first -= unit.params().len();
            on_ready(first);
        }
        g
    }

    fn params(&self) -> Vec<&Param> {
        let mut v: Vec<&Param> = self.conv_units.iter().flat_map(|u| u.params()).collect();
        v.extend(self.fc_units.iter().flat_map(|f| f.params()));
        v.extend(self.classifier.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> =
            self.conv_units.iter_mut().flat_map(|u| u.params_mut()).collect();
        v.extend(self.fc_units.iter_mut().flat_map(|f| f.params_mut()));
        v.extend(self.classifier.params_mut());
        v
    }

    fn describe(&self) -> String {
        format!(
            "Vgg({} convs, {} FCs, {} low-rank layers)",
            self.conv_units.len(),
            self.fc_units.len() + 1,
            self.low_rank_layer_count()
        )
    }

    fn buffers(&self) -> Vec<Tensor> {
        self.conv_units.iter().flat_map(|u| u.buffers()).collect()
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        let mut off = 0;
        for u in &mut self.conv_units {
            let n = u.buffers().len();
            u.load_buffers(&buffers[off..off + n]);
            off += n;
        }
        assert_eq!(off, buffers.len(), "buffer count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::stats::rel_error;

    fn tiny_vgg() -> Vgg {
        Vgg::new(VggConfig::vgg11(0.0625, 4, 1)).unwrap() // 4-8-16-32-32 channels
    }

    #[test]
    fn forward_backward_shapes() {
        let mut vgg = tiny_vgg();
        let x = Tensor::randn(&[2, 3, 32, 32], 1.0, 2);
        let y = vgg.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 4]);
        let g = vgg.backward(&Tensor::ones(&[2, 4]));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn backward_announces_readiness_layer_by_layer() {
        // VGG-11: classifier, the two hidden FCs, then the eight conv units
        // last to first.
        let mut vgg = tiny_vgg();
        let mut children: Vec<usize> = vgg.conv_units.iter().map(|u| u.params().len()).collect();
        children.extend(vgg.fc_units.iter().map(|f| f.params().len()));
        children.push(vgg.classifier.params().len());
        assert_eq!(children.len(), 11);
        let x = Tensor::randn(&[2, 3, 32, 32], 1.0, 2);
        crate::units::tests::assert_announces_children_in_reverse(&mut vgg, &children, &x);
    }

    #[test]
    fn hybrid_k_controls_factorized_count() {
        let vgg = tiny_vgg(); // VGG-11: 8 convs + 2 hidden FCs = 10 factorizable
        assert_eq!(vgg.config().factorizable_layers(), 10);
        let h = vgg.to_hybrid(9, 0.25, FactorInit::Random(3)).unwrap();
        assert_eq!(h.low_rank_layer_count(), 2); // layers 9, 10 (the 2 FCs)
        let h = vgg.to_hybrid(1, 0.25, FactorInit::Random(3)).unwrap();
        assert_eq!(h.low_rank_layer_count(), 10);
        let h = vgg.to_hybrid(11, 0.25, FactorInit::Random(3)).unwrap();
        assert_eq!(h.low_rank_layer_count(), 0);
    }

    #[test]
    fn hybrid_has_fewer_params() {
        let vgg = tiny_vgg();
        let h = vgg.to_hybrid(3, 0.25, FactorInit::Random(3)).unwrap();
        assert!(h.param_count() < vgg.param_count());
    }

    #[test]
    fn warm_start_hybrid_stays_close_in_eval() {
        // A full-rank-warm-started hybrid at generous rank approximates the
        // parent's logits far better than a randomly initialized hybrid.
        let mut vgg = tiny_vgg();
        let x = Tensor::randn(&[2, 3, 32, 32], 1.0, 5);
        // Populate BN running stats.
        for s in 0..3 {
            let xb = Tensor::randn(&[4, 3, 32, 32], 1.0, s);
            let _ = vgg.forward(&xb, Mode::Train);
        }
        let y = vgg.forward(&x, Mode::Eval);
        let mut warm = vgg.to_hybrid(1, 0.9, FactorInit::WarmStart).unwrap();
        let mut cold = vgg.to_hybrid(1, 0.9, FactorInit::Random(7)).unwrap();
        let ew = rel_error(&y, &warm.forward(&x, Mode::Eval));
        let ec = rel_error(&y, &cold.forward(&x, Mode::Eval));
        assert!(ew < ec, "warm {ew} vs cold {ec}");
    }

    #[test]
    fn hybrid_of_hybrid_is_rejected() {
        let vgg = tiny_vgg();
        let h = vgg.to_hybrid(1, 0.25, FactorInit::Random(3)).unwrap();
        assert!(h.to_hybrid(1, 0.25, FactorInit::Random(3)).is_err());
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut vgg = tiny_vgg();
        let x = Tensor::randn(&[2, 3, 32, 32], 1.0, 9);
        let y = vgg.forward(&x, Mode::Train);
        let (_, dy) = puffer_nn::loss::softmax_cross_entropy(&y, &[0, 1], 0.0).unwrap();
        let _ = vgg.backward(&dy);
        let nonzero =
            vgg.params().iter().filter(|p| p.grad.as_slice().iter().any(|&g| g != 0.0)).count();
        // All conv/FC weights and most BN affines receive gradient.
        assert!(nonzero as f32 > vgg.params().len() as f32 * 0.8, "{nonzero}");
    }
}
