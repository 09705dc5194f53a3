//! Model checkpointing: export and restore the trainable state of any
//! [`Layer`] (PyTorch `state_dict` semantics, positional matching).
//!
//! Because layer parameter lists have a stable order (a [`Layer`] contract),
//! checkpoints are matched **positionally** with shape validation; names are
//! stored for human inspection and debugging.

use crate::layer::Layer;
use crate::{NnError, Result};
use puffer_tensor::io::{load_tensors, save_tensors};
use puffer_tensor::Tensor;
use std::path::Path;

/// Extracts the named parameter values of a model, followed by its
/// non-trainable buffers (BatchNorm running statistics).
pub fn state_dict<M: Layer + ?Sized>(model: &M) -> Vec<(String, Tensor)> {
    let mut entries: Vec<(String, Tensor)> = model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("{i:04}.{}", p.name), p.value.clone()))
        .collect();
    entries.extend(
        model.buffers().into_iter().enumerate().map(|(i, b)| (format!("buffer.{i:04}"), b)),
    );
    entries
}

/// Restores parameter values and buffers into a model, positionally, with
/// shape checks.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] on entry-count or shape mismatch (the
/// checkpoint came from a different architecture).
pub fn load_state_dict<M: Layer + ?Sized>(
    model: &mut M,
    entries: &[(String, Tensor)],
) -> Result<()> {
    let n_buffers = model.buffers().len();
    let n_params = model.params().len();
    if n_params + n_buffers != entries.len() {
        return Err(NnError::BadConfig {
            layer: "checkpoint",
            reason: format!(
                "checkpoint has {} entries, model has {n_params} parameters + {n_buffers} buffers",
                entries.len()
            ),
        });
    }
    let (param_entries, buffer_entries) = entries.split_at(n_params);
    {
        let mut params = model.params_mut();
        for (p, (name, value)) in params.iter_mut().zip(param_entries) {
            if p.value.shape() != value.shape() {
                return Err(NnError::BadConfig {
                    layer: "checkpoint",
                    reason: format!(
                        "shape mismatch at `{name}`: checkpoint {:?}, model {:?}",
                        value.shape(),
                        p.value.shape()
                    ),
                });
            }
        }
        for (p, (_, value)) in params.iter_mut().zip(param_entries) {
            p.value = value.clone();
        }
    }
    let buffers: Vec<Tensor> = buffer_entries.iter().map(|(_, t)| t.clone()).collect();
    model.load_buffers(&buffers);
    Ok(())
}

/// Saves a model's state to a `.puft` file.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] wrapping any I/O failure.
pub fn save<M: Layer + ?Sized, P: AsRef<Path>>(model: &M, path: P) -> Result<()> {
    let owned = state_dict(model);
    let refs: Vec<(String, &Tensor)> = owned.iter().map(|(n, t)| (n.clone(), t)).collect();
    save_tensors(path, &refs)
        .map_err(|e| NnError::BadConfig { layer: "checkpoint", reason: format!("io error: {e}") })
}

/// Loads a model's state from a `.puft` file.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] on I/O failure or architecture mismatch.
pub fn load<M: Layer + ?Sized, P: AsRef<Path>>(model: &mut M, path: P) -> Result<()> {
    let entries = load_tensors(path).map_err(|e| NnError::BadConfig {
        layer: "checkpoint",
        reason: format!("io error: {e}"),
    })?;
    load_state_dict(model, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::layer::{Mode, Sequential};
    use crate::linear::Linear;

    fn mlp(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(3, 5, true, seed).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, true, seed + 1).unwrap()),
        ])
    }

    #[test]
    fn state_dict_round_trip() {
        let a = mlp(1);
        let mut b = mlp(2);
        let x = Tensor::randn(&[2, 3], 1.0, 3);
        let mut a = a;
        let ya = a.forward(&x, Mode::Eval);
        assert_ne!(ya, b.forward(&x, Mode::Eval));
        load_state_dict(&mut b, &state_dict(&a)).unwrap();
        assert_eq!(ya, b.forward(&x, Mode::Eval));
    }

    #[test]
    fn file_round_trip() {
        let mut a = mlp(4);
        let path = std::env::temp_dir().join("puffer_ckpt_test.puft");
        save(&a, &path).unwrap();
        let mut b = mlp(9);
        load(&mut b, &path).unwrap();
        let x = Tensor::randn(&[1, 3], 1.0, 5);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn architecture_mismatch_rejected() {
        let a = mlp(1);
        let mut small = Sequential::new(vec![Box::new(Linear::new(3, 5, true, 1).unwrap())]);
        let err = load_state_dict(&mut small, &state_dict(&a)).unwrap_err();
        assert!(err.to_string().contains("entries"));

        let mut wrong_shape = Sequential::new(vec![
            Box::new(Linear::new(3, 4, true, 1).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 2, true, 2).unwrap()),
        ]);
        let err = load_state_dict(&mut wrong_shape, &state_dict(&a)).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn partial_failure_does_not_corrupt() {
        // Shape validation happens before any write: a failed load leaves
        // the model untouched.
        let a = mlp(1);
        let mut b = Sequential::new(vec![
            Box::new(Linear::new(3, 4, true, 7).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 2, true, 8).unwrap()),
        ]);
        let before = state_dict(&b);
        assert!(load_state_dict(&mut b, &state_dict(&a)).is_err());
        assert_eq!(state_dict(&b), before);
    }
}
