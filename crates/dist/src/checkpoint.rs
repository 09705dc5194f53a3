//! Checkpoint/resume for data-parallel training.
//!
//! A [`DistCheckpoint`] freezes everything the synchronous-SGD state
//! machine needs to continue **bitwise identically**: parameter values,
//! SGD momentum, and the gradient compressor's cross-round state (PowerSGD
//! error-feedback memory and warm-started query matrices — Vogels et al.
//! stress that error feedback must survive restarts, or the compression
//! bias it corrects comes back). Checkpoints are written by the aggregator
//! every `K` steps (see [`CheckpointPolicy`]) in the `PUFT` tensor
//! container, so they share the format of model checkpoints.
//!
//! A checkpoint taken after step `s` records `step = s + 1` — the index of
//! the first batch a resumed run must process.

use crate::error::{DistError, DistResult};
use puffer_tensor::io::{load_tensors, save_tensors};
use puffer_tensor::Tensor;
use std::path::{Path, PathBuf};

const META_NAME: &str = "dist.meta";
const MEMBERS_NAME: &str = "dist.members";
const PARAM_PREFIX: &str = "param.";
const VEL_PREFIX: &str = "vel.";
const BUF_PREFIX: &str = "buf.";
const COMP_PREFIX: &str = "comp.";

/// When and where the trainer writes checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every `every` steps (`0` disables checkpointing).
    pub every: usize,
    /// Directory receiving `dist_ckpt_<step>.puft` files.
    pub dir: Option<PathBuf>,
}

impl CheckpointPolicy {
    /// No checkpointing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Checkpoint every `every` steps into `dir`.
    pub fn every<P: Into<PathBuf>>(every: usize, dir: P) -> Self {
        CheckpointPolicy { every, dir: Some(dir.into()) }
    }

    /// Whether the policy actually checkpoints.
    pub fn is_enabled(&self) -> bool {
        self.every > 0 && self.dir.is_some()
    }

    /// The file path for the checkpoint whose first unprocessed step is
    /// `step`.
    pub fn path_for(&self, step: usize) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("dist_ckpt_{step:06}.puft")))
    }
}

/// Frozen state of a data-parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistCheckpoint {
    /// Index of the first global batch a resumed run must process.
    pub step: usize,
    /// Parameter values (identical on every replica).
    pub params: Vec<Tensor>,
    /// SGD momentum buffers, positionally matching `params` (empty if the
    /// checkpoint was taken before the first update).
    pub velocity: Vec<Tensor>,
    /// Non-trainable model buffers (BatchNorm running statistics).
    pub buffers: Vec<Tensor>,
    /// The compressor's cross-round state
    /// ([`puffer_compress::GradCompressor::state_snapshot`]).
    pub compressor: Vec<(String, Tensor)>,
    /// Active member ids at `step` (ascending). Empty means the
    /// checkpoint predates elastic membership (or was taken by a
    /// static-fleet run): a resumed run then activates all
    /// `DistConfig::workers` ids, the pre-elastic behavior.
    pub members: Vec<usize>,
    /// Membership epoch at `step` (0 for legacy checkpoints); a resumed
    /// run continues the epoch sequence from here.
    pub epoch: u64,
}

impl DistCheckpoint {
    /// Serializes the checkpoint to a `PUFT` file.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Checkpoint`] on I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> DistResult<()> {
        // Steps, counts, and the epoch are stored as f32 (exact below
        // 2^24 — far beyond any run this trainer simulates).
        let meta = Tensor::from_vec(
            vec![
                self.step as f32,
                self.params.len() as f32,
                self.velocity.len() as f32,
                self.buffers.len() as f32,
                self.epoch as f32,
                self.members.len() as f32,
            ],
            &[6],
        )
        .map_err(|e| DistError::Checkpoint { reason: e.to_string() })?;
        let members_t = if self.members.is_empty() {
            None
        } else {
            let ids: Vec<f32> = self.members.iter().map(|&w| w as f32).collect();
            let n = ids.len();
            Some(
                Tensor::from_vec(ids, &[n])
                    .map_err(|e| DistError::Checkpoint { reason: e.to_string() })?,
            )
        };
        let mut entries: Vec<(String, &Tensor)> = vec![(META_NAME.to_string(), &meta)];
        if let Some(t) = &members_t {
            entries.push((MEMBERS_NAME.to_string(), t));
        }
        for (i, t) in self.params.iter().enumerate() {
            entries.push((format!("{PARAM_PREFIX}{i:04}"), t));
        }
        for (i, t) in self.velocity.iter().enumerate() {
            entries.push((format!("{VEL_PREFIX}{i:04}"), t));
        }
        for (i, t) in self.buffers.iter().enumerate() {
            entries.push((format!("{BUF_PREFIX}{i:04}"), t));
        }
        for (name, t) in &self.compressor {
            entries.push((format!("{COMP_PREFIX}{name}"), t));
        }
        save_tensors(path, &entries).map_err(|e| DistError::Checkpoint { reason: e.to_string() })
    }

    /// Loads a checkpoint from a `PUFT` file.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Checkpoint`] on I/O failure or a malformed
    /// container.
    pub fn load<P: AsRef<Path>>(path: P) -> DistResult<Self> {
        let entries =
            load_tensors(path).map_err(|e| DistError::Checkpoint { reason: e.to_string() })?;
        let meta = entries
            .iter()
            .find(|(n, _)| n == META_NAME)
            .ok_or_else(|| DistError::Checkpoint { reason: "missing meta entry".into() })?;
        let m = meta.1.as_slice();
        // Legacy (pre-elastic) checkpoints carry a 4-entry meta tensor:
        // no epoch, no member list. They load as epoch 0 / empty members,
        // which the trainer interprets as "all configured workers".
        if m.len() != 4 && m.len() != 6 {
            return Err(DistError::Checkpoint { reason: "malformed meta entry".into() });
        }
        #[expect(clippy::indexing_slicing, reason = "len is 4 or 6, checked above")]
        let (step, n_params, n_vel, n_buf) =
            (m[0] as usize, m[1] as usize, m[2] as usize, m[3] as usize);
        #[expect(clippy::indexing_slicing, reason = "guarded by the len == 6 test")]
        let (epoch, n_members) = if m.len() == 6 { (m[4] as u64, m[5] as usize) } else { (0, 0) };
        let mut params = vec![None; n_params];
        let mut velocity = vec![None; n_vel];
        let mut buffers = vec![None; n_buf];
        let mut compressor = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        for (name, t) in entries {
            if name == MEMBERS_NAME {
                members = t.as_slice().iter().map(|&v| v as usize).collect();
            } else if let Some(i) = parse_index(&name, PARAM_PREFIX) {
                if let Some(slot) = params.get_mut(i) {
                    *slot = Some(t);
                }
            } else if let Some(i) = parse_index(&name, VEL_PREFIX) {
                if let Some(slot) = velocity.get_mut(i) {
                    *slot = Some(t);
                }
            } else if let Some(i) = parse_index(&name, BUF_PREFIX) {
                if let Some(slot) = buffers.get_mut(i) {
                    *slot = Some(t);
                }
            } else if let Some(rest) = name.strip_prefix(COMP_PREFIX) {
                compressor.push((rest.to_string(), t));
            }
        }
        let params: Option<Vec<Tensor>> = params.into_iter().collect();
        let velocity: Option<Vec<Tensor>> = velocity.into_iter().collect();
        let buffers: Option<Vec<Tensor>> = buffers.into_iter().collect();
        if members.len() != n_members {
            return Err(DistError::Checkpoint { reason: "malformed member list".into() });
        }
        match (params, velocity, buffers) {
            (Some(params), Some(velocity), Some(buffers)) => {
                Ok(DistCheckpoint { step, params, velocity, buffers, compressor, members, epoch })
            }
            _ => Err(DistError::Checkpoint { reason: "missing param/velocity entries".into() }),
        }
    }
}

fn parse_index(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix).and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistCheckpoint {
        DistCheckpoint {
            step: 12,
            params: vec![Tensor::randn(&[3, 4], 1.0, 1), Tensor::randn(&[4], 1.0, 2)],
            velocity: vec![Tensor::randn(&[3, 4], 0.1, 3), Tensor::randn(&[4], 0.1, 4)],
            buffers: vec![Tensor::randn(&[4], 1.0, 7)],
            compressor: vec![
                ("q.0000".into(), Tensor::randn(&[4, 2], 1.0, 5)),
                ("m.00.0000".into(), Tensor::randn(&[3, 4], 1.0, 6)),
            ],
            members: vec![0, 2, 5],
            epoch: 4,
        }
    }

    #[test]
    fn round_trip_is_bitwise() {
        let ck = sample();
        let path = std::env::temp_dir().join("puffer_dist_ckpt_test.puft");
        ck.save(&path).unwrap();
        let back = DistCheckpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_velocity_and_compressor_allowed() {
        let ck = DistCheckpoint {
            step: 0,
            params: vec![Tensor::ones(&[2])],
            velocity: Vec::new(),
            buffers: Vec::new(),
            compressor: Vec::new(),
            members: Vec::new(),
            epoch: 0,
        };
        let path = std::env::temp_dir().join("puffer_dist_ckpt_empty.puft");
        ck.save(&path).unwrap();
        assert_eq!(DistCheckpoint::load(&path).unwrap(), ck);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_four_entry_meta_loads_with_empty_membership() {
        // A pre-elastic checkpoint: 4-long meta, no member entry. It must
        // load as epoch 0 / empty members (= "all configured workers").
        use puffer_tensor::io::save_tensors;
        let meta = Tensor::from_vec(vec![3.0, 1.0, 0.0, 0.0], &[4]).unwrap();
        let p = Tensor::randn(&[2, 2], 1.0, 8);
        let path = std::env::temp_dir().join("puffer_dist_ckpt_legacy.puft");
        save_tensors(&path, &[("dist.meta".to_string(), &meta), ("param.0000".to_string(), &p)])
            .unwrap();
        let ck = DistCheckpoint::load(&path).unwrap();
        assert_eq!(ck.step, 3);
        assert_eq!(ck.params, vec![p]);
        assert!(ck.members.is_empty());
        assert_eq!(ck.epoch, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = DistCheckpoint::load("/nonexistent/nope.puft").unwrap_err();
        assert!(matches!(err, DistError::Checkpoint { .. }));
    }

    #[test]
    fn policy_paths_and_enablement() {
        assert!(!CheckpointPolicy::disabled().is_enabled());
        let p = CheckpointPolicy::every(5, "/tmp/ckpts");
        assert!(p.is_enabled());
        assert_eq!(p.path_for(30).unwrap().file_name().unwrap(), "dist_ckpt_000030.puft");
    }
}
