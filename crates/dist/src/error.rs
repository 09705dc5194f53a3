//! Typed errors for the distributed substrate.
//!
//! The trainer used to `.expect()` every channel operation, so a dead or
//! misbehaving worker took the whole process down. Every fault the fault
//! layer can inject — and every invalid configuration — now surfaces as a
//! [`DistError`] instead of a panic, so callers (and the bench harness) can
//! distinguish "the cluster degraded but training finished" from "the run
//! is unrecoverable".

use std::fmt;

/// Result alias for distributed operations.
pub type DistResult<T> = Result<T, DistError>;

/// Everything that can go wrong in a data-parallel run.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A [`crate::trainer::DistConfig`] field is invalid (zero workers,
    /// non-finite hyper-parameters, inconsistent profile).
    InvalidConfig {
        /// Human-readable description of the offending field.
        reason: String,
    },
    /// A global batch has fewer rows than there are workers, so at least
    /// one shard would be empty.
    BatchTooSmall {
        /// Rows in the batch.
        rows: usize,
        /// Configured worker count.
        workers: usize,
    },
    /// Extracting a worker's shard failed (shape arithmetic).
    Shard {
        /// Underlying tensor error.
        reason: String,
    },
    /// A worker hit an unrecoverable error (bad labels, resume-state
    /// mismatch) and reported it before shutting down.
    WorkerFailed {
        /// Reporting worker.
        worker: usize,
        /// What the worker saw.
        reason: String,
    },
    /// A worker thread panicked (e.g. inside the user's model factory).
    WorkerPanicked,
    /// Every worker crashed; there is no survivor to continue with.
    AllWorkersDead {
        /// Global step at which the last worker was lost.
        step: usize,
    },
    /// Saving or loading a [`crate::checkpoint::DistCheckpoint`] failed.
    Checkpoint {
        /// Underlying I/O or format error.
        reason: String,
    },
    /// A member set references a node id outside the configured
    /// [`crate::cost::HeteroProfile`] — pricing it would silently clamp
    /// the cost model instead of describing the cluster.
    UnknownMember {
        /// The offending worker (node) id.
        worker: usize,
        /// How many nodes the profile actually configures.
        nodes: usize,
    },
    /// A membership transition was invalid (joining an active member,
    /// retiring a non-member, an inconsistent churn schedule).
    Membership {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::InvalidConfig { reason } => write!(f, "invalid DistConfig: {reason}"),
            DistError::BatchTooSmall { rows, workers } => {
                write!(f, "batch of {rows} rows cannot feed {workers} workers")
            }
            DistError::Shard { reason } => write!(f, "shard extraction failed: {reason}"),
            DistError::WorkerFailed { worker, reason } => {
                write!(f, "worker {worker} failed: {reason}")
            }
            DistError::WorkerPanicked => write!(f, "a worker thread panicked"),
            DistError::AllWorkersDead { step } => {
                write!(f, "all workers dead at step {step}; no survivors to train on")
            }
            DistError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            DistError::UnknownMember { worker, nodes } => {
                write!(f, "member set references node {worker} outside the {nodes}-node profile")
            }
            DistError::Membership { reason } => write!(f, "membership error: {reason}"),
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DistError::BatchTooSmall { rows: 2, workers: 4 };
        assert!(e.to_string().contains("cannot feed 4 workers"));
        let e = DistError::AllWorkersDead { step: 7 };
        assert!(e.to_string().contains("step 7"));
        let e = DistError::UnknownMember { worker: 9, nodes: 4 };
        assert!(e.to_string().contains("node 9"));
        assert!(e.to_string().contains("4-node"));
        let e = DistError::Membership { reason: "already active".into() };
        assert!(e.to_string().contains("already active"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(DistError::WorkerPanicked);
        assert!(e.to_string().contains("panicked"));
    }
}
