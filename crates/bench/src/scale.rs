//! Quick/full experiment scaling.
//!
//! Every experiment binary supports `--quick` (CI-sized, seconds) and
//! `--full` (the default: minutes-scale runs that produce smoother curves).

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds-scale smoke run.
    Quick,
    /// Minutes-scale run (default).
    Full,
}

impl RunScale {
    /// Parses the scale from the process arguments.
    pub fn from_env() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }

    /// Picks between the quick and full variant of a knob.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            RunScale::Quick => quick,
            RunScale::Full => full,
        }
    }

    /// Number of random seeds to average over (the paper uses 3).
    pub fn seeds(&self) -> Vec<u64> {
        self.pick(vec![1], vec![1, 2, 3])
    }
}

/// Whether the process args ask for the speed-optimized compute profile
/// (`--optimized`, the paper's appendix-J cuDNN setting).
pub fn optimized_flag() -> bool {
    std::env::args().any(|a| a == "--optimized")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects() {
        assert_eq!(RunScale::Quick.pick(1, 2), 1);
        assert_eq!(RunScale::Full.pick(1, 2), 2);
    }

    #[test]
    fn seeds_counts() {
        assert_eq!(RunScale::Quick.seeds().len(), 1);
        assert_eq!(RunScale::Full.seeds().len(), 3);
    }
}
