//! Command-line arguments and quick/full experiment scaling.
//!
//! Every experiment takes the same [`Args`]: `--quick` (CI-sized, seconds;
//! the default is minutes-scale runs that produce smoother curves),
//! `--verbose`, `--out FILE`, and for the two file tools
//! (`diff`, `insight`) their input paths.

use std::path::PathBuf;

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds-scale smoke run.
    Quick,
    /// Minutes-scale run (default).
    Full,
}

impl RunScale {
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

/// What the command line asked of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--quick` or the full-length default.
    pub scale: RunScale,
    /// `--verbose`: `appendix-architectures` prints every per-layer ledger.
    pub verbose: bool,
    /// `--out FILE`: append the run's record to `FILE` as one JSON line.
    pub out: Option<PathBuf>,
    /// Positional operands (`diff A B`, `insight TRACE [METRICS]`); those two
    /// check their own count, every other experiment ignores them.
    pub paths: Vec<PathBuf>,
}

impl Args {
    /// No flags: a full-length run that writes nothing.
    pub fn full() -> Self {
        Args { scale: RunScale::Full, verbose: false, out: None, paths: vec![] }
    }

    /// `--quick` alone.
    pub fn quick() -> Self {
        Args { scale: RunScale::Quick, ..Args::full() }
    }

    /// Parses everything after the experiment name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown flag, or `--out` without its path.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args::full();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.scale = RunScale::Quick,
                "--verbose" => parsed.verbose = true,
                "--out" => match args.next() {
                    Some(path) => parsed.out = Some(PathBuf::from(path)),
                    None => return Err("--out needs a file path".into()),
                },
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => parsed.paths.push(PathBuf::from(arg)),
            }
        }
        Ok(parsed)
    }
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

    #[test]
    fn parse_takes_the_three_flags_and_rejects_the_rest() {
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Args::parse(strings(&[])), Ok(Args::full()));
        assert_eq!(Args::parse(strings(&["--quick"])), Ok(Args::quick()));
        let all =
            Args::parse(strings(&["a.json", "--out", "r.jsonl", "--verbose"])).expect("valid");
        assert!(all.verbose && all.scale == RunScale::Full);
        assert_eq!(all.out, Some(PathBuf::from("r.jsonl")));
        assert_eq!(all.paths, vec![PathBuf::from("a.json")]);
        // The retired spellings are errors, not silently ignored.
        for gone in ["--check", "--smoke", "--full", "--threshold"] {
            assert!(Args::parse(strings(&[gone])).is_err(), "{gone}");
        }
        assert!(Args::parse(strings(&["--out"])).is_err());
    }
}
