//! Fixture: the latent gate bug in the old awk lint. awk exited at the
//! *first* `#[cfg(test)]` line, so everything below an early test module
//! was silently unchecked. The lexer-based lint must flag the violations
//! after the module.

pub fn clean() -> u32 {
    7
}

#[cfg(test)]
mod early_tests {
    use super::*;

    #[test]
    fn fine() {
        assert_eq!(clean(), 7);
        let x: Option<u32> = Some(1);
        let _ = x.unwrap(); // exempt: inside the test module
    }
}

use std::time::Instant; // line 22: flagged by dist-no-instant (and wall-clock)

pub fn timing_hidden_from_awk() -> std::time::Duration {
    let t0 = Instant::now(); // line 25: flagged
    t0.elapsed()
}
