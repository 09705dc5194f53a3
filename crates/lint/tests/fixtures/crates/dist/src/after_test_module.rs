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

pub fn accumulation_hidden_from_awk(mean: &mut [f32], grad: &[f32]) {
    for i in 0..grad.len() {
        mean[i] += grad[i]; // line 24: flagged by bucket-apply-order-pinned
    }
}
