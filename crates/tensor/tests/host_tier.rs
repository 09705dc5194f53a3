//! A CPU that has the 512-bit tier's features runs it. The tier a fresh
//! process resolves must be the widest the CPU reports — AVX-512F with AVX2
//! and FMA, then AVX2 with FMA — unless `PUFFER_SIMD=0` forces the scalar
//! loops, so a detection that silently falls back fails here instead of
//! only running slower. Alone in its binary: no other test has set the
//! tier before it reads it.

use puffer_tensor::gemm::{Isa, Tier};

#[test]
fn a_fresh_process_runs_the_widest_tier_the_cpu_reports() {
    let forced_off =
        std::env::var("PUFFER_SIMD").is_ok_and(|v| matches!(v.trim(), "0" | "false" | "off"));
    #[cfg(target_arch = "x86_64")]
    let reported = match (
        is_x86_feature_detected!("avx512f"),
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
    ) {
        (true, true) => Tier::Avx512,
        (_, true) => Tier::Avx2,
        _ => Tier::Scalar,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let reported = Tier::Scalar;
    let want = if forced_off { Tier::Scalar } else { reported };
    assert_eq!(Isa::current().tier(), want, "PUFFER_SIMD forced off: {forced_off}");
}
