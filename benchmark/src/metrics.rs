//! The metric names this benchmark prints, with unit and direction. This is
//! the program's side of the contract in `BENCHMARK.json`; a test keeps the
//! two lists identical.

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true }
}

/// What a user of the trainers sees. Bounds live in `BENCHMARK.json`.
/// `fail_ratio` is not here: it is 0 on every healthy run, and the run's
/// `attempted`/`failed` step counts carry it instead.
pub const END_TO_END: [MetricDef; 4] = [
    higher("samples_per_s", "1/s"),
    lower("cpu_s_per_ksample", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// One layer's share of the work. Informational, never gated.
/// `trace.driver_vs_e2e_ratio` has no good direction: it is a validity
/// check that should sit near 1.
pub const PER_LAYER: [MetricDef; 72] = [
    lower("data.dataset_gen_s", "s"),
    lower("data.epoch_batches_ms", "ms"),
    lower("tensor.gemm_ms_per_step", "ms"),
    lower("tensor.gemm_calls_per_step", "count"),
    higher("tensor.gemm_gflops", "GFLOP/s"),
    higher("tensor.gemm_fullrank_gflops", "GFLOP/s"),
    higher("tensor.gemm_lowrank_gflops", "GFLOP/s"),
    lower("tensor.im2col_ms_per_step", "ms"),
    lower("tensor.col2im_ms_per_step", "ms"),
    higher("tensor.im2col_gbps", "GB/s"),
    lower("tensor.svd_s", "s"),
    lower("tensor.pool_dispatch_us", "us"),
    lower("tensor.arena_mb", "MB"),
    lower("nn.conv_fwd_ms_per_step", "ms"),
    lower("nn.conv_bwd_ms_per_step", "ms"),
    lower("nn.lowrank_conv_fwd_ms_per_step", "ms"),
    lower("nn.lowrank_conv_bwd_ms_per_step", "ms"),
    lower("nn.batchnorm_fwd_ms_per_step", "ms"),
    lower("nn.batchnorm_bwd_ms_per_step", "ms"),
    lower("nn.relu_ms_per_step", "ms"),
    lower("nn.pool_ms_per_step", "ms"),
    lower("nn.linear_ms_per_step", "ms"),
    lower("nn.attention_fwd_ms_per_step", "ms"),
    lower("nn.attention_bwd_ms_per_step", "ms"),
    lower("nn.layernorm_ms_per_step", "ms"),
    lower("nn.embedding_ms_per_step", "ms"),
    lower("nn.loss_ms_per_step", "ms"),
    lower("nn.clip_ms_per_step", "ms"),
    lower("nn.optim_ms_per_step", "ms"),
    lower("nn.non_gemm_share", "share"),
    lower("models.build_s", "s"),
    lower("models.fwd_ms_per_step.vanilla", "ms"),
    lower("models.bwd_ms_per_step.vanilla", "ms"),
    lower("models.zero_grad_ms_per_step.vanilla", "ms"),
    lower("models.fwd_ms_per_step.hybrid", "ms"),
    lower("models.bwd_ms_per_step.hybrid", "ms"),
    lower("models.zero_grad_ms_per_step.hybrid", "ms"),
    lower("models.factorize_s", "s"),
    lower("models.glue_share", "share"),
    lower("models.params_vanilla", "count"),
    lower("models.params_hybrid", "count"),
    lower("core.epoch_vanilla_s", "s"),
    lower("core.epoch_hybrid_s", "s"),
    higher("core.hybrid_speedup", "x"),
    lower("core.switch_s", "s"),
    lower("core.eval_s_per_epoch", "s"),
    lower("core.driver_overhead_share", "share"),
    lower("compress.encode_ms_per_step", "ms"),
    lower("compress.decode_ms_per_step", "ms"),
    lower("compress.round_ms_per_step", "ms"),
    lower("compress.pack_ms_per_step", "ms"),
    lower("compress.wire_bytes_per_step", "B"),
    higher("compress.ratio", "x"),
    lower("dist.compute_s", "s"),
    lower("dist.encode_s", "s"),
    lower("dist.decode_s", "s"),
    lower("dist.comm_model_s", "s"),
    lower("dist.comm_exposed_s", "s"),
    lower("dist.overhead_s", "s"),
    lower("dist.overhead_share", "share"),
    lower("dist.reduce_ms_per_step", "ms"),
    lower("dist.ring_allreduce_ms", "ms"),
    lower("dist.bucket_count", "count"),
    lower("dist.skipped_steps", "count"),
    lower("dist.lost_contributions", "count"),
    lower("dist.single_worker_step_ms", "ms"),
    higher("dist.scaling_efficiency", "share"),
    lower("proc.user_cpu_s", "s"),
    lower("proc.sys_cpu_s", "s"),
    lower("proc.sys_share", "share"),
    lower("proc.invol_ctx_switches", "count"),
    lower("trace.driver_vs_e2e_ratio", "x"),
];

/// Per-layer metrics that are counts made by the program: two runs of the
/// same code must report them identically.
pub const EXACT_PER_LAYER: [&str; 8] = [
    "tensor.gemm_calls_per_step",
    "models.params_vanilla",
    "models.params_hybrid",
    "compress.wire_bytes_per_step",
    "compress.ratio",
    "dist.bucket_count",
    "dist.skipped_steps",
    "dist.lost_contributions",
];

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_probe::json::{parse, Json};

    fn defs_of(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better { "higher" } else { "lower" };
                (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(defs_of(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(defs_of(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(EXACT_PER_LAYER.iter().all(|n| PER_LAYER.iter().any(|d| d.name == *n)));
    }
}
