//! The experiments, one module per paper table/figure or system gate, and
//! the static tables the `puffer-bench` binary dispatches over.

pub mod alloc_churn;
pub mod appendix_architectures;
pub mod atomo_overhead;
pub mod conv_roofline;
pub mod diff;
pub mod end_to_end_speedup;
pub mod fault_sweep;
pub mod fig2_convergence;
pub mod fig3a_hybrid_k;
pub mod fig3b_warmup;
pub mod fig4a_breakdown_imagenet;
pub mod fig4b_breakdown_cifar;
pub mod fig4c_ddp_scaling;
pub mod fig5_lth;
pub mod fig6_pufferfish_powersgd;
pub mod fig7_binary_quant;
pub mod gemm_scaling;
pub mod insight;
pub mod overlap_sweep;
pub mod rank_alloc_ablation;
pub mod soak;
pub mod table19_svd_cost;
pub mod table1_complexity;
pub mod table21_22_ablation;
pub mod table2_lstm;
pub mod table3_transformer;
pub mod table4_cifar;
pub mod table5_imagenet;
pub mod table6_minibench;
pub mod table7_eb_train;
pub mod table8_ablation_resnet18;
pub mod table9_ablation_lstm;
pub mod trace_demo;

use crate::{Args, Record};

/// One `puffer-bench` subcommand: its name and the experiment itself.
pub type Experiment = (&'static str, fn(&Args) -> Record);

/// Every table and figure of the paper's evaluation, in the paper's order:
/// what `puffer-bench all` runs.
pub static PAPER: &[Experiment] = &[
    ("table1-complexity", table1_complexity::run),
    ("fig2-convergence", fig2_convergence::run),
    ("fig3a-hybrid-k", fig3a_hybrid_k::run),
    ("fig3b-warmup", fig3b_warmup::run),
    ("table2-lstm", table2_lstm::run),
    ("table3-transformer", table3_transformer::run),
    ("table4-cifar", table4_cifar::run),
    ("table5-imagenet", table5_imagenet::run),
    ("table6-minibench", table6_minibench::run),
    ("fig4a-breakdown-imagenet", fig4a_breakdown_imagenet::run),
    ("fig4b-breakdown-cifar", fig4b_breakdown_cifar::run),
    ("fig4c-ddp-scaling", fig4c_ddp_scaling::run),
    ("end-to-end-speedup", end_to_end_speedup::run),
    ("table7-eb-train", table7_eb_train::run),
    ("fig5-lth", fig5_lth::run),
    ("table8-ablation-resnet18", table8_ablation_resnet18::run),
    ("table9-ablation-lstm", table9_ablation_lstm::run),
    ("fig6-pufferfish-powersgd", fig6_pufferfish_powersgd::run),
    ("fig7-binary-quant", fig7_binary_quant::run),
    ("table19-svd-cost", table19_svd_cost::run),
    ("table21-22-ablation", table21_22_ablation::run),
    ("rank-alloc-ablation", rank_alloc_ablation::run),
    ("atomo-overhead", atomo_overhead::run),
    ("appendix-architectures", appendix_architectures::run),
];

/// The system gates and the tools; `insight` and `diff` read the files
/// named after them on the command line.
pub static TOOLS: &[Experiment] = &[
    ("soak", soak::run),
    ("overlap-sweep", overlap_sweep::run),
    ("alloc-churn", alloc_churn::run),
    ("gemm-scaling", gemm_scaling::run),
    ("conv-roofline", conv_roofline::run),
    ("fault-sweep", fault_sweep::run),
    ("trace-demo", trace_demo::run),
    ("insight", insight::run),
    ("diff", diff::run),
];

/// Every subcommand, [`PAPER`] first.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    PAPER.iter().chain(TOOLS)
}

/// Resolves a subcommand: `_` reads as `-`, and a name may be cut at any
/// `-` as long as one experiment is left (`table1`, `fig4a`,
/// `table1_complexity` and `table1-complexity` are the same experiment;
/// `table2` is not `table21-22-ablation`).
pub fn find(name: &str) -> Option<&'static Experiment> {
    let name = name.replace('_', "-");
    if let Some(exact) = all().find(|(n, _)| *n == name) {
        return Some(exact);
    }
    let mut cut = all()
        .filter(|(n, _)| n.strip_prefix(name.as_str()).is_some_and(|rest| rest.starts_with('-')));
    match (cut.next(), cut.next()) {
        (Some(only), None) => Some(only),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The former `run_all` binary's list of binaries, in its order.
    const FORMER_RUN_ALL: &str = "table1_complexity fig2_convergence fig3a_hybrid_k fig3b_warmup \
        table2_lstm table3_transformer table4_cifar table5_imagenet table6_minibench \
        fig4a_breakdown_imagenet fig4b_breakdown_cifar fig4c_ddp_scaling end_to_end_speedup \
        table7_eb_train fig5_lth table8_ablation_resnet18 table9_ablation_lstm \
        fig6_pufferfish_powersgd fig7_binary_quant table19_svd_cost table21_22_ablation \
        rank_alloc_ablation atomo_overhead appendix_architectures";

    fn name_of(e: Option<&Experiment>) -> Option<&'static str> {
        e.map(|(name, _)| *name)
    }

    #[test]
    fn names_are_unique_and_none_is_reserved() {
        for (i, (name, _)) in all().enumerate() {
            assert!(*name != "all" && *name != "list", "{name} is a reserved word");
            assert!(!name.contains('_'), "{name}: names are hyphenated");
            assert!(all().skip(i + 1).all(|(other, _)| other != name), "{name} is listed twice");
        }
    }

    #[test]
    fn all_is_the_former_run_all_list_in_its_order() {
        let paper: Vec<&str> = PAPER.iter().map(|(name, _)| *name).collect();
        let former: Vec<String> =
            FORMER_RUN_ALL.split_whitespace().map(|n| n.replace('_', "-")).collect();
        assert_eq!(former.len(), 24);
        assert_eq!(paper, former);
    }

    #[test]
    fn old_bin_names_and_short_forms_resolve() {
        for old in FORMER_RUN_ALL.split_whitespace() {
            assert_eq!(name_of(find(old)), Some(old.replace('_', "-").as_str()), "{old}");
        }
        assert_eq!(name_of(find("table1")), Some("table1-complexity"));
        assert_eq!(name_of(find("table2")), Some("table2-lstm"));
        assert_eq!(name_of(find("table21")), Some("table21-22-ablation"));
        assert_eq!(name_of(find("fig4a")), Some("fig4a-breakdown-imagenet"));
        assert_eq!(name_of(find("overlap_sweep")), Some("overlap-sweep"));
        // Ambiguous or unknown cuts resolve to nothing.
        assert!(find("table").is_none());
        assert!(find("fig4").is_none());
        assert!(find("bench_diff").is_none());
        assert!(find("").is_none());
    }

    /// Every name in the "Bench target" column of DESIGN.md §4 is a
    /// subcommand (the column may add flags after the name).
    #[test]
    fn every_target_in_the_design_index_resolves() {
        let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(design).expect("DESIGN.md at the workspace root");
        let section = design
            .split("## 4. Per-experiment index")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md §4");
        let mut targets = 0;
        for row in section.lines().filter(|l| l.starts_with("| ") && !l.starts_with("| Exp.")) {
            let cell = row.trim_end_matches('|').rsplit('|').next().expect("last column");
            let target = cell.split('`').nth(1).expect("a backticked target");
            let name = target.split_whitespace().next().expect("a name");
            assert!(find(name).is_some(), "DESIGN.md §4 names `{name}`, which is no subcommand");
            targets += 1;
        }
        assert!(targets >= 24, "only {targets} rows parsed from DESIGN.md §4");
    }
}
