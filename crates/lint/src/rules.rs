//! The rule engine: each rule walks a lexed token stream (with its
//! `#[cfg(test)]` mask) and emits [`Diagnostic`]s.
//!
//! # Rule catalog
//!
//! Four file-local token rules; [`RULES`] describes them. What the compiler
//! tool chain can check is not a rule here (DESIGN.md §8, "held by the
//! compiler"): panic sites in `puffer-dist` and the worker-side codecs are
//! clippy denies in those files, discarded `Result`s are
//! `clippy::let_underscore_must_use`, clocks, hash containers, locks and the
//! pool width are `clippy.toml` `disallowed-types` / `disallowed-methods`
//! entries, and `cargo build --offline --locked` is the dependency gate.
//!
//! | rule | scope | contract |
//! |---|---|---|
//! | `no-vec-alloc-in-kernel` | tensor kernel modules, non-test | kernel scratch comes from `workspace`, not `vec![x; n]`/`Vec::with_capacity` |
//! | `simd-needs-feature-gate` | workspace, non-test | `_mm*` intrinsic calls live in `#[target_feature]` fns, in a file with an `is_x86_feature_detected!` gate |
//! | `bucket-apply-order-pinned` | `crates/dist/src` minus `bucket.rs`/`ring.rs`, non-test | gradient accumulation order stays pinned in its two owners |
//! | `no-raw-percentile-math` | workspace minus `crates/probe`/`crates/insight`, non-test | percentile/median helpers live in the probe's `Histogram` and puffer-insight, not re-derived ad hoc |
//!
//! # Suppression
//!
//! A comment containing `lint:allow(<rule>[, <rule>…])` suppresses those
//! rules on the comment's own line(s) and the line immediately after it —
//! so both trailing (`stmt // lint:allow(x)`) and preceding-line markers
//! work. Suppressions are deliberate, visible exemptions; prefer fixing.

use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One finding, positioned for `file:line:col` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// Static description of a rule, for `--rules` filtering, `--explain`,
/// and the DESIGN.md catalog (which a test keeps in sync).
pub struct RuleInfo {
    /// The rule's name as used in `--rules` and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Why the rule exists — the failure it prevents.
    pub rationale: &'static str,
    /// A minimal violating snippet.
    pub example_bad: &'static str,
    /// The same snippet, fixed.
    pub example_good: &'static str,
}

/// Every rule this binary knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-vec-alloc-in-kernel",
        description: "no `vec![elem; len]` / `Vec::with_capacity` in tensor kernel modules \
                      (draw scratch from puffer_tensor::workspace so steady-state steps stay \
                      allocation-free)",
        rationale: "Kernel hot loops run thousands of times per step; an allocation inside \
                    one shows up as allocator contention across the worker pool and ruins \
                    the perf numbers the paper tables depend on.",
        example_bad: "let mut packed = vec![0.0f32; kc * nr];",
        example_good: "let mut packed = workspace::take(kc * nr);",
    },
    RuleInfo {
        name: "simd-needs-feature-gate",
        description: "every `_mm*` intrinsic call sits inside a #[target_feature] fn, and any \
                      file defining such fns also carries an is_x86_feature_detected! runtime \
                      gate (so SIMD paths can never execute on unsupporting hardware)",
        rationale: "Calling an AVX2 intrinsic on a CPU without AVX2 is undefined behavior \
                    (usually SIGILL). The attribute alone is not enough — something must \
                    prove at runtime that the gated fn is reachable only on supporting \
                    hardware, and keeping that check in the same file keeps the proof local.",
        example_bad: "fn add(a: __m256, b: __m256) -> __m256 { _mm256_add_ps(a, b) }",
        example_good: "fn supported() -> bool { is_x86_feature_detected!(\"avx2\") }\n\
                       #[target_feature(enable = \"avx2\")]\n\
                       unsafe fn add(a: __m256, b: __m256) -> __m256 { _mm256_add_ps(a, b) }",
    },
    RuleInfo {
        name: "bucket-apply-order-pinned",
        description: "no indexed `+=` accumulation in crates/dist non-test code outside the \
                      pinned owners (bucket.rs, ring.rs) — gradient summation order is the \
                      bitwise-determinism contract and has exactly two implementations",
        rationale: "The trainer promises bitwise-identical parameters at any bucket size, \
                    worker count, or collective; that only holds because every gradient sum \
                    adds contributors in one pinned id order. A second indexed accumulation \
                    loop elsewhere in dist is an unpinned summation order waiting to diverge.",
        example_bad: "for (w, g) in grads { mean[i] += g.as_slice()[i]; }",
        example_good: "let mean = reducer.finalize(&contributors); // pinned id order",
    },
    RuleInfo {
        name: "no-raw-percentile-math",
        description: "no ad-hoc median/percentile/pNN helper fns outside crates/probe and \
                      crates/insight (summarize through puffer_probe::Histogram so every \
                      quantile in the repo means the same thing)",
        rationale: "Two quantile definitions (nearest-rank vs interpolated, sorted-index \
                    off-by-one) produce reports that disagree about the same run; one \
                    Histogram implementation keeps every p50/p99 in the repo comparable.",
        example_bad: "fn median(xs: &mut Vec<f64>) -> f64 { xs.sort_by(f64::total_cmp); \
                      xs[xs.len() / 2] }",
        example_good: "let mut h = Histogram::new();\nfor x in xs { h.record_ns(x); }\n\
                       let med = h.p50();",
    },
];

/// Kernel modules whose hot loops must draw scratch memory from
/// `puffer_tensor::workspace` rather than the global allocator (the
/// workspace module itself is the one place allowed to allocate).
const KERNEL_MODULES: &[&str] = &[
    "crates/tensor/src/attention.rs",
    "crates/tensor/src/matmul.rs",
    "crates/tensor/src/gemm.rs",
    "crates/tensor/src/conv.rs",
    "crates/tensor/src/conv_direct.rs",
];

/// Pre-computed per-file context shared by the token rules.
pub struct FileContext<'a> {
    /// Path relative to the scan root, `/`-separated.
    pub rel_path: String,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Per-token `#[cfg(test)]` mask.
    pub test_mask: &'a [bool],
    /// `lint:allow` suppressions: line → rules allowed there.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Whether the file itself is test/bench code (under a `tests/` or
    /// `benches/` directory).
    pub is_test_file: bool,
}

impl<'a> FileContext<'a> {
    /// Builds the context for one lexed file.
    pub fn new(root_rel: &Path, tokens: &'a [Token], test_mask: &'a [bool]) -> Self {
        let rel_path = root_rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let is_test_file = root_rel
            .components()
            .any(|c| matches!(c.as_os_str().to_str(), Some("tests") | Some("benches")));
        let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for t in tokens.iter().filter(|t| t.is_comment()) {
            for rule in parse_allow_marker(&t.text) {
                // The marker covers the comment's own line(s) and the line
                // right below it.
                for line in t.line..=t.end_line() + 1 {
                    allows.entry(line).or_default().insert(rule.clone());
                }
            }
        }
        FileContext { rel_path, tokens, test_mask, allows, is_test_file }
    }

    /// Reports a finding unless a `lint:allow(rule)` covers its line.
    fn diag(&self, rule: &'static str, tok: &Token, message: String, out: &mut Vec<Diagnostic>) {
        if !self.allows.get(&tok.line).is_some_and(|set| set.contains(rule)) {
            out.push(Diagnostic {
                file: self.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                rule,
                message,
            });
        }
    }

    fn in_dist_src(&self) -> bool {
        self.rel_path.contains("crates/dist/src/")
    }
}

/// Extracts rule names from `lint:allow(a, b)` markers in a comment.
fn parse_allow_marker(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(idx) = rest.find("lint:allow(") {
        rest = &rest[idx + "lint:allow(".len()..];
        if let Some(close) = rest.find(')') {
            out.extend(
                rest[..close].split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()),
            );
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
    out
}

/// Runs every enabled token-level rule over one file.
pub fn check_tokens(ctx: &FileContext<'_>, enabled: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if enabled("no-vec-alloc-in-kernel") {
        no_vec_alloc_in_kernel(ctx, &mut out);
    }
    if enabled("simd-needs-feature-gate") {
        simd_needs_feature_gate(ctx, &mut out);
    }
    if enabled("bucket-apply-order-pinned") {
        bucket_apply_order_pinned(ctx, &mut out);
    }
    if enabled("no-raw-percentile-math") {
        no_raw_percentile_math(ctx, &mut out);
    }
    out
}

/// Iterator over non-comment token indices with their mask.
fn code_tokens<'a>(
    ctx: &'a FileContext<'_>,
) -> impl Iterator<Item = (usize, &'a Token, bool)> + 'a {
    ctx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, t)| (i, t, ctx.test_mask[i]))
}

/// Next non-comment token after index `i`.
fn next_code<'a>(ctx: &'a FileContext<'_>, i: usize) -> Option<&'a Token> {
    ctx.tokens[i + 1..].iter().find(|t| !t.is_comment())
}

/// Index of the next non-comment token after `i`.
fn next_code_idx(ctx: &FileContext<'_>, i: usize) -> Option<usize> {
    (i + 1..ctx.tokens.len()).find(|&j| !ctx.tokens[j].is_comment())
}

/// Whether the `vec!` invocation whose `[` sits at token index `open` is
/// the repeat form `vec![elem; len]`: a `;` at the macro's own bracket
/// depth before the matching `]`.
fn vec_macro_is_repeat_form(ctx: &FileContext<'_>, open: usize) -> bool {
    let mut depth = 1u32;
    for tok in ctx.tokens[open + 1..].iter().filter(|t| !t.is_comment()) {
        match tok.kind {
            TokenKind::Punct('[' | '(' | '{') => depth += 1,
            TokenKind::Punct(']' | ')' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokenKind::Punct(';') if depth == 1 => return true,
            _ => {}
        }
    }
    false
}

fn no_vec_alloc_in_kernel(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !KERNEL_MODULES.iter().any(|m| ctx.rel_path.ends_with(m)) {
        return;
    }
    for (i, tok, in_test) in code_tokens(ctx) {
        if in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            // Repeat form `vec![elem; len]` — a fresh zero-filled (or
            // fill-initialized) heap buffer. The list form `vec![a, b]`
            // is fine: it builds small fixed collections (span attrs,
            // error shapes), not kernel scratch.
            "vec" => {
                let bang = next_code_idx(ctx, i);
                let open = bang.and_then(|j| {
                    (ctx.tokens[j].kind == TokenKind::Punct('!'))
                        .then(|| next_code_idx(ctx, j))
                        .flatten()
                });
                if let Some(open) = open {
                    if ctx.tokens[open].kind == TokenKind::Punct('[')
                        && vec_macro_is_repeat_form(ctx, open)
                    {
                        ctx.diag(
                            "no-vec-alloc-in-kernel",
                            tok,
                            "`vec![elem; len]` in a tensor kernel module; take the buffer from \
                             puffer_tensor::workspace instead so warmed-up training steps stay \
                             allocation-free"
                                .to_string(),
                            out,
                        );
                    }
                }
            }
            "Vec" => {
                // `Vec::with_capacity(...)`: Vec :: with_capacity (
                let c1 = next_code_idx(ctx, i);
                let c2 = c1.and_then(|j| {
                    (ctx.tokens[j].kind == TokenKind::Punct(':'))
                        .then(|| next_code_idx(ctx, j))
                        .flatten()
                });
                let name = c2.and_then(|j| {
                    (ctx.tokens[j].kind == TokenKind::Punct(':'))
                        .then(|| next_code_idx(ctx, j))
                        .flatten()
                });
                if let Some(name) = name {
                    let n = &ctx.tokens[name];
                    if n.kind == TokenKind::Ident && n.text == "with_capacity" {
                        ctx.diag(
                            "no-vec-alloc-in-kernel",
                            tok,
                            "`Vec::with_capacity` in a tensor kernel module; take the buffer \
                             from puffer_tensor::workspace (take/take_with_capacity) so \
                             warmed-up training steps stay allocation-free"
                                .to_string(),
                            out,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

fn simd_needs_feature_gate(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.is_test_file {
        return;
    }
    let tf_mask = crate::scope::target_feature_mask(ctx.tokens);
    let has_detection = ctx
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "is_x86_feature_detected");
    let mut first_gated: Option<&Token> = None;
    for (i, tok, in_test) in code_tokens(ctx) {
        if in_test {
            continue;
        }
        if tf_mask[i] && first_gated.is_none() {
            first_gated = Some(tok);
        }
        // An intrinsic *call* outside any #[target_feature] fn: `_mm…(`.
        // Imports (`use core::arch::x86_64::_mm256_loadu_ps;`) are idents
        // followed by `,`/`;`/`}` and stay legal — only execution paths
        // need the gate.
        if tok.kind == TokenKind::Ident
            && tok.text.starts_with("_mm")
            && !tf_mask[i]
            && next_code(ctx, i).is_some_and(|n| n.kind == TokenKind::Punct('('))
        {
            ctx.diag(
                "simd-needs-feature-gate",
                tok,
                format!(
                    "`{}` called outside a #[target_feature] fn; move the call into a \
                     #[target_feature(enable = …)] kernel reached only behind runtime \
                     detection, or it faults on hardware without the feature",
                    tok.text
                ),
                out,
            );
        }
    }
    // A file that defines gated kernels must also carry the runtime check
    // that makes them reachable-safe. Keeping detection in the same file is
    // the repo convention (see puffer_tensor::gemm::simd_supported), and it
    // is what makes this rule checkable file-locally.
    if let Some(tok) = first_gated {
        if !has_detection {
            ctx.diag(
                "simd-needs-feature-gate",
                tok,
                "#[target_feature] fn in a file with no is_x86_feature_detected! call; keep \
                 the runtime gate next to the kernel it protects so the gated path is \
                 provably unreachable on unsupporting hardware"
                    .to_string(),
                out,
            );
        }
    }
}

fn bucket_apply_order_pinned(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    // Gradient accumulation order is the bitwise-determinism contract:
    // contributors are summed in pinned id order by the bucketed reducer
    // (bucket.rs) and position order by the executable ring (ring.rs).
    // An indexed `+=` anywhere else in dist is a second accumulation site
    // whose order nobody pins — the lexical signature is `]` immediately
    // followed by the `+=` operator.
    if !ctx.in_dist_src()
        || ctx.is_test_file
        || ctx.rel_path.ends_with("bucket.rs")
        || ctx.rel_path.ends_with("ring.rs")
    {
        return;
    }
    let toks: Vec<(usize, &Token, bool)> = code_tokens(ctx).collect();
    for w in toks.windows(3) {
        let [(_, close, in_test), (_, plus, _), (_, eq, _)] = w else { continue };
        if !in_test
            && close.kind == TokenKind::Punct(']')
            && plus.kind == TokenKind::Punct('+')
            && eq.kind == TokenKind::Punct('=')
            && plus.line == eq.line
            && eq.col == plus.col + 1
        {
            ctx.diag(
                "bucket-apply-order-pinned",
                plus,
                "indexed `+=` accumulation in puffer-dist outside bucket.rs/ring.rs; gradient \
                 summation order is pinned by BucketedReducer — route the sum through it (or \
                 the ring) so bitwise determinism has a single owner"
                    .to_string(),
                out,
            );
        }
    }
}

/// Whether a function name claims to compute a quantile: the generic
/// statistics names, or `p` followed by two or more digits (`p50`,
/// `p999`). Compound names like `p50_seconds` are fine — they *consume* a
/// quantile primitive rather than re-deriving one — and single-digit
/// names like `p3` are presets (`ClusterProfile::p3`), not percentiles.
fn is_percentile_fn_name(name: &str) -> bool {
    matches!(name, "median" | "percentile" | "percentiles" | "quantile" | "quantiles")
        || name
            .strip_prefix('p')
            .is_some_and(|rest| rest.len() >= 2 && rest.bytes().all(|b| b.is_ascii_digit()))
}

fn no_raw_percentile_math(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    // The probe's Histogram is the one quantile implementation and
    // puffer-insight is its one consumer-side aggregator; everywhere else
    // a hand-rolled sort-and-index median silently disagrees with the
    // exported summaries.
    if ctx.is_test_file
        || ctx.rel_path.contains("crates/probe/")
        || ctx.rel_path.contains("crates/insight/")
    {
        return;
    }
    for (i, tok, in_test) in code_tokens(ctx) {
        if in_test || tok.kind != TokenKind::Ident || tok.text != "fn" {
            continue;
        }
        let Some(name) = next_code(ctx, i) else { continue };
        if name.kind == TokenKind::Ident && is_percentile_fn_name(&name.text) {
            ctx.diag(
                "no-raw-percentile-math",
                name,
                format!(
                    "`fn {}` re-derives a quantile outside crates/probe//crates/insight; \
                     record into puffer_probe::Histogram (or its hist_record registry) and \
                     read p50/p90/p99 from it so all percentiles share one definition",
                    name.text
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn run(path: &str, src: &str) -> Vec<(String, u32, String)> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        let ctx = FileContext::new(Path::new(path), &toks, &mask);
        check_tokens(&ctx, &|_| true)
            .into_iter()
            .map(|d| (d.rule.to_string(), d.line, d.message))
            .collect()
    }

    #[test]
    fn lint_allow_suppresses_on_line_and_next_line() {
        let path = "crates/dist/src/x.rs";
        let trailing =
            "fn f(a: &mut [f32]) { a[0] += 1.0; } // lint:allow(bucket-apply-order-pinned)";
        assert!(run(path, trailing).is_empty());
        let above =
            "// lint:allow(bucket-apply-order-pinned)\nfn f(a: &mut [f32]) { a[0] += 1.0; }";
        assert!(run(path, above).is_empty());
        let wrong_rule =
            "// lint:allow(no-raw-percentile-math)\nfn f(a: &mut [f32]) { a[0] += 1.0; }";
        assert_eq!(run(path, wrong_rule).len(), 1);
    }

    #[test]
    fn allow_marker_parses_lists() {
        assert_eq!(parse_allow_marker("// lint:allow(a, b)"), ["a", "b"]);
        assert!(parse_allow_marker("// nothing here").is_empty());
    }

    #[test]
    fn kernel_vec_alloc_flagged_in_kernel_modules_only() {
        let src = "fn f(n: usize) { let mut c = vec![0.0f32; n]; c[0] = 1.0; }";
        for path in KERNEL_MODULES {
            let diags = run(path, src);
            assert_eq!(diags.len(), 1, "{path}: {diags:?}");
            assert_eq!(diags[0].0, "no-vec-alloc-in-kernel");
        }
        // Same pattern elsewhere — including the workspace module, which is
        // the one place that is *supposed* to allocate — is fine.
        assert!(run("crates/tensor/src/workspace.rs", src).is_empty());
        assert!(run("crates/nn/src/linear.rs", src).is_empty());
    }

    #[test]
    fn kernel_with_capacity_flagged_but_list_vec_is_not() {
        let cap = "fn f(n: usize) { let mut c = Vec::with_capacity(n); c.push(1.0); }";
        let diags = run("crates/tensor/src/matmul.rs", cap);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].0, "no-vec-alloc-in-kernel");
        // List-form vec! builds small fixed collections (probe span attrs,
        // error shapes) — not scratch buffers.
        let list = "fn f(m: usize) { let attrs = vec![(\"m\", m), (\"n\", 2)]; }";
        assert!(run("crates/tensor/src/matmul.rs", list).is_empty());
        // A `;` nested inside the element expression does not make the
        // list form a repeat form.
        let nested = "fn f() { let v = vec![{ let x = 1; x }, 2]; }";
        assert!(run("crates/tensor/src/matmul.rs", nested).is_empty());
    }

    #[test]
    fn gated_intrinsics_with_detection_are_clean() {
        let src = "\
use core::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps};
fn supported() -> bool { is_x86_feature_detected!(\"avx2\") }
#[target_feature(enable = \"avx2\", enable = \"fma\")]
fn kernel(a: *const f32) { let v = _mm256_loadu_ps(a); }";
        assert!(run("crates/tensor/src/gemm.rs", src).is_empty());
    }

    #[test]
    fn ungated_intrinsic_call_flagged_but_import_is_not() {
        let src = "\
use core::arch::x86_64::_mm256_add_ps;
fn supported() -> bool { is_x86_feature_detected!(\"avx2\") }
fn f(a: __m256, b: __m256) -> __m256 { _mm256_add_ps(a, b) }";
        let diags = run("crates/tensor/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].0.as_str(), diags[0].1), ("simd-needs-feature-gate", 3));
    }

    #[test]
    fn gated_fn_without_runtime_detection_flagged() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn kernel(a: *const f32) {}";
        let diags = run("crates/tensor/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].0.as_str(), diags[0].1), ("simd-needs-feature-gate", 1));
    }

    #[test]
    fn simd_rule_exempts_tests_and_honors_suppression() {
        let src = "fn f(a: __m256, b: __m256) -> __m256 { _mm256_add_ps(a, b) }";
        assert!(run("crates/tensor/tests/simd_probe.rs", src).is_empty());
        assert!(run("crates/tensor/benches/kernel_bench.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(a: __m256) { _mm_probe(a); }\n}";
        assert!(run("crates/tensor/src/x.rs", in_test).is_empty());
        let allowed = "// lint:allow(simd-needs-feature-gate) — cfg-gated call site\n\
                       fn f(a: __m256, b: __m256) -> __m256 { _mm256_add_ps(a, b) }";
        assert!(run("crates/tensor/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn indexed_accumulation_flagged_in_dist_outside_pinned_owners() {
        let src =
            "fn sum(mean: &mut [f32], g: &[f32]) { for i in 0..g.len() { mean[i] += g[i]; } }";
        let diags = run("crates/dist/src/trainer.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].0, "bucket-apply-order-pinned");
        // The two pinned owners of accumulation order are exempt.
        assert!(run("crates/dist/src/bucket.rs", src).is_empty());
        assert!(run("crates/dist/src/ring.rs", src).is_empty());
        // Other crates pin their own reduction orders; out of scope.
        assert!(run("crates/tensor/src/gemm.rs", src).is_empty());
    }

    #[test]
    fn indexed_accumulation_rule_ignores_lookalikes_and_honors_suppression() {
        // Plain indexed store, indexed read on the right-hand side, and a
        // split `+` `=` across lines are not the `+=` operator.
        let store = "fn f(a: &mut [u64], v: u64) { a[0] = v; }";
        assert!(run("crates/dist/src/trainer.rs", store).is_empty());
        let read = "fn f(a: &[f32], b: f32) -> f32 { a[0] + b }";
        assert!(run("crates/dist/src/trainer.rs", read).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(a: &mut [f32]) { a[0] += 1.0; }\n}";
        assert!(run("crates/dist/src/trainer.rs", in_test).is_empty());
        assert!(run(
            "crates/dist/tests/overlap_determinism.rs",
            "fn f(a: &mut [f32]) { a[0] += 1.0; }"
        )
        .is_empty());
        let allowed = "// lint:allow(bucket-apply-order-pinned) — single-contributor path\n\
                       fn f(a: &mut [f32]) { a[0] += 1.0; }";
        assert!(run("crates/dist/src/trainer.rs", allowed).is_empty());
    }

    #[test]
    fn percentile_fns_flagged_outside_probe_and_insight() {
        let src =
            "fn median(mut xs: Vec<f64>) -> f64 { xs.sort_by(f64::total_cmp); xs[xs.len() / 2] }";
        let diags = run("crates/bench/src/experiments/soak.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].0, "no-raw-percentile-math");
        // The two crates that own quantile math are exempt…
        assert!(run("crates/probe/src/hist.rs", src).is_empty());
        assert!(run("crates/insight/src/report.rs", src).is_empty());
        // …and so are test/bench files.
        assert!(run("crates/bench/tests/soak_gates.rs", src).is_empty());
        let p99 = "fn p99(xs: &[f64]) -> f64 { xs[xs.len() * 99 / 100] }";
        assert_eq!(run("crates/dist/src/trainer.rs", p99).len(), 1);
    }

    #[test]
    fn percentile_rule_spares_consumers_and_honors_suppression() {
        // Compound names consume a quantile, they don't re-derive one.
        let consumer = "fn p50_seconds(xs: &[f64]) -> f64 { hist(xs).p50() as f64 / 1e9 }";
        assert!(run("crates/bench/src/experiments/soak.rs", consumer).is_empty());
        // Calls and variables named median are fine — only `fn` defs claim
        // to implement the math.
        let call = "fn f(h: &Histogram) { let median = h.p50(); report(median); }";
        assert!(run("crates/bench/src/lib.rs", call).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn median(xs: &[f64]) -> f64 { xs[0] }\n}";
        assert!(run("crates/bench/src/lib.rs", in_test).is_empty());
        let allowed = "// lint:allow(no-raw-percentile-math) — exact median needed here\n\
                       fn median(xs: &mut [f64]) -> f64 { xs[0] }";
        assert!(run("crates/bench/src/lib.rs", allowed).is_empty());
        assert!(is_percentile_fn_name("p999"));
        assert!(!is_percentile_fn_name("p"));
        assert!(!is_percentile_fn_name("p3"), "ClusterProfile::p3 is a preset, not a percentile");
        assert!(!is_percentile_fn_name("print"));
        assert!(!is_percentile_fn_name("p2p_send"));
    }

    #[test]
    fn kernel_vec_alloc_exempt_in_tests_and_suppressible() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![0.0; 4]; }\n}";
        assert!(run("crates/tensor/src/conv.rs", in_test).is_empty());
        let allowed = "// lint:allow(no-vec-alloc-in-kernel) — one-shot cold-path buffer\n\
                       fn f(n: usize) { let v = vec![0.0f32; n]; }";
        assert!(run("crates/tensor/src/matmul.rs", allowed).is_empty());
    }
}
