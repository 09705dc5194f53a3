//! The semantic rules: AST- and call-graph-backed analyses the token
//! engine structurally cannot do.
//!
//! | rule | what it proves |
//! |---|---|
//! | `dist-panic-reachability` | no panic site is *transitively reachable* from a dist entry point — findings pin the call chain |
//! | `lock-order-consistency` | no two locks are acquired in opposite orders (one-level call-graph propagation) |
//! | `guard-across-blocking-op` | no live lock guard is held across a channel `send`/`recv`/thread `join` |
//! | `nondeterministic-float-reduction` | no float `sum`/`fold`/`product` over an iteration order that can vary between runs |
//! | `discarded-result` | no `let _ =` / bare-statement discard of a workspace-resolved `Result` |
//!
//! Analysis boundaries (also in DESIGN.md §8): resolution is name-based
//! (no trait dispatch, no type inference), lock-order propagates exactly
//! one call level, closure bodies are deferred code (they do not extend a
//! guard's liveness, and their own acquisitions are not propagated), and
//! float-reduction sources resolve only through same-function `let`
//! bindings.

use crate::ast::{self, Block, Expr, ExprKind, FnDef, Stmt};
use crate::callgraph::{self, CallGraph};
use crate::rules::{Diagnostic, FileContext};
use crate::symbols::{ParsedFile, SymbolTable};
use std::collections::BTreeMap;
use std::path::Path;

/// Functions whose bodies start the dist panic-reachability traversal:
/// the public training drivers, the two spawned role loops, and `run`
/// (the conventional method name for trainer-like drivers).
pub const DIST_ENTRY_POINTS: &[&str] =
    &["train_data_parallel", "train_data_parallel_with", "run_worker", "run_aggregator", "run"];

/// `std::fs` functions that return `io::Result` (the discard rule's
/// external-knowledge table; the workspace itself never defines these).
const FS_RESULT_FNS: &[&str] = &[
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
    "create_dir",
    "write",
    "rename",
    "copy",
    "hard_link",
    "set_permissions",
];

/// Channel/thread methods that return `Result`, keyed by (name, arity).
/// The arity pin keeps `PathBuf::join(x)` (1 arg) distinct from
/// `JoinHandle::join()` (0 args).
const EXTERNAL_RESULT_METHODS: &[(&str, usize)] =
    &[("send", 1), ("try_send", 1), ("recv", 0), ("try_recv", 0), ("recv_timeout", 1), ("join", 0)];

/// Blocking operations a lock guard must not be held across, keyed by
/// (name, arity) like [`EXTERNAL_RESULT_METHODS`].
const BLOCKING_METHODS: &[(&str, usize)] =
    &[("send", 1), ("recv", 0), ("recv_timeout", 1), ("join", 0)];

/// Method names whose std-prelude meaning (panicking or `()`-returning)
/// overwhelmingly dominates any same-name workspace definition —
/// `vec.truncate(n)` must not resolve to `SvdFactors::truncate`. The
/// discard rule never attributes these to workspace functions.
const STD_SHADOWED_METHODS: &[&str] = &[
    "expect", "unwrap", "truncate", "push", "insert", "remove", "clear", "extend", "resize",
    "sort", "reverse",
];

/// Runs every enabled semantic rule over the parsed workspace.
pub fn check(files: &[ParsedFile], enabled: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let symbols = SymbolTable::build(files);
    let ctxs: Vec<FileContext<'_>> =
        files.iter().map(|pf| FileContext::new(Path::new(&pf.rel), &pf.tokens, &pf.mask)).collect();
    let mut out = Vec::new();
    if enabled("dist-panic-reachability") {
        dist_panic_reachability(&symbols, &ctxs, &mut out);
    }
    if enabled("lock-order-consistency") || enabled("guard-across-blocking-op") {
        lock_rules(&symbols, &ctxs, enabled, &mut out);
    }
    if enabled("nondeterministic-float-reduction") {
        nondeterministic_float_reduction(&symbols, &ctxs, &mut out);
    }
    if enabled("discarded-result") {
        discarded_result(&symbols, &ctxs, &mut out);
    }
    out
}

fn push(
    ctx: &FileContext<'_>,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    if !ctx.suppressed(rule, line) {
        out.push(Diagnostic { file: ctx.rel_path.clone(), line, col, rule, message });
    }
}

// ---- panic sites ------------------------------------------------------

/// One potential panic in a function body.
struct PanicSite {
    line: u32,
    col: u32,
    /// `.unwrap()`, `panic!`, `indexing \`shard[…]\``, …
    what: String,
}

fn is_panic_macro(name: &str) -> bool {
    matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
}

/// Collects unwrap/expect calls, panic-family macros, and direct indexing
/// in a function body (closures included — they run as this fn's code).
fn panic_sites(pf: &ParsedFile, def: &FnDef) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    let Some(body) = &def.body else { return sites };
    callgraph::walk_own_exprs(body, &mut |e| match &e.kind {
        ExprKind::MethodCall { name, name_tok, .. } if name == "unwrap" || name == "expect" => {
            let t = &pf.tokens[*name_tok];
            sites.push(PanicSite { line: t.line, col: t.col, what: format!("`.{name}()`") });
        }
        ExprKind::Macro { name, name_tok, .. } if is_panic_macro(name) => {
            let t = &pf.tokens[*name_tok];
            sites.push(PanicSite { line: t.line, col: t.col, what: format!("`{name}!`") });
        }
        ExprKind::Index { base, .. } => {
            let label = ast::receiver_label(base);
            sites.push(PanicSite {
                line: e.span.line,
                col: e.span.col,
                what: format!("indexing `{label}[…]`"),
            });
        }
        _ => {}
    });
    sites
}

// ---- dist-panic-reachability ------------------------------------------

fn dist_panic_reachability(
    symbols: &SymbolTable<'_>,
    ctxs: &[FileContext<'_>],
    out: &mut Vec<Diagnostic>,
) {
    let graph = CallGraph::build(symbols);
    // The traversal follows calls out of dist into the worker-side codecs:
    // `codec.encode(..)` in `run_worker` is puffer-compress code, but it
    // runs on the worker thread all the same.
    let in_scope = |id: usize| {
        let f = &symbols.fns[id];
        let pf = &symbols.files[f.file];
        !f.is_test && !pf.is_test_file && (pf.in_dist_src() || pf.is_worker_codec_src())
    };
    let roots: Vec<usize> = (0..symbols.fns.len())
        .filter(|&id| {
            let f = &symbols.fns[id];
            in_scope(id)
                && symbols.files[f.file].in_dist_src()
                && DIST_ENTRY_POINTS.contains(&f.def.name.as_str())
        })
        .collect();
    let pred = callgraph::reachable(&graph, &roots, &in_scope);
    let mut reached: Vec<usize> = pred.keys().copied().collect();
    reached.sort_unstable();
    for id in reached {
        let f = &symbols.fns[id];
        let pf = &symbols.files[f.file];
        let chain = callgraph::chain(symbols, &pred, id);
        for site in panic_sites(pf, f.def) {
            push(
                &ctxs[f.file],
                "dist-panic-reachability",
                site.line,
                site.col,
                format!(
                    "{} is reachable from a dist entry point (call chain: {chain}); a panic on \
                     this path kills the trainer mid-protocol — return DistError or prove the \
                     access in-bounds",
                    site.what
                ),
                out,
            );
        }
    }
}

// ---- lock-order-consistency + guard-across-blocking-op ----------------

/// A lock acquired at a call site: `pool.spawned.lock()` → label
/// `pool.spawned`.
fn lock_acquisition(e: &Expr) -> Option<String> {
    if let ExprKind::MethodCall { recv, name, args, .. } = &e.kind {
        if args.is_empty() && matches!(name.as_str(), "lock" | "read" | "write") {
            return Some(ast::receiver_label(recv));
        }
    }
    None
}

/// One "lock B acquired while lock A held" observation.
struct PairEvent {
    a: String,
    b: String,
    file: usize,
    line: u32,
    col: u32,
    fn_name: String,
}

/// One "blocking op while guard live" observation.
struct BlockEvent {
    guard: String,
    op: String,
    file: usize,
    line: u32,
    col: u32,
    guard_line: u32,
}

struct LiveGuard {
    label: String,
    /// The `let` binding holding the guard, if any (`drop(name)` releases
    /// it). Temporaries have `None` and die at the statement boundary.
    binding: Option<String>,
    line: u32,
}

struct LockWalk<'w, 'a> {
    symbols: &'w SymbolTable<'a>,
    /// Lock labels each function acquires anywhere in its body
    /// (closures excluded) — the one-level propagation source.
    acquires_of: &'w [Vec<String>],
    file: usize,
    fn_name: &'w str,
    self_ty: Option<&'a str>,
    live: Vec<LiveGuard>,
    pairs: Vec<PairEvent>,
    blocks: Vec<BlockEvent>,
}

impl LockWalk<'_, '_> {
    fn record_pairs_for(&mut self, b_label: &str, line: u32, col: u32) {
        for g in &self.live {
            if g.label != b_label {
                self.pairs.push(PairEvent {
                    a: g.label.clone(),
                    b: b_label.to_string(),
                    file: self.file,
                    line,
                    col,
                    fn_name: self.fn_name.to_string(),
                });
            }
        }
    }

    fn walk_block(&mut self, block: &Block) {
        let base = self.live.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { pat, init, els, .. } => {
                    let tmp_base = self.live.len();
                    if let Some(e) = init {
                        self.walk_expr(e);
                    }
                    if let Some(b) = els {
                        self.walk_block(b);
                    }
                    if pat == "_" || !init.as_ref().is_some_and(guard_escapes) {
                        // `let _ = x.lock();` drops the guard immediately,
                        // and `let n = x.lock().unwrap().len();` only ever
                        // holds it for the statement.
                        self.live.truncate(tmp_base);
                    } else {
                        // Guards acquired in the initializer live as long
                        // as the binding: to end of block or drop().
                        let name = pat
                            .split_whitespace()
                            .find(|w| !matches!(*w, "mut" | "ref" | "&"))
                            .unwrap_or(pat)
                            .to_string();
                        for g in &mut self.live[tmp_base..] {
                            g.binding = Some(name.clone());
                        }
                    }
                }
                Stmt::Expr { expr, .. } => {
                    let tmp_base = self.live.len();
                    // drop(g) releases the named guard for the rest of the
                    // block.
                    if let ExprKind::Call { path, args, .. } = &expr.kind {
                        if path.last().is_some_and(|s| s == "drop") && args.len() == 1 {
                            if let ExprKind::Path(name) = &args[0].kind {
                                self.live.retain(|g| g.binding.as_deref() != Some(name));
                                continue;
                            }
                        }
                    }
                    self.walk_expr(expr);
                    self.live.truncate(tmp_base);
                }
                Stmt::Item(_) => {}
            }
        }
        self.live.truncate(base);
    }

    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            // Deferred code: a closure defined while a guard is live does
            // not run while it is live.
            ExprKind::Closure(_) => return,
            ExprKind::Block(b) | ExprKind::Loop(b) => {
                self.walk_block(b);
                return;
            }
            ExprKind::If { cond, then, els } => {
                self.walk_expr(cond);
                self.walk_block(then);
                if let Some(els) = els {
                    self.walk_expr(els);
                }
                return;
            }
            ExprKind::While { cond, body } => {
                self.walk_expr(cond);
                self.walk_block(body);
                return;
            }
            ExprKind::For { iter, body } => {
                self.walk_expr(iter);
                self.walk_block(body);
                return;
            }
            ExprKind::Match { scrut, arms } => {
                self.walk_expr(scrut);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(&arm.body);
                }
                return;
            }
            _ => {}
        }
        // Evaluate children first (receiver/args run before the outer
        // call), then classify this node.
        for child in expr_children(e) {
            self.walk_expr(child);
        }
        match &e.kind {
            ExprKind::MethodCall { name, args, name_tok: _, recv, .. } => {
                if let Some(label) = lock_acquisition(e) {
                    self.record_pairs_for(&label, e.span.line, e.span.col);
                    self.live.push(LiveGuard { label, binding: None, line: e.span.line });
                    return;
                }
                if BLOCKING_METHODS.contains(&(name.as_str(), args.len())) {
                    for g in self.live.iter().filter(|g| g.binding.is_some()) {
                        self.blocks.push(BlockEvent {
                            guard: g.label.clone(),
                            op: name.clone(),
                            file: self.file,
                            line: e.span.line,
                            col: e.span.col,
                            guard_line: g.line,
                        });
                    }
                }
                // One-level propagation through resolved method calls.
                if !self.live.is_empty() {
                    let callees = self.symbols.candidates_for_method(
                        self.file,
                        self.self_ty,
                        matches!(&recv.kind, ExprKind::Path(p) if p == "self"),
                        name,
                    );
                    self.propagate(&callees, e.span.line, e.span.col);
                }
            }
            ExprKind::Call { path, .. } if !self.live.is_empty() => {
                let callees = self.symbols.candidates_for_call(self.file, path);
                self.propagate(&callees, e.span.line, e.span.col);
            }
            _ => {}
        }
    }

    fn propagate(&mut self, callees: &[usize], line: u32, col: u32) {
        let mut seen: Vec<&str> = Vec::new();
        for &callee in callees {
            for b_label in &self.acquires_of[callee] {
                if !seen.contains(&b_label.as_str()) {
                    seen.push(b_label);
                    self.record_pairs_for(b_label, line, col);
                }
            }
        }
    }
}

/// Children of an expression, excluding block/control nodes (handled by
/// the caller) — used by the lock walker's evaluation-order traversal.
fn expr_children(e: &Expr) -> Vec<&Expr> {
    match &e.kind {
        ExprKind::Call { args, .. } | ExprKind::Macro { args, .. } => args.iter().collect(),
        ExprKind::MethodCall { recv, args, .. } => {
            let mut v: Vec<&Expr> = vec![recv];
            v.extend(args.iter());
            v
        }
        ExprKind::Field { base, .. } => vec![base],
        ExprKind::Index { base, index } => vec![base, index],
        ExprKind::Try(x) | ExprKind::Unary(x) => vec![x],
        ExprKind::Jump(x) => x.iter().map(|b| &**b).collect(),
        ExprKind::Chain(parts) | ExprKind::Tuple(parts) | ExprKind::Array(parts) => {
            parts.iter().collect()
        }
        ExprKind::StructLit { fields, .. } => fields.iter().collect(),
        _ => Vec::new(),
    }
}

fn lock_rules(
    symbols: &SymbolTable<'_>,
    ctxs: &[FileContext<'_>],
    enabled: &dyn Fn(&str) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    // Pass 1: per-fn acquisition sets (closures excluded) for one-level
    // propagation.
    let acquires_of: Vec<Vec<String>> = symbols
        .fns
        .iter()
        .map(|f| {
            let mut labels = Vec::new();
            if f.is_test {
                return labels;
            }
            if let Some(body) = &f.def.body {
                walk_no_closures(body, &mut |e| {
                    if let Some(label) = lock_acquisition(e) {
                        if !labels.contains(&label) {
                            labels.push(label);
                        }
                    }
                });
            }
            labels
        })
        .collect();

    // Pass 2: liveness walk per fn.
    let mut pairs = Vec::new();
    let mut blocks = Vec::new();
    for f in &symbols.fns {
        if f.is_test || symbols.files[f.file].is_test_file {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        let mut w = LockWalk {
            symbols,
            acquires_of: &acquires_of,
            file: f.file,
            fn_name: &f.def.name,
            self_ty: f.self_ty,
            live: Vec::new(),
            pairs: Vec::new(),
            blocks: Vec::new(),
        };
        w.walk_block(body);
        pairs.extend(w.pairs);
        blocks.extend(w.blocks);
    }

    if enabled("lock-order-consistency") {
        // First observation of each direction; flag both sides of any
        // pair seen in both orders.
        let mut first: BTreeMap<(String, String), usize> = BTreeMap::new();
        for (i, p) in pairs.iter().enumerate() {
            first.entry((p.a.clone(), p.b.clone())).or_insert(i);
        }
        for ((a, b), &i) in &first {
            let Some(&j) = first.get(&(b.clone(), a.clone())) else { continue };
            let p = &pairs[i];
            let q = &pairs[j];
            push(
                &ctxs[p.file],
                "lock-order-consistency",
                p.line,
                p.col,
                format!(
                    "lock `{b}` acquired while `{a}` is held (in `{}`), but the opposite order \
                     occurs in `{}` at {}:{}; pick one acquisition order or deadlock under \
                     contention",
                    p.fn_name, q.fn_name, ctxs[q.file].rel_path, q.line
                ),
                out,
            );
        }
    }

    if enabled("guard-across-blocking-op") {
        let mut seen: Vec<(usize, u32, u32, String)> = Vec::new();
        for e in &blocks {
            let key = (e.file, e.line, e.col, e.guard.clone());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            push(
                &ctxs[e.file],
                "guard-across-blocking-op",
                e.line,
                e.col,
                format!(
                    "`.{}()` while the `{}` guard (taken on line {}) is still live; a blocked \
                     channel op under a held lock deadlocks every other thread that needs it — \
                     drop the guard first",
                    e.op, e.guard, e.guard_line
                ),
                out,
            );
        }
    }
}

/// Whether a `let` initializer hands the acquired guard to the binding:
/// the acquisition is the outermost expression, possibly wrapped in
/// `unwrap`/`expect`/`?`/`&`. Anything deeper (`.lock().unwrap().len()`)
/// only holds the guard for the statement.
fn guard_escapes(e: &Expr) -> bool {
    if lock_acquisition(e).is_some() {
        return true;
    }
    match &e.kind {
        ExprKind::Try(inner) | ExprKind::Unary(inner) => guard_escapes(inner),
        ExprKind::MethodCall { recv, name, .. } if name == "unwrap" || name == "expect" => {
            guard_escapes(recv)
        }
        _ => false,
    }
}

/// Expression walk that skips closure bodies — used for the per-function
/// lock acquisition sets, where a closure's locks belong to whoever runs
/// the closure, not to the defining function's callers.
fn walk_no_closures<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    walk(e, f);
                }
                if let Some(b) = els {
                    walk_no_closures(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk(expr, f),
            Stmt::Item(_) => {}
        }
    }
    fn walk<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        match &e.kind {
            ExprKind::Closure(_) => return,
            ExprKind::Block(b) | ExprKind::Loop(b) => {
                f(e);
                walk_no_closures(b, f);
                return;
            }
            ExprKind::If { cond, then, els } => {
                f(e);
                walk(cond, f);
                walk_no_closures(then, f);
                if let Some(x) = els {
                    walk(x, f);
                }
                return;
            }
            ExprKind::While { cond, body } => {
                f(e);
                walk(cond, f);
                walk_no_closures(body, f);
                return;
            }
            ExprKind::For { iter, body } => {
                f(e);
                walk(iter, f);
                walk_no_closures(body, f);
                return;
            }
            ExprKind::Match { scrut, arms } => {
                f(e);
                walk(scrut, f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        walk(g, f);
                    }
                    walk(&arm.body, f);
                }
                return;
            }
            _ => {}
        }
        f(e);
        for child in expr_children(e) {
            walk(child, f);
        }
    }
}

// ---- nondeterministic-float-reduction ---------------------------------

fn float_reduction_exempt(rel: &str) -> bool {
    rel.contains("crates/tensor/src/")
        || rel.contains("crates/probe/")
        || rel.contains("crates/insight/")
}

/// The base variable a method chain hangs off: `m.values().map(f)` → `m`.
fn chain_base(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(p) => Some(p.as_str()),
        ExprKind::MethodCall { recv, .. } => chain_base(recv),
        ExprKind::Field { base, .. } => chain_base(base),
        ExprKind::Unary(x) | ExprKind::Try(x) => chain_base(x),
        ExprKind::Tuple(parts) if parts.len() == 1 => chain_base(&parts[0]),
        _ => None,
    }
}

/// Head of an initializer type: `HashMap::new()` / `HashMap::from(…)` →
/// `HashMap`.
fn init_type_head(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Call { path, .. } if path.len() >= 2 => Some(path[0].as_str()),
        ExprKind::MethodCall { recv, .. } => init_type_head(recv),
        _ => None,
    }
}

fn is_unordered_container(head: &str) -> bool {
    head == "HashMap" || head == "HashSet"
}

/// Whether a float-literal-ish expression seeds a `fold`.
fn float_seed(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Lit(text) => text.contains('.') || text.ends_with("f32") || text.ends_with("f64"),
        ExprKind::Path(p) => p.starts_with("f32::") || p.starts_with("f64::"),
        ExprKind::Unary(inner) => float_seed(inner),
        _ => false,
    }
}

/// Order-insensitive fold combinators: min/max commute, so iteration
/// order cannot change the result.
fn order_insensitive_combinator(e: &Expr) -> bool {
    matches!(
        &e.kind,
        ExprKind::Path(p) if matches!(p.as_str(), "f32::min" | "f32::max" | "f64::min" | "f64::max")
    )
}

fn nondeterministic_float_reduction(
    symbols: &SymbolTable<'_>,
    ctxs: &[FileContext<'_>],
    out: &mut Vec<Diagnostic>,
) {
    for f in &symbols.fns {
        let pf = &symbols.files[f.file];
        if f.is_test || pf.is_test_file || float_reduction_exempt(&pf.rel) {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        // Local bindings whose type is an unordered container, by name.
        let mut unordered_locals: Vec<String> = Vec::new();
        collect_unordered_locals(body, &mut unordered_locals);
        callgraph::walk_own_exprs(body, &mut |e| {
            let ExprKind::MethodCall { recv, name, name_tok, turbofish, args } = &e.kind else {
                return;
            };
            if !matches!(name.as_str(), "sum" | "fold" | "product") {
                return;
            }
            // Float evidence: a turbofish (`sum::<f32>()`) or a float fold
            // seed (`fold(0.0, …)` / `fold(f32::INFINITY, …)`).
            let float =
                turbofish.as_deref().is_some_and(|t| t.contains("f32") || t.contains("f64"))
                    || (name == "fold" && args.first().is_some_and(float_seed));
            if !float {
                return;
            }
            // min/max folds commute; order cannot matter.
            if name == "fold" && args.get(1).is_some_and(order_insensitive_combinator) {
                return;
            }
            // Order-unstable source: the chain bottoms out at a local
            // resolved to a HashMap/HashSet.
            let unstable =
                chain_base(recv).is_some_and(|base| unordered_locals.iter().any(|l| l == base));
            if !unstable {
                return;
            }
            let t = &pf.tokens[*name_tok];
            push(
                &ctxs[f.file],
                "nondeterministic-float-reduction",
                t.line,
                t.col,
                format!(
                    "float `.{name}()` over a HashMap/HashSet-backed iterator; hash iteration \
                     order varies between processes, so this reduction breaks the repo's \
                     bitwise-determinism contract — collect into a sorted order (or a BTreeMap) \
                     before reducing",
                ),
                out,
            );
        });
    }
}

/// Collects `let` bindings (this block and nested ones) whose type head —
/// annotation or initializer — is an unordered container.
fn collect_unordered_locals(block: &Block, out: &mut Vec<String>) {
    for_each_block(block, &mut |b| {
        for stmt in &b.stmts {
            let Stmt::Let { pat, ty_head, init, .. } = stmt else { continue };
            let annotated = ty_head.as_deref().is_some_and(is_unordered_container);
            let inferred =
                init.as_ref().and_then(init_type_head).is_some_and(is_unordered_container);
            if annotated || inferred {
                if let Some(name) =
                    pat.split_whitespace().find(|w| !matches!(*w, "mut" | "ref" | "&"))
                {
                    if !out.iter().any(|n| n == name) {
                        out.push(name.to_string());
                    }
                }
            }
        }
    });
}

// ---- discarded-result -------------------------------------------------

/// Whether a discarded call expression resolves to a `Result` return.
/// Returns the callee's display name when it does. Method resolution uses
/// the symbol table's same-crate boundary — `Option::expect` must not be
/// confused with some other crate's `fn expect`.
fn resolves_to_result(
    symbols: &SymbolTable<'_>,
    file: usize,
    caller_self_ty: Option<&str>,
    e: &Expr,
) -> Option<String> {
    match &e.kind {
        ExprKind::Call { path, .. } => {
            let name = path.last()?;
            // `std::fs::*` — external knowledge, never workspace-defined.
            if path.iter().any(|s| s == "fs") && FS_RESULT_FNS.contains(&name.as_str()) {
                return Some(format!("fs::{name}"));
            }
            let candidates = symbols.candidates_for_call(file, path);
            symbols.returns_result(&candidates).then(|| name.clone())
        }
        ExprKind::MethodCall { recv, name, args, .. } => {
            if STD_SHADOWED_METHODS.contains(&name.as_str()) {
                return None;
            }
            // Workspace definitions win over the external table: a local
            // `fn send(&self)` returning unit is not a channel send.
            let recv_is_self = matches!(&recv.kind, ExprKind::Path(p) if p == "self");
            let workspace = symbols.candidates_for_method(file, caller_self_ty, recv_is_self, name);
            if !workspace.is_empty() {
                return symbols.returns_result(&workspace).then(|| name.clone());
            }
            EXTERNAL_RESULT_METHODS.contains(&(name.as_str(), args.len())).then(|| name.clone())
        }
        _ => None,
    }
}

fn discarded_result(
    symbols: &SymbolTable<'_>,
    ctxs: &[FileContext<'_>],
    out: &mut Vec<Diagnostic>,
) {
    for f in &symbols.fns {
        let pf = &symbols.files[f.file];
        if f.is_test || pf.is_test_file {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        for_each_block(body, &mut |block| {
            for stmt in &block.stmts {
                let (expr, form) = match stmt {
                    Stmt::Let { pat, init: Some(e), .. } if pat == "_" => (e, "`let _ =`"),
                    Stmt::Expr { expr, semi: true } => (expr, "bare statement"),
                    _ => continue,
                };
                let Some(callee) = resolves_to_result(symbols, f.file, f.self_ty, expr) else {
                    continue;
                };
                push(
                    &ctxs[f.file],
                    "discarded-result",
                    expr.span.line,
                    expr.span.col,
                    format!(
                        "{form} silently discards the `Result` from `{callee}`; handle the \
                         error, propagate with `?`, or make a best-effort call explicit with \
                         `.ok()`",
                    ),
                    out,
                );
            }
        });
    }
}

/// Visits this block and every block nested in its expressions (closure
/// bodies and `let … else` blocks included, nested items excluded).
fn for_each_block<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Block)) {
    f(block);
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    expr_blocks(e, f);
                }
                if let Some(b) = els {
                    for_each_block(b, f);
                }
            }
            Stmt::Expr { expr, .. } => expr_blocks(expr, f),
            Stmt::Item(_) => {}
        }
    }
    fn expr_blocks<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Block)) {
        match &e.kind {
            ExprKind::Block(b) | ExprKind::Loop(b) => for_each_block(b, f),
            ExprKind::If { cond, then, els } => {
                expr_blocks(cond, f);
                for_each_block(then, f);
                if let Some(x) = els {
                    expr_blocks(x, f);
                }
            }
            ExprKind::While { cond, body } => {
                expr_blocks(cond, f);
                for_each_block(body, f);
            }
            ExprKind::For { iter, body } => {
                expr_blocks(iter, f);
                for_each_block(body, f);
            }
            ExprKind::Match { scrut, arms } => {
                expr_blocks(scrut, f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        expr_blocks(g, f);
                    }
                    expr_blocks(&arm.body, f);
                }
            }
            ExprKind::Closure(inner) => expr_blocks(inner, f),
            _ => {
                for child in expr_children(e) {
                    expr_blocks(child, f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_files(sources: &[(&str, &str)]) -> Vec<ParsedFile> {
        sources.iter().map(|(rel, src)| ParsedFile::parse(Path::new(rel), src)).collect()
    }

    fn run_all(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        check(&parse_files(sources), &|_| true)
    }

    fn run_rule(sources: &[(&str, &str)], rule: &str) -> Vec<Diagnostic> {
        check(&parse_files(sources), &|r| r == rule)
    }

    #[test]
    fn seeded_unwrap_three_deep_is_reached_with_chain() {
        let src = "\
pub struct Trainer;
impl Trainer {
    pub fn run(&self) { self.round(0); }
    fn round(&self, s: usize) { pack_refs(s); }
}
fn pack_refs(s: usize) { deep(s); }
fn deep(s: usize) { maybe(s).unwrap(); }
fn maybe(_s: usize) -> Option<u32> { None }";
        let diags = run_rule(&[("crates/dist/src/reachable.rs", src)], "dist-panic-reachability");
        let unwraps: Vec<_> = diags.iter().filter(|d| d.message.contains("`.unwrap()`")).collect();
        assert_eq!(unwraps.len(), 1, "{diags:?}");
        assert!(
            unwraps[0].message.contains("run → round → pack_refs → deep"),
            "chain missing: {}",
            unwraps[0].message
        );
        assert_eq!(unwraps[0].line, 7);
    }

    #[test]
    fn reachability_follows_calls_into_the_worker_codecs() {
        let trainer = "pub fn run_worker(c: &mut Codec) { c.encode(0); }";
        let codec = "\
impl Codec { pub fn encode(&mut self, p: usize) { self.lens[p]; } }
pub fn round() { None::<u32>.unwrap(); }";
        let diags = run_rule(
            &[("crates/dist/src/trainer.rs", trainer), ("crates/compress/src/powersgd.rs", codec)],
            "dist-panic-reachability",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].file.ends_with("compress/src/powersgd.rs"));
        assert!(diags[0].message.contains("run_worker → encode"), "{}", diags[0].message);
        // Other compress files stay out of it, and a codec file has no
        // entry points of its own (`round` above is not a root).
        let diags = run_rule(
            &[("crates/dist/src/trainer.rs", trainer), ("crates/compress/src/quant.rs", codec)],
            "dist-panic-reachability",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unreachable_panic_not_flagged_by_reachability() {
        let src = "fn orphan(x: Option<u32>) -> u32 { x.unwrap() }";
        let diags = run_rule(&[("crates/dist/src/x.rs", src)], "dist-panic-reachability");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reachability_sees_indexing_and_respects_suppression() {
        let src = "\
pub fn run_worker(xs: &[u32], i: usize) -> u32 {
    let a = xs[i];
    let b = xs[i + 1]; // lint:allow(dist-panic-reachability) — i+1 < len by construction
    a + b
}";
        let diags = run_rule(&[("crates/dist/src/w.rs", src)], "dist-panic-reachability");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("indexing `xs[…]`"));
    }

    #[test]
    fn test_code_is_invisible_to_reachability() {
        let src = "\
pub fn run_worker(x: Option<u32>) -> u32 { x.unwrap_or(0) }
#[cfg(test)]
mod tests {
    fn run(x: Option<u32>) { x.unwrap(); }
}";
        assert!(run_rule(&[("crates/dist/src/w.rs", src)], "dist-panic-reachability").is_empty());
    }

    #[test]
    fn panic_sites_ignore_strings_comments_and_tests() {
        let src = r##"
pub fn run_worker(x: Option<u32>) -> u32 {
    let s = ".unwrap(";
    /* panic!("decoy") */
    let r = r#"panic!("x")"#;
    x.unwrap()
}
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) { x.unwrap(); panic!("fine in tests"); }
}
"##;
        let diags = run_rule(&[("crates/dist/src/foo.rs", src)], "dist-panic-reachability");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn expect_and_macros_flagged() {
        let src = "pub fn run(x: Option<u32>) { x.expect(\"m\"); panic!(\"b\"); unreachable!() }";
        let diags = run_rule(&[("crates/dist/src/foo.rs", src)], "dist-panic-reachability");
        assert_eq!(diags.len(), 3, "{diags:?}");
    }

    #[test]
    fn expect_method_name_without_call_not_flagged() {
        // `std::panic::catch_unwind` has `panic` as a path segment, not a
        // macro bang; a field named `expect` is not a call.
        let src = "pub fn run() { let _ = std::panic::catch_unwind(|| 1); let e = cfg.expect; }";
        assert!(run_rule(&[("crates/dist/src/foo.rs", src)], "dist-panic-reachability").is_empty());
    }

    #[test]
    fn dist_rules_do_not_apply_outside_dist() {
        let src = "pub fn run(x: Option<u32>) { x.unwrap(); }";
        assert!(run_rule(&[("crates/nn/src/foo.rs", src)], "dist-panic-reachability").is_empty());
    }

    #[test]
    fn lock_order_inconsistency_flagged_both_sides() {
        let src = "\
fn ab(s: &S) {
    let g1 = s.a.lock();
    let g2 = s.b.lock();
    use_both(g1, g2);
}
fn ba(s: &S) {
    let g2 = s.b.lock();
    let g1 = s.a.lock();
    use_both(g1, g2);
}";
        let diags = run_rule(&[("crates/dist/src/l.rs", src)], "lock-order-consistency");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.line == 3));
        assert!(diags.iter().any(|d| d.line == 8));
        assert!(diags[0].message.contains("opposite order"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "\
fn ab(s: &S) { let g1 = s.a.lock(); let g2 = s.b.lock(); use_both(g1, g2); }
fn ab2(s: &S) { let g1 = s.a.lock(); let g2 = s.b.lock(); use_both(g1, g2); }";
        assert!(run_rule(&[("crates/dist/src/l.rs", src)], "lock-order-consistency").is_empty());
    }

    #[test]
    fn lock_order_propagates_one_level() {
        let src = "\
fn outer(s: &S) {
    let g = s.a.lock();
    helper(s);
    drop(g);
}
fn helper(s: &S) { let h = s.b.lock(); use_it(h); }
fn reversed(s: &S) {
    let g = s.b.lock();
    let h = s.a.lock();
    use_both(g, h);
}";
        let diags = run_rule(&[("crates/dist/src/l.rs", src)], "lock-order-consistency");
        // outer: a → b (via helper); reversed: b → a. Both sides flagged.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.line == 3), "{diags:?}");
    }

    #[test]
    fn guard_across_recv_flagged_but_drop_releases() {
        let src = "\
fn bad(s: &S, rx: &Receiver<u32>) {
    let g = s.state.lock();
    let v = rx.recv();
    use_both(g, v);
}
fn good(s: &S, rx: &Receiver<u32>) {
    let g = s.state.lock();
    drop(g);
    let v = rx.recv();
    use_it(v);
}";
        let diags = run_rule(&[("crates/dist/src/g.rs", src)], "guard-across-blocking-op");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("`s.state`"));
    }

    #[test]
    fn guard_ends_at_block_boundary_and_closures_are_deferred() {
        let src = "\
fn scoped(s: &S, rx: &Receiver<u32>) {
    { let g = s.state.lock(); use_it(g); }
    let v = rx.recv();
    use_it(v);
}
fn deferred(s: &S, rx: &Receiver<u32>) {
    let g = s.spawned.lock();
    let work = move || rx.recv();
    use_both(g, work);
}";
        assert!(run_rule(&[("crates/dist/src/g.rs", src)], "guard-across-blocking-op").is_empty());
    }

    #[test]
    fn hashmap_float_sum_flagged_btreemap_and_slices_clean() {
        let src = "\
fn bad(xs: &[(u32, f32)]) -> f32 {
    let m: HashMap<u32, f32> = xs.iter().copied().collect();
    m.values().sum::<f32>()
}
fn good_btree(xs: &[(u32, f32)]) -> f32 {
    let m: BTreeMap<u32, f32> = xs.iter().copied().collect();
    m.values().sum::<f32>()
}
fn good_slice(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
        let diags = run_rule(&[("crates/dist/src/f.rs", src)], "nondeterministic-float-reduction");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn minmax_folds_and_exempt_crates_are_clean() {
        let minmax = "\
fn extremes(xs: &[(u32, f32)]) -> f32 {
    let m = HashMap::from([(1u32, 1.0f32)]);
    m.values().fold(f32::INFINITY, f32::min)
}";
        assert!(run_rule(&[("crates/dist/src/f.rs", minmax)], "nondeterministic-float-reduction")
            .is_empty());
        let seeded_fold = "\
fn total(xs: &[(u32, f32)]) -> f32 {
    let m = HashMap::from([(1u32, 1.0f32)]);
    m.values().fold(0.0, |acc, v| acc + v)
}";
        assert_eq!(
            run_rule(&[("crates/dist/src/f.rs", seeded_fold)], "nondeterministic-float-reduction")
                .len(),
            1
        );
        // The deterministic kernels and the observability crates own their
        // reduction order.
        assert!(run_rule(
            &[("crates/tensor/src/kernel_sums.rs", seeded_fold)],
            "nondeterministic-float-reduction"
        )
        .is_empty());
        assert!(run_rule(
            &[("crates/probe/src/agg.rs", seeded_fold)],
            "nondeterministic-float-reduction"
        )
        .is_empty());
    }

    #[test]
    fn discarded_workspace_result_flagged() {
        let src = "\
fn save_all(p: &Path) -> DistResult<()> { Ok(()) }
fn caller(p: &Path) {
    let _ = save_all(p);
}";
        let diags = run_rule(&[("crates/dist/src/d.rs", src)], "discarded-result");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("save_all"));
    }

    #[test]
    fn discarded_sends_and_fs_flagged_ok_and_try_are_not() {
        let src = "\
fn notify(tx: &Sender<u32>) {
    let _ = tx.send(1);
    let _ = std::fs::remove_file(\"x\");
    tx.send(2).ok();
}
fn propagates(tx: &Sender<u32>) -> DistResult<()> {
    let _ = fallible()?;
    Ok(())
}
fn fallible() -> DistResult<u32> { Ok(1) }";
        let diags = run_rule(&[("crates/dist/src/d.rs", src)], "discarded-result");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn non_result_discards_and_test_code_are_clean() {
        let src = "\
fn backward(&self) -> Tensor { Tensor }
fn warm(model: &M) {
    let _ = model.backward();
}
#[cfg(test)]
mod tests {
    fn t(tx: &Sender<u32>) { let _ = tx.send(1); }
}";
        assert!(run_rule(&[("crates/nn/src/d.rs", src)], "discarded-result").is_empty());
    }

    #[test]
    fn workspace_send_definition_overrides_external_table() {
        let src = "\
impl Bus { fn send(&self, v: u32) {} }
fn caller(bus: &Bus) { let _ = bus.send(1); }";
        assert!(run_rule(&[("crates/core/src/d.rs", src)], "discarded-result").is_empty());
    }

    #[test]
    fn rules_filter_limits_semantic_output() {
        let src = "pub fn run(x: Option<u32>) { x.unwrap(); }";
        let all = run_all(&[("crates/dist/src/x.rs", src)]);
        assert!(all.iter().any(|d| d.rule == "dist-panic-reachability"));
        let only = run_rule(&[("crates/dist/src/x.rs", src)], "discarded-result");
        assert!(only.is_empty());
    }
}
