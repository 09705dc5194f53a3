//! Workspace symbol table: every parsed file and every function
//! definition in one indexed view.
//!
//! The semantic rules need to answer questions that span files: "what
//! does `checkpoint::load` return?", "which functions named `round` could
//! this `self.round(...)` call resolve to?". This module owns the parsed
//! workspace ([`ParsedFile`] per `.rs` file) and a flat, deterministic
//! function index ([`SymbolTable`]) with name-based resolution.
//!
//! Resolution is intentionally conservative and name-based — there is no
//! type inference and no trait dispatch. A call resolves to the set of
//! same-name candidates, narrowed by the evidence the AST has: the
//! type-qualifier of a `Type::fn_name` path, the caller's own `Self` type
//! for `self.method()` calls, and crate proximity (same file, then same
//! crate, then workspace). Rules that consume candidate sets must treat
//! them as over-approximations.

use crate::ast::{self, FnDef};
use crate::lexer::{self, Token};
use crate::scope;
use std::collections::HashMap;
use std::path::Path;

/// One `.rs` file: lexed, test-masked, and parsed.
pub struct ParsedFile {
    /// Path relative to the scan root, `/`-separated.
    pub rel: String,
    /// Lexed tokens (comments included; indices match `mask`).
    pub tokens: Vec<Token>,
    /// Per-token `#[cfg(test)]` mask.
    pub mask: Vec<bool>,
    /// The parsed item tree.
    pub ast: ast::File,
    /// Whether the file lives under a `tests/` or `benches/` directory.
    pub is_test_file: bool,
}

impl ParsedFile {
    /// Lexes, masks, and parses one source file.
    pub fn parse(root_rel: &Path, src: &str) -> ParsedFile {
        let rel = root_rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let is_test_file = root_rel
            .components()
            .any(|c| matches!(c.as_os_str().to_str(), Some("tests") | Some("benches")));
        let tokens = lexer::lex(src);
        let mask = scope::test_mask(&tokens);
        let ast = ast::parse_file(&tokens);
        ParsedFile { rel, tokens, mask, ast, is_test_file }
    }

    /// The crate this file belongs to (`dist` for `crates/dist/src/…`),
    /// or the leading path segment outside a `crates/` layout.
    pub fn crate_name(&self) -> &str {
        if let Some(idx) = self.rel.find("crates/") {
            let rest = &self.rel[idx + "crates/".len()..];
            return rest.split('/').next().unwrap_or(rest);
        }
        self.rel.split('/').next().unwrap_or(&self.rel)
    }

    /// Whether the file is dist non-test source.
    pub fn in_dist_src(&self) -> bool {
        self.rel.contains("crates/dist/src/")
    }

    /// Whether the file holds a worker-side codec: code of another crate
    /// that runs inside the trainer's worker threads every round, so a
    /// panic there kills a worker mid-protocol just like one in dist.
    pub fn is_worker_codec_src(&self) -> bool {
        ["crates/compress/src/powersgd.rs", "crates/compress/src/none.rs"]
            .iter()
            .any(|f| self.rel.ends_with(f))
    }
}

/// One function in the workspace index.
pub struct FnSym<'a> {
    /// Index of the containing [`ParsedFile`].
    pub file: usize,
    /// The definition.
    pub def: &'a FnDef,
    /// Enclosing `impl`/`trait` self type, if any.
    pub self_ty: Option<&'a str>,
    /// Whether this fn is test code (test file, or under `#[cfg(test)]`).
    pub is_test: bool,
}

/// The workspace-wide function index.
pub struct SymbolTable<'a> {
    /// The parsed files, in scan order.
    pub files: &'a [ParsedFile],
    /// Every function, in (file, definition) order.
    pub fns: Vec<FnSym<'a>>,
    by_name: HashMap<&'a str, Vec<usize>>,
}

impl<'a> SymbolTable<'a> {
    /// Indexes every function in every parsed file.
    pub fn build(files: &'a [ParsedFile]) -> SymbolTable<'a> {
        let mut fns = Vec::new();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (fi, pf) in files.iter().enumerate() {
            for (def, self_ty) in ast::collect_fns(&pf.ast) {
                let in_test_scope =
                    pf.mask.get(def.name_tok).copied().unwrap_or(false) || pf.is_test_file;
                let id = fns.len();
                by_name.entry(def.name.as_str()).or_default().push(id);
                fns.push(FnSym { file: fi, def, self_ty, is_test: in_test_scope });
            }
        }
        SymbolTable { files, fns, by_name }
    }

    /// All functions with this name, any crate, tests included.
    pub fn all_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// `Trainer::run` for methods, `run` for free fns.
    pub fn display_name(&self, id: usize) -> String {
        let f = &self.fns[id];
        match f.self_ty {
            Some(ty) => format!("{ty}::{}", f.def.name),
            None => f.def.name.clone(),
        }
    }

    fn crate_of(&self, file: usize) -> &str {
        self.files[file].crate_name()
    }

    /// Non-test candidates for a path call (`f(…)`, `Type::f(…)`),
    /// narrowed by type qualifier and crate proximity.
    pub fn candidates_for_call(&self, from_file: usize, path: &[String]) -> Vec<usize> {
        let Some(name) = path.last() else { return Vec::new() };
        let all = self.all_named(name);
        let live: Vec<usize> = all.iter().copied().filter(|&id| !self.fns[id].is_test).collect();
        if live.is_empty() {
            return live;
        }
        // `Type::f` — the qualifier names the impl's self type.
        if path.len() >= 2 {
            let qual = &path[path.len() - 2];
            if qual.chars().next().is_some_and(char::is_uppercase) {
                let typed: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].self_ty == Some(qual.as_str()))
                    .collect();
                if !typed.is_empty() {
                    return self.prefer_near(from_file, typed);
                }
            }
        }
        // Bare or module-qualified call: free functions first.
        let free: Vec<usize> =
            live.iter().copied().filter(|&id| self.fns[id].self_ty.is_none()).collect();
        let pool = if free.is_empty() { live } else { free };
        self.prefer_near(from_file, pool)
    }

    /// Non-test candidates for a method call `recv.name(…)`. With
    /// `recv_is_self`, the caller's own impl type narrows the set.
    pub fn candidates_for_method(
        &self,
        from_file: usize,
        caller_self_ty: Option<&str>,
        recv_is_self: bool,
        name: &str,
    ) -> Vec<usize> {
        let live: Vec<usize> = self
            .all_named(name)
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                !f.is_test && f.def.has_self
            })
            .collect();
        if recv_is_self {
            if let Some(ty) = caller_self_ty {
                let own: Vec<usize> =
                    live.iter().copied().filter(|&id| self.fns[id].self_ty == Some(ty)).collect();
                if !own.is_empty() {
                    return self.prefer_near(from_file, own);
                }
            }
        }
        // Without receiver types, same-crate candidates are the honest
        // over-approximation; cross-crate method dispatch is a documented
        // analysis boundary — with one crossing: dist drives the
        // worker-side codecs through a trait object, every round, on its
        // own threads, so their methods count as dist's.
        let into_codec = self.files[from_file].in_dist_src();
        live.iter()
            .copied()
            .filter(|&id| {
                let callee_file = self.fns[id].file;
                self.crate_of(callee_file) == self.crate_of(from_file)
                    || (into_codec && self.files[callee_file].is_worker_codec_src())
            })
            .collect()
    }

    /// Same-file candidates beat same-crate, which beat the rest.
    fn prefer_near(&self, from_file: usize, pool: Vec<usize>) -> Vec<usize> {
        let same_file: Vec<usize> =
            pool.iter().copied().filter(|&id| self.fns[id].file == from_file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let from_crate = self.crate_of(from_file);
        let same_crate: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&id| self.crate_of(self.fns[id].file) == from_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        pool
    }

    /// Whether every non-test definition of `name` (optionally narrowed
    /// to `Type::name`) returns a `Result`-headed type. Alias-friendly:
    /// any head *ending* in `Result` counts (`DistResult`, `io::Result`).
    pub fn returns_result(&self, candidates: &[usize]) -> bool {
        !candidates.is_empty()
            && candidates
                .iter()
                .all(|&id| self.fns[id].def.ret_head().is_some_and(|h| h.ends_with("Result")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(sources: &[(&str, &str)]) -> Vec<ParsedFile> {
        sources.iter().map(|(rel, src)| ParsedFile::parse(Path::new(rel), src)).collect()
    }

    #[test]
    fn crate_name_derivation() {
        let fs = files(&[("crates/dist/src/trainer.rs", "fn a() {}"), ("src/main.rs", "")]);
        assert_eq!(fs[0].crate_name(), "dist");
        assert!(fs[0].in_dist_src());
        assert_eq!(fs[1].crate_name(), "src");
    }

    #[test]
    fn test_fns_marked_and_filtered() {
        let fs = files(&[(
            "crates/dist/src/x.rs",
            "fn live() {} #[cfg(test)] mod t { fn helper() {} }",
        )]);
        let table = SymbolTable::build(&fs);
        let live = table.all_named("live");
        assert_eq!(live.len(), 1);
        assert!(!table.fns[live[0]].is_test);
        let helper = table.all_named("helper");
        assert!(table.fns[helper[0]].is_test);
        assert!(table.candidates_for_call(0, &["helper".into()]).is_empty());
    }

    #[test]
    fn type_qualified_calls_narrow_to_impl() {
        let fs = files(&[(
            "crates/dist/src/x.rs",
            "impl Checkpoint { fn load() -> DistResult<u32> { Ok(1) } } \
             fn load() -> u32 { 2 }",
        )]);
        let table = SymbolTable::build(&fs);
        let typed = table.candidates_for_call(0, &["Checkpoint".into(), "load".into()]);
        assert_eq!(typed.len(), 1);
        assert_eq!(table.display_name(typed[0]), "Checkpoint::load");
        assert!(table.returns_result(&typed));
        let bare = table.candidates_for_call(0, &["load".into()]);
        assert_eq!(bare.len(), 1);
        assert!(!table.returns_result(&bare));
    }

    #[test]
    fn self_method_calls_prefer_own_impl() {
        let fs = files(&[(
            "crates/dist/src/x.rs",
            "impl A { fn go(&self) {} } impl B { fn go(&self) {} }",
        )]);
        let table = SymbolTable::build(&fs);
        let own = table.candidates_for_method(0, Some("A"), true, "go");
        assert_eq!(own.len(), 1);
        assert_eq!(table.display_name(own[0]), "A::go");
        // A non-self receiver keeps both same-crate candidates.
        assert_eq!(table.candidates_for_method(0, Some("A"), false, "go").len(), 2);
    }

    #[test]
    fn method_resolution_stays_in_crate() {
        let fs = files(&[
            ("crates/dist/src/x.rs", "fn caller() {}"),
            ("crates/tensor/src/y.rs", "impl T { fn norm(&self) {} }"),
        ]);
        let table = SymbolTable::build(&fs);
        assert!(table.candidates_for_method(0, None, false, "norm").is_empty());
    }

    #[test]
    fn result_aliases_count_as_result() {
        let fs = files(&[(
            "crates/dist/src/x.rs",
            "fn a() -> DistResult<()> { Ok(()) } fn b() -> std::io::Result<u8> { Ok(0) } \
             fn c() -> u32 { 1 }",
        )]);
        let table = SymbolTable::build(&fs);
        assert!(table.returns_result(table.all_named("a")));
        assert!(table.returns_result(table.all_named("b")));
        assert!(!table.returns_result(table.all_named("c")));
        assert!(!table.returns_result(&[]));
    }
}
