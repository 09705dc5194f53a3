//! Run-level context: a header record stamped into both exporters.
//!
//! Traces and metrics files were previously anonymous — nothing in the
//! output said which seed, worker count, or compression scheme produced
//! it, so downstream analysis (puffer-insight) had to be told out of
//! band. [`run_header`] collects key/value context into a process-global
//! map; the exporter emits it as the *first* JSONL row
//! (`{"type":"run_header",...}`) and as a `"run_context"` metadata record
//! in the Chrome trace, making every artifact self-describing.
//! [`run_header_env`] additionally captures every `PUFFER_*` environment
//! knob, so a report can state the exact configuration it measures.

use crate::span::{ArgValue, TraceEvent};
use crate::{enabled, now_rel};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

static CONTEXT: Mutex<BTreeMap<String, ArgValue>> = Mutex::new(BTreeMap::new());

fn context() -> std::sync::MutexGuard<'static, BTreeMap<String, ArgValue>> {
    CONTEXT.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn clear() {
    context().clear();
}

/// Merges fields into the run header (later values overwrite earlier ones
/// under the same key). A no-op when the probe is disabled.
pub fn run_header(fields: &[(&str, ArgValue)]) {
    if !enabled() {
        return;
    }
    let mut ctx = context();
    for (k, v) in fields {
        ctx.insert((*k).to_string(), v.clone());
    }
}

/// Every `PUFFER_*` environment variable as a header field (lower-cased
/// key, e.g. `puffer_num_threads`), sorted by key.
#[must_use]
pub fn env_knobs() -> Vec<(String, ArgValue)> {
    let mut knobs: Vec<(String, ArgValue)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PUFFER_"))
        .map(|(k, v)| (k.to_ascii_lowercase(), ArgValue::Str(v)))
        .collect();
    knobs.sort_by(|a, b| a.0.cmp(&b.0));
    knobs
}

/// Captures [`env_knobs`] into the run header. A no-op when disabled.
pub fn run_header_env() {
    if enabled() {
        context().extend(env_knobs());
    }
}

/// A key-sorted snapshot of the current run header.
#[must_use]
pub fn run_header_snapshot() -> Vec<(String, ArgValue)> {
    context().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// The `{"type":"run_header",...}` JSONL row (`None` when no context was
/// stamped).
pub(crate) fn header_row() -> Option<String> {
    let ctx = context();
    if ctx.is_empty() {
        return None;
    }
    let mut line = String::from("{\"type\":\"run_header\"");
    for (k, v) in ctx.iter() {
        line.push(',');
        crate::json::escape_into(&mut line, k);
        line.push(':');
        v.json_into(&mut line);
    }
    line.push('}');
    Some(line)
}

/// Interns a dynamic header key: [`TraceEvent`] arg keys are
/// `&'static str`, so each distinct key is leaked exactly once. Bounded
/// by the number of distinct context keys a process ever stamps (a few
/// dozen), not by record volume.
fn intern(k: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut v = INTERNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(s) = v.iter().find(|s| **s == k) {
        return s;
    }
    let leaked: &'static str = Box::leak(k.to_string().into_boxed_str());
    v.push(leaked);
    leaked
}

/// The `"run_context"` metadata record for the Chrome trace (`None` when
/// no context was stamped).
pub(crate) fn header_event() -> Option<TraceEvent> {
    let ctx = context();
    if ctx.is_empty() {
        return None;
    }
    Some(TraceEvent {
        phase: 'M',
        name: "run_context",
        cat: "",
        ts: now_rel(),
        dur: Duration::ZERO,
        tid: 0,
        args: ctx.iter().map(|(k, v)| (intern(k), v.clone())).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configure, reset, testutil, ProbeConfig};

    #[test]
    fn header_merges_and_serializes() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        run_header(&[("seed", 17u64.into()), ("scheme", "none".into())]);
        run_header(&[("seed", 18u64.into()), ("workers", 4usize.into())]);
        let snap = run_header_snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().any(|(k, v)| k == "seed" && *v == ArgValue::U64(18)));
        let row = header_row().expect("header row present");
        let parsed = crate::json::parse(&row).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("run_header"));
        assert_eq!(parsed.get("workers").unwrap().as_num(), Some(4.0));
        assert_eq!(parsed.get("scheme").unwrap().as_str(), Some("none"));
        let ev = header_event().expect("header event present");
        assert_eq!((ev.phase, ev.name), ('M', "run_context"));
        assert!(ev.args.iter().any(|(k, _)| *k == "scheme"));
        reset();
        assert!(header_row().is_none(), "reset clears the header");
    }

    #[test]
    fn env_knobs_are_captured() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        // Set a knob for the duration of the test; the capture lower-cases.
        std::env::set_var("PUFFER_CTX_TEST_KNOB", "on");
        run_header_env();
        std::env::remove_var("PUFFER_CTX_TEST_KNOB");
        let snap = run_header_snapshot();
        assert!(snap
            .iter()
            .any(|(k, v)| k == "puffer_ctx_test_knob" && *v == ArgValue::Str("on".into())));
        reset();
    }

    #[test]
    fn disabled_header_is_a_no_op() {
        let _guard = testutil::lock();
        reset();
        run_header(&[("seed", 1u64.into())]);
        assert!(run_header_snapshot().is_empty());
        assert!(header_event().is_none());
    }
}
