//! Counters, gauges, and the per-step JSONL metrics sink.
//!
//! The registry is process-global and keyed by `&'static str` names, so a
//! counter costs one map lookup under a short-lived lock — and nothing at
//! all when the probe is disabled. Counter updates additionally emit
//! Chrome `"C"` events, which the trace viewer renders as counter tracks
//! alongside the span timeline.

use crate::span::{current_tid, ArgValue, TraceEvent};
use crate::{enabled, now_rel, push_event, with_sink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

static REGISTRY: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, f64>> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn clear_registry() {
    registry().clear();
}

fn record_counter_event(name: &'static str, value: f64) {
    push_event(TraceEvent {
        phase: 'C',
        name,
        cat: "metric",
        ts: now_rel(),
        dur: Duration::ZERO,
        tid: current_tid(),
        args: vec![("value", ArgValue::F64(value))],
    });
}

/// Adds `delta` to the named monotonic counter. A no-op when disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let value = {
        let mut reg = registry();
        let v = reg.entry(name).or_insert(0.0);
        *v += delta as f64;
        *v
    };
    record_counter_event(name, value);
}

/// Sets the named gauge to `value`. A no-op when disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    registry().insert(name, value);
    record_counter_event(name, value);
}

/// The current value of a counter or gauge (`None` if never touched
/// while enabled).
pub fn counter_value(name: &str) -> Option<f64> {
    registry().get(name).copied()
}

/// A snapshot of the whole registry, name-sorted.
pub fn counters_snapshot() -> Vec<(&'static str, f64)> {
    registry().iter().map(|(k, v)| (*k, *v)).collect()
}

/// Appends one JSONL row to the metrics sink:
/// `{"type":<row_type>,"t_us":<clock>,<fields...>}`. Serialized
/// immediately (keys need not be static), buffered until [`crate::flush`].
/// A no-op when disabled.
pub fn metrics_row(row_type: &str, fields: &[(&str, ArgValue)]) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(64 + fields.len() * 16);
    line.push_str("{\"type\":");
    crate::json::escape_into(&mut line, row_type);
    crate::append!(line, ",\"t_us\":{}", now_rel().as_micros());
    for (k, v) in fields {
        line.push(',');
        crate::json::escape_into(&mut line, k);
        line.push(':');
        v.json_into(&mut line);
    }
    line.push('}');
    with_sink(|s| s.rows.push(line));
}

/// Drains and returns the buffered metrics rows (tests; [`crate::flush`]
/// uses the same buffer).
pub fn metrics_rows() -> Vec<String> {
    with_sink(|s| std::mem::take(&mut s.rows))
}

/// Serializes the counters registry as one JSON object row,
/// `{"type":"counters",...}` — appended by the exporter as the final
/// metrics line.
pub(crate) fn counters_row() -> String {
    let mut line = String::from("{\"type\":\"counters\"");
    for (k, v) in registry().iter() {
        line.push(',');
        crate::json::escape_into(&mut line, k);
        line.push(':');
        crate::json::number_into(&mut line, *v);
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configure, reset, take_events, testutil, ProbeConfig};

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        counter_add("test.bytes", 10);
        counter_add("test.bytes", 5);
        gauge_set("test.width", 4.0);
        gauge_set("test.width", 2.0);
        assert_eq!(counter_value("test.bytes"), Some(15.0));
        assert_eq!(counter_value("test.width"), Some(2.0));
        let counter_events = take_events().into_iter().filter(|e| e.phase == 'C').count();
        assert_eq!(counter_events, 4, "every update emits a counter sample");
        reset();
    }

    #[test]
    fn disabled_counters_do_not_register() {
        let _guard = testutil::lock();
        reset();
        counter_add("test.dead", 1);
        assert_eq!(counter_value("test.dead"), None);
    }

    #[test]
    fn metrics_rows_are_valid_json_lines() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        metrics_row(
            "step",
            &[
                ("step", 3usize.into()),
                ("loss", ArgValue::F64(0.5)),
                ("note", "a\"b".into()),
                ("nan", ArgValue::F64(f64::NAN)),
            ],
        );
        counter_add("test.rows", 1);
        let rows = metrics_rows();
        assert_eq!(rows.len(), 1);
        let parsed = crate::json::parse(&rows[0]).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("step"));
        assert_eq!(parsed.get("step").unwrap().as_num(), Some(3.0));
        assert_eq!(parsed.get("note").unwrap().as_str(), Some("a\"b"));
        assert_eq!(parsed.get("nan"), Some(&crate::json::Json::Null));
        let counters = crate::json::parse(&counters_row()).unwrap();
        assert_eq!(counters.get("test.rows").unwrap().as_num(), Some(1.0));
        reset();
    }
}
