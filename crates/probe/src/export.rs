//! Exporters: Chrome trace-event JSON and the JSONL metrics file.
//!
//! The trace format is the Chrome `chrome://tracing` / Perfetto "JSON
//! array" flavor: one object per event with `name`/`cat`/`ph`/`pid`/
//! `tid`/`ts` (+`dur` for complete events), timestamps in *microseconds*
//! as floats. Durations are kept as exact [`std::time::Duration`]s until
//! this final conversion.

use crate::json::{escape_into, number_into};
use crate::span::TraceEvent;
use crate::ProbeConfig;
use std::io;
use std::path::PathBuf;

/// What [`crate::flush`] wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushReport {
    /// The trace file written, if configured.
    pub trace_path: Option<PathBuf>,
    /// The metrics file written, if configured.
    pub metrics_path: Option<PathBuf>,
    /// Trace events drained (written to the trace file or discarded).
    pub trace_events: usize,
    /// Metrics rows drained (counters summary row excluded).
    pub metrics_rows: usize,
    /// Events dropped at the in-memory cap since the last reset.
    pub dropped_events: u64,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn event_into(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":");
    escape_into(out, ev.name);
    if ev.phase != 'M' {
        out.push_str(",\"cat\":");
        escape_into(out, if ev.cat.is_empty() { "probe" } else { ev.cat });
    }
    crate::append!(out, ",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":", ev.phase, ev.tid);
    number_into(out, us(ev.ts));
    if ev.phase == 'X' {
        out.push_str(",\"dur\":");
        number_into(out, us(ev.dur));
    }
    if ev.phase == 'i' {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(out, k);
            out.push(':');
            v.json_into(out);
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders events as a complete Chrome trace-event JSON document.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push_str("[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        event_into(&mut out, ev);
    }
    out.push_str("\n]\n");
    out
}

/// Writes events as Chrome trace-event JSON.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_chrome_trace<W: io::Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    w.write_all(render_chrome_trace(events).as_bytes())
}

pub(crate) fn export(
    cfg: &ProbeConfig,
    events: &[TraceEvent],
    rows: &[String],
    dropped: u64,
) -> io::Result<FlushReport> {
    if let Some(path) = &cfg.trace_path {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        // Prepend the run-context header and append per-family histogram
        // summaries so the trace file is self-describing.
        let extras = crate::trace_extras();
        let mut all = Vec::with_capacity(events.len() + extras.len());
        all.extend(extras.iter().filter(|e| e.name == "run_context").cloned());
        all.extend_from_slice(events);
        all.extend(extras.into_iter().filter(|e| e.name != "run_context"));
        write_chrome_trace(std::fs::File::create(path)?, &all)?;
    }
    if let Some(path) = &cfg.metrics_path {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut doc = String::with_capacity(rows.iter().map(|r| r.len() + 1).sum::<usize>() + 64);
        if let Some(header) = crate::context::header_row() {
            doc.push_str(&header);
            doc.push('\n');
        }
        for row in rows {
            doc.push_str(row);
            doc.push('\n');
        }
        doc.push_str(&crate::metrics::counters_row());
        doc.push('\n');
        for row in crate::hist::hist_rows() {
            doc.push_str(&row);
            doc.push('\n');
        }
        std::fs::write(path, doc)?;
    }
    Ok(FlushReport {
        trace_path: cfg.trace_path.clone(),
        metrics_path: cfg.metrics_path.clone(),
        trace_events: events.len(),
        metrics_rows: rows.len(),
        dropped_events: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;
    use crate::span::ArgValue;
    use crate::{configure, flush, reset, testutil};
    use std::time::Duration;

    #[test]
    fn rendered_trace_validates_and_round_trips_values() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        {
            let _s = crate::span_with("cat-a", "spañ \"x\"", || {
                vec![("n", 3usize.into()), ("f", ArgValue::F64(1.5)), ("s", "q\"".into())]
            });
            crate::event("fault", "nan_skip", vec![("step", 1usize.into())]);
            crate::counter_add("bytes", 128);
        }
        let events = crate::take_events();
        let doc = render_chrome_trace(&events);
        let summary = validate_chrome_trace(&doc).unwrap();
        assert!(summary.spans >= 1 && summary.instants == 1 && summary.counters == 1);
        assert!(summary.has_name("spañ \"x\""));
        assert!(summary.cats.contains("cat-a"));
        reset();
    }

    #[test]
    fn flush_writes_both_files() {
        let _guard = testutil::lock();
        reset();
        let dir = std::env::temp_dir().join(format!("puffer-probe-test-{}", std::process::id()));
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.jsonl");
        configure(ProbeConfig {
            trace_path: Some(trace.clone()),
            metrics_path: Some(metrics.clone()),
            collect: false,
        });
        crate::run_header(&[("seed", 17u64.into())]);
        crate::emit_span("t", "modeled", Duration::from_micros(10), Vec::new());
        crate::metrics_row("step", &[("step", 0usize.into())]);
        crate::counter_add("c", 2);
        let report = flush().unwrap();
        assert_eq!(report.metrics_rows, 1);
        assert!(report.trace_events >= 1);
        let doc = std::fs::read_to_string(&trace).unwrap();
        let summary = validate_chrome_trace(&doc).unwrap();
        assert!(summary.has_name("run_context"), "trace carries the run header");
        assert!(summary.has_name("histogram"), "trace carries span-family histograms");
        let lines: Vec<String> =
            std::fs::read_to_string(&metrics).unwrap().lines().map(String::from).collect();
        assert_eq!(lines.len(), 4, "header + step row + counters summary + one hist row");
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("run_header"));
        assert_eq!(first.get("seed").unwrap().as_num(), Some(17.0));
        let counters = crate::json::parse(&lines[2]).unwrap();
        assert_eq!(counters.get("type").unwrap().as_str(), Some("counters"));
        assert_eq!(counters.get("c").unwrap().as_num(), Some(2.0));
        let hist = crate::json::parse(&lines[3]).unwrap();
        assert_eq!(hist.get("type").unwrap().as_str(), Some("hist"));
        assert_eq!(hist.get("name").unwrap().as_str(), Some("modeled"));
        assert_eq!(hist.get("count").unwrap().as_num(), Some(1.0));
        // Second flush starts from drained buffers.
        let report2 = flush().unwrap();
        assert_eq!((report2.trace_events, report2.metrics_rows), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }
}
