//! Satellite coverage for elastic-membership observability: the trainer's
//! join / leave / crash / catch-up transitions are emitted as instant
//! trace events plus `membership_event` JSONL rows, and both must carry
//! full worker + step + epoch attribution end to end — through the
//! in-memory sink, the Chrome trace exporter, and the JSONL metrics file.
//!
//! `puffer-probe` is upstream of `puffer-dist`, so this test replays the
//! exact category/name/row-type literals the trainer uses
//! (`puffer_dist::membership::{PROBE_CATEGORY, EV_*, ROW_TYPE}`);
//! `crates/dist/tests/membership_probe.rs` asserts the trainer actually
//! emits them.

use puffer_probe as probe;
use puffer_probe::{ArgValue, ProbeConfig};
use std::sync::{Mutex, PoisonError};

const CATEGORY: &str = "membership";
const ROW_TYPE: &str = "membership_event";

/// `(event name, kind, worker, step, epoch)` — one of each transition the
/// trainer can emit, in a plausible churn order.
const TRANSITIONS: &[(&str, &str, usize, usize, u64)] = &[
    ("member_crashed", "crash", 3, 4, 1),
    ("member_joined", "join", 4, 6, 2),
    ("catch_up", "catch_up", 4, 6, 2),
    ("member_left", "leave", 0, 7, 3),
    ("member_joined", "rejoin", 3, 8, 4),
];

fn emit_all() {
    for &(name, kind, worker, step, epoch) in TRANSITIONS {
        probe::event(
            CATEGORY,
            name,
            vec![
                ("worker", worker.into()),
                ("step", step.into()),
                ("epoch", epoch.into()),
                ("kind", kind.into()),
            ],
        );
        probe::metrics_row(
            ROW_TYPE,
            &[
                ("kind", kind.into()),
                ("worker", worker.into()),
                ("step", step.into()),
                ("epoch", epoch.into()),
            ],
        );
    }
}

/// Both tests `reset()` and `configure()` the process-global probe: each
/// holds this for its whole body, so the harness's threads run them one
/// after the other.
static PROBE: Mutex<()> = Mutex::new(());

#[test]
fn membership_events_round_trip_with_full_attribution() {
    let _probe = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    probe::reset();
    probe::configure(ProbeConfig::in_memory());
    emit_all();

    // In-memory trace events: one instant record per transition, each with
    // worker/step/epoch/kind args intact.
    let events: Vec<_> =
        probe::take_events().into_iter().filter(|e| e.cat == CATEGORY && e.phase == 'i').collect();
    assert_eq!(events.len(), TRANSITIONS.len());
    for (ev, &(name, kind, worker, step, epoch)) in events.iter().zip(TRANSITIONS) {
        assert_eq!(ev.name, name);
        let arg = |k: &str| ev.args.iter().find(|(n, _)| *n == k).map(|(_, v)| v.clone());
        assert_eq!(arg("worker"), Some(ArgValue::U64(worker as u64)), "{name}");
        assert_eq!(arg("step"), Some(ArgValue::U64(step as u64)), "{name}");
        assert_eq!(arg("epoch"), Some(ArgValue::U64(epoch)), "{name}");
        assert_eq!(arg("kind"), Some(ArgValue::Str(kind.into())), "{name}");
    }

    // The Chrome exporter must accept the records unchanged.
    let trace = probe::render_chrome_trace(&events);
    let summary = probe::validate_chrome_trace(&trace).unwrap();
    assert_eq!(summary.instants, TRANSITIONS.len());

    // JSONL rows: every transition parses back with the same attribution.
    let rows = probe::metrics_rows();
    assert_eq!(rows.len(), TRANSITIONS.len());
    for (row, &(_, kind, worker, step, epoch)) in rows.iter().zip(TRANSITIONS) {
        let parsed = probe::json::parse(row).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some(ROW_TYPE));
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some(kind));
        assert_eq!(parsed.get("worker").unwrap().as_num(), Some(worker as f64));
        assert_eq!(parsed.get("step").unwrap().as_num(), Some(step as f64));
        assert_eq!(parsed.get("epoch").unwrap().as_num(), Some(epoch as f64));
        assert!(parsed.get("t_us").is_some(), "rows must be timestamped");
    }
    probe::reset();
}

#[test]
fn membership_rows_survive_the_jsonl_file_exporter() {
    let _probe = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("puffer_probe_member_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("membership.jsonl");

    probe::reset();
    probe::configure(ProbeConfig {
        metrics_path: Some(metrics_path.clone()),
        ..ProbeConfig::in_memory()
    });
    emit_all();
    let report = probe::flush().unwrap();
    assert_eq!(report.metrics_rows, TRANSITIONS.len());

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // One row per transition plus the trailing counters summary.
    assert_eq!(lines.len(), TRANSITIONS.len() + 1);
    for (line, &(_, kind, worker, _, epoch)) in lines.iter().zip(TRANSITIONS) {
        let parsed = probe::json::parse(line).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some(ROW_TYPE));
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some(kind));
        assert_eq!(parsed.get("worker").unwrap().as_num(), Some(worker as f64));
        assert_eq!(parsed.get("epoch").unwrap().as_num(), Some(epoch as f64));
    }
    let last = probe::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("type").unwrap().as_str(), Some("counters"));

    probe::reset();
    std::fs::remove_dir_all(&dir).ok();
}
