//! The one result format of the harness.
//!
//! Every experiment returns a [`Record`]: its name, a run header (the
//! hardware it ran on, the `PUFFER_*` knobs in the environment, and
//! whatever the run stamped into the probe's own run header), the tables
//! it printed, and the gates it evaluated. The console shows the tables as
//! they complete and the gates at the end; `--out FILE` appends the whole
//! record to `FILE` as one JSON line — the only file a `puffer-bench` run
//! writes by itself. A row is formatted once, into its [`Table`]: the JSON
//! rows are the same cells keyed by column, numeric where the cell is a
//! number, so `puffer-bench diff` can compare two records leaf by leaf.

use crate::table::{comma_separated, Table};
use puffer_probe::json::escape_into;
use puffer_probe::{append, appendln, ArgValue};
use std::io::Write as _;
use std::path::Path;

/// One pass/fail invariant of a run. A record with a failed gate makes the
/// process exit 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Stable identifier (`zero_steady_state_alloc`, …).
    pub name: String,
    /// Whether the invariant held.
    pub pass: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

/// What one experiment run produced.
#[derive(Debug)]
pub struct Record {
    /// The experiment's subcommand name.
    pub experiment: &'static str,
    /// Run context, in insertion order.
    pub header: Vec<(String, ArgValue)>,
    /// Every table the run printed, in order.
    pub tables: Vec<Table>,
    /// Every gate the run evaluated, in order.
    pub gates: Vec<Gate>,
}

impl Record {
    /// Starts a record stamped with the hardware the process sees and every
    /// `PUFFER_*` variable in its environment.
    pub fn new(experiment: &'static str) -> Self {
        let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut header: Vec<(String, ArgValue)> = vec![
            ("hardware_threads".into(), hardware_threads.into()),
            ("pool_threads".into(), puffer_tensor::pool::num_threads().into()),
            ("simd".into(), ArgValue::Str(puffer_tensor::gemm::simd_supported().to_string())),
        ];
        header.extend(puffer_probe::env_knobs());
        Record { experiment, header, tables: Vec::new(), gates: Vec::new() }
    }

    /// Copies the probe's run header (seed, workers, α–β profile … stamped
    /// by a traced run) into this record. Call before `probe::reset`.
    pub fn absorb_probe_header(&mut self) {
        for (k, v) in puffer_probe::run_header_snapshot() {
            if !self.header.iter().any(|(have, _)| *have == k) {
                self.header.push((k, v));
            }
        }
    }

    /// Prints a finished table and keeps it.
    pub fn table(&mut self, table: Table) {
        table.print();
        self.tables.push(table);
    }

    /// Records a gate's verdict.
    pub fn gate(&mut self, name: impl Into<String>, pass: bool, detail: String) {
        self.gates.push(Gate { name: name.into(), pass, detail });
    }

    /// Whether every gate held (vacuously true without gates).
    pub fn all_pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// The gate verdicts as console lines (empty without gates).
    pub fn render_gates(&self) -> String {
        let mut out = String::new();
        if self.gates.is_empty() {
            return out;
        }
        appendln!(out, "{:<36} {:<6} detail", "gate", "pass");
        for g in &self.gates {
            appendln!(out, "{:<36} {:<6} {}", g.name, g.pass, g.detail);
        }
        out
    }

    /// The record as one line of JSON (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{\"experiment\":");
        escape_into(&mut out, self.experiment);
        out.push_str(",\"header\":{");
        comma_separated(&mut out, &self.header, |out, (k, v)| {
            escape_into(out, k);
            out.push(':');
            v.json_into(out);
        });
        out.push_str("},\"tables\":[");
        comma_separated(&mut out, &self.tables, |out, t| t.json_into(out));
        out.push_str("],\"gates\":[");
        comma_separated(&mut out, &self.gates, |out, g| {
            out.push_str("{\"gate\":");
            escape_into(out, &g.name);
            append!(out, ",\"pass\":{},\"detail\":", g.pass);
            escape_into(out, &g.detail);
            out.push('}');
        });
        append!(out, "],\"all_pass\":{}}}", self.all_pass());
        out
    }

    /// Appends [`Record::to_json_line`] to `path`, creating the file (but no
    /// directory) if needed.
    ///
    /// # Errors
    ///
    /// The I/O error from opening or writing `path`.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_json_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_probe::json::{self, Json};

    #[test]
    fn json_line_parses_and_carries_header_rows_and_gates() {
        let mut rec = Record::new("selftest");
        let mut t = Table::new(vec!["method", "total_s", "speedup"]);
        t.row(vec!["a \"quoted\" name", "1.250", "1.50x"]);
        rec.tables.push(t);
        rec.gate("holds", true, "delta=0".into());
        rec.gate("breaks", false, "saw \"3\"".into());
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("record must be valid JSON");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("selftest"));
        let header = doc.get("header").expect("header");
        assert!(header.get("hardware_threads").and_then(Json::as_num).is_some_and(|n| n >= 1.0));
        let row = &doc.get("tables").and_then(Json::as_arr).expect("tables")[0]
            .get("rows")
            .and_then(Json::as_arr)
            .expect("rows")[0];
        assert_eq!(row.get("method").and_then(Json::as_str), Some("a \"quoted\" name"));
        assert_eq!(row.get("total_s").and_then(Json::as_num), Some(1.25));
        assert_eq!(row.get("speedup").and_then(Json::as_str), Some("1.50x"));
        let gates = doc.get("gates").and_then(Json::as_arr).expect("gates");
        assert_eq!(gates[1].get("pass"), Some(&Json::Bool(false)));
        assert_eq!(gates[1].get("detail").and_then(Json::as_str), Some("saw \"3\""));
        assert_eq!(doc.get("all_pass"), Some(&Json::Bool(false)));
        assert!(rec.render_gates().contains("breaks"));
    }

    #[test]
    fn a_record_without_gates_passes_and_prints_none() {
        let rec = Record::new("selftest");
        assert!(rec.all_pass());
        assert!(rec.render_gates().is_empty());
    }
}
