//! One run of one workload in this process: set-up, timed units, checks,
//! and either the end-to-end metrics or (traced) the per-layer ones.

use crate::json::{arr, num, obj, text, Json};
use crate::layers::{self, Budget, Metrics};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{fast_quarter_mean, spread};
use crate::trace::Tracer;
use crate::workloads::{self, Cost, Unit};
use std::path::Path;

/// An untraced run repeats the full set-up until `SETUP_SECONDS` have gone
/// into it, and at least `SETUP_MIN_REPS` times: a set-up is 0.15 to 0.8 s,
/// too short to report from a few samples. The repeats keep step with the
/// units instead of all coming first, so a slow stretch of the machine at the
/// start of the run does not fall on every one of them.
const SETUP_MIN_REPS: usize = 3;
const SETUP_SECONDS: f64 = 4.0;
/// Fewest units a run times, however short `--seconds` is.
const MIN_UNITS: usize = 3;
/// Relative tolerance of the golden final loss.
const GOLDEN_TOLERANCE: f64 = 0.05;

pub struct RunSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one unit, whatever `seconds` says.
    pub quick: bool,
    /// `golden.json`, if the caller has one.
    pub golden: Option<&'a Json>,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(MetricDef, f64)>,
    /// What every timed unit cost, in the order they ran.
    pub unit_costs: Vec<Cost>,
    /// Seconds of every set-up of the run.
    pub setups_s: Vec<f64>,
    pub final_loss: f64,
    pub digest: u64,
    /// The golden loss this run was checked against, if one is recorded.
    pub golden_loss: Option<f64>,
    pub tracer: Option<Tracer>,
}

impl RunReport {
    /// The one-line result the driver reads.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| (d.name, obj([("value", num(*v)), ("unit", text(d.unit))])));
        obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }

    /// Everything the suite wants to keep about the run.
    pub fn detail(&self) -> Json {
        let mut doc = match self.result_line() {
            Json::Obj(fields) => fields,
            _ => unreachable!("result_line builds an object"),
        };
        let per_unit = |f: fn(&Cost) -> f64| arr(self.unit_costs.iter().map(|c| num(f(c))));
        let walls: Vec<f64> = self.unit_costs.iter().map(|c| c.wall_s).collect();
        doc.extend([
            ("problems".to_owned(), arr(self.problems.iter().map(text))),
            ("unit_walls_s".to_owned(), per_unit(|c| c.wall_s)),
            ("unit_wall_spread".to_owned(), num(spread(&walls))),
            ("unit_cpu_s".to_owned(), per_unit(|c| c.cpu.total())),
            ("unit_peak_rss_mb".to_owned(), per_unit(|c| c.peak_rss_mb)),
            ("setups_s".to_owned(), arr(self.setups_s.iter().map(|&s| num(s)))),
            ("final_loss".to_owned(), num(self.final_loss)),
            ("final_param_digest".to_owned(), text(format!("{:016x}", self.digest))),
            ("golden_loss".to_owned(), self.golden_loss.map_or(Json::Null, num)),
        ]);
        Json::Obj(doc)
    }
}

/// The recorded final loss for `(workload, seed)`.
fn golden_loss(golden: Option<&Json>, workload: &str, seed: u64) -> Option<f64> {
    golden?.get("final_loss")?.get(workload)?.get(&seed.to_string())?.as_num()
}

/// Applies the cross-unit checks and counts failed steps: a unit fails all
/// of its steps if any of its own checks failed, if its final parameters
/// differ from the first unit's (the determinism contract), or if the final
/// loss is off the golden value.
fn judge(units: &[Unit], golden: Option<f64>) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let reference = units.first().map(|u| u.digest);
    for (i, u) in units.iter().enumerate() {
        let mut bad = !u.problems.is_empty();
        problems.extend(u.problems.iter().map(|p| format!("unit {i}: {p}")));
        if Some(u.digest) != reference {
            problems.push(format!(
                "unit {i}: final-parameter digest {:016x} differs from unit 0's",
                u.digest
            ));
            bad = true;
        }
        if let Some(g) = golden {
            let off = (u.final_loss - g).abs();
            // A NaN loss is off the golden value too.
            if off.is_nan() || off > GOLDEN_TOLERANCE * g.abs() {
                problems.push(format!(
                    "unit {i}: final loss {} is more than {}% off the golden {g}",
                    u.final_loss,
                    GOLDEN_TOLERANCE * 100.0
                ));
                bad = true;
            }
        }
        attempted += u.steps;
        failed += if bad { u.steps } else { 0 };
    }
    (attempted, failed, problems)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message if `spec.workload` names no workload.
pub fn run(spec: &RunSpec<'_>) -> Result<RunReport, String> {
    let unknown = || format!("unknown workload `{}`; known: {:?}", spec.workload, workloads::NAMES);
    let golden = golden_loss(spec.golden, spec.workload, spec.seed);
    if spec.trace {
        return run_traced(spec, golden).ok_or_else(unknown);
    }

    let set_up = || workloads::set_up(spec.workload, spec.seed).ok_or_else(unknown);
    let (workload, first) = set_up()?;
    let mut setups = vec![first];
    let mut units = Vec::new();
    let (seconds, at_least, setup_seconds, setup_reps) = if spec.quick {
        (0.0, 1, 0.0, 1)
    } else {
        (spec.seconds, MIN_UNITS, SETUP_SECONDS, SETUP_MIN_REPS)
    };
    let mut unit_s = 0.0;
    while units.len() < at_least || unit_s < seconds {
        let unit = workload.unit();
        unit_s += unit.cost.wall_s;
        units.push(unit);
        // The share of the set-up time spent follows the share of the unit
        // time spent.
        let due = setup_seconds * if unit_s < seconds { unit_s / seconds } else { 1.0 };
        while setups.iter().sum::<f64>() < due {
            setups.push(set_up()?.1);
        }
    }
    while setups.len() < setup_reps {
        setups.push(set_up()?.1);
    }
    let (attempted, failed, problems) = judge(&units, golden);

    let costs = |f: fn(&Cost) -> f64| units.iter().map(|u| f(&u.cost)).collect::<Vec<_>>();
    // Every unit of a run consumes the same samples.
    let samples = units[0].samples as f64;
    let values = [
        samples / fast_quarter_mean(&costs(|c| c.wall_s)),
        fast_quarter_mean(&costs(|c| c.cpu.total())) / samples * 1e3,
        // The first unit only: in the data-parallel trainers every call's
        // worker threads leave allocator arenas behind, and the resident set
        // of the tenth unit of a process is twice that of the first.
        units[0].cost.peak_rss_mb,
        fast_quarter_mean(&setups),
    ];
    Ok(RunReport {
        attempted,
        failed,
        problems,
        metrics: END_TO_END.into_iter().zip(values).collect(),
        unit_costs: units.iter().map(|u| u.cost).collect(),
        setups_s: setups,
        final_loss: units[0].final_loss,
        digest: units[0].digest,
        golden_loss: golden,
        tracer: None,
    })
}

fn run_traced(spec: &RunSpec<'_>, golden: Option<f64>) -> Option<RunReport> {
    let mut tr = Tracer::new();
    let cpu0 = procfs::cpu_times();
    let (workload, set_up_s) =
        tr.span("core", "set_up", |_| workloads::set_up(spec.workload, spec.seed))?;
    let mut m = Metrics::new();
    m.insert("data.dataset_gen_s", workload.dataset_gen_s());
    m.insert("models.build_s", workload.build_s());
    let budget = if spec.quick { Budget::QUICK } else { Budget::of(spec.seconds) };
    let (units, unrepresentative) = layers::profile(&workload, budget, &mut tr, &mut m);
    let (attempted, mut failed, mut problems) = judge(&units, golden);
    if !unrepresentative.is_empty() {
        // The per-layer numbers describe another model or another step:
        // none of them counts.
        failed = attempted;
        problems.extend(unrepresentative);
    }
    let cpu = procfs::cpu_times().since(&cpu0);
    m.insert("proc.user_cpu_s", cpu.user_s);
    m.insert("proc.sys_cpu_s", cpu.sys_s);
    m.insert("proc.sys_share", if cpu.total() > 0.0 { cpu.sys_s / cpu.total() } else { 0.0 });
    m.insert("proc.invol_ctx_switches", procfs::involuntary_ctx_switches());

    debug_assert!(
        m.keys().all(|k| PER_LAYER.iter().any(|d| d.name == *k)),
        "a metric was booked under a name BENCHMARK.json does not list"
    );
    // What does not apply to this workload (conv time on the Transformer,
    // codec time on the single-process trainers) reads 0.
    let metrics = PER_LAYER.iter().map(|d| (*d, m.get(d.name).copied().unwrap_or(0.0))).collect();
    Some(RunReport {
        attempted,
        failed,
        problems,
        metrics,
        unit_costs: units.iter().map(|u| u.cost).collect(),
        setups_s: vec![set_up_s],
        final_loss: units[0].final_loss,
        digest: units[0].digest,
        golden_loss: golden,
        tracer: Some(tr),
    })
}

/// Writes `text` to `dir/name`, creating `dir`.
pub fn write_out(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(digest: u64, final_loss: f64, problems: &[&str]) -> Unit {
        Unit {
            cost: Cost { wall_s: 1.0, ..Cost::default() },
            steps: 10,
            samples: 100,
            final_loss,
            digest,
            problems: problems.iter().map(|p| p.to_string()).collect(),
            detail: None,
        }
    }

    #[test]
    fn a_failing_unit_fails_all_of_its_steps_and_only_its_own() {
        let units = [unit(7, 1.0, &[]), unit(7, 1.0, &["non-finite step loss"]), unit(7, 1.0, &[])];
        let (attempted, failed, problems) = judge(&units, None);
        assert_eq!((attempted, failed), (30, 10));
        assert_eq!(problems, ["unit 1: non-finite step loss"]);
    }

    #[test]
    fn a_unit_that_ends_on_other_parameters_breaks_determinism() {
        let units = [unit(7, 1.0, &[]), unit(8, 1.0, &[])];
        let (_, failed, problems) = judge(&units, None);
        assert_eq!(failed, 10);
        assert!(problems[0].contains("digest"));
    }

    #[test]
    fn golden_loss_is_a_tolerance_not_an_equality() {
        let units = [unit(7, 1.04, &[])];
        assert_eq!(judge(&units, Some(1.0)).1, 0);
        assert_eq!(judge(&units, Some(1.2)).1, 10);
        // NaN never passes.
        assert_eq!(judge(&[unit(7, f64::NAN, &[])], Some(1.0)).1, 10);
    }

    #[test]
    fn golden_lookup_is_per_workload_and_seed() {
        let g = crate::json::parse(r#"{"final_loss": {"w": {"42": 1.5}}}"#).unwrap();
        assert_eq!(golden_loss(Some(&g), "w", 42), Some(1.5));
        assert_eq!(golden_loss(Some(&g), "w", 43), None);
        assert_eq!(golden_loss(Some(&g), "v", 42), None);
        assert_eq!(golden_loss(None, "w", 42), None);
    }
}
