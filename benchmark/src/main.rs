//! End-to-end and per-layer benchmark for Algorithm 1 and the threaded
//! data-parallel trainer. See `benchmark/README.md`.
//!
//! With `--workload` this process runs that one workload and prints, as its
//! last line, the JSON object the benchmark driver reads. Without it, it
//! runs every workload in a child process each and writes `results.json`.

mod deck;
mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: puffer-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--quick] [--selfcheck] [--write-golden FIRST..LAST]
                        [--out DIR] [--golden FILE] [--benchmark-json FILE]
                        [--git-rev REV] [--rustc VERSION]";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    write_golden: Option<std::ops::RangeInclusive<u64>>,
    out: PathBuf,
    golden: Option<PathBuf>,
    benchmark_json: PathBuf,
    git_rev: String,
    rustc: String,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        write_golden: None,
        out: PathBuf::from("benchmark/out"),
        golden: None,
        benchmark_json: PathBuf::from("BENCHMARK.json"),
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err(format!("--seconds {} outside 0..=600", a.seconds));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--write-golden" => {
                let v = value()?;
                let (lo, hi) = v.split_once("..").ok_or("--write-golden takes FIRST..LAST")?;
                let lo: u64 = lo.parse().map_err(|e| format!("--write-golden: {e}"))?;
                let hi: u64 = hi.parse().map_err(|e| format!("--write-golden: {e}"))?;
                if lo > hi || hi - lo >= 1000 {
                    return Err("--write-golden takes at most 1000 seeds, FIRST <= LAST".into());
                }
                a.write_golden = Some(lo..=hi);
            }
            "--out" => a.out = value()?.into(),
            "--golden" => a.golden = Some(value()?.into()),
            "--benchmark-json" => a.benchmark_json = value()?.into(),
            "--git-rev" => a.git_rev = value()?,
            "--rustc" => a.rustc = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn read_json(path: &std::path::Path) -> Result<json::Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn single(a: &Args, workload: &str) -> Result<(), String> {
    // A missing golden file only means no run is checked against one.
    let golden = match &a.golden {
        Some(p) if p.exists() => Some(read_json(p)?),
        _ => None,
    };
    let report = run::run(&run::RunSpec {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        golden: golden.as_ref(),
    })?;

    println!("{workload} seed {} trace {}", a.seed, a.trace as u8);
    for (d, v) in &report.metrics {
        let better = if d.higher_is_better { "higher" } else { "lower" };
        println!("  {:<40} {:>16.6} {:<8} ({better} is better)", d.name, v, d.unit);
    }
    let walls: Vec<String> = report.unit_costs.iter().map(|c| format!("{:.3}", c.wall_s)).collect();
    println!(
        "  units: {} s; steps attempted {} failed {}",
        walls.join(" "),
        report.attempted,
        report.failed
    );
    for p in &report.problems {
        println!("  PROBLEM {p}");
    }

    let io = |e: std::io::Error| format!("write under {}: {e}", a.out.display());
    if let Some(tr) = &report.tracer {
        let name = format!("trace_{workload}.json");
        run::write_out(&a.out, &name, &(json::render(&tr.to_json()) + "\n")).map_err(io)?;
    }
    let detail = json::render(&report.detail()) + "\n";
    run::write_out(&a.out, &suite::detail_file(workload, a.trace), &detail).map_err(io)?;
    // An incorrect run still prints its result line and exits 0: the driver
    // reads `correct` from it.
    println!("{}", json::render(&report.result_line()));
    Ok(())
}

fn all(a: &Args) -> Result<(), String> {
    let spec = suite::SuiteSpec {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        out: a.out.clone(),
        golden_path: a.golden.clone().unwrap_or_else(|| PathBuf::from("benchmark/golden.json")),
        git_rev: a.git_rev.clone(),
        rustc: a.rustc.clone(),
    };
    if let Some(seeds) = a.write_golden.clone() {
        suite::write_golden(&spec, seeds)?;
    } else if a.selfcheck {
        suite::selfcheck(&spec, &read_json(&a.benchmark_json)?)?;
    } else {
        suite::run_set(&spec, &spec.out)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(w) => single(&args, w),
        None => all(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("puffer-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
