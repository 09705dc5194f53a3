//! `puffer-bench <experiment|all|list> [--quick] [--verbose] [--out FILE]` —
//! see the library docs.

use puffer_bench::experiments::{all, find, Experiment, PAPER};
use puffer_bench::Args;
use std::process::ExitCode;

fn usage(error: &str) -> ExitCode {
    eprintln!("puffer-bench: {error}");
    eprintln!("usage: puffer-bench <experiment|all|list> [--quick] [--verbose] [--out FILE]");
    eprintln!("       (`puffer-bench list` names the experiments)");
    ExitCode::from(2)
}

/// Runs one experiment, prints its gates, appends its record to `--out`.
/// Returns whether it ran to its end, every gate held and the record was
/// written. A panic is caught and counts as a failure, so `all` goes on to
/// the next experiment and still prints which ones failed.
fn run((name, experiment): &Experiment, args: &Args) -> bool {
    let Ok(record) = std::panic::catch_unwind(|| experiment(args)) else {
        eprintln!("puffer-bench {name}: FAILED, the experiment panicked");
        return false;
    };
    print!("{}", record.render_gates());
    let written = args.out.as_deref().is_none_or(|path| {
        let appended = record.append_to(path);
        appended.map_err(|e| eprintln!("cannot append to {}: {e}", path.display())).is_ok()
    });
    if !record.all_pass() {
        eprintln!("puffer-bench {name}: FAILED, at least one gate did not hold");
    }
    written && record.all_pass()
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else { return usage("no experiment named") };
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let selected: Vec<&Experiment> = match command.as_str() {
        "list" => {
            all().for_each(|(name, _)| println!("{name}"));
            return ExitCode::SUCCESS;
        }
        "all" => PAPER.iter().collect(),
        name => match find(name) {
            Some(experiment) => vec![experiment],
            None => return usage(&format!("no experiment named {name}")),
        },
    };

    let many = selected.len() > 1;
    let mut failures = Vec::new();
    for experiment in selected {
        if many {
            println!("\n################ {} ################\n", experiment.0);
        }
        if !run(experiment, &args) {
            failures.push(experiment.0);
        }
    }
    if failures.is_empty() {
        if many {
            println!("\nall {} experiments completed", PAPER.len());
        }
        ExitCode::SUCCESS
    } else {
        if many {
            eprintln!("\nfailed experiments: {failures:?}");
        }
        ExitCode::FAILURE
    }
}
