//! The system gates as assertions: each test calls the function behind
//! `puffer-bench soak --quick`, `overlap-sweep` or `alloc-churn --quick` and
//! asserts every gate on the record it returns. `scripts/check.sh` runs
//! this file in release. Nothing here writes a file.
//!
//! The experiments drive process-global state (probe, workspace, pool
//! width), so the tests serialize on a file-local lock (the
//! `alloc_steady_state.rs` idiom).

use puffer_bench::experiments::{alloc_churn, overlap_sweep, soak};
use puffer_bench::{Args, Record};
use puffer_dist::membership::MemberEventKind;
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

/// The record names exactly `expected`, in order, and every gate holds.
fn assert_gates(rec: &Record, expected: &[&str]) {
    let names: Vec<&str> = rec.gates.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(names, expected, "{}: gate list changed", rec.experiment);
    let failed: Vec<String> =
        rec.gates.iter().filter(|g| !g.pass).map(|g| format!("{}: {}", g.name, g.detail)).collect();
    assert!(failed.is_empty(), "{}: {failed:#?}", rec.experiment);
}

/// `soak --quick`: 24 steps of seeded churn — joins, a rejoin, crashes, a
/// leave, corrupted, dropped and non-finite messages (DESIGN.md §11). The
/// gates are tolerant by design (counts `>=`, a divergence bound); on the
/// same runs this also pins the exact values they stand for today.
#[test]
fn soak_quick_holds_its_five_gates_and_replays_bitwise() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (rec, runs) = soak::run_with_outcomes(&Args::quick());
    assert_gates(
        &rec,
        &[
            "churn_schedule_completed",
            "recovery_within_k_rounds",
            "replay_divergence_bounded",
            "zero_steady_state_alloc",
            "no_leaked_threads",
        ],
    );
    // The record is self-describing: the probe's run header rode along.
    for key in ["seed", "workers", "steps", "alpha", "beta", "hardware_threads"] {
        assert!(rec.header.iter().any(|(k, _)| k == key), "header lacks {key}");
    }

    use MemberEventKind::{Crash, Join, Leave, Rejoin};
    let kinds: Vec<MemberEventKind> = runs.main.membership.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [Crash, Crash, Rejoin, Join, Join, Leave],
        "the full churn schedule must execute in order"
    );
    assert_eq!(runs.main.faults.survivors, 4, "4 initial − 2 crashes + rejoin + 2 joins − leave");
    // The checkpoint at step 12 was cut after both crashes, the rejoin of
    // worker 1 and — on the same boundary — the join of worker 4: the member
    // set and the epoch sequence so far travel with it.
    assert_eq!(runs.checkpoint.members, vec![0, 1, 2, 4]);
    assert_eq!(runs.checkpoint.epoch, 4);
    assert_eq!(
        runs.replay.final_params, runs.main.final_params,
        "checkpoint-resume replay of the same churn schedule must be bitwise identical"
    );
    assert_eq!(runs.replay.faults.survivors, runs.main.faults.survivors);
    assert_eq!(runs.replay.final_epoch, runs.main.final_epoch);
    assert_eq!(runs.replay.step_losses, &runs.main.step_losses[12..], "replayed losses must match");
}

/// `overlap-sweep`: sync vs bucketed epoch on the seeded 8-worker α–β
/// profile (DESIGN.md §13). The exposure cut times eight threads side by
/// side, so that gate reports itself ungated — and passes — below eight
/// hardware threads; the other three always gate.
#[test]
fn overlap_sweep_holds_its_four_gates() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let rec = overlap_sweep::run(&Args::full());
    assert_gates(
        &rec,
        &["exposed_comm_cut", "bitwise_params", "alloc_free_reducer", "insight_reconcile"],
    );
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gated = hardware_threads >= 8;
    assert!(
        rec.gates[0].detail.contains(&format!("gated={gated}")),
        "the exposure cut gates exactly on >= 8 hardware threads: {}",
        rec.gates[0].detail
    );
}

/// `alloc-churn --quick`: per model, pooled and fresh execution are
/// bitwise identical and a warmed-up step never misses the pool.
/// `scripts/check.sh` runs this test a second time under `PUFFER_SIMD=0`.
#[test]
fn alloc_churn_is_bitwise_identical_and_allocation_free_per_model() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let rec = alloc_churn::run(&Args::quick());
    assert_gates(
        &rec,
        &[
            "vgg19_bitwise_identical",
            "vgg19_zero_steady_state_misses",
            "resnet18_bitwise_identical",
            "resnet18_zero_steady_state_misses",
        ],
    );
}
