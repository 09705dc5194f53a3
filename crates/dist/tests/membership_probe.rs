//! The trainer's half of the membership-observability contract:
//! `puffer-probe`'s `membership_events` test replays the literals
//! (`membership::{PROBE_CATEGORY, EV_*, ROW_TYPE}`) through the exporters;
//! this one runs a real churned run — one crash, one join with catch-up,
//! one voluntary leave — with the probe in memory and checks that every
//! membership fact the trainer emits, as instant event and as JSONL row,
//! carries worker + step + epoch + kind. One test per file: the probe's
//! state is process-global.

use puffer_compress::none::NoCompression;
use puffer_dist::cost::ClusterProfile;
use puffer_dist::fault::FaultPlan;
use puffer_dist::membership::{
    MembershipPlan, EV_CATCH_UP, EV_CRASHED, EV_JOINED, EV_LEFT, PROBE_CATEGORY, ROW_TYPE,
};
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RecoveryPolicy, RunOptions};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_probe::ArgValue;
use puffer_tensor::Tensor;
use std::time::Duration;

fn mlp(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 16, true, seed).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, seed + 1).unwrap()),
    ])
}

fn batches(n: usize, rows: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n)
        .map(|b| {
            let x = Tensor::randn(&[rows, 6], 1.0, 500 + b as u64);
            let labels = (0..rows).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

/// `(event name, kind, worker, step, epoch)` of the run below, in the order
/// the facts happen: worker 2 dies in round 1, worker 3 is admitted at
/// boundary 2 and catches up from that boundary's checkpoint, worker 1
/// retires at boundary 4.
const FACTS: &[(&str, &str, u64, u64, u64)] = &[
    (EV_CRASHED, "crash", 2, 1, 1),
    (EV_JOINED, "join", 3, 2, 2),
    (EV_CATCH_UP, "catch_up", 3, 2, 2),
    (EV_LEFT, "leave", 1, 4, 3),
];

#[test]
fn every_membership_fact_is_an_event_and_a_row_with_full_attribution() {
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());

    let cfg = DistConfig {
        workers: 3,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        profile: ClusterProfile::zero_cost(3),
    };
    let opts = RunOptions {
        faults: FaultPlan::new(11).with_crash(2, 1),
        membership: MembershipPlan::none().with_join(3, 2).with_leave(1, 4),
        recovery: RecoveryPolicy {
            step_timeout: Duration::from_millis(80),
            max_retries: 2,
            backoff: 2.0,
        },
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out =
        train_data_parallel_with(|_| mlp(61), &batches(6, 8), &mut comp, &cfg, &opts).unwrap();
    let events = probe::take_events();
    let rows = probe::metrics_rows();
    let deferrals = probe::counter_value("dist.join_deferrals");
    probe::reset();

    // The audit log is the aggregator's view; the probe must tell the same
    // story plus the joiner's own catch-up.
    assert_eq!(out.faults.survivors, 2);
    assert_eq!(out.final_epoch, 3);
    let logged: Vec<_> = out.membership.iter().map(|e| (e.kind.name(), e.worker, e.step)).collect();
    assert_eq!(logged, [("crash", 2, 1), ("join", 3, 2), ("leave", 1, 4)]);
    // The join's state arrived at the boundary it was scheduled for.
    assert_eq!(deferrals, None, "nothing was deferred");

    // Instant events. The catch-up is emitted by the joiner's thread, the
    // rest by the aggregator: order by (step, epoch) and, within the one
    // boundary both touch, admission before catch-up.
    let mut got: Vec<(&str, String, u64, u64, u64)> = events
        .iter()
        .filter(|e| e.cat == PROBE_CATEGORY && e.phase == 'i')
        .map(|e| {
            let arg = |k: &str| e.args.iter().find(|(n, _)| *n == k).map(|(_, v)| v.clone());
            let num = |k: &str| match arg(k) {
                Some(ArgValue::U64(v)) => v,
                other => panic!("{}: `{k}` is {other:?}", e.name),
            };
            let kind = match arg("kind") {
                Some(ArgValue::Str(s)) => s,
                other => panic!("{}: `kind` is {other:?}", e.name),
            };
            (e.name, kind, num("worker"), num("step"), num("epoch"))
        })
        .collect();
    got.sort_by_key(|&(name, _, _, step, epoch)| (step, epoch, name == EV_CATCH_UP));
    let want: Vec<_> = FACTS.iter().map(|&(n, k, w, s, e)| (n, k.to_string(), w, s, e)).collect();
    assert_eq!(got, want, "membership instant events");

    // JSONL rows: the same facts, `kind` where the event has its name.
    let mut got: Vec<(String, u64, u64, u64)> = rows
        .iter()
        .map(|row| probe::json::parse(row).unwrap())
        .filter(|row| row.get("type").and_then(|t| t.as_str()) == Some(ROW_TYPE))
        .map(|row| {
            let num = |k: &str| row.get(k).and_then(|v| v.as_num()).unwrap_or(f64::NAN) as u64;
            let kind = row.get("kind").and_then(|k| k.as_str()).unwrap_or("<none>").to_string();
            assert!(row.get("t_us").is_some(), "rows are timestamped");
            (kind, num("worker"), num("step"), num("epoch"))
        })
        .collect();
    got.sort_by_key(|(kind, _, step, epoch)| (*step, *epoch, kind == "catch_up"));
    let want: Vec<_> = FACTS.iter().map(|&(_, k, w, s, e)| (k.to_string(), w, s, e)).collect();
    assert_eq!(got, want, "membership_event rows");
}
