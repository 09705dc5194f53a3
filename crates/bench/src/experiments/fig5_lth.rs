//! **Figure 5**: Pufferfish vs Lottery-Ticket iterative magnitude pruning
//! on VGG-19 / CIFAR-10 — (a) parameters vs wall-clock, (b) parameters vs
//! accuracy.
//!
//! LTH's iterative prune-rewind-retrain loop pays a full training run per
//! round; Pufferfish reaches its compression in a single run. Shape under
//! reproduction: at comparable remaining-parameter counts, LTH's
//! cumulative wall-clock is several times Pufferfish's (paper: 5.67×).

use crate::setups;
use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::Sgd;
use puffer_probe::Stopwatch;
use puffer_prune::lth::LotteryState;
use pufferfish::trainer::{evaluate, train, ImageModel, ModelPlan, TrainConfig};

/// Runs Pufferfish once and LTH for several rounds, and prints both.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("fig5-lth");
    let scale = args.scale;
    let data = setups::cifar_data(scale);
    let epochs_per_round = scale.pick(3, 8);
    let rounds = scale.pick(3, 5);
    println!("== Figure 5: Pufferfish vs LTH on VGG-19 ({rounds} LTH rounds × {epochs_per_round} epochs) ==\n");

    // Pufferfish single run.
    let cfg = TrainConfig::cifar_small(epochs_per_round, scale.pick(1, 2));
    let t0 = Stopwatch::start();
    let puffer = train(
        setups::vgg19(10, 1),
        ModelPlan::VggHybrid { first_low_rank: 10, rank_ratio: 0.25 },
        &data,
        &cfg,
    )
    .expect("training");
    let puffer_time = t0.elapsed().as_secs_f64();
    let puffer_params = puffer.report.hybrid_params;
    let puffer_acc = puffer.report.final_test_accuracy();

    // LTH: train → prune 20% of survivors → rewind → retrain, per round.
    let mut model: ImageModel = setups::vgg19(10, 1).into();
    let mut state = LotteryState::capture(&model);
    let mut rows = Vec::new();
    let mut cumulative = 0.0f64;
    for round in 0..rounds {
        let t0 = Stopwatch::start();
        let mut opt = Sgd::new(0.1, 0.9, 1e-4);
        for epoch in 0..epochs_per_round {
            for (images, labels) in data.train_batches(32, (round * 100 + epoch) as u64) {
                model.zero_grad();
                let logits = model.forward(&images, Mode::Train);
                let (_, dl) = softmax_cross_entropy(&logits, &labels, 0.0).expect("loss");
                let _ = model.backward(&dl);
                state.enforce(&mut model);
                opt.step(&mut model.params_mut());
                state.enforce(&mut model);
            }
        }
        cumulative += t0.elapsed().as_secs_f64();
        // Masks are already enforced on `model` itself.
        let (_, acc) = evaluate(&mut model, &data, 32).expect("eval");
        let params = state.effective_params(&model);
        rows.push((round + 1, params, acc, cumulative));
        // Prune 20% of survivors and rewind for the next round.
        state.prune_global(&model, 0.2);
        state.rewind(&mut model);
    }

    let mut t = Table::new(vec!["method", "# params", "test acc", "cumulative wall (s)"]);
    t.row(vec![
        "Pufferfish (1 run)".into(),
        commas(puffer_params as u64),
        format!("{puffer_acc:.3}"),
        format!("{puffer_time:.1}"),
    ]);
    for (round, params, acc, time) in &rows {
        t.row(vec![
            format!("LTH round {round}"),
            commas(*params as u64),
            format!("{acc:.3}"),
            format!("{time:.1}"),
        ]);
    }
    rec.table(t);

    // Wall-clock ratio at the round whose params first drop below Pufferfish's.
    if let Some((round, _, _, time)) = rows.iter().find(|(_, p, _, _)| *p <= puffer_params) {
        println!(
            "\nLTH needs {round} rounds ({time:.1}s) to match Pufferfish's param count ({:.2}x slower; paper 5.67x)",
            time / puffer_time
        );
    } else {
        let last = rows.last().expect("rounds ran");
        println!(
            "\nafter {rounds} rounds LTH is at {} params vs Pufferfish {} — cumulative time ratio {:.2}x (paper 5.67x at equal compression)",
            commas(last.1 as u64),
            commas(puffer_params as u64),
            last.3 / puffer_time
        );
    }
    rec
}
