//! **Table 19** (appendix G): wall-clock cost of the one-off SVD
//! factorization for every experimented model.
//!
//! The paper's point: SVD is "computationally heavy" but happens **once**,
//! so it is negligible against total training (2.3 s for ResNet-50, ~0.17%
//! of an epoch). We time the same factorization step on our bench-scale
//! models (5 trials, as in the paper) and report it next to a measured
//! training-epoch time for the ratio.

use puffer_bench::scale::RunScale;
use puffer_bench::table::Table;
use puffer_bench::{record_result, setups};
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::units::FactorInit;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_probe::Stopwatch;

fn time_trials<F: FnMut()>(mut f: F, trials: usize) -> (f64, f64) {
    let mut times = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t0 = Stopwatch::start();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    let mean = times.iter().sum::<f64>() / trials as f64;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / trials as f64;
    (mean, var.sqrt())
}

fn main() {
    let scale = RunScale::from_env();
    let trials = scale.pick(2, 5);
    let data = setups::cifar_data(scale);
    println!("== Table 19: SVD factorization cost ({trials} trials each) ==\n");

    let mut t = Table::new(vec!["Method", "SVD time (sec.)", "paper (full scale)"]);

    let resnet50 = setups::resnet50(20, 1);
    let (m, s) = time_trials(
        || {
            resnet50
                .to_hybrid(&ResNetHybridPlan::resnet50_paper(), FactorInit::WarmStart)
                .expect("factorization");
        },
        trials,
    );
    t.row(vec!["ResNet-50".into(), format!("{m:.4} ± {s:.4}"), "2.2972 ± 0.0519".into()]);
    record_result("table19_svd", &format!("resnet50 {m:.4}±{s:.4}"));

    let wide = setups::wide_resnet50(20, 1);
    let (m, s) = time_trials(
        || {
            wide.to_hybrid(&ResNetHybridPlan::resnet50_paper(), FactorInit::WarmStart)
                .expect("factorization");
        },
        trials,
    );
    t.row(vec!["WideResNet-50-2".into(), format!("{m:.4} ± {s:.4}"), "4.8700 ± 0.0859".into()]);
    record_result("table19_svd", &format!("wide_resnet50 {m:.4}±{s:.4}"));

    let vgg = setups::vgg19(10, 1);
    let (m, s) = time_trials(
        || {
            vgg.to_hybrid(10, 0.25, FactorInit::WarmStart).expect("factorization");
        },
        trials,
    );
    t.row(vec!["VGG-19-BN".into(), format!("{m:.4} ± {s:.4}"), "1.5198 ± 0.0113".into()]);
    record_result("table19_svd", &format!("vgg19 {m:.4}±{s:.4}"));

    let resnet18 = setups::resnet18(10, 1);
    let (m18, s18) = time_trials(
        || {
            resnet18
                .to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::WarmStart)
                .expect("factorization");
        },
        trials,
    );
    t.row(vec!["ResNet-18".into(), format!("{m18:.4} ± {s18:.4}"), "1.3244 ± 0.0201".into()]);
    record_result("table19_svd", &format!("resnet18 {m18:.4}±{s18:.4}"));

    let lstm = setups::lstm_lm(200, 1);
    let (m, s) = time_trials(
        || {
            lstm.to_low_rank(setups::LSTM_RANK, true).expect("factorization");
        },
        trials,
    );
    t.row(vec!["LSTM".into(), format!("{m:.4} ± {s:.4}"), "6.5791 ± 0.0445".into()]);
    record_result("table19_svd", &format!("lstm {m:.4}±{s:.4}"));

    let transformer = setups::transformer(64, None, 1);
    let (m, s) = time_trials(
        || {
            transformer.to_hybrid(setups::TRANSFORMER_RANK, true).expect("factorization");
        },
        trials,
    );
    t.row(vec!["Transformer".into(), format!("{m:.4} ± {s:.4}"), "5.4104 ± 0.0532".into()]);
    record_result("table19_svd", &format!("transformer {m:.4}±{s:.4}"));

    t.print();

    // Ratio against one measured ResNet-18 training epoch.
    let mut net = setups::resnet18(10, 1);
    let t0 = Stopwatch::start();
    for (images, labels) in data.train_batches(32, 0) {
        net.zero_grad();
        let logits = net.forward(&images, Mode::Train);
        let (_, dl) = softmax_cross_entropy(&logits, &labels, 0.0).expect("loss");
        let _ = net.backward(&dl);
    }
    let epoch = t0.elapsed().as_secs_f64();
    println!(
        "\nResNet-18: SVD = {m18:.4}s vs one training epoch = {epoch:.2}s ({:.2}% — the paper reports 0.17% for ResNet-50)",
        m18 / epoch * 100.0
    );
}
