//! **Table 19** (appendix G): wall-clock cost of the one-off SVD
//! factorization for every experimented model.
//!
//! The paper's point: SVD is "computationally heavy" but happens **once**,
//! so it is negligible against total training (2.3 s for ResNet-50, ~0.17%
//! of an epoch). We time the same factorization step on our bench-scale
//! models (5 trials, as in the paper) and report it next to a measured
//! training-epoch time for the ratio.

use crate::setups::{self, time_trials};
use crate::table::Table;
use crate::{Args, Record};
use puffer_models::resnet::ResNetHybridPlan;
use puffer_models::units::FactorInit;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_probe::Stopwatch;

/// Times the factorization of every model.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("table19-svd-cost");
    let scale = args.scale;
    let trials = scale.pick(2, 5);
    let data = setups::cifar_data(scale);
    println!("== Table 19: SVD factorization cost ({trials} trials each) ==\n");

    let resnet50 = setups::resnet50(20, 1);
    let wide = setups::wide_resnet50(20, 1);
    let vgg = setups::vgg19(10, 1);
    let resnet18 = setups::resnet18(10, 1);
    let lstm = setups::lstm_lm(200, 1);
    let transformer = setups::transformer(64, None, 1);
    let plan50 = ResNetHybridPlan::resnet50_paper();
    let plan18 = ResNetHybridPlan::resnet18_paper();
    // (method, the paper's full-scale seconds, the factorization)
    let models: [(&str, &str, &dyn Fn()); 6] = [
        ("ResNet-50", "2.2972 ± 0.0519", &|| {
            resnet50.to_hybrid(&plan50, FactorInit::WarmStart).expect("factorization");
        }),
        ("WideResNet-50-2", "4.8700 ± 0.0859", &|| {
            wide.to_hybrid(&plan50, FactorInit::WarmStart).expect("factorization");
        }),
        ("VGG-19-BN", "1.5198 ± 0.0113", &|| {
            vgg.to_hybrid(10, 0.25, FactorInit::WarmStart).expect("factorization");
        }),
        ("ResNet-18", "1.3244 ± 0.0201", &|| {
            resnet18.to_hybrid(&plan18, FactorInit::WarmStart).expect("factorization");
        }),
        ("LSTM", "6.5791 ± 0.0445", &|| {
            lstm.to_low_rank(setups::LSTM_RANK, true).expect("factorization");
        }),
        ("Transformer", "5.4104 ± 0.0532", &|| {
            transformer.to_hybrid(setups::TRANSFORMER_RANK, true).expect("factorization");
        }),
    ];
    let mut t = Table::new(vec!["Method", "SVD time (sec.)", "paper (full scale)"]);
    let mut m18 = f64::NAN;
    for (method, paper, factorize) in models {
        let (m, s) = time_trials(trials, factorize);
        if method == "ResNet-18" {
            m18 = m;
        }
        t.row(vec![method.into(), format!("{m:.4} ± {s:.4}"), paper.into()]);
    }
    rec.table(t);

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
    rec
}
