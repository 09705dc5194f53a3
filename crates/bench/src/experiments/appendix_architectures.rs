//! **Appendix Tables 10–18**: dataset summary and per-layer architecture
//! listings.
//!
//! Prints (a) the dataset stand-in summary (Table 10 analogue) and (b) the
//! per-layer parameter ledgers of every full-scale architecture and its
//! Pufferfish hybrid — the machine-checked counterpart of the paper's
//! appendix Tables 11–18 (layer names follow the paper's conventions).

use crate::table::{commas, Table};
use crate::{Args, Record};
use puffer_models::spec::{
    lstm_wikitext2, resnet18_cifar, resnet50_imagenet, transformer_wmt16, vgg19_cifar,
    wide_resnet50_2_imagenet, ModelSpec, SpecVariant,
};

fn print_spec(rec: &mut Record, spec: &ModelSpec) {
    println!(
        "\n--- {} ({:?}) — {} params, {} MACs ---",
        spec.name,
        spec.variant,
        commas(spec.params()),
        commas(spec.macs())
    );
    let mut t = Table::new(vec!["layer", "params", "MACs"]);
    for l in &spec.layers {
        t.row(vec![l.name.clone(), commas(l.params), commas(l.macs)]);
    }
    rec.table(t);
}

/// Prints the dataset summary and the architecture ledgers.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("appendix-architectures");
    println!("== Appendix Table 10 analogue: datasets and stand-ins ==\n");
    let mut t =
        Table::new(vec!["paper dataset", "# data points", "stand-in (this repo)", "metric"]);
    t.row(vec![
        "CIFAR-10",
        "60,000",
        "class-conditional texture images, 32x32x3, 10 classes",
        "top-1 acc",
    ]);
    t.row(vec![
        "ImageNet",
        "1,281,167",
        "ImageNet-lite: texture images, more classes",
        "top-1/top-5 acc",
    ]);
    t.row(vec![
        "WikiText-2",
        "29,000 (sents)",
        "Markov-chain token stream, vocab 200",
        "perplexity",
    ]);
    t.row(vec![
        "WMT'16 En-De",
        "1,017,981",
        "token-mapping + reversal translation, vocab 64",
        "ppl + BLEU-4",
    ]);
    rec.table(t);

    println!("\n== Appendix Tables 11–18 analogue: per-layer ledgers (full scale) ==");
    let verbose = args.verbose;
    for (vanilla, hybrid) in [
        (vgg19_cifar(SpecVariant::Vanilla), vgg19_cifar(SpecVariant::Pufferfish)),
        (resnet18_cifar(SpecVariant::Vanilla), resnet18_cifar(SpecVariant::Pufferfish)),
        (resnet50_imagenet(SpecVariant::Vanilla), resnet50_imagenet(SpecVariant::Pufferfish)),
        (
            wide_resnet50_2_imagenet(SpecVariant::Vanilla),
            wide_resnet50_2_imagenet(SpecVariant::Pufferfish),
        ),
        (lstm_wikitext2(SpecVariant::Vanilla), lstm_wikitext2(SpecVariant::Pufferfish)),
        (transformer_wmt16(SpecVariant::Vanilla), transformer_wmt16(SpecVariant::Pufferfish)),
    ] {
        if verbose {
            print_spec(&mut rec, &vanilla);
            print_spec(&mut rec, &hybrid);
        } else {
            println!(
                "{:<28} {:>12} -> {:>12} params  ({:.2}x smaller, {} -> {} layers)",
                vanilla.name,
                commas(vanilla.params()),
                commas(hybrid.params()),
                vanilla.params() as f64 / hybrid.params() as f64,
                vanilla.layers.len(),
                hybrid.layers.len(),
            );
        }
    }
    if !verbose {
        println!("\n(re-run with --verbose for the full per-layer ledgers, Tables 11-18 style)");
    }
    rec
}
