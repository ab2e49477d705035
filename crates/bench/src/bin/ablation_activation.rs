//! Ablation: ReLU vs sigmoid/tanh activations in the paper's CNN.
//!
//! Section 4.1 replaces "the traditional sigmoid activation function" with
//! ReLU; this binary quantifies that choice by training the same
//! architecture with each nonlinearity on the ICCAD benchmark.
//!
//! ```text
//! cargo run --release -p hotspot-bench --bin ablation_activation -- \
//!     --scale 0.02 --steps 500
//! ```

use hotspot_bench::{build_benchmark, detector_config, oracle, table, ExperimentArgs};
use hotspot_core::metrics::EvalResult;
use hotspot_core::mgd::{self, MgdConfig};
use hotspot_datagen::suite::SuiteSpec;
use hotspot_nn::layers::{Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2, Relu, Sigmoid, Tanh};
use hotspot_nn::{Network, Parallelism};

#[derive(Clone, Copy)]
enum Activation {
    Relu,
    Sigmoid,
    Tanh,
}

impl Activation {
    fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }

    fn layer(&self) -> Box<dyn Layer> {
        match self {
            Activation::Relu => Box::new(Relu::new()),
            Activation::Sigmoid => Box::new(Sigmoid::new()),
            Activation::Tanh => Box::new(Tanh::new()),
        }
    }
}

/// Builds the Table-1 architecture with a configurable nonlinearity.
fn build(k: usize, act: Activation, seed: u64) -> Network {
    let mut net = Network::new();
    let push_act = |net: &mut Network| match act {
        Activation::Relu => net.push(Relu::new()),
        Activation::Sigmoid => net.push(Sigmoid::new()),
        Activation::Tanh => net.push(Tanh::new()),
    };
    let _ = act.layer(); // object-safety demonstration; construction above is static
    net.push(Conv2d::new(k, 16, 3, 1, seed));
    push_act(&mut net);
    net.push(Conv2d::new(16, 16, 3, 1, seed + 1));
    push_act(&mut net);
    net.push(MaxPool2::new());
    net.push(Conv2d::new(16, 32, 3, 1, seed + 2));
    push_act(&mut net);
    net.push(Conv2d::new(32, 32, 3, 1, seed + 3));
    push_act(&mut net);
    net.push(MaxPool2::new());
    net.push(Flatten::new());
    net.push(Dense::new(32 * 9, 250, seed + 4));
    push_act(&mut net);
    net.push(Dropout::new(0.5, seed + 5));
    net.push(Dense::new(250, 2, seed + 6));
    net
}

fn main() {
    let args = ExperimentArgs::from_env();
    let scale = args.f64("scale", 0.02);
    let out_dir = args.string("out", "results");
    let config = detector_config(&args);
    let k = args.usize("k", 16);
    let steps = args.usize("steps", 500);

    let sim = oracle();
    let data = build_benchmark(&SuiteSpec::iccad(scale), &sim);
    eprintln!("[ablation_activation] extracting feature tensors (k = {k})...");
    let pipeline = hotspot_core::FeaturePipeline::new(10, 12, k).expect("valid pipeline");
    let (train_x, train_y) = pipeline.extract_dataset(&data.train).expect("extraction");
    let (test_x, test_y) = pipeline.extract_dataset(&data.test).expect("extraction");

    let mgd_cfg = MgdConfig {
        max_steps: steps,
        ..config.mgd.clone()
    };
    let headers = [
        "activation",
        "accu",
        "FA#",
        "overall",
        "best_val",
        "train_s",
    ];
    let mut rows = Vec::new();
    for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
        eprintln!("[ablation_activation] training with {}...", act.name());
        let mut net = build(k, act, 2017);
        let report =
            mgd::train(&mut net, &train_x, &train_y, 0.0, &mgd_cfg).expect("training runs");
        let preds: Vec<bool> = mgd::hotspot_probs(&net, &test_x, Parallelism::serial())
            .into_iter()
            .map(|p| p > 0.5)
            .collect();
        let result = EvalResult::from_predictions(&preds, &test_y, 0.0);
        rows.push(vec![
            act.name().to_string(),
            table::pct(result.accuracy),
            result.false_alarms.to_string(),
            table::pct(result.overall_accuracy()),
            table::pct(report.best_val_accuracy),
            format!("{:.1}", report.train_time_s),
        ]);
    }
    println!("\nAblation: activation function (ICCAD benchmark, ε = 0):\n");
    println!("{}", table::render(&headers, &rows));
    table::write_csv(&out_dir, "ablation_activation", &headers, &rows);
}
