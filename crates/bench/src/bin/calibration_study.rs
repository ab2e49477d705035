//! Extension study: how biased learning trades calibration for recall.
//!
//! Theorem 1's mechanism is *confidence reduction* on the non-hotspot
//! class. This study measures it directly: expected calibration error
//! (ECE), hotspot recall and false alarms after each biased-learning
//! round. The expected shape: ECE grows with ε (the model is deliberately
//! mis-calibrated towards "hotspot"), recall rises, false alarms rise
//! slowly.
//!
//! ```text
//! cargo run --release -p hotspot-bench --bin calibration_study -- \
//!     --scale 0.02 --steps 800
//! ```

use hotspot_bench::{build_benchmark, detector_config, oracle, table, ExperimentArgs};
use hotspot_core::calibration::expected_calibration_error;
use hotspot_core::metrics::EvalResult;
use hotspot_core::mgd::{self, MgdConfig};
use hotspot_core::Parallelism;
use hotspot_datagen::suite::SuiteSpec;

fn main() {
    let args = ExperimentArgs::from_env();
    let scale = args.f64("scale", 0.02);
    let out_dir = args.string("out", "results");
    let config = detector_config(&args);
    let steps = args.usize("steps", 800);

    let sim = oracle();
    let data = build_benchmark(&SuiteSpec::iccad(scale), &sim);
    eprintln!("[calibration] extracting feature tensors...");
    let (train_x, train_y) = config
        .pipeline
        .extract_dataset(&data.train)
        .expect("extraction");
    let (test_x, test_y) = config
        .pipeline
        .extract_dataset(&data.test)
        .expect("extraction");

    let mut net = hotspot_core::model::CnnConfig {
        input_grid: config.pipeline.grid_dim(),
        input_channels: config.pipeline.coefficients(),
        ..config.cnn
    }
    .build();
    let initial_cfg = MgdConfig {
        max_steps: steps,
        ..config.mgd.clone()
    };
    let fine_cfg = MgdConfig {
        max_steps: (steps / 4).max(1),
        lr: config.mgd.lr * 0.5,
        ..config.mgd.clone()
    };

    let headers = ["epsilon", "ECE", "recall", "FA#", "overall"];
    let mut rows = Vec::new();
    let mut record = |net: &hotspot_nn::Network, eps: f32| {
        let ece = expected_calibration_error(net, &test_x, &test_y, 10);
        let preds: Vec<bool> = mgd::hotspot_probs(net, &test_x, Parallelism::serial())
            .into_iter()
            .map(|p| p > 0.5)
            .collect();
        let r = EvalResult::from_predictions(&preds, &test_y, 0.0);
        rows.push(vec![
            format!("{eps:.1}"),
            format!("{ece:.4}"),
            table::pct(r.accuracy),
            r.false_alarms.to_string(),
            table::pct(r.overall_accuracy()),
        ]);
    };

    eprintln!("[calibration] training ε = 0 model...");
    mgd::train(&mut net, &train_x, &train_y, 0.0, &initial_cfg).expect("training runs");
    record(&net, 0.0);
    for eps in [0.1f32, 0.2, 0.3] {
        eprintln!("[calibration] fine-tuning ε = {eps}...");
        mgd::train(&mut net, &train_x, &train_y, eps, &fine_cfg).expect("training runs");
        record(&net, eps);
    }

    println!("\nCalibration study (ICCAD benchmark): biased learning trades\ncalibration (ECE ↑) for hotspot recall:\n");
    println!("{}", table::render(&headers, &rows));
    table::write_csv(&out_dir, "calibration_study", &headers, &rows);
}
