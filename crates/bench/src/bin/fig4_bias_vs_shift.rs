//! Regenerates **Figure 4**: biased learning vs decision-boundary shifting
//! on Industry3 — false alarms incurred to reach the same hotspot
//! detection accuracy.
//!
//! Protocol (paper §5, last experiment): train the CNN at ε = 0; fine-tune
//! with ε = 0.1, 0.2, 0.3; for each fine-tuned model's accuracy, shift the
//! *initial* model's decision boundary until it reaches the same accuracy
//! and compare false alarms.
//!
//! ```text
//! cargo run --release -p hotspot-bench --bin fig4_bias_vs_shift -- \
//!     --scale 0.02 --steps 800 --k 32
//! ```

use hotspot_bench::{build_benchmark, detector_config, oracle, table, ExperimentArgs};
use hotspot_core::metrics::EvalResult;
use hotspot_core::mgd::{self, MgdConfig};
use hotspot_core::shift;
use hotspot_datagen::suite::SuiteSpec;
use hotspot_nn::serialize::ParameterBlob;
use hotspot_nn::{Parallelism, Tensor};

fn main() {
    let args = ExperimentArgs::from_env();
    let scale = args.f64("scale", 0.02);
    let out_dir = args.string("out", "results");
    let config = detector_config(&args);
    let steps = args.usize("steps", 800);

    let sim = oracle();
    let data = build_benchmark(&SuiteSpec::industry3(scale), &sim);
    eprintln!("[fig4] extracting feature tensors...");
    let (train_x, train_y) = config
        .pipeline
        .extract_dataset(&data.train)
        .expect("suite clips match the pipeline");
    let (test_x, test_y) = config
        .pipeline
        .extract_dataset(&data.test)
        .expect("suite clips match the pipeline");

    let initial_cfg = MgdConfig {
        max_steps: steps,
        ..config.mgd.clone()
    };
    let fine_cfg = MgdConfig {
        max_steps: (steps / 4).max(1),
        lr: config.mgd.lr * 0.5,
        ..config.mgd.clone()
    };

    eprintln!("[fig4] training initial model (ε = 0)...");
    let mut net = hotspot_core::model::CnnConfig {
        input_grid: config.pipeline.grid_dim(),
        input_channels: config.pipeline.coefficients(),
        ..config.cnn
    }
    .build();
    mgd::train(&mut net, &train_x, &train_y, 0.0, &initial_cfg).expect("training runs");
    let initial = ParameterBlob::from_network(&mut net);
    let base = evaluate(&net, &test_x, &test_y);
    eprintln!(
        "[fig4] initial model: accuracy {}, FA {}",
        table::pct(base.accuracy),
        base.false_alarms
    );

    let headers = [
        "epsilon",
        "bias_accu",
        "bias_FA",
        "shift_lambda",
        "shift_accu",
        "shift_FA",
        "FA_saved",
    ];
    let mut rows = Vec::new();
    rows.push(vec![
        "0.0".into(),
        table::pct(base.accuracy),
        base.false_alarms.to_string(),
        "0.000".into(),
        table::pct(base.accuracy),
        base.false_alarms.to_string(),
        "0".into(),
    ]);

    // Cumulative fine-tuning, as Algorithm 2 prescribes.
    for (i, eps) in [0.1f32, 0.2, 0.3].iter().enumerate() {
        eprintln!("[fig4] fine-tuning with ε = {eps}...");
        mgd::train(&mut net, &train_x, &train_y, *eps, &fine_cfg).expect("training runs");
        let biased = evaluate(&net, &test_x, &test_y);

        // Boundary-shift the *initial* model to the biased model's accuracy.
        let mut shifted_net = hotspot_core::model::CnnConfig {
            input_grid: config.pipeline.grid_dim(),
            input_channels: config.pipeline.coefficients(),
            ..config.cnn
        }
        .build();
        initial
            .load_into(&mut shifted_net)
            .expect("snapshot matches architecture");
        let (lambda, shift_acc, shift_fa) =
            shift::shift_for_accuracy(&shifted_net, &test_x, &test_y, biased.accuracy, 500);
        let saved = shift_fa as i64 - biased.false_alarms as i64;
        rows.push(vec![
            format!("{:.1}", eps),
            table::pct(biased.accuracy),
            biased.false_alarms.to_string(),
            format!("{lambda:.3}"),
            table::pct(shift_acc),
            shift_fa.to_string(),
            saved.to_string(),
        ]);
        let _ = i;
    }

    println!("\nFigure 4 reproduction (bias vs boundary shifting, Industry3):\n");
    println!("{}", table::render(&headers, &rows));
    println!(
        "Positive FA_saved = biased learning reaches the same accuracy with fewer false alarms\n\
         (each saved false alarm is 10 s of ODST)."
    );
    table::write_csv(&out_dir, "fig4_bias_vs_shift", &headers, &rows);
}

fn evaluate(net: &hotspot_nn::Network, features: &[Tensor], labels: &[bool]) -> EvalResult {
    // All cores; bit-identical to serial scoring.
    let preds: Vec<bool> = mgd::hotspot_probs(net, features, Parallelism::auto())
        .into_iter()
        .map(|p| p > 0.5)
        .collect();
    EvalResult::from_predictions(&preds, labels, 0.0)
}
