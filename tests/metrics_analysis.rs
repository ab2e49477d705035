//! Integration: ROC sweeps and calibration analysis over a trained
//! detector behave coherently with the hard-threshold metrics.

use hotspot_core::calibration::{expected_calibration_error, reliability_diagram};
use hotspot_core::detector::{DetectorConfig, HotspotDetector};
use hotspot_core::mgd::MgdConfig;
use hotspot_core::{roc, FeaturePipeline, Parallelism};
use hotspot_datagen::suite::SuiteSpec;
use hotspot_datagen::PatternKind;
use hotspot_litho::{LithoConfig, LithoSimulator};

fn trained_setup() -> (HotspotDetector, Vec<hotspot_nn::Tensor>, Vec<bool>) {
    let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
    let data = SuiteSpec {
        name: "metrics".into(),
        train_hs: 40,
        train_nhs: 40,
        test_hs: 25,
        test_nhs: 25,
        mix: vec![(PatternKind::LineArray, 1.0), (PatternKind::LineTips, 1.0)],
        seed: 321,
        version: hotspot_datagen::suite::SUITE_VERSION,
        corner_grid: None,
        augment: None,
    }
    .build(&sim);
    let mut cfg = DetectorConfig::default();
    cfg.pipeline = FeaturePipeline::new(10, 12, 8).unwrap();
    cfg.mgd = MgdConfig {
        lr: 2e-3,
        alpha: 0.7,
        decay_step: 200,
        batch_size: 16,
        max_steps: 400,
        val_interval: 100,
        patience: 4,
        val_fraction: 0.25,
        seed: 12,
        balanced_sampling: true,
        threads: 1,
    };
    cfg.biased.rounds = 2;
    cfg.biased.fine_tune = MgdConfig {
        max_steps: 100,
        ..cfg.mgd.clone()
    };
    let detector = HotspotDetector::fit(&data.train, &cfg).unwrap();
    let (test_x, test_y) = cfg.pipeline.extract_dataset(&data.test).unwrap();
    (detector, test_x, test_y)
}

#[test]
fn roc_curve_brackets_the_default_operating_point() {
    let (detector, test_x, test_y) = trained_setup();
    // Default operating point from hard predictions.
    let preds: Vec<bool> =
        hotspot_core::mgd::hotspot_probs(detector.network(), &test_x, Parallelism::serial())
            .into_iter()
            .map(|p| p > 0.5)
            .collect();
    let hits = preds
        .iter()
        .zip(test_y.iter())
        .filter(|(&p, &l)| p && l)
        .count();
    let recall = hits as f64 / test_y.iter().filter(|&&l| l).count() as f64;

    let curve = roc::sweep(detector.network(), &test_x, &test_y, 100);
    // Monotone curve containing an operating point matching threshold 0.5.
    let at_half = curve
        .iter()
        .min_by(|a, b| {
            (a.threshold - 0.5)
                .abs()
                .total_cmp(&(b.threshold - 0.5).abs())
        })
        .expect("non-empty curve");
    assert!(
        (at_half.recall - recall).abs() < 1e-9,
        "ROC at 0.5 ({}) disagrees with hard predictions ({recall})",
        at_half.recall
    );

    // AUC of a trained model must beat chance decisively on this set.
    let auc = roc::auc(detector.network(), &test_x, &test_y);
    assert!(auc > 0.6, "auc {auc}");
}

#[test]
fn calibration_diagram_covers_test_set() {
    let (detector, test_x, test_y) = trained_setup();
    let diagram = reliability_diagram(detector.network(), &test_x, &test_y, 8);
    let total: usize = diagram.iter().map(|b| b.count).sum();
    assert_eq!(total, test_x.len());
    let ece = expected_calibration_error(detector.network(), &test_x, &test_y, 8);
    assert!((0.0..=1.0).contains(&ece));
}
