//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the experiment index); this library holds the
//! pieces they share: a tiny argument parser, baseline detector evaluation,
//! and plain-text/CSV table rendering.

pub mod args;
pub mod baseline;
pub mod table;

pub use args::{ArgsError, ExperimentArgs};

use hotspot_datagen::suite::{BenchmarkData, SuiteSpec};
use hotspot_litho::{LithoConfig, LithoSimulator};

/// Builds the lithography oracle used by every experiment.
///
/// # Panics
///
/// Panics only if the suite-wide default configuration were invalid, which
/// tests guarantee it is not.
pub fn oracle() -> LithoSimulator {
    LithoSimulator::new(LithoConfig::default()).expect("default litho config is valid")
}

/// [`try_detector_config`], panicking on a malformed flag.
pub fn detector_config(args: &ExperimentArgs) -> hotspot_core::DetectorConfig {
    try_detector_config(args).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds the CNN detector configuration shared by the experiments from
/// the common flags: `--k` (feature-tensor coefficients, default 32),
/// `--steps` (initial MGD step budget, default 800), `--batch` (default
/// 32), `--seed`, `--rounds` (biased-learning rounds, default 4) and
/// `--eps-step` (bias step, default 0.1).
///
/// # Errors
///
/// A flag that does not parse, or a `--k` the feature pipeline rejects.
pub fn try_detector_config(
    args: &ExperimentArgs,
) -> Result<hotspot_core::DetectorConfig, ArgsError> {
    use hotspot_core::{BiasedLearningConfig, DetectorConfig, MgdConfig};

    let steps = args.try_usize("steps", 800)?;
    let mgd = MgdConfig {
        lr: 1e-3,
        alpha: 0.5,
        decay_step: (steps / 3).max(1),
        batch_size: args.try_usize("batch", 32)?,
        max_steps: steps,
        val_interval: (steps / 10).max(1),
        patience: 5,
        val_fraction: 0.25,
        seed: args.try_u64("seed", 42)?,
        balanced_sampling: true,
        threads: 1,
    };
    let fine_tune = MgdConfig {
        max_steps: (steps / 4).max(1),
        lr: 5e-4,
        ..mgd.clone()
    };
    let k = args.try_usize("k", 32)?;
    let mut config = DetectorConfig::default();
    config.pipeline = hotspot_core::FeaturePipeline::new(10, 12, k).map_err(|e| {
        ArgsError::bad_value(
            "k",
            &k.to_string(),
            &format!("a valid coefficient count ({e})"),
        )
    })?;
    config.mgd = mgd.clone();
    config.biased = BiasedLearningConfig {
        epsilon_step: args.try_f64("eps-step", 0.1)? as f32,
        rounds: args.try_usize("rounds", 4)?,
        initial: mgd,
        fine_tune,
    };
    Ok(config)
}

/// Generates one benchmark at the given scale, logging progress.
pub fn build_benchmark(spec: &SuiteSpec, sim: &LithoSimulator) -> BenchmarkData {
    eprintln!(
        "[datagen] building {} (train {}+{}, test {}+{})...",
        spec.name, spec.train_hs, spec.train_nhs, spec.test_hs, spec.test_nhs
    );
    let data = spec.build(sim);
    eprintln!("[datagen] {} ready ({} clips)", spec.name, spec.total());
    data
}
