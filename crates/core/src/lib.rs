//! Deep biased learning for layout hotspot detection — the DAC'17 method.
//!
//! This crate assembles the substrates into the paper's framework:
//!
//! - [`feature`]: the clip → feature-tensor pipeline (Section 3) producing
//!   CNN-ready CHW tensors.
//! - [`model`]: the Table-1 CNN — two convolution stages (two 3×3
//!   convolutions + ReLU + 2×2 max-pool each; 16 then 32 maps) followed by
//!   FC-250 with 50 % dropout and an FC-2 output.
//! - [`mgd`]: mini-batch gradient descent with step-decayed learning rate
//!   and validation-based stopping (Algorithm 1, Section 4.2).
//! - [`biased`]: the biased-learning loop (Algorithm 2, Section 4.3) that
//!   fine-tunes with relaxed non-hotspot targets `[1-ε, ε]`.
//! - [`shift`]: the decision-boundary-shifting alternative (Eq. 11) that
//!   biased learning is compared against in Figure 4.
//! - [`metrics`]: accuracy / false-alarm / ODST accounting (Definitions
//!   1–3), with [`roc`] threshold sweeps and [`calibration`] reliability
//!   analysis of the confidence-reduction mechanism behind Theorem 1.
//! - [`detector`]: a one-stop train/predict/evaluate API.
//! - [`corners`]: a multi-label head for process-corner-labelled suites,
//!   predicting one fail probability per dose×defocus corner plus a
//!   worst-corner severity margin.
//!
//! # Examples
//!
//! Train a detector on a miniature synthetic benchmark and evaluate it:
//!
//! ```no_run
//! use hotspot_core::detector::{DetectorConfig, HotspotDetector};
//! use hotspot_datagen::suite::SuiteSpec;
//! use hotspot_litho::{LithoConfig, LithoSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = LithoSimulator::new(LithoConfig::default())?;
//! let data = SuiteSpec::iccad(0.01).build(&sim);
//! let mut config = DetectorConfig::default();
//! config.mgd.max_steps = 500; // keep the example quick
//! let detector = HotspotDetector::fit(&data.train, &config)?;
//! let result = detector.evaluate(&data.test)?;
//! println!("accuracy {:.1}%, false alarms {}", 100.0 * result.accuracy, result.false_alarms);
//! # Ok(())
//! # }
//! ```

pub mod active;
pub mod api;
pub mod biased;
pub mod calibration;
pub mod cascade;
pub mod checkpoint;
pub mod corners;
pub mod detector;
pub mod feature;
pub mod metrics;
pub mod mgd;
pub mod model;
pub mod model_file;
pub mod prelude;
pub mod roc;
pub mod scan;
pub mod session;
pub mod shift;

pub use active::{
    acquire_batch, train_active, ActiveConfig, ActiveReport, ActiveRoundReport, RunIdentity,
};
pub use api::ModelProvenance;
pub use biased::{BiasedLearningConfig, BiasedLearningReport};
pub use cascade::{CascadeConfig, CascadePrefilter};
pub use checkpoint::{ActiveRoundState, ActiveState, Checkpoint};
pub use corners::{
    CornerEvalResult, CornerHead, CornerHeadConfig, CornerPrediction, CornerTrainReport,
};
pub use detector::{DetectorConfig, HotspotDetector};
pub use feature::FeaturePipeline;
pub use hotspot_nn::Parallelism;
pub use metrics::EvalResult;
pub use mgd::{MgdConfig, TrainReport};
pub use model::CnnConfig;
pub use model_file::ModelFile;
pub use scan::{
    CacheStats, CascadeScanStats, HotspotRegion, ScanConfig, ScanReport, ScanStage, WindowScore,
};
pub use session::TrainSession;

use std::error::Error;
use std::fmt;

/// Errors from detector construction and training.
#[derive(Debug)]
pub enum CoreError {
    /// Feature extraction failed (bad pipeline/clip geometry combination).
    Feature(hotspot_dct::DctError),
    /// The training set cannot train a classifier.
    DegenerateTrainingSet(&'static str),
    /// A configuration value was invalid.
    InvalidConfig(&'static str),
    /// A training checkpoint could not be encoded, decoded, written, or
    /// applied (corrupt file, mismatched run configuration, I/O failure).
    Checkpoint(String),
    /// The cascade prefilter could not be trained, calibrated, decoded,
    /// or applied (degenerate calibration split, corrupt model file,
    /// density grid inconsistent with the scan window).
    Prefilter(String),
    /// A model file could not be decoded, or decoded to something
    /// unusable (corrupt header or blob, unsupported version, weights
    /// that do not fit the declared architecture).
    Model(String),
    /// A training set could not be grown (feature/label count mismatch,
    /// inconsistent feature dimension or clip window).
    Dataset(String),
    /// The active-learning loop failed (empty pool, degenerate
    /// acquisition, inconsistent checkpointed selections).
    Active(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Feature(e) => write!(f, "feature extraction failed: {e}"),
            CoreError::DegenerateTrainingSet(why) => write!(f, "degenerate training set: {why}"),
            CoreError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            CoreError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            CoreError::Prefilter(why) => write!(f, "cascade prefilter error: {why}"),
            CoreError::Model(why) => write!(f, "model file error: {why}"),
            CoreError::Dataset(why) => write!(f, "dataset error: {why}"),
            CoreError::Active(why) => write!(f, "active learning error: {why}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Feature(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hotspot_dct::DctError> for CoreError {
    fn from(e: hotspot_dct::DctError) -> Self {
        CoreError::Feature(e)
    }
}

impl From<hotspot_features::FeatureError> for CoreError {
    fn from(e: hotspot_features::FeatureError) -> Self {
        CoreError::Prefilter(e.to_string())
    }
}

impl From<hotspot_baselines::BaselineError> for CoreError {
    fn from(e: hotspot_baselines::BaselineError) -> Self {
        CoreError::Prefilter(e.to_string())
    }
}

impl From<hotspot_datagen::DatasetError> for CoreError {
    fn from(e: hotspot_datagen::DatasetError) -> Self {
        CoreError::Dataset(e.to_string())
    }
}

impl From<hotspot_features::kmeans::KMeansError> for CoreError {
    fn from(e: hotspot_features::kmeans::KMeansError) -> Self {
        CoreError::Active(e.to_string())
    }
}
