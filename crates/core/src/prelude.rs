//! One-line import for the common detector workflow.
//!
//! ```
//! use hotspot_core::prelude::*;
//!
//! let config = DetectorConfig::default();
//! assert_eq!(config.parallelism, Parallelism::auto());
//! ```

pub use crate::api::{
    ClipSpec, ErrorKind, ErrorReply, ModelProvenance, PredictRequest, PredictResponse,
    ReloadRequest, ReloadResponse, Request, ScanRequest, ScanResponse, ServeCounters,
    StatusResponse, WIRE_VERSION,
};
pub use crate::biased::{BiasedLearningConfig, BiasedLearningReport};
pub use crate::checkpoint::Checkpoint;
pub use crate::detector::{DetectorConfig, HotspotDetector};
pub use crate::feature::FeaturePipeline;
pub use crate::metrics::EvalResult;
pub use crate::mgd::{MgdConfig, TrainReport};
pub use crate::model::CnnConfig;
pub use crate::model_file::ModelFile;
pub use crate::scan::{CacheStats, HotspotRegion, ScanConfig, ScanReport, WindowScore};
pub use crate::CoreError;
pub use crate::Parallelism;
