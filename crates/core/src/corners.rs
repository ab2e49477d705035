//! Per-corner (process-window) prediction head.
//!
//! The base detector answers one question: hotspot or not at the nominal
//! process condition. Suites built with a [`hotspot_litho::CornerGrid`]
//! carry richer labels — one pass/fail bit per dose×defocus corner plus a
//! worst-corner severity margin — and this module learns that richer
//! target: a multi-label head with one independent sigmoid per process
//! corner (via [`hotspot_nn::loss::sigmoid_bce`]) and a linear severity
//! regression output sharing the same feature trunk.
//!
//! # Examples
//!
//! ```no_run
//! use hotspot_core::corners::{CornerHead, CornerHeadConfig};
//! use hotspot_datagen::suite::SuiteSpec;
//! use hotspot_litho::{LithoConfig, LithoSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = LithoSimulator::new(LithoConfig::default())?;
//! let data = SuiteSpec::topo(0.02).build(&sim); // corner-labelled suite
//! let (head, report) = CornerHead::fit(&data.train, &CornerHeadConfig::default())?;
//! println!("trained to loss {:.4}", report.final_loss);
//! let pred = head.predict(&data.test.iter().next().unwrap().clip)?;
//! println!("worst corner fail probability {:.2}", pred.worst_prob());
//! # Ok(())
//! # }
//! ```

use crate::feature::FeaturePipeline;
use crate::CoreError;
use hotspot_datagen::Dataset;
use hotspot_geometry::Clip;
use hotspot_nn::data::BatchSampler;
use hotspot_nn::engine::Executor;
use hotspot_nn::layers::{Dense, Flatten, Relu};
use hotspot_nn::loss::{sigmoid, sigmoid_bce_into};
use hotspot_nn::{Network, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the per-corner prediction head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerHeadConfig {
    /// Feature-tensor pipeline settings.
    pub pipeline: FeaturePipeline,
    /// Width of the single hidden layer between the feature tensor and the
    /// corner/severity outputs.
    pub hidden: usize,
    /// Full passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Weight of the severity-regression term relative to the per-corner
    /// classification loss.
    pub severity_weight: f32,
    /// Seed for weight initialisation and batch shuffling.
    pub seed: u64,
}

impl Default for CornerHeadConfig {
    fn default() -> Self {
        CornerHeadConfig {
            pipeline: FeaturePipeline::default(),
            hidden: 64,
            epochs: 40,
            batch_size: 8,
            lr: 0.05,
            severity_weight: 0.1,
            seed: 0xC04E_0001,
        }
    }
}

/// One clip's per-corner prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerPrediction {
    /// Independent fail probability per process corner, in corner-grid
    /// order (defocus-major, matching `CornerGrid::corners`).
    pub corner_probs: Vec<f32>,
    /// Predicted worst-corner severity margin, in the label's pixel units
    /// (positive = failing).
    pub severity: f32,
}

impl CornerPrediction {
    /// The highest per-corner fail probability.
    pub fn worst_prob(&self) -> f32 {
        self.corner_probs.iter().copied().fold(0.0, f32::max)
    }

    /// Index of the most-likely-failing corner.
    pub fn worst_corner(&self) -> usize {
        let mut best = 0;
        for (i, &p) in self.corner_probs.iter().enumerate() {
            if p > self.corner_probs[best] {
                best = i;
            }
        }
        best
    }

    /// Whether any corner is predicted to fail at the 0.5 threshold —
    /// the multi-corner analogue of the scalar hotspot decision.
    pub fn is_hotspot(&self) -> bool {
        self.worst_prob() >= 0.5
    }
}

/// Summary of a [`CornerHead::fit`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerTrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Mean combined loss (BCE + weighted severity MSE) over the final
    /// epoch.
    pub final_loss: f32,
}

/// Evaluation of a trained head on a corner-labelled dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerEvalResult {
    /// Fraction of (sample, corner) pairs classified correctly at 0.5.
    pub corner_accuracy: f64,
    /// Per-corner accuracy, in corner-grid order.
    pub per_corner_accuracy: Vec<f64>,
    /// Mean absolute error of the severity regression, in label units.
    pub severity_mae: f64,
    /// Accuracy of the derived any-corner-fails hotspot decision.
    pub hotspot_accuracy: f64,
}

/// A trained per-corner prediction head.
pub struct CornerHead {
    pipeline: FeaturePipeline,
    net: Network,
    n_corners: usize,
    severity_scale: f32,
}

impl std::fmt::Debug for CornerHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CornerHead")
            .field("pipeline", &self.pipeline)
            .field("n_corners", &self.n_corners)
            .field("severity_scale", &self.severity_scale)
            .finish()
    }
}

impl CornerHead {
    /// Trains a head on a corner-labelled dataset.
    ///
    /// # Errors
    ///
    /// [`CoreError::Dataset`] when the dataset carries no per-corner
    /// labels (build the suite with a `CornerGrid`),
    /// [`CoreError::DegenerateTrainingSet`] for an empty dataset, and
    /// [`CoreError::InvalidConfig`] for zero sizes or a non-positive
    /// learning rate. Feature-extraction failures propagate.
    pub fn fit(
        train: &Dataset,
        config: &CornerHeadConfig,
    ) -> Result<(Self, CornerTrainReport), CoreError> {
        if train.is_empty() {
            return Err(CoreError::DegenerateTrainingSet(
                "corner head needs a non-empty training set",
            ));
        }
        let n_corners = train.corner_schema().ok_or_else(|| {
            CoreError::Dataset(
                "dataset carries no per-corner labels; \
                 generate the suite with a process-corner grid"
                    .into(),
            )
        })?;
        if config.hidden == 0 || config.epochs == 0 || config.batch_size == 0 {
            return Err(CoreError::InvalidConfig(
                "corner head sizes and epochs must be nonzero",
            ));
        }
        // NaN fails both checks and is rejected alongside bad signs.
        if config.lr.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || config.severity_weight.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less)
            || config.severity_weight.is_nan()
        {
            return Err(CoreError::InvalidConfig(
                "corner head learning rate must be positive and severity weight non-negative",
            ));
        }

        let pipeline = config.pipeline.clone();
        let mut features = Vec::with_capacity(train.len());
        let mut targets = Vec::with_capacity(train.len());
        let mut severities = Vec::with_capacity(train.len());
        for sample in train.iter() {
            let corners = sample.corners.as_ref().ok_or_else(|| {
                CoreError::Dataset("sample is missing per-corner labels despite the schema".into())
            })?;
            features.push(pipeline.extract(&sample.clip)?);
            targets.push(
                corners
                    .fails
                    .iter()
                    .map(|&f| if f { 1.0f32 } else { 0.0 })
                    .collect::<Vec<f32>>(),
            );
            severities.push(corners.severity as f32);
        }
        // Normalise severities to roughly [-1, 1] so the regression term
        // starts on the same footing as the BCE term.
        let severity_scale = severities.iter().fold(1.0f32, |m, s| m.max(s.abs()));

        let in_features = features[0].len();
        let mut net = Network::new();
        net.push(Flatten::new());
        net.push(Dense::new(in_features, config.hidden, config.seed));
        net.push(Relu::new());
        net.push(Dense::new(
            config.hidden,
            n_corners + 1,
            config.seed.wrapping_add(1),
        ));

        let mut sampler = BatchSampler::new(features.len(), StdRng::seed_from_u64(config.seed));
        let batch = config.batch_size.min(features.len());
        let mut ex = Executor::new();
        let mut grad = vec![0.0f32; n_corners + 1];
        let mut final_loss = 0.0f32;
        for _ in 0..config.epochs {
            let order = sampler.epoch();
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                net.zero_grads();
                let mut batch_loss = 0.0f32;
                for &i in chunk {
                    let x = ex.forward_train(&mut net, &features[i]);
                    let bce =
                        sigmoid_bce_into(&x[..n_corners], &targets[i], &mut grad[..n_corners]);
                    let diff = x[n_corners] - severities[i] / severity_scale;
                    grad[n_corners] = 2.0 * config.severity_weight * diff;
                    batch_loss += bce + config.severity_weight * diff * diff;
                    ex.backward(&mut net, &grad);
                }
                net.apply_gradients(config.lr / chunk.len() as f32);
                epoch_loss += batch_loss / chunk.len() as f32;
                batches += 1;
            }
            final_loss = epoch_loss / batches as f32;
        }

        Ok((
            CornerHead {
                pipeline,
                net,
                n_corners,
                severity_scale,
            },
            CornerTrainReport {
                epochs: config.epochs,
                final_loss,
            },
        ))
    }

    /// Number of process corners this head predicts.
    #[inline]
    pub fn n_corners(&self) -> usize {
        self.n_corners
    }

    /// Predicts the per-corner fail probabilities and severity of one clip.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn predict(&self, clip: &Clip) -> Result<CornerPrediction, CoreError> {
        let input = self.pipeline.extract(clip)?;
        Ok(self.prediction(Executor::new().infer(&self.net, &input)))
    }

    /// The prediction read off one network output.
    fn prediction(&self, x: &[f32]) -> CornerPrediction {
        CornerPrediction {
            corner_probs: x[..self.n_corners].iter().map(|&v| sigmoid(v)).collect(),
            severity: x[self.n_corners] * self.severity_scale,
        }
    }

    /// Evaluates the head on a corner-labelled dataset.
    ///
    /// # Errors
    ///
    /// [`CoreError::Dataset`] when the dataset's corner schema is absent
    /// or disagrees with the head's; extraction failures propagate.
    pub fn evaluate(&self, data: &Dataset) -> Result<CornerEvalResult, CoreError> {
        match data.corner_schema() {
            Some(n) if n == self.n_corners => {}
            other => {
                return Err(CoreError::Dataset(format!(
                    "corner schema mismatch: head predicts {} corners, dataset has {:?}",
                    self.n_corners, other
                )));
            }
        }
        if data.is_empty() {
            return Err(CoreError::Dataset(
                "cannot evaluate on an empty dataset".into(),
            ));
        }
        let mut features = Vec::with_capacity(data.len());
        let mut truths = Vec::with_capacity(data.len());
        for sample in data.iter() {
            let corners = sample.corners.as_ref().ok_or_else(|| {
                CoreError::Dataset("sample is missing per-corner labels despite the schema".into())
            })?;
            features.push(self.pipeline.extract(&sample.clip)?);
            truths.push((corners, sample.hotspot));
        }
        let outputs = self.net.forward_batch(&features, Parallelism::serial());
        let mut per_corner_hits = vec![0usize; self.n_corners];
        let mut hotspot_hits = 0usize;
        let mut severity_err = 0.0f64;
        for ((corners, hotspot), y) in truths.into_iter().zip(&outputs) {
            let pred = self.prediction(y.as_slice());
            for (c, (&p, &truth)) in pred
                .corner_probs
                .iter()
                .zip(corners.fails.iter())
                .enumerate()
            {
                if (p >= 0.5) == truth {
                    per_corner_hits[c] += 1;
                }
            }
            if pred.is_hotspot() == hotspot {
                hotspot_hits += 1;
            }
            severity_err += (pred.severity as f64 - corners.severity as f64).abs();
        }
        let n = data.len() as f64;
        let per_corner_accuracy: Vec<f64> = per_corner_hits
            .iter()
            .map(|&hits| hits as f64 / n)
            .collect();
        Ok(CornerEvalResult {
            corner_accuracy: per_corner_accuracy.iter().sum::<f64>()
                / per_corner_accuracy.len() as f64,
            per_corner_accuracy,
            severity_mae: severity_err / n,
            hotspot_accuracy: hotspot_hits as f64 / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_datagen::Sample;
    use hotspot_geometry::Rect;
    use hotspot_litho::CornerLabels;

    fn window() -> Rect {
        Rect::new(0, 0, 1200, 1200).unwrap()
    }

    /// Dense narrow lines: "fails the two high-dose corners, severity 2".
    fn dense_clip(variant: i64) -> Clip {
        let mut clip = Clip::new(window());
        let pitch = 100 + 10 * variant;
        let mut x = 50;
        while x + 50 <= 1150 {
            clip.push(Rect::new(x, 100, x + 50, 1100).unwrap());
            x += pitch;
        }
        clip
    }

    /// One sparse wide block: "passes everywhere, severity -3".
    fn sparse_clip(variant: i64) -> Clip {
        let mut clip = Clip::new(window());
        let x = 100 + 50 * variant;
        clip.push(Rect::new(x, 200, x + 400, 1000).unwrap());
        clip
    }

    fn dense_labels() -> CornerLabels {
        CornerLabels {
            fails: vec![true, false, true],
            severity: 2,
        }
    }

    fn sparse_labels() -> CornerLabels {
        CornerLabels {
            fails: vec![false, false, false],
            severity: -3,
        }
    }

    fn labelled_dataset(n_per_class: i64) -> Dataset {
        let mut data = Dataset::new();
        for v in 0..n_per_class {
            data.push(Sample::with_corners(dense_clip(v), dense_labels()));
            data.push(Sample::with_corners(sparse_clip(v), sparse_labels()));
        }
        data
    }

    fn quick_config() -> CornerHeadConfig {
        CornerHeadConfig {
            pipeline: FeaturePipeline::new(10, 12, 8).unwrap(),
            hidden: 16,
            epochs: 60,
            batch_size: 4,
            lr: 0.1,
            severity_weight: 0.1,
            seed: 1,
        }
    }

    #[test]
    fn fit_rejects_unlabelled_dataset() {
        let mut data = Dataset::new();
        data.push(Sample::new(dense_clip(0), true));
        let err = CornerHead::fit(&data, &quick_config()).unwrap_err();
        assert!(matches!(err, CoreError::Dataset(_)), "got {err:?}");
    }

    #[test]
    fn fit_rejects_empty_dataset() {
        let err = CornerHead::fit(&Dataset::new(), &quick_config()).unwrap_err();
        assert!(matches!(err, CoreError::DegenerateTrainingSet(_)));
    }

    #[test]
    fn fit_rejects_degenerate_config() {
        let data = labelled_dataset(2);
        for bad in [
            CornerHeadConfig {
                hidden: 0,
                ..quick_config()
            },
            CornerHeadConfig {
                epochs: 0,
                ..quick_config()
            },
            CornerHeadConfig {
                batch_size: 0,
                ..quick_config()
            },
            CornerHeadConfig {
                lr: 0.0,
                ..quick_config()
            },
            CornerHeadConfig {
                severity_weight: -1.0,
                ..quick_config()
            },
        ] {
            let err = CornerHead::fit(&data, &bad).unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "got {err:?}");
        }
    }

    #[test]
    fn learns_separable_corner_labels() {
        let (head, report) = CornerHead::fit(&labelled_dataset(6), &quick_config()).unwrap();
        assert_eq!(head.n_corners(), 3);
        assert!(report.final_loss.is_finite());
        // Held-out variants of each archetype.
        let dense = head.predict(&dense_clip(7)).unwrap();
        let sparse = head.predict(&sparse_clip(7)).unwrap();
        assert_eq!(dense.corner_probs.len(), 3);
        for &p in &dense.corner_probs {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(
            dense.worst_prob() > 0.5,
            "dense archetype should fail a corner, got {:?}",
            dense.corner_probs
        );
        assert!(dense.is_hotspot());
        assert!(
            sparse.worst_prob() < 0.5,
            "sparse archetype should pass everywhere, got {:?}",
            sparse.corner_probs
        );
        // The never-failing middle corner stays low even for dense clips.
        assert!(dense.corner_probs[1] < 0.5);
        assert_ne!(dense.worst_corner(), 1);
        // Severity regression preserves the ordering of the two classes.
        assert!(dense.severity > sparse.severity);
    }

    #[test]
    fn training_and_prediction_are_deterministic() {
        let data = labelled_dataset(3);
        let (a, ra) = CornerHead::fit(&data, &quick_config()).unwrap();
        let (b, rb) = CornerHead::fit(&data, &quick_config()).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(
            a.predict(&dense_clip(9)).unwrap(),
            b.predict(&dense_clip(9)).unwrap()
        );
    }

    #[test]
    fn evaluate_scores_the_training_set() {
        let data = labelled_dataset(6);
        let (head, _) = CornerHead::fit(&data, &quick_config()).unwrap();
        let eval = head.evaluate(&data).unwrap();
        assert_eq!(eval.per_corner_accuracy.len(), 3);
        assert!(eval.corner_accuracy > 0.9, "got {eval:?}");
        assert!(eval.hotspot_accuracy > 0.9, "got {eval:?}");
        assert!(eval.severity_mae < 2.0, "got {eval:?}");
    }

    #[test]
    fn evaluate_rejects_schema_mismatch() {
        let (head, _) = CornerHead::fit(&labelled_dataset(2), &quick_config()).unwrap();
        // No corner labels at all.
        let mut plain = Dataset::new();
        plain.push(Sample::new(dense_clip(0), true));
        assert!(matches!(
            head.evaluate(&plain).unwrap_err(),
            CoreError::Dataset(_)
        ));
        // Wrong corner count.
        let mut narrow = Dataset::new();
        narrow.push(Sample::with_corners(
            dense_clip(0),
            CornerLabels {
                fails: vec![true, false],
                severity: 1,
            },
        ));
        assert!(matches!(
            head.evaluate(&narrow).unwrap_err(),
            CoreError::Dataset(_)
        ));
        // Empty dataset.
        assert!(head.evaluate(&Dataset::new()).is_err());
    }
}
