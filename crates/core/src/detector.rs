//! End-to-end detector API.

use crate::biased::{BiasedLearningConfig, BiasedLearningReport, CheckpointEvent};
use crate::cascade::{CascadeConfig, CascadePrefilter};
use crate::checkpoint::Checkpoint;
use crate::feature::FeaturePipeline;
use crate::metrics::EvalResult;
use crate::mgd;
use crate::model::CnnConfig;
use crate::CoreError;
use hotspot_datagen::Dataset;
use hotspot_geometry::Clip;
use hotspot_nn::engine::{BatchScorer, Executor};
use hotspot_nn::{loss, optim, Network, Parallelism};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Full configuration of the deep biased-learning detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DetectorConfig {
    /// Feature-tensor pipeline settings.
    pub pipeline: FeaturePipeline,
    /// CNN architecture (input dimensions must match the pipeline; `fit`
    /// reconciles them automatically).
    pub cnn: CnnConfig,
    /// Biased-learning schedule. Set `rounds = 1` for an unbiased model.
    pub biased: BiasedLearningConfig,
    /// Convenience access to the initial trainer settings.
    pub mgd: crate::mgd::MgdConfig,
    /// Worker policy for batch scoring ([`HotspotDetector::predict_batch`],
    /// [`HotspotDetector::evaluate`], [`HotspotDetector::scan`]). Defaults
    /// to [`Parallelism::auto`]; never affects results, only latency.
    pub parallelism: Parallelism,
}

impl DetectorConfig {
    /// The CNN architecture with its input dimensions reconciled to the
    /// feature pipeline (grid size and retained DCT coefficients).
    pub fn reconciled_cnn(&self) -> CnnConfig {
        CnnConfig {
            input_grid: self.pipeline.grid_dim(),
            input_channels: self.pipeline.coefficients(),
            ..self.cnn
        }
    }

    /// The effective biased-learning schedule: `mgd` supplies the initial
    /// trainer settings, and the fine-tune step budget is capped at a
    /// quarter of the initial budget when left above it.
    pub fn schedule(&self) -> BiasedLearningConfig {
        let mut biased = self.biased.clone();
        biased.initial = self.mgd.clone();
        if biased.fine_tune.max_steps > self.mgd.max_steps {
            biased.fine_tune.max_steps = (self.mgd.max_steps / 4).max(1);
        }
        biased
    }
}

/// A trained hotspot detector: feature pipeline + CNN + (optionally)
/// biased learning.
///
/// See the crate-level example for the full train/evaluate flow.
pub struct HotspotDetector {
    pipeline: FeaturePipeline,
    net: Network,
    report: BiasedLearningReport,
    parallelism: Parallelism,
}

impl std::fmt::Debug for HotspotDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotspotDetector")
            .field("pipeline", &self.pipeline)
            .field("final_epsilon", &self.report.final_epsilon())
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

impl HotspotDetector {
    /// Trains a detector on a labelled clip dataset with the paper's full
    /// procedure (feature tensors → MGD → biased fine-tuning).
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and training errors; the training set
    /// must contain both classes.
    pub fn fit(train: &Dataset, config: &DetectorConfig) -> Result<Self, CoreError> {
        Self::fit_resumable(train, config, None, 0, &mut |_, _| Ok(()))
    }

    /// [`HotspotDetector::fit`] with crash-safe checkpointing: `hook`
    /// fires at every checkpointable moment (every `checkpoint_every`
    /// optimiser steps and at every round boundary — see
    /// [`crate::session::TrainSession::run_schedule`]), and `resume` restarts
    /// an interrupted run from a [`Checkpoint`], reproducing bit-identical
    /// final weights to the uninterrupted run.
    ///
    /// Callers are responsible for validating the checkpoint against the
    /// run configuration first ([`Checkpoint::validate_run`]); this method
    /// only verifies that it fits the constructed network.
    ///
    /// # Errors
    ///
    /// Everything [`HotspotDetector::fit`] rejects, plus
    /// [`CoreError::Checkpoint`] for a checkpoint that does not match the
    /// network or schedule, and any error the hook returns.
    pub fn fit_resumable(
        train: &Dataset,
        config: &DetectorConfig,
        resume: Option<&Checkpoint>,
        checkpoint_every: usize,
        hook: &mut dyn FnMut(CheckpointEvent<'_>, &mut Network) -> Result<(), CoreError>,
    ) -> Result<Self, CoreError> {
        if train.hotspot_count() == 0 || train.non_hotspot_count() == 0 {
            return Err(CoreError::DegenerateTrainingSet(
                "training set must contain both classes",
            ));
        }
        let pipeline = config.pipeline.clone();
        let (features, labels) = pipeline.extract_dataset(train)?;
        let mut session = crate::session::TrainSession::new(
            config.reconciled_cnn().build(),
            features,
            labels,
            config.schedule(),
        );
        if let Some(ckpt) = resume {
            let resume_state = ckpt.apply(session.network_mut())?;
            session.restore(resume_state);
        }
        let report = session.run_schedule(checkpoint_every, hook)?;
        Ok(HotspotDetector {
            pipeline,
            net: session.into_network(),
            report,
            parallelism: config.parallelism,
        })
    }

    /// Trains and calibrates a cascade prefilter against this detector's
    /// raster resolution (so scan-time density crops reproduce the
    /// training-time vectors bit-for-bit).
    ///
    /// # Errors
    ///
    /// See [`CascadePrefilter::train`].
    pub fn train_prefilter(
        &self,
        train: &Dataset,
        cascade: &CascadeConfig,
    ) -> Result<CascadePrefilter, CoreError> {
        CascadePrefilter::train(train, self.pipeline.resolution_nm(), cascade)
    }

    /// Wraps an already-trained network (e.g. restored from a model file)
    /// in a detector, with an empty training report and the default
    /// ([`Parallelism::auto`]) worker policy.
    ///
    /// The caller is responsible for the network matching the pipeline's
    /// [`FeaturePipeline::input_shape`]; a mismatch surfaces as a shape
    /// panic on the first prediction, exactly as it would when driving the
    /// network directly.
    pub fn from_network(pipeline: FeaturePipeline, net: Network) -> Self {
        HotspotDetector {
            pipeline,
            net,
            report: BiasedLearningReport { rounds: Vec::new() },
            parallelism: Parallelism::default(),
        }
    }

    /// Assembles a detector from a finished training session (the
    /// active-learning driver in [`crate::active`]).
    pub(crate) fn from_session(
        pipeline: FeaturePipeline,
        net: Network,
        report: BiasedLearningReport,
        parallelism: Parallelism,
    ) -> Self {
        HotspotDetector {
            pipeline,
            net,
            report,
            parallelism,
        }
    }

    /// The biased-learning training report.
    pub fn training_report(&self) -> &BiasedLearningReport {
        &self.report
    }

    /// The feature pipeline the detector was trained with.
    pub fn pipeline(&self) -> &FeaturePipeline {
        &self.pipeline
    }

    /// The underlying trained network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network (for boundary-shift
    /// experiments and fine-tuning studies).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The current batch-scoring worker policy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Overrides the worker policy inherited from
    /// [`DetectorConfig::parallelism`].
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// Predicted hotspot probability of one clip: one planned pass
    /// through a fresh [`Executor`]; batches go through
    /// [`HotspotDetector::predict_batch`].
    ///
    /// Inference is read-only (planned passes through `&Network`), so a
    /// shared detector can score clips from many threads concurrently.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn predict_proba(&self, clip: &Clip) -> Result<f32, CoreError> {
        let feature = self.pipeline.extract(clip)?;
        Ok(loss::softmax(Executor::new().infer(&self.net, &feature))[1])
    }

    /// Hard hotspot decision at the standard 0.5 threshold.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn predict(&self, clip: &Clip) -> Result<bool, CoreError> {
        Ok(self.predict_proba(clip)? > 0.5)
    }

    /// Predicted hotspot probabilities for a batch of clips, with feature
    /// extraction and CNN inference fanned out over the configured
    /// [`Parallelism`] (fixed-order chunks, results in clip order). All
    /// workers share the network immutably — no replica cloning.
    ///
    /// Per-clip computation is pure, so the output is **bit-identical to
    /// calling [`HotspotDetector::predict_proba`] serially**, for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first feature-extraction failure (in clip order).
    pub fn predict_batch(&self, clips: &[Clip]) -> Result<Vec<f32>, CoreError> {
        // Nothing to score: answer immediately instead of spinning up
        // workers or planning a degenerate workspace.
        if clips.is_empty() {
            return Ok(Vec::new());
        }
        let pipeline = &self.pipeline;
        let net = &self.net;
        let k = pipeline.coefficients();
        let n = pipeline.grid_dim();
        // Each worker extracts clip features straight into its scorer's
        // one-block buffer and scores a whole block per planned pass — one
        // GEMM per layer per block — so after the first block the CNN
        // forward pass allocates nothing. Batched scoring is bit-identical
        // per clip.
        let score_slice = |slice: &[Clip]| -> Result<Vec<f32>, CoreError> {
            let mut scorer = BatchScorer::new();
            let mut soft = Vec::new();
            let mut probs = Vec::with_capacity(slice.len());
            scorer.infer_each(
                net,
                &[k, n, n],
                slice.len(),
                |i, dst| pipeline.extract_into(&slice[i], dst),
                |_, y| {
                    soft.resize(y.len(), 0.0);
                    loss::softmax_into(y, &mut soft);
                    probs.push(soft[1]);
                },
            )?;
            Ok(probs)
        };
        let mut probs = Vec::with_capacity(clips.len());
        for slice in self.parallelism.map_chunks(clips, score_slice) {
            probs.extend(slice?);
        }
        Ok(probs)
    }

    /// Incrementally updates the trained model with newly labelled clips —
    /// the "online update capability of MGD" the paper highlights as the
    /// answer to its long initial training time (§5: "the trained model
    /// can be effectively updated with newly incoming instances").
    ///
    /// Each `(clip, hotspot)` pair contributes one gradient step at rate
    /// `lr` towards its (optionally biased) target — a one-sample
    /// [`optim::minibatch_step`]; `epsilon` plays the same role as in
    /// [`crate::biased`].
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures and rejects ε outside
    /// `[0, 0.5)`.
    pub fn update_online(
        &mut self,
        samples: &[(Clip, bool)],
        lr: f32,
        epsilon: f32,
    ) -> Result<(), CoreError> {
        if !(0.0..0.5).contains(&epsilon) {
            return Err(CoreError::InvalidConfig("ε must be in [0, 0.5)"));
        }
        let mut ex = hotspot_nn::engine::Executor::new();
        for (clip, hotspot) in samples {
            let feature = self.pipeline.extract(clip)?;
            let target = mgd::target_for(*hotspot, epsilon);
            optim::minibatch_step(&mut self.net, &mut ex, &[(&feature, target)], lr);
        }
        Ok(())
    }

    /// Snapshots the trained weights (e.g. for persistence via serde).
    pub fn export_parameters(&mut self) -> hotspot_nn::serialize::ParameterBlob {
        hotspot_nn::serialize::ParameterBlob::from_network(&mut self.net)
    }

    /// Restores weights exported from an identically-configured detector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the parameter counts
    /// disagree (different architecture or pipeline `k`).
    pub fn import_parameters(
        &mut self,
        blob: &hotspot_nn::serialize::ParameterBlob,
    ) -> Result<(), CoreError> {
        blob.load_into(&mut self.net)
            .map_err(|_| CoreError::InvalidConfig("parameter blob does not match architecture"))
    }

    /// Evaluates on a labelled test set, producing Table-2-style metrics
    /// (accuracy, false alarms, CPU seconds, ODST). Scoring fans out per
    /// the configured [`Parallelism`]; predictions are identical to a
    /// serial pass (see [`HotspotDetector::predict_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures (a test clip whose geometry
    /// does not match the training pipeline configuration).
    pub fn evaluate(&self, test: &Dataset) -> Result<EvalResult, CoreError> {
        let start = Instant::now();
        let clips: Vec<Clip> = test.iter().map(|s| s.clip.clone()).collect();
        let probs = self.predict_batch(&clips)?;
        let predictions: Vec<bool> = probs.iter().map(|&p| p > 0.5).collect();
        let labels: Vec<bool> = test.iter().map(|s| s.hotspot).collect();
        let eval_time = start.elapsed().as_secs_f64();
        Ok(EvalResult::from_predictions(
            &predictions,
            &labels,
            eval_time,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgd::MgdConfig;
    use hotspot_datagen::suite::SuiteSpec;
    use hotspot_litho::{LithoConfig, LithoSimulator};

    fn quick_config() -> DetectorConfig {
        let mgd = MgdConfig {
            lr: 2e-3,
            alpha: 0.7,
            decay_step: 150,
            batch_size: 16,
            max_steps: 400,
            val_interval: 100,
            patience: 3,
            val_fraction: 0.25,
            seed: 5,
            balanced_sampling: true,
            threads: 1,
        };
        let mut cfg = DetectorConfig::default();
        // k = 8 keeps the unit test fast; the experiments use 32.
        cfg.pipeline = FeaturePipeline::new(10, 12, 8).unwrap();
        cfg.biased.rounds = 2;
        cfg.biased.fine_tune = MgdConfig {
            max_steps: 100,
            ..mgd.clone()
        };
        cfg.mgd = mgd;
        cfg
    }

    /// A small, class-balanced, single-archetype benchmark: learnable
    /// within a unit-test step budget.
    fn balanced_spec() -> SuiteSpec {
        SuiteSpec {
            name: "unit".into(),
            train_hs: 40,
            train_nhs: 40,
            test_hs: 20,
            test_nhs: 20,
            mix: vec![
                (hotspot_datagen::PatternKind::LineArray, 1.0),
                (hotspot_datagen::PatternKind::LineTips, 1.0),
            ],
            // Pinned to a draw the quick-budget detector learns with
            // margin; the bound checks wiring, not a specific seed.
            seed: 107,
            version: hotspot_datagen::suite::SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    #[test]
    fn fit_and_evaluate_tiny_benchmark() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = balanced_spec().build(&sim);
        let mut detector = HotspotDetector::fit(&data.train, &quick_config()).unwrap();
        let result = detector.evaluate(&data.test).unwrap();
        assert_eq!(
            result.hotspot_total + result.non_hotspot_total,
            data.test.len()
        );
        // This test guards end-to-end wiring, not model quality (the
        // experiment binaries measure that at realistic budgets): a
        // briefly-trained model must still clearly beat chance overall
        // and detect a nontrivial share of hotspots.
        assert!(result.accuracy > 0.35, "accuracy {}", result.accuracy);
        assert!(
            result.overall_accuracy() > 0.6,
            "overall {}",
            result.overall_accuracy()
        );
        assert!(result.odst_s >= result.eval_time_s);
        // Prediction API is consistent with evaluation.
        let sample = &data.test.samples()[0];
        let p = detector.predict_proba(&sample.clip).unwrap();
        assert!((0.0..=1.0).contains(&p));

        // Batch prediction is bit-identical to the serial API for any
        // worker policy.
        let clips: Vec<Clip> = data.test.iter().map(|s| s.clip.clone()).collect();
        let serial: Vec<f32> = clips
            .iter()
            .map(|c| detector.predict_proba(c).unwrap())
            .collect();
        for workers in [1, 2, 3, 8] {
            detector.set_parallelism(Parallelism::fixed(workers).unwrap());
            assert_eq!(
                detector.predict_batch(&clips).unwrap(),
                serial,
                "workers = {workers}"
            );
        }
        detector.set_parallelism(Parallelism::auto());
        assert_eq!(detector.predict_batch(&clips).unwrap(), serial);
        // A shared reference scores concurrently: predict_proba is &self.
        let shared = &detector;
        let first = &clips[0];
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| scope.spawn(move |_| shared.predict_proba(first).unwrap()))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), serial[0]);
            }
        })
        .unwrap();
    }

    #[test]
    fn empty_clip_batch_returns_empty() {
        // Regression: a zero-clip batch must answer `[]` immediately for
        // every worker policy instead of planning a degenerate workspace
        // (or dividing by a zero chunk size).
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = balanced_spec().build(&sim);
        let mut cfg = quick_config();
        cfg.mgd.max_steps = 60;
        cfg.biased.rounds = 1;
        let mut detector = HotspotDetector::fit(&data.train, &cfg).unwrap();
        for workers in [1usize, 4] {
            detector.set_parallelism(Parallelism::fixed(workers).unwrap());
            assert!(detector.predict_batch(&[]).unwrap().is_empty());
        }
        detector.set_parallelism(Parallelism::auto());
        assert!(detector.predict_batch(&[]).unwrap().is_empty());
        // An empty test set evaluates to the degenerate-but-defined
        // all-empty result rather than panicking.
        let empty: Dataset = std::iter::empty::<hotspot_datagen::Sample>().collect();
        let result = detector.evaluate(&empty).unwrap();
        assert_eq!(result.hotspot_total + result.non_hotspot_total, 0);
    }

    #[test]
    fn rejects_single_class_training() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = SuiteSpec::iccad(0.002).build(&sim);
        let only_hs: Dataset = data.train.iter().filter(|s| s.hotspot).cloned().collect();
        assert!(matches!(
            HotspotDetector::fit(&only_hs, &quick_config()),
            Err(CoreError::DegenerateTrainingSet(_))
        ));
    }

    #[test]
    fn online_updates_shift_predictions() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = balanced_spec().build(&sim);
        let mut cfg = quick_config();
        cfg.mgd.max_steps = 100; // deliberately undertrained
        cfg.biased.rounds = 1;
        let mut detector = HotspotDetector::fit(&data.train, &cfg).unwrap();
        // Stream one hotspot clip repeatedly: its probability must rise.
        let hs = data
            .train
            .iter()
            .find(|s| s.hotspot)
            .expect("has hotspots")
            .clip
            .clone();
        let before = detector.predict_proba(&hs).unwrap();
        let stream: Vec<(hotspot_geometry::Clip, bool)> =
            (0..20).map(|_| (hs.clone(), true)).collect();
        detector.update_online(&stream, 1e-2, 0.0).unwrap();
        let after = detector.predict_proba(&hs).unwrap();
        assert!(
            after > before,
            "online updates must raise probability: {before} -> {after}"
        );
        // Invalid ε rejected.
        assert!(detector.update_online(&stream, 1e-2, 0.7).is_err());
    }

    #[test]
    fn parameter_export_import_roundtrip() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = balanced_spec().build(&sim);
        let mut cfg = quick_config();
        cfg.mgd.max_steps = 60;
        cfg.biased.rounds = 1;
        let mut a = HotspotDetector::fit(&data.train, &cfg).unwrap();
        let blob = a.export_parameters();
        // A detector trained with a different seed...
        let mut cfg_b = cfg.clone();
        cfg_b.cnn.seed = 777;
        cfg_b.mgd.seed = 777;
        let mut b = HotspotDetector::fit(&data.train, &cfg_b).unwrap();
        let clip = &data.test.samples()[0].clip;
        // ...diverges, then matches after import.
        b.import_parameters(&blob).unwrap();
        assert_eq!(
            a.predict_proba(clip).unwrap(),
            b.predict_proba(clip).unwrap()
        );
        // Mismatched architecture rejected.
        let mut cfg_small = cfg.clone();
        cfg_small.pipeline = FeaturePipeline::new(10, 12, 4).unwrap();
        let mut small = HotspotDetector::fit(&data.train, &cfg_small).unwrap();
        assert!(small.import_parameters(&blob).is_err());
    }
}
