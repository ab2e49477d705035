//! Biased learning (paper Algorithm 2 and Theorem 1).

use crate::mgd::{MgdConfig, TrainReport, TrainerState};
use crate::session::TrainSession;
use crate::CoreError;
use hotspot_nn::{Network, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of the biased-learning loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasedLearningConfig {
    /// Bias step δε added each round.
    pub epsilon_step: f32,
    /// Number of fine-tuning rounds t (the paper uses t = 4 with
    /// δε = 0.1, i.e. ε ∈ {0, 0.1, 0.2, 0.3}).
    pub rounds: usize,
    /// Trainer settings for the initial ε = 0 training.
    pub initial: MgdConfig,
    /// Trainer settings for each fine-tuning round (typically shorter).
    pub fine_tune: MgdConfig,
}

impl Default for BiasedLearningConfig {
    /// The paper's schedule: δε = 0.1, t = 4 (initial round plus three
    /// fine-tunes), fine-tuning at a quarter of the initial step budget.
    fn default() -> Self {
        let initial = MgdConfig::default();
        let fine_tune = MgdConfig {
            max_steps: initial.max_steps / 4,
            lr: initial.lr * 0.5,
            ..initial.clone()
        };
        BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds: 4,
            initial,
            fine_tune,
        }
    }
}

/// One round of the biased-learning trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasRound {
    /// The bias ε this round trained towards.
    pub epsilon: f32,
    /// The trainer's report for the round.
    pub report: TrainReport,
}

/// Outcome of the full biased-learning procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasedLearningReport {
    /// Per-round reports, ε ascending (round 0 is the unbiased model).
    pub rounds: Vec<BiasRound>,
}

impl BiasedLearningReport {
    /// The final bias the model was trained with.
    pub fn final_epsilon(&self) -> f32 {
        self.rounds.last().map(|r| r.epsilon).unwrap_or(0.0)
    }

    /// Total training time across rounds.
    pub fn total_train_time_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.report.train_time_s).sum()
    }
}

/// Runs Algorithm 2: normal MGD at ε = 0, then `rounds - 1` fine-tuning
/// passes with ε increased by `epsilon_step` each time, the hotspot ground
/// truth fixed at `[0, 1]` throughout.
///
/// The network is trained in place; the returned report records every
/// round.
///
/// # Errors
///
/// Propagates trainer errors and returns [`CoreError::InvalidConfig`] when
/// the schedule would push ε to 0.5 or beyond (outside Theorem 1's validity
/// range) or `rounds == 0`.
pub fn train_biased(
    net: &mut Network,
    features: &[Tensor],
    labels: &[bool],
    config: &BiasedLearningConfig,
) -> Result<BiasedLearningReport, CoreError> {
    train_biased_resumable(net, features, labels, config, None, 0, &mut |_, _| Ok(()))
}

/// Where in the biased-learning loop a checkpointable moment occurred.
#[derive(Debug)]
pub enum CheckpointEvent<'a> {
    /// Periodic mid-round snapshot, every `checkpoint_every` optimiser
    /// steps.
    Step {
        /// Rounds fully completed before the in-flight one.
        completed: &'a [BiasRound],
        /// Full mid-round trainer state.
        state: &'a TrainerState,
    },
    /// A training round just finished (fires for every round, regardless
    /// of the periodic cadence).
    RoundEnd {
        /// All completed rounds, including the one that just ended.
        completed: &'a [BiasRound],
    },
}

/// Where to pick the biased-learning loop back up.
///
/// `completed` holds the rounds that already finished; `trainer`, when
/// present, is the mid-round state of the round that was interrupted (its
/// ε must be the next one in the schedule). The network passed to
/// [`train_biased_resumable`] must already carry the checkpointed
/// parameters and RNG states when `trainer` is `None` (round boundary);
/// with a mid-round state the trainer restores them itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedResume {
    /// Rounds already completed, ε ascending.
    pub completed: Vec<BiasRound>,
    /// Mid-round trainer state of the interrupted round, if any.
    pub trainer: Option<TrainerState>,
}

/// [`train_biased`] with crash-safe checkpointing and resume support.
///
/// `hook` receives a [`CheckpointEvent::Step`] every `checkpoint_every`
/// optimiser steps (when nonzero) and a [`CheckpointEvent::RoundEnd`]
/// after every round; an error from the hook aborts training. Resuming an
/// interrupted run via `resume` reproduces **bit-identical** final weights
/// to the uninterrupted run, because every RNG stream is part of the
/// captured state (see [`crate::mgd::train_resumable`]).
///
/// This is a thin wrapper that moves the network through a
/// [`TrainSession`] for the duration of the run; multi-round callers that
/// grow the dataset between rounds (the active-learning loop) drive a
/// session directly.
///
/// # Errors
///
/// Everything [`train_biased`] rejects, plus [`CoreError::Checkpoint`]
/// when the resume state disagrees with the configured schedule, and any
/// error returned by the hook.
pub fn train_biased_resumable(
    net: &mut Network,
    features: &[Tensor],
    labels: &[bool],
    config: &BiasedLearningConfig,
    resume: Option<BiasedResume>,
    checkpoint_every: usize,
    hook: &mut dyn FnMut(CheckpointEvent<'_>, &mut Network) -> Result<(), CoreError>,
) -> Result<BiasedLearningReport, CoreError> {
    let owned = std::mem::replace(net, Network::new());
    let mut session = TrainSession::new(owned, features.to_vec(), labels.to_vec(), config.clone());
    if let Some(r) = resume {
        session.restore(r);
    }
    let result = session.run_schedule(checkpoint_every, hook);
    *net = session.into_network();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgd::{self, predict_hotspot_prob};
    use hotspot_nn::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_data(n: usize, seed: u64) -> (Vec<Tensor>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let v: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let s: f32 = v.iter().sum();
            features.push(Tensor::from_vec(vec![4], v));
            // Noisy boundary makes a hotspot-recall / false-alarm trade-off
            // possible.
            labels.push(s + rng.gen_range(-0.4f32..0.4) > 0.0);
        }
        (features, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 12, seed));
        net.push(Relu::new());
        net.push(Dense::new(12, 2, seed + 1));
        net
    }

    fn quick_cfg() -> BiasedLearningConfig {
        let initial = MgdConfig {
            lr: 0.05,
            alpha: 0.7,
            decay_step: 200,
            batch_size: 16,
            max_steps: 600,
            val_interval: 100,
            patience: 3,
            val_fraction: 0.25,
            seed: 11,
            balanced_sampling: true,
            threads: 1,
        };
        let fine_tune = MgdConfig {
            max_steps: 200,
            lr: 0.02,
            ..initial.clone()
        };
        BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds: 4,
            initial,
            fine_tune,
        }
    }

    #[test]
    fn runs_the_paper_schedule() {
        let (features, labels) = toy_data(240, 8);
        let mut net = toy_net(9);
        let report = train_biased(&mut net, &features, &labels, &quick_cfg()).unwrap();
        assert_eq!(report.rounds.len(), 4);
        let eps: Vec<f32> = report.rounds.iter().map(|r| r.epsilon).collect();
        assert_eq!(
            eps,
            [0.0, 0.1, 0.2, 0.30000001]
                .iter()
                .zip(&eps)
                .map(|(_, &e)| e)
                .collect::<Vec<_>>()
        );
        assert!((report.final_epsilon() - 0.3).abs() < 1e-5);
        assert!(report.total_train_time_s() > 0.0);
    }

    #[test]
    fn bias_increases_hotspot_recall() {
        // The core claim (Theorem 1 direction): after biased fine-tuning,
        // hotspot recall is at least that of the unbiased model.
        let (features, labels) = toy_data(400, 10);
        let recall = |net: &mut Network| {
            let mut hit = 0usize;
            let mut total = 0usize;
            for (f, &l) in features.iter().zip(labels.iter()) {
                if l {
                    total += 1;
                    if predict_hotspot_prob(net, f) > 0.5 {
                        hit += 1;
                    }
                }
            }
            hit as f64 / total as f64
        };
        let cfg = quick_cfg();
        let mut unbiased = toy_net(12);
        mgd::train(&mut unbiased, &features, &labels, 0.0, &cfg.initial).unwrap();
        let r0 = recall(&mut unbiased);
        let mut biased = toy_net(12);
        train_biased(&mut biased, &features, &labels, &cfg).unwrap();
        let r1 = recall(&mut biased);
        assert!(
            r1 >= r0 - 0.02,
            "biased recall {r1} should not fall below unbiased {r0}"
        );
    }

    #[test]
    fn resumed_biased_run_matches_uninterrupted() {
        use crate::checkpoint::Checkpoint;
        use hotspot_nn::serialize::ParameterBlob;

        let dropnet = || {
            let mut net = Network::new();
            net.push(Dense::new(4, 12, 5));
            net.push(Relu::new());
            net.push(hotspot_nn::layers::Dropout::new(0.3, 6));
            net.push(Dense::new(12, 2, 7));
            net
        };
        let (features, labels) = toy_data(160, 17);
        let mut cfg = quick_cfg();
        cfg.initial.max_steps = 200;
        cfg.initial.patience = 50;
        cfg.fine_tune.max_steps = 120;
        cfg.fine_tune.patience = 50;

        let mut reference = dropnet();
        let ref_report = train_biased(&mut reference, &features, &labels, &cfg).unwrap();

        // Interrupted run: persist real checkpoints every 50 steps, crash
        // right after the first mid-round snapshot of the ε = 0.1 round.
        let mut latest: Option<Checkpoint> = None;
        let mut first = dropnet();
        let crash = train_biased_resumable(
            &mut first,
            &features,
            &labels,
            &cfg,
            None,
            50,
            &mut |event, net| {
                match event {
                    CheckpointEvent::Step { completed, state } => {
                        latest = Some(Checkpoint::new(
                            cfg.initial.seed,
                            cfg.initial.threads,
                            "toy".into(),
                            net,
                            completed,
                            Some(state),
                        ));
                        if completed.len() == 1 && state.steps >= 50 {
                            return Err(CoreError::Checkpoint("simulated crash".into()));
                        }
                    }
                    CheckpointEvent::RoundEnd { completed } => {
                        latest = Some(Checkpoint::new(
                            cfg.initial.seed,
                            cfg.initial.threads,
                            "toy".into(),
                            net,
                            completed,
                            None,
                        ));
                    }
                }
                Ok(())
            },
        );
        assert!(crash.is_err());

        // Round-trip the checkpoint through its wire format, then resume
        // into a fresh network.
        let ckpt = Checkpoint::from_bytes(&latest.unwrap().to_bytes()).unwrap();
        ckpt.validate_run(cfg.initial.seed, cfg.initial.threads, "toy")
            .unwrap();
        let mut resumed_net = dropnet();
        let resume = ckpt.apply(&mut resumed_net).unwrap();
        assert_eq!(resume.completed.len(), 1);
        let report = train_biased_resumable(
            &mut resumed_net,
            &features,
            &labels,
            &cfg,
            Some(resume),
            0,
            &mut |_, _| Ok(()),
        )
        .unwrap();

        assert_eq!(report.rounds.len(), ref_report.rounds.len());
        for (a, b) in report.rounds.iter().zip(&ref_report.rounds) {
            assert_eq!(a.epsilon, b.epsilon);
            assert_eq!(a.report.steps, b.report.steps);
            assert_eq!(a.report.best_val_accuracy, b.report.best_val_accuracy);
        }
        assert_eq!(
            ParameterBlob::from_network(&mut resumed_net),
            ParameterBlob::from_network(&mut reference)
        );

        // A checkpoint disagreeing with the schedule is rejected.
        let mut skewed = ckpt.clone();
        skewed.completed[0].epsilon = 0.05;
        let bad_resume = skewed.apply(&mut dropnet()).unwrap();
        assert!(train_biased_resumable(
            &mut dropnet(),
            &features,
            &labels,
            &cfg,
            Some(bad_resume),
            0,
            &mut |_, _| Ok(())
        )
        .is_err());
    }

    #[test]
    fn rejects_invalid_schedules() {
        let (features, labels) = toy_data(40, 1);
        let mut net = toy_net(2);
        let mut cfg = quick_cfg();
        cfg.rounds = 0;
        assert!(train_biased(&mut net, &features, &labels, &cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.epsilon_step = 0.2;
        cfg.rounds = 4; // ε reaches 0.6 ≥ 0.5
        assert!(train_biased(&mut net, &features, &labels, &cfg).is_err());
    }

    #[test]
    fn single_round_is_plain_mgd() {
        let (features, labels) = toy_data(100, 3);
        let cfg = BiasedLearningConfig {
            rounds: 1,
            ..quick_cfg()
        };
        let mut a = toy_net(4);
        let ra = train_biased(&mut a, &features, &labels, &cfg).unwrap();
        assert_eq!(ra.rounds.len(), 1);
        assert_eq!(ra.rounds[0].epsilon, 0.0);
        let mut b = toy_net(4);
        mgd::train(&mut b, &features, &labels, 0.0, &cfg.initial).unwrap();
        let x = &features[0];
        assert_eq!(
            hotspot_nn::engine::Executor::new().infer(&a, x),
            hotspot_nn::engine::Executor::new().infer(&b, x)
        );
    }
}
