//! Multi-round training sessions over a growing dataset.
//!
//! [`TrainSession`] is the ownership core of the training stack and the
//! one way to run the biased-learning schedule: it holds the network, the
//! (growable) feature/label arrays, the schedule, the completed-round
//! cursor, and any mid-round trainer state. One session value moves
//! through an entire multi-round run:
//!
//! - [`TrainSession::run_schedule`] executes the remaining rounds of the
//!   paper's biased-learning schedule (Algorithm 2); a session restored
//!   from a checkpoint finishes **bit-identical** to an uninterrupted one.
//! - [`TrainSession::append`] grows the training set with newly labelled
//!   samples (validated, for the active-learning loop in
//!   [`crate::active`]).
//! - [`TrainSession::fine_tune`] runs one extra warm-start round on the
//!   grown set, continuing the same checkpoint-event stream.
//!
//! Construction never touches the network; every schedule/resume
//! validation error is reported by `run_schedule` before any training
//! step, leaving the session reusable.

use crate::biased::{BiasRound, BiasedLearningConfig, BiasedLearningReport, CheckpointEvent};
use crate::mgd::{self, MgdConfig, TrainerState};
use crate::CoreError;
use hotspot_nn::{Network, Tensor};

/// A resumable multi-round training session owning the network, the
/// training data, and the round cursor.
#[derive(Debug)]
pub struct TrainSession {
    net: Network,
    features: Vec<Tensor>,
    labels: Vec<bool>,
    config: BiasedLearningConfig,
    completed: Vec<BiasRound>,
    pending: Option<TrainerState>,
}

impl TrainSession {
    /// Wraps a network and training data into a fresh session (round
    /// cursor at zero). Validation is deferred to the training entry
    /// points, so constructing a session has no side effects.
    pub fn new(
        net: Network,
        features: Vec<Tensor>,
        labels: Vec<bool>,
        config: BiasedLearningConfig,
    ) -> Self {
        TrainSession {
            net,
            features,
            labels,
            config,
            completed: Vec::new(),
            pending: None,
        }
    }

    /// Positions the round cursor from a checkpoint's
    /// [`crate::biased::BiasedResume`]: rounds already completed, plus the
    /// interrupted round's mid-round trainer state, if any. The network
    /// must already carry the checkpointed parameters and RNG streams
    /// (see [`crate::checkpoint::Checkpoint::apply`]).
    pub fn restore(&mut self, resume: crate::biased::BiasedResume) {
        self.completed = resume.completed;
        self.pending = resume.trainer;
    }

    /// Runs the remaining rounds of the biased-learning schedule
    /// (Algorithm 2): ε = 0 at round 0, stepped by `epsilon_step` each
    /// round, `initial` trainer settings for round 0 and `fine_tune` for
    /// the rest.
    ///
    /// `hook` receives a [`CheckpointEvent::Step`] every
    /// `checkpoint_every` optimiser steps (when nonzero) and a
    /// [`CheckpointEvent::RoundEnd`] after every round. The returned
    /// report covers **all** completed rounds, including ones restored
    /// via [`TrainSession::restore`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the schedule is empty or pushes
    /// ε to 0.5 or beyond; [`CoreError::Checkpoint`] when the restored
    /// cursor disagrees with the schedule; trainer and hook errors.
    pub fn run_schedule(
        &mut self,
        checkpoint_every: usize,
        hook: &mut dyn FnMut(CheckpointEvent<'_>, &mut Network) -> Result<(), CoreError>,
    ) -> Result<BiasedLearningReport, CoreError> {
        if self.config.rounds == 0 {
            return Err(CoreError::InvalidConfig("rounds must be nonzero"));
        }
        let max_eps = self.config.epsilon_step * (self.config.rounds - 1) as f32;
        if !(0.0..0.5).contains(&max_eps) || self.config.epsilon_step < 0.0 {
            return Err(CoreError::InvalidConfig(
                "bias schedule must keep ε in [0, 0.5)",
            ));
        }
        if self.completed.len() > self.config.rounds {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint has {} completed rounds but the schedule only has {}",
                self.completed.len(),
                self.config.rounds
            )));
        }
        for (i, round) in self.completed.iter().enumerate() {
            let expected = self.config.epsilon_step * i as f32;
            if round.epsilon != expected {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint round {i} trained at ε = {} but the schedule expects {expected}",
                    round.epsilon
                )));
            }
        }
        if self.pending.is_some() && self.completed.len() == self.config.rounds {
            return Err(CoreError::Checkpoint(
                "checkpoint carries a mid-round state but every round is complete".into(),
            ));
        }
        let config = &self.config;
        let net = &mut self.net;
        let rounds = &mut self.completed;
        let pending = &mut self.pending;
        let features = &self.features;
        let labels = &self.labels;
        for i in rounds.len()..config.rounds {
            let epsilon = config.epsilon_step * i as f32;
            let cfg = if i == 0 {
                &config.initial
            } else {
                &config.fine_tune
            };
            let mid_round = pending.take();
            let report = mgd::train_resumable(
                net,
                features,
                labels,
                epsilon,
                cfg,
                mid_round.as_ref(),
                checkpoint_every,
                &mut |state, net| {
                    hook(
                        CheckpointEvent::Step {
                            completed: rounds,
                            state,
                        },
                        net,
                    )
                },
            )?;
            rounds.push(BiasRound { epsilon, report });
            hook(CheckpointEvent::RoundEnd { completed: rounds }, net)?;
        }
        Ok(BiasedLearningReport {
            rounds: rounds.clone(),
        })
    }

    /// Grows the training set with newly labelled samples, validating
    /// label count and feature dimension (used by the per-round
    /// fine-tune step of the active-learning loop).
    ///
    /// On error, the session is left unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::Dataset`] on a feature/label count mismatch or a
    /// feature whose dimension differs from the session's.
    pub fn append(&mut self, features: Vec<Tensor>, labels: &[bool]) -> Result<(), CoreError> {
        if features.len() != labels.len() {
            return Err(CoreError::Dataset(format!(
                "{} features but {} labels",
                features.len(),
                labels.len()
            )));
        }
        let dim = self
            .features
            .first()
            .or_else(|| features.first())
            .map(Tensor::len);
        if let Some(dim) = dim {
            for (i, f) in features.iter().enumerate() {
                if f.len() != dim {
                    return Err(CoreError::Dataset(format!(
                        "appended feature {i} has {} values but the session trains on {dim}",
                        f.len()
                    )));
                }
            }
        }
        self.features.extend(features);
        self.labels.extend(labels.iter().copied());
        Ok(())
    }

    /// Runs one warm-start round at bias `epsilon` on the current
    /// (possibly grown) training set, continuing the session's
    /// checkpoint-event stream and appending the round to the completed
    /// trajectory. Consumes any pending mid-round trainer state (a
    /// resumed interrupted fine-tune).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for ε outside `[0, 0.5)`; trainer and
    /// hook errors.
    pub fn fine_tune(
        &mut self,
        epsilon: f32,
        cfg: &MgdConfig,
        checkpoint_every: usize,
        hook: &mut dyn FnMut(CheckpointEvent<'_>, &mut Network) -> Result<(), CoreError>,
    ) -> Result<&BiasRound, CoreError> {
        if !(0.0..0.5).contains(&epsilon) {
            return Err(CoreError::InvalidConfig("ε must be in [0, 0.5)"));
        }
        let net = &mut self.net;
        let rounds = &mut self.completed;
        let mid_round = self.pending.take();
        let report = mgd::train_resumable(
            net,
            &self.features,
            &self.labels,
            epsilon,
            cfg,
            mid_round.as_ref(),
            checkpoint_every,
            &mut |state, net| {
                hook(
                    CheckpointEvent::Step {
                        completed: rounds,
                        state,
                    },
                    net,
                )
            },
        )?;
        rounds.push(BiasRound { epsilon, report });
        hook(CheckpointEvent::RoundEnd { completed: rounds }, net)?;
        match rounds.last() {
            Some(round) => Ok(round),
            None => unreachable!("a round was just pushed"),
        }
    }

    /// The biased-learning schedule this session runs.
    pub fn config(&self) -> &BiasedLearningConfig {
        &self.config
    }

    /// All completed rounds, in execution order.
    pub fn completed(&self) -> &[BiasRound] {
        &self.completed
    }

    /// Whether a mid-round trainer state is pending consumption.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Number of training samples currently in the session.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the session holds no training samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The full training trajectory as a report.
    pub fn report(&self) -> BiasedLearningReport {
        BiasedLearningReport {
            rounds: self.completed.clone(),
        }
    }

    /// The network being trained.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the network being trained.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Simultaneous access to the network and the completed rounds, as
    /// [`crate::checkpoint::Checkpoint::new`] needs both at once.
    pub fn snapshot(&mut self) -> (&mut Network, &[BiasRound]) {
        (&mut self.net, &self.completed)
    }

    /// Consumes the session, yielding the trained network.
    pub fn into_network(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            labels.push(s > 0.0);
        }
        (features, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 8, seed));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, seed + 1));
        net
    }

    fn quick_cfg() -> BiasedLearningConfig {
        let initial = MgdConfig {
            lr: 0.05,
            alpha: 0.7,
            decay_step: 100,
            batch_size: 8,
            max_steps: 120,
            val_interval: 40,
            patience: 10,
            val_fraction: 0.25,
            seed: 3,
            balanced_sampling: true,
            threads: 1,
        };
        let fine_tune = MgdConfig {
            max_steps: 60,
            lr: 0.02,
            ..initial.clone()
        };
        BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds: 2,
            initial,
            fine_tune,
        }
    }

    #[test]
    fn append_validates_and_grows() {
        let (features, labels) = toy_data(40, 4);
        let mut session = TrainSession::new(toy_net(1), features, labels, quick_cfg());
        assert_eq!(session.len(), 40);
        // Count mismatch rejected, session unchanged.
        let extra = vec![Tensor::from_vec(vec![4], vec![0.0; 4])];
        assert!(matches!(
            session.append(extra.clone(), &[true, false]),
            Err(CoreError::Dataset(_))
        ));
        assert_eq!(session.len(), 40);
        // Dimension mismatch rejected.
        let wrong = vec![Tensor::from_vec(vec![3], vec![0.0; 3])];
        assert!(matches!(
            session.append(wrong, &[true]),
            Err(CoreError::Dataset(_))
        ));
        assert_eq!(session.len(), 40);
        // Valid growth.
        session.append(extra, &[true]).unwrap();
        assert_eq!(session.len(), 41);
    }

    #[test]
    fn fine_tune_extends_the_trajectory() {
        let (features, labels) = toy_data(60, 5);
        let mut session = TrainSession::new(toy_net(9), features, labels, quick_cfg());
        session.run_schedule(0, &mut |_, _| Ok(())).unwrap();
        assert_eq!(session.completed().len(), 2);
        assert!(!session.has_pending());
        let (more_f, more_l) = toy_data(20, 6);
        session.append(more_f, &more_l).unwrap();
        let cfg = quick_cfg().fine_tune;
        let round = session.fine_tune(0.1, &cfg, 0, &mut |_, _| Ok(())).unwrap();
        assert_eq!(round.epsilon, 0.1);
        assert_eq!(session.completed().len(), 3);
        assert_eq!(session.report().rounds.len(), 3);
        // Invalid ε rejected without touching the cursor.
        assert!(session.fine_tune(0.6, &cfg, 0, &mut |_, _| Ok(())).is_err());
        assert_eq!(session.completed().len(), 3);
    }

    #[test]
    fn empty_schedule_rejected_before_training() {
        let (features, labels) = toy_data(20, 8);
        let mut cfg = quick_cfg();
        cfg.rounds = 0;
        let mut session = TrainSession::new(toy_net(3), features, labels, cfg);
        assert!(session.run_schedule(0, &mut |_, _| Ok(())).is_err());
    }
}
