//! Mini-batch gradient descent with validation-based stopping
//! (paper Algorithm 1 and Section 4.2).

use crate::CoreError;
use hotspot_nn::data::BatchSampler;
use hotspot_nn::engine::Executor;
use hotspot_nn::optim::{self, LrSchedule};
use hotspot_nn::parallel::{self, ReplicaPool};
use hotspot_nn::serialize::ParameterBlob;
use hotspot_nn::{loss, Network, Parallelism, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Trainer configuration.
///
/// The paper's Table-2 run uses `λ = 1e-4, α = 0.5, k = 10 000`; its
/// Figure-3 MGD curve starts at `λ = 1e-3`. Defaults here use the
/// Figure-3 rate with a shorter decay period, matched to the scaled-down
/// synthetic benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MgdConfig {
    /// Initial learning rate λ.
    pub lr: f32,
    /// Decay factor α ∈ (0, 1].
    pub alpha: f32,
    /// Decay period k in steps.
    pub decay_step: usize,
    /// Mini-batch size m (1 = plain SGD).
    pub batch_size: usize,
    /// Hard step limit.
    pub max_steps: usize,
    /// Steps between validation evaluations.
    pub val_interval: usize,
    /// Consecutive non-improving validation checks before stopping.
    pub patience: usize,
    /// Fraction of training data held out for validation (paper: 25 %).
    pub val_fraction: f64,
    /// Sampling / split seed.
    pub seed: u64,
    /// Draw mini-batches class-balanced (half hotspot, half non-hotspot)
    /// instead of uniformly. Production hotspot sets are heavily skewed
    /// (ICCAD: ~7 % hotspots); uniform sampling lets the all-non-hotspot
    /// predictor dominate early training. Algorithm 1 only requires
    /// "sample m training instances", leaving the distribution free.
    pub balanced_sampling: bool,
    /// Worker threads for per-batch gradient computation (1 = serial).
    /// Parallel updates are deterministic (fixed-order merge) but not
    /// bit-identical to serial ones (different float summation order).
    pub threads: usize,
}

impl Default for MgdConfig {
    fn default() -> Self {
        MgdConfig {
            lr: 1e-3,
            alpha: 0.5,
            decay_step: 2_000,
            batch_size: 32,
            max_steps: 6_000,
            val_interval: 200,
            patience: 6,
            val_fraction: 0.25,
            seed: 42,
            balanced_sampling: true,
            threads: 1,
        }
    }
}

/// One point of the training curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainPoint {
    /// Optimiser step index.
    pub step: usize,
    /// Wall-clock seconds since training started.
    pub elapsed_s: f64,
    /// Balanced accuracy (mean of per-class recalls) on the validation
    /// split.
    pub val_accuracy: f64,
}

/// Result of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Validation-accuracy trajectory (the Figure-3 curve).
    pub history: Vec<TrainPoint>,
    /// Best validation accuracy observed (the restored model).
    pub best_val_accuracy: f64,
    /// Steps actually executed.
    pub steps: usize,
    /// Total training wall-clock seconds.
    pub train_time_s: f64,
}

/// Ground-truth target for a label under bias ε: hotspots stay `[0, 1]`,
/// non-hotspots become `[1-ε, ε]` (paper Algorithm 2 line 3).
#[inline]
pub fn target_for(hotspot: bool, epsilon: f32) -> [f32; 2] {
    if hotspot {
        loss::HOTSPOT_TARGET
    } else {
        loss::biased_non_hotspot_target(epsilon)
    }
}

/// Predicted hotspot probability (`y(1)` of Eq. (6)) of every feature, in
/// order: one [`Network::forward_batch`] under `parallelism`, then a
/// softmax per output. This is the one feature-set scorer behind
/// validation, ROC, shift, calibration and active-learning pools.
///
/// Inference-mode only, through `&Network` — concurrent callers may share
/// one network. Batched execution is exact per sample, so the result is
/// bit-identical to per-feature [`Executor::infer`] plus
/// [`loss::softmax_into`] for any worker policy.
pub fn hotspot_probs(net: &Network, features: &[Tensor], parallelism: Parallelism) -> Vec<f32> {
    let mut soft = Vec::new();
    net.forward_batch(features, parallelism)
        .iter()
        .map(|logits| {
            soft.resize(logits.len(), 0.0);
            loss::softmax_into(logits.as_slice(), &mut soft);
            soft[1]
        })
        .collect()
}

/// Balanced accuracy — the mean of hotspot recall and non-hotspot
/// specificity — of `net` on a labelled feature set, scored serially
/// through [`hotspot_probs`]. Used for validation model selection: unlike
/// overall accuracy it cannot be maxed out by the constant predictor on a
/// skewed set.
pub fn balanced_accuracy(net: &Network, features: &[Tensor], labels: &[bool]) -> f64 {
    assert_eq!(features.len(), labels.len());
    let probs = hotspot_probs(net, features, Parallelism::serial());
    let mut hit = [0usize; 2];
    let mut total = [0usize; 2];
    for (p, &l) in probs.into_iter().zip(labels.iter()) {
        let class = l as usize;
        total[class] += 1;
        if (p > 0.5) == l {
            hit[class] += 1;
        }
    }
    let recall = |c: usize| {
        if total[c] == 0 {
            1.0
        } else {
            hit[c] as f64 / total[c] as f64
        }
    };
    (recall(0) + recall(1)) / 2.0
}

/// Overall classification accuracy of `net` on a labelled feature set,
/// scored serially through [`hotspot_probs`].
pub fn overall_accuracy(net: &Network, features: &[Tensor], labels: &[bool]) -> f64 {
    assert_eq!(features.len(), labels.len());
    if features.is_empty() {
        return 1.0;
    }
    let correct = hotspot_probs(net, features, Parallelism::serial())
        .into_iter()
        .zip(labels.iter())
        .filter(|&(p, &l)| (p > 0.5) == l)
        .count();
    correct as f64 / features.len() as f64
}

/// Complete trainer state at an optimiser-step boundary.
///
/// Captures everything [`train_resumable`] needs to continue a run
/// **bit-identically**: the current and best-so-far parameters, every RNG
/// stream the loop advances (batch sampling, uniform sampling, the master
/// network's dropout layers, and — for multi-threaded runs — each pool
/// replica's dropout layers), the decay-schedule cursor, and the
/// validation bookkeeping. What it deliberately omits is anything
/// re-derivable from [`MgdConfig`]: the validation split and the
/// class-index pools are rebuilt from `config.seed` on resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerState {
    /// Bias ε the state was captured under (resume must match it).
    pub epsilon: f32,
    /// Optimiser steps completed.
    pub steps: usize,
    /// Current (already-decayed) learning rate.
    pub lr: f32,
    /// In-period iteration count of the decay schedule.
    pub lr_counter: usize,
    /// Balanced-sampling RNG stream.
    pub batch_rng: [u64; 4],
    /// Uniform-sampling RNG stream.
    pub sampler_rng: [u64; 4],
    /// Current network parameters.
    pub params: ParameterBlob,
    /// Best-validation parameter snapshot so far.
    pub best: ParameterBlob,
    /// Best validation accuracy so far.
    pub best_acc: f64,
    /// Consecutive non-improving validation checks.
    pub bad_checks: usize,
    /// Validation-accuracy history so far.
    pub history: Vec<TrainPoint>,
    /// Wall-clock seconds consumed up to the snapshot.
    pub elapsed_s: f64,
    /// Master-network stochastic-layer RNG states.
    pub net_rngs: Vec<[u64; 4]>,
    /// Replica-pool stochastic-layer RNG states (empty when the run is
    /// single-threaded).
    pub replica_rngs: Vec<[u64; 4]>,
}

/// Trains `net` with MGD (Algorithm 1) towards biased targets.
///
/// The training set is split `1 - val_fraction` / `val_fraction`; every
/// `val_interval` steps the validation accuracy is recorded, the best
/// parameters are snapshotted, and training stops after `patience`
/// non-improving checks or `max_steps` steps. The best snapshot is
/// restored before returning, so the function "returns the model with the
/// best performance on the validation set" exactly as Algorithm 1 states.
///
/// # Errors
///
/// Returns [`CoreError::DegenerateTrainingSet`] when fewer than 4 samples
/// are provided or the feature/label lengths differ, and
/// [`CoreError::InvalidConfig`] for a zero batch size, thread count,
/// decay step or validation interval, a validation fraction outside
/// `(0, 1)`, a learning rate that is not positive (or NaN), or a decay
/// factor outside `(0, 1]`.
pub fn train(
    net: &mut Network,
    features: &[Tensor],
    labels: &[bool],
    epsilon: f32,
    config: &MgdConfig,
) -> Result<TrainReport, CoreError> {
    train_resumable(
        net,
        features,
        labels,
        epsilon,
        config,
        None,
        0,
        &mut |_, _| Ok(()),
    )
}

/// [`train`] with crash-safe checkpointing and resume support.
///
/// When `checkpoint_every > 0`, `hook` is invoked with a full
/// [`TrainerState`] every `checkpoint_every` optimiser steps (typically to
/// persist it atomically; a hook error aborts training). When `resume` is
/// given, the run continues from that state instead of starting fresh —
/// and because the state carries every RNG stream, **an interrupted run
/// resumed this way produces bit-identical final weights to one that never
/// stopped**, for the same `features`/`labels`/`config`.
///
/// # Errors
///
/// Everything [`train`] rejects, plus [`CoreError::Checkpoint`] when the
/// resume state does not fit this run (different ε, parameter count, step
/// budget, schedule cursor, or thread count) and any error returned by the
/// hook.
#[allow(clippy::too_many_arguments)]
pub fn train_resumable(
    net: &mut Network,
    features: &[Tensor],
    labels: &[bool],
    epsilon: f32,
    config: &MgdConfig,
    resume: Option<&TrainerState>,
    checkpoint_every: usize,
    hook: &mut dyn FnMut(&TrainerState, &mut Network) -> Result<(), CoreError>,
) -> Result<TrainReport, CoreError> {
    if features.len() != labels.len() {
        return Err(CoreError::DegenerateTrainingSet(
            "feature/label count mismatch",
        ));
    }
    if features.len() < 4 {
        return Err(CoreError::DegenerateTrainingSet("fewer than 4 samples"));
    }
    if config.batch_size == 0 {
        return Err(CoreError::InvalidConfig("batch_size must be nonzero"));
    }
    if config.threads == 0 {
        return Err(CoreError::InvalidConfig("threads must be nonzero"));
    }
    if !(config.val_fraction > 0.0 && config.val_fraction < 1.0) {
        return Err(CoreError::InvalidConfig("val_fraction must be in (0, 1)"));
    }
    // The learning-rate schedule's preconditions (`LrSchedule::new`
    // panics on each), written so NaN fails them too.
    if config.lr.is_nan() || config.lr <= 0.0 {
        return Err(CoreError::InvalidConfig("lr must be positive"));
    }
    if !(config.alpha > 0.0 && config.alpha <= 1.0) {
        return Err(CoreError::InvalidConfig("alpha must be in (0, 1]"));
    }
    if config.decay_step == 0 {
        return Err(CoreError::InvalidConfig("decay_step must be nonzero"));
    }
    // No step is a multiple of 0, so the round would never validate and
    // would return the weights it was given.
    if config.val_interval == 0 {
        return Err(CoreError::InvalidConfig("val_interval must be nonzero"));
    }

    // Split off the validation set (paper §4.2: "a fraction, empirically
    // 25%, of training instances is separated out and never shown to the
    // network for weight updating").
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..features.len()).collect();
    order.shuffle(&mut rng);
    let val_len = ((features.len() as f64 * config.val_fraction).round() as usize)
        .clamp(1, features.len() - 1);
    let (train_idx, val_idx) = order.split_at(features.len() - val_len);
    let val_features: Vec<Tensor> = val_idx.iter().map(|&i| features[i].clone()).collect();
    let val_labels: Vec<bool> = val_idx.iter().map(|&i| labels[i]).collect();

    // Class index pools for balanced sampling; fall back to uniform when a
    // class is absent from the training split.
    let hs_pool: Vec<usize> = train_idx.iter().copied().filter(|&i| labels[i]).collect();
    let nhs_pool: Vec<usize> = train_idx.iter().copied().filter(|&i| !labels[i]).collect();
    let balanced = config.balanced_sampling && !hs_pool.is_empty() && !nhs_pool.is_empty();
    let mut sampler =
        BatchSampler::new(train_idx.len(), StdRng::seed_from_u64(config.seed ^ 0x9E37));
    let mut batch_rng = StdRng::seed_from_u64(config.seed ^ 0x51F3);

    let mut schedule = LrSchedule::new(config.lr, config.alpha, config.decay_step);
    let mut history = Vec::new();
    let mut best = ParameterBlob::from_network(net);
    let mut best_acc = 0.0f64;
    let mut bad_checks = 0usize;
    let mut steps = 0usize;
    let mut elapsed_base = 0.0f64;

    if let Some(state) = resume {
        if state.epsilon != epsilon {
            return Err(CoreError::Checkpoint(format!(
                "resume state was captured at ε = {} but this run trains at ε = {epsilon}",
                state.epsilon
            )));
        }
        if state.steps > config.max_steps {
            return Err(CoreError::Checkpoint(format!(
                "resume state is {} steps in but max_steps is {}",
                state.steps, config.max_steps
            )));
        }
        if state.lr.is_nan() || state.lr <= 0.0 || state.lr_counter >= config.decay_step {
            return Err(CoreError::Checkpoint(
                "resume state carries an invalid learning-rate schedule".into(),
            ));
        }
        state.params.load_into(net).map_err(|e| {
            CoreError::Checkpoint(format!("resume parameters do not fit the network: {e}"))
        })?;
        net.restore_rng_states(&state.net_rngs)
            .map_err(|e| CoreError::Checkpoint(format!("resume RNG states do not fit: {e}")))?;
        if config.threads <= 1 && !state.replica_rngs.is_empty() {
            return Err(CoreError::Checkpoint(
                "resume state was captured by a multi-threaded run".into(),
            ));
        }
        schedule = LrSchedule::resume(state.lr, config.alpha, config.decay_step, state.lr_counter);
        sampler.set_rng_state(state.sampler_rng);
        batch_rng = StdRng::from_state(state.batch_rng);
        history = state.history.clone();
        best = state.best.clone();
        best_acc = state.best_acc;
        bad_checks = state.bad_checks;
        steps = state.steps;
        elapsed_base = state.elapsed_s;
    }

    // Worker replicas are allocated once and reused every step; the pool
    // only copies parameters in between. Built *after* any resume restore
    // so replicas clone the restored master, then overlaid with the
    // checkpointed per-replica dropout streams.
    let mut pool = (config.threads > 1).then(|| ReplicaPool::new(net, config.threads));
    if let (Some(state), Some(pool)) = (resume, pool.as_mut()) {
        pool.restore_rng_states(&state.replica_rngs).map_err(|e| {
            CoreError::Checkpoint(format!("resume replica RNG states do not fit: {e}"))
        })?;
    }

    // Serial steps run through one shape-planned executor: the plan and
    // arena are built on the first sample and reused for every step, so
    // steady-state training performs no per-sample allocations.
    let mut executor = Executor::new();
    let mut pairs: Vec<(&Tensor, [f32; 2])> = Vec::with_capacity(config.batch_size);

    let start = Instant::now();
    if resume.is_none() {
        best_acc = balanced_accuracy(net, &val_features, &val_labels);
        history.push(TrainPoint {
            step: 0,
            elapsed_s: start.elapsed().as_secs_f64(),
            val_accuracy: best_acc,
        });
    }

    while steps < config.max_steps {
        // One MGD step (Algorithm 1 lines 4–14).
        let batch: Vec<usize> = if balanced {
            use rand::Rng;
            (0..config.batch_size)
                .map(|j| {
                    let pool = if j % 2 == 0 { &hs_pool } else { &nhs_pool };
                    pool[batch_rng.gen_range(0..pool.len())]
                })
                .collect()
        } else {
            sampler
                .sample(config.batch_size)
                .into_iter()
                .map(|bi| train_idx[bi])
                .collect()
        };
        pairs.clear();
        pairs.extend(
            batch
                .iter()
                .map(|&i| (&features[i], target_for(labels[i], epsilon))),
        );
        match pool.as_mut() {
            Some(pool) => parallel::minibatch_step_pooled(net, pool, &pairs, schedule.current()),
            None => optim::minibatch_step(net, &mut executor, &pairs, schedule.current()),
        };
        schedule.tick();
        steps += 1;

        if steps.is_multiple_of(config.val_interval) {
            let acc = balanced_accuracy(net, &val_features, &val_labels);
            history.push(TrainPoint {
                step: steps,
                elapsed_s: elapsed_base + start.elapsed().as_secs_f64(),
                val_accuracy: acc,
            });
            if acc > best_acc + 1e-6 {
                best_acc = acc;
                best = ParameterBlob::from_network(net);
                bad_checks = 0;
            } else {
                bad_checks += 1;
                if bad_checks >= config.patience {
                    break;
                }
            }
        }

        if checkpoint_every > 0 && steps.is_multiple_of(checkpoint_every) {
            let state = TrainerState {
                epsilon,
                steps,
                lr: schedule.current(),
                lr_counter: schedule.counter(),
                batch_rng: batch_rng.state(),
                sampler_rng: sampler.rng_state(),
                params: ParameterBlob::from_network(net),
                best: best.clone(),
                best_acc,
                bad_checks,
                history: history.clone(),
                elapsed_s: elapsed_base + start.elapsed().as_secs_f64(),
                net_rngs: net.rng_states(),
                replica_rngs: pool.as_ref().map(|p| p.rng_states()).unwrap_or_default(),
            };
            hook(&state, net)?;
        }
    }
    if best.load_into(net).is_err() {
        unreachable!("best snapshot was taken from this same network");
    }
    Ok(TrainReport {
        history,
        best_val_accuracy: best_acc,
        steps,
        train_time_s: elapsed_base + start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::{Dense, Relu};

    /// A trivially learnable synthetic problem: label = (sum of features
    /// > 0).
    fn toy_data(n: usize, seed: u64) -> (Vec<Tensor>, Vec<bool>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let v: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let s: f32 = v.iter().sum();
            features.push(Tensor::from_vec(vec![6], v));
            labels.push(s > 0.0);
        }
        (features, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Dense::new(6, 16, seed));
        net.push(Relu::new());
        net.push(Dense::new(16, 2, seed + 1));
        net
    }

    fn quick_config() -> MgdConfig {
        MgdConfig {
            lr: 0.05,
            alpha: 0.7,
            decay_step: 300,
            batch_size: 16,
            max_steps: 1_000,
            val_interval: 100,
            patience: 4,
            val_fraction: 0.25,
            seed: 7,
            balanced_sampling: true,
            threads: 1,
        }
    }

    #[test]
    fn training_learns_toy_problem() {
        let (features, labels) = toy_data(400, 1);
        let mut net = toy_net(3);
        let report = train(&mut net, &features, &labels, 0.0, &quick_config()).unwrap();
        assert!(
            report.best_val_accuracy > 0.9,
            "val accuracy {}",
            report.best_val_accuracy
        );
        // History is monotone in step and time.
        for w in report.history.windows(2) {
            assert!(w[1].step > w[0].step);
            assert!(w[1].elapsed_s >= w[0].elapsed_s);
        }
    }

    #[test]
    fn restored_model_matches_best_val_accuracy() {
        let (features, labels) = toy_data(200, 2);
        let mut net = toy_net(4);
        let cfg = quick_config();
        let report = train(&mut net, &features, &labels, 0.0, &cfg).unwrap();
        // Re-evaluate on the same validation split.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..features.len()).collect();
        order.shuffle(&mut rng);
        let val_len = (features.len() as f64 * cfg.val_fraction).round() as usize;
        let val_idx = &order[features.len() - val_len..];
        let vf: Vec<Tensor> = val_idx.iter().map(|&i| features[i].clone()).collect();
        let vl: Vec<bool> = val_idx.iter().map(|&i| labels[i]).collect();
        let acc = balanced_accuracy(&net, &vf, &vl);
        assert!((acc - report.best_val_accuracy).abs() < 1e-9);
    }

    #[test]
    fn determinism_given_seeds() {
        let (features, labels) = toy_data(120, 3);
        let mut a = toy_net(5);
        let mut b = toy_net(5);
        let cfg = quick_config();
        let ra = train(&mut a, &features, &labels, 0.0, &cfg).unwrap();
        let rb = train(&mut b, &features, &labels, 0.0, &cfg).unwrap();
        assert_eq!(ra.steps, rb.steps);
        assert_eq!(ra.best_val_accuracy, rb.best_val_accuracy);
        let x = &features[0];
        assert_eq!(Executor::new().infer(&a, x), Executor::new().infer(&b, x));
    }

    #[test]
    fn rejects_bad_inputs() {
        let (features, labels) = toy_data(10, 4);
        let mut net = toy_net(6);
        assert!(train(&mut net, &features[..2], &labels[..2], 0.0, &quick_config()).is_err());
        assert!(train(&mut net, &features, &labels[..5], 0.0, &quick_config()).is_err());
        let mut cfg = quick_config();
        cfg.batch_size = 0;
        assert!(train(&mut net, &features, &labels, 0.0, &cfg).is_err());
        let mut cfg = quick_config();
        cfg.val_fraction = 1.5;
        assert!(train(&mut net, &features, &labels, 0.0, &cfg).is_err());
    }

    /// Trains `toy_net` under `quick_config` edited by `edit`, expecting
    /// the typed config error `why` with the weights untouched.
    fn assert_invalid_config(edit: impl FnOnce(&mut MgdConfig), why: &str) {
        let (features, labels) = toy_data(40, 4);
        let mut net = toy_net(6);
        let before = ParameterBlob::from_network(&mut net);
        let mut cfg = quick_config();
        edit(&mut cfg);
        match train(&mut net, &features, &labels, 0.0, &cfg) {
            Err(CoreError::InvalidConfig(got)) => assert_eq!(got, why),
            other => panic!("expected InvalidConfig({why:?}), got {other:?}"),
        }
        assert_eq!(ParameterBlob::from_network(&mut net), before);
    }

    #[test]
    fn rejects_zero_lr() {
        assert_invalid_config(|c| c.lr = 0.0, "lr must be positive");
    }

    #[test]
    fn rejects_negative_lr() {
        assert_invalid_config(|c| c.lr = -0.1, "lr must be positive");
    }

    #[test]
    fn rejects_nan_lr() {
        assert_invalid_config(|c| c.lr = f32::NAN, "lr must be positive");
    }

    #[test]
    fn rejects_zero_alpha() {
        assert_invalid_config(|c| c.alpha = 0.0, "alpha must be in (0, 1]");
    }

    #[test]
    fn rejects_alpha_above_one() {
        assert_invalid_config(|c| c.alpha = 1.5, "alpha must be in (0, 1]");
    }

    #[test]
    fn rejects_nan_alpha() {
        assert_invalid_config(|c| c.alpha = f32::NAN, "alpha must be in (0, 1]");
    }

    #[test]
    fn rejects_zero_decay_step() {
        assert_invalid_config(|c| c.decay_step = 0, "decay_step must be nonzero");
    }

    #[test]
    fn rejects_zero_val_interval() {
        assert_invalid_config(|c| c.val_interval = 0, "val_interval must be nonzero");
    }

    #[test]
    fn resume_after_interruption_is_bit_identical() {
        // The tentpole guarantee: a run killed at a checkpoint and resumed
        // from it finishes with bit-identical weights to a run that never
        // stopped — serially and with a replica pool, and with dropout in
        // the network so the RNG restore paths are actually exercised.
        let dropnet = || {
            let mut net = Network::new();
            net.push(Dense::new(6, 16, 1));
            net.push(Relu::new());
            net.push(hotspot_nn::layers::Dropout::new(0.4, 9));
            net.push(Dense::new(16, 2, 2));
            net
        };
        for threads in [1usize, 3] {
            let (features, labels) = toy_data(200, 21);
            let mut cfg = quick_config();
            cfg.threads = threads;
            cfg.max_steps = 400;
            cfg.patience = 100; // run the full budget
            let mut reference = dropnet();
            let ref_report = train(&mut reference, &features, &labels, 0.1, &cfg).unwrap();

            // Interrupted run: capture the step-150 checkpoint, then
            // "crash" (everything after the snapshot is discarded).
            let mut captured: Option<TrainerState> = None;
            let mut first = dropnet();
            let crash = train_resumable(
                &mut first,
                &features,
                &labels,
                0.1,
                &cfg,
                None,
                150,
                &mut |state, _| {
                    if state.steps == 150 {
                        captured = Some(state.clone());
                        return Err(CoreError::Checkpoint("simulated crash".into()));
                    }
                    Ok(())
                },
            );
            assert!(matches!(crash, Err(CoreError::Checkpoint(_))));
            let state = captured.unwrap();

            // Resume into a *fresh* network: parameters and every RNG
            // stream come from the state.
            let mut resumed = dropnet();
            let report = train_resumable(
                &mut resumed,
                &features,
                &labels,
                0.1,
                &cfg,
                Some(&state),
                0,
                &mut |_, _| Ok(()),
            )
            .unwrap();
            assert_eq!(report.steps, ref_report.steps, "threads = {threads}");
            assert_eq!(report.best_val_accuracy, ref_report.best_val_accuracy);
            let curve = |r: &TrainReport| -> Vec<(usize, f64)> {
                r.history.iter().map(|p| (p.step, p.val_accuracy)).collect()
            };
            assert_eq!(curve(&report), curve(&ref_report));
            assert_eq!(
                ParameterBlob::from_network(&mut resumed),
                ParameterBlob::from_network(&mut reference),
                "threads = {threads}"
            );

            // A state cannot be replayed into a mismatched run.
            let err = train_resumable(
                &mut dropnet(),
                &features,
                &labels,
                0.2,
                &cfg,
                Some(&state),
                0,
                &mut |_, _| Ok(()),
            );
            assert!(matches!(err, Err(CoreError::Checkpoint(_))));
        }
    }

    #[test]
    fn biased_targets_raise_hotspot_probability() {
        // Training the same data with ε = 0.3 must yield predictions at
        // least as hotspot-leaning as ε = 0 on average.
        let (features, labels) = toy_data(300, 5);
        let mut plain = toy_net(7);
        let mut biased = toy_net(7);
        let cfg = quick_config();
        train(&mut plain, &features, &labels, 0.0, &cfg).unwrap();
        train(&mut biased, &features, &labels, 0.3, &cfg).unwrap();
        let mean_prob = |net: &mut Network| -> f64 {
            hotspot_probs(net, &features, Parallelism::serial())
                .into_iter()
                .map(f64::from)
                .sum::<f64>()
                / features.len() as f64
        };
        assert!(mean_prob(&mut biased) > mean_prob(&mut plain) - 0.02);
    }

    #[test]
    fn parallel_training_converges_like_serial() {
        let (features, labels) = toy_data(200, 6);
        let mut serial_cfg = quick_config();
        serial_cfg.threads = 1;
        let mut parallel_cfg = quick_config();
        parallel_cfg.threads = 3;
        let mut a = toy_net(8);
        let ra = train(&mut a, &features, &labels, 0.0, &serial_cfg).unwrap();
        let mut b = toy_net(8);
        let rb = train(&mut b, &features, &labels, 0.0, &parallel_cfg).unwrap();
        // Different float-merge order, same learning outcome.
        assert!(ra.best_val_accuracy > 0.85);
        assert!(rb.best_val_accuracy > 0.85);
        // Zero threads rejected.
        let mut bad = quick_config();
        bad.threads = 0;
        assert!(train(&mut toy_net(8), &features, &labels, 0.0, &bad).is_err());
    }

    #[test]
    fn hotspot_probs_match_for_every_policy() {
        let (features, _labels) = toy_data(61, 9);
        let net = toy_net(10);
        let serial = hotspot_probs(&net, &features, Parallelism::serial());
        for workers in [1, 2, 5, 16] {
            assert_eq!(
                hotspot_probs(&net, &features, Parallelism::fixed(workers).unwrap()),
                serial,
                "workers = {workers}"
            );
        }
        assert_eq!(hotspot_probs(&net, &features, Parallelism::auto()), serial);
    }

    #[test]
    fn hotspot_probs_equal_per_sample_inference_on_table1() {
        // The Table-1 net at k = 32 against per-sample `Executor::infer`
        // plus softmax, bit for bit: empty, one, one block (the cap), a
        // block plus a tail, and a validation-split-sized set, under
        // every worker policy. CI also runs this module on the AVX2 tier.
        use crate::model::CnnConfig;
        use hotspot_nn::engine::BatchScorer;
        let cfg = CnnConfig::default();
        let net = cfg.build();
        let shape = cfg.input_shape();
        let cap = BatchScorer::new().block_cap(&net, &shape);
        let len: usize = shape.iter().product();
        let features: Vec<Tensor> = (0..(cap + 1).max(19))
            .map(|s| {
                let v = (0..len).map(|i| ((i * 3 + s * 61) as f32 * 0.017).sin());
                Tensor::from_vec(shape.clone(), v.collect())
            })
            .collect();
        let mut ex = Executor::new();
        let mut soft = [0.0f32; 2];
        let reference: Vec<u32> = features
            .iter()
            .map(|f| {
                loss::softmax_into(ex.infer(&net, f), &mut soft);
                soft[1].to_bits()
            })
            .collect();
        let policies = [
            Parallelism::serial(),
            Parallelism::fixed(2).unwrap(),
            Parallelism::fixed(3).unwrap(),
            Parallelism::auto(),
        ];
        for count in [0, 1, cap, cap + 1, 19] {
            for policy in policies {
                let got: Vec<u32> = hotspot_probs(&net, &features[..count], policy)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                assert_eq!(got, reference[..count], "{count} features, {policy}");
            }
        }
    }

    #[test]
    fn target_for_matches_paper() {
        assert_eq!(target_for(true, 0.3), [0.0, 1.0]);
        assert_eq!(target_for(false, 0.0), [1.0, 0.0]);
        assert_eq!(target_for(false, 0.2), [0.8, 0.2]);
    }
}
