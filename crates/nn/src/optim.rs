//! The paper's mini-batch gradient descent (Algorithm 1): the training
//! step and the step-decayed learning rate.

use crate::engine::Executor;
use crate::{loss, Network, Tensor};
use serde::{Deserialize, Serialize};

/// Runs one averaged gradient step over a mini-batch of `(input, target)`
/// pairs (paper Algorithm 1 lines 5–10), returning the mean batch loss.
/// A one-pair batch is a plain SGD step.
///
/// Each sample runs forward → soft-target cross-entropy → backward
/// through the caller-held `ex`, accumulating gradients; the sum is then
/// applied at rate `lr / m`. The executor keeps its plan and arena across
/// calls, so a training loop that holds one does no per-step allocation.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::{optim, Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(2, 2, 0));
/// let mut ex = Executor::new();
/// let x = Tensor::from_vec(vec![2], vec![1.0, -1.0]);
/// let first = optim::minibatch_step(&mut net, &mut ex, &[(&x, [0.0, 1.0])], 0.5);
/// let mut last = first;
/// for _ in 0..20 {
///     last = optim::minibatch_step(&mut net, &mut ex, &[(&x, [0.0, 1.0])], 0.5);
/// }
/// assert!(last < first);
/// ```
///
/// # Panics
///
/// Panics on an empty batch.
pub fn minibatch_step(
    net: &mut Network,
    ex: &mut Executor,
    batch: &[(&Tensor, [f32; 2])],
    lr: f32,
) -> f32 {
    assert!(!batch.is_empty(), "empty mini-batch");
    net.zero_grads();
    let mut grad = [0.0f32; 2];
    let mut total = 0.0f32;
    for (x, t) in batch {
        total += loss::softmax_cross_entropy_into(ex.forward_train(net, x), t, &mut grad);
        ex.backward(net, &grad);
    }
    let m = batch.len() as f32;
    net.apply_gradients(lr / m);
    total / m
}

/// Step-decay learning-rate schedule: `λ ← α·λ` every `decay_step`
/// iterations (paper Algorithm 1 lines 11–13).
///
/// # Examples
///
/// ```
/// use hotspot_nn::optim::LrSchedule;
///
/// let mut sched = LrSchedule::new(1e-3, 0.5, 2);
/// assert_eq!(sched.current(), 1e-3);
/// sched.tick();
/// sched.tick(); // second tick triggers decay
/// assert_eq!(sched.current(), 5e-4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LrSchedule {
    lr: f32,
    alpha: f32,
    decay_step: usize,
    counter: usize,
}

impl LrSchedule {
    /// Creates a schedule with initial rate `lr`, decay factor
    /// `alpha ∈ (0, 1]` and decay period `decay_step`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive `lr`, `alpha` outside `(0, 1]`, or a zero
    /// `decay_step`.
    pub fn new(lr: f32, alpha: f32, decay_step: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "decay factor must be in (0, 1]"
        );
        assert!(decay_step > 0, "decay step must be nonzero");
        LrSchedule {
            lr,
            alpha,
            decay_step,
            counter: 0,
        }
    }

    /// The current learning rate.
    #[inline]
    pub fn current(&self) -> f32 {
        self.lr
    }

    /// Iterations elapsed since the last decay (checkpointed alongside the
    /// current rate so a resumed schedule decays at the original step).
    #[inline]
    pub fn counter(&self) -> usize {
        self.counter
    }

    /// Rebuilds a schedule mid-stream from checkpointed state: the
    /// *current* (already-decayed) rate and the in-period iteration
    /// counter, plus the original `alpha`/`decay_step` configuration.
    ///
    /// # Panics
    ///
    /// Panics under the same validity rules as [`LrSchedule::new`], or when
    /// `counter >= decay_step` (a tick would already have decayed).
    pub fn resume(lr: f32, alpha: f32, decay_step: usize, counter: usize) -> Self {
        let mut sched = LrSchedule::new(lr, alpha, decay_step);
        assert!(
            counter < decay_step,
            "resume counter {counter} must be below decay step {decay_step}"
        );
        sched.counter = counter;
        sched
    }

    /// Advances one iteration; decays the rate when the period elapses
    /// (and resets the iteration counter, as Algorithm 1 line 12 does).
    pub fn tick(&mut self) {
        self.counter += 1;
        if self.counter.is_multiple_of(self.decay_step) {
            self.lr *= self.alpha;
            self.counter = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::testutil::infer;

    fn net() -> Network {
        let mut n = Network::new();
        n.push(Dense::new(2, 8, 5));
        n.push(Relu::new());
        n.push(Dense::new(8, 2, 6));
        n
    }

    fn input(x: [f32; 2]) -> Tensor {
        Tensor::from_vec(vec![2], x.to_vec())
    }

    fn weights(net: &mut Network) -> Vec<f32> {
        let mut w = Vec::new();
        net.visit_params(&mut |p, _| w.extend_from_slice(p));
        w
    }

    #[test]
    fn sgd_reduces_loss_on_repeated_instance() {
        let mut n = net();
        let mut ex = Executor::new();
        let x = input([1.0, -1.0]);
        let sample = [(&x, [0.0f32, 1.0])];
        let first = minibatch_step(&mut n, &mut ex, &sample, 0.1);
        let mut last = first;
        for _ in 0..20 {
            last = minibatch_step(&mut n, &mut ex, &sample, 0.1);
        }
        assert!(last < first);
    }

    #[test]
    fn minibatch_learns_linearly_separable_data() {
        let mut n = net();
        let mut ex = Executor::new();
        let xs = [
            input([1.0, 1.0]),
            input([-1.0, -1.0]),
            input([0.8, 1.2]),
            input([-1.2, -0.8]),
        ];
        let targets = [[1.0f32, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]];
        let data: Vec<(&Tensor, [f32; 2])> = xs.iter().zip(targets).collect();
        for _ in 0..200 {
            let _ = minibatch_step(&mut n, &mut ex, &data, 0.2);
        }
        for (x, t) in &data {
            let p = loss::softmax(infer(&n, x).as_slice());
            assert_eq!(p[1] > 0.5, t[1] > 0.5);
        }
    }

    #[test]
    fn minibatch_averages_gradients() {
        // A batch of k identical instances must produce the same update as
        // a single instance.
        let mut a = net();
        let mut b = net();
        let x = input([0.3, 0.7]);
        let pair = (&x, [0.0f32, 1.0]);
        let _ = minibatch_step(&mut a, &mut Executor::new(), &[pair], 0.1);
        let _ = minibatch_step(&mut b, &mut Executor::new(), &[pair; 4], 0.1);
        for (x, y) in weights(&mut a).iter().zip(&weights(&mut b)) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn minibatch_step_is_independent_of_executor_history() {
        // A warm executor (plan and arena from earlier steps, and an
        // inference pass in between) steps bit-identically to a fresh one.
        let mut a = net();
        let mut b = net();
        let x = input([0.4, -0.9]);
        let y = input([-0.2, 0.6]);
        let batch = [(&x, [1.0f32, 0.0]), (&y, [0.0, 1.0])];
        let mut warm = Executor::new();
        for _ in 0..3 {
            let la = minibatch_step(&mut a, &mut warm, &batch, 0.1);
            let _ = warm.infer(&a, &y);
            let lb = minibatch_step(&mut b, &mut Executor::new(), &batch, 0.1);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(weights(&mut a), weights(&mut b));
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_panics() {
        let _ = minibatch_step(&mut net(), &mut Executor::new(), &[], 0.1);
    }

    #[test]
    fn schedule_decays_every_k() {
        let mut s = LrSchedule::new(1.0, 0.5, 3);
        for _ in 0..3 {
            s.tick();
        }
        assert_eq!(s.current(), 0.5);
        for _ in 0..3 {
            s.tick();
        }
        assert_eq!(s.current(), 0.25);
    }

    #[test]
    fn schedule_resume_continues_mid_period() {
        let mut live = LrSchedule::new(1.0, 0.5, 3);
        for _ in 0..4 {
            live.tick();
        }
        // Snapshot after 4 ticks (decayed once, 1 into the next period).
        let mut resumed = LrSchedule::resume(live.current(), 0.5, 3, live.counter());
        for _ in 0..2 {
            live.tick();
            resumed.tick();
        }
        assert_eq!(live.current(), resumed.current());
        assert_eq!(live.counter(), resumed.counter());
    }

    #[test]
    #[should_panic(expected = "resume counter")]
    fn schedule_resume_rejects_overlong_counter() {
        let _ = LrSchedule::resume(0.5, 0.5, 3, 3);
    }

    #[test]
    fn schedule_validates() {
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.0, 0.5, 1)).is_err());
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.1, 1.5, 1)).is_err());
        assert!(std::panic::catch_unwind(|| LrSchedule::new(0.1, 0.5, 0)).is_err());
    }
}
