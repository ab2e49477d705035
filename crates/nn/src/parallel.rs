//! Multi-threaded mini-batch gradient computation and batch inference.
//!
//! The paper notes MGD "is more compatible with parallel computing and can
//! provide speed up on training procedures" (§5). This module implements
//! that: the batch is split across worker threads, each running
//! forward/backward on its own network replica, and the per-worker
//! gradients are merged **in fixed worker order** so results are
//! bit-for-bit deterministic regardless of thread scheduling.
//!
//! [`ReplicaPool`] owns the per-worker replicas so a training loop pays
//! the layer-allocation cost once, then only copies parameters into the
//! existing replicas each step. Each replica is paired with a persistent
//! [`crate::engine::Executor`], so forward/backward run through the
//! shape-planned arena path: the plan and workspace are built on the
//! first step and reused for every step after (plans depend only on
//! shapes, so parameter syncs never invalidate them).

use crate::engine::Executor;
use crate::{loss, optim, Network, Tensor};

/// Reusable per-worker network replicas for parallel training.
///
/// Cloning a [`Network`] allocates every layer's weight, gradient, and
/// scratch buffers; doing that per optimiser step dominated the parallel
/// path's cost. A pool clones once, then [`ReplicaPool::sync_parameters`]
/// refreshes the replicas in place before each step. The paired
/// executors likewise keep their shape plans and arenas warm across
/// steps.
#[derive(Debug, Clone)]
pub struct ReplicaPool {
    replicas: Vec<Network>,
    executors: Vec<Executor>,
    /// Executor for the serial (`threads == 1`) fallback, which runs on
    /// the master network instead of a replica.
    master: Executor,
    scratch: Vec<f32>,
}

impl ReplicaPool {
    /// Builds a pool of `threads` replicas of `net`.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn new(net: &Network, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        ReplicaPool {
            replicas: (0..threads).map(|_| net.clone()).collect(),
            executors: (0..threads).map(|_| Executor::new()).collect(),
            master: Executor::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of worker replicas.
    pub fn threads(&self) -> usize {
        self.replicas.len()
    }

    /// RNG states of every stochastic layer across all replicas, replica-
    /// major (see [`Network::rng_states`]).
    ///
    /// Replicas advance their own dropout streams during pooled steps —
    /// only parameters are re-synced from the master — so a bit-identical
    /// resume of multi-threaded training must capture them all.
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.replicas.iter().flat_map(|r| r.rng_states()).collect()
    }

    /// Restores replica RNG states captured by [`ReplicaPool::rng_states`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::Format`] when `states` does not split
    /// evenly into one [`Network::restore_rng_states`] slice per replica —
    /// the checkpoint was taken with a different thread count or network
    /// shape.
    pub fn restore_rng_states(&mut self, states: &[[u64; 4]]) -> Result<(), crate::NnError> {
        let per_replica = self
            .replicas
            .first()
            .map(|r| r.rng_states().len())
            .unwrap_or(0);
        if states.len() != per_replica * self.replicas.len() {
            return Err(crate::NnError::Format(format!(
                "checkpoint holds {} replica RNG states but the pool needs {} ({} replicas × {per_replica})",
                states.len(),
                per_replica * self.replicas.len(),
                self.replicas.len()
            )));
        }
        for (replica, chunk) in self
            .replicas
            .iter_mut()
            .zip(states.chunks(per_replica.max(1)))
        {
            replica.restore_rng_states(chunk)?;
        }
        Ok(())
    }

    /// Copies the master's parameters into every replica (no allocation
    /// after the first call).
    pub fn sync_parameters(&mut self, net: &mut Network) {
        self.scratch.clear();
        net.visit_params(&mut |w, _| self.scratch.extend_from_slice(w));
        for replica in &mut self.replicas {
            let mut offset = 0usize;
            replica.visit_params(&mut |w, _| {
                w.copy_from_slice(&self.scratch[offset..offset + w.len()]);
                offset += w.len();
            });
        }
    }
}

/// One averaged mini-batch gradient step over `(input, target)` pairs,
/// partitioned across the pool's replicas. Gradients are merged into
/// `net` in fixed worker order and applied at rate `lr / batch len`.
///
/// Returns the mean batch loss. Falls back to
/// [`crate::optim::minibatch_step`] on the master when the pool has one
/// replica (or the batch has one sample).
///
/// # Panics
///
/// Panics on an empty batch.
pub fn minibatch_step_pooled(
    net: &mut Network,
    pool: &mut ReplicaPool,
    batch: &[(&Tensor, [f32; 2])],
    lr: f32,
) -> f32 {
    assert!(!batch.is_empty(), "empty mini-batch");
    let threads = pool.threads().min(batch.len());

    if threads == 1 {
        return optim::minibatch_step(net, &mut pool.master, batch, lr);
    }

    pool.sync_parameters(net);
    let chunk = batch.len().div_ceil(threads);
    let mut losses = vec![0.0f32; threads];

    if let Err(payload) = crossbeam::thread::scope(|scope| {
        for (worker, ((replica, ex), loss_slot)) in pool
            .replicas
            .iter_mut()
            .zip(pool.executors.iter_mut())
            .take(threads)
            .zip(losses.iter_mut())
            .enumerate()
        {
            // Ceil-division chunking can leave trailing workers past the
            // end (13 samples / 8 workers); clamp them to empty.
            let start = (worker * chunk).min(batch.len());
            let slice = &batch[start..(start + chunk).min(batch.len())];
            scope.spawn(move |_| {
                replica.zero_grads();
                let mut grad = Vec::new();
                let mut total = 0.0f32;
                for (x, t) in slice {
                    let l = {
                        let logits = ex.forward_train(replica, x);
                        grad.resize(logits.len(), 0.0);
                        loss::softmax_cross_entropy_into(logits, t, &mut grad)
                    };
                    ex.backward(replica, &grad);
                    total += l;
                }
                *loss_slot = total;
            });
        }
    }) {
        // A worker panic is a bug in layer code, not a recoverable
        // condition: propagate the original payload instead of wrapping it
        // in a second panic message.
        std::panic::resume_unwind(payload);
    }

    // Merge per-worker gradients into the master, in worker order.
    net.zero_grads();
    pool.scratch.clear();
    for replica in pool.replicas.iter_mut().take(threads) {
        pool.scratch.clear();
        replica.visit_params(&mut |_, g| pool.scratch.extend_from_slice(g));
        let mut offset = 0usize;
        net.visit_params(&mut |_, g| {
            let len = g.len();
            for (gi, wg) in g.iter_mut().zip(&pool.scratch[offset..offset + len]) {
                *gi += wg;
            }
            offset += len;
        });
    }
    net.apply_gradients(lr / batch.len() as f32);
    losses.iter().sum::<f32>() / batch.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::serialize::ParameterBlob;

    fn net(seed: u64) -> Network {
        let mut n = Network::new();
        n.push(Dense::new(4, 10, seed));
        n.push(Relu::new());
        n.push(Dense::new(10, 2, seed + 1));
        n
    }

    fn batch() -> Vec<(Tensor, [f32; 2])> {
        (0..12)
            .map(|i| {
                let v: Vec<f32> = (0..4)
                    .map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0 - 0.5)
                    .collect();
                let label = if v.iter().sum::<f32>() > 0.0 {
                    [0.0f32, 1.0]
                } else {
                    [1.0f32, 0.0]
                };
                (Tensor::from_vec(vec![4], v), label)
            })
            .collect()
    }

    fn pairs(data: &[(Tensor, [f32; 2])]) -> Vec<(&Tensor, [f32; 2])> {
        data.iter().map(|(x, t)| (x, *t)).collect()
    }

    /// One pooled step on a fresh pool of `threads` replicas.
    fn step(net: &mut Network, batch: &[(&Tensor, [f32; 2])], lr: f32, threads: usize) -> f32 {
        let mut pool = ReplicaPool::new(net, threads);
        minibatch_step_pooled(net, &mut pool, batch, lr)
    }

    #[test]
    fn parallel_matches_serial_update_closely() {
        let data = batch();
        let refs = pairs(&data);
        let mut serial = net(5);
        let mut pooled_serial = net(5);
        let mut parallel = net(5);
        let l1 = optim::minibatch_step(&mut serial, &mut Executor::new(), &refs, 0.1);
        // The one-replica pool is the serial step itself.
        let lp = step(&mut pooled_serial, &refs, 0.1, 1);
        assert_eq!(l1.to_bits(), lp.to_bits());
        assert_eq!(
            ParameterBlob::from_network(&mut serial),
            ParameterBlob::from_network(&mut pooled_serial)
        );
        let l4 = step(&mut parallel, &refs, 0.1, 4);
        assert!((l1 - l4).abs() < 1e-5, "losses differ: {l1} vs {l4}");
        let ws = ParameterBlob::from_network(&mut serial);
        let wp = ParameterBlob::from_network(&mut parallel);
        for (a, b) in ws.as_slice().iter().zip(wp.as_slice().iter()) {
            // Gradient addition order differs, so allow float-merge noise.
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let data = batch();
        let refs = pairs(&data);
        let run = || {
            let mut n = net(9);
            for _ in 0..5 {
                step(&mut n, &refs, 0.05, 3);
            }
            ParameterBlob::from_network(&mut n)
        };
        assert_eq!(run(), run(), "parallel training must be bit-deterministic");
    }

    #[test]
    fn pooled_steps_match_fresh_replica_steps() {
        let data = batch();
        let refs = pairs(&data);

        let mut fresh = net(11);
        let mut pooled = net(11);
        let mut pool = ReplicaPool::new(&pooled, 3);
        for _ in 0..4 {
            let lf = step(&mut fresh, &refs, 0.05, 3);
            let lp = minibatch_step_pooled(&mut pooled, &mut pool, &refs, 0.05);
            assert_eq!(lf, lp, "pooled step must be bit-identical");
        }
        assert_eq!(
            ParameterBlob::from_network(&mut fresh),
            ParameterBlob::from_network(&mut pooled)
        );
    }

    #[test]
    fn pool_reports_thread_count() {
        let n = net(2);
        assert_eq!(ReplicaPool::new(&n, 4).threads(), 4);
    }

    #[test]
    fn more_threads_than_samples_is_fine() {
        let data = batch();
        let refs = pairs(&data[..2]);
        let mut n = net(1);
        let l = step(&mut n, &refs, 0.1, 16);
        assert!(l.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_panics() {
        let mut n = net(0);
        let _ = step(&mut n, &[], 0.1, 2);
    }

    #[test]
    #[should_panic(expected = "threads must be nonzero")]
    fn zero_threads_panics() {
        let _ = ReplicaPool::new(&net(0), 0);
    }
}
