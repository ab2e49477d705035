//! Sequential network container.

use crate::layers::Layer;
use crate::Tensor;
use std::fmt;

/// A sequential stack of [`Layer`]s. A network holds parameters only;
/// every forward and backward pass runs through a shape plan and a
/// workspace ([`crate::engine`]), most conveniently an
/// [`crate::engine::Executor`].
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::{Dense, Relu};
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, 0));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, 1));
/// let logits = Executor::new().infer(&net, &Tensor::zeros(vec![4])).to_vec();
/// assert_eq!(logits.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Shared view of the layer stack for the execution planner.
    pub(crate) fn layers_ref(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable view of the layer stack for planned training passes.
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Inference over a batch of same-shaped inputs: the inputs are split
    /// over the workers of `parallelism` ([`crate::Parallelism::map_chunks`]),
    /// and each worker scores its slice through one
    /// [`crate::engine::BatchScorer`], a block of inputs per planned pass,
    /// streaming every weight matrix once per block instead of once per
    /// input. Workers all share `&self` — no replica cloning — and results
    /// come back in input order.
    ///
    /// Bit-identical to per-input [`crate::engine::Executor::infer`] calls
    /// for any worker policy: GEMM batch columns are computed independently
    /// (see [`crate::Layer::forward_batch_into`]) and per-input work is
    /// pure. Training-mode batching is deliberately not offered here —
    /// stochastic layers draw per-replica streams; use
    /// [`crate::parallel`].
    ///
    /// # Panics
    ///
    /// Panics when the inputs do not all share one shape.
    pub fn forward_batch(&self, inputs: &[Tensor], parallelism: crate::Parallelism) -> Vec<Tensor> {
        if inputs.is_empty() {
            // Nothing to score: avoid planning a degenerate workspace.
            return Vec::new();
        }
        let in_shape = inputs[0].shape();
        for x in inputs {
            assert_eq!(
                x.shape(),
                in_shape,
                "forward_batch inputs must share one shape"
            );
        }
        let probe = self.plan(in_shape);
        let out_shape = probe.out_shape();
        if in_shape.contains(&0) || out_shape.contains(&0) {
            // Zero-length samples cannot be packed into flat sample-major
            // blocks; score the degenerate shapes one by one.
            let mut ex = crate::engine::Executor::new();
            return inputs
                .iter()
                .map(|x| Tensor::from_vec(out_shape.to_vec(), ex.infer(self, x).to_vec()))
                .collect();
        }
        // The probe's block size caps every worker's scorer, so no worker
        // plans the single-sample shape again.
        let cap = probe.suggested_batch();
        let score_slice = |slice: &[Tensor]| {
            let mut out = Vec::with_capacity(slice.len());
            let mut scorer = crate::engine::BatchScorer::with_block_cap(cap);
            let filled = scorer.infer_each(
                self,
                in_shape,
                slice.len(),
                |i, dst| {
                    dst.copy_from_slice(slice[i].as_slice());
                    Ok::<(), std::convert::Infallible>(())
                },
                |_, y| out.push(Tensor::from_vec(out_shape.to_vec(), y.to_vec())),
            );
            let Ok(()) = filled;
            out
        };
        parallelism
            .map_chunks(inputs, score_slice)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Applies one vanilla gradient-descent step: `w -= lr * g`.
    ///
    /// Callers accumulating over an `m`-sample mini-batch pass
    /// `lr / m` to average (paper Algorithm 1 line 9).
    pub fn apply_gradients(&mut self, lr: f32) {
        self.visit_params(&mut |w, g| {
            for (wi, gi) in w.iter_mut().zip(g.iter()) {
                *wi -= lr * gi;
            }
        });
    }

    /// Visits every (parameters, gradients) pair in layer order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    /// RNG states of every stochastic layer, in layer order (deterministic
    /// layers are skipped). Together with the parameters this makes a
    /// training state fully resumable: see [`Network::restore_rng_states`].
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.layers.iter().filter_map(|l| l.rng_state()).collect()
    }

    /// Restores RNG states captured by [`Network::rng_states`] into this
    /// network's stochastic layers, in the same layer order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::Format`] when `states` does not hold
    /// exactly one entry per stochastic layer — the checkpoint was produced
    /// by a differently-shaped network.
    pub fn restore_rng_states(&mut self, states: &[[u64; 4]]) -> Result<(), crate::NnError> {
        let expected = self
            .layers
            .iter()
            .filter(|l| l.rng_state().is_some())
            .count();
        if states.len() != expected {
            return Err(crate::NnError::Format(format!(
                "checkpoint holds {} RNG states but the network has {expected} stochastic layers",
                states.len()
            )));
        }
        let mut it = states.iter();
        for layer in &mut self.layers {
            if layer.rng_state().is_some() {
                // `it` yields exactly `expected` items and we just checked
                // the count, so `next()` cannot fail here.
                if let Some(&s) = it.next() {
                    layer.set_rng_state(s);
                }
            }
        }
        Ok(())
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |w, _| count += w.len());
        count
    }

    /// Largest-magnitude accumulated gradient (for debugging/telemetry).
    pub fn grad_abs_max(&mut self) -> f32 {
        let mut m = 0.0f32;
        self.visit_params(&mut |_, g| {
            for &v in g.iter() {
                m = m.max(v.abs());
            }
        });
        m
    }

    /// Architecture summary rows: `(name, output shape)` for the given
    /// input shape — regenerates the paper's Table 1.
    pub fn summary(&self, input_shape: &[usize]) -> Vec<(String, Vec<usize>)> {
        let mut rows = Vec::with_capacity(self.layers.len());
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.out_shape(&shape);
            rows.push((layer.name().to_string(), shape.clone()));
        }
        rows
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[{} layers]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::layers::{Dense, Flatten, MaxPool2, Relu};
    use crate::testutil::{infer, train};
    use crate::{loss, optim};

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(3, 4, 0));
        net.push(Relu::new());
        net.push(Dense::new(4, 2, 1));
        net
    }

    #[test]
    fn forward_shape() {
        let y = infer(&tiny_net(), &Tensor::zeros(vec![3]));
        assert_eq!(y.shape(), &[2]);
    }

    #[test]
    fn parameter_count_sums_layers() {
        let mut net = tiny_net();
        assert_eq!(net.parameter_count(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(vec![3], vec![0.5, -0.2, 0.8]);
        let target = [0.0f32, 1.0];
        let mut ex = Executor::new();
        let l0 = optim::minibatch_step(&mut net, &mut ex, &[(&x, target)], 0.1);
        let (l1, _) = loss::softmax_cross_entropy(&infer(&net, &x), &target);
        assert!(l1 < l0, "loss should decrease: {l0} -> {l1}");
    }

    #[test]
    fn summary_tracks_shapes() {
        let mut net = Network::new();
        net.push(MaxPool2::new());
        net.push(Flatten::new());
        net.push(Dense::new(4, 2, 0));
        let rows = net.summary(&[1, 4, 4]);
        assert_eq!(rows[0], ("maxpool".to_string(), vec![1, 2, 2]));
        assert_eq!(rows[1], ("flatten".to_string(), vec![4]));
        assert_eq!(rows[2], ("fc".to_string(), vec![2]));
    }

    #[test]
    fn forward_batch_is_bit_identical_to_serial() {
        use crate::Parallelism;
        let net = tiny_net();
        // 70 inputs: tiny_net's suggested block is 64, so every worker
        // partition exercises full blocks plus a ragged tail.
        let inputs: Vec<Tensor> = (0..70)
            .map(|i| {
                Tensor::from_vec(
                    vec![3],
                    (0..3)
                        .map(|j| ((i * 5 + j * 3) % 7) as f32 / 7.0 - 0.5)
                        .collect(),
                )
            })
            .collect();
        let serial: Vec<Tensor> = inputs.iter().map(|x| infer(&net, x)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let batched = net.forward_batch(&inputs, Parallelism::fixed(workers).unwrap());
            assert_eq!(batched, serial, "workers = {workers}");
        }
        let batched = net.forward_batch(&inputs, Parallelism::auto());
        assert_eq!(batched, serial);
        // Empty batches are fine.
        assert!(net.forward_batch(&[], Parallelism::auto()).is_empty());
    }

    #[test]
    fn forward_batch_scores_zero_length_outputs() {
        // A zero-length output cannot be packed into sample-major blocks;
        // these inputs take the per-input executor fallback instead.
        let mut net = Network::new();
        net.push(MaxPool2::new());
        let inputs = vec![Tensor::zeros(vec![0, 4, 4]); 3];
        let out = net.forward_batch(&inputs, crate::Parallelism::serial());
        assert_eq!(out, vec![Tensor::zeros(vec![0, 2, 2]); 3]);
    }

    #[test]
    fn concurrent_forward_batch_on_shared_network_agrees_with_serial() {
        use crate::Parallelism;
        // Regression for the PR 3 `&self`/`Parallelism` convention:
        // several threads batch-scoring through ONE shared `&Network`
        // must compile (no `&mut self`) and agree with the serial loop.
        let net = tiny_net();
        let inputs: Vec<Tensor> = (0..9)
            .map(|i| Tensor::from_vec(vec![3], vec![i as f32 * 0.1, -0.2, 0.3]))
            .collect();
        let serial: Vec<Tensor> = inputs.iter().map(|x| infer(&net, x)).collect();
        let shared = &net;
        let inputs = &inputs;
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move |_| {
                        shared.forward_batch(inputs, Parallelism::fixed(2).unwrap())
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), serial);
            }
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn forward_batch_rejects_mixed_shapes() {
        let net = tiny_net();
        let _ = net.forward_batch(
            &[Tensor::zeros(vec![3]), Tensor::zeros(vec![1, 3])],
            crate::Parallelism::serial(),
        );
    }

    #[test]
    fn inference_draws_no_dropout_rng() {
        use crate::layers::{Conv2d, Dropout};
        // Cover every layer kind that appears in the paper architecture,
        // dropout included (identity at inference, no RNG draw).
        let mut net = Network::new();
        net.push(Conv2d::new(2, 3, 3, 1, 5));
        net.push(Relu::new());
        net.push(MaxPool2::new());
        net.push(Flatten::new());
        net.push(Dense::new(3 * 3 * 3, 8, 6));
        net.push(Dropout::new(0.5, 7));
        net.push(Dense::new(8, 2, 8));
        let x = Tensor::from_vec(
            vec![2, 6, 6],
            (0..72).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let rng_before = net.rng_states();
        let first = infer(&net, &x);
        assert_eq!(net.rng_states(), rng_before, "inference must not draw RNG");
        assert_eq!(infer(&net, &x), first);
    }

    #[test]
    fn rng_states_roundtrip_resumes_dropout_stream() {
        use crate::layers::Dropout;
        let mut net = Network::new();
        net.push(Dense::new(8, 8, 0));
        net.push(Dropout::new(0.5, 7));
        net.push(Dense::new(8, 2, 1));
        net.push(Dropout::new(0.3, 9));
        let x = Tensor::from_vec(vec![8], vec![0.25; 8]);
        let mut ex = Executor::new();
        let mut forward = |net: &mut Network| ex.forward_train(net, &x).to_vec();
        // Advance the streams, snapshot, advance further.
        let _ = forward(&mut net);
        let states = net.rng_states();
        assert_eq!(states.len(), 2);
        let after: Vec<Vec<f32>> = (0..3).map(|_| forward(&mut net)).collect();
        // Rewind and replay: identical mask sequence.
        net.restore_rng_states(&states).unwrap();
        let replay: Vec<Vec<f32>> = (0..3).map(|_| forward(&mut net)).collect();
        assert_eq!(after, replay);
        // Wrong cardinality is rejected.
        assert!(net.restore_rng_states(&states[..1]).is_err());
        assert!(tiny_net().restore_rng_states(&states).is_err());
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = tiny_net();
        let _ = train(&mut net, &Tensor::zeros(vec![3]), &[-0.5, 0.5]);
        assert!(net.grad_abs_max() > 0.0);
        net.zero_grads();
        assert_eq!(net.grad_abs_max(), 0.0);
    }
}
