//! Inverted dropout.

use super::{BackwardCtx, Epilogue, Layer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1 / (1 - p)`, so inference
/// (`train = false`) is the identity. The paper applies 50 % dropout on its
/// first fully-connected layer.
///
/// The mask backward needs lives in the caller-provided f32 scratch
/// ([`Layer::scratch_len`] equals the element count). Masks are drawn from
/// the layer's own seeded RNG stream in strict element order, one draw
/// per element per training forward — which is what keeps
/// checkpoint/resume bit-identical.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Dropout;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dropout::new(0.5, 1));
/// let x = Tensor::from_vec(vec![4], vec![1.0; 4]);
/// // Inference passes values through untouched.
/// assert_eq!(Executor::new().infer(&net, &x), &[1.0; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and an internal
    /// seeded RNG (mask sequences are reproducible).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured drop probability.
    #[inline]
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
    }

    fn scratch_len(&self, in_shape: &[usize]) -> usize {
        // One mask value per element, consumed by `backward_into`.
        in_shape.iter().product()
    }

    fn scratch_infer_len(&self, _in_shape: &[usize]) -> usize {
        // The mask is backward-only: inference writes no scratch.
        0
    }

    fn forward_into(
        &self,
        x: &[f32],
        _in_shape: &[usize],
        y: &mut [f32],
        _scratch: &mut [f32],
        _idx: &mut [usize],
        _epilogue: Option<Epilogue>,
    ) {
        // Inverted dropout is the identity at inference time, and no RNG
        // is drawn — the training stream is left untouched.
        y.copy_from_slice(x);
    }

    fn forward_train_into(
        &mut self,
        x: &[f32],
        _in_shape: &[usize],
        y: &mut [f32],
        scratch: &mut [f32],
        _idx: &mut [usize],
        _epilogue: Option<Epilogue>,
    ) {
        let mask = &mut scratch[..y.len()];
        if self.p == 0.0 {
            // Nothing is dropped and no RNG is drawn; backward still
            // reads the (all-ones) mask.
            mask.fill(1.0);
            y.copy_from_slice(x);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Strict element order: one draw per element, exactly as the
        // historical per-tensor implementation consumed the stream.
        for m in mask.iter_mut() {
            *m = if self.rng.gen_range(0.0f32..1.0) < keep {
                scale
            } else {
                0.0
            };
        }
        for ((yi, &v), &m) in y.iter_mut().zip(x).zip(mask.iter()) {
            *yi = v * m;
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        let mask = &ctx.scratch[..ctx.grad.len()];
        for ((gi, &g), &m) in grad_in.iter_mut().zip(ctx.grad).zip(mask) {
            *gi = g * m;
        }
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.rng.state())
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::testutil::{infer, single, train};
    use crate::Tensor;

    /// One training forward through a fresh executor.
    fn forward_train(net: &mut crate::Network, x: &Tensor) -> Vec<f32> {
        Executor::new().forward_train(net, x).to_vec()
    }

    #[test]
    fn inference_is_identity() {
        let x = Tensor::from_vec(vec![8], vec![2.0; 8]);
        assert_eq!(infer(&single(Dropout::new(0.9, 0)), &x), x);
    }

    #[test]
    fn training_zeroes_roughly_p_fraction() {
        let x = Tensor::from_vec(vec![10_000], vec![1.0; 10_000]);
        let y = forward_train(&mut single(Dropout::new(0.5, 42)), &x);
        let zeros = y.iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "{zeros} zeros");
        // Survivors are scaled by 2.
        assert!(y.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn expectation_is_preserved() {
        let x = Tensor::from_vec(vec![50_000], vec![1.0; 50_000]);
        let y = forward_train(&mut single(Dropout::new(0.3, 7)), &x);
        let mean: f64 = y.iter().map(|&v| v as f64).sum::<f64>() / 50_000.0;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let x = Tensor::from_vec(vec![100], vec![1.0; 100]);
        let (y, g) = train(&mut single(Dropout::new(0.5, 3)), &x, &[1.0; 100]);
        assert_eq!(y.as_slice(), g.as_slice());
    }

    #[test]
    fn p_zero_is_identity_even_in_training() {
        let x = Tensor::from_vec(vec![4], vec![3.0; 4]);
        let (y, g) = train(&mut single(Dropout::new(0.0, 0)), &x, &[1.0; 4]);
        assert_eq!(y, x);
        assert_eq!(g.as_slice(), &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn p_one_rejected() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn planned_train_draws_match_layer_stream() {
        // Two layers seeded alike must produce the same masks whether
        // driven through the executor or `forward_train_into` directly.
        let mut net = single(Dropout::new(0.5, 77));
        let mut b = Dropout::new(0.5, 77);
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        let mut ex = Executor::new();
        for _ in 0..3 {
            let ya = ex
                .forward_train(&mut net, &Tensor::from_vec(vec![64], x.clone()))
                .to_vec();
            let mut yb = vec![0.0f32; 64];
            let mut scratch = vec![0.0f32; 64];
            b.forward_train_into(&x, &[64], &mut yb, &mut scratch, &mut [], None);
            assert_eq!(ya, yb);
        }
        assert_eq!(net.rng_states(), vec![b.rng_state().unwrap()]);
    }
}
