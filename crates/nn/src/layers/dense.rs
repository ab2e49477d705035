//! Fully-connected layer.

use super::{BackwardCtx, Epilogue, Layer};
use crate::{gemm, init};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully-connected (affine) layer `y = W·x + b` on rank-1 tensors.
///
/// Weight layout: `[out][in]`, row-major. Forward and backward are routed
/// through the shared [`crate::gemm`] kernels (`y = W·x` is
/// [`gemm::gemm_nt_fused`] with `x` as a 1-row right operand — optionally
/// applying a fused activation epilogue to the output while it is still
/// cache-hot — `dW += g⊗x` is the rank-1 [`gemm::gemm_nn`] update, and
/// `dX = Wᵀ·g` is [`gemm::gemm_tn`]'s matrix-transpose-vector fast path).
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::{Dense, Layer};
///
/// let fc = Dense::new(288, 250, 7);
/// assert_eq!(fc.out_shape(&[288]), vec![250]);
/// assert_eq!(fc.parameter_count(), 288 * 250 + 250);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights (seeded).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0, "zero dense dimension");
        let mut rng = StdRng::seed_from_u64(seed);
        Dense {
            in_features,
            out_features,
            weights: init::he_normal(in_features * out_features, in_features, &mut rng),
            bias: vec![0.0; out_features],
            grad_weights: vec![0.0; in_features * out_features],
            grad_bias: vec![0.0; out_features],
        }
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Panics unless `in_shape` holds `in_features` values. Allocates
    /// nothing, so the forward passes can check every call.
    fn check_input(&self, in_shape: &[usize]) {
        let len: usize = in_shape.iter().product();
        assert_eq!(
            len, self.in_features,
            "dense expected {} inputs, got {:?}",
            self.in_features, in_shape
        );
    }
}

impl Layer for Dense {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        self.check_input(in_shape);
        vec![self.out_features]
    }

    fn forward_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        _scratch: &mut [f32],
        _idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        self.check_input(in_shape);
        assert_eq!(y.len(), self.out_features, "dense output length");
        // y = b, then y += W·x (an out×1 gemm against x as a 1×in Bᵀ).
        y.copy_from_slice(&self.bias);
        gemm::gemm_nt_fused(
            self.out_features,
            1,
            self.in_features,
            &self.weights,
            x,
            y,
            epilogue,
        );
    }

    fn forward_batch_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        batch: usize,
        y: &mut [f32],
        _scratch: &mut [f32],
        _idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        self.check_input(in_shape);
        assert_eq!(x.len(), self.in_features * batch, "dense batched input");
        assert_eq!(y.len(), self.out_features * batch, "dense batched output");
        // Seed every sample's output with the bias, then one batched GEMM
        // streams each weight row once for the whole block. Per-sample
        // arithmetic (one `dot` per output element, bias seeded first) is
        // exactly the n = 1 path of `forward_into`, so results are
        // bit-identical to scoring samples one at a time.
        for ys in y.chunks_exact_mut(self.out_features) {
            ys.copy_from_slice(&self.bias);
        }
        gemm::gemm_nt_batched_fused(
            self.out_features,
            batch,
            self.in_features,
            &self.weights,
            x,
            y,
            epilogue,
        );
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        assert_eq!(ctx.grad.len(), self.out_features, "dense grad shape");
        let g = ctx.grad;
        for (gb, &go) in self.grad_bias.iter_mut().zip(g) {
            *gb += go;
        }
        // dW += g ⊗ x: rank-1 update (k = 1) into the running gradient.
        gemm::gemm_nn(
            self.out_features,
            self.in_features,
            1,
            g,
            ctx.x,
            &mut self.grad_weights,
        );
        // dX = Wᵀ·g (grad_in arrives zero-filled).
        if let Some(grad_in) = grad_in {
            assert_eq!(grad_in.len(), self.in_features, "dense grad_in length");
            gemm::gemm_tn(
                self.in_features,
                1,
                self.out_features,
                &self.weights,
                g,
                grad_in,
            );
        }
    }

    fn accepts_epilogue(&self) -> bool {
        true
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.weights, &mut self.grad_weights);
        visitor(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weights.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> &'static str {
        "fc"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{infer, single, train};
    use crate::{Network, Tensor};

    fn fixed_dense() -> Network {
        // 2 -> 2 with W = [[1, 2], [3, 4]], b = [10, 20].
        let mut d = Dense::new(2, 2, 0);
        let mut call = 0;
        d.visit_params(&mut |w, _| {
            if call == 0 {
                w.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            } else {
                w.copy_from_slice(&[10.0, 20.0]);
            }
            call += 1;
        });
        single(d)
    }

    #[test]
    fn forward_matches_hand_computation() {
        let y = infer(&fixed_dense(), &Tensor::from_vec(vec![2], vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn backward_gradients_match_hand_computation() {
        let mut d = fixed_dense();
        let (_, gin) = train(
            &mut d,
            &Tensor::from_vec(vec![2], vec![5.0, -1.0]),
            &[1.0, 2.0],
        );
        // dX = Wᵀ·g = [1*1+3*2, 2*1+4*2] = [7, 10].
        assert_eq!(gin.as_slice(), &[7.0, 10.0]);
        let mut seen = Vec::new();
        d.visit_params(&mut |_, g| seen.push(g.to_vec()));
        // dW = g ⊗ x = [[5,-1],[10,-2]]; db = g.
        assert_eq!(seen[0], vec![5.0, -1.0, 10.0, -2.0]);
        assert_eq!(seen[1], vec![1.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = fixed_dense();
        for _ in 0..3 {
            let _ = train(
                &mut d,
                &Tensor::from_vec(vec![2], vec![1.0, 0.0]),
                &[1.0, 0.0],
            );
        }
        let mut gb = Vec::new();
        d.visit_params(&mut |_, g| gb.push(g.to_vec()));
        assert_eq!(gb[1][0], 3.0);
        d.zero_grads();
        let mut gb2 = Vec::new();
        d.visit_params(&mut |_, g| gb2.push(g.to_vec()));
        assert!(gb2[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accepts_flattened_rank3_input() {
        let y = infer(&single(Dense::new(12, 3, 1)), &Tensor::zeros(vec![3, 2, 2]));
        assert_eq!(y.shape(), &[3]);
    }

    #[test]
    #[should_panic(expected = "dense expected")]
    fn rejects_wrong_input_len() {
        let _ = infer(&single(Dense::new(4, 2, 0)), &Tensor::zeros(vec![5]));
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_sample() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &batch in &[1usize, 2, 7, 16] {
            let d = Dense::new(9, 5, 3);
            let x: Vec<f32> = (0..9 * batch)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            for ep in [None, Some(Epilogue::Relu), Some(Epilogue::Sigmoid)] {
                let mut batched = vec![0.0f32; 5 * batch];
                d.forward_batch_into(&x, &[9], batch, &mut batched, &mut [], &mut [], ep);
                let mut single = vec![0.0f32; 5 * batch];
                for b in 0..batch {
                    d.forward_into(
                        &x[b * 9..(b + 1) * 9],
                        &[9],
                        &mut single[b * 5..(b + 1) * 5],
                        &mut [],
                        &mut [],
                        ep,
                    );
                }
                assert_eq!(batched, single, "batch={batch} ep={ep:?}");
            }
        }
    }

    #[test]
    fn fused_sigmoid_epilogue_is_bit_identical_to_unfused() {
        use super::super::Sigmoid;
        let d = Dense::new(4, 3, 5);
        let x = Tensor::from_vec(vec![4], vec![0.3, -1.2, 0.7, 2.0]);
        let mut y_fused = vec![0.0f32; 3];
        d.forward_into(
            x.as_slice(),
            &[4],
            &mut y_fused,
            &mut [],
            &mut [],
            Some(Epilogue::Sigmoid),
        );
        let unfused = infer(&single(Sigmoid::new()), &infer(&single(d), &x));
        assert_eq!(y_fused.as_slice(), unfused.as_slice());
    }
}
