//! Rectified linear activation.

use super::{BackwardCtx, Epilogue, Layer};

/// Element-wise `ReLU(x) = max(x, 0)` (paper Eq. (5)).
///
/// Reports [`Layer::as_epilogue`] so an execution plan can fuse it into a
/// preceding conv/dense GEMM tail instead of running it as a separate
/// traversal; the fused and standalone paths are bit-identical because
/// both compute `if v > 0.0 { v } else { 0.0 }` per element.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Relu;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Relu::new());
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]);
/// assert_eq!(Executor::new().infer(&net, &x), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
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
        for (yi, &v) in y.iter_mut().zip(x) {
            *yi = if v > 0.0 { v } else { 0.0 };
        }
    }

    fn forward_batch_into(
        &self,
        x: &[f32],
        _in_shape: &[usize],
        _batch: usize,
        y: &mut [f32],
        _scratch: &mut [f32],
        _idx: &mut [usize],
        _epilogue: Option<Epilogue>,
    ) {
        // Element-wise over the whole block: bit-identical per sample.
        for (yi, &v) in y.iter_mut().zip(x) {
            *yi = if v > 0.0 { v } else { 0.0 };
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        // Subgradient convention: ReLU'(0) = 0, matching the forward
        // predicate `x > 0.0` (equivalently `y > 0.0`, which is what the
        // fused-epilogue gradient path uses).
        for ((gi, &g), &v) in grad_in.iter_mut().zip(ctx.grad).zip(ctx.x) {
            *gi = if v > 0.0 { g } else { 0.0 };
        }
    }

    fn as_epilogue(&self) -> Option<Epilogue> {
        Some(Epilogue::Relu)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{infer, single, train};
    use crate::Tensor;

    #[test]
    fn forward_clamps_negatives() {
        let y = infer(
            &single(Relu::new()),
            &Tensor::from_vec(vec![4], vec![-2.0, -0.0, 0.5, 3.0]),
        );
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let (_, g) = train(
            &mut single(Relu::new()),
            &Tensor::from_vec(vec![4], vec![-1.0, 2.0, -3.0, 4.0]),
            &[1.0, 1.0, 1.0, 1.0],
        );
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: ReLU'(0) = 0.
        let (_, g) = train(
            &mut single(Relu::new()),
            &Tensor::from_vec(vec![1], vec![0.0]),
            &[5.0],
        );
        assert_eq!(g.as_slice(), &[0.0]);
    }

    #[test]
    fn preserves_shape() {
        let y = infer(&single(Relu::new()), &Tensor::zeros(vec![2, 3, 4]));
        assert_eq!(y.shape(), &[2, 3, 4]);
        assert_eq!(Relu::new().out_shape(&[2, 3, 4]), vec![2, 3, 4]);
    }

    #[test]
    fn epilogue_gradient_matches_standalone_backward() {
        // grad_from_output on y must equal the x-mask path: for ReLU the
        // post-activation predicate y > 0 is exactly the pre-activation
        // predicate x > 0 (y == x where x > 0, else y == 0).
        let x = [-1.5f32, 0.0, 0.5, 3.0];
        let g = [1.0f32, 2.0, 3.0, 4.0];
        let (_, standalone) = train(
            &mut single(Relu::new()),
            &Tensor::from_vec(vec![4], x.to_vec()),
            &g,
        );
        let y: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        let mut fused = g.to_vec();
        Epilogue::Relu.grad_from_output(&y, &mut fused);
        assert_eq!(standalone.as_slice(), fused.as_slice());
    }
}
