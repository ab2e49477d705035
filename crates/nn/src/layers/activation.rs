//! Smooth activations: sigmoid and tanh.
//!
//! The paper replaces "the traditional sigmoid activation function" with
//! ReLU (§4.1); these layers exist so that claim can be tested — the
//! `activation_ablation` comparisons train the same architecture with each
//! nonlinearity. Both report [`Layer::as_epilogue`] so an execution plan
//! can fuse them into a preceding conv/dense GEMM tail.

use super::{BackwardCtx, Epilogue, Layer};

/// Element-wise logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Sigmoid;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Sigmoid::new());
/// let y = Executor::new().infer(&net, &Tensor::from_vec(vec![1], vec![0.0]))[0];
/// assert!((y - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Sigmoid
    }
}

impl Layer for Sigmoid {
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
            *yi = 1.0 / (1.0 + (-v).exp());
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
            *yi = 1.0 / (1.0 + (-v).exp());
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        // dσ/dx = σ (1 - σ), expressed from the cached output.
        for ((gi, &g), &y) in grad_in.iter_mut().zip(ctx.grad).zip(ctx.y) {
            *gi = g * y * (1.0 - y);
        }
    }

    fn as_epilogue(&self) -> Option<Epilogue> {
        Some(Epilogue::Sigmoid)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Element-wise hyperbolic tangent.
#[derive(Debug, Clone, Default)]
pub struct Tanh;

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Tanh
    }
}

impl Layer for Tanh {
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
            *yi = v.tanh();
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
            *yi = v.tanh();
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        // d tanh/dx = 1 - tanh², expressed from the cached output.
        for ((gi, &g), &y) in grad_in.iter_mut().zip(ctx.grad).zip(ctx.y) {
            *gi = g * (1.0 - y * y);
        }
    }

    fn as_epilogue(&self) -> Option<Epilogue> {
        Some(Epilogue::Tanh)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "tanh"
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
    fn sigmoid_range_and_symmetry() {
        let y = infer(
            &single(Sigmoid::new()),
            &Tensor::from_vec(vec![3], vec![-3.0, 0.0, 3.0]),
        );
        let v = y.as_slice();
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!((v[1] - 0.5).abs() < 1e-6);
        assert!((v[0] + v[2] - 1.0).abs() < 1e-5, "σ(-x) = 1 - σ(x)");
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let x0 = 0.7f32;
        let (_, g) = train(
            &mut single(Sigmoid::new()),
            &Tensor::from_vec(vec![1], vec![x0]),
            &[1.0],
        );
        let eps = 1e-3f32;
        let f = |x: f32| 1.0 / (1.0 + (-x).exp());
        let fd = (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps);
        assert!((g.as_slice()[0] - fd).abs() < 1e-4);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let y = infer(
            &single(Tanh::new()),
            &Tensor::from_vec(vec![3], vec![-2.0, 0.0, 2.0]),
        );
        let v = y.as_slice();
        assert!((v[1]).abs() < 1e-7);
        assert!((v[0] + v[2]).abs() < 1e-6, "tanh is odd");
        assert!(v.iter().all(|&x| x.abs() < 1.0));
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let x0 = -0.4f32;
        let (_, g) = train(
            &mut single(Tanh::new()),
            &Tensor::from_vec(vec![1], vec![x0]),
            &[1.0],
        );
        let eps = 1e-3f32;
        let fd = ((x0 + eps).tanh() - (x0 - eps).tanh()) / (2.0 * eps);
        assert!((g.as_slice()[0] - fd).abs() < 1e-4);
    }

    #[test]
    fn shapes_preserved() {
        let y = infer(&single(Sigmoid::new()), &Tensor::zeros(vec![2, 3, 4]));
        assert_eq!(y.shape(), &[2, 3, 4]);
        assert_eq!(Sigmoid::new().out_shape(&[5]), vec![5]);
        let y = infer(&single(Tanh::new()), &Tensor::zeros(vec![7]));
        assert_eq!(y.shape(), &[7]);
    }

    #[test]
    fn epilogue_gradients_match_standalone_backward() {
        let x = Tensor::from_vec(vec![5], vec![-2.0f32, -0.3, 0.0, 0.8, 2.5]);
        let gs = [1.0f32, -2.0, 0.5, 3.0, -1.0];
        for (mut net, ep) in [
            (single(Sigmoid::new()), Epilogue::Sigmoid),
            (single(Tanh::new()), Epilogue::Tanh),
        ] {
            let (y, standalone) = train(&mut net, &x, &gs);
            let mut fused = gs.to_vec();
            ep.grad_from_output(y.as_slice(), &mut fused);
            assert_eq!(standalone.as_slice(), fused.as_slice());
        }
    }
}
