//! Shape flattening between convolutional and dense stages.

use super::{BackwardCtx, Epilogue, Layer};

/// Flattens any input tensor to rank 1; backward restores the shape.
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::{Flatten, Layer};
///
/// assert_eq!(Flatten::new().out_shape(&[32, 3, 3]), vec![288]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        vec![in_shape.iter().product()]
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
        y.copy_from_slice(x);
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
        // One copy for the whole block — per-sample slices are contiguous,
        // so this is bit-identical to the per-sample loop.
        y.copy_from_slice(x);
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        grad_in.copy_from_slice(ctx.grad);
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "flatten"
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
    fn roundtrip_restores_shape() {
        let x = Tensor::from_vec(vec![2, 2, 3], (0..12).map(|v| v as f32).collect());
        let (y, g) = train(&mut single(Flatten::new()), &x, x.as_slice());
        assert_eq!(y.shape(), &[12]);
        assert_eq!(g.shape(), &[2, 2, 3]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn rank1_passthrough() {
        let x = Tensor::from_vec(vec![5], vec![1.0; 5]);
        assert_eq!(infer(&single(Flatten::new()), &x).shape(), &[5]);
    }
}
