//! Unit-test helpers: drive a layer or network through the planned
//! [`Executor`] and get tensors back.

use crate::engine::Executor;
use crate::layers::Layer;
use crate::{Network, Tensor};

/// A one-layer network around `layer`. Its plan has a single step, so it
/// fuses nothing: the layer runs exactly as written.
pub(crate) fn single<L: Layer + 'static>(layer: L) -> Network {
    let mut net = Network::new();
    net.push(layer);
    net
}

/// Inference output of `net` on `x`.
pub(crate) fn infer(net: &Network, x: &Tensor) -> Tensor {
    let mut ex = Executor::new();
    let y = ex.infer(net, x).to_vec();
    Tensor::from_vec(out_shape(&ex), y)
}

/// One training forward of `net` on `x`, then a backward of `grad`:
/// returns the output and ∂loss/∂input. Parameter gradients accumulate in
/// `net`.
pub(crate) fn train(net: &mut Network, x: &Tensor, grad: &[f32]) -> (Tensor, Tensor) {
    let mut ex = Executor::new();
    let y = ex.forward_train(net, x).to_vec();
    let gin = ex.backward_input_grad(net, grad).to_vec();
    (
        Tensor::from_vec(out_shape(&ex), y),
        Tensor::from_vec(x.shape().to_vec(), gin),
    )
}

fn out_shape(ex: &Executor) -> Vec<usize> {
    match ex.plan() {
        Some(plan) => plan.out_shape().to_vec(),
        None => unreachable!("a pass just ran"),
    }
}
