//! From-scratch CPU neural-network substrate.
//!
//! The paper trains its CNN in TensorFlow; this crate reimplements the
//! required subset natively in Rust, with no external ML dependencies:
//!
//! - [`Tensor`]: a dense CHW tensor (channels × height × width).
//! - [`layers`]: convolution (arbitrary kernel/padding), ReLU, sigmoid,
//!   tanh, 2×2 max pooling, dense, flatten, and inverted dropout — each
//!   implementing [`Layer`]'s slice contract with exact analytic
//!   gradients (validated by finite-difference tests).
//! - [`gemm`]: the matrix-multiply kernels convolution (via im2col) and
//!   dense layers lower onto — runtime-dispatched between AVX-512, AVX2,
//!   and portable scalar backends, with the scalar kernels kept as the
//!   bit-identity oracle (see [`ulp`] for the SIMD comparison contract).
//! - [`loss`]: softmax cross-entropy with **soft targets**, the ingredient
//!   biased learning needs (`y*_n = [1-ε, ε]`).
//! - [`Network`]: a sequential container of layers — parameters,
//!   gradients and RNG streams, with parameter visitation and batched
//!   inference.
//! - [`engine`]: shape-planned execution, the only way a network runs —
//!   a `ShapePlan`/`Workspace` pair that preallocates every intermediate
//!   buffer in one arena and fuses activation epilogues into the GEMM
//!   layers, so steady-state inference and training do zero allocations.
//!   [`engine::Executor`] is the front door for one sample at a time;
//!   [`engine::BatchScorer`] is the one batch scorer, behind the serve
//!   daemon, the scan, [`Network::forward_batch`] and the detector's
//!   `predict_batch`.
//! - [`optim`]: the paper's mini-batch gradient descent step (Algorithm 1)
//!   with step-decayed learning rate.
//! - [`parallel`]: deterministic multi-threaded mini-batch gradients
//!   (the "MGD is compatible with parallel computing" point of §5).
//! - [`parallelism`]: the worker-count policy for batch inference and
//!   the one scoped fan-out, [`parallelism::map_parts`], that the batch
//!   entry points and the scan's bands run on.
//! - [`data`]: seeded mini-batch sampling.
//! - [`serialize`]: flat parameter export/import for model persistence.
//! - [`ulp`]: the ULP-distance contract SIMD kernels are held to.
//!
//! Determinism: all stochastic pieces (init, dropout, batch sampling) take
//! explicit seeds.
//!
//! # Examples
//!
//! Train a tiny MLP on XOR:
//!
//! ```
//! use hotspot_nn::engine::Executor;
//! use hotspot_nn::layers::{Dense, Relu};
//! use hotspot_nn::{loss, optim, Network, Tensor};
//!
//! let mut net = Network::new();
//! net.push(Dense::new(2, 8, 1));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, 2));
//!
//! let xs: Vec<Tensor> = [[0.0f32, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
//!     .iter()
//!     .map(|x| Tensor::from_vec(vec![2], x.to_vec()))
//!     .collect();
//! let targets = [[1.0f32, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]];
//! let data: Vec<(&Tensor, [f32; 2])> = xs.iter().zip(targets).collect();
//!
//! let mut ex = Executor::new();
//! for _ in 0..600 {
//!     optim::minibatch_step(&mut net, &mut ex, &data, 0.5);
//! }
//! for (x, t) in &data {
//!     let p = loss::softmax(ex.infer(&net, x));
//!     assert_eq!(p[1] > 0.5, t[1] > 0.5);
//! }
//! ```

pub mod data;
pub mod engine;
pub mod gemm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod parallel;
pub mod parallelism;
pub mod serialize;
pub mod tensor;
pub mod ulp;

pub use layers::Layer;
pub use network::Network;
pub use parallelism::Parallelism;
pub use tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors from network construction and serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A layer was given an input of the wrong shape.
    ShapeMismatch {
        /// What the layer expected.
        expected: String,
        /// What it received.
        actual: String,
    },
    /// A serialised parameter blob does not match the network.
    ParameterCountMismatch {
        /// Parameters the network holds.
        expected: usize,
        /// Parameters the blob holds.
        actual: usize,
    },
    /// A serialised buffer is malformed (bad magic, unsupported version,
    /// truncation, length/checksum mismatch).
    Format(String),
    /// A runtime configuration value is out of range (zero worker count).
    InvalidConfig(&'static str),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            NnError::ParameterCountMismatch { expected, actual } => {
                write!(
                    f,
                    "parameter count mismatch: network has {expected}, blob has {actual}"
                )
            }
            NnError::Format(why) => write!(f, "malformed parameter data: {why}"),
            NnError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl Error for NnError {}

#[cfg(test)]
mod testutil;
