//! Network layers with analytic gradients.
//!
//! Every layer implements [`Layer`] through the *planned* slice contract:
//! [`Layer::out_shape`] reports output shapes, [`Layer::scratch_len`] /
//! [`Layer::idx_len`] report workspace requirements, and
//! [`Layer::forward_into`] / [`Layer::backward_into`] write into
//! caller-provided slices so an execution plan ([`crate::engine`]) can run
//! a whole network without a single allocation. That contract is the only
//! way a layer runs: networks execute through [`crate::engine::Executor`]
//! (or the [`crate::Network`] `*_with` entry points beneath it).
//!
//! Parameter/gradient pairs are exposed through [`Layer::visit_params`],
//! which the optimiser and the serialiser both use — layers stay ignorant
//! of the update rule.

mod activation;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod pool;
mod relu;

pub use activation::{Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::MaxPool2;
pub use relu::Relu;

pub use crate::gemm::Epilogue;
use std::fmt;

/// Everything a layer's `backward_into` may need, borrowed from the
/// buffers its matching training forward pass wrote in a planned
/// [`crate::engine::Workspace`] arena.
///
/// Aliasing rules: `x` and `y` come from the activation arena (shared
/// borrows), `scratch` is the layer's private forward scratch region
/// (mutable — conv reuses it for the `dcol` buffer), `idx` the private
/// index region (maxpool argmax). All four are disjoint slices.
pub struct BackwardCtx<'a> {
    /// The layer's forward input.
    pub x: &'a [f32],
    /// The forward input's shape.
    pub in_shape: &'a [usize],
    /// The layer's forward output (post any fused epilogue).
    pub y: &'a [f32],
    /// ∂loss/∂output.
    pub grad: &'a [f32],
    /// The f32 scratch region this layer's forward wrote (im2col columns,
    /// dropout masks); conv's backward also writes its `dcol` half.
    pub scratch: &'a mut [f32],
    /// The index scratch region this layer's forward wrote (argmax).
    pub idx: &'a [usize],
}

/// A differentiable network layer.
///
/// The surface is the planned slice contract (`out_shape`,
/// `forward_into`, `backward_into`, plus workspace sizing); layers own no
/// activation buffers, only parameters, gradients and RNG streams. Layers
/// must be [`Send`] so network replicas can run on worker threads
/// ([`crate::parallel`]) and [`Sync`] so a single network can serve
/// concurrent inference calls through caller-owned workspaces.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Output shape for `in_shape`, validating the input shape with the
    /// same panics the forward pass would raise. Used by execution
    /// planning and architecture tables (the paper's Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `in_shape` is incompatible with the layer.
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize>;

    /// Length of the f32 scratch region `forward_into`/`backward_into`
    /// need for this input shape (0 for most layers; conv's im2col `col`
    /// plus backward `dcol`, dropout's mask).
    fn scratch_len(&self, _in_shape: &[usize]) -> usize {
        0
    }

    /// Length of the index scratch region (maxpool argmax; 0 otherwise).
    fn idx_len(&self, _in_shape: &[usize]) -> usize {
        0
    }

    /// Length of the f32 scratch `forward_into` alone touches. Defaults to
    /// [`Layer::scratch_len`]; layers whose scratch is partly
    /// backward-only (conv's `dcol` half) report the smaller forward
    /// footprint so planned inference can overlay a single shared scratch
    /// region across all steps instead of disjoint per-layer regions.
    fn scratch_infer_len(&self, in_shape: &[usize]) -> usize {
        self.scratch_len(in_shape)
    }

    /// Inference-mode forward pass writing into caller-provided slices:
    /// `y` must hold `out_shape(in_shape)` elements, `scratch` / `idx`
    /// must be at least `scratch_len` / `idx_len` long. No layer state is
    /// mutated and no RNG is drawn, so `&self` calls may run concurrently
    /// with per-caller buffers.
    ///
    /// `epilogue` is a fused follow-on activation: layers that report
    /// [`Layer::accepts_epilogue`] apply it inside their GEMM tail
    /// ([`crate::gemm::gemm_nn_fused`]); for every other layer the planner
    /// never passes `Some`.
    ///
    /// With `epilogue = Some(ep)` the result must be **bit-identical** to
    /// running this layer unfused and then the standalone activation: the
    /// same arithmetic in the same order, differing only in where results
    /// land.
    ///
    /// # Panics
    ///
    /// Panics if a slice length is inconsistent with `in_shape`.
    fn forward_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        scratch: &mut [f32],
        idx: &mut [usize],
        epilogue: Option<Epilogue>,
    );

    /// Length of the f32 scratch region [`Layer::forward_batch_into`]
    /// needs to score `batch` samples of `in_shape` at once. Defaults to
    /// the single-sample [`Layer::scratch_infer_len`] (the default batched
    /// path loops over samples reusing one scratch region); layers with a
    /// genuinely batched kernel (conv) override this with their per-block
    /// footprint.
    fn scratch_batch_len(&self, in_shape: &[usize], _batch: usize) -> usize {
        self.scratch_infer_len(in_shape)
    }

    /// Inference-mode forward pass over a block of `batch` samples stored
    /// sample-major: `x` holds `batch` inputs of `in_shape` back to back,
    /// `y` receives `batch` outputs back to back. `scratch` must be at
    /// least [`Layer::scratch_batch_len`] long and `idx` at least
    /// [`Layer::idx_len`] long.
    ///
    /// Contract: **bit-identical per sample** to calling
    /// [`Layer::forward_into`] once per sample. The default implementation
    /// is exactly that loop (safe for every layer, including dropout,
    /// whose inference pass draws no RNG); GEMM-backed layers override it
    /// to run one batched kernel whose per-sample arithmetic is unchanged
    /// (conv batches over independent GEMM columns, dense streams each
    /// weight row once via [`crate::gemm::gemm_nt_batched`]).
    ///
    /// # Panics
    ///
    /// Panics if a slice length is inconsistent with `in_shape` × `batch`.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        batch: usize,
        y: &mut [f32],
        scratch: &mut [f32],
        idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        let in_len: usize = in_shape.iter().product();
        assert_eq!(x.len(), in_len * batch, "batched input length");
        assert!(
            batch == 0 || y.len().is_multiple_of(batch),
            "batched output length must divide evenly"
        );
        let out_len = y.len().checked_div(batch).unwrap_or(0);
        let scratch_len = self.scratch_infer_len(in_shape);
        let idx_len = self.idx_len(in_shape);
        for j in 0..batch {
            self.forward_into(
                &x[j * in_len..(j + 1) * in_len],
                in_shape,
                &mut y[j * out_len..(j + 1) * out_len],
                &mut scratch[..scratch_len],
                &mut idx[..idx_len],
                epilogue,
            );
        }
    }

    /// Training-mode forward pass. Defaults to [`Layer::forward_into`];
    /// only stochastic layers (dropout) override it to draw masks from
    /// their RNG stream. Caches whatever `backward_into` will need in
    /// `scratch` / `idx`.
    fn forward_train_into(
        &mut self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        scratch: &mut [f32],
        idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        self.forward_into(x, in_shape, y, scratch, idx, epilogue);
    }

    /// Propagates `ctx.grad` (∂loss/∂output) backwards: accumulates
    /// parameter gradients internally and, when `grad_in` is `Some`,
    /// writes ∂loss/∂input into it. The caller provides that slice
    /// **zero-filled** (scatter-add layers rely on this).
    ///
    /// `grad_in = None` skips the input-gradient half outright: the
    /// executor passes it for the first layer of a training backward,
    /// whose input gradient nothing reads. Parameter gradients never
    /// depend on that half, so they are bit-identical either way.
    ///
    /// A fused epilogue's gradient is *not* this layer's business: the
    /// planner rescales `ctx.grad` through
    /// [`Epilogue::grad_from_output`] before calling `backward_into`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent slice lengths.
    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>);

    /// Whether this layer can fuse a following activation into its output
    /// epilogue (the GEMM-backed conv and dense layers).
    fn accepts_epilogue(&self) -> bool {
        false
    }

    /// If this layer *is* a pure element-wise activation, the epilogue it
    /// fuses into a preceding GEMM layer; `None` otherwise.
    fn as_epilogue(&self) -> Option<Epilogue> {
        None
    }

    /// Visits every (parameters, gradients) slice pair of the layer.
    /// Parameter-free layers do nothing.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Clears accumulated parameter gradients.
    fn zero_grads(&mut self);

    /// A short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Clones the layer behind the trait object (parameters, gradients and
    /// RNG state included) — the basis of [`crate::Network`]'s `Clone`, which
    /// parallel training uses to give each worker its own replica.
    fn boxed_clone(&self) -> Box<dyn Layer>;

    /// The layer's internal RNG state, if it has one (dropout masks).
    ///
    /// Checkpoint/resume uses this: restoring parameters alone is not
    /// enough to make a resumed training run bit-identical, because
    /// stochastic layers keep advancing their streams across steps.
    /// Deterministic layers return `None` (the default).
    fn rng_state(&self) -> Option<[u64; 4]> {
        None
    }

    /// Restores an RNG state captured by [`Layer::rng_state`]. A no-op for
    /// deterministic layers (the default).
    fn set_rng_state(&mut self, _state: [u64; 4]) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}
