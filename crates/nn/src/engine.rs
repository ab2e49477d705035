//! Shape-planned execution: arena-allocated forward/backward passes — the
//! only way a [`Network`] runs.
//!
//! A [`ShapePlan`] is computed once per (network, input shape) and records,
//! for every layer, where its input, output, f32 scratch, and index scratch
//! live inside a single [`Workspace`] arena — plus which standalone
//! activation layers get *fused* into the preceding GEMM layer's epilogue
//! ([`crate::gemm::Epilogue`]). Running a planned pass then touches no
//! allocator at all: after the workspace warms up, a full-layout scan
//! scores every window with zero allocations.
//!
//! # Arena layout
//!
//! ```text
//! acts:    [ input | out L0 | out L1 | ... | out L(n-1) ]   (f32)
//! scratch: [ L0 region | L1 region | ... ]                  (f32; im2col col+dcol, dropout masks)
//! idx:     [ L0 region | L1 region | ... ]                  (usize; maxpool argmax)
//! g_cur / g_nxt: two ping-pong gradient buffers, each as large as the
//!                largest single activation
//! ```
//!
//! Aliasing rules: each step's input region strictly precedes its output
//! region in `acts` (layers are sequential), so the executor can hand a
//! layer `&x` and `&mut y` via `split_at_mut` — no copies, no `unsafe`.
//! In *training* mode, scratch and index regions are per-layer disjoint,
//! which is what lets `backward_with` replay the exact buffers the forward
//! pass wrote. In *inference* mode no step ever re-reads another step's
//! scratch, so every step overlays one shared region at offset 0, sized to
//! the largest single forward footprint
//! ([`crate::Layer::scratch_infer_len`]) — for the paper network that
//! shrinks the scratch arena ~4× and keeps the im2col buffer cache-hot
//! across the whole conv stack. Consequently `backward_with` must follow a
//! `forward_train_with` with no intervening inference pass on the same
//! workspace; the workspace records which kind of pass it last held, and
//! `backward_with` panics after anything but a training forward (an
//! inference forward may leave conv's direct-kernel taps where backward
//! expects the im2col matrix).
//!
//! # Determinism and bit-identity
//!
//! Fusion never changes a bit: a fused epilogue applies the very same
//! per-element expression *after* the GEMM accumulation finished, in
//! index order — exactly what the standalone activation layer would have
//! done one step later — and its gradient goes through
//! [`Epilogue::grad_from_output`], the standalone activation's backward
//! arithmetic. The tests pin this against an unfused reference (the same
//! layers, one per network: a one-layer plan fuses nothing). Batched
//! passes are bit-identical per sample to single-sample ones. Dropout
//! draws its mask stream in strict element order, one draw per element
//! per training forward, so checkpoint/resume stays bit-identical too.
//!
//! # Examples
//!
//! ```
//! use hotspot_nn::engine::Executor;
//! use hotspot_nn::layers::{Dense, Relu};
//! use hotspot_nn::{Network, Tensor};
//!
//! let mut net = Network::new();
//! net.push(Dense::new(4, 8, 0));
//! net.push(Relu::new()); // fused into the dense GEMM epilogue
//! net.push(Dense::new(8, 2, 1));
//!
//! let mut ex = Executor::new();
//! let x = Tensor::from_vec(vec![4], vec![0.1, -0.2, 0.3, -0.4]);
//! let logits = ex.infer(&net, &x).to_vec();
//! assert_eq!(logits.len(), 2);
//!
//! // One training step: forward, loss gradient, backward, update.
//! let mut grad = [0.0f32; 2];
//! net.zero_grads();
//! let logits = ex.forward_train(&mut net, &x);
//! hotspot_nn::loss::softmax_cross_entropy_into(logits, &[0.0, 1.0], &mut grad);
//! ex.backward(&mut net, &grad);
//! net.apply_gradients(0.1);
//! ```

use crate::gemm::Epilogue;
use crate::layers::BackwardCtx;
use crate::{Network, Tensor};

/// One planned layer execution: which layer runs, where its buffers live,
/// and whether a following activation is fused into its epilogue.
#[derive(Debug, Clone)]
struct PlanStep {
    /// Index into the network's layer list.
    layer: usize,
    in_off: usize,
    in_len: usize,
    in_shape: Vec<usize>,
    out_off: usize,
    out_len: usize,
    scratch_off: usize,
    scratch_len: usize,
    /// Forward-only scratch footprint ([`crate::Layer::scratch_infer_len`]);
    /// inference overlays every step's scratch at offset 0 of one shared
    /// region this long or shorter.
    scratch_infer_len: usize,
    idx_off: usize,
    idx_len: usize,
    /// Scratch footprint of the batched forward path
    /// ([`crate::Layer::scratch_batch_len`]) at the plan's batch size;
    /// equals `scratch_infer_len` for single-sample plans.
    scratch_batch_len: usize,
    /// A following element-wise activation fused into this layer's GEMM
    /// tail; the activation layer itself is skipped.
    epilogue: Option<Epilogue>,
}

/// The execution plan for one (network architecture, input shape) pair:
/// arena offsets for every intermediate buffer plus the fusion schedule.
///
/// Plans depend only on layer *types and shapes*, never on parameter
/// values, so one plan stays valid across training steps. Rebuild it only
/// when the input shape or the layer stack changes.
#[derive(Debug, Clone)]
pub struct ShapePlan {
    in_shape: Vec<usize>,
    in_len: usize,
    out_shape: Vec<usize>,
    steps: Vec<PlanStep>,
    acts_len: usize,
    scratch_len: usize,
    idx_len: usize,
    /// Inference-mode scratch length: the *maximum* single-step forward
    /// footprint, since inference steps never re-read earlier scratch and
    /// can all share one region (training needs the disjoint sum above).
    shared_scratch_len: usize,
    /// Inference-mode index scratch length (maximum, shared as above).
    shared_idx_len: usize,
    /// Size of each gradient ping-pong buffer: the largest single
    /// activation the backward pass moves.
    grad_len: usize,
    /// Layer count of the network the plan was built for (sanity check).
    layer_count: usize,
    /// Number of samples one planned pass scores at once. Plans with
    /// `batch > 1` drive [`Network::forward_batch_with`] only — the
    /// single-sample and training entry points reject them. Activation
    /// regions in `acts` hold `batch` samples back to back (per-step
    /// offsets/lengths in `steps` stay per-sample and are scaled by
    /// `batch` at execution time).
    batch: usize,
}

impl ShapePlan {
    /// The input shape the plan was built for.
    pub fn in_shape(&self) -> &[usize] {
        &self.in_shape
    }

    /// The network's output shape under this plan.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Number of output elements.
    pub fn out_len(&self) -> usize {
        self.out_shape.iter().product()
    }

    /// Number of executed steps (fused activations collapse into their
    /// producer, so this can be smaller than the layer count).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// How many steps carry a fused activation epilogue.
    pub fn fused_count(&self) -> usize {
        self.steps.iter().filter(|s| s.epilogue.is_some()).count()
    }

    /// Total f32 activation arena length (input + every layer output,
    /// times the plan's batch size).
    pub fn arena_len(&self) -> usize {
        self.acts_len
    }

    /// Number of samples one planned pass scores at once (1 for plans
    /// built with [`Network::plan`]).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// A batch-block size sized from this plan's arena footprint: as many
    /// samples as keep one block's activations + scratch within a ~1 MiB
    /// f32 budget (so the batched im2col column matrix stays roughly
    /// L2-resident — larger blocks amortise fewer GEMM calls per window
    /// but thrash the cache and measure *slower*), clamped to `1..=64`.
    pub fn suggested_batch(&self) -> usize {
        const BLOCK_BUDGET_F32: usize = 1 << 18;
        let b = self.batch.max(1);
        let per_sample = (self.acts_len / b + self.shared_scratch_len / b).max(1);
        (BLOCK_BUDGET_F32 / per_sample).clamp(1, 64)
    }

    fn out_off(&self) -> usize {
        self.steps.last().map_or(0, |s| s.out_off)
    }
}

/// The reusable buffers a planned pass writes into. Create once (or
/// [`Workspace::default`]) and reuse across calls; buffers grow to the
/// largest plan seen and are never shrunk, so steady-state execution does
/// zero allocations.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    acts: Vec<f32>,
    scratch: Vec<f32>,
    idx: Vec<usize>,
    g_cur: Vec<f32>,
    g_nxt: Vec<f32>,
    /// Whether the arena holds a completed training forward, the only
    /// state `backward_with` may differentiate through.
    trained: bool,
}

impl Workspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Grows the buffers to `plan`'s requirements (`train` also sizes the
    /// gradient ping-pong buffers). Never shrinks.
    pub fn prepare(&mut self, plan: &ShapePlan, train: bool) {
        if self.acts.len() < plan.acts_len {
            self.acts.resize(plan.acts_len, 0.0);
        }
        // Inference shares one scratch overlay across steps, so a
        // forward-only workspace stays ~4x smaller (and cache-hotter) than
        // a training one for conv stacks.
        let (s_need, i_need) = if train {
            (plan.scratch_len, plan.idx_len)
        } else {
            (plan.shared_scratch_len, plan.shared_idx_len)
        };
        if self.scratch.len() < s_need {
            self.scratch.resize(s_need, 0.0);
        }
        if self.idx.len() < i_need {
            self.idx.resize(i_need, 0);
        }
        if train {
            if self.g_cur.len() < plan.grad_len {
                self.g_cur.resize(plan.grad_len, 0.0);
            }
            if self.g_nxt.len() < plan.grad_len {
                self.g_nxt.resize(plan.grad_len, 0.0);
            }
        }
    }
}

impl Network {
    /// Builds the execution plan for `in_shape`: computes every
    /// intermediate shape via [`crate::Layer::out_shape`], lays all
    /// buffers out in one arena, and fuses each standalone element-wise
    /// activation that directly follows a GEMM-backed layer
    /// ([`crate::Layer::accepts_epilogue`]) into that layer's epilogue.
    ///
    /// # Panics
    ///
    /// Panics if `in_shape` is incompatible with any layer (same panics as
    /// the forward pass itself).
    pub fn plan(&self, in_shape: &[usize]) -> ShapePlan {
        self.plan_batch(in_shape, 1)
    }

    /// [`Network::plan`] with a batch dimension: the resulting plan drives
    /// [`Network::forward_batch_with`], scoring `batch` same-shaped
    /// samples per pass. Every activation region holds `batch` samples
    /// back to back and the inference scratch overlay is sized to the
    /// largest batched step footprint ([`crate::Layer::scratch_batch_len`]
    /// — the batched conv column matrix plus its staging buffer). A
    /// `batch` of 1 is exactly [`Network::plan`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `in_shape` is incompatible with any
    /// layer.
    pub fn plan_batch(&self, in_shape: &[usize], batch: usize) -> ShapePlan {
        assert!(batch > 0, "plan batch must be nonzero");
        let layers = self.layers_ref();
        let in_len: usize = in_shape.iter().product();
        let mut steps = Vec::with_capacity(layers.len());
        let mut cur_shape = in_shape.to_vec();
        let mut cur_off = 0usize;
        let mut cur_len = in_len;
        let mut acts_len = in_len;
        let mut scratch_len = 0usize;
        let mut idx_len = 0usize;
        let mut shared_scratch_len = 0usize;
        let mut shared_idx_len = 0usize;
        let mut grad_len = in_len;
        let mut i = 0usize;
        while i < layers.len() {
            let layer = &layers[i];
            let mut out_shape = layer.out_shape(&cur_shape);
            let mut epilogue = None;
            let mut consumed = 1;
            if layer.accepts_epilogue() {
                if let Some(next) = layers.get(i + 1) {
                    if let Some(ep) = next.as_epilogue() {
                        // The activation is element-wise: validate and keep
                        // its (identical) output shape, then skip the layer.
                        out_shape = next.out_shape(&out_shape);
                        epilogue = Some(ep);
                        consumed = 2;
                    }
                }
            }
            let out_len: usize = out_shape.iter().product();
            let s_len = layer.scratch_len(&cur_shape);
            let s_inf = layer.scratch_infer_len(&cur_shape);
            let s_batch = layer.scratch_batch_len(&cur_shape, batch);
            let x_len = layer.idx_len(&cur_shape);
            steps.push(PlanStep {
                layer: i,
                in_off: cur_off,
                in_len: cur_len,
                in_shape: cur_shape,
                out_off: acts_len,
                out_len,
                scratch_off: scratch_len,
                scratch_len: s_len,
                scratch_infer_len: s_inf,
                idx_off: idx_len,
                idx_len: x_len,
                scratch_batch_len: s_batch,
                epilogue,
            });
            scratch_len += s_len;
            idx_len += x_len;
            shared_scratch_len = shared_scratch_len.max(s_batch);
            shared_idx_len = shared_idx_len.max(x_len);
            cur_off = acts_len;
            cur_len = out_len;
            cur_shape = out_shape;
            acts_len += out_len;
            grad_len = grad_len.max(out_len);
            i += consumed;
        }
        ShapePlan {
            in_shape: in_shape.to_vec(),
            in_len,
            out_shape: cur_shape,
            steps,
            // The activation arena holds `batch` samples per region;
            // per-step offsets stay per-sample and are scaled at execution
            // time.
            acts_len: acts_len * batch,
            scratch_len,
            idx_len,
            shared_scratch_len,
            shared_idx_len,
            grad_len,
            layer_count: layers.len(),
            batch,
        }
    }

    fn check_plan(&self, plan: &ShapePlan, input_len: usize) {
        assert_eq!(
            plan.layer_count,
            self.len(),
            "plan was built for a different network"
        );
        assert_eq!(
            plan.batch, 1,
            "single-sample entry point given a batched plan"
        );
        assert_eq!(input_len, plan.in_len, "input length does not match plan");
    }

    /// Inference-mode planned forward pass: writes every activation into
    /// `ws` and returns the output slice (borrowed from the workspace).
    /// Callable through `&self`, so worker threads can share one network
    /// with per-worker workspaces.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match this network or `input` does not
    /// match `plan`.
    pub fn forward_with<'ws>(
        &self,
        plan: &ShapePlan,
        ws: &'ws mut Workspace,
        input: &[f32],
    ) -> &'ws [f32] {
        self.check_plan(plan, input.len());
        ws.prepare(plan, false);
        ws.trained = false;
        if plan.steps.is_empty() {
            // Degenerate empty network: the output *is* the input region.
            ws.acts[..plan.in_len].copy_from_slice(input);
        }
        let layers = self.layers_ref();
        for (si, step) in plan.steps.iter().enumerate() {
            // The input region strictly precedes the output region, so the
            // two disjoint borrows come from one split. Scratch is a single
            // shared overlay (offset 0): no inference step re-reads an
            // earlier step's scratch, and reusing one hot region keeps the
            // im2col buffers resident in cache across the conv stack. The
            // first step reads the caller's slice in place — inference
            // never replays activations, so the input is not copied into
            // the arena at all.
            let (lo, hi) = ws.acts.split_at_mut(step.out_off);
            let x = if si == 0 {
                input
            } else {
                &lo[step.in_off..step.in_off + step.in_len]
            };
            layers[step.layer].forward_into(
                x,
                &step.in_shape,
                &mut hi[..step.out_len],
                &mut ws.scratch[..step.scratch_infer_len],
                &mut ws.idx[..step.idx_len],
                step.epilogue,
            );
        }
        let off = plan.out_off();
        &ws.acts[off..off + plan.out_len()]
    }

    /// Batched planned inference over a plan built with
    /// [`Network::plan_batch`]: `input` holds `plan.batch()` sample-major
    /// inputs back to back, and the returned slice holds the same number
    /// of sample-major outputs. One pass per *layer* scores the whole
    /// block — conv runs one GEMM with `batch·oh·ow` columns, dense one
    /// batched GEMM streaming each weight row once — while each sample's
    /// arithmetic is exactly the per-sample path's, so the result is
    /// **bit-identical** to `plan.batch()` separate
    /// [`Network::forward_with`] calls (see
    /// [`crate::Layer::forward_batch_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match this network or `input` does not
    /// hold exactly `plan.batch()` samples.
    pub fn forward_batch_with<'ws>(
        &self,
        plan: &ShapePlan,
        ws: &'ws mut Workspace,
        input: &[f32],
    ) -> &'ws [f32] {
        assert_eq!(
            plan.layer_count,
            self.len(),
            "plan was built for a different network"
        );
        let b = plan.batch;
        assert_eq!(
            input.len(),
            plan.in_len * b,
            "input length does not match plan batch"
        );
        ws.prepare(plan, false);
        ws.trained = false;
        if plan.steps.is_empty() {
            ws.acts[..plan.in_len * b].copy_from_slice(input);
        }
        let layers = self.layers_ref();
        for (si, step) in plan.steps.iter().enumerate() {
            // Same split discipline as `forward_with`, with every arena
            // offset scaled by the batch size (regions are consecutive, so
            // per-sample offsets × batch are exactly the batched offsets).
            let (lo, hi) = ws.acts.split_at_mut(step.out_off * b);
            let x = if si == 0 {
                input
            } else {
                &lo[step.in_off * b..(step.in_off + step.in_len) * b]
            };
            layers[step.layer].forward_batch_into(
                x,
                &step.in_shape,
                b,
                &mut hi[..step.out_len * b],
                &mut ws.scratch[..step.scratch_batch_len],
                &mut ws.idx[..step.idx_len],
                step.epilogue,
            );
        }
        let off = plan.out_off() * b;
        &ws.acts[off..off + plan.out_len() * b]
    }

    /// Training-mode planned forward pass (dropout draws masks from its
    /// RNG stream, exactly one draw per element in order). The arena then
    /// holds everything [`Network::backward_with`] needs: conv always
    /// takes the im2col path here, whatever the kernel backend, and every
    /// layer's scratch region is its own.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match this network or `input` does not
    /// match `plan`.
    pub fn forward_train_with<'ws>(
        &mut self,
        plan: &ShapePlan,
        ws: &'ws mut Workspace,
        input: &[f32],
    ) -> &'ws [f32] {
        self.check_plan(plan, input.len());
        ws.prepare(plan, true);
        ws.trained = false;
        ws.acts[..plan.in_len].copy_from_slice(input);
        let layers = self.layers_mut();
        for step in &plan.steps {
            let (lo, hi) = ws.acts.split_at_mut(step.out_off);
            layers[step.layer].forward_train_into(
                &lo[step.in_off..step.in_off + step.in_len],
                &step.in_shape,
                &mut hi[..step.out_len],
                &mut ws.scratch[step.scratch_off..step.scratch_off + step.scratch_len],
                &mut ws.idx[step.idx_off..step.idx_off + step.idx_len],
                step.epilogue,
            );
        }
        ws.trained = true;
        let off = plan.out_off();
        &ws.acts[off..off + plan.out_len()]
    }

    /// Planned backward pass over the activations a matching
    /// [`Network::forward_train_with`] left in `ws`: accumulates parameter
    /// gradients layer by layer. Fused epilogue gradients are rescaled
    /// through [`Epilogue::grad_from_output`] before the producing layer's
    /// backward runs — the same arithmetic the standalone activation's
    /// backward would have applied.
    ///
    /// With `input_grad` the pass also computes ∂loss/∂input and returns
    /// it (borrowed from the workspace). Without it the first step skips
    /// its input-gradient half (for a conv-first network, one `gemm_tn`
    /// plus a `col2im` per sample) and the returned slice is empty.
    /// Parameter gradients are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match this network, `loss_grad` does not
    /// match the plan's output length, or the last pass on `ws` was not a
    /// training forward (an inference pass leaves scratch that backward
    /// cannot read, so differentiating through it would silently return
    /// wrong gradients).
    pub fn backward_with<'ws>(
        &mut self,
        plan: &ShapePlan,
        ws: &'ws mut Workspace,
        loss_grad: &[f32],
        input_grad: bool,
    ) -> &'ws [f32] {
        assert_eq!(
            plan.layer_count,
            self.len(),
            "plan was built for a different network"
        );
        assert_eq!(
            plan.batch, 1,
            "single-sample entry point given a batched plan"
        );
        assert_eq!(
            loss_grad.len(),
            plan.out_len(),
            "loss gradient does not match plan output"
        );
        assert!(
            ws.trained,
            "backward_with called before forward_train_with on this workspace"
        );
        ws.prepare(plan, true);
        ws.g_cur[..plan.out_len()].copy_from_slice(loss_grad);
        let layers = self.layers_mut();
        for (si, step) in plan.steps.iter().enumerate().rev() {
            let y = &ws.acts[step.out_off..step.out_off + step.out_len];
            let g = &mut ws.g_cur[..step.out_len];
            if let Some(ep) = step.epilogue {
                ep.grad_from_output(y, g);
            }
            let grad_in = (input_grad || si > 0).then(|| {
                let grad_in = &mut ws.g_nxt[..step.in_len];
                grad_in.fill(0.0);
                grad_in
            });
            layers[step.layer].backward_into(
                BackwardCtx {
                    x: &ws.acts[step.in_off..step.in_off + step.in_len],
                    in_shape: &step.in_shape,
                    y,
                    grad: g,
                    scratch: &mut ws.scratch[step.scratch_off..step.scratch_off + step.scratch_len],
                    idx: &ws.idx[step.idx_off..step.idx_off + step.idx_len],
                },
                grad_in,
            );
            std::mem::swap(&mut ws.g_cur, &mut ws.g_nxt);
        }
        &ws.g_cur[..if input_grad { plan.in_len } else { 0 }]
    }
}

/// A (plan, workspace) pair bound lazily to whatever input shape it sees:
/// the convenient front door to planned execution. The plan is rebuilt
/// only when the input shape or layer count changes; otherwise every call
/// reuses the warm arena.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(3, 2, 0));
/// let mut ex = Executor::new();
/// let p = ex.infer(&net, &Tensor::zeros(vec![3])).to_vec();
/// assert_eq!(p.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Executor {
    plan: Option<ShapePlan>,
    ws: Workspace,
}

impl Executor {
    /// An empty executor; the plan is built on first use.
    pub fn new() -> Self {
        Executor::default()
    }

    /// The current plan, if one has been built.
    pub fn plan(&self) -> Option<&ShapePlan> {
        self.plan.as_ref()
    }

    fn ensure_plan(&mut self, net: &Network, in_shape: &[usize]) {
        let stale = match &self.plan {
            Some(p) => p.in_shape() != in_shape || p.layer_count != net.len(),
            None => true,
        };
        if stale {
            self.plan = Some(net.plan(in_shape));
        }
    }

    /// Planned inference; see [`Network::forward_with`].
    pub fn infer(&mut self, net: &Network, input: &Tensor) -> &[f32] {
        self.ensure_plan(net, input.shape());
        // `ensure_plan` guarantees the plan exists.
        let plan = self.plan.as_ref().unwrap_or_else(|| unreachable!());
        net.forward_with(plan, &mut self.ws, input.as_slice())
    }

    /// Planned training forward; see [`Network::forward_train_with`].
    pub fn forward_train(&mut self, net: &mut Network, input: &Tensor) -> &[f32] {
        self.ensure_plan(net, input.shape());
        let plan = self.plan.as_ref().unwrap_or_else(|| unreachable!());
        net.forward_train_with(plan, &mut self.ws, input.as_slice())
    }

    /// Planned backward over the last [`Executor::forward_train`] pass:
    /// the training backward. Accumulates parameter gradients and skips
    /// the first layer's input gradient, which training never reads, so
    /// the returned slice is always **empty**. Callers that want
    /// ∂loss/∂input use [`Executor::backward_input_grad`]; see
    /// [`Network::backward_with`].
    ///
    /// # Panics
    ///
    /// Panics unless the last pass on this executor was
    /// [`Executor::forward_train`].
    pub fn backward(&mut self, net: &mut Network, loss_grad: &[f32]) -> &[f32] {
        self.backward_impl(net, loss_grad, false)
    }

    /// [`Executor::backward`] that also computes and returns ∂loss/∂input
    /// (borrowed from the workspace) — for gradient checks and for
    /// chaining one network's backward into another's. Parameter
    /// gradients are bit-identical to [`Executor::backward`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless the last pass on this executor was
    /// [`Executor::forward_train`].
    pub fn backward_input_grad(&mut self, net: &mut Network, loss_grad: &[f32]) -> &[f32] {
        self.backward_impl(net, loss_grad, true)
    }

    fn backward_impl(&mut self, net: &mut Network, loss_grad: &[f32], input_grad: bool) -> &[f32] {
        let plan = match &self.plan {
            Some(p) => p,
            // A misuse of the API, not a recoverable state: the workspace
            // holds no activations to differentiate through.
            None => panic!("Executor::backward called before forward_train"),
        };
        net.backward_with(plan, &mut self.ws, loss_grad, input_grad)
    }
}

/// The one batch scorer: every many-input inference in the workspace
/// splits its inputs into blocks and caches their batched plans here. Its
/// users are the serve daemon's micro-batcher, which coalesces however
/// many requests are queued (sizes 3, 7, 1, 12, ...), the layout scan,
/// [`Network::forward_batch`] and the detector's `predict_batch`.
///
/// Inputs are split into blocks of at most [`ShapePlan::suggested_batch`]
/// samples (or a caller's own cap, [`BatchScorer::with_block_cap`]), and
/// one plan is kept *per distinct block size* (at most the cap of them,
/// each a few hundred bytes of offsets), so steady-state scoring replans
/// never and allocates nothing. Callers write each sample straight into
/// the scorer's one-block input buffer ([`BatchScorer::infer_each`]), so
/// memory per call is one block whatever the input count.
///
/// Scores are **bit-identical** to per-sample [`Executor::infer`] for
/// every batch size and split, because batched execution is per-sample
/// exact ([`Network::forward_batch_with`]); how inputs are grouped can
/// therefore never change a score.
#[derive(Debug, Clone, Default)]
pub struct BatchScorer {
    /// Block-size cap fixed at construction; `None` takes the plan's
    /// `suggested_batch`.
    fixed_cap: Option<usize>,
    /// Cache key: the input shape and layer count the plans were built
    /// for; any change drops every plan.
    in_shape: Vec<usize>,
    layer_count: usize,
    /// Block-size cap for the current key, computed once per key.
    cap: usize,
    /// Cached plans, one per distinct block size seen (found by linear
    /// scan — there are at most `cap` of them).
    plans: Vec<ShapePlan>,
    ws: Workspace,
    /// One block of inputs.
    input: Vec<f32>,
}

impl BatchScorer {
    /// An empty scorer; plans are built on first use.
    pub fn new() -> Self {
        BatchScorer::default()
    }

    /// A scorer whose blocks hold at most `cap` samples instead of the
    /// plan's [`ShapePlan::suggested_batch`]: for callers that size their
    /// own blocks, such as a scan's configured score block, or that have
    /// already planned the single-sample shape (so the scorer need not
    /// plan it again). Scores do not depend on the cap; memory and GEMM
    /// width do.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_block_cap(cap: usize) -> Self {
        assert!(cap > 0, "block cap must be nonzero");
        BatchScorer {
            fixed_cap: Some(cap),
            ..BatchScorer::default()
        }
    }

    /// The block-size cap applied to `in_shape` (blocks larger than this
    /// are split). Builds and caches the sizing plan.
    pub fn block_cap(&mut self, net: &Network, in_shape: &[usize]) -> usize {
        self.ensure_key(net, in_shape);
        self.cap
    }

    /// Number of distinct block-size plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    fn ensure_key(&mut self, net: &Network, in_shape: &[usize]) {
        if self.in_shape != in_shape || self.layer_count != net.len() {
            self.in_shape = in_shape.to_vec();
            self.layer_count = net.len();
            self.plans.clear();
            self.cap = self
                .fixed_cap
                .unwrap_or_else(|| net.plan(in_shape).suggested_batch());
        }
    }

    fn plan_for(&mut self, net: &Network, block: usize) -> usize {
        if let Some(idx) = self.plans.iter().position(|p| p.batch() == block) {
            return idx;
        }
        self.plans.push(net.plan_batch(&self.in_shape, block));
        self.plans.len() - 1
    }

    /// Scores `count` samples of `in_shape` (an extracted feature, an
    /// assembled scan window, a queued request's row), a block at a time:
    /// `fill(i, dst)` writes sample `i` into the scorer's one-block input
    /// buffer, and `emit(i, out)` receives sample `i`'s output; both run in
    /// sample order. Blocks hold at most the cap
    /// ([`BatchScorer::block_cap`]) and each runs one GEMM per layer.
    /// Every output is bit-identical to a per-sample [`Executor::infer`]
    /// call, however the blocks split.
    ///
    /// # Errors
    ///
    /// Returns the first error `fill` returns, after emitting every
    /// earlier block.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or a sample's input or output is empty.
    pub fn infer_each<E>(
        &mut self,
        net: &Network,
        in_shape: &[usize],
        count: usize,
        mut fill: impl FnMut(usize, &mut [f32]) -> Result<(), E>,
        mut emit: impl FnMut(usize, &[f32]),
    ) -> Result<(), E> {
        assert!(count > 0, "ragged batch must be nonzero");
        self.ensure_key(net, in_shape);
        let in_len: usize = in_shape.iter().product();
        let block_len = self.cap.min(count) * in_len;
        if self.input.len() < block_len {
            self.input.resize(block_len, 0.0);
        }
        let mut done = 0;
        while done < count {
            let block = (count - done).min(self.cap);
            let input = &mut self.input[..block * in_len];
            for (j, dst) in input.chunks_exact_mut(in_len).enumerate() {
                fill(done + j, dst)?;
            }
            let idx = self.plan_for(net, block);
            let plan = &self.plans[idx];
            let out = net.forward_batch_with(plan, &mut self.ws, &self.input[..block * in_len]);
            for (j, y) in out.chunks_exact(plan.out_len()).enumerate() {
                emit(done + j, y);
            }
            done += block;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2, Relu, Sigmoid, Tanh};
    use crate::loss;

    /// Appends `layer` to the last network of `nets`, or to a new one
    /// when `split`.
    fn push<L: Layer + 'static>(nets: &mut Vec<Network>, split: bool, layer: L) {
        if split || nets.is_empty() {
            nets.push(Network::new());
        }
        if let Some(net) = nets.last_mut() {
            net.push(layer);
        }
    }

    /// The paper-like test stack: one network, or (`split`) the same
    /// layers one per network.
    fn paper_like_stack(split: bool) -> Vec<Network> {
        let mut nets = Vec::new();
        push(&mut nets, split, Conv2d::new(2, 4, 3, 1, 5));
        push(&mut nets, split, Relu::new());
        push(&mut nets, split, MaxPool2::new());
        push(&mut nets, split, Flatten::new());
        push(&mut nets, split, Dense::new(4 * 3 * 3, 8, 6));
        push(&mut nets, split, Relu::new());
        push(&mut nets, split, Dropout::new(0.5, 7));
        push(&mut nets, split, Dense::new(8, 2, 8));
        nets
    }

    fn paper_like_net() -> Network {
        paper_like_stack(false).remove(0)
    }

    /// The unfused reference for [`paper_like_net`]: its layers one per
    /// network, chained through one executor each. A one-layer plan fuses
    /// nothing, so every activation runs as a standalone layer.
    struct Unfused {
        nets: Vec<Network>,
        exs: Vec<Executor>,
    }

    impl Unfused {
        fn new() -> Self {
            let nets = paper_like_stack(true);
            let exs = nets.iter().map(|_| Executor::new()).collect();
            Unfused { nets, exs }
        }

        fn forward(&mut self, x: &Tensor, train: bool) -> Vec<f32> {
            let mut cur = x.clone();
            for (net, ex) in self.nets.iter_mut().zip(&mut self.exs) {
                let y = if train {
                    ex.forward_train(net, &cur).to_vec()
                } else {
                    ex.infer(net, &cur).to_vec()
                };
                cur = Tensor::from_vec(ex.plan().unwrap().out_shape().to_vec(), y);
            }
            cur.into_vec()
        }

        fn backward(&mut self, loss_grad: &[f32]) -> Vec<f32> {
            let mut g = loss_grad.to_vec();
            for (net, ex) in self.nets.iter_mut().zip(&mut self.exs).rev() {
                g = ex.backward_input_grad(net, &g).to_vec();
            }
            g
        }

        fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            for net in &mut self.nets {
                net.visit_params(visitor);
            }
        }
    }

    fn wavy_input(len: usize, shape: Vec<usize>) -> Tensor {
        Tensor::from_vec(shape, (0..len).map(|i| (i as f32 * 0.37).sin()).collect())
    }

    #[test]
    fn plan_fuses_gemm_activation_pairs() {
        let net = paper_like_net();
        let plan = net.plan(&[2, 6, 6]);
        // 8 layers, 2 fused relus -> 6 steps.
        assert_eq!(plan.step_count(), 6);
        assert_eq!(plan.fused_count(), 2);
        assert_eq!(plan.out_shape(), &[2]);
    }

    #[test]
    fn inference_scratch_is_a_shared_overlay() {
        let net = paper_like_net();
        let plan = net.plan(&[2, 6, 6]);
        // Conv scratch is col+dcol when training, col alone at inference;
        // inference additionally shares one region instead of summing.
        let conv_col = 2 * 9 * 6 * 6;
        assert_eq!(plan.shared_scratch_len, conv_col);
        assert_eq!(plan.scratch_len, 2 * conv_col + 8); // + dropout mask
        assert!(plan.shared_scratch_len < plan.scratch_len);
        // An inference-only workspace allocates the small overlay.
        let mut ws = Workspace::new();
        ws.prepare(&plan, false);
        assert_eq!(ws.scratch.len(), plan.shared_scratch_len);
        // Training afterwards grows it to the disjoint layout.
        ws.prepare(&plan, true);
        assert_eq!(ws.scratch.len(), plan.scratch_len);
    }

    #[test]
    fn sigmoid_and_tanh_fuse_too() {
        for (net, expect) in [
            {
                let mut n = Network::new();
                n.push(Dense::new(3, 4, 0));
                n.push(Sigmoid::new());
                n.push(Dense::new(4, 2, 1));
                n.push(Tanh::new());
                (n, 2)
            },
            {
                // Activation after a non-GEMM layer stays standalone.
                let mut n = Network::new();
                n.push(Flatten::new());
                n.push(Relu::new());
                (n, 2)
            },
        ] {
            let plan = net.plan(&[3]);
            assert_eq!(plan.step_count(), expect);
        }
    }

    #[test]
    fn planned_inference_is_bit_identical_to_unfused() {
        let net = paper_like_net();
        let x = wavy_input(2 * 6 * 6, vec![2, 6, 6]);
        let reference = Unfused::new().forward(&x, false);
        let plan = net.plan(&[2, 6, 6]);
        assert_eq!(plan.fused_count(), 2);
        let mut ws = Workspace::new();
        let planned = net.forward_with(&plan, &mut ws, x.as_slice()).to_vec();
        assert_eq!(planned, reference);
        // And through the executor front door.
        let mut ex = Executor::new();
        assert_eq!(ex.infer(&net, &x), &reference[..]);
    }

    #[test]
    fn planned_training_step_matches_unfused_gradients_bitwise() {
        // Run one forward/backward on two identical parameter sets — one
        // fused plan, one chain of one-layer plans — and compare every
        // accumulated gradient bit-for-bit.
        let mut unfused = Unfused::new();
        let mut planned_net = paper_like_net();
        let x = wavy_input(2 * 6 * 6, vec![2, 6, 6]);
        let loss_grad = vec![0.7f32, -0.3];

        let y_unfused = unfused.forward(&x, true);
        let gin_unfused = unfused.backward(&loss_grad);

        let plan = planned_net.plan(&[2, 6, 6]);
        let mut ws = Workspace::new();
        let y_planned = planned_net
            .forward_train_with(&plan, &mut ws, x.as_slice())
            .to_vec();
        let gin_planned = planned_net
            .backward_with(&plan, &mut ws, &loss_grad, true)
            .to_vec();

        assert_eq!(y_planned, y_unfused);
        assert_eq!(gin_planned, gin_unfused);

        let mut grads_unfused = Vec::new();
        unfused.visit_params(&mut |_, g| grads_unfused.push(g.to_vec()));
        let mut grads_planned = Vec::new();
        planned_net.visit_params(&mut |_, g| grads_planned.push(g.to_vec()));
        assert_eq!(grads_unfused, grads_planned);

        // Both consumed the dropout stream identically.
        let rngs: Vec<[u64; 4]> = unfused.nets.iter().flat_map(|n| n.rng_states()).collect();
        assert_eq!(rngs, planned_net.rng_states());
    }

    #[test]
    fn skipping_the_first_input_gradient_is_exact() {
        // One training step two ways, on whatever backend this process
        // resolved: the training backward (conv-first, so it skips conv's
        // dX) and the input-gradient path. Parameter gradients and the
        // dropout streams must agree bit for bit.
        let x = wavy_input(2 * 6 * 6, vec![2, 6, 6]);
        let run = |input_grad: bool| {
            let mut net = paper_like_net();
            let mut ex = Executor::new();
            let mut g = [0.0f32; 2];
            net.zero_grads();
            let y = ex.forward_train(&mut net, &x);
            loss::softmax_cross_entropy_into(y, &[0.0, 1.0], &mut g);
            let gin_len = if input_grad {
                ex.backward_input_grad(&mut net, &g).len()
            } else {
                ex.backward(&mut net, &g).len()
            };
            let mut grads = Vec::new();
            net.visit_params(&mut |_, g| grads.push(g.to_vec()));
            (gin_len, grads, net.rng_states())
        };
        let (skip_len, skip_grads, skip_rngs) = run(false);
        let (full_len, full_grads, full_rngs) = run(true);
        assert_eq!(skip_len, 0);
        assert_eq!(full_len, 2 * 6 * 6);
        assert_eq!(skip_grads, full_grads);
        assert_eq!(skip_rngs, full_rngs);
    }

    #[test]
    fn repeated_training_steps_stay_bit_identical() {
        let mut unfused = Unfused::new();
        let mut planned_net = paper_like_net();
        let plan = planned_net.plan(&[2, 6, 6]);
        let mut ws = Workspace::new();
        let target = [1.0f32, 0.0];
        for step in 0..4 {
            let x = Tensor::from_vec(
                vec![2, 6, 6],
                (0..72)
                    .map(|i| ((i + step * 72) as f32 * 0.21).cos())
                    .collect(),
            );
            let mut gu = [0.0f32; 2];
            unfused.nets.iter_mut().for_each(Network::zero_grads);
            let yu = unfused.forward(&x, true);
            loss::softmax_cross_entropy_into(&yu, &target, &mut gu);
            unfused.backward(&gu);
            unfused
                .nets
                .iter_mut()
                .for_each(|n| n.apply_gradients(0.05));

            let mut gp = [0.0f32; 2];
            planned_net.zero_grads();
            let yp = planned_net.forward_train_with(&plan, &mut ws, x.as_slice());
            loss::softmax_cross_entropy_into(yp, &target, &mut gp);
            planned_net.backward_with(&plan, &mut ws, &gp, false);
            planned_net.apply_gradients(0.05);
        }
        let mut wu = Vec::new();
        unfused.visit_params(&mut |w, _| wu.push(w.to_vec()));
        let mut wp = Vec::new();
        planned_net.visit_params(&mut |w, _| wp.push(w.to_vec()));
        assert_eq!(wu, wp);
    }

    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_after_executor_inference_panics() {
        // An inference pass may leave conv's direct-kernel taps where
        // backward reads the im2col matrix: refused, on every backend.
        let mut net = paper_like_net();
        let x = wavy_input(2 * 6 * 6, vec![2, 6, 6]);
        let mut ex = Executor::new();
        let _ = ex.forward_train(&mut net, &x);
        let _ = ex.infer(&net, &x);
        let _ = ex.backward(&mut net, &[0.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_after_batched_inference_panics() {
        let mut net = paper_like_net();
        let plan = net.plan(&[2, 6, 6]);
        let batch_plan = net.plan_batch(&[2, 6, 6], 2);
        let x = wavy_input(2 * 6 * 6, vec![2, 6, 6]);
        let mut ws = Workspace::new();
        let _ = net.forward_train_with(&plan, &mut ws, x.as_slice());
        let _ = net.forward_batch_with(&batch_plan, &mut ws, &[0.25; 2 * 2 * 6 * 6]);
        let _ = net.backward_with(&plan, &mut ws, &[0.5, -0.5], false);
    }

    #[test]
    fn batched_planned_inference_is_bit_identical_to_per_window() {
        let net = paper_like_net();
        let plan1 = net.plan(&[2, 6, 6]);
        let in_len = 2 * 6 * 6;
        for &batch in &[1usize, 2, 3, 7] {
            let xs: Vec<f32> = (0..in_len * batch)
                .map(|i| (i as f32 * 0.29).sin())
                .collect();
            let planb = net.plan_batch(&[2, 6, 6], batch);
            assert_eq!(planb.batch(), batch);
            let mut wsb = Workspace::new();
            let batched = net.forward_batch_with(&planb, &mut wsb, &xs).to_vec();
            let mut ws1 = Workspace::new();
            let mut single = Vec::new();
            for b in 0..batch {
                single.extend_from_slice(net.forward_with(
                    &plan1,
                    &mut ws1,
                    &xs[b * in_len..(b + 1) * in_len],
                ));
            }
            assert_eq!(batched, single, "batch={batch}");
        }
    }

    /// Scores `batch` samples of `in_shape`, held back to back in `xs`,
    /// through [`BatchScorer::infer_each`]; returns the outputs back to
    /// back.
    fn score_packed(
        scorer: &mut BatchScorer,
        net: &Network,
        xs: &[f32],
        in_shape: &[usize],
        batch: usize,
    ) -> Vec<f32> {
        let in_len: usize = in_shape.iter().product();
        let mut out = Vec::new();
        let mut order = Vec::new();
        let filled = scorer.infer_each(
            net,
            in_shape,
            batch,
            |i, dst| {
                dst.copy_from_slice(&xs[i * in_len..(i + 1) * in_len]);
                Ok::<(), ()>(())
            },
            |i, y| {
                order.push(i);
                out.extend_from_slice(y);
            },
        );
        assert_eq!(filled, Ok(()));
        assert_eq!(order, (0..batch).collect::<Vec<_>>(), "emit order");
        out
    }

    #[test]
    fn ragged_scorer_is_bit_identical_for_every_size_and_split() {
        let net = paper_like_net();
        let in_shape = [2usize, 6, 6];
        let in_len = 2 * 6 * 6;
        let max_batch = 9;
        let xs: Vec<f32> = (0..in_len * max_batch)
            .map(|i| (i as f32 * 0.53).cos())
            .collect();
        // Per-sample reference.
        let mut ex = Executor::new();
        let mut reference = Vec::new();
        for b in 0..max_batch {
            let x = Tensor::from_vec(in_shape.to_vec(), xs[b * in_len..(b + 1) * in_len].to_vec());
            reference.extend_from_slice(ex.infer(&net, &x));
        }
        let out_len = reference.len() / max_batch;
        let mut scorer = BatchScorer::new();
        // Every prefix size, scored in one ragged call, matches the
        // per-sample reference bitwise — independent of scoring order.
        for batch in 1..=max_batch {
            let scores = score_packed(&mut scorer, &net, &xs, &in_shape, batch);
            assert_eq!(scores.len(), batch * out_len);
            for (i, (a, b)) in scores.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch} output {i}");
            }
        }
    }

    #[test]
    fn ragged_scorer_splits_oversized_batches_and_caches_plans() {
        // A fat dense layer drives suggested_batch down to a small cap, so
        // a modest batch exercises the splitting path.
        let mut net = Network::new();
        net.push(Dense::new(6000, 50, 3));
        net.push(Relu::new());
        net.push(Dense::new(50, 2, 4));
        let mut scorer = BatchScorer::new();
        let cap = scorer.block_cap(&net, &[6000]);
        assert!(cap >= 1);
        let batch = 2 * cap + 1; // two full blocks plus a ragged tail
        let xs: Vec<f32> = (0..6000 * batch).map(|i| (i as f32 * 0.11).sin()).collect();
        let scores = score_packed(&mut scorer, &net, &xs, &[6000], batch);
        // Bit-identical to per-sample inference.
        let mut ex = Executor::new();
        for b in 0..batch {
            let x = Tensor::from_vec(vec![6000], xs[b * 6000..(b + 1) * 6000].to_vec());
            let single = ex.infer(&net, &x);
            for (i, (a, r)) in scores[b * 2..b * 2 + 2].iter().zip(single).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "sample {b} output {i}");
            }
        }
        // Steady state keeps at most two plans (full block + this tail),
        // and re-scoring the same sizes builds no more.
        let cached = scorer.cached_plans();
        assert!(cached <= 2, "cached {cached} plans");
        let _ = score_packed(&mut scorer, &net, &xs, &[6000], batch);
        assert_eq!(scorer.cached_plans(), cached);
    }

    #[test]
    fn ragged_scorer_fills_capped_blocks_one_sample_at_a_time() {
        let net = paper_like_net();
        let in_shape = [2usize, 6, 6];
        let in_len = 2 * 6 * 6;
        let xs: Vec<f32> = (0..in_len * 9).map(|i| (i as f32 * 0.53).cos()).collect();
        let mut ex = Executor::new();
        let reference: Vec<f32> = xs
            .chunks_exact(in_len)
            .flat_map(|x| {
                ex.infer(&net, &Tensor::from_vec(in_shape.to_vec(), x.to_vec()))
                    .to_vec()
            })
            .collect();
        let mut scorer = BatchScorer::with_block_cap(4);
        assert_eq!(scorer.block_cap(&net, &in_shape), 4);
        for count in 1..=9 {
            let got = score_packed(&mut scorer, &net, &xs, &in_shape, count);
            assert_eq!(got.len(), count * 2);
            for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "count {count} output {i}");
            }
        }
        // Blocks of 4 plus every tail size seen: 1, 2 and 3.
        assert_eq!(scorer.cached_plans(), 4);
        // A failing fill stops at its block; earlier blocks were emitted.
        let mut emitted = 0;
        let failed = scorer.infer_each(
            &net,
            &in_shape,
            9,
            |i, dst| {
                dst.fill(0.0);
                if i == 5 {
                    Err(i)
                } else {
                    Ok(())
                }
            },
            |_, _| emitted += 1,
        );
        assert_eq!(failed, Err(5));
        assert_eq!(emitted, 4);
    }

    #[test]
    #[should_panic(expected = "ragged batch must be nonzero")]
    fn ragged_scorer_rejects_zero_batch() {
        let net = paper_like_net();
        let mut scorer = BatchScorer::new();
        let _ = score_packed(&mut scorer, &net, &[], &[2, 6, 6], 0);
    }

    #[test]
    fn batched_plan_scales_arena_and_keeps_batch1_identical() {
        let net = paper_like_net();
        let p1 = net.plan(&[2, 6, 6]);
        let p4 = net.plan_batch(&[2, 6, 6], 4);
        assert_eq!(p1.batch(), 1);
        assert_eq!(p4.arena_len(), 4 * p1.arena_len());
        // Batched conv needs col + staging per block, strictly more than
        // four shared single-sample overlays would.
        assert!(p4.shared_scratch_len > 4 * p1.shared_scratch_len / 2);
        // suggested_batch is sane on both.
        assert!((1..=64).contains(&p1.suggested_batch()));
        assert!((1..=64).contains(&p4.suggested_batch()));
    }

    #[test]
    #[should_panic(expected = "single-sample entry point")]
    fn single_sample_entry_points_reject_batched_plans() {
        let net = paper_like_net();
        let plan = net.plan_batch(&[2, 6, 6], 2);
        let mut ws = Workspace::new();
        let _ = net.forward_with(&plan, &mut ws, &[0.0; 2 * 6 * 6]);
    }

    #[test]
    #[should_panic(expected = "batch must be nonzero")]
    fn zero_batch_plan_is_rejected() {
        let net = paper_like_net();
        let _ = net.plan_batch(&[2, 6, 6], 0);
    }

    #[test]
    fn empty_network_batched_is_identity() {
        let net = Network::new();
        let plan = net.plan_batch(&[2], 3);
        let mut ws = Workspace::new();
        let y = net.forward_batch_with(&plan, &mut ws, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(y, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn executor_replans_on_shape_change() {
        let mut net = Network::new();
        net.push(Conv2d::new(1, 2, 3, 1, 0));
        net.push(Relu::new());
        let mut ex = Executor::new();
        let a = ex.infer(&net, &Tensor::zeros(vec![1, 4, 4])).len();
        assert_eq!(a, 2 * 4 * 4);
        let b = ex.infer(&net, &Tensor::zeros(vec![1, 6, 6])).len();
        assert_eq!(b, 2 * 6 * 6);
        let c = ex.infer(&net, &Tensor::zeros(vec![1, 4, 4])).len();
        assert_eq!(c, 2 * 4 * 4);
    }

    #[test]
    fn empty_network_is_identity() {
        let net = Network::new();
        let plan = net.plan(&[3]);
        assert_eq!(plan.out_shape(), &[3]);
        let mut ws = Workspace::new();
        let y = net.forward_with(&plan, &mut ws, &[1.0, 2.0, 3.0]);
        assert_eq!(y, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "different network")]
    fn plan_from_other_network_is_rejected() {
        let net = paper_like_net();
        let other = Network::new();
        let plan = other.plan(&[5]);
        let mut ws = Workspace::new();
        let _ = net.forward_with(&plan, &mut ws, &[0.0; 5]);
    }

    #[test]
    fn gradcheck_fused_epilogues_against_finite_difference() {
        // Gradient-check the fused conv+relu and dense+sigmoid blocks: the
        // analytic planned gradient must match central differences of the
        // planned inference loss.
        let mut net = Network::new();
        net.push(Conv2d::new(1, 2, 3, 1, 3));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Dense::new(2 * 4 * 4, 3, 4));
        net.push(Sigmoid::new());
        net.push(Dense::new(3, 2, 5));
        let x = wavy_input(16, vec![1, 4, 4]);
        let target = [0.0f32, 1.0];

        let plan = net.plan(&[1, 4, 4]);
        let mut ws = Workspace::new();
        net.zero_grads();
        let y = net
            .forward_train_with(&plan, &mut ws, x.as_slice())
            .to_vec();
        let (_, g) = loss::softmax_cross_entropy(&Tensor::from_vec(vec![2], y), &target);
        net.backward_with(&plan, &mut ws, g.as_slice(), true);

        let mut analytic = Vec::new();
        net.visit_params(&mut |_, g| analytic.push(g.to_vec()));

        // Finite differences through planned inference.
        let eps = 1e-2f32;
        let mut numeric: Vec<Vec<f32>> = Vec::new();
        let mut slot = 0usize;
        loop {
            let mut lens = Vec::new();
            net.visit_params(&mut |w, _| lens.push(w.len()));
            if slot >= lens.len() {
                break;
            }
            let mut grads = vec![0.0f32; lens[slot]];
            for j in 0..lens[slot] {
                let mut eval = |delta: f32| {
                    let mut s = 0usize;
                    net.visit_params(&mut |w, _| {
                        if s == slot {
                            w[j] += delta;
                        }
                        s += 1;
                    });
                    let logits = Executor::new().infer(&net, &x).to_vec();
                    let (l, _) =
                        loss::softmax_cross_entropy(&Tensor::from_vec(vec![2], logits), &target);
                    let mut s = 0usize;
                    net.visit_params(&mut |w, _| {
                        if s == slot {
                            w[j] -= delta;
                        }
                        s += 1;
                    });
                    l
                };
                let lp = eval(eps);
                let lm = eval(-eps);
                grads[j] = (lp - lm) / (2.0 * eps);
            }
            numeric.push(grads);
            slot += 1;
        }
        assert_eq!(analytic.len(), numeric.len());
        for (a, n) in analytic.iter().zip(&numeric) {
            for (&av, &nv) in a.iter().zip(n) {
                assert!(
                    (av - nv).abs() <= 2e-2_f32.max(5e-2 * nv.abs()),
                    "analytic {av} vs numeric {nv}"
                );
            }
        }
    }
}
