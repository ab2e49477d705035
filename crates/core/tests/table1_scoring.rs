//! Scoring invariants of the Table-1 network (k = 32, 12×12) on 96
//! seeded windows, on whichever GEMM backend this process runs
//! (`HOTSPOT_SIMD`):
//!
//! * per-window planned scores ([`Network::forward_with`]) equal
//!   [`BatchScorer::infer_each`] scores bit for bit on every backend;
//! * both equal the [`legacy`] scoring loop bit for bit on the scalar
//!   backend, and stay within the 64 ULP / 1e-5 envelope of it on SIMD;
//! * batched scoring makes fewer GEMM calls per window than per-window
//!   scoring, and more than zero;
//! * after its warm-up window the per-window path allocates nothing, and
//!   after one warm pass the batched path allocates nothing per block.
//!
//! A test binary of its own with a single `#[test]`: the GEMM call
//! counter is process-wide, and the counting allocator is this binary's
//! global allocator. The allocator counts per thread, so only the test's
//! own allocations reach its counts.

use hotspot_core::CnnConfig;
use hotspot_nn::engine::{BatchScorer, Workspace};
use hotspot_nn::gemm::{gemm_call_count, kernel_backend};
use hotspot_nn::ulp::{assert_ulp_close, ulp_distance};
use hotspot_nn::{loss, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with a per-thread count of allocation events
/// (alloc and realloc; frees are not counted).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation events on the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WINDOWS: usize = 96;

/// `WINDOWS` windows of xorshift features in [-1, 1), one flat buffer, as
/// a scan assembles them.
fn seeded_features(feat_len: usize) -> Vec<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..WINDOWS * feat_len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Scores every window through one [`BatchScorer`]; returns the GEMM
/// calls and the allocations the pass made.
fn batched_pass(
    scorer: &mut BatchScorer,
    net: &Network,
    in_shape: &[usize],
    features: &[f32],
    scores: &mut [f32],
) -> (u64, u64) {
    let feat_len = features.len() / WINDOWS;
    let mut soft = [0.0f32; 2];
    let (g0, a0) = (gemm_call_count(), allocs());
    let filled = scorer.infer_each(
        net,
        in_shape,
        WINDOWS,
        |i, dst| {
            dst.copy_from_slice(&features[i * feat_len..(i + 1) * feat_len]);
            Ok::<(), std::convert::Infallible>(())
        },
        |i, y| {
            loss::softmax_into(y, &mut soft);
            scores[i] = soft[1];
        },
    );
    let Ok(()) = filled;
    (gemm_call_count() - g0, allocs() - a0)
}

#[test]
fn table1_scoring_paths_agree_batch_and_allocate_nothing() {
    let cfg = CnnConfig::default();
    let (k, n) = (cfg.input_channels, cfg.input_grid);
    assert_eq!((k, n), (32, 12), "the Table-1 input shape");
    let mut net = cfg.build();
    let in_shape = [k, n, n];
    let feat_len = k * n * n;
    let features = seeded_features(feat_len);
    let backend = kernel_backend();

    // The legacy loop runs on a copy of the seeded weights.
    let mut params: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |w, _| params.push(w.to_vec()));
    let legacy = legacy::Model::from_params(&cfg, params);
    let legacy_scores: Vec<f32> = features
        .chunks_exact(feat_len)
        .map(|x| loss::softmax(&legacy.forward_inference(x))[1])
        .collect();

    // Per-window planned path: the first window plans the workspace, and
    // every later one must leave the allocator alone.
    let plan = net.plan(&in_shape);
    let mut ws = Workspace::new();
    let mut soft = [0.0f32; 2];
    let mut planned_scores = vec![0.0f32; WINDOWS];
    let (g0, mut a0) = (gemm_call_count(), allocs());
    for (i, (x, s)) in features
        .chunks_exact(feat_len)
        .zip(planned_scores.iter_mut())
        .enumerate()
    {
        loss::softmax_into(net.forward_with(&plan, &mut ws, x), &mut soft);
        *s = soft[1];
        if i == 0 {
            a0 = allocs();
        }
    }
    let planned_allocs = allocs() - a0;
    let planned_gemm = gemm_call_count() - g0;

    // Batched path: one warm pass builds the block and tail plans and the
    // arena; a second pass must allocate nothing in any block.
    let mut scorer = BatchScorer::new();
    let mut batched_scores = vec![0.0f32; WINDOWS];
    batched_pass(&mut scorer, &net, &in_shape, &features, &mut batched_scores);
    let (batched_gemm, batched_allocs) =
        batched_pass(&mut scorer, &net, &in_shape, &features, &mut batched_scores);
    let blocks = WINDOWS.div_ceil(scorer.block_cap(&net, &in_shape));

    let per_window = |calls: u64| calls as f64 / WINDOWS as f64;
    let max_ulp = legacy_scores
        .iter()
        .zip(&batched_scores)
        .map(|(&a, &b)| ulp_distance(a, b))
        .max()
        .unwrap_or(0);
    eprintln!(
        "[{}] GEMM calls per window {:.2} -> {:.2} ({blocks} blocks), \
         max {max_ulp} ULP from the legacy loop",
        backend.name(),
        per_window(planned_gemm),
        per_window(batched_gemm),
    );

    let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&planned_scores),
        bits(&batched_scores),
        "batched scores diverged from the per-window path"
    );
    if backend.is_simd() {
        // SIMD lanes reassociate each reduction, so the scalar legacy loop
        // is reachable only within the ULP envelope.
        assert_ulp_close(&planned_scores, &legacy_scores, 64, 1e-5);
    } else {
        assert_eq!(
            bits(&planned_scores),
            bits(&legacy_scores),
            "the scalar kernels' FLOP order moved away from the legacy loop"
        );
    }

    assert!(
        0 < batched_gemm && batched_gemm < planned_gemm,
        "batched GEMM calls {batched_gemm} not in (0, {planned_gemm})"
    );
    assert_eq!(
        planned_allocs, 0,
        "the per-window path allocated after its warm-up window"
    );
    assert_eq!(
        batched_allocs, 0,
        "the batched path allocated in a warm pass of {blocks} blocks"
    );
}

/// The scan scoring loop as it was before the shape-planned execution
/// engine, kept as the scalar oracle:
///
/// * `gemm_nn` / `gemm_nt` / `dot` with index-based inner loops (bounds
///   checks intact);
/// * `im2col` into a freshly allocated, zero-initialised column buffer
///   per call;
/// * one fresh output buffer per layer call, with ReLU as a separate
///   full-tensor pass (no fused epilogues);
/// * inference-time dropout and flatten as copies.
///
/// Its per-element FLOP order is the scalar kernels' order, so on the
/// scalar backend every score must match the planned paths bit for bit.
mod legacy {
    use hotspot_core::CnnConfig;

    const KC: usize = 256;

    /// `C[m×n] += A[m×k] · B[k×n]`, index-based loops.
    fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                let mut p = p0;
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                    let b0 = &b[p * n..p * n + n];
                    let b1 = &b[(p + 1) * n..(p + 1) * n + n];
                    let b2 = &b[(p + 2) * n..(p + 2) * n + n];
                    let b3 = &b[(p + 3) * n..(p + 3) * n + n];
                    for j in 0..n {
                        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = a_row[p];
                    if av != 0.0 {
                        let b_row = &b[p * n..p * n + n];
                        for j in 0..n {
                            c_row[j] += av * b_row[j];
                        }
                    }
                    p += 1;
                }
            }
            p0 = p1;
        }
    }

    /// Four accumulators over index-based loads.
    fn dot(x: &[f32], y: &[f32]) -> f32 {
        let k = x.len().min(y.len());
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let mut p = 0;
        while p + 4 <= k {
            s0 += x[p] * y[p];
            s1 += x[p + 1] * y[p + 1];
            s2 += x[p + 2] * y[p + 2];
            s3 += x[p + 3] * y[p + 3];
            p += 4;
        }
        while p < k {
            s0 += x[p] * y[p];
            p += 1;
        }
        (s0 + s1) + (s2 + s3)
    }

    /// `gemm_nt` at the dense-forward call shape (`n == 1`): the 2×2 tile
    /// degenerates to row-pair dot products.
    fn gemm_nt_vec(m: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut i = 0;
        while i + 2 <= m {
            c[i] += dot(&a[i * k..(i + 1) * k], b);
            c[i + 1] += dot(&a[(i + 1) * k..(i + 2) * k], b);
            i += 2;
        }
        if i < m {
            c[i] += dot(&a[i * k..(i + 1) * k], b);
        }
    }

    /// A 3×3 "same"-padding convolution.
    struct Conv {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_c: usize,
        out_c: usize,
    }

    impl Conv {
        fn new(weights: Vec<f32>, bias: Vec<f32>, in_c: usize, out_c: usize) -> Self {
            assert_eq!(weights.len(), out_c * in_c * 9, "conv weight length");
            assert_eq!(bias.len(), out_c, "conv bias length");
            Conv {
                weights,
                bias,
                in_c,
                out_c,
            }
        }

        /// Fresh zero-filled `col`, fresh output, bias broadcast, then GEMM.
        fn forward(&self, x: &[f32], h: usize, w: usize) -> Vec<f32> {
            let (k, pad) = (3usize, 1isize);
            let (oh, ow) = (h, w); // "same" padding
            let mut col = vec![0.0f32; self.in_c * k * k * oh * ow];
            for ic in 0..self.in_c {
                let plane = &x[ic * h * w..(ic + 1) * h * w];
                for ky in 0..k {
                    for kx in 0..k {
                        let row_base = ((ic * k + ky) * k + kx) * oh * ow;
                        let dst = &mut col[row_base..row_base + oh * ow];
                        let ox0 = 0isize.max(pad - kx as isize) as usize;
                        let ox1 = (ow as isize).min(w as isize + pad - kx as isize).max(0) as usize;
                        if ox0 >= ox1 {
                            continue; // whole column samples the zero padding
                        }
                        let shift = kx as isize - pad;
                        for oy in 0..oh {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue; // row stays zero
                            }
                            let src_base = iy as usize * w;
                            let src = &plane[(src_base as isize + ox0 as isize + shift) as usize
                                ..(src_base as isize + ox1 as isize + shift) as usize];
                            dst[oy * ow + ox0..oy * ow + ox1].copy_from_slice(src);
                        }
                    }
                }
            }
            let mut out = vec![0.0f32; self.out_c * oh * ow];
            for (oc, &b) in self.bias.iter().enumerate() {
                out[oc * oh * ow..(oc + 1) * oh * ow].fill(b);
            }
            gemm_nn(
                self.out_c,
                oh * ow,
                self.in_c * k * k,
                &self.weights,
                &col,
                &mut out,
            );
            out
        }
    }

    /// A fully-connected layer.
    struct Dense {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
    }

    impl Dense {
        fn new(weights: Vec<f32>, bias: Vec<f32>, in_f: usize, out_f: usize) -> Self {
            assert_eq!(weights.len(), out_f * in_f, "dense weight length");
            assert_eq!(bias.len(), out_f, "dense bias length");
            Dense {
                weights,
                bias,
                in_f,
                out_f,
            }
        }

        fn forward(&self, x: &[f32]) -> Vec<f32> {
            assert_eq!(x.len(), self.in_f, "dense input length");
            let mut y = self.bias.clone();
            gemm_nt_vec(self.out_f, self.in_f, &self.weights, x, &mut y);
            y
        }
    }

    /// ReLU as a separate full-tensor pass into a fresh buffer.
    fn relu(x: &[f32]) -> Vec<f32> {
        x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect()
    }

    /// 2×2 max-pool: strict-`>` scan from `-inf`.
    fn maxpool(x: &[f32], c: usize, h: usize, w: usize) -> Vec<f32> {
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Vec::with_capacity(c * oh * ow);
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let v = x[(ch * h + oy * 2 + dy) * w + ox * 2 + dx];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out.push(best);
                }
            }
        }
        out
    }

    /// The paper's network wired through the legacy layers.
    pub struct Model {
        conv1: Conv,
        conv2: Conv,
        conv3: Conv,
        conv4: Conv,
        dense1: Dense,
        dense2: Dense,
        grid: usize,
    }

    impl Model {
        /// `params` in [`hotspot_nn::Network::visit_params`] order: a
        /// (weights, bias) pair per parametric layer.
        pub fn from_params(cfg: &CnnConfig, params: Vec<Vec<f32>>) -> Self {
            assert_eq!(params.len(), 12, "4 conv + 2 dense parameter pairs");
            let mut p = params.into_iter();
            let mut pair = || (p.next().unwrap(), p.next().unwrap());
            let (s1, s2, n) = (cfg.stage1_maps, cfg.stage2_maps, cfg.input_grid);
            let conv = |(w, b): (Vec<f32>, Vec<f32>), i, o| Conv::new(w, b, i, o);
            let dense = |(w, b): (Vec<f32>, Vec<f32>), i, o| Dense::new(w, b, i, o);
            Model {
                conv1: conv(pair(), cfg.input_channels, s1),
                conv2: conv(pair(), s1, s1),
                conv3: conv(pair(), s1, s2),
                conv4: conv(pair(), s2, s2),
                dense1: dense(pair(), s2 * (n / 4) * (n / 4), cfg.fc_width),
                dense2: dense(pair(), cfg.fc_width, 2),
                grid: n,
            }
        }

        /// Every layer returns a fresh buffer; flatten and inference-time
        /// dropout are identity copies.
        pub fn forward_inference(&self, x: &[f32]) -> Vec<f32> {
            let n = self.grid;
            let a = relu(&self.conv1.forward(x, n, n));
            let a = relu(&self.conv2.forward(&a, n, n));
            let a = maxpool(&a, self.conv2.out_c, n, n);
            let a = relu(&self.conv3.forward(&a, n / 2, n / 2));
            let a = relu(&self.conv4.forward(&a, n / 2, n / 2));
            let a = maxpool(&a, self.conv4.out_c, n / 2, n / 2);
            let a = a.to_vec(); // flatten
            let a = relu(&self.dense1.forward(&a));
            let a = a.to_vec(); // inference-time dropout (identity copy)
            self.dense2.forward(&a)
        }
    }
}
