//! Shape-planned execution engine benchmark: window-scoring throughput
//! and steady-state allocation counts of the arena-based planned path —
//! per-window and batched (one GEMM per layer per block of windows) —
//! versus the PR 3 scan baseline.
//!
//! The baseline arm is a verbatim reconstruction of the scoring loop the
//! scan engine shipped with before the execution-plan refactor (see the
//! [`pr3`] module): per-window feature-tensor materialisation, a fresh
//! set of intermediate buffers for every layer call, activations as
//! separate passes, and the pre-refactor GEMM/im2col kernels. Running
//! both arms interleaved in one process makes the comparison immune to
//! machine drift between benchmark runs.
//!
//! A counting global allocator tracks every heap allocation, so the
//! benchmark can assert the tentpole property directly: after the first
//! window plans the workspace, scoring further windows through the
//! planned path performs **zero** allocations — and after a warm-up pass,
//! the batched path scores whole blocks with zero allocations per block —
//! while the baseline pays a fresh set of buffers per window. All three
//! arms are cross-checked on every rep, with the check keyed to the
//! active GEMM backend ([`hotspot_nn::gemm::kernel_backend`]):
//!
//! * **scalar** (forced with `HOTSPOT_SIMD=scalar`): every path must
//!   reproduce the same scores **bit-identically** or the benchmark
//!   aborts — GEMM-column independence and the batched `dot()`-kernel
//!   dense path preserve the exact per-element FLOP order, and the PR 3
//!   reconstruction is scalar by construction.
//! * **avx2 / avx512**: the SIMD kernels accumulate in vector lanes with
//!   FMA, so scores are checked against the scalar reconstruction with
//!   the crate-wide bounded-ULP envelope instead
//!   ([`hotspot_nn::ulp::assert_ulp_close`]); the planned and batched
//!   arms share a backend and must still agree bit-for-bit.
//!
//! When a SIMD backend is active the benchmark additionally re-executes
//! itself once with `HOTSPOT_SIMD=scalar` to measure the *batched scalar*
//! arm under identical machine conditions, and reports
//! `speedup_vs_scalar` — SIMD batched windows/s over scalar batched
//! windows/s, the PR 6 acceptance metric. A global GEMM-call counter
//! additionally records how many GEMM invocations each planned arm spends
//! per window (the batched arm amortises one call per layer over a whole
//! block).
//!
//! ```text
//! cargo run --release -p hotspot-bench --bin engine -- \
//!     --windows 512 --reps 5
//! ```
//!
//! Writes `results/BENCH_engine.json` (override the directory with
//! `--out`).

use hotspot_bench::ExperimentArgs;
use hotspot_core::CnnConfig;
use hotspot_nn::engine::{BatchScorer, Workspace};
use hotspot_nn::{loss, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapped with an allocation counter (alloc + realloc
/// events; frees are not counted — the metric is "how often does scoring
/// hit the allocator", not live bytes).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn main() {
    let args = ExperimentArgs::from_env();
    let out_dir = args.string("out", "results");
    let windows = args.usize("windows", 512).max(2);
    let reps = args.usize("reps", 5).max(1);
    let k = args.usize("k", 32);
    let n = args.usize("grid", 12);

    // The paper's architecture at its real feature dimensions; weights
    // stay at their seeded initialisation — throughput and allocation
    // behaviour do not depend on convergence.
    let cfg = CnnConfig {
        input_grid: n,
        input_channels: k,
        ..CnnConfig::default()
    };
    let mut net = cfg.build();

    // Snapshot the parameters for the PR 3 reconstruction: visit order is
    // layer order, (weights, bias) per parametric layer.
    let mut params: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |w, _| params.push(w.to_vec()));
    assert_eq!(
        params.len(),
        12,
        "expected 4 conv + 2 dense parameter pairs"
    );
    let baseline = pr3::Model {
        conv1: pr3::Conv::new(params[0].clone(), params[1].clone(), k, cfg.stage1_maps),
        conv2: pr3::Conv::new(
            params[2].clone(),
            params[3].clone(),
            cfg.stage1_maps,
            cfg.stage1_maps,
        ),
        conv3: pr3::Conv::new(
            params[4].clone(),
            params[5].clone(),
            cfg.stage1_maps,
            cfg.stage2_maps,
        ),
        conv4: pr3::Conv::new(
            params[6].clone(),
            params[7].clone(),
            cfg.stage2_maps,
            cfg.stage2_maps,
        ),
        dense1: pr3::Dense::new(
            params[8].clone(),
            params[9].clone(),
            cfg.stage2_maps * (n / 4) * (n / 4),
            cfg.fc_width,
        ),
        dense2: pr3::Dense::new(params[10].clone(), params[11].clone(), cfg.fc_width, 2),
        grid: n,
    };

    // Synthetic window features in one flat buffer, seeded so every run
    // scores the same set — the same layout `scan()` assembles in its
    // feature-extraction phase.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    };
    let feat_len = k * n * n;
    let features_flat: Vec<f32> = (0..windows * feat_len).map(|_| next()).collect();
    eprintln!("[engine] scoring {windows} windows ({k}x{n}x{n} features), {reps} rep(s)");

    // Legacy arm: the PR 3 scan scoring loop, reconstructed in [`pr3`].
    // Each window materialises an owned feature `Tensor`, runs the
    // pre-refactor allocating forward (fresh buffers per layer call,
    // activations as separate passes, pre-PR 4 kernels), and takes an
    // allocating softmax; tensors accumulate in growing vectors exactly
    // as `scan()` collected them.
    //
    // The two arms alternate rep-by-rep so both sample the same machine
    // conditions (shared CPUs show bursty contention that would otherwise
    // bias whichever phase ran in a quiet window); each arm keeps its
    // fastest rep.
    let mut legacy_scores = vec![0.0f32; windows];
    let mut legacy_secs = f64::INFINITY;
    let mut legacy_allocs = 0u64;

    // Planned-path state: the current scan scoring loop — one plan and
    // workspace scoring windows straight from the flat feature buffer,
    // warmed on the first window; steady-state allocations are measured
    // over every window after it.
    let mut planned_scores = vec![0.0f32; windows];
    let mut planned_secs = f64::INFINITY;
    let mut steady_allocs = 0u64;
    let mut ws = Workspace::new();
    let mut soft = vec![0.0f32; 2];
    let plan = net.plan(&[k, n, n]);

    // Batched-path state: the scan's scoring loop — blocks of windows
    // copied into one `BatchScorer` capped at the block size and scored
    // one GEMM per layer per block; the scorer caches a plan for the full
    // block and one for the ragged final block. A full warm-up pass builds
    // both plans and sizes the input block and the shared arena, after
    // which scoring a block allocates nothing.
    let block = args
        .usize("block", plan.suggested_batch())
        .min(windows)
        .max(1);
    let n_blocks = windows.div_ceil(block);
    let mut batched_scores = vec![0.0f32; windows];
    let mut batched_secs = f64::INFINITY;
    let mut batched_steady_allocs = 0u64;
    let mut scorer = BatchScorer::with_block_cap(block);
    let mut softb = vec![0.0f32; 2];
    let feat_len = k * n * n;
    let mut batched_pass = |out: &mut [f32], soft: &mut [f32]| {
        let filled = scorer.infer_each(
            &net,
            &[k, n, n],
            windows,
            |i, dst| {
                dst.copy_from_slice(&features_flat[i * feat_len..(i + 1) * feat_len]);
                Ok::<(), std::convert::Infallible>(())
            },
            |i, y| {
                loss::softmax_into(y, soft);
                out[i] = soft[1];
            },
        );
        let Ok(()) = filled;
    };
    // Warm-up: one full pass builds the block and tail plans and the
    // arena, so every rep below measures steady state.
    batched_pass(&mut batched_scores, &mut softb);

    for _ in 0..reps {
        // Legacy rep.
        let before = alloc_count();
        let start = Instant::now();
        let mut feats: Vec<Tensor> = Vec::new();
        for chunk in features_flat.chunks_exact(feat_len) {
            feats.push(Tensor::from_vec(vec![k, n, n], chunk.to_vec()));
        }
        let logits: Vec<Vec<f32>> = feats
            .iter()
            .map(|x| baseline.forward_inference(x.as_slice()))
            .collect();
        for (l, s) in logits.iter().zip(legacy_scores.iter_mut()) {
            *s = loss::softmax(l)[1];
        }
        legacy_secs = legacy_secs.min(start.elapsed().as_secs_f64());
        legacy_allocs = alloc_count() - before;
        drop(logits);
        drop(feats);

        // Planned rep.
        let start = Instant::now();
        // Warm-up window: builds (or confirms) the plan and arena.
        let logits = net.forward_with(&plan, &mut ws, &features_flat[..feat_len]);
        loss::softmax_into(logits, &mut soft);
        planned_scores[0] = soft[1];
        let before = alloc_count();
        for (chunk, s) in features_flat
            .chunks_exact(feat_len)
            .zip(planned_scores.iter_mut())
            .skip(1)
        {
            let logits = net.forward_with(&plan, &mut ws, chunk);
            loss::softmax_into(logits, &mut soft);
            *s = soft[1];
        }
        steady_allocs = alloc_count() - before;
        planned_secs = planned_secs.min(start.elapsed().as_secs_f64());

        // Batched rep: warm arena (block + tail plans) — a full pass must
        // touch the allocator zero times.
        let before = alloc_count();
        let start = Instant::now();
        batched_pass(&mut batched_scores, &mut softb);
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());
        batched_steady_allocs = alloc_count() - before;
    }

    // GEMM invocations per window, one steady pass each: the per-window
    // plan pays one call per GEMM layer per window; the batched plan pays
    // one call per GEMM layer per *block*.
    let g0 = hotspot_nn::gemm::gemm_call_count();
    for chunk in features_flat.chunks_exact(feat_len) {
        let logits = net.forward_with(&plan, &mut ws, chunk);
        loss::softmax_into(logits, &mut soft);
    }
    let g1 = hotspot_nn::gemm::gemm_call_count();
    batched_pass(&mut batched_scores, &mut softb);
    let g2 = hotspot_nn::gemm::gemm_call_count();
    let planned_gemm_per_window = (g1 - g0) as f64 / windows as f64;
    let batched_gemm_per_window = (g2 - g1) as f64 / windows as f64;

    let backend = hotspot_nn::gemm::kernel_backend();
    let planned_identical = legacy_scores
        .iter()
        .zip(planned_scores.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let batched_identical = legacy_scores
        .iter()
        .zip(batched_scores.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let identical = planned_identical && batched_identical;
    let legacy_wps = windows as f64 / legacy_secs;
    let planned_wps = windows as f64 / planned_secs;
    let batched_wps = windows as f64 / batched_secs;
    let speedup = legacy_secs / planned_secs;
    let batched_speedup = legacy_secs / batched_secs;
    let legacy_per_window = legacy_allocs as f64 / windows as f64;
    let steady_per_window = steady_allocs as f64 / (windows - 1) as f64;
    let batched_per_block = batched_steady_allocs as f64 / n_blocks as f64;
    eprintln!(
        "[engine] legacy:  {legacy_secs:.4} s ({legacy_wps:.1} windows/s, \
         {legacy_per_window:.1} allocs/window)"
    );
    eprintln!(
        "[engine] planned: {planned_secs:.4} s ({planned_wps:.1} windows/s, \
         {steady_per_window:.3} allocs/window steady-state, \
         {planned_gemm_per_window:.2} GEMM calls/window)"
    );
    eprintln!(
        "[engine] batched: {batched_secs:.4} s ({batched_wps:.1} windows/s, \
         block {block}, {batched_per_block:.3} allocs/block steady-state, \
         {batched_gemm_per_window:.3} GEMM calls/window)"
    );
    eprintln!(
        "[engine] speedup {speedup:.2}x planned / {batched_speedup:.2}x batched, \
         backend {}, bit-identical: {identical}",
        backend.name()
    );

    let score_check = if backend.is_simd() {
        // SIMD lanes reassociate the reduction, so the scalar PR 3
        // reconstruction is only reachable within the ULP envelope; the
        // planned and batched arms share the SIMD backend and must still
        // agree exactly (GEMM-column independence).
        hotspot_nn::ulp::assert_ulp_close(&planned_scores, &legacy_scores, 64, 1e-5);
        hotspot_nn::ulp::assert_ulp_close(&batched_scores, &legacy_scores, 64, 1e-5);
        assert!(
            planned_scores
                .iter()
                .zip(batched_scores.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "batched planned scores diverged from the per-window path — \
             GEMM-column independence must have been broken"
        );
        "ulp-bounded"
    } else {
        assert!(
            planned_identical,
            "PR 3 reconstruction diverged from the planned path — kernel FLOP \
             order must have changed"
        );
        assert!(
            batched_identical,
            "batched planned scores diverged from the per-window path — \
             GEMM-column independence must have been broken"
        );
        "bit-identical"
    };
    let max_score_ulp = legacy_scores
        .iter()
        .zip(batched_scores.iter())
        .map(|(&a, &b)| hotspot_nn::ulp::ulp_distance(a, b))
        .max()
        .unwrap_or(0);

    // Scalar-batched reference arm: on a SIMD backend, re-execute this
    // binary with `HOTSPOT_SIMD=scalar` (child output goes to a temp dir)
    // and lift its batched windows/s, so speedup-vs-scalar is measured on
    // the same host in the same invocation. On the scalar backend the run
    // is its own reference.
    let scalar_batched_wps = if backend.is_simd() {
        let exe = std::env::current_exe().expect("current_exe");
        let tmp = std::env::temp_dir().join("hotspot-engine-scalar-ref");
        let output = std::process::Command::new(exe)
            .args(std::env::args().skip(1))
            .arg("--out") // later --key value pairs win, redirecting output
            .arg(tmp.as_os_str())
            .env("HOTSPOT_SIMD", "scalar")
            .output()
            .expect("spawn scalar reference run");
        assert!(
            output.status.success(),
            "scalar reference run failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        parse_batched_wps(&stdout)
    } else {
        batched_wps
    };
    let speedup_vs_scalar = batched_wps / scalar_batched_wps;
    eprintln!(
        "[engine] scalar batched reference: {scalar_batched_wps:.1} windows/s \
         -> speedup_vs_scalar {speedup_vs_scalar:.2}x"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"engine\",\n  \"baseline\": \"pr3-scan-scoring-loop\",\n  \
         \"kernel_backend\": \"{}\",\n  \
         \"windows\": {windows},\n  \
         \"feature_shape\": [{k}, {n}, {n}],\n  \"reps\": {reps},\n  \
         \"legacy\": {{ \"secs\": {legacy_secs:.6}, \"windows_per_sec\": {legacy_wps:.2}, \
         \"allocs_per_window\": {legacy_per_window:.3} }},\n  \
         \"planned\": {{ \"secs\": {planned_secs:.6}, \"windows_per_sec\": {planned_wps:.2}, \
         \"allocs_per_window\": {steady_per_window:.3}, \
         \"gemm_calls_per_window\": {planned_gemm_per_window:.3} }},\n  \
         \"batched\": {{ \"secs\": {batched_secs:.6}, \"windows_per_sec\": {batched_wps:.2}, \
         \"block\": {block}, \"allocs_per_block\": {batched_per_block:.3}, \
         \"gemm_calls_per_window\": {batched_gemm_per_window:.3}, \
         \"speedup_vs_legacy\": {batched_speedup:.3} }},\n  \
         \"scalar_batched_windows_per_sec\": {scalar_batched_wps:.2},\n  \
         \"speedup_vs_scalar\": {speedup_vs_scalar:.3},\n  \
         \"score_check\": \"{score_check}\",\n  \
         \"max_score_ulp_vs_scalar\": {max_score_ulp},\n  \
         \"speedup\": {speedup:.3},\n  \"bit_identical\": {identical}\n}}\n",
        backend.name()
    );
    print!("{json}");

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = format!("{out_dir}/BENCH_engine.json");
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    eprintln!("[engine] wrote {path}");
}

/// Lifts `"batched": { … "windows_per_sec": X … }` out of a child run's
/// JSON without a JSON parser (the bench crates stay dependency-free).
fn parse_batched_wps(json: &str) -> f64 {
    let obj = json
        .split("\"batched\"")
        .nth(1)
        .expect("child JSON has a batched arm");
    let field = obj
        .split("\"windows_per_sec\":")
        .nth(1)
        .expect("batched arm has windows_per_sec");
    field
        .trim_start()
        .split([',', '}'])
        .next()
        .expect("windows_per_sec value")
        .trim()
        .parse()
        .expect("windows_per_sec parses as f64")
}

/// The scan scoring path exactly as PR 3 shipped it, reconstructed from
/// that revision's `crates/nn` sources so the before/after comparison
/// runs both implementations side-by-side under identical machine
/// conditions (comparing against archived throughput numbers from a
/// different day measures the host, not the code).
///
/// Faithfully reproduced from the PR 3 revision:
///
/// * `gemm_nn` / `gemm_nt` / `dot` with their original index-based inner
///   loops (bounds checks intact);
/// * `im2col` into a freshly allocated, fully zero-initialised column
///   buffer per call;
/// * one fresh output buffer per layer call, with ReLU as a separate
///   full-tensor pass (no fused epilogues);
/// * inverted dropout as an inference-time identity copy, flatten as a
///   copy — both allocated, as the old `Tensor`-returning contract forced.
///
/// The per-element FLOP order is identical to the current kernels (the
/// PR 4 rewrites only removed bounds checks and redundant zero-fills), so
/// `main` asserts the reconstruction scores every window bit-identically
/// to the planned path.
mod pr3 {
    const KC: usize = 256;

    /// PR 3 `gemm_nn`: `C[m×n] += A[m×k] · B[k×n]`, index-based loops.
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

    /// PR 3 `dot`: four accumulators over index-based loads.
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

    /// PR 3 `gemm_nt` specialised to the dense-forward call shape
    /// (`n == 1`): the 2×2 tile degenerates to row-pair dot products.
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

    /// A 3×3 "same"-padding convolution carrying its PR 3 forward pass.
    pub struct Conv {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_c: usize,
        out_c: usize,
    }

    impl Conv {
        pub fn new(weights: Vec<f32>, bias: Vec<f32>, in_c: usize, out_c: usize) -> Self {
            assert_eq!(weights.len(), out_c * in_c * 9, "conv weight length");
            assert_eq!(bias.len(), out_c, "conv bias length");
            Conv {
                weights,
                bias,
                in_c,
                out_c,
            }
        }

        /// PR 3 conv forward: fresh zero-filled `col`, fresh output, bias
        /// broadcast, then GEMM.
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

    /// A fully-connected layer carrying its PR 3 forward pass.
    pub struct Dense {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
    }

    impl Dense {
        pub fn new(weights: Vec<f32>, bias: Vec<f32>, in_f: usize, out_f: usize) -> Self {
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

    /// PR 3 ReLU inference: a separate full-tensor pass into a fresh
    /// buffer (no epilogue fusion existed).
    fn relu(x: &[f32]) -> Vec<f32> {
        x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect()
    }

    /// PR 3 2×2 max-pool inference: strict-`>` scan from `-inf`.
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

    /// The paper's network wired through the PR 3 layer implementations.
    pub struct Model {
        pub conv1: Conv,
        pub conv2: Conv,
        pub conv3: Conv,
        pub conv4: Conv,
        pub dense1: Dense,
        pub dense2: Dense,
        pub grid: usize,
    }

    impl Model {
        /// PR 3 `forward_inference`: every layer returns a fresh buffer;
        /// flatten and inference-time dropout are identity *copies* (the
        /// old `Tensor`-returning contract allocated for both).
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
            let a = a.to_vec(); // inference-time dropout (identity clone)
            self.dense2.forward(&a)
        }
    }
}
