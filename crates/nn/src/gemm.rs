//! f32 matrix-multiply kernels behind a runtime-dispatched backend table.
//!
//! These kernels carry all dense linear algebra in the crate: the im2col
//! convolution ([`crate::layers::Conv2d`]) and the fully-connected layer
//! ([`crate::layers::Dense`]) both lower their forward and backward passes
//! onto them.
//!
//! All kernels **accumulate** (`C += …`) so layers can seed `C` with the
//! bias or chain into existing gradient buffers, and all operate on plain
//! row-major `&[f32]` slices:
//!
//! * [`gemm_nn`] — `C[m×n] += A[m×k] · B[k×n]`. The hot conv-forward shape.
//! * [`gemm_nt`] — `C[m×n] += A[m×k] · Bᵀ` with `B` stored `n×k`
//!   row-major, so each output element is a dot product of two contiguous
//!   rows.
//! * [`gemm_tn`] — `C[m×n] += Aᵀ · B` with `A` stored `k×m` row-major;
//!   used for backpropagating through a row-major weight matrix without
//!   materialising its transpose.
//! * [`gemm_nt_batched`] — batched matrix-vector products against one
//!   shared weight matrix (batched dense forward).
//!
//! # Kernel dispatch
//!
//! Each public entry point validates its arguments, then jumps through a
//! process-wide `KernelTable` resolved **once** (on first GEMM call) by
//! [`kernel_backend`]:
//!
//! * [`KernelBackend::Avx512`] — 8×32 register-tiled FMA micro-kernel on
//!   512-bit lanes, with masked loads/stores for ragged `n` tails.
//!   Selected when the CPU reports `avx512f`.
//! * [`KernelBackend::Avx2`] — 4×16 register-tiled FMA micro-kernel on
//!   256-bit lanes. Selected when the CPU reports `avx2` + `fma` but not
//!   `avx512f`.
//! * [`KernelBackend::Scalar`] — the portable kernels in [`scalar`],
//!   kept verbatim from the pre-SIMD releases. Always compiled, always
//!   available, and the **bit-identity oracle** the SIMD backends are
//!   tested against.
//!
//! On each SIMD tier `gemm_nn` and `gemm_tn` share that tier's
//! micro-kernel, which reads `A` through a row and a column stride
//! (`gemm_tn` swaps them). `gemm_nt` reduces each output element with a
//! vector dot for `n = 1`; for `n > 1` it packs a block of `A`'s rows
//! transposed into a stack panel and accumulates 8 output columns at a
//! time by broadcast FMA, with the rows in the lanes.
//!
//! The `HOTSPOT_SIMD` environment variable overrides detection: `scalar`
//! forces the oracle (bit-identical to historical releases), `avx2` /
//! `avx512` force a specific SIMD tier (panicking if the CPU lacks it),
//! and `auto` (or unset) picks the best available tier.
//!
//! # Determinism and the ULP envelope
//!
//! For a **fixed backend** and fixed operand shapes each output element is
//! computed by a fixed sequence of floating-point operations, independent
//! of threading or call history — repeated calls are bit-identical, which
//! the batch-inference contract of [`crate::Network::forward_batch`]
//! relies on. Across backends the *sequence* differs (SIMD kernels
//! accumulate in vector lanes and contract multiplies into FMAs), so SIMD
//! results are only guaranteed to match the scalar oracle within a bounded
//! ULP envelope — see [`crate::ulp`] for the comparison helpers and the
//! proptests in `tests/proptests.rs` for the enforced bound.
//!
//! Training gradients therefore follow the backend too: on a SIMD tier
//! the backward GEMMs (`gemm_tn` for the input gradient, `gemm_nt` with
//! `n > 1` for conv's weight gradient) differ from the oracle in the last
//! bits, while under `HOTSPOT_SIMD=scalar` every trained weight is
//! bit-identical to the historical releases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide count of GEMM kernel invocations (all four kernels).
///
/// Benchmarks read deltas of this counter to report *GEMM calls per
/// window* — the quantity the batched scoring path shrinks, since one
/// batched call replaces B per-window calls while streaming each weight
/// matrix once. A relaxed increment per kernel call costs nanoseconds
/// against kernels that move kilobytes, so the counter stays on
/// unconditionally.
static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);

/// Total GEMM kernel calls since process start (monotone; read deltas).
pub fn gemm_call_count() -> u64 {
    GEMM_CALLS.load(Ordering::Relaxed)
}

#[inline]
fn count_call() {
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Which kernel implementation the dispatch table selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar kernels — the bit-identity oracle.
    Scalar,
    /// 256-bit AVX2 + FMA micro-kernels.
    Avx2,
    /// 512-bit AVX-512F micro-kernels.
    Avx512,
}

impl KernelBackend {
    /// Stable lower-case name for logs and benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Whether this backend uses explicit SIMD kernels.
    pub fn is_simd(self) -> bool {
        !matches!(self, KernelBackend::Scalar)
    }
}

/// What a `HOTSPOT_SIMD` value asks for.
///
/// # Panics
///
/// Panics on an unrecognised value: a typo silently falling back to a
/// different backend would invalidate whichever identity pin the caller
/// was trying to exercise.
fn parse_override(raw: &str) -> Option<KernelBackend> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "scalar" => Some(KernelBackend::Scalar),
        "avx2" => Some(KernelBackend::Avx2),
        "avx512" => Some(KernelBackend::Avx512),
        other => panic!(
            "HOTSPOT_SIMD={other:?} is not recognised \
             (expected scalar, avx2, avx512, or auto)"
        ),
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_backend() -> KernelBackend {
    if is_x86_feature_detected!("avx512f") {
        KernelBackend::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_backend() -> KernelBackend {
    KernelBackend::Scalar
}

#[cfg(target_arch = "x86_64")]
fn backend_supported(backend: KernelBackend) -> bool {
    match backend {
        KernelBackend::Scalar => true,
        KernelBackend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        KernelBackend::Avx512 => is_x86_feature_detected!("avx512f"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn backend_supported(backend: KernelBackend) -> bool {
    backend == KernelBackend::Scalar
}

fn resolve_backend() -> KernelBackend {
    let requested = std::env::var("HOTSPOT_SIMD")
        .ok()
        .and_then(|raw| parse_override(&raw));
    match requested {
        Some(backend) => {
            assert!(
                backend_supported(backend),
                "HOTSPOT_SIMD requested {} but this CPU does not support it",
                backend.name()
            );
            backend
        }
        None => detect_backend(),
    }
}

/// The backend every GEMM call in this process dispatches through,
/// resolved once from CPU feature detection and the `HOTSPOT_SIMD`
/// override (see the module docs).
pub fn kernel_backend() -> KernelBackend {
    static BACKEND: OnceLock<KernelBackend> = OnceLock::new();
    *BACKEND.get_or_init(resolve_backend)
}

/// The shared signature of every raw kernel: `(m, n, k, a, b, c)` (for
/// the batched kernel, `(m, batch, k, weights, samples, out)`).
type KernelFn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// One function pointer per kernel. All pointers share the scalar
/// signature; SIMD entries are safe shims that assume the table was built
/// only after runtime feature detection succeeded.
struct KernelTable {
    nn: KernelFn,
    nt: KernelFn,
    tn: KernelFn,
    nt_batched: KernelFn,
}

static SCALAR_TABLE: KernelTable = KernelTable {
    nn: scalar::gemm_nn,
    nt: scalar::gemm_nt,
    tn: scalar::gemm_tn,
    nt_batched: scalar::gemm_nt_batched,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    nn: avx2::gemm_nn_shim,
    nt: avx2::gemm_nt_shim,
    tn: avx2::gemm_tn_shim,
    nt_batched: avx2::gemm_nt_batched_shim,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    nn: avx512::gemm_nn_shim,
    nt: avx512::gemm_nt_shim,
    tn: avx512::gemm_tn_shim,
    nt_batched: avx512::gemm_nt_batched_shim,
};

fn table() -> &'static KernelTable {
    #[cfg(target_arch = "x86_64")]
    {
        match kernel_backend() {
            KernelBackend::Scalar => &SCALAR_TABLE,
            KernelBackend::Avx2 => &AVX2_TABLE,
            KernelBackend::Avx512 => &AVX512_TABLE,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &SCALAR_TABLE
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major.
///
/// # Panics
///
/// Panics when a slice length does not match its `m`/`n`/`k` dimensions.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: A must be m×k");
    assert_eq!(b.len(), k * n, "gemm_nn: B must be k×n");
    assert_eq!(c.len(), m * n, "gemm_nn: C must be m×n");
    count_call();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    (table().nn)(m, n, k, a, b, c);
}

/// `C[m×n] += A[m×k] · Bᵀ`, with `B` stored `n×k` row-major (i.e. a
/// column-major `k×n` matrix): `C[i][j] += Σ_p A[i][p] · B[j][p]`.
///
/// # Panics
///
/// Panics when a slice length does not match its `m`/`n`/`k` dimensions.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A must be m×k");
    assert_eq!(b.len(), n * k, "gemm_nt: B must be n×k (Bᵀ of k×n)");
    assert_eq!(c.len(), m * n, "gemm_nt: C must be m×n");
    count_call();
    if m == 0 || n == 0 {
        return;
    }
    (table().nt)(m, n, k, a, b, c);
}

/// `C[m×n] += Aᵀ · B`, with `A` stored `k×m` row-major and `B` stored
/// `k×n` row-major: `C[i][j] += Σ_p A[p][i] · B[p][j]`.
///
/// Backward-only (the input gradient of conv and dense). The SIMD tiers
/// run `gemm_nn`'s register-tiled micro-kernel with `A`'s strides
/// swapped, and a vector axpy over rows of `A` for `n = 1`.
///
/// # Panics
///
/// Panics when a slice length does not match its `m`/`n`/`k` dimensions.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A must be k×m (Aᵀ of m×k)");
    assert_eq!(b.len(), k * n, "gemm_tn: B must be k×n");
    assert_eq!(c.len(), m * n, "gemm_tn: C must be m×n");
    count_call();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    (table().tn)(m, n, k, a, b, c);
}

/// Batched matrix-vector products against one shared weight matrix:
/// `C[j][i] += Σ_p A[i][p] · X[j][p]` for every sample `j`, with `A`
/// stored `m×k` row-major, `xs` holding `batch` sample-major vectors of
/// length `k`, and `c` holding `batch` sample-major outputs of length `m`.
///
/// This is `batch` independent [`gemm_nt`]`(m, 1, k, …)` calls, but with
/// the loop nest arranged so each weight row `A[i]` is streamed from
/// memory **once per block** instead of once per sample — the whole point
/// of batched scoring. On every backend each output element reduces with
/// the same dot kernel the per-sample `n = 1` path of [`gemm_nt`] uses, so
/// results are **bit-identical** to scoring samples one at a time on that
/// same backend.
///
/// # Panics
///
/// Panics when a slice length does not match its `m`/`batch`/`k`
/// dimensions.
pub fn gemm_nt_batched(m: usize, batch: usize, k: usize, a: &[f32], xs: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt_batched: A must be m×k");
    assert_eq!(xs.len(), batch * k, "gemm_nt_batched: X must be batch×k");
    assert_eq!(c.len(), batch * m, "gemm_nt_batched: C must be batch×m");
    count_call();
    if m == 0 || batch == 0 {
        return;
    }
    (table().nt_batched)(m, batch, k, a, xs, c);
}

/// An element-wise activation fused into a GEMM call as an output
/// epilogue: it runs over the `C` tile immediately after the last
/// `k`-block has been accumulated, while the tile is still cache-hot,
/// instead of as a separate layer traversing a freshly allocated tensor.
///
/// Determinism contract: the epilogue is applied to each fully-accumulated
/// output element in index order, with exactly the same scalar expression
/// the standalone activation layers use — so a fused `conv → relu` pair is
/// bit-identical to the unfused two-layer sequence on any backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// `max(x, 0)` — same predicate (`x > 0.0`) as [`crate::layers::Relu`].
    Relu,
    /// `1 / (1 + e^{-x})` — same expression as [`crate::layers::Sigmoid`].
    Sigmoid,
    /// `tanh(x)` — same expression as [`crate::layers::Tanh`].
    Tanh,
}

impl Epilogue {
    /// Applies the activation over `c` in place, in index order.
    #[inline]
    pub fn apply(self, c: &mut [f32]) {
        match self {
            Epilogue::Relu => {
                for v in c.iter_mut() {
                    *v = if *v > 0.0 { *v } else { 0.0 };
                }
            }
            Epilogue::Sigmoid => {
                for v in c.iter_mut() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            Epilogue::Tanh => {
                for v in c.iter_mut() {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Backward of the fused epilogue: rescales the incoming gradient `g`
    /// in place using the *post-activation* output `y` (all three
    /// activations admit a derivative expressed in their output alone).
    ///
    /// Matches the standalone layers bit-for-bit: `relu` keeps `g` where
    /// `y > 0` (equivalent to the pre-activation `x > 0` mask, since
    /// `y = x` exactly there), `sigmoid` uses `g·y·(1−y)`, `tanh` uses
    /// `g·(1−y²)`.
    #[inline]
    pub fn grad_from_output(self, y: &[f32], g: &mut [f32]) {
        assert_eq!(y.len(), g.len(), "epilogue grad length mismatch");
        match self {
            Epilogue::Relu => {
                for (gi, &yi) in g.iter_mut().zip(y) {
                    *gi = if yi > 0.0 { *gi } else { 0.0 };
                }
            }
            Epilogue::Sigmoid => {
                for (gi, &yi) in g.iter_mut().zip(y) {
                    // Same association as the standalone layer: (g·y)·(1−y).
                    *gi = *gi * yi * (1.0 - yi);
                }
            }
            Epilogue::Tanh => {
                for (gi, &yi) in g.iter_mut().zip(y) {
                    *gi *= 1.0 - yi * yi;
                }
            }
        }
    }
}

/// [`gemm_nn`] with an optional fused activation over the finished `C`
/// tile (conv forward epilogue).
pub fn gemm_nn_fused(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Option<Epilogue>,
) {
    gemm_nn(m, n, k, a, b, c);
    if let Some(ep) = epilogue {
        ep.apply(c);
    }
}

/// [`gemm_nt`] with an optional fused activation over the finished `C`
/// tile (dense forward epilogue).
pub fn gemm_nt_fused(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Option<Epilogue>,
) {
    gemm_nt(m, n, k, a, b, c);
    if let Some(ep) = epilogue {
        ep.apply(c);
    }
}

/// [`gemm_nt_batched`] with an optional fused activation over the
/// finished batch of outputs (batched dense forward epilogue). The
/// epilogue is element-wise, so applying it over the whole `batch×m`
/// block is bit-identical to applying it per sample.
pub fn gemm_nt_batched_fused(
    m: usize,
    batch: usize,
    k: usize,
    a: &[f32],
    xs: &[f32],
    c: &mut [f32],
    epilogue: Option<Epilogue>,
) {
    gemm_nt_batched(m, batch, k, a, xs, c);
    if let Some(ep) = epilogue {
        ep.apply(c);
    }
}

/// Portable scalar kernels — the bit-identity oracle.
///
/// These are the pre-SIMD kernels, preserved verbatim: every accumulation
/// order (and therefore every output bit) matches the historical releases
/// the repo's golden pins were recorded against. The dispatch wrappers
/// route here on the `scalar` backend; tests and benches may also call
/// them directly to compare a SIMD backend against the oracle without
/// restarting the process.
///
/// Raw kernels: argument validation, call counting, and zero-dimension
/// early-outs live in the public wrappers.
pub mod scalar {
    /// Block size over the shared `k` dimension. 256 f32 rows of a
    /// 144-wide `B` panel is ≈144 KiB — small enough to stay L2-resident
    /// on anything this crate targets, and the paper's shapes (`k ≤ 288`)
    /// usually fit in a single block anyway.
    const KC: usize = 256;

    /// Scalar `C[m×n] += A[m×k] · B[k×n]`: row-oriented axpy form that
    /// streams rows of `B` against one scalar of `A` at a time, keeping
    /// the inner loop a contiguous fused multiply-add LLVM
    /// auto-vectorises against the baseline target.
    pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                let mut p = p0;
                // Four B rows per pass: one load of c_row amortises four
                // scalar-times-row updates. Iterator traversal keeps the
                // inner loop free of bounds checks so it auto-vectorises
                // cleanly; the accumulation expression (and therefore
                // every output bit) is unchanged.
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                    let (b0, rest) = b[p * n..].split_at(n);
                    let (b1, rest) = rest.split_at(n);
                    let (b2, rest) = rest.split_at(n);
                    let b3 = &rest[..n];
                    for ((((cj, &b0j), &b1j), &b2j), &b3j) in
                        c_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        *cj += a0 * b0j + a1 * b1j + a2 * b2j + a3 * b3j;
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = a_row[p];
                    if av != 0.0 {
                        let b_row = &b[p * n..p * n + n];
                        for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                            *cj += av * bj;
                        }
                    }
                    p += 1;
                }
            }
            p0 = p1;
        }
    }

    /// Scalar `C[m×n] += A[m×k] · Bᵀ`: 2×2 register tile so each A row is
    /// read once for two B rows and vice versa, halving memory traffic
    /// versus independent dot products.
    pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut i = 0;
        while i + 2 <= m {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let mut j = 0;
            while j + 2 <= n {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let (mut s00, mut s01, mut s10, mut s11) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (((&x0, &x1), &y0), &y1) in a0.iter().zip(a1).zip(b0).zip(b1) {
                    s00 += x0 * y0;
                    s01 += x0 * y1;
                    s10 += x1 * y0;
                    s11 += x1 * y1;
                }
                c[i * n + j] += s00;
                c[i * n + j + 1] += s01;
                c[(i + 1) * n + j] += s10;
                c[(i + 1) * n + j + 1] += s11;
                j += 2;
            }
            if j < n {
                let b0 = &b[j * k..(j + 1) * k];
                c[i * n + j] += dot(a0, b0);
                c[(i + 1) * n + j] += dot(a1, b0);
            }
            i += 2;
        }
        if i < m {
            let a0 = &a[i * k..(i + 1) * k];
            for j in 0..n {
                c[i * n + j] += dot(a0, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Scalar `C[m×n] += Aᵀ · B`: axpy over the shared `k` dimension.
    pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        if n == 1 {
            // Matrix-transpose-vector fast path (`Dense` backward): one
            // axpy over a contiguous A row per reduction step.
            for p in 0..k {
                let s = b[p];
                if s != 0.0 {
                    let a_row = &a[p * m..(p + 1) * m];
                    for (ci, &av) in c.iter_mut().zip(a_row) {
                        *ci += av * s;
                    }
                }
            }
            return;
        }

        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            for p in p0..p1 {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for i in 0..m {
                    let av = a_row[i];
                    if av == 0.0 {
                        continue;
                    }
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += av * bj;
                    }
                }
            }
            p0 = p1;
        }
    }

    /// Scalar batched matrix-vector products; loop nest inverted so each
    /// weight row streams once per block. Reduces with `dot`, matching
    /// the `n = 1` path of [`gemm_nt`] bit-for-bit.
    pub fn gemm_nt_batched(m: usize, batch: usize, k: usize, a: &[f32], xs: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..batch {
                c[j * m + i] += dot(a_row, &xs[j * k..(j + 1) * k]);
            }
        }
    }

    /// Unrolled dot product with four independent accumulators.
    ///
    /// `chunks_exact` traversal keeps the loop body free of bounds checks;
    /// the accumulator layout (lane `i` sums elements `p ≡ i mod 4`,
    /// combined as `(s0+s1)+(s2+s3)`) is the historical order, so results
    /// stay bit-identical.
    #[inline]
    fn dot(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let mut xc = x.chunks_exact(4);
        let mut yc = y.chunks_exact(4);
        for (xv, yv) in (&mut xc).zip(&mut yc) {
            s0 += xv[0] * yv[0];
            s1 += xv[1] * yv[1];
            s2 += xv[2] * yv[2];
            s3 += xv[3] * yv[3];
        }
        for (&xv, &yv) in xc.remainder().iter().zip(yc.remainder()) {
            s0 += xv * yv;
        }
        (s0 + s1) + (s2 + s3)
    }
}

/// `k`-chunk of the SIMD `gemm_nt` panel kernels: a packed panel of 256
/// steps is 16 KiB at 16 lanes, small enough for the stack and L1.
#[cfg(target_arch = "x86_64")]
const NT_KC: usize = 256;

/// Packs rows `i0..i0 + rows` of the row-major `·×k` matrix `a`, columns
/// `p0..p0 + panel.len()`, transposed into `panel`:
/// `panel[p][r] = a[(i0 + r)·k + p0 + p]`, and zero in lanes `r ≥ rows`.
#[cfg(target_arch = "x86_64")]
fn pack_transposed<const W: usize>(
    a: &[f32],
    k: usize,
    i0: usize,
    rows: usize,
    p0: usize,
    panel: &mut [[f32; W]],
) {
    debug_assert!(rows <= W);
    for r in 0..W {
        if r < rows {
            let src = &a[(i0 + r) * k + p0..][..panel.len()];
            for (lanes, &v) in panel.iter_mut().zip(src) {
                lanes[r] = v;
            }
        } else {
            panel.iter_mut().for_each(|lanes| lanes[r] = 0.0);
        }
    }
}

/// AVX2 + FMA micro-kernels (256-bit lanes, 4×16 register tile).
///
/// Per output element the reduction runs over `k` in order, one FMA per
/// step — numerically tighter than the scalar kernel's split-accumulator
/// orders but not bit-identical to them; the ULP proptests bound the
/// divergence.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Safe shim: the dispatch table is only built after
    /// `is_x86_feature_detected!("avx2")` + `fma` succeeded.
    pub fn gemm_nn_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // SAFETY: avx2 + fma were detected before this table was built, and
        // the public wrapper asserted every slice length.
        unsafe { gemm_strided::<false>(m, n, k, a, b, c) }
    }

    pub fn gemm_nt_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        unsafe { gemm_nt(m, n, k, a, b, c) }
    }

    pub fn gemm_tn_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // SAFETY: as for `gemm_nn_shim`.
        unsafe {
            if n == 1 {
                gemm_tn_vec(m, k, a, b, c)
            } else {
                gemm_strided::<true>(m, n, k, a, b, c)
            }
        }
    }

    pub fn gemm_nt_batched_shim(
        m: usize,
        batch: usize,
        k: usize,
        a: &[f32],
        xs: &[f32],
        c: &mut [f32],
    ) {
        // C[j][i] += Σ_p A[i][p]·X[j][p] is exactly one dot per element
        // with the sample block as the left operand — the same `dot` the
        // per-sample n = 1 path of `gemm_nt` runs, so bits match it.
        // SAFETY: avx2 + fma were detected before this table was built, and
        // the public wrapper asserted every slice length.
        unsafe { gemm_nt_dots(batch, m, k, xs, a, c) }
    }

    /// `C[m×n] += A·B` with `A(i, p) = a[i·rs + p·cs]` and `B` row-major
    /// `k×n`: `gemm_nn` runs it with `(rs, cs) = (k, 1)`, `gemm_tn`
    /// (`A_T`) with `(1, m)`. The layout is a const parameter so
    /// `gemm_nn`'s instance keeps its unit column stride as a constant.
    ///
    /// 4 rows × 16 columns of `C` held in 8 YMM accumulators; B rows are
    /// loaded once per `k` step and shared across the 4 A broadcasts.
    /// Ragged `n` tails run in masked 8-lane strips, ragged `m` tails one
    /// row at a time. The FMA sequence per output element depends only on
    /// `k`, never on the strides or the tiling.
    ///
    /// # Safety
    ///
    /// avx2 + fma must be available; `a` must hold `m·k` elements, `b`
    /// must be `k×n` and `c` must be `m×n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_strided<const A_T: bool>(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let (rs, cs) = if A_T { (1, m) } else { (k, 1) };
        debug_assert!(a.len() == m * k && b.len() == k * n && c.len() == m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let mut j = 0;
            while j + 16 <= n {
                let mut c00 = _mm256_loadu_ps(cp.add(i * n + j));
                let mut c01 = _mm256_loadu_ps(cp.add(i * n + j + 8));
                let mut c10 = _mm256_loadu_ps(cp.add((i + 1) * n + j));
                let mut c11 = _mm256_loadu_ps(cp.add((i + 1) * n + j + 8));
                let mut c20 = _mm256_loadu_ps(cp.add((i + 2) * n + j));
                let mut c21 = _mm256_loadu_ps(cp.add((i + 2) * n + j + 8));
                let mut c30 = _mm256_loadu_ps(cp.add((i + 3) * n + j));
                let mut c31 = _mm256_loadu_ps(cp.add((i + 3) * n + j + 8));
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                    let b1 = _mm256_loadu_ps(bp.add(p * n + j + 8));
                    let a0 = _mm256_set1_ps(*ap.add(i * rs + p * cs));
                    c00 = _mm256_fmadd_ps(a0, b0, c00);
                    c01 = _mm256_fmadd_ps(a0, b1, c01);
                    let a1 = _mm256_set1_ps(*ap.add((i + 1) * rs + p * cs));
                    c10 = _mm256_fmadd_ps(a1, b0, c10);
                    c11 = _mm256_fmadd_ps(a1, b1, c11);
                    let a2 = _mm256_set1_ps(*ap.add((i + 2) * rs + p * cs));
                    c20 = _mm256_fmadd_ps(a2, b0, c20);
                    c21 = _mm256_fmadd_ps(a2, b1, c21);
                    let a3 = _mm256_set1_ps(*ap.add((i + 3) * rs + p * cs));
                    c30 = _mm256_fmadd_ps(a3, b0, c30);
                    c31 = _mm256_fmadd_ps(a3, b1, c31);
                }
                _mm256_storeu_ps(cp.add(i * n + j), c00);
                _mm256_storeu_ps(cp.add(i * n + j + 8), c01);
                _mm256_storeu_ps(cp.add((i + 1) * n + j), c10);
                _mm256_storeu_ps(cp.add((i + 1) * n + j + 8), c11);
                _mm256_storeu_ps(cp.add((i + 2) * n + j), c20);
                _mm256_storeu_ps(cp.add((i + 2) * n + j + 8), c21);
                _mm256_storeu_ps(cp.add((i + 3) * n + j), c30);
                _mm256_storeu_ps(cp.add((i + 3) * n + j + 8), c31);
                j += 16;
            }
            // Tail columns run in masked 8-lane strips that repeat the
            // tile's arithmetic exactly — an FMA chain over `p` starting
            // from `C` — so a column's bits never depend on whether it
            // lands in a full tile or the tail. Batched conv scoring
            // (`n = batch·oh·ow`) relies on that to stay bit-identical to
            // per-window scoring.
            while j < n {
                let mask = lane_mask(n - j);
                let mut acc = [_mm256_setzero_ps(); 4];
                for (r, accr) in acc.iter_mut().enumerate() {
                    *accr = _mm256_maskload_ps(cp.add((i + r) * n + j), mask);
                }
                for p in 0..k {
                    let bv = _mm256_maskload_ps(bp.add(p * n + j), mask);
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*ap.add((i + r) * rs + p * cs));
                        *accr = _mm256_fmadd_ps(av, bv, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    _mm256_maskstore_ps(cp.add((i + r) * n + j), mask, *accr);
                }
                j += (n - j).min(8);
            }
            i += 4;
        }
        while i < m {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = _mm256_loadu_ps(cp.add(i * n + j));
                for p in 0..k {
                    let bv = _mm256_loadu_ps(bp.add(p * n + j));
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i * rs + p * cs)), bv, acc);
                }
                _mm256_storeu_ps(cp.add(i * n + j), acc);
                j += 8;
            }
            if j < n {
                let mask = lane_mask(n - j);
                let mut acc = _mm256_maskload_ps(cp.add(i * n + j), mask);
                for p in 0..k {
                    let bv = _mm256_maskload_ps(bp.add(p * n + j), mask);
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i * rs + p * cs)), bv, acc);
                }
                _mm256_maskstore_ps(cp.add(i * n + j), mask, acc);
            }
            i += 1;
        }
    }

    /// A `maskload`/`maskstore` mask selecting the first `min(lanes, 8)`
    /// lanes.
    ///
    /// # Safety
    ///
    /// avx2 must be available.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        let lanes = _mm256_set1_epi32(lanes.min(8) as i32);
        _mm256_cmpgt_epi32(lanes, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// `c[m] += Aᵀ·b` with `A` stored `k×m` (the dense layer's dX): one
    /// vector axpy over each contiguous row of `A`, skipping zero entries
    /// of `b` as the scalar kernel does.
    ///
    /// # Safety
    ///
    /// avx2 + fma must be available; `a` is `k×m`, `b` has `k` and `c` has
    /// `m` elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_tn_vec(m: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert!(a.len() == k * m && b.len() == k && c.len() == m);
        let cp = c.as_mut_ptr();
        for (p, &s) in b.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let row = a.as_ptr().add(p * m);
            let sv = _mm256_set1_ps(s);
            let mut i = 0;
            while i + 8 <= m {
                let acc = _mm256_loadu_ps(cp.add(i));
                _mm256_storeu_ps(
                    cp.add(i),
                    _mm256_fmadd_ps(_mm256_loadu_ps(row.add(i)), sv, acc),
                );
                i += 8;
            }
            while i < m {
                *cp.add(i) = (*row.add(i)).mul_add(s, *cp.add(i));
                i += 1;
            }
        }
    }

    /// Vector dot with two independent YMM accumulators; the horizontal
    /// reduction order is fixed, so the kernel is deterministic.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot(x: *const f32, y: *const f32, k: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut p = 0;
        while p + 16 <= k {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x.add(p)), _mm256_loadu_ps(y.add(p)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(x.add(p + 8)),
                _mm256_loadu_ps(y.add(p + 8)),
                acc1,
            );
            p += 16;
        }
        if p + 8 <= k {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x.add(p)), _mm256_loadu_ps(y.add(p)), acc0);
            p += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let q = _mm_add_ps(lo, hi);
        let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1));
        let mut s = _mm_cvtss_f32(q);
        while p < k {
            s += *x.add(p) * *y.add(p);
            p += 1;
        }
        s
    }

    /// `C += A·Bᵀ` as one [`dot`] per output element: the `n = 1` path of
    /// `gemm_nt` and, with the sample block as `A`, the batched kernel.
    ///
    /// # Safety
    ///
    /// avx2 + fma must be available; `a` is `m×k`, `b` is `n×k` and `c`
    /// is `m×n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_nt_dots(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert!(a.len() == m * k && b.len() == n * k && c.len() == m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for i in 0..m {
            let a_row = ap.add(i * k);
            for j in 0..n {
                c[i * n + j] += dot(a_row, bp.add(j * k), k);
            }
        }
    }

    /// `C[m×n] += A·Bᵀ`: dots for `n = 1`, the packed panel otherwise.
    ///
    /// # Safety
    ///
    /// As for [`gemm_nt_dots`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        if n == 1 {
            gemm_nt_dots(m, n, k, a, b, c)
        } else {
            gemm_nt_panel(m, n, k, a, b, c)
        }
    }

    /// Output rows per packed `Aᵀ` panel: one YMM vector of them.
    const NT_ROWS: usize = 8;

    /// `C[m×n] += A·Bᵀ` for `n > 1` (conv's weight gradient) with output
    /// rows in the lanes: each block of 8 rows of `A` is packed transposed
    /// into a stack panel (`k`-chunks of at most [`super::NT_KC`]), then 8
    /// output columns accumulate by broadcast FMA — no horizontal
    /// reduction per output element. Per element the sum is one in-order
    /// FMA chain per chunk, added to `C` chunk by chunk.
    ///
    /// # Safety
    ///
    /// avx2 + fma must be available; `a` is `m×k`, `b` is `n×k` and `c`
    /// is `m×n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_nt_panel(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert!(a.len() == m * k && b.len() == n * k && c.len() == m * n);
        let mut panel = [[0.0f32; NT_ROWS]; super::NT_KC];
        let mut tile = [[0.0f32; NT_ROWS]; 8];
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i0 = 0;
        while i0 < m {
            let rows = (m - i0).min(NT_ROWS);
            let mut p0 = 0;
            while p0 < k {
                let kc = (k - p0).min(super::NT_KC);
                let panel = &mut panel[..kc];
                super::pack_transposed(a, k, i0, rows, p0, panel);
                let mut j = 0;
                while j < n {
                    let cols = (n - j).min(8);
                    let mut acc = [_mm256_setzero_ps(); 8];
                    if cols == 8 {
                        let b0 = bp.add(j * k + p0);
                        for (p, a_p) in panel.iter().enumerate() {
                            let av = _mm256_loadu_ps(a_p.as_ptr());
                            for (jj, accj) in acc.iter_mut().enumerate() {
                                let bv = _mm256_set1_ps(*b0.add(jj * k + p));
                                *accj = _mm256_fmadd_ps(av, bv, *accj);
                            }
                        }
                    } else {
                        // Ragged column tail: the same per-element FMA
                        // chain, one column at a time.
                        for (jj, accj) in acc.iter_mut().take(cols).enumerate() {
                            let bj = bp.add((j + jj) * k + p0);
                            for (p, a_p) in panel.iter().enumerate() {
                                let av = _mm256_loadu_ps(a_p.as_ptr());
                                *accj = _mm256_fmadd_ps(av, _mm256_set1_ps(*bj.add(p)), *accj);
                            }
                        }
                    }
                    // Column jj of the tile holds output column j + jj;
                    // add it to each output row's `cols` contiguous floats.
                    // SAFETY: `c` is `m×n` (this function's contract), and
                    // `i0 + r < m`, `j + jj < j + cols ≤ n`.
                    for (t, accj) in tile.iter_mut().zip(&acc).take(cols) {
                        _mm256_storeu_ps(t.as_mut_ptr(), *accj);
                    }
                    for r in 0..rows {
                        let c_row = cp.add((i0 + r) * n + j);
                        for (jj, t) in tile.iter().take(cols).enumerate() {
                            *c_row.add(jj) += t[r];
                        }
                    }
                    j += cols;
                }
                p0 += kc;
            }
            i0 += rows;
        }
    }
}

/// AVX-512F micro-kernels (512-bit lanes, 8×32 register tile, masked
/// tails).
///
/// Same numeric contract as [`avx2`]: in-order `k` reduction with FMA per
/// lane, bounded-ULP against the scalar oracle.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Safe shim: the dispatch table is only built after
    /// `is_x86_feature_detected!("avx512f")` succeeded.
    pub fn gemm_nn_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // SAFETY: avx512f was detected before this table was built, and
        // the public wrapper asserted every slice length.
        unsafe { gemm_strided::<false>(m, n, k, a, b, c) }
    }

    pub fn gemm_nt_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        unsafe { gemm_nt(m, n, k, a, b, c) }
    }

    pub fn gemm_tn_shim(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // SAFETY: as for `gemm_nn_shim`.
        unsafe {
            if n == 1 {
                gemm_tn_vec(m, k, a, b, c)
            } else {
                gemm_strided::<true>(m, n, k, a, b, c)
            }
        }
    }

    pub fn gemm_nt_batched_shim(
        m: usize,
        batch: usize,
        k: usize,
        a: &[f32],
        xs: &[f32],
        c: &mut [f32],
    ) {
        unsafe { gemm_nt_batched(m, batch, k, a, xs, c) }
    }

    /// Batched matrix-vector products with the weight-row loads shared
    /// across a block of four samples.
    ///
    /// The naive mapping (`gemm_nt` with the sample block as the left
    /// operand) re-streams the entire `m×k` weight matrix from cache once
    /// per sample; for the paper network's fc1 (250×288 ≈ 288 KiB) that
    /// read traffic dominates the dense layers. Here each weight chunk is
    /// loaded once and FMA'd against every sample in the block, cutting
    /// weight bandwidth by the block factor.
    ///
    /// Bit-compatibility: for each (sample, row) pair the FMA sequence —
    /// two independent accumulators fed by alternating 16-lane chunks, a
    /// masked remainder into the second accumulator, then
    /// `reduce_add(acc0 + acc1)` — is exactly the [`dot`] kernel's, so the
    /// result is bit-identical to per-sample `gemm_nt`, which the batched
    /// executor pins against the per-window path.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_nt_batched(
        m: usize,
        batch: usize,
        k: usize,
        a: &[f32],
        xs: &[f32],
        c: &mut [f32],
    ) {
        debug_assert!(a.len() == m * k && xs.len() == batch * k && c.len() == batch * m);
        let ap = a.as_ptr();
        let xp = xs.as_ptr();
        let rem = k % 16;
        let rem_mask: u16 = if rem == 0 { 0 } else { (1u16 << rem) - 1 };
        let mut bb = 0;
        // Full blocks of four samples, manually unrolled: the eight
        // accumulators must be distinct locals — a runtime-indexed array
        // defeats LLVM's scalar replacement and spills them to the stack.
        while bb + 4 <= batch {
            let x0 = xp.add(bb * k);
            let x1 = xp.add((bb + 1) * k);
            let x2 = xp.add((bb + 2) * k);
            let x3 = xp.add((bb + 3) * k);
            for j in 0..m {
                let w_row = ap.add(j * k);
                let mut a00 = _mm512_setzero_ps();
                let mut a01 = _mm512_setzero_ps();
                let mut a02 = _mm512_setzero_ps();
                let mut a03 = _mm512_setzero_ps();
                let mut a10 = _mm512_setzero_ps();
                let mut a11 = _mm512_setzero_ps();
                let mut a12 = _mm512_setzero_ps();
                let mut a13 = _mm512_setzero_ps();
                let mut p = 0;
                while p + 32 <= k {
                    let w0 = _mm512_loadu_ps(w_row.add(p));
                    let w1 = _mm512_loadu_ps(w_row.add(p + 16));
                    a00 = _mm512_fmadd_ps(_mm512_loadu_ps(x0.add(p)), w0, a00);
                    a10 = _mm512_fmadd_ps(_mm512_loadu_ps(x0.add(p + 16)), w1, a10);
                    a01 = _mm512_fmadd_ps(_mm512_loadu_ps(x1.add(p)), w0, a01);
                    a11 = _mm512_fmadd_ps(_mm512_loadu_ps(x1.add(p + 16)), w1, a11);
                    a02 = _mm512_fmadd_ps(_mm512_loadu_ps(x2.add(p)), w0, a02);
                    a12 = _mm512_fmadd_ps(_mm512_loadu_ps(x2.add(p + 16)), w1, a12);
                    a03 = _mm512_fmadd_ps(_mm512_loadu_ps(x3.add(p)), w0, a03);
                    a13 = _mm512_fmadd_ps(_mm512_loadu_ps(x3.add(p + 16)), w1, a13);
                    p += 32;
                }
                if p + 16 <= k {
                    let w0 = _mm512_loadu_ps(w_row.add(p));
                    a00 = _mm512_fmadd_ps(_mm512_loadu_ps(x0.add(p)), w0, a00);
                    a01 = _mm512_fmadd_ps(_mm512_loadu_ps(x1.add(p)), w0, a01);
                    a02 = _mm512_fmadd_ps(_mm512_loadu_ps(x2.add(p)), w0, a02);
                    a03 = _mm512_fmadd_ps(_mm512_loadu_ps(x3.add(p)), w0, a03);
                    p += 16;
                }
                if p < k {
                    let w0 = _mm512_maskz_loadu_ps(rem_mask, w_row.add(p));
                    a10 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(rem_mask, x0.add(p)), w0, a10);
                    a11 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(rem_mask, x1.add(p)), w0, a11);
                    a12 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(rem_mask, x2.add(p)), w0, a12);
                    a13 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(rem_mask, x3.add(p)), w0, a13);
                }
                c[bb * m + j] += _mm512_reduce_add_ps(_mm512_add_ps(a00, a10));
                c[(bb + 1) * m + j] += _mm512_reduce_add_ps(_mm512_add_ps(a01, a11));
                c[(bb + 2) * m + j] += _mm512_reduce_add_ps(_mm512_add_ps(a02, a12));
                c[(bb + 3) * m + j] += _mm512_reduce_add_ps(_mm512_add_ps(a03, a13));
            }
            bb += 4;
        }
        // Ragged sample tail: plain per-sample dots (same kernel the
        // per-window path uses, so bits still match).
        while bb < batch {
            let x_row = xp.add(bb * k);
            for j in 0..m {
                c[bb * m + j] += dot(x_row, ap.add(j * k), k);
            }
            bb += 1;
        }
    }

    /// `C[m×n] += A·B` with `A(i, p) = a[i·rs + p·cs]` and `B` row-major
    /// `k×n`: `gemm_nn` runs it with `(rs, cs) = (k, 1)`, `gemm_tn`
    /// (`A_T`) with `(1, m)`. The layout is a const parameter so
    /// `gemm_nn`'s instance keeps its unit column stride as a constant.
    ///
    /// 8 rows × 32 columns of `C` held in 16 ZMM accumulators; ragged `n`
    /// tails fall back to a masked 16-wide column strip, ragged `m` tails
    /// to a single-row masked loop. The FMA sequence per output element
    /// depends only on `k`, never on the strides.
    ///
    /// # Safety
    ///
    /// avx512f must be available; `a` must hold `m·k` elements, `b` must
    /// be `k×n` and `c` must be `m×n`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_strided<const A_T: bool>(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let (rs, cs) = if A_T { (1, m) } else { (k, 1) };
        debug_assert!(a.len() == m * k && b.len() == k * n && c.len() == m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= m {
            let mut j = 0;
            while j + 32 <= n {
                let mut acc = [[_mm512_setzero_ps(); 2]; 8];
                for (r, row) in acc.iter_mut().enumerate() {
                    row[0] = _mm512_loadu_ps(cp.add((i + r) * n + j));
                    row[1] = _mm512_loadu_ps(cp.add((i + r) * n + j + 16));
                }
                for p in 0..k {
                    let b0 = _mm512_loadu_ps(bp.add(p * n + j));
                    let b1 = _mm512_loadu_ps(bp.add(p * n + j + 16));
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*ap.add((i + r) * rs + p * cs));
                        row[0] = _mm512_fmadd_ps(av, b0, row[0]);
                        row[1] = _mm512_fmadd_ps(av, b1, row[1]);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    _mm512_storeu_ps(cp.add((i + r) * n + j), row[0]);
                    _mm512_storeu_ps(cp.add((i + r) * n + j + 16), row[1]);
                }
                j += 32;
            }
            while j < n {
                let rem = (n - j).min(16);
                let mask: u16 = if rem == 16 { !0 } else { (1u16 << rem) - 1 };
                let mut acc = [_mm512_setzero_ps(); 8];
                for (r, accr) in acc.iter_mut().enumerate() {
                    *accr = _mm512_maskz_loadu_ps(mask, cp.add((i + r) * n + j));
                }
                for p in 0..k {
                    let b0 = _mm512_maskz_loadu_ps(mask, bp.add(p * n + j));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*ap.add((i + r) * rs + p * cs));
                        *accr = _mm512_fmadd_ps(av, b0, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    _mm512_mask_storeu_ps(cp.add((i + r) * n + j), mask, *accr);
                }
                j += rem;
            }
            i += 8;
        }
        while i < m {
            let mut j = 0;
            while j < n {
                let rem = (n - j).min(16);
                let mask: u16 = if rem == 16 { !0 } else { (1u16 << rem) - 1 };
                let mut acc = _mm512_maskz_loadu_ps(mask, cp.add(i * n + j));
                for p in 0..k {
                    let b0 = _mm512_maskz_loadu_ps(mask, bp.add(p * n + j));
                    let av = _mm512_set1_ps(*ap.add(i * rs + p * cs));
                    acc = _mm512_fmadd_ps(av, b0, acc);
                }
                _mm512_mask_storeu_ps(cp.add(i * n + j), mask, acc);
                j += rem;
            }
            i += 1;
        }
    }

    /// `c[m] += Aᵀ·b` with `A` stored `k×m` (the dense layer's dX): one
    /// vector axpy over each contiguous row of `A`, with a masked tail,
    /// skipping zero entries of `b` as the scalar kernel does.
    ///
    /// # Safety
    ///
    /// avx512f must be available; `a` is `k×m`, `b` has `k` and `c` has
    /// `m` elements.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_tn_vec(m: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert!(a.len() == k * m && b.len() == k && c.len() == m);
        let cp = c.as_mut_ptr();
        for (p, &s) in b.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let row = a.as_ptr().add(p * m);
            let sv = _mm512_set1_ps(s);
            // Full vectors unmasked: the next step reloads what this one
            // stores, and masked stores do not forward to later loads.
            let mut i = 0;
            while i + 16 <= m {
                let acc = _mm512_loadu_ps(cp.add(i));
                _mm512_storeu_ps(
                    cp.add(i),
                    _mm512_fmadd_ps(_mm512_loadu_ps(row.add(i)), sv, acc),
                );
                i += 16;
            }
            if i < m {
                let mask: u16 = (1u16 << (m - i)) - 1;
                let acc = _mm512_maskz_loadu_ps(mask, cp.add(i));
                let av = _mm512_maskz_loadu_ps(mask, row.add(i));
                _mm512_mask_storeu_ps(cp.add(i), mask, _mm512_fmadd_ps(av, sv, acc));
            }
        }
    }

    /// Vector dot with two independent ZMM accumulators and a masked
    /// remainder; `_mm512_reduce_add_ps` has a fixed reduction tree, so
    /// the kernel is deterministic.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot(x: *const f32, y: *const f32, k: usize) -> f32 {
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut p = 0;
        while p + 32 <= k {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(x.add(p)), _mm512_loadu_ps(y.add(p)), acc0);
            acc1 = _mm512_fmadd_ps(
                _mm512_loadu_ps(x.add(p + 16)),
                _mm512_loadu_ps(y.add(p + 16)),
                acc1,
            );
            p += 32;
        }
        if p + 16 <= k {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(x.add(p)), _mm512_loadu_ps(y.add(p)), acc0);
            p += 16;
        }
        if p < k {
            let rem = k - p;
            let mask: u16 = (1u16 << rem) - 1;
            acc1 = _mm512_fmadd_ps(
                _mm512_maskz_loadu_ps(mask, x.add(p)),
                _mm512_maskz_loadu_ps(mask, y.add(p)),
                acc1,
            );
        }
        _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1))
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert!(a.len() == m * k && b.len() == n * k && c.len() == m * n);
        if n > 1 {
            return gemm_nt_panel(m, n, k, a, b, c);
        }
        // n = 1: one `dot` per output row, the arithmetic
        // `gemm_nt_batched` replicates.
        let ap = a.as_ptr();
        for i in 0..m {
            c[i] += dot(ap.add(i * k), b.as_ptr(), k);
        }
    }

    /// Output rows per packed `Aᵀ` panel: one ZMM vector of them.
    const NT_ROWS: usize = 16;

    /// `C[m×n] += A·Bᵀ` for `n > 1` (conv's weight gradient) with output
    /// rows in the lanes: each block of 16 rows of `A` is packed
    /// transposed into a stack panel (`k`-chunks of at most
    /// [`super::NT_KC`]), then 8 output columns accumulate by broadcast
    /// FMA — no horizontal reduction per output element. Per element the
    /// sum is one in-order FMA chain per chunk, added to `C` chunk by
    /// chunk.
    ///
    /// # Safety
    ///
    /// avx512f must be available; `a` is `m×k`, `b` is `n×k` and `c` is
    /// `m×n`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_nt_panel(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut panel = [[0.0f32; NT_ROWS]; super::NT_KC];
        let mut tile = [[0.0f32; NT_ROWS]; 8];
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i0 = 0;
        while i0 < m {
            let rows = (m - i0).min(NT_ROWS);
            let mut p0 = 0;
            while p0 < k {
                let kc = (k - p0).min(super::NT_KC);
                let panel = &mut panel[..kc];
                super::pack_transposed(a, k, i0, rows, p0, panel);
                let mut j = 0;
                while j < n {
                    let cols = (n - j).min(8);
                    let mut acc = [_mm512_setzero_ps(); 8];
                    if cols == 8 {
                        let b0 = bp.add(j * k + p0);
                        for (p, a_p) in panel.iter().enumerate() {
                            let av = _mm512_loadu_ps(a_p.as_ptr());
                            for (jj, accj) in acc.iter_mut().enumerate() {
                                let bv = _mm512_set1_ps(*b0.add(jj * k + p));
                                *accj = _mm512_fmadd_ps(av, bv, *accj);
                            }
                        }
                    } else {
                        // Ragged column tail: the same per-element FMA
                        // chain, one column at a time.
                        for (jj, accj) in acc.iter_mut().take(cols).enumerate() {
                            let bj = bp.add((j + jj) * k + p0);
                            for (p, a_p) in panel.iter().enumerate() {
                                let av = _mm512_loadu_ps(a_p.as_ptr());
                                *accj = _mm512_fmadd_ps(av, _mm512_set1_ps(*bj.add(p)), *accj);
                            }
                        }
                    }
                    // Column jj of the tile holds output column j + jj;
                    // add it to each output row's `cols` contiguous floats.
                    // SAFETY: `c` is `m×n` (this function's contract), and
                    // `i0 + r < m`, `j + jj < j + cols ≤ n`.
                    for (t, accj) in tile.iter_mut().zip(&acc).take(cols) {
                        _mm512_storeu_ps(t.as_mut_ptr(), *accj);
                    }
                    for r in 0..rows {
                        let c_row = cp.add((i0 + r) * n + j);
                        for (jj, t) in tile.iter().take(cols).enumerate() {
                            *c_row.add(jj) += t[r];
                        }
                    }
                    j += cols;
                }
                p0 += kc;
            }
            i0 += rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ulp::assert_ulp_close;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    /// Reference triple loop: `C += op(A) · op(B)` with explicit index
    /// functions.
    fn reference(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        a_at: impl Fn(&[f32], usize, usize) -> f32,
        b_at: impl Fn(&[f32], usize, usize) -> f32,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a_at(a, i, p) as f64 * b_at(b, p, j) as f64;
                }
                c[i * n + j] += acc as f32;
            }
        }
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                "element {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn nn_matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        // Includes k spanning multiple KC blocks and non-multiple-of-4
        // remainders in every dimension.
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (32, 144, 288), (2, 9, 600), (5, 1, 4)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c = random_matrix(&mut rng, m * n);
            let mut want = c.clone();
            gemm_nn(m, n, k, &a, &b, &mut c);
            reference(
                (m, n, k),
                &a,
                &b,
                &mut want,
                |a, i, p| a[i * k + p],
                |b, p, j| b[p * n + j],
            );
            assert_close(&c, &want);
        }
    }

    #[test]
    fn nt_matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, n, k) in &[(1, 1, 1), (2, 2, 8), (3, 5, 7), (32, 144, 144), (7, 3, 600)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, n * k);
            let mut c = random_matrix(&mut rng, m * n);
            let mut want = c.clone();
            gemm_nt(m, n, k, &a, &b, &mut c);
            reference(
                (m, n, k),
                &a,
                &b,
                &mut want,
                |a, i, p| a[i * k + p],
                |b, p, j| b[j * k + p],
            );
            assert_close(&c, &want);
        }
    }

    #[test]
    fn tn_matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n, k) in &[(1, 1, 1), (4, 1, 9), (144, 144, 32), (5, 7, 3), (3, 4, 600)] {
            let a = random_matrix(&mut rng, k * m);
            let b = random_matrix(&mut rng, k * n);
            let mut c = random_matrix(&mut rng, m * n);
            let mut want = c.clone();
            gemm_tn(m, n, k, &a, &b, &mut c);
            reference(
                (m, n, k),
                &a,
                &b,
                &mut want,
                |a, i, p| a[p * m + i],
                |b, p, j| b[p * n + j],
            );
            assert_close(&c, &want);
        }
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // 2×2 identity
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [100.0f32; 4];
        gemm_nn(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, n, k) = (9, 13, 300);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let run = |f: &dyn Fn(&mut [f32])| {
            let mut c = vec![0.0f32; m * n];
            f(&mut c);
            c
        };
        let nn = |c: &mut [f32]| gemm_nn(m, n, k, &a, &b, c);
        assert_eq!(run(&nn), run(&nn));
        let a2 = random_matrix(&mut rng, n * k);
        let nt = |c: &mut [f32]| gemm_nt(m, n, k, &a, &a2, c);
        assert_eq!(run(&nt), run(&nt));
    }

    #[test]
    fn nt_batched_is_bit_identical_to_per_sample_nt() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, batch, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 2, 288),
            (250, 13, 288),
            (2, 64, 9),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let xs = random_matrix(&mut rng, batch * k);
            let seed = random_matrix(&mut rng, batch * m);
            let mut got = seed.clone();
            gemm_nt_batched(m, batch, k, &a, &xs, &mut got);
            let mut want = seed;
            for j in 0..batch {
                gemm_nt(
                    m,
                    1,
                    k,
                    &a,
                    &xs[j * k..(j + 1) * k],
                    &mut want[j * m..(j + 1) * m],
                );
            }
            assert_eq!(got, want, "m={m} batch={batch} k={k}");
        }
    }

    #[test]
    fn nt_batched_fused_matches_unfused_plus_epilogue() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, batch, k) = (5, 4, 11);
        let a = random_matrix(&mut rng, m * k);
        let xs = random_matrix(&mut rng, batch * k);
        for ep in [Epilogue::Relu, Epilogue::Sigmoid, Epilogue::Tanh] {
            let mut fused = vec![0.0f32; batch * m];
            gemm_nt_batched_fused(m, batch, k, &a, &xs, &mut fused, Some(ep));
            let mut plain = vec![0.0f32; batch * m];
            gemm_nt_batched(m, batch, k, &a, &xs, &mut plain);
            ep.apply(&mut plain);
            assert_eq!(fused, plain);
        }
    }

    #[test]
    fn gemm_call_counter_is_monotone() {
        let before = gemm_call_count();
        let mut c = [0.0f32; 1];
        gemm_nn(1, 1, 1, &[1.0], &[1.0], &mut c);
        gemm_nt(1, 1, 1, &[1.0], &[1.0], &mut c);
        gemm_tn(1, 1, 1, &[1.0], &[1.0], &mut c);
        gemm_nt_batched(1, 1, 1, &[1.0], &[1.0], &mut c);
        // Other tests run concurrently, so assert a lower bound only.
        assert!(gemm_call_count() >= before + 4);
    }

    #[test]
    #[should_panic(expected = "gemm_nn: A must be m×k")]
    fn mismatched_dimensions_panic() {
        let mut c = [0.0f32; 4];
        gemm_nn(2, 2, 3, &[0.0; 5], &[0.0; 6], &mut c);
    }

    #[test]
    fn zero_sized_dimensions_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm_nn(0, 0, 0, &[], &[], &mut c);
        gemm_tn(0, 0, 0, &[], &[], &mut c);
        let mut c2 = [3.0f32; 2];
        gemm_nn(1, 2, 0, &[], &[], &mut c2);
        assert_eq!(c2, [3.0, 3.0]); // k = 0 contributes nothing
    }

    #[test]
    fn backend_resolution_is_stable_and_named() {
        let b = kernel_backend();
        assert_eq!(b, kernel_backend());
        assert!(matches!(b.name(), "scalar" | "avx2" | "avx512"));
        assert_eq!(b.is_simd(), b.name() != "scalar");
    }

    /// Under `HOTSPOT_SIMD=scalar` (or `avx2`, `avx512`) every kernel
    /// dispatches through exactly that backend; unset or `auto`, this
    /// checks nothing.
    #[test]
    fn a_named_override_selects_that_backend() {
        let named = std::env::var("HOTSPOT_SIMD")
            .ok()
            .and_then(|raw| parse_override(&raw));
        if let Some(backend) = named {
            assert_eq!(kernel_backend(), backend);
        }
    }

    #[test]
    fn override_parser_accepts_known_values() {
        assert_eq!(parse_override(""), None);
        assert_eq!(parse_override("auto"), None);
        assert_eq!(parse_override(" AVX2 "), Some(KernelBackend::Avx2));
        assert_eq!(parse_override("avx512"), Some(KernelBackend::Avx512));
        assert_eq!(parse_override("scalar"), Some(KernelBackend::Scalar));
    }

    #[test]
    #[should_panic(expected = "not recognised")]
    fn override_parser_rejects_typos() {
        let _ = parse_override("sclar");
    }

    /// The AVX2 tile, its masked column strips and its remainder rows all
    /// run one in-order FMA chain per element, starting from `C`: for
    /// every `n` up to 40 (full tiles, every strip width, and both) each
    /// element of `gemm_nn` and `gemm_tn` has that chain's bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_nn_and_tn_equal_a_per_element_fma_chain() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return; // the AVX2 tier cannot run on this CPU
        }
        let mut rng = StdRng::seed_from_u64(12);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=40 {
            for &(m, k) in &[(1usize, 1usize), (4, 7), (7, 33), (9, 16)] {
                let a = random_matrix(&mut rng, m * k);
                let b = random_matrix(&mut rng, k * n);
                let seed = random_matrix(&mut rng, m * n);
                let chain = |a_at: &dyn Fn(usize, usize) -> f32| {
                    let mut c = seed.clone();
                    for i in 0..m {
                        for j in 0..n {
                            let acc = &mut c[i * n + j];
                            for p in 0..k {
                                *acc = a_at(i, p).mul_add(b[p * n + j], *acc);
                            }
                        }
                    }
                    c
                };
                let mut nn = seed.clone();
                avx2::gemm_nn_shim(m, n, k, &a, &b, &mut nn);
                let want = chain(&|i, p| a[i * k + p]);
                assert_eq!(bits(&nn), bits(&want), "nn m={m} n={n} k={k}");
                let mut tn = seed.clone();
                avx2::gemm_tn_shim(m, n, k, &a, &b, &mut tn);
                let want = chain(&|i, p| a[p * m + i]);
                assert_eq!(bits(&tn), bits(&want), "tn m={m} n={n} k={k}");
            }
        }
    }

    /// Every compiled backend must agree with the scalar oracle within the
    /// crate-wide ULP envelope, on shapes exercising full tiles and ragged
    /// m/n/k tails, plus the Table-1 network's backward shapes (at
    /// k = 32 input channels).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_backends_match_scalar_oracle_within_ulp() {
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (8, 32, 16),
            (16, 576, 288), // conv1 at score-block 4
            (32, 144, 288), // conv4 at score-block 4
            (9, 33, 289),   // ragged everything
            (250, 4, 288),  // dense batched as nt
            (13, 1, 37),    // ragged n = 1
            // tn: conv1-1/conv1-2/conv2-1/conv2-2 dX, then fc1/fc2 dX.
            (288, 144, 16),
            (144, 144, 16),
            (144, 36, 32),
            (288, 36, 32),
            (288, 1, 250),
            (250, 1, 2),
            // nt: conv1-1/conv1-2/conv2-1/conv2-2 dW.
            (16, 288, 144),
            (16, 144, 144),
            (32, 144, 36),
            (32, 288, 36),
        ];
        for &(m, n, k) in &shapes {
            // One k×m / m×k buffer serves as A for every kernel.
            let a = random_matrix(&mut rng, m * k);
            let b_nn = random_matrix(&mut rng, k * n);
            let b_nt = random_matrix(&mut rng, n * k);
            let seed = random_matrix(&mut rng, m * n);

            let mut want = seed.clone();
            scalar::gemm_nn(m, n, k, &a, &b_nn, &mut want);
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                let mut got = seed.clone();
                avx2::gemm_nn_shim(m, n, k, &a, &b_nn, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }
            if is_x86_feature_detected!("avx512f") {
                let mut got = seed.clone();
                avx512::gemm_nn_shim(m, n, k, &a, &b_nn, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }

            let mut want = seed.clone();
            scalar::gemm_nt(m, n, k, &a, &b_nt, &mut want);
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                let mut got = seed.clone();
                avx2::gemm_nt_shim(m, n, k, &a, &b_nt, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }
            if is_x86_feature_detected!("avx512f") {
                let mut got = seed.clone();
                avx512::gemm_nt_shim(m, n, k, &a, &b_nt, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }

            let mut want = seed.clone();
            scalar::gemm_tn(m, n, k, &a, &b_nn, &mut want);
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                let mut got = seed.clone();
                avx2::gemm_tn_shim(m, n, k, &a, &b_nn, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }
            if is_x86_feature_detected!("avx512f") {
                let mut got = seed.clone();
                avx512::gemm_tn_shim(m, n, k, &a, &b_nn, &mut got);
                assert_ulp_close(&got, &want, 128, 1e-4);
            }
        }
    }
}
