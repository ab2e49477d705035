//! 2-D convolution, lowered onto GEMM via im2col — with an AVX-512
//! direct kernel for the paper's 3×3 "same" shape.
//!
//! The im2col lowering is the portable reference path and the only
//! *training* path (backward consumes the `col` matrix the training
//! forward leaves in scratch). Inference forwards additionally dispatch
//! on [`gemm::kernel_backend`]: when the AVX-512 backend is resolved and
//! the layer is a 3×3 / pad-1 convolution over an image at most
//! [`MAX_DIRECT_W`] pixels wide, [`Conv2d::forward_into`] skips im2col
//! entirely and convolves rows in registers (`zmm` lanes spanning the
//! output channels, one accumulator vector per output pixel — see the
//! `direct3x3` module). That removes the dominant cost of small-window scoring: the
//! unfold traffic, not the multiply itself. The direct kernel is
//! per-sample, so batched and per-window scoring stay bit-identical by
//! construction; across *backends* its outputs differ from the scalar
//! oracle only in summation order (see [`crate::ulp`]).

use super::{BackwardCtx, Epilogue, Layer};
#[cfg(test)]
use crate::Tensor;
use crate::{gemm, init};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Widest image the direct AVX-512 3×3 kernel handles (one output row of
/// per-pixel accumulators held entirely in registers).
pub const MAX_DIRECT_W: usize = 12;

/// A 2-D convolution over CHW tensors with configurable kernel size,
/// stride 1 and symmetric zero padding (the paper uses 3×3 kernels with
/// "same" padding, i.e. `padding = 1`).
///
/// Weight layout: `[out_c][in_c][ky][kx]`, bias per output channel.
///
/// Internally the spatial loops are lowered onto the [`crate::gemm`]
/// kernels: the input is unfolded into a column matrix
/// `col[in_c·k²][oh·ow]` (im2col) so that
///
/// * forward is `out = W · col` ([`gemm::gemm_nn_fused`], optionally with
///   a fused activation epilogue),
/// * the weight gradient is `dW = dY · colᵀ` ([`gemm::gemm_nt`]), and
/// * the input gradient is `dX = col2im(Wᵀ · dY)` ([`gemm::gemm_tn`]),
///   computed only when the caller asks for it: a training backward skips
///   it for the network's first layer, whose input gradient nothing reads.
///
/// The `col` and `dcol` matrices live in caller-provided scratch
/// ([`Layer::scratch_len`] reports `2 · in_c·k²·oh·ow`), so a planned
/// executor reuses one arena across every call and steady-state training
/// and scanning do no per-step allocation here.
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::{Conv2d, Layer};
///
/// let conv = Conv2d::new(3, 16, 3, 1, 42);
/// assert_eq!(conv.out_shape(&[3, 12, 12]), vec![16, 12, 12]); // "same" spatial size
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    ksize: usize,
    pad: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights (seeded).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel size is even (symmetric
    /// "same" padding needs odd kernels).
    pub fn new(in_c: usize, out_c: usize, ksize: usize, pad: usize, seed: u64) -> Self {
        assert!(in_c > 0 && out_c > 0 && ksize > 0, "zero conv dimension");
        assert!(ksize % 2 == 1, "kernel size must be odd, got {ksize}");
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_c * ksize * ksize;
        let count = out_c * fan_in;
        Conv2d {
            in_c,
            out_c,
            ksize,
            pad,
            weights: init::he_normal(count, fan_in, &mut rng),
            bias: vec![0.0; out_c],
            grad_weights: vec![0.0; count],
            grad_bias: vec![0.0; out_c],
        }
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.pad + 1 - self.ksize,
            w + 2 * self.pad + 1 - self.ksize,
        )
    }

    fn check_input(&self, in_shape: &[usize]) -> (usize, usize) {
        assert_eq!(in_shape.len(), 3, "conv input must be CHW");
        assert_eq!(
            in_shape[0], self.in_c,
            "conv expected {} channels",
            self.in_c
        );
        (in_shape[1], in_shape[2])
    }

    /// The im2col matrix length for one direction (`col` or `dcol`).
    fn col_len(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.out_hw(h, w);
        self.in_c * self.ksize * self.ksize * oh * ow
    }

    /// Unfolds `x` into `col`: row `(ic·k + ky)·k + kx` holds, for every
    /// output position `(oy, ox)`, the input sample
    /// `x[ic][oy+ky-pad][ox+kx-pad]` (zero outside the image).
    ///
    /// Writes into a caller-provided slice (a planned workspace region).
    /// Every element of `col` is written — either a copy from `x` or an
    /// explicit padding zero — so no upfront full-buffer memset is needed
    /// and stale contents from a previous window never leak into the
    /// padding.
    #[allow(clippy::too_many_arguments)]
    fn im2col_into(
        col: &mut [f32],
        x: &[f32],
        in_c: usize,
        ksize: usize,
        pad: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    ) {
        Self::im2col_strided_into(col, x, in_c, ksize, pad, h, w, oh, ow, oh * ow, 0);
    }

    /// [`Conv2d::im2col_into`] writing sample `col_off / (oh·ow)` of a
    /// batched column matrix whose rows are `row_stride` wide: row `r` of
    /// this sample's unfold lands at `col[r·row_stride + col_off ..]`.
    /// With `row_stride = batch·oh·ow` and `col_off = b·oh·ow` the batched
    /// matrix holds every window's columns side by side (window-major), so
    /// one [`gemm::gemm_nn`] call convolves the whole block while each
    /// column's arithmetic — and therefore each window's output — is
    /// unchanged.
    ///
    /// A "same" shape (`oh = h`, `ow = w`) takes [`Conv2d::im2col_block`];
    /// every other shape the per-row [`Conv2d::im2col_rows`]. Both write
    /// the same bits.
    #[allow(clippy::too_many_arguments)]
    fn im2col_strided_into(
        col: &mut [f32],
        x: &[f32],
        in_c: usize,
        ksize: usize,
        pad: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        row_stride: usize,
        col_off: usize,
    ) {
        assert_eq!(
            col.len(),
            in_c * ksize * ksize * row_stride,
            "im2col buffer length"
        );
        assert!(col_off + oh * ow <= row_stride, "im2col column range");
        assert_eq!(x.len(), in_c * h * w, "im2col input length");
        if (oh, ow) == (h, w) {
            Self::im2col_block(col, x, in_c, ksize, h, w, row_stride, col_off);
        } else {
            Self::im2col_rows(col, x, in_c, ksize, pad, h, w, oh, ow, row_stride, col_off);
        }
    }

    /// The general unfold: one copy per output row of each `col` row.
    /// Serves every shape, and is the oracle [`Conv2d::im2col_block`] is
    /// tested against.
    #[allow(clippy::too_many_arguments)]
    fn im2col_rows(
        col: &mut [f32],
        x: &[f32],
        in_c: usize,
        ksize: usize,
        pad: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        row_stride: usize,
        col_off: usize,
    ) {
        let k = ksize;
        let pad = pad as isize;
        for ic in 0..in_c {
            let plane = &x[ic * h * w..(ic + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row_base = ((ic * k + ky) * k + kx) * row_stride + col_off;
                    let dst = &mut col[row_base..row_base + oh * ow];
                    // Valid output-x range for this kernel column: the
                    // sampled ix = ox + kx - pad must land in [0, w).
                    let ox0 = 0isize.max(pad - kx as isize) as usize;
                    let ox1 = (ow as isize).min(w as isize + pad - kx as isize).max(0) as usize;
                    if ox0 >= ox1 {
                        dst.fill(0.0); // whole column samples the zero padding
                        continue;
                    }
                    let shift = kx as isize - pad; // ix = ox + shift
                    for oy in 0..oh {
                        let iy = oy as isize + ky as isize - pad;
                        let row = &mut dst[oy * ow..(oy + 1) * ow];
                        if iy < 0 || iy >= h as isize {
                            row.fill(0.0); // fully above/below the image
                            continue;
                        }
                        let src_base = iy as usize * w;
                        let src = &plane[(src_base as isize + ox0 as isize + shift) as usize
                            ..(src_base as isize + ox1 as isize + shift) as usize];
                        row[..ox0].fill(0.0);
                        row[ox0..ox1].copy_from_slice(src);
                        row[ox1..].fill(0.0);
                    }
                }
            }
        }
    }

    /// The unfold of a "same" shape (`oh = h`, `ow = w`, so `pad =
    /// (k−1)/2`), a whole plane per `col` row: zero the output rows above
    /// and below the image, copy the rest as one shifted block (see
    /// [`same_shift`]), then zero the columns the shift wrapped onto a
    /// neighbouring image row. Every element ends up with the bits
    /// [`Conv2d::im2col_rows`] writes there.
    #[allow(clippy::too_many_arguments)]
    fn im2col_block(
        col: &mut [f32],
        x: &[f32],
        in_c: usize,
        k: usize,
        h: usize,
        w: usize,
        row_stride: usize,
        col_off: usize,
    ) {
        let hw = h * w;
        for ky in 0..k {
            for kx in 0..k {
                let shift = same_shift(k, h, w, ky, kx);
                for ic in 0..in_c {
                    let plane = &x[ic * hw..(ic + 1) * hw];
                    let row_base = ((ic * k + ky) * k + kx) * row_stride + col_off;
                    let dst = &mut col[row_base..row_base + hw];
                    let Some(sh) = &shift else {
                        dst.fill(0.0); // every sample lies in the zero padding
                        continue;
                    };
                    dst[..sh.rows.start * w].fill(0.0);
                    dst[sh.rows.end * w..].fill(0.0);
                    let src = &plane[sh.source..sh.source + sh.span.len()];
                    dst[sh.span.clone()].copy_from_slice(src);
                    sh.zero_wrapped(dst, w);
                }
            }
        }
    }

    /// Folds `dcol` back into an input-shaped gradient `grad_in`
    /// (scatter-add inverse of [`Conv2d::im2col_into`]; `grad_in` must be
    /// zero-filled by the caller). A "same" shape takes
    /// [`Conv2d::col2im_block`], which overwrites the entries of `dcol`
    /// that sample the padding; every other shape the per-row
    /// [`Conv2d::col2im_rows`]. Both leave the same bits in `grad_in`.
    fn col2im(
        &self,
        dcol: &mut [f32],
        grad_in: &mut [f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    ) {
        if (oh, ow) == (h, w) {
            Self::col2im_block(dcol, grad_in, self.in_c, self.ksize, h, w);
        } else {
            Self::col2im_rows(dcol, grad_in, self.in_c, self.ksize, self.pad, h, w, oh, ow);
        }
    }

    /// The fold of a "same" shape: one contiguous shifted add per `dcol`
    /// row. Channels fold into disjoint planes, so running `ic` inside
    /// `(ky, kx)` (one [`same_shift`] per tap) still gives every element
    /// its additions in the per-row path's `(ky, kx)` order. The add also
    /// covers the wrapped columns, whose values belong to no input
    /// element, so those `dcol` entries — backward scratch, rewritten
    /// every call — are zeroed first. Adding `+0.0` changes no sum here:
    /// every sum starts at `+0.0`, and a sum from `+0.0` is never `-0.0`.
    /// So each element gets the same additions as in
    /// [`Conv2d::col2im_rows`], in the same order, and the same bits.
    fn col2im_block(
        dcol: &mut [f32],
        grad_in: &mut [f32],
        in_c: usize,
        k: usize,
        h: usize,
        w: usize,
    ) {
        let hw = h * w;
        for ky in 0..k {
            for kx in 0..k {
                let Some(sh) = same_shift(k, h, w, ky, kx) else {
                    continue; // every sample lies in the zero padding
                };
                let dst = sh.source..sh.source + sh.span.len();
                for ic in 0..in_c {
                    let plane = &mut grad_in[ic * hw..(ic + 1) * hw];
                    let row_base = ((ic * k + ky) * k + kx) * hw;
                    let src = &mut dcol[row_base..row_base + hw];
                    sh.zero_wrapped(src, w);
                    for (d, s) in plane[dst.clone()].iter_mut().zip(&src[sh.span.clone()]) {
                        *d += s;
                    }
                }
            }
        }
    }

    /// The general fold: one add run per output row of each `dcol` row.
    /// Serves every shape, and is the oracle [`Conv2d::col2im_block`] is
    /// tested against.
    #[allow(clippy::too_many_arguments)]
    fn col2im_rows(
        dcol: &[f32],
        grad_in: &mut [f32],
        in_c: usize,
        k: usize,
        pad: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    ) {
        let pad = pad as isize;
        for ic in 0..in_c {
            let plane = &mut grad_in[ic * h * w..(ic + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row_base = ((ic * k + ky) * k + kx) * oh * ow;
                    let src_row = &dcol[row_base..row_base + oh * ow];
                    let ox0 = 0isize.max(pad - kx as isize) as usize;
                    let ox1 = (ow as isize).min(w as isize + pad - kx as isize).max(0) as usize;
                    if ox0 >= ox1 {
                        continue;
                    }
                    let shift = kx as isize - pad;
                    for oy in 0..oh {
                        let iy = oy as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_base = (iy as usize * w) as isize + shift;
                        let dst = &mut plane[(dst_base + ox0 as isize) as usize
                            ..(dst_base + ox1 as isize) as usize];
                        for (d, s) in dst.iter_mut().zip(&src_row[oy * ow + ox0..oy * ow + ox1]) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }

    /// Whether the shape alone qualifies for the direct AVX-512 3×3
    /// kernel: 3×3 kernel, "same" padding, stride 1, image width at most
    /// [`MAX_DIRECT_W`]. Split from [`Conv2d::direct_path`] because
    /// scratch *sizing* must not depend on the runtime backend (plans
    /// built under any backend stay valid under every other).
    fn direct_shape(&self, w: usize) -> bool {
        self.ksize == 3 && self.pad == 1 && (1..=MAX_DIRECT_W).contains(&w)
    }

    /// Scratch floats the direct kernel needs for this shape: the
    /// transposed tap matrix plus the position-major staging buffer.
    /// Zero when the shape is ineligible.
    fn direct_scratch_len(&self, h: usize, w: usize) -> usize {
        if self.direct_shape(w) {
            self.in_c * 9 * self.out_c + self.out_c * h * w
        } else {
            0
        }
    }

    /// Whether this call should take the direct AVX-512 3×3 kernel
    /// instead of im2col + GEMM. Shape-wise the kernel covers exactly the
    /// paper's convolutions ([`Conv2d::direct_shape`]). Backend-wise it
    /// rides the same runtime dispatch as the GEMM kernels, so
    /// `HOTSPOT_SIMD=scalar` disables it too and the scalar bit-identity
    /// pins keep meaning what they always meant.
    fn direct_path(&self, _h: usize, _w: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self.direct_shape(_w) && gemm::kernel_backend() == gemm::KernelBackend::Avx512
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Direct 3×3 forward for one sample (see [`Conv2d::direct_path`] for
    /// the eligibility contract), given an already-transposed tap matrix
    /// `wt` and a staging region of `out_c·h·w` floats. The ReLU epilogue
    /// is folded into the register tail (`max(acc, 0)` matches the scalar
    /// predicate bit-for-bit, including `-0.0` and NaN); other epilogues
    /// run the shared scalar [`Epilogue::apply`] over the finished output.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn forward_direct(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        y: &mut [f32],
        wt: &[f32],
        stage: &mut [f32],
        ep: Option<Epilogue>,
    ) {
        let relu = ep == Some(Epilogue::Relu);
        // Safety: `direct_path` returned true, so the resolved GEMM
        // backend is Avx512, which `gemm::resolve_backend` only permits
        // when avx512f is available at runtime.
        unsafe {
            direct3x3::conv_same_avx512(
                x, self.in_c, h, w, wt, &self.bias, self.out_c, relu, stage, y,
            );
        }
        match ep {
            None | Some(Epilogue::Relu) => {}
            Some(other) => other.apply(y),
        }
    }

    /// The im2col + GEMM forward pass — the portable path every backend
    /// shares, and the only one training may use (backward reads the
    /// `col` matrix this leaves in `scratch`).
    fn forward_im2col(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        y: &mut [f32],
        scratch: &mut [f32],
        epilogue: Option<Epilogue>,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let col = &mut scratch[..self.col_len(h, w)];
        Self::im2col_into(col, x, self.in_c, self.ksize, self.pad, h, w, oh, ow);
        for (oc, &b) in self.bias.iter().enumerate() {
            y[oc * oh * ow..(oc + 1) * oh * ow].fill(b);
        }
        gemm::gemm_nn_fused(
            self.out_c,
            oh * ow,
            self.in_c * self.ksize * self.ksize,
            &self.weights,
            col,
            y,
            epilogue,
        );
    }

    /// Reference direct-loop forward pass. Kept as the oracle the GEMM
    /// path is tested against; not compiled into release builds.
    #[cfg(test)]
    pub(crate) fn forward_naive(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(vec![self.out_c, oh, ow]);
        let pad = self.pad as isize;
        let k = self.ksize;
        let weight = |oc: usize, ic: usize, ky: usize, kx: usize| {
            self.weights[((oc * self.in_c + ic) * k + ky) * k + kx]
        };
        for oc in 0..self.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    for ic in 0..self.in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += weight(oc, ic, ky, kx)
                                    * input.at3(ic, iy as usize, ix as usize);
                            }
                        }
                    }
                    *out.at3_mut(oc, oy, ox) = acc;
                }
            }
        }
        out
    }
}

/// Where row `(·, ky, kx)` of a "same" unfold (odd `k`, pad `(k−1)/2`,
/// output `h × w`) samples its input plane, as returned by
/// [`same_shift`]. Element `q = oy·w + ox` of the row samples plane
/// element `q + s`, with `s = (ky − pad)·w + (kx − pad)`, wherever that
/// sample lies inside the image.
struct SameShift {
    /// Output rows `oy` whose source row lies inside the image.
    rows: Range<usize>,
    /// Columns `ox` of those rows whose source column lies outside it:
    /// there `q + s` has wrapped onto a neighbouring image row.
    wrap: Range<usize>,
    /// The `q` of `rows` whose `q + s` lies inside the plane. The `q` of
    /// `rows` outside `span` are all wrapped columns.
    span: Range<usize>,
    /// The plane element that `span.start` samples, `span.start + s`.
    source: usize,
}

impl SameShift {
    /// Zeroes the wrapped columns of one `h·w` unfold row, a column at a
    /// time: a few floats per image row, too short for a `fill` per row.
    fn zero_wrapped(&self, row: &mut [f32], w: usize) {
        for c in self.wrap.clone() {
            for oy in self.rows.clone() {
                row[oy * w + c] = 0.0;
            }
        }
    }
}

/// The [`SameShift`] of row `(·, ky, kx)`, or `None` when every sample of
/// the row lies in the zero padding.
fn same_shift(k: usize, h: usize, w: usize, ky: usize, kx: usize) -> Option<SameShift> {
    let pad = (k / 2) as isize;
    let (dy, dx) = (ky as isize - pad, kx as isize - pad);
    let (hi, wi) = (h as isize, w as isize);
    let rows = (-dy).clamp(0, hi) as usize..(hi - dy).clamp(0, hi) as usize;
    if rows.is_empty() || dx.abs() >= wi {
        return None;
    }
    let wrap = if dx < 0 {
        0..dx.unsigned_abs()
    } else {
        w - dx as usize..w
    };
    let s = dy * wi + dx;
    let span = ((rows.start * w) as isize).max(-s) as usize
        ..((rows.end * w) as isize).min(hi * wi - s) as usize;
    Some(SameShift {
        source: (span.start as isize + s) as usize,
        rows,
        wrap,
        span,
    })
}

/// The AVX-512 direct 3×3 "same" convolution kernel.
///
/// Vectorisation axis: **output channels**. A `zmm` lane is one output
/// channel, the input pixel is an embedded scalar broadcast, and the
/// weights are pre-transposed once per call into `[ic·ky·kx][oc]` tap
/// vectors ([`transpose_weights`]) so each tap is a single contiguous
/// (masked) load. That keeps every lane doing useful work regardless of
/// image width — the bench host sustains one 512-bit FMA per cycle, so
/// lane occupancy is exactly throughput.
///
/// An output row is held as `w` accumulators (one vector per output
/// pixel, seeded with the bias vector), monomorphised over `w ≤
/// MAX_DIRECT_W` so the accumulator indexing is static and the whole row
/// stays in registers across the full `in_c × 3 × 3` reduction. Rows are
/// produced position-major (`[oy][ox][oc]`) into a staging buffer and
/// transposed to CHW afterwards — pure copies, no arithmetic.
///
/// For one output element the contributions arrive in exactly the naive
/// `(ic, ky, kx)` order into a single accumulator — the only difference
/// from the scalar oracle is FMA contraction and a different grouping of
/// elements into registers, which is what the bounded-ULP envelope
/// ([`crate::ulp`]) covers.
#[cfg(target_arch = "x86_64")]
mod direct3x3 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Transposes conv weights `[oc][ic][ky][kx]` into tap-major
    /// `[ic·9 + ky·3 + kx][oc]` vectors for the direct kernel. Pure
    /// copies; runs once per forward call (shared across a whole batch).
    pub fn transpose_weights(weights: &[f32], in_c: usize, out_c: usize, wt: &mut [f32]) {
        assert_eq!(weights.len(), out_c * in_c * 9, "weight transpose input");
        assert!(wt.len() >= in_c * 9 * out_c, "weight transpose output");
        for oc in 0..out_c {
            let src = &weights[oc * in_c * 9..(oc + 1) * in_c * 9];
            for (t, &v) in src.iter().enumerate() {
                wt[t * out_c + oc] = v;
            }
        }
    }

    /// One output row for one 16-wide output-channel block.
    ///
    /// `W` (the image width) is a const generic so the per-pixel guards
    /// below fold at compile time and the `acc` array is indexed only by
    /// constants — LLVM then keeps all `W` accumulators in registers for
    /// the whole reduction, which a rolled loop (dynamic `acc[p]`) does
    /// not achieve.
    ///
    /// # Safety
    ///
    /// avx512f; `x` points at an `in_c × h × W` sample, `wt` at the
    /// block's first tap vector (stride `out_c` between taps), and
    /// `stage_row` at `W · out_c` writable floats; `mask` keeps every
    /// lane access within the `out_c` tail.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn row<const W: usize>(
        x: *const f32,
        in_c: usize,
        h: usize,
        oy: usize,
        wt: *const f32,
        out_c: usize,
        mask: __mmask16,
        bias_v: __m512,
        relu: bool,
        stage_row: *mut f32,
    ) {
        let zero = _mm512_setzero_ps();
        let mut acc = [bias_v; W];
        // Vertical taps hitting the zero padding contribute nothing and
        // are skipped outright (top row lacks ky = 0, bottom row ky = 2).
        let ky_lo = usize::from(oy == 0);
        let ky_hi = if oy + 1 == h { 1 } else { 2 };
        for ic in 0..in_c {
            let plane = x.add(ic * h * W);
            let taps = wt.add(ic * 9 * out_c);
            for ky in ky_lo..=ky_hi {
                let xrow = plane.add((oy + ky - 1) * W);
                for kx in 0..3usize {
                    let wv = _mm512_maskz_loadu_ps(mask, taps.add((ky * 3 + kx) * out_c));
                    // Pixel p samples xrow[p + kx - 1]; the two horizontal
                    // padding taps (kx = 0 at the left edge, kx = 2 at the
                    // right edge) are skipped by guards that fold away
                    // once W and the unrolled kx are constants.
                    macro_rules! pixels {
                        ($($p:literal),*) => { $(
                            if $p < W
                                && !(kx == 0 && $p == 0)
                                && !(kx == 2 && $p + 1 == W)
                            {
                                let xv = _mm512_set1_ps(*xrow.add(($p + kx) - 1));
                                acc[$p] = _mm512_fmadd_ps(xv, wv, acc[$p]);
                            }
                        )* };
                    }
                    pixels!(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11);
                }
            }
        }
        for (p, &a) in acc.iter().enumerate() {
            let v = if relu { _mm512_max_ps(a, zero) } else { a };
            _mm512_mask_storeu_ps(stage_row.add(p * out_c), mask, v);
        }
    }

    /// 3×3 / pad-1 / stride-1 convolution of one CHW sample, `w ≤ 12`.
    ///
    /// `wt` is the [`transpose_weights`] tap matrix, `stage` a scratch
    /// region of at least `h·w·out_c` floats; `y` receives the CHW
    /// output. A fused ReLU runs in-register (`max(acc, 0)` matches the
    /// scalar predicate bit-for-bit, including `-0.0` and NaN).
    ///
    /// # Safety
    ///
    /// Caller must guarantee avx512f is available. Slice lengths are
    /// checked with plain asserts before any raw pointer is formed.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn conv_same_avx512(
        x: &[f32],
        in_c: usize,
        h: usize,
        w: usize,
        wt: &[f32],
        bias: &[f32],
        out_c: usize,
        relu: bool,
        stage: &mut [f32],
        y: &mut [f32],
    ) {
        assert!(
            (1..=super::MAX_DIRECT_W).contains(&w),
            "direct conv width {w}"
        );
        assert_eq!(x.len(), in_c * h * w, "direct conv input length");
        assert_eq!(y.len(), out_c * h * w, "direct conv output length");
        assert!(wt.len() >= in_c * 9 * out_c, "direct conv tap matrix");
        assert_eq!(bias.len(), out_c, "direct conv bias");
        assert!(stage.len() >= h * w * out_c, "direct conv staging");
        for ob in (0..out_c).step_by(16) {
            let lanes = 16.min(out_c - ob);
            let mask: __mmask16 = if lanes == 16 {
                0xffff
            } else {
                ((1u32 << lanes) - 1) as __mmask16
            };
            let bias_v = _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(ob));
            for oy in 0..h {
                let stage_row = stage.as_mut_ptr().add(oy * w * out_c + ob);
                let wt_block = wt.as_ptr().add(ob);
                macro_rules! run {
                    ($w:literal) => {
                        row::<$w>(
                            x.as_ptr(),
                            in_c,
                            h,
                            oy,
                            wt_block,
                            out_c,
                            mask,
                            bias_v,
                            relu,
                            stage_row,
                        )
                    };
                }
                match w {
                    12 => run!(12),
                    11 => run!(11),
                    10 => run!(10),
                    9 => run!(9),
                    8 => run!(8),
                    7 => run!(7),
                    6 => run!(6),
                    5 => run!(5),
                    4 => run!(4),
                    3 => run!(3),
                    2 => run!(2),
                    1 => run!(1),
                    _ => unreachable!("width bounded by MAX_DIRECT_W"),
                }
            }
        }
        // Position-major staging → CHW output. Pure copies.
        let s = h * w;
        for oc in 0..out_c {
            for p in 0..s {
                *y.get_unchecked_mut(oc * s + p) = *stage.get_unchecked(p * out_c + oc);
            }
        }
    }
}

impl Layer for Conv2d {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (h, w) = self.check_input(in_shape);
        let (oh, ow) = self.out_hw(h, w);
        vec![self.out_c, oh, ow]
    }

    fn scratch_len(&self, in_shape: &[usize]) -> usize {
        let (h, w) = self.check_input(in_shape);
        // col (forward unfold) + dcol (backward Wᵀ·dY), contiguous
        // halves; an inference forward through the same region may
        // instead use the direct kernel's tap matrix + staging layout.
        (2 * self.col_len(h, w)).max(self.direct_scratch_len(h, w))
    }

    fn scratch_infer_len(&self, in_shape: &[usize]) -> usize {
        let (h, w) = self.check_input(in_shape);
        // Inference only unfolds `col` (the `dcol` half is backward-only)
        // — or, on the direct path, holds the tap matrix + staging.
        self.col_len(h, w).max(self.direct_scratch_len(h, w))
    }

    fn forward_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        scratch: &mut [f32],
        _idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        let (h, w) = self.check_input(in_shape);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(x.len(), self.in_c * h * w, "conv input length");
        assert_eq!(y.len(), self.out_c * oh * ow, "conv output length");
        #[cfg(target_arch = "x86_64")]
        if self.direct_path(h, w) {
            let wt_len = self.in_c * 9 * self.out_c;
            let (wt, stage) = scratch.split_at_mut(wt_len);
            direct3x3::transpose_weights(&self.weights, self.in_c, self.out_c, wt);
            self.forward_direct(x, h, w, y, wt, stage, epilogue);
            return;
        }
        self.forward_im2col(x, h, w, y, scratch, epilogue);
    }

    fn forward_train_into(
        &mut self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        scratch: &mut [f32],
        _idx: &mut [usize],
        epilogue: Option<Epilogue>,
    ) {
        // Training must take the im2col path on every backend:
        // `backward_into` consumes the `col` matrix this leaves in
        // `scratch` (dW = dY·colᵀ), which the direct kernel never
        // materialises.
        let (h, w) = self.check_input(in_shape);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(x.len(), self.in_c * h * w, "conv input length");
        assert_eq!(y.len(), self.out_c * oh * ow, "conv output length");
        self.forward_im2col(x, h, w, y, scratch, epilogue);
    }

    fn scratch_batch_len(&self, in_shape: &[usize], batch: usize) -> usize {
        let (h, w) = self.check_input(in_shape);
        if batch <= 1 {
            return self.col_len(h, w).max(self.direct_scratch_len(h, w));
        }
        let (oh, ow) = self.out_hw(h, w);
        // Batched col matrix (every window's columns side by side) plus a
        // channel-major staging buffer for the GEMM output before it is
        // reordered to sample-major. The direct kernel's footprint (tap
        // matrix + one sample's staging) is always smaller, but take the
        // max so the bound is self-evidently backend-independent.
        (batch * self.col_len(h, w) + batch * self.out_c * oh * ow)
            .max(self.direct_scratch_len(h, w))
    }

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
        if batch <= 1 {
            // The single-window path needs no staging reorder; its scratch
            // footprint is the plain inference one.
            if batch == 1 {
                self.forward_into(x, in_shape, y, scratch, idx, epilogue);
            }
            return;
        }
        let (h, w) = self.check_input(in_shape);
        let (oh, ow) = self.out_hw(h, w);
        let s = oh * ow;
        let in_len = self.in_c * h * w;
        let out_len = self.out_c * s;
        assert_eq!(x.len(), in_len * batch, "conv batched input length");
        assert_eq!(y.len(), out_len * batch, "conv batched output length");
        #[cfg(target_arch = "x86_64")]
        if self.direct_path(h, w) {
            // The direct kernel is per-sample, so the batched contract
            // (bit-identical to per-window calls) holds trivially — and
            // the big batched col matrix and its sample-major reorder
            // both disappear. The tap transposition is shared across the
            // whole block.
            let wt_len = self.in_c * 9 * self.out_c;
            let (wt, stage) = scratch.split_at_mut(wt_len);
            direct3x3::transpose_weights(&self.weights, self.in_c, self.out_c, wt);
            for b in 0..batch {
                self.forward_direct(
                    &x[b * in_len..(b + 1) * in_len],
                    h,
                    w,
                    &mut y[b * out_len..(b + 1) * out_len],
                    wt,
                    stage,
                    epilogue,
                );
            }
            return;
        }
        let col_rows = self.in_c * self.ksize * self.ksize;
        let total_cols = batch * s;
        let (col, stage) = scratch.split_at_mut(col_rows * total_cols);
        let stage = &mut stage[..self.out_c * total_cols];
        // Window-major unfold: window b owns columns [b·s, (b+1)·s).
        for b in 0..batch {
            Self::im2col_strided_into(
                col,
                &x[b * in_len..(b + 1) * in_len],
                self.in_c,
                self.ksize,
                self.pad,
                h,
                w,
                oh,
                ow,
                total_cols,
                b * s,
            );
        }
        // One GEMM for the whole block. GEMM columns are computed
        // independently (the accumulation order over k depends only on k),
        // so each window's output bits match the per-window call; the
        // epilogue is element-wise, so applying it across the block is
        // equally bit-identical.
        for (oc, &b) in self.bias.iter().enumerate() {
            stage[oc * total_cols..(oc + 1) * total_cols].fill(b);
        }
        gemm::gemm_nn_fused(
            self.out_c,
            total_cols,
            col_rows,
            &self.weights,
            col,
            stage,
            epilogue,
        );
        // The GEMM wrote channel-major [oc][b][s]; downstream layers expect
        // sample-major [b][oc][s]. Pure copies — no arithmetic.
        for b in 0..batch {
            for oc in 0..self.out_c {
                y[(b * self.out_c + oc) * s..][..s]
                    .copy_from_slice(&stage[(oc * batch + b) * s..][..s]);
            }
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let (h, w) = self.check_input(ctx.in_shape);
        let (oh, ow) = self.out_hw(h, w);
        let k2 = self.ksize * self.ksize;
        assert_eq!(ctx.grad.len(), self.out_c * oh * ow, "conv grad shape");
        let g = ctx.grad;

        // db[oc] = Σ_spatial dY[oc].
        for (oc, gb) in self.grad_bias.iter_mut().enumerate() {
            *gb += g[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
        }
        let (col, dcol) = ctx.scratch.split_at_mut(self.col_len(h, w));
        let dcol = &mut dcol[..self.col_len(h, w)];
        // dW = dY · colᵀ (accumulated into the running gradient).
        gemm::gemm_nt(
            self.out_c,
            self.in_c * k2,
            oh * ow,
            g,
            col,
            &mut self.grad_weights,
        );
        // dcol = Wᵀ · dY, then scatter-add back to the input shape — only
        // when the caller reads the input gradient.
        if let Some(grad_in) = grad_in {
            assert_eq!(grad_in.len(), self.in_c * h * w, "conv grad_in length");
            dcol.fill(0.0);
            gemm::gemm_tn(self.in_c * k2, oh * ow, self.out_c, &self.weights, g, dcol);
            self.col2im(dcol, grad_in, h, w, oh, ow);
        }
    }

    fn accepts_epilogue(&self) -> bool {
        true
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.weights, &mut self.grad_weights);
        visitor(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weights.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> &'static str {
        "conv"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::testutil::{infer, single};
    use rand::Rng;

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel with weight 1 reproduces the input channel.
        let mut conv = Conv2d::new(1, 1, 1, 0, 0);
        let mut call = 0;
        conv.visit_params(&mut |w, _| {
            // First visit is the weight, second the bias.
            w[0] = if call == 0 { 1.0 } else { 0.0 };
            call += 1;
        });
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = infer(&single(conv), &x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn same_padding_preserves_shape() {
        let conv = Conv2d::new(4, 8, 3, 1, 1);
        assert_eq!(conv.out_shape(&[4, 12, 12]), vec![8, 12, 12]);
        let y = infer(&single(conv), &Tensor::zeros(vec![4, 12, 12]));
        assert_eq!(y.shape(), &[8, 12, 12]);
    }

    #[test]
    fn valid_convolution_shrinks() {
        let y = infer(
            &single(Conv2d::new(1, 1, 3, 0, 1)),
            &Tensor::zeros(vec![1, 5, 7]),
        );
        assert_eq!(y.shape(), &[1, 3, 5]);
    }

    #[test]
    fn known_sum_kernel() {
        // All-ones 3x3 kernel over constant input counts the in-bounds
        // neighbourhood (padding contributes zeros).
        let mut conv = Conv2d::new(1, 1, 3, 1, 2);
        conv.visit_params(&mut |w, _| w.iter_mut().for_each(|v| *v = 1.0));
        // Reset bias to zero (visit sets it to 1 too, fix below).
        conv.visit_params(&mut |w, _| {
            if w.len() == 1 {
                w[0] = 0.0;
            }
        });
        let x = Tensor::from_vec(vec![1, 3, 3], vec![1.0; 9]);
        let y = infer(&single(conv), &x);
        assert_eq!(y.at3(0, 1, 1), 9.0); // full neighbourhood
        assert_eq!(y.at3(0, 0, 0), 4.0); // corner: 2x2 in bounds
        assert_eq!(y.at3(0, 0, 1), 6.0); // edge: 2x3 in bounds
    }

    #[test]
    fn bias_is_added() {
        let mut conv = Conv2d::new(1, 2, 1, 0, 3);
        conv.visit_params(&mut |w, _| {
            for v in w.iter_mut() {
                *v = 0.0;
            }
        });
        // Set biases to [1, -2].
        let mut call = 0;
        conv.visit_params(&mut |w, _| {
            if call == 1 {
                w[0] = 1.0;
                w[1] = -2.0;
            }
            call += 1;
        });
        let y = infer(&single(conv), &Tensor::zeros(vec![1, 2, 2]));
        assert_eq!(y.at3(0, 0, 0), 1.0);
        assert_eq!(y.at3(1, 1, 1), -2.0);
    }

    #[test]
    fn deterministic_init() {
        let a = Conv2d::new(2, 3, 3, 1, 7);
        let b = Conv2d::new(2, 3, 3, 1, 7);
        assert_eq!(a.weights, b.weights);
        let c = Conv2d::new(2, 3, 3, 1, 8);
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn parameter_count() {
        let conv = Conv2d::new(16, 32, 3, 1, 0);
        assert_eq!(conv.parameter_count(), 32 * 16 * 9 + 32);
    }

    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_requires_forward() {
        let mut net = single(Conv2d::new(1, 1, 3, 1, 0));
        let _ = Executor::new().backward(&mut net, &[0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = Conv2d::new(1, 1, 2, 0, 0);
    }

    #[test]
    fn gemm_forward_matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        // Odd kernels, pad 0/1/2, non-square images, multi-channel.
        for &(in_c, out_c, k, pad, h, w) in &[
            (1, 1, 1, 0, 4, 4),
            (2, 3, 3, 1, 5, 7),
            (3, 2, 3, 0, 7, 5),
            (4, 8, 3, 1, 12, 12),
            (2, 2, 5, 2, 9, 6),
            (1, 4, 5, 0, 8, 11),
        ] {
            let conv = Conv2d::new(in_c, out_c, k, pad, 21);
            let data: Vec<f32> = (0..in_c * h * w)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            let x = Tensor::from_vec(vec![in_c, h, w], data);
            let naive = conv.forward_naive(&x);
            let fast = infer(&single(conv), &x);
            assert_eq!(fast.shape(), naive.shape());
            for (i, (a, b)) in fast.as_slice().iter().zip(naive.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4_f32.max(1e-5 * b.abs()),
                    "({in_c},{out_c},{k},{pad},{h},{w}) idx {i}: {a} vs {b}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn gemm_path_equals_naive_on_random_shapes(
            seed in 0u64..1000,
            in_c in 1usize..4,
            out_c in 1usize..5,
            k in proptest::prop_oneof![
                proptest::strategy::Just(1usize),
                proptest::strategy::Just(3usize),
                proptest::strategy::Just(5usize),
            ],
            pad in 0usize..3,
            h in 5usize..11,
            w in 5usize..11,
        ) {
            let conv = Conv2d::new(in_c, out_c, k, pad, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let data: Vec<f32> =
                (0..in_c * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let x = Tensor::from_vec(vec![in_c, h, w], data);
            let naive = conv.forward_naive(&x);
            let fast = infer(&single(conv), &x);
            proptest::prop_assert_eq!(fast.shape(), naive.shape());
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                proptest::prop_assert!(
                    (a - b).abs() <= 1e-4_f32.max(1e-5 * b.abs()),
                    "({}, {}, {}, {}, {}, {}): {} vs {}",
                    in_c, out_c, k, pad, h, w, a, b
                );
            }
        }
    }

    /// Values mixing `+0.0`, `-0.0`, `1.0` and random floats.
    fn mixed_values(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The block unfold and fold write the per-row paths' bits: "same"
        /// shapes through the block functions, every other padding through
        /// the dispatching entry points, which must take the per-row path.
        #[test]
        fn block_lowering_is_bit_identical_to_per_row(
            seed in 0u64..1_000_000,
            in_c in 1usize..=4,
            k in proptest::prop_oneof![
                proptest::strategy::Just(1usize),
                proptest::strategy::Just(3usize),
                proptest::strategy::Just(5usize),
            ],
            pad_kind in 0usize..3,
            h in 1usize..=13,
            w in 1usize..=13,
            batch in 1usize..=3,
        ) {
            let pad = [k / 2, 0, k / 2 + 1][pad_kind];
            // A valid convolution needs the kernel to fit in the image.
            let (h, w) = if pad == 0 { (h.max(k), w.max(k)) } else { (h, w) };
            let conv = Conv2d::new(in_c, 1, k, pad, seed);
            let (oh, ow) = conv.out_hw(h, w);
            let same = (oh, ow) == (h, w);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = mixed_values(&mut rng, in_c * h * w);
            let label = format!("in_c {in_c} k {k} pad {pad} h {h} w {w} batch {batch}");

            // Unfold sample `b` of a batched matrix over stale contents:
            // both paths must overwrite the same elements with the same bits.
            let b = rng.gen_range(0..batch);
            let (stride, off) = (batch * oh * ow, b * oh * ow);
            let stale = vec![f32::from_bits(0x7fc0_0bad); in_c * k * k * stride];
            let mut want = stale.clone();
            Conv2d::im2col_rows(&mut want, &x, in_c, k, pad, h, w, oh, ow, stride, off);
            let mut got = stale.clone();
            Conv2d::im2col_strided_into(&mut got, &x, in_c, k, pad, h, w, oh, ow, stride, off);
            proptest::prop_assert_eq!(bits(&got), bits(&want), "im2col {}", &label);
            if same {
                let mut block = stale;
                Conv2d::im2col_block(&mut block, &x, in_c, k, h, w, stride, off);
                proptest::prop_assert_eq!(bits(&block), bits(&want), "block im2col {}", &label);
            }

            // Fold into a zero-filled gradient, as the backward contract
            // requires; the block fold may overwrite its copy of `dcol`.
            let dcol = mixed_values(&mut rng, in_c * k * k * oh * ow);
            let mut want = vec![0.0f32; in_c * h * w];
            Conv2d::col2im_rows(&dcol, &mut want, in_c, k, pad, h, w, oh, ow);
            let mut got = vec![0.0f32; in_c * h * w];
            conv.col2im(&mut dcol.clone(), &mut got, h, w, oh, ow);
            proptest::prop_assert_eq!(bits(&got), bits(&want), "col2im {}", &label);
            if same {
                let mut block = vec![0.0f32; in_c * h * w];
                Conv2d::col2im_block(&mut dcol.clone(), &mut block, in_c, k, h, w);
                proptest::prop_assert_eq!(bits(&block), bits(&want), "block col2im {}", &label);
            }
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_window() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(batch, pad, k) in &[(1usize, 1usize, 3usize), (2, 1, 3), (5, 0, 3), (4, 2, 5)] {
            let conv = Conv2d::new(2, 3, k, pad, 23);
            let in_shape = [2usize, 6, 6];
            let in_len = 2 * 6 * 6;
            let (oh, ow) = conv.out_hw(6, 6);
            let out_len = 3 * oh * ow;
            let x: Vec<f32> = (0..in_len * batch)
                .map(|_| rng.gen_range(-1.5f32..1.5))
                .collect();
            for ep in [None, Some(Epilogue::Relu)] {
                let mut batched = vec![0.0f32; out_len * batch];
                let mut scratch = vec![0.0f32; conv.scratch_batch_len(&in_shape, batch)];
                conv.forward_batch_into(
                    &x,
                    &in_shape,
                    batch,
                    &mut batched,
                    &mut scratch,
                    &mut [],
                    ep,
                );
                let mut single = vec![0.0f32; out_len * batch];
                let mut s1 = vec![0.0f32; conv.scratch_infer_len(&in_shape)];
                for b in 0..batch {
                    conv.forward_into(
                        &x[b * in_len..(b + 1) * in_len],
                        &in_shape,
                        &mut single[b * out_len..(b + 1) * out_len],
                        &mut s1,
                        &mut [],
                        ep,
                    );
                }
                assert_eq!(batched, single, "batch={batch} pad={pad} k={k} ep={ep:?}");
            }
        }
    }

    #[test]
    fn direct_path_matches_im2col_within_ulp() {
        use crate::ulp::assert_ulp_close;
        if gemm::kernel_backend() != gemm::KernelBackend::Avx512 {
            return; // the direct kernel only exists on the AVX-512 backend
        }
        let mut rng = StdRng::seed_from_u64(31);
        // Paper shapes plus edge widths (1, 12), a single-row image, an
        // output-channel count that exercises the masked tail block
        // (17 = 16 + 1), and a tall image.
        for &(in_c, out_c, h, w) in &[
            (32usize, 16usize, 12usize, 12usize),
            (16, 32, 6, 6),
            (3, 17, 9, 12),
            (2, 4, 7, 1),
            (1, 1, 1, 3),
            (4, 3, 20, 11),
        ] {
            let mut conv = Conv2d::new(in_c, out_c, 3, 1, 29);
            let in_shape = [in_c, h, w];
            let data: Vec<f32> = (0..in_c * h * w)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            let x = Tensor::from_vec(vec![in_c, h, w], data);
            for ep in [None, Some(Epilogue::Relu), Some(Epilogue::Tanh)] {
                assert!(conv.direct_path(h, w), "shape should be eligible");
                let mut direct = vec![0.0f32; out_c * h * w];
                let mut s_inf = vec![0.0f32; conv.scratch_infer_len(&in_shape)];
                conv.forward_into(
                    x.as_slice(),
                    &in_shape,
                    &mut direct,
                    &mut s_inf,
                    &mut [],
                    ep,
                );
                // The training forward must stay on im2col (backward
                // reads its col matrix), giving us the GEMM reference.
                let mut viacol = vec![0.0f32; out_c * h * w];
                let mut s_train = vec![0.0f32; conv.scratch_len(&in_shape)];
                conv.forward_train_into(
                    x.as_slice(),
                    &in_shape,
                    &mut viacol,
                    &mut s_train,
                    &mut [],
                    ep,
                );
                assert_ulp_close(&direct, &viacol, 128, 1e-4);
            }
        }
    }

    #[test]
    fn fused_relu_epilogue_is_bit_identical_to_unfused() {
        use super::super::Relu;
        let conv = Conv2d::new(2, 3, 3, 1, 9);
        let mut rng = StdRng::seed_from_u64(13);
        let data: Vec<f32> = (0..2 * 5 * 5)
            .map(|_| rng.gen_range(-1.5f32..1.5))
            .collect();
        let x = Tensor::from_vec(vec![2, 5, 5], data);
        let in_shape = [2usize, 5, 5];
        let mut y_fused = vec![0.0f32; 3 * 5 * 5];
        let mut scratch = vec![0.0f32; conv.scratch_len(&in_shape)];
        conv.forward_into(
            x.as_slice(),
            &in_shape,
            &mut y_fused,
            &mut scratch,
            &mut [],
            Some(Epilogue::Relu),
        );
        let unfused = infer(&single(Relu::new()), &infer(&single(conv), &x));
        assert_eq!(y_fused.as_slice(), unfused.as_slice());
    }
}
