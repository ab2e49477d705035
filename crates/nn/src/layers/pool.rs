//! 2×2 max pooling.

use super::{BackwardCtx, Epilogue, Layer};

/// 2×2 max pooling with stride 2 on CHW tensors (the paper's pooling
/// configuration, Table 1).
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// common deep-learning default. The argmax indices backward needs live in
/// the caller-provided index scratch ([`Layer::idx_len`]), so planned
/// training reuses one buffer across steps.
///
/// # Examples
///
/// ```
/// use hotspot_nn::engine::Executor;
/// use hotspot_nn::layers::MaxPool2;
/// use hotspot_nn::{Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(MaxPool2::new());
/// let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
/// assert_eq!(Executor::new().infer(&net, &x), &[5.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxPool2;

impl MaxPool2 {
    /// Creates a 2×2/stride-2 max-pooling layer.
    pub fn new() -> Self {
        MaxPool2
    }

    fn check_input(in_shape: &[usize]) -> (usize, usize, usize) {
        assert_eq!(in_shape.len(), 3, "maxpool input must be CHW");
        let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
        assert!(h >= 2 && w >= 2, "maxpool needs at least 2x2 spatial input");
        (c, h, w)
    }
}

impl Layer for MaxPool2 {
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (c, h, w) = Self::check_input(in_shape);
        vec![c, h / 2, w / 2]
    }

    fn idx_len(&self, in_shape: &[usize]) -> usize {
        let (c, h, w) = Self::check_input(in_shape);
        c * (h / 2) * (w / 2)
    }

    fn forward_into(
        &self,
        x: &[f32],
        in_shape: &[usize],
        y: &mut [f32],
        _scratch: &mut [f32],
        idx: &mut [usize],
        _epilogue: Option<Epilogue>,
    ) {
        let (c, h, w) = Self::check_input(in_shape);
        let (oh, ow) = (h / 2, w / 2);
        assert_eq!(y.len(), c * oh * ow, "maxpool output length");
        assert_eq!(idx.len(), c * oh * ow, "maxpool index scratch length");
        let mut o = 0usize;
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    // Strict-`>` scan: earliest maximum wins ties, exactly
                    // like the historical per-tensor implementation.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let (iy, ix) = (oy * 2 + dy, ox * 2 + dx);
                            let flat = (ch * h + iy) * w + ix;
                            let v = x[flat];
                            if v > best {
                                best = v;
                                best_idx = flat;
                            }
                        }
                    }
                    y[o] = best;
                    idx[o] = best_idx;
                    o += 1;
                }
            }
        }
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
        let (c, h, w) = Self::check_input(in_shape);
        let in_len = c * h * w;
        let out_len = c * (h / 2) * (w / 2);
        assert_eq!(x.len(), in_len * batch, "batched input length");
        assert_eq!(y.len(), out_len * batch, "batched output length");
        #[cfg(target_arch = "x86_64")]
        if w <= 16 && crate::gemm::kernel_backend() == crate::gemm::KernelBackend::Avx512 {
            // Inference-only fast path: argmax indices are not produced
            // (the per-sample default overwrites them sample-by-sample
            // anyway, so batched callers can never rely on them).
            for j in 0..batch {
                unsafe {
                    simd::pool_rows_avx512(
                        &x[j * in_len..(j + 1) * in_len],
                        c,
                        h,
                        w,
                        &mut y[j * out_len..(j + 1) * out_len],
                    );
                }
            }
            return;
        }
        let idx_len = self.idx_len(in_shape);
        for j in 0..batch {
            self.forward_into(
                &x[j * in_len..(j + 1) * in_len],
                in_shape,
                &mut y[j * out_len..(j + 1) * out_len],
                scratch,
                &mut idx[..idx_len],
                epilogue,
            );
        }
    }

    fn backward_into(&mut self, ctx: BackwardCtx<'_>, grad_in: Option<&mut [f32]>) {
        let Some(grad_in) = grad_in else { return };
        assert_eq!(
            ctx.grad.len(),
            ctx.idx.len(),
            "maxpool backward before forward or shape mismatch"
        );
        // Scatter-add into the caller-zero-filled input gradient.
        for (&g, &i) in ctx.grad.iter().zip(ctx.idx) {
            grad_in[i] += g;
        }
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "maxpool"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// One sample of 2×2/stride-2 max pooling over CHW, vectorised along
    /// the row axis (requires `w ≤ 16` so an input row fits one register).
    ///
    /// Bit-compatibility: each output lane performs the scalar path's
    /// exact comparison sequence — a strict-`>` running best seeded with
    /// `-∞`, visiting top-left, top-right, bottom-left, bottom-right —
    /// via compare+blend, so the values are bit-identical to
    /// [`super::MaxPool2::forward_into`] for every input, including NaNs
    /// and signed zeros.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pool_rows_avx512(x: &[f32], c: usize, h: usize, w: usize, y: &mut [f32]) {
        debug_assert!((2..=16).contains(&w) && h >= 2);
        let (oh, ow) = (h / 2, w / 2);
        debug_assert_eq!(x.len(), c * h * w);
        debug_assert_eq!(y.len(), c * oh * ow);
        // Only the 2·ow columns the pooling windows cover are loaded; an
        // odd trailing column is dropped exactly like the scalar path.
        let in_mask = ((1u32 << (2 * ow)) - 1) as __mmask16;
        let out_mask = ((1u32 << ow) - 1) as __mmask16;
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 0, 0, 0, 0, 0, 0, 0, 0);
        let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 1, 1, 1, 1, 1, 1, 1, 1);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for ch in 0..c {
            for oy in 0..oh {
                let top = _mm512_maskz_loadu_ps(in_mask, xp.add((ch * h + oy * 2) * w));
                let bot = _mm512_maskz_loadu_ps(in_mask, xp.add((ch * h + oy * 2 + 1) * w));
                let mut m = _mm512_set1_ps(f32::NEG_INFINITY);
                let v = _mm512_permutexvar_ps(even, top);
                m = _mm512_mask_mov_ps(m, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, m), v);
                let v = _mm512_permutexvar_ps(odd, top);
                m = _mm512_mask_mov_ps(m, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, m), v);
                let v = _mm512_permutexvar_ps(even, bot);
                m = _mm512_mask_mov_ps(m, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, m), v);
                let v = _mm512_permutexvar_ps(odd, bot);
                m = _mm512_mask_mov_ps(m, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, m), v);
                _mm512_mask_storeu_ps(yp.add((ch * oh + oy) * ow), out_mask, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{infer, single, train};
    use crate::Tensor;

    #[test]
    fn picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        );
        let y = infer(&single(MaxPool2::new()), &x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]);
        let (_, g) = train(&mut single(MaxPool2::new()), &x, &[2.5]);
        assert_eq!(g.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn channels_are_independent() {
        let x = Tensor::from_vec(
            vec![2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0],
        );
        let y = infer(&single(MaxPool2::new()), &x);
        assert_eq!(y.as_slice(), &[4.0, 40.0]);
    }

    #[test]
    fn odd_dimensions_floor() {
        let y = infer(&single(MaxPool2::new()), &Tensor::zeros(vec![1, 5, 7]));
        assert_eq!(y.shape(), &[1, 2, 3]);
        assert_eq!(MaxPool2::new().out_shape(&[1, 5, 7]), vec![1, 2, 3]);
    }

    #[test]
    fn negative_values_pool_correctly() {
        let x = Tensor::from_vec(vec![1, 2, 2], vec![-5.0, -1.0, -3.0, -2.0]);
        let y = infer(&single(MaxPool2::new()), &x);
        assert_eq!(y.as_slice(), &[-1.0]);
    }

    /// The batched path (SIMD on AVX-512 hosts) must reproduce the
    /// per-sample scalar scan bit-for-bit, including NaN, signed-zero and
    /// infinity inputs and odd (floored) spatial dims.
    #[test]
    fn batched_pool_matches_per_sample_bitwise() {
        let pool = MaxPool2::new();
        for &(c, h, w) in &[(16, 12, 12), (32, 6, 6), (3, 5, 7), (2, 2, 16), (1, 4, 2)] {
            let batch = 3usize;
            let in_len = c * h * w;
            let out_len = c * (h / 2) * (w / 2);
            let mut x: Vec<f32> = (0..batch * in_len)
                .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f32 * 0.013 - 6.5)
                .collect();
            x[0] = f32::NAN;
            x[1] = -0.0;
            x[in_len / 2] = f32::NEG_INFINITY;
            let mut batched = vec![0.0f32; batch * out_len];
            let mut idx = vec![0usize; out_len];
            pool.forward_batch_into(&x, &[c, h, w], batch, &mut batched, &mut [], &mut idx, None);
            for j in 0..batch {
                let mut ys = vec![0.0f32; out_len];
                pool.forward_into(
                    &x[j * in_len..(j + 1) * in_len],
                    &[c, h, w],
                    &mut ys,
                    &mut [],
                    &mut idx,
                    None,
                );
                let got: Vec<u32> = batched[j * out_len..(j + 1) * out_len]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u32> = ys.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "shape {:?} sample {j}", (c, h, w));
            }
        }
    }
}
