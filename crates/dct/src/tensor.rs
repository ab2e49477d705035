//! Feature-tensor extraction and reconstruction (the paper's Section 3).

use crate::{blocks, dct2d, zigzag, Dct2d, DctError};
use hotspot_geometry::Grid;
use serde::{Deserialize, Serialize};

/// Parameters of feature-tensor extraction: an `n × n` block grid with the
/// first `k` zig-zag DCT coefficients kept per block.
///
/// The paper's reference configuration is `n = 12` (1200×1200 nm clip, 100 nm
/// blocks) with `k ≪ B×B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureTensorSpec {
    grid_dim: usize,
    coefficients: usize,
}

impl FeatureTensorSpec {
    /// Creates a spec with `grid_dim` blocks per axis keeping `coefficients`
    /// values per block.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::ZeroDimension`] if either parameter is zero.
    pub fn new(grid_dim: usize, coefficients: usize) -> Result<Self, DctError> {
        if grid_dim == 0 || coefficients == 0 {
            return Err(DctError::ZeroDimension);
        }
        Ok(FeatureTensorSpec {
            grid_dim,
            coefficients,
        })
    }

    /// Blocks per axis (`n`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Kept coefficients per block (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }
}

/// The paper's compressed hyper-image: `k` channels of `n × n` spatial cells.
///
/// `data` is channel-major (`[c][j][i]`, row-major within a channel), the
/// layout the CNN consumes directly; element `(i, j, c)` is the `c`-th
/// zig-zag DCT coefficient of block `(i, j)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureTensor {
    grid_dim: usize,
    coefficients: usize,
    block_size: usize,
    data: Vec<f32>,
}

impl FeatureTensor {
    /// Blocks per axis (`n`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Channels (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// Pixel side length `B` of the source blocks (needed for
    /// reconstruction).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Channel-major backing buffer of length `k * n * n`.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor, returning the channel-major buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Coefficient `c` of block `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    #[inline]
    pub fn coefficient(&self, i: usize, j: usize, c: usize) -> f32 {
        assert!(i < self.grid_dim && j < self.grid_dim && c < self.coefficients);
        self.data[(c * self.grid_dim + j) * self.grid_dim + i]
    }

    /// One channel as an `n × n` grid (e.g. channel 0 is the per-block DC
    /// map — a density-like thumbnail of the clip).
    ///
    /// # Panics
    ///
    /// Panics if `c >= coefficients`.
    pub fn channel(&self, c: usize) -> Grid<f32> {
        assert!(c < self.coefficients, "channel {c} out of range");
        let n = self.grid_dim;
        Grid::from_vec(n, n, self.data[c * n * n..(c + 1) * n * n].to_vec())
    }
}

/// Accumulator lanes per kernel pass: the row transform of one pass
/// produces this many horizontal frequencies at once.
const LANES: usize = 8;

/// Most vertical frequencies one kernel pass accumulates.
const MAX_VERTICALS: usize = 16;

/// Pixel rows whose row-pass results the kernel holds at once.
const ROWS: usize = 16;

/// A reusable truncated block-DCT plan: the first `k` zig-zag coefficients
/// of a `B × B` block, and nothing else.
///
/// This is the forward kernel behind every feature tensor
/// ([`extract_feature_tensor`], `hotspot-core`'s `FeaturePipeline` and its
/// full-layout scan cache). [`BlockDctPlan::transform_into`] reads a block
/// in place from a raster slice and writes its `k` coefficients, already
/// scaled, wherever the caller wants them, without allocating.
///
/// The plan computes only what the kept coefficients need: the row pass
/// runs for the horizontal frequencies `zigzag_indices(B)[..k]` uses and
/// the column pass for the vertical ones (8 and 7 of 10 at `B = 10`,
/// `k = 32`). Each coefficient is still the sum [`Dct2d::forward`] forms,
/// with the same products added in the same order, so the results are
/// **bit-identical** to the full transform followed by truncation:
///
/// - row pass: `t[r][h] = Σ_x X[r][x] · C[h][x]` from `0.0`, `x` ascending;
/// - column pass: `D[v][h] = Σ_r C[v][r] · t[r][h]` from `0.0`, `r`
///   ascending;
/// - every multiply and add rounds separately (no FMA). Each accumulator
///   is one lane of a fixed-width array, so vectorising across frequencies
///   never reassociates a sum.
///
/// Rows whose pixels are all `±0.0` are skipped, and an all-zero block
/// writes `+0.0 · scale` for every coefficient without running either
/// pass. Both are exact: every product with such a row is `±0`, a sum
/// that starts at `+0.0` is never `-0.0`, and adding `±0` to it changes
/// nothing. (The reference also skips zero basis weights; the basis has
/// none.) A row with the bits of the previous nonzero row takes that row's
/// row-pass sums, which are the same products added in the same order.
#[derive(Debug, Clone)]
pub struct BlockDctPlan {
    block_size: usize,
    coefficients: usize,
    passes: Vec<Pass>,
}

/// One kernel pass: up to [`LANES`] horizontal frequencies, up to
/// [`MAX_VERTICALS`] vertical frequencies, and the kept coefficients in
/// their product.
#[derive(Debug, Clone)]
struct Pass {
    /// `rows[x][l]`: basis weight of the pass's `l`-th horizontal frequency
    /// at pixel column `x` (unused lanes are zero).
    rows: Vec<[f32; LANES]>,
    /// `cols[i * B + r]`: basis weight of the pass's `i`-th vertical
    /// frequency at pixel row `r`.
    cols: Vec<f32>,
    verticals: usize,
    /// `(zig-zag position, slot · LANES + lane)` of each kept coefficient
    /// this pass produces: where its sum sits in the flattened
    /// accumulators.
    picks: Vec<(usize, usize)>,
}

impl BlockDctPlan {
    /// Creates a plan for `B × B` blocks keeping the first `coefficients`
    /// zig-zag values.
    ///
    /// # Errors
    ///
    /// - [`DctError::ZeroDimension`] if either parameter is zero.
    /// - [`DctError::TooManyCoefficients`] if `coefficients > B × B`.
    pub fn new(block_size: usize, coefficients: usize) -> Result<Self, DctError> {
        let b = block_size;
        if b == 0 || coefficients == 0 {
            return Err(DctError::ZeroDimension);
        }
        if coefficients > b * b {
            return Err(DctError::TooManyCoefficients {
                requested: coefficients,
                available: b * b,
            });
        }
        let order = zigzag::zigzag_indices(b);
        let kept = &order[..coefficients];
        let mut basis = vec![0.0f32; b * b];
        for (f, row) in basis.chunks_exact_mut(b).enumerate() {
            dct2d::basis_row(b, f, row);
        }
        let basis_row = |f: usize| &basis[f * b..(f + 1) * b];
        let distinct = |mut fs: Vec<usize>| {
            fs.sort_unstable();
            fs.dedup();
            fs
        };
        let horizontals = distinct(kept.iter().map(|&(h, _)| h).collect());
        let mut passes = Vec::new();
        for hs in horizontals.chunks(LANES) {
            let verticals = distinct(
                kept.iter()
                    .filter(|(h, _)| hs.contains(h))
                    .map(|&(_, v)| v)
                    .collect(),
            );
            for vs in verticals.chunks(MAX_VERTICALS) {
                let rows = (0..b)
                    .map(|x| {
                        let mut lanes = [0.0f32; LANES];
                        for (lane, &h) in lanes.iter_mut().zip(hs) {
                            *lane = basis_row(h)[x];
                        }
                        lanes
                    })
                    .collect();
                let cols = vs.iter().flat_map(|&v| basis_row(v)).copied().collect();
                let picks = kept
                    .iter()
                    .enumerate()
                    .filter_map(|(c, (h, v))| {
                        let lane = hs.iter().position(|f| f == h)?;
                        let slot = vs.iter().position(|f| f == v)?;
                        Some((c, slot * LANES + lane))
                    })
                    .collect();
                passes.push(Pass {
                    rows,
                    cols,
                    verticals: vs.len(),
                    picks,
                });
            }
        }
        Ok(BlockDctPlan {
            block_size: b,
            coefficients,
            passes,
        })
    }

    /// Pixel side length `B` of the blocks this plan transforms.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Kept coefficients per block (`k`).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// The first `k` zig-zag DCT coefficients of one `B × B` block.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::BlockMismatch`] if `block` is not `B × B`.
    pub fn coefficients_for(&self, block: &Grid<f32>) -> Result<Vec<f32>, DctError> {
        let b = self.block_size;
        if block.width() != b || block.height() != b {
            return Err(DctError::BlockMismatch {
                width: block.width(),
                height: block.height(),
                grid_dim: b,
            });
        }
        let mut out = vec![0.0f32; self.coefficients];
        self.transform_into(block.as_slice(), b, 1.0, &mut out, 1);
        Ok(out)
    }

    /// The kernel: transforms the `B × B` block whose top-left pixel is
    /// `pixels[0]`, with rows `stride` pixels apart, and writes zig-zag
    /// coefficient `c` multiplied by `scale` to `out[c * out_stride]`.
    ///
    /// A block of a row-major raster `w` pixels wide starts at
    /// `&raster[y * w + x..]` with `stride = w`. `out_stride = n · n`
    /// writes into the `c`-th channel of an `n × n` channel-major tensor
    /// (slice it at the block's cell `j · n + i`); `out_stride = 1` writes
    /// the coefficients contiguously.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` ends before the block's last pixel or `out`
    /// before coefficient `k - 1`'s slot.
    pub fn transform_into(
        &self,
        pixels: &[f32],
        stride: usize,
        scale: f32,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let b = self.block_size;
        let pixels = &pixels[..(b - 1) * stride + b];
        let out = &mut out[..(self.coefficients - 1) * out_stride + 1];
        // Branch-free test for a row of ±0.0 pixels (an OR of the bits
        // below the sign), which LLVM vectorises.
        let blank = |r: usize| {
            let row = &pixels[r * stride..r * stride + b];
            row.iter().fold(0, |bits, &p| bits | (p.to_bits() << 1)) == 0
        };
        // Whether rows `r` and `q` hold the same bits: an OR of XORs,
        // branch-free like `blank`.
        let same = |r: usize, q: usize| {
            let row = &pixels[r * stride..r * stride + b];
            let other = &pixels[q * stride..q * stride + b];
            let diff = row.iter().zip(other);
            diff.fold(0, |bits, (&p, &o)| bits | (p.to_bits() ^ o.to_bits())) == 0
        };
        if (0..b).all(blank) {
            for c in 0..self.coefficients {
                out[c * out_stride] = 0.0 * scale;
            }
            return;
        }
        for pass in &self.passes {
            let mut acc = [[0.0f32; LANES]; MAX_VERTICALS];
            let acc = &mut acc[..pass.verticals];
            for r0 in (0..b).step_by(ROWS) {
                // Row pass over the nonzero rows of this group, keeping
                // each row's horizontal frequencies in `t`. Finishing the
                // rows before the column pass (rather than feeding each row
                // straight in) is what lets LLVM vectorise both passes
                // across lanes.
                let mut t = [[0.0f32; LANES]; ROWS];
                let mut live = [0usize; ROWS];
                let mut count = 0;
                for r in r0..b.min(r0 + ROWS) {
                    if blank(r) {
                        continue;
                    }
                    // A row with the bits of the previous live row has its
                    // sums.
                    t[count] = match count.checked_sub(1) {
                        Some(prev) if same(r, live[prev]) => t[prev],
                        _ => {
                            let row = &pixels[r * stride..r * stride + b];
                            let mut sums = [0.0f32; LANES];
                            for (&p, weights) in row.iter().zip(&pass.rows) {
                                for l in 0..LANES {
                                    sums[l] += p * weights[l];
                                }
                            }
                            sums
                        }
                    };
                    live[count] = r;
                    count += 1;
                }
                // Column pass: one vertical frequency at a time, rows
                // ascending, all lanes side by side.
                for (lanes, cols) in acc.iter_mut().zip(pass.cols.chunks_exact(b)) {
                    let mut sums = *lanes;
                    for (row, &r) in t[..count].iter().zip(&live[..count]) {
                        let w = cols[r];
                        for l in 0..LANES {
                            sums[l] += w * row[l];
                        }
                    }
                    *lanes = sums;
                }
            }
            let sums = acc.as_flattened();
            for &(c, at) in &pass.picks {
                out[c * out_stride] = sums[at] * scale;
            }
        }
    }

    /// Writes the feature tensor of `image`, an `n × n` grid of this
    /// plan's blocks, into `out` channel-major (`out[(c·n + j)·n + i]` is
    /// coefficient `c` of block `(i, j)`), each value multiplied by
    /// `scale`.
    ///
    /// # Errors
    ///
    /// - [`DctError::BlockMismatch`] if `image` is not `n·B × n·B`.
    /// - [`DctError::BufferLength`] if `out.len() != k · n · n`.
    pub fn tensor_into(
        &self,
        image: &Grid<f32>,
        grid_dim: usize,
        scale: f32,
        out: &mut [f32],
    ) -> Result<(), DctError> {
        let (b, n) = (self.block_size, grid_dim);
        let side = n * b;
        if n == 0 || image.width() != side || image.height() != side {
            return Err(DctError::BlockMismatch {
                width: image.width(),
                height: image.height(),
                grid_dim: n,
            });
        }
        let expected = self.coefficients * n * n;
        if out.len() != expected {
            return Err(DctError::BufferLength {
                expected,
                actual: out.len(),
            });
        }
        let pixels = image.as_slice();
        for j in 0..n {
            for i in 0..n {
                let corner = j * b * side + i * b;
                self.transform_into(&pixels[corner..], side, scale, &mut out[j * n + i..], n * n);
            }
        }
        Ok(())
    }
}

/// Extracts the feature tensor of a rasterised clip image.
///
/// Implements paper Steps 1–4: block division, per-block 2-D DCT, zig-zag
/// flattening, truncation to the first `k` coefficients, reassembled with
/// spatial relationships unchanged — through [`BlockDctPlan`], which
/// computes only the kept coefficients.
///
/// # Errors
///
/// - [`DctError::BlockMismatch`] if the image is not square or not divisible
///   by the grid dimension.
/// - [`DctError::TooManyCoefficients`] if `k > B × B`.
///
/// # Examples
///
/// ```
/// use hotspot_dct::{extract_feature_tensor, FeatureTensorSpec};
/// use hotspot_geometry::Grid;
///
/// # fn main() -> Result<(), hotspot_dct::DctError> {
/// let img = Grid::filled(120, 120, 0.25f32);
/// let spec = FeatureTensorSpec::new(12, 16)?;
/// let t = extract_feature_tensor(&img, &spec)?;
/// assert_eq!((t.grid_dim(), t.coefficients(), t.block_size()), (12, 16, 10));
/// // Constant image: every block has only a DC component.
/// assert!((t.coefficient(3, 7, 0) - 0.25 * 10.0).abs() < 1e-4);
/// assert!(t.coefficient(3, 7, 1).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn extract_feature_tensor(
    image: &Grid<f32>,
    spec: &FeatureTensorSpec,
) -> Result<FeatureTensor, DctError> {
    let n = spec.grid_dim;
    let k = spec.coefficients;
    let b = blocks::block_size(image, n)?;
    let plan = BlockDctPlan::new(b, k)?;
    let mut data = vec![0.0f32; k * n * n];
    plan.tensor_into(image, n, 1.0, &mut data)?;
    Ok(FeatureTensor {
        grid_dim: n,
        coefficients: k,
        block_size: b,
        data,
    })
}

/// Recovers an approximation of the original clip image from a feature
/// tensor (the paper's "reversing above procedure").
///
/// Dropped high-frequency coefficients are zero-filled, so the result is the
/// best `k`-term zig-zag approximation per block.
///
/// # Errors
///
/// Returns [`DctError::BlockMismatch`] if `block_size` disagrees with the
/// tensor's recorded block size, and [`DctError::ZeroDimension`] if zero.
pub fn reconstruct_image(tensor: &FeatureTensor, block_size: usize) -> Result<Grid<f32>, DctError> {
    if block_size == 0 {
        return Err(DctError::ZeroDimension);
    }
    if block_size != tensor.block_size {
        return Err(DctError::BlockMismatch {
            width: block_size,
            height: block_size,
            grid_dim: tensor.grid_dim,
        });
    }
    let n = tensor.grid_dim;
    let k = tensor.coefficients;
    let b = block_size;
    let plan = Dct2d::new(b)?;
    let mut block_images = Vec::with_capacity(n * n);
    let mut scan = vec![0.0f32; k];
    for j in 0..n {
        for i in 0..n {
            for (c, slot) in scan.iter_mut().enumerate() {
                *slot = tensor.data[(c * n + j) * n + i];
            }
            let coeffs = zigzag::zigzag_unscan(&scan, b);
            block_images.push(plan.inverse(&coeffs)?);
        }
    }
    blocks::join_blocks(&block_images, n)
}

/// Root-mean-square pixel error between an image and its feature-tensor
/// round trip — the information-loss metric reported by the `fig1` bench.
///
/// # Errors
///
/// Propagates extraction/reconstruction errors.
pub fn reconstruction_rmse(image: &Grid<f32>, spec: &FeatureTensorSpec) -> Result<f64, DctError> {
    let tensor = extract_feature_tensor(image, spec)?;
    let back = reconstruct_image(&tensor, tensor.block_size())?;
    let mut acc = 0.0f64;
    for (a, b) in image.iter().zip(back.iter()) {
        let d = (*a - *b) as f64;
        acc += d * d;
    }
    Ok((acc / image.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes(side: usize, period: usize) -> Grid<f32> {
        let mut g = Grid::filled(side, side, 0.0f32);
        for y in 0..side {
            for x in 0..side {
                if (x / period).is_multiple_of(2) {
                    g[(x, y)] = 1.0;
                }
            }
        }
        g
    }

    #[test]
    fn spec_validates() {
        assert!(FeatureTensorSpec::new(0, 4).is_err());
        assert!(FeatureTensorSpec::new(12, 0).is_err());
        let s = FeatureTensorSpec::new(12, 32).unwrap();
        assert_eq!((s.grid_dim(), s.coefficients()), (12, 32));
    }

    #[test]
    fn rejects_too_many_coefficients() {
        let img = Grid::filled(24, 24, 0.0f32);
        let spec = FeatureTensorSpec::new(12, 5).unwrap(); // blocks are 2x2 = 4
        assert!(matches!(
            extract_feature_tensor(&img, &spec),
            Err(DctError::TooManyCoefficients {
                requested: 5,
                available: 4
            })
        ));
    }

    #[test]
    fn full_coefficients_reconstruct_exactly() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 16).unwrap(); // 4x4 blocks, keep all
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let back = reconstruct_image(&t, 4).unwrap();
        for (a, b) in img.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(reconstruction_rmse(&img, &spec).unwrap() < 1e-4);
    }

    #[test]
    fn rmse_decreases_with_more_coefficients() {
        let img = stripes(48, 5);
        let mut last = f64::INFINITY;
        for k in [1usize, 4, 16, 36, 64] {
            let spec = FeatureTensorSpec::new(6, k).unwrap(); // 8x8 blocks
            let rmse = reconstruction_rmse(&img, &spec).unwrap();
            assert!(
                rmse <= last + 1e-9,
                "rmse should be monotone nonincreasing: k={k} rmse={rmse} last={last}"
            );
            last = rmse;
        }
        assert!(last < 1e-4, "full coefficient set must be lossless");
    }

    #[test]
    fn channel_zero_is_block_dc() {
        let img = stripes(24, 24); // left half 1, right half 0... (period 24: all 1)
        let spec = FeatureTensorSpec::new(4, 2).unwrap(); // 6x6 blocks
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let dc = t.channel(0);
        // All-ones image: DC per orthonormal 2-D DCT = mean * B = 6.
        for &v in dc.iter() {
            assert!((v - 6.0).abs() < 1e-4);
        }
    }

    #[test]
    fn tensor_layout_is_channel_major() {
        let img = stripes(8, 2);
        let spec = FeatureTensorSpec::new(2, 3).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        assert_eq!(t.as_slice().len(), 3 * 2 * 2);
        assert_eq!(t.coefficient(1, 0, 2), t.as_slice()[(2 * 2) * 2 + 1]);
    }

    #[test]
    fn reconstruct_checks_block_size() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 4).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        assert!(reconstruct_image(&t, 5).is_err());
        assert!(reconstruct_image(&t, 0).is_err());
        assert!(reconstruct_image(&t, 4).is_ok());
    }

    #[test]
    fn block_plan_validates() {
        assert!(BlockDctPlan::new(0, 4).is_err());
        assert!(BlockDctPlan::new(4, 0).is_err());
        assert!(matches!(
            BlockDctPlan::new(2, 5),
            Err(DctError::TooManyCoefficients {
                requested: 5,
                available: 4
            })
        ));
        let p = BlockDctPlan::new(4, 6).unwrap();
        assert_eq!((p.block_size(), p.coefficients()), (4, 6));
        // Wrong block shape is rejected.
        assert!(p.coefficients_for(&Grid::filled(3, 4, 0.0f32)).is_err());
    }

    #[test]
    fn block_plan_is_bit_identical_to_whole_image_extraction() {
        let img = stripes(24, 3);
        let spec = FeatureTensorSpec::new(6, 9).unwrap(); // 4x4 blocks
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let plan = BlockDctPlan::new(4, 9).unwrap();
        for j in 0..6 {
            for i in 0..6 {
                let block = img.window(i * 4, j * 4, 4, 4);
                let v = plan.coefficients_for(&block).unwrap();
                for (c, &coeff) in v.iter().enumerate() {
                    assert_eq!(
                        coeff.to_bits(),
                        t.coefficient(i, j, c).to_bits(),
                        "block ({i},{j}) channel {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_plan_transforms_only_the_kept_frequencies() {
        // B = 10, k = 32: the first 32 zig-zag cells use horizontal
        // frequencies 0..8 and vertical frequencies 0..7 — one pass.
        let plan = BlockDctPlan::new(10, 32).unwrap();
        assert_eq!(plan.passes.len(), 1);
        let pass = &plan.passes[0];
        assert_eq!(pass.verticals, 7);
        assert!(pass
            .rows
            .iter()
            .all(|lanes| lanes.iter().all(|&w| w != 0.0)));
        assert_eq!(pass.picks.len(), 32);
        // All 100 coefficients: horizontals split over two passes.
        let full = BlockDctPlan::new(10, 100).unwrap();
        assert_eq!(full.passes.len(), 2);
        let picks: usize = full.passes.iter().map(|p| p.picks.len()).sum();
        assert_eq!(picks, 100);
    }

    #[test]
    fn large_blocks_match_the_full_transform_across_row_groups_and_passes() {
        // B = 37 needs three row groups, five horizontal passes and, at
        // k = B², three vertical chunks per pass.
        let b = 37;
        let img = Grid::from_vec(
            b,
            b,
            (0..b * b)
                .map(|v| match v % 11 {
                    0..=4 => 0.0,
                    5 => -0.0,
                    6 => 1.0,
                    k => (k as f32 - 8.5) / 3.0,
                })
                .collect(),
        );
        let full = Dct2d::new(b).unwrap().forward(&img).unwrap();
        let want: Vec<u32> = zigzag::zigzag_indices(b)
            .iter()
            .map(|&(x, y)| full[(x, y)].to_bits())
            .collect();
        for k in [1, 40, 700, b * b] {
            let got = BlockDctPlan::new(b, k)
                .unwrap()
                .coefficients_for(&img)
                .unwrap();
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want[..k], "k={k}");
        }
    }

    #[test]
    fn kernel_reads_in_place_and_writes_strided() {
        let img = stripes(24, 3);
        let plan = BlockDctPlan::new(4, 9).unwrap();
        let want = plan.coefficients_for(&img.window(8, 12, 4, 4)).unwrap();
        let mut out = [f32::NAN; 9 * 5];
        plan.transform_into(&img.as_slice()[12 * 24 + 8..], 24, 0.5, &mut out[2..], 5);
        for (c, &v) in want.iter().enumerate() {
            assert_eq!(
                out[2 + c * 5].to_bits(),
                (v * 0.5).to_bits(),
                "coefficient {c}"
            );
        }
        assert!(out[3].is_nan(), "slots between strides stay untouched");
    }

    #[test]
    fn tensor_into_checks_shapes() {
        let img = stripes(24, 3);
        let plan = BlockDctPlan::new(4, 9).unwrap();
        let mut out = vec![0.0f32; 9 * 36];
        assert!(plan.tensor_into(&img, 6, 1.0, &mut out).is_ok());
        assert!(matches!(
            plan.tensor_into(&img, 5, 1.0, &mut out),
            Err(DctError::BlockMismatch { .. })
        ));
        assert_eq!(
            plan.tensor_into(&img, 6, 1.0, &mut out[1..]),
            Err(DctError::BufferLength {
                expected: 324,
                actual: 323
            })
        );
    }

    #[test]
    fn spatial_information_is_preserved() {
        // A feature the flattened baselines lose: two clips with identical
        // global density but different spatial arrangement must produce
        // different DC channels.
        let mut left = Grid::filled(24, 24, 0.0f32);
        let mut right = Grid::filled(24, 24, 0.0f32);
        for y in 0..24 {
            for x in 0..12 {
                left[(x, y)] = 1.0;
                right[(x + 12, y)] = 1.0;
            }
        }
        let spec = FeatureTensorSpec::new(4, 1).unwrap();
        let tl = extract_feature_tensor(&left, &spec).unwrap();
        let tr = extract_feature_tensor(&right, &spec).unwrap();
        assert_ne!(tl.channel(0), tr.channel(0));
        // But total DC energy (global density) matches.
        let sl: f32 = tl.channel(0).iter().sum();
        let sr: f32 = tr.channel(0).iter().sum();
        assert!((sl - sr).abs() < 1e-4);
    }
}
