//! Full 2-D DCT via a precomputed orthonormal basis matrix.
//!
//! The naive 2-D DCT is O(B⁴) per block; the separable form used here —
//! `D = C · X · Cᵀ` with a precomputed basis `C` — is O(B³). [`Dct2d`] is
//! the full-spectrum **reference** transform and the reconstruction path
//! ([`Dct2d::inverse`]). Feature extraction does not call it: it keeps only
//! the first `k` zig-zag coefficients of each block, and
//! [`crate::BlockDctPlan`] computes exactly those with the same sums in the
//! same order, bit-identical to [`Dct2d::forward`] followed by truncation.

use crate::DctError;
use hotspot_geometry::Grid;

/// A reusable 2-D DCT plan for `size × size` blocks.
///
/// Construct once per block size and reuse across blocks/clips: the basis
/// matrix costs O(B²) memory and its construction is amortised away.
///
/// # Examples
///
/// ```
/// use hotspot_dct::Dct2d;
/// use hotspot_geometry::Grid;
///
/// # fn main() -> Result<(), hotspot_dct::DctError> {
/// let plan = Dct2d::new(8)?;
/// let block = Grid::filled(8, 8, 1.0f32);
/// let coeffs = plan.forward(&block)?;
/// assert!((coeffs[(0, 0)] - 8.0).abs() < 1e-4); // DC = mean * B
/// let back = plan.inverse(&coeffs)?;
/// assert!((back[(3, 3)] - 1.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dct2d {
    size: usize,
    /// Row-major basis: `basis[k * size + x] = s(k) cos(π (x+½) k / B)`.
    basis: Vec<f32>,
}

/// Fills `row` (length `size`) with the orthonormal DCT-II basis of
/// frequency `k`: `row[x] = s(k) cos(π (x+½) k / B)`, computed in `f64` and
/// rounded once. [`Dct2d`] and [`crate::BlockDctPlan`] both build their
/// tables here, so they multiply by the same `f32` weights.
pub(crate) fn basis_row(size: usize, k: usize, row: &mut [f32]) {
    let nf = size as f64;
    let scale = if k == 0 {
        (1.0 / nf).sqrt()
    } else {
        (2.0 / nf).sqrt()
    };
    for (x, w) in row.iter_mut().enumerate() {
        *w = (scale * (std::f64::consts::PI * (x as f64 + 0.5) * k as f64 / nf).cos()) as f32;
    }
}

impl Dct2d {
    /// Builds a plan for `size × size` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::ZeroDimension`] if `size == 0`.
    pub fn new(size: usize) -> Result<Self, DctError> {
        if size == 0 {
            return Err(DctError::ZeroDimension);
        }
        let mut basis = vec![0.0f32; size * size];
        for k in 0..size {
            basis_row(size, k, &mut basis[k * size..(k + 1) * size]);
        }
        Ok(Dct2d { size, basis })
    }

    /// Block size this plan transforms.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward 2-D DCT-II: `D = C · X · Cᵀ`.
    ///
    /// Output layout matches the paper's Figure 1: `coeffs[(m, n)]` indexes
    /// horizontal frequency `m`, vertical frequency `n`; `(0, 0)` is DC.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::BlockMismatch`] if `block` is not `size × size`.
    pub fn forward(&self, block: &Grid<f32>) -> Result<Grid<f32>, DctError> {
        self.check(block)?;
        // tmp = X · Cᵀ   (transform rows)
        let tmp = self.rows_times_basis_t(block.as_slice());
        // out = C · tmp  (transform columns)
        Ok(Grid::from_vec(self.size, self.size, self.basis_times(&tmp)))
    }

    /// Inverse 2-D DCT (orthonormal DCT-III): `X = Cᵀ · D · C`.
    ///
    /// # Errors
    ///
    /// Returns [`DctError::BlockMismatch`] if `coeffs` is not `size × size`.
    pub fn inverse(&self, coeffs: &Grid<f32>) -> Result<Grid<f32>, DctError> {
        self.check(coeffs)?;
        // tmp = D · C
        let tmp = self.rows_times_basis(coeffs.as_slice());
        // out = Cᵀ · tmp
        Ok(Grid::from_vec(
            self.size,
            self.size,
            self.basis_t_times(&tmp),
        ))
    }

    fn check(&self, g: &Grid<f32>) -> Result<(), DctError> {
        if g.width() != self.size || g.height() != self.size {
            return Err(DctError::BlockMismatch {
                width: g.width(),
                height: g.height(),
                grid_dim: self.size,
            });
        }
        Ok(())
    }

    /// `out[r][k] = Σ_x m[r][x] * basis[k][x]`  (i.e. M · Cᵀ)
    fn rows_times_basis_t(&self, m: &[f32]) -> Vec<f32> {
        let b = self.size;
        let mut out = vec![0.0f32; b * b];
        for r in 0..b {
            let row = &m[r * b..(r + 1) * b];
            let orow = &mut out[r * b..(r + 1) * b];
            for k in 0..b {
                let basis_row = &self.basis[k * b..(k + 1) * b];
                let mut acc = 0.0f32;
                for x in 0..b {
                    acc += row[x] * basis_row[x];
                }
                orow[k] = acc;
            }
        }
        out
    }

    /// `out[r][c] = Σ_x m[r][x] * basis[x][c]`  (i.e. M · C)
    fn rows_times_basis(&self, m: &[f32]) -> Vec<f32> {
        let b = self.size;
        let mut out = vec![0.0f32; b * b];
        for r in 0..b {
            let row = &m[r * b..(r + 1) * b];
            let orow = &mut out[r * b..(r + 1) * b];
            for (x, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let basis_row = &self.basis[x * b..(x + 1) * b];
                for c in 0..b {
                    orow[c] += v * basis_row[c];
                }
            }
        }
        out
    }

    /// `out[k][c] = Σ_r basis[k][r] * m[r][c]`  (i.e. C · M)
    fn basis_times(&self, m: &[f32]) -> Vec<f32> {
        let b = self.size;
        let mut out = vec![0.0f32; b * b];
        for k in 0..b {
            let basis_row = &self.basis[k * b..(k + 1) * b];
            let orow = &mut out[k * b..(k + 1) * b];
            for (r, &w) in basis_row.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let mrow = &m[r * b..(r + 1) * b];
                for c in 0..b {
                    orow[c] += w * mrow[c];
                }
            }
        }
        out
    }

    /// `out[x][c] = Σ_k basis[k][x] * m[k][c]`  (i.e. Cᵀ · M)
    fn basis_t_times(&self, m: &[f32]) -> Vec<f32> {
        let b = self.size;
        let mut out = vec![0.0f32; b * b];
        for k in 0..b {
            let basis_row = &self.basis[k * b..(k + 1) * b];
            let mrow = &m[k * b..(k + 1) * b];
            for x in 0..b {
                let w = basis_row[x];
                if w == 0.0 {
                    continue;
                }
                let orow = &mut out[x * b..(x + 1) * b];
                for c in 0..b {
                    orow[c] += w * mrow[c];
                }
            }
        }
        out
    }

    /// Reference O(B⁴) forward transform straight from the paper's Eq. (1)
    /// (orthonormal scaling). Used by tests and the `dct` criterion bench to
    /// validate and measure the separable fast path.
    pub fn forward_naive(&self, block: &Grid<f32>) -> Result<Grid<f32>, DctError> {
        self.check(block)?;
        let b = self.size;
        let nf = b as f64;
        let mut out = Grid::filled(b, b, 0.0f32);
        for m in 0..b {
            for n in 0..b {
                let mut acc = 0.0f64;
                for y in 0..b {
                    for x in 0..b {
                        acc += block[(x, y)] as f64
                            * (std::f64::consts::PI * (x as f64 + 0.5) * m as f64 / nf).cos()
                            * (std::f64::consts::PI * (y as f64 + 0.5) * n as f64 / nf).cos();
                    }
                }
                let sm = if m == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                };
                let sn = if n == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                };
                out[(m, n)] = (acc * sm * sn) as f32;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(b: usize) -> Grid<f32> {
        Grid::from_vec(
            b,
            b,
            (0..b * b).map(|v| ((v * 13 + 7) % 17) as f32).collect(),
        )
    }

    #[test]
    fn basis_has_no_exact_zeros() {
        // `basis_times` skips zero weights; the truncated kernel does not
        // need to, because there are none to skip.
        for b in 1..=64 {
            let plan = Dct2d::new(b).unwrap();
            assert!(plan.basis.iter().all(|&w| w != 0.0), "b={b}");
        }
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(Dct2d::new(0).err(), Some(DctError::ZeroDimension));
    }

    #[test]
    fn mismatched_block_rejected() {
        let plan = Dct2d::new(4).unwrap();
        let g = Grid::filled(5, 4, 0.0f32);
        assert!(matches!(
            plan.forward(&g),
            Err(DctError::BlockMismatch { .. })
        ));
    }

    #[test]
    fn roundtrip_exact() {
        for b in [1usize, 2, 5, 10, 16] {
            let plan = Dct2d::new(b).unwrap();
            let x = ramp(b);
            let y = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
            for (a, c) in x.iter().zip(y.iter()) {
                assert!((a - c).abs() < 1e-3, "b={b}: {a} vs {c}");
            }
        }
    }

    #[test]
    fn fast_path_matches_naive() {
        let plan = Dct2d::new(10).unwrap();
        let x = ramp(10);
        let fast = plan.forward(&x).unwrap();
        let slow = plan.forward_naive(&x).unwrap();
        for (a, c) in fast.iter().zip(slow.iter()) {
            assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let plan = Dct2d::new(8).unwrap();
        let x = Grid::filled(8, 8, 0.5f32);
        let c = plan.forward(&x).unwrap();
        // DC of orthonormal 2-D DCT: mean * B.
        assert!((c[(0, 0)] - 0.5 * 8.0).abs() < 1e-4);
        let energy: f64 = c.iter().skip(1).map(|&v| (v as f64).powi(2)).sum();
        assert!(energy < 1e-8);
    }

    #[test]
    fn energy_preserved_2d() {
        let plan = Dct2d::new(12).unwrap();
        let x = ramp(12);
        let c = plan.forward(&x).unwrap();
        let ex: f64 = x.iter().map(|&v| (v as f64).powi(2)).sum();
        let ec: f64 = c.iter().map(|&v| (v as f64).powi(2)).sum();
        assert!((ex - ec).abs() / ex < 1e-5);
    }

    #[test]
    fn low_frequency_dominates_smooth_pattern() {
        // A half-covered block (smooth step) concentrates energy at low freq.
        let b = 10;
        let mut x = Grid::filled(b, b, 0.0f32);
        for y in 0..b {
            for xx in 0..b / 2 {
                x[(xx, y)] = 1.0;
            }
        }
        let plan = Dct2d::new(b).unwrap();
        let c = plan.forward(&x).unwrap();
        let total: f64 = c.iter().map(|&v| (v as f64).powi(2)).sum();
        // Energy in the 3x3 low-frequency corner.
        let mut low = 0.0f64;
        for m in 0..3 {
            for n in 0..3 {
                low += (c[(m, n)] as f64).powi(2);
            }
        }
        assert!(low / total > 0.9, "low-frequency share {}", low / total);
    }
}
