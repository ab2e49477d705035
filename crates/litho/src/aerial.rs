//! Aerial-image computation by separable convolution, on the separable
//! window filter that the printing check's morphology shares.

use crate::Kernel1d;
use hotspot_geometry::Grid;

/// Convolves a mask coverage raster with the optical PSF (two separable 1-D
/// passes) to produce the aerial intensity image.
///
/// Out-of-window mask content is treated as clear field (zero transmission),
/// which is why downstream failure analysis restricts itself to a guard-band
/// interior — the same reason the paper's clips carry context around the
/// region of interest.
///
/// # Examples
///
/// ```
/// use hotspot_geometry::Grid;
/// use hotspot_litho::{aerial::aerial_image, Kernel1d};
///
/// # fn main() -> Result<(), hotspot_litho::LithoError> {
/// let mask = Grid::filled(64, 64, 1.0f32);
/// let psf = Kernel1d::gaussian(30.0, 10)?;
/// let img = aerial_image(&mask, &psf);
/// // Centre of a large clear area reaches full intensity.
/// assert!((img[(32, 32)] - 1.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn aerial_image(mask: &Grid<f32>, psf: &Kernel1d) -> Grid<f32> {
    aerial_region(mask, psf, Region::full(mask))
}

/// The pixels of [`aerial_image`] over `region` alone, bit for bit, at
/// the cost of convolving only the region and the rows its column pass
/// reads.
pub(crate) fn aerial_region(mask: &Grid<f32>, psf: &Kernel1d, region: Region) -> Grid<f32> {
    let weights = psf.weights();
    separable_filter(mask, region, psf.radius(), 0.0, |acc, src, tap| {
        let w = weights[tap];
        for (a, &s) in acc.iter_mut().zip(src) {
            *a += s * w;
        }
    })
}

/// A rectangle of image pixels: columns `x0..x1`, rows `y0..y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    pub(crate) x0: usize,
    pub(crate) x1: usize,
    pub(crate) y0: usize,
    pub(crate) y1: usize,
}

impl Region {
    /// The whole of `image`.
    pub(crate) fn full<T>(image: &Grid<T>) -> Self {
        Region {
            x0: 0,
            x1: image.width(),
            y0: 0,
            y1: image.height(),
        }
    }

    /// `image` without a `guard`-pixel border; `None` when the border
    /// covers it.
    pub(crate) fn interior<T>(image: &Grid<T>, guard: usize) -> Option<Self> {
        let (w, h) = (image.width(), image.height());
        let band = guard.saturating_mul(2);
        (band < w && band < h).then(|| Region {
            x0: guard,
            x1: w - guard,
            y0: guard,
            y1: h - guard,
        })
    }

    pub(crate) fn width(&self) -> usize {
        self.x1 - self.x0
    }

    pub(crate) fn height(&self) -> usize {
        self.y1 - self.y0
    }
}

/// A separable `(2r + 1)²` window filter of `image`, evaluated over
/// `region` only: the row pass runs over the region's columns on its rows
/// ± `r` (clamped to the image), the column pass over the region.
///
/// Every output cell starts at `init`, and each pass folds in the source
/// cells of its 1-D window that lie inside the image, one shifted row at a
/// time in ascending tap order: `fold(acc, src, tap)` gets equal-length
/// slices with `src[i]` the cell `tap - r` away from `acc[i]`. Cells
/// outside the image take no part — zero padding for a convolution, a
/// clipped window for morphology — so each output cell depends only on its
/// own position and never on `region`.
pub(crate) fn separable_filter<T: Copy>(
    image: &Grid<T>,
    region: Region,
    r: usize,
    init: T,
    fold: impl Fn(&mut [T], &[T], usize),
) -> Grid<T> {
    let (w, h) = (image.width(), image.height());
    let rows = region.y0.saturating_sub(r)..(region.y1 + r).min(h);
    let mut horizontal = Grid::filled(region.width(), rows.len(), init);
    for (i, y) in rows.clone().enumerate() {
        let (acc, src) = (horizontal.row_mut(i), image.row(y));
        for tap in 0..=2 * r {
            // acc[i] pairs with src[i + shift - r].
            let shift = region.x0 + tap;
            let lo = r.saturating_sub(shift);
            let hi = (w + r).saturating_sub(shift).min(acc.len());
            if lo < hi {
                fold(&mut acc[lo..hi], &src[lo + shift - r..hi + shift - r], tap);
            }
        }
    }
    let mut out = Grid::filled(region.width(), region.height(), init);
    for y in region.y0..region.y1 {
        let acc = out.row_mut(y - region.y0);
        for tap in 0..=2 * r {
            if let Some(sy) = (y + tap).checked_sub(r).filter(|&sy| sy < h) {
                fold(acc, horizontal.row(sy - rows.start), tap);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_mask(side: usize) -> Grid<f32> {
        let mut g = Grid::filled(side, side, 0.0f32);
        g[(side / 2, side / 2)] = 1.0;
        g
    }

    #[test]
    fn impulse_response_is_separable_gaussian() {
        let psf = Kernel1d::gaussian(20.0, 10).unwrap();
        let img = aerial_image(&point_mask(33), &psf);
        let c = 16usize;
        let w = psf.weights();
        let r = psf.radius();
        // Response at (c+dx, c+dy) = w[dx] * w[dy].
        assert!((img[(c, c)] - w[r] * w[r]).abs() < 1e-7);
        assert!((img[(c + 1, c)] - w[r + 1] * w[r]).abs() < 1e-7);
        assert!((img[(c + 1, c + 2)] - w[r + 1] * w[r + 2]).abs() < 1e-7);
    }

    #[test]
    fn energy_conserved_away_from_borders() {
        let psf = Kernel1d::gaussian(20.0, 10).unwrap();
        let img = aerial_image(&point_mask(41), &psf);
        // Full impulse energy is preserved when support fits inside.
        assert!((img.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn flat_field_stays_flat_in_interior() {
        let psf = Kernel1d::gaussian(30.0, 10).unwrap();
        let img = aerial_image(&Grid::filled(64, 64, 0.75f32), &psf);
        assert!((img[(32, 32)] - 0.75).abs() < 1e-4);
        // Borders lose intensity to zero padding.
        assert!(img[(0, 0)] < 0.75 * 0.5);
    }

    #[test]
    fn blur_reduces_contrast_of_fine_lines() {
        // 20 nm lines / 20 nm spaces at 10 nm/px vs a 60 nm line.
        let mut fine = Grid::filled(64, 64, 0.0f32);
        for y in 0..64 {
            for x in 0..64 {
                if (x / 2) % 2 == 0 {
                    fine[(x, y)] = 1.0;
                }
            }
        }
        let mut coarse = Grid::filled(64, 64, 0.0f32);
        for y in 0..64 {
            for x in 26..38 {
                coarse[(x, y)] = 1.0;
            }
        }
        let psf = Kernel1d::gaussian(30.0, 10).unwrap();
        let fi = aerial_image(&fine, &psf);
        let ci = aerial_image(&coarse, &psf);
        // Fine pattern blurs toward its mean (0.5); coarse line keeps a
        // strong peak.
        let fine_peak = fi[(32, 32)];
        let coarse_peak = ci[(32, 32)];
        assert!(coarse_peak > fine_peak + 0.1);
        assert!((fine_peak - 0.5).abs() < 0.15);
    }

    /// A deterministic non-square mask mixing clear, dark and partial
    /// coverage.
    fn speckle(w: usize, h: usize) -> Grid<f32> {
        let mut state = 0x9E37_79B9u32;
        let cells = (0..w * h)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match state >> 29 {
                    0..=2 => 0.0,
                    3..=5 => 1.0,
                    _ => (state >> 8) as f32 / (1u32 << 24) as f32,
                }
            })
            .collect();
        Grid::from_vec(w, h, cells)
    }

    fn bits(g: &Grid<f32>) -> Vec<u32> {
        g.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_per_pixel_direct_sum_bitwise() {
        // Each output pixel sums its in-image taps in ascending order from
        // 0.0, row pass then column pass — the per-pixel loop the shifted
        // rows must reproduce exactly.
        let direct = |mask: &Grid<f32>, psf: &Kernel1d| {
            let (w, h) = (mask.width() as isize, mask.height() as isize);
            let (r, weights) = (psf.radius() as isize, psf.weights());
            let pass = |src: &Grid<f32>, horizontal: bool| {
                let mut out = src.clone();
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0f32;
                        for d in -r..=r {
                            let (sx, sy) = if horizontal { (x + d, y) } else { (x, y + d) };
                            if (0..w).contains(&sx) && (0..h).contains(&sy) {
                                acc += src[(sx as usize, sy as usize)] * weights[(d + r) as usize];
                            }
                        }
                        out[(x as usize, y as usize)] = acc;
                    }
                }
                out
            };
            pass(&pass(mask, true), false)
        };
        for (w, h) in [(37, 23), (9, 30), (1, 1), (64, 64)] {
            let mask = speckle(w, h);
            for sigma in [10.0, 30.0, 42.4, 90.0] {
                let psf = Kernel1d::gaussian(sigma, 10).unwrap();
                assert_eq!(
                    bits(&aerial_image(&mask, &psf)),
                    bits(&direct(&mask, &psf)),
                    "{w}x{h}, sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn region_is_the_full_frame_crop_bitwise() {
        let mask = speckle(41, 29);
        for sigma in [10.0, 30.0, 90.0] {
            let psf = Kernel1d::gaussian(sigma, 10).unwrap();
            let full = aerial_image(&mask, &psf);
            for (x0, x1, y0, y1) in [
                (0, 41, 0, 29),
                (5, 36, 5, 24),
                (20, 21, 0, 1),
                (0, 3, 26, 29),
            ] {
                let region = Region { x0, x1, y0, y1 };
                let crop = full.window(x0, y0, x1 - x0, y1 - y0);
                assert_eq!(
                    bits(&aerial_region(&mask, &psf, region)),
                    bits(&crop),
                    "sigma {sigma}, {region:?}"
                );
            }
        }
    }

    #[test]
    fn interior_is_empty_once_the_band_meets_in_the_middle() {
        let g = Grid::filled(10, 6, 0.0f32);
        let interior = Region::interior(&g, 2).unwrap();
        assert_eq!((interior.width(), interior.height()), (6, 2));
        assert_eq!(Region::interior(&g, 0), Some(Region::full(&g)));
        assert_eq!(Region::interior(&g, 3), None);
        assert_eq!(Region::interior(&g, usize::MAX), None);
    }

    #[test]
    fn convolution_is_linear() {
        let psf = Kernel1d::gaussian(15.0, 10).unwrap();
        let a = point_mask(21);
        let mut b = Grid::filled(21, 21, 0.0f32);
        b[(3, 17)] = 2.0;
        let mut sum = a.clone();
        for (s, v) in sum.iter_mut().zip(b.iter()) {
            *s += v;
        }
        let ia = aerial_image(&a, &psf);
        let ib = aerial_image(&b, &psf);
        let is = aerial_image(&sum, &psf);
        for ((x, y), z) in ia.iter().zip(ib.iter()).zip(is.iter()) {
            assert!((x + y - z).abs() < 1e-6);
        }
    }
}
