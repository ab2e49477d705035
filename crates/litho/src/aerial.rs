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
    aerial_region(Isa::detect(), mask, psf, Region::full(mask))
}

/// The pixels of [`aerial_image`] over `region` alone, bit for bit, at
/// the cost of convolving only the region and the rows its column pass
/// reads, on the `isa` instance.
pub(crate) fn aerial_region(
    isa: Isa,
    mask: &Grid<f32>,
    psf: &Kernel1d,
    region: Region,
) -> Grid<f32> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if isa.available() => {
            // SAFETY: the guard has just checked that the CPU has the
            // features the instance is compiled for.
            unsafe { aerial_avx512(mask, psf, region) }
        }
        // Five vectors of `f32` per block; ten 4-lane ones would not fit
        // the baseline's sixteen registers.
        _ => convolve::<40>(mask, psf, region),
    }
}

/// The AVX-512 instance of [`aerial_region`]; call it only where
/// [`Isa::Avx512`] is [available](Isa::available).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn aerial_avx512(mask: &Grid<f32>, psf: &Kernel1d, region: Region) -> Grid<f32> {
    // Five 16-lane vectors per block.
    convolve::<80>(mask, psf, region)
}

/// The body of every [`aerial_region`] instance: the PSF convolution in
/// blocks of `B` lanes, each tap a multiply then an add.
#[inline(always)]
fn convolve<const B: usize>(mask: &Grid<f32>, psf: &Kernel1d, region: Region) -> Grid<f32> {
    let weights = psf.weights();
    separable_filter::<_, B>(mask, region, psf.radius(), 0.0, |acc, src, tap| {
        acc + src * weights[tap]
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

/// The instruction sets the oracle's vector kernels (the PSF convolution
/// and the corner counts) are compiled for: each kernel is one
/// `#[inline(always)]` body built twice. Lanes are pixels and both
/// instances form a pixel with the same operations in the same order, so
/// they give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX-512F and AVX-512BW.
    Avx512,
}

impl Isa {
    /// The widest instance this CPU runs.
    pub(crate) fn detect() -> Isa {
        if Isa::Avx512.available() {
            Isa::Avx512
        } else {
            Isa::Baseline
        }
    }

    /// Whether this CPU has the instance's features. A kernel asked for an
    /// instance the CPU lacks runs the baseline one.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 => false,
        }
    }
}

/// A separable `(2r + 1)²` window filter of `image`, evaluated over
/// `region` only: the row pass runs over the region's columns on its rows
/// ± `r` (clamped to the image), the column pass over the region.
///
/// Every output cell starts at `init`, and each pass folds in the source
/// cells of its 1-D window in ascending tap order, `acc = fold(acc, src,
/// tap)` with `src` the cell `tap - r` away. The column pass skips rows
/// outside the image. The row pass reads a copy of the source row padded
/// with `init`, so a column outside the image folds in `init`: `fold` must
/// leave every value it can produce unchanged when given `init` as the
/// source — adding `+0.0 × weight` for a convolution (exact, because a sum
/// that starts at `+0.0` never becomes `−0.0`), AND with `true` or OR with
/// `false` for morphology. Outside cells thus take no part, and each
/// output cell depends only on its own position, never on `region` or on
/// `B`.
///
/// Each distinct row is computed once. A horizontal row whose source row
/// has the bits of the one above over the copied span is a copy of the
/// row above. An output row is a copy of the row above when it folds the
/// same taps and each horizontal row of its window is a copy of its
/// predecessor: it then folds, tap for tap, the same values.
///
/// Output cells are computed in blocks of `B` lanes, each kept in
/// registers across its whole window: enough independent chains per block
/// to hide `fold`'s latency, few enough to fit the registers of the
/// instruction set the caller is compiled for.
#[inline(always)]
pub(crate) fn separable_filter<T: SameBits, const B: usize>(
    image: &Grid<T>,
    region: Region,
    r: usize,
    init: T,
    fold: impl Fn(T, T, usize) -> T,
) -> Grid<T> {
    let (w, h) = (image.width(), image.height());
    let rows = region.y0.saturating_sub(r)..(region.y1 + r).min(h);
    // Lanes past the region's width (when it is narrower than a block) are
    // computed and dropped.
    let lanes = region.width().max(B);
    // `padded[j]` is image column `region.x0 + j - r`, or `init` outside
    // the image.
    let mut padded = vec![init; lanes + 2 * r];
    let cols = region.x0.saturating_sub(r)..(region.x0 + lanes + r).min(w);
    let at = cols.start + r - region.x0;
    let mut horizontal = Grid::filled(lanes, rows.len(), init);
    // `computed[i]`: the last horizontal row at or above row `i` that was
    // computed rather than copied, so rows `computed[i] + 1..=i` equal
    // their predecessors.
    let mut computed = Vec::with_capacity(rows.len());
    for (i, y) in rows.clone().enumerate() {
        let src = &image.row(y)[cols.clone()];
        if i > 0 && T::same_bits(src, &image.row(y - 1)[cols.clone()]) {
            computed.push(computed[i - 1]);
            let plane = horizontal.as_mut_slice();
            plane.copy_within((i - 1) * lanes..i * lanes, i * lanes);
            continue;
        }
        computed.push(i);
        padded[at..at + cols.len()].copy_from_slice(src);
        let out = horizontal.row_mut(i);
        for x in block_starts::<B>(lanes) {
            let acc = fold_block::<T, B>(init, 0..2 * r + 1, |t| lanes_at(&padded, x + t), &fold);
            out[x..x + B].copy_from_slice(&acc);
        }
    }
    let plane = horizontal.as_slice();
    let mut out = Grid::filled(lanes, region.height(), init);
    let mut above = 0..0;
    for y in region.y0..region.y1 {
        // The taps whose source row lies in the image; tap `t` reads plane
        // row `y + t - r - rows.start`.
        let taps = r.saturating_sub(y)..(h + r - y).min(2 * r + 1);
        let (first, last) = (
            y + taps.start - r - rows.start,
            y + taps.end - 1 - r - rows.start,
        );
        let i = y - region.y0;
        let same = i > 0 && taps == above && computed[last] < first;
        above = taps.clone();
        if same {
            out.as_mut_slice()
                .copy_within((i - 1) * lanes..i * lanes, i * lanes);
            continue;
        }
        let row = out.row_mut(i);
        for x in block_starts::<B>(lanes) {
            let src = |t| lanes_at(plane, (y + t - r - rows.start) * lanes + x);
            let acc = fold_block::<T, B>(init, taps.clone(), src, &fold);
            // Whole blocks only: a partial copy would keep `acc` in memory.
            row[x..x + B].copy_from_slice(&acc);
        }
    }
    if lanes == region.width() {
        return out;
    }
    let rows = out.as_slice().chunks_exact(lanes);
    let cells = rows
        .flat_map(|row| &row[..region.width()])
        .copied()
        .collect();
    Grid::from_vec(region.width(), region.height(), cells)
}

/// A cell type whose rows [`separable_filter`] compares by their bits.
pub(crate) trait SameBits: Copy {
    /// Whether `a` and `b`, of equal length, hold the same bits.
    fn same_bits(a: &[Self], b: &[Self]) -> bool;
}

impl SameBits for f32 {
    #[inline(always)]
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        // An OR of XORs rather than an early exit, which LLVM vectorises.
        let diff = a
            .iter()
            .zip(b)
            .fold(0, |d, (x, y)| d | (x.to_bits() ^ y.to_bits()));
        diff == 0
    }
}

impl SameBits for bool {
    #[inline(always)]
    fn same_bits(a: &[bool], b: &[bool]) -> bool {
        a == b
    }
}

/// Starts of the `B`-lane blocks that cover `0..lanes` (`lanes ≥ B`). The
/// last block is moved left to end at `lanes`, overlapping the one before
/// it, so no block is narrower than `B`.
#[inline(always)]
fn block_starts<const B: usize>(lanes: usize) -> impl Iterator<Item = usize> {
    (0..lanes).step_by(B).map(move |x| x.min(lanes - B))
}

/// The `B` cells of `row` from `x` on.
#[inline(always)]
fn lanes_at<T, const B: usize>(row: &[T], x: usize) -> &[T; B] {
    match row[x..].first_chunk() {
        Some(lanes) => lanes,
        None => unreachable!("a block ends inside its padded row"),
    }
}

/// `B` lanes that start at `init` and fold in `src(t)` lane by lane for
/// each tap `t` of `taps`, in ascending order.
#[inline(always)]
fn fold_block<'a, T: Copy + 'a, const B: usize>(
    init: T,
    taps: std::ops::Range<usize>,
    src: impl Fn(usize) -> &'a [T; B],
    fold: &impl Fn(T, T, usize) -> T,
) -> [T; B] {
    let mut acc = [init; B];
    for t in taps {
        let s = src(t);
        for l in 0..B {
            acc[l] = fold(acc[l], s[l], t);
        }
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The per-pixel oracle every instance must reproduce exactly: each
    /// output pixel sums its in-image taps in ascending order from 0.0,
    /// row pass then column pass.
    fn direct_sum(mask: &Grid<f32>, psf: &Kernel1d) -> Grid<f32> {
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
    }

    #[test]
    fn matches_per_pixel_direct_sum_bitwise() {
        for (w, h) in [(37, 23), (9, 30), (1, 1), (64, 64)] {
            let mask = speckle(w, h);
            for sigma in [10.0, 30.0, 42.4, 90.0] {
                let psf = Kernel1d::gaussian(sigma, 10).unwrap();
                assert_eq!(
                    bits(&aerial_image(&mask, &psf)),
                    bits(&direct_sum(&mask, &psf)),
                    "{w}x{h}, sigma {sigma}"
                );
            }
        }
    }

    /// Every instance this CPU runs.
    pub(crate) fn supported() -> Vec<Isa> {
        [Isa::Baseline, Isa::Avx512]
            .into_iter()
            .filter(|isa| isa.available())
            .collect()
    }

    /// Image sides 1–140, half the time one at or next to a lane or block
    /// edge (16, 64, 80) or the raster and full-block widths (120, 128).
    pub(crate) fn arb_side() -> impl Strategy<Value = usize> {
        let edges = vec![1, 15, 16, 17, 63, 64, 65, 79, 80, 81, 120, 128, 129];
        prop_oneof![1usize..141, proptest::sample::select(edges)]
    }

    /// A region of a `w × h` image: the whole image, a guard-band
    /// interior, a single pixel, or a rectangle touching a border, from the
    /// random `picks`.
    pub(crate) fn region_of(w: usize, h: usize, kind: u8, picks: [usize; 4]) -> Region {
        let span = |n: usize, a: usize, b: usize| {
            let (a, b) = (a % n, b % n);
            (a.min(b), a.max(b) + 1)
        };
        let full = Region::full(&Grid::filled(w, h, 0u8));
        match kind {
            0 => full,
            1 => {
                let guard = picks[0] % (w.min(h) / 2 + 1);
                Region::interior(&Grid::filled(w, h, 0u8), guard).unwrap_or(full)
            }
            2 => {
                let (x, y) = (picks[0] % w, picks[1] % h);
                Region {
                    x0: x,
                    x1: x + 1,
                    y0: y,
                    y1: y + 1,
                }
            }
            _ => {
                // Pin one side of each span to a border.
                let (x0, x1) = span(w, picks[0], picks[1]);
                let (y0, y1) = span(h, picks[2], picks[3]);
                let (x0, x1) = if picks[0].is_multiple_of(2) {
                    (0, x1)
                } else {
                    (x0, w)
                };
                let (y0, y1) = if picks[2].is_multiple_of(2) {
                    (0, y1)
                } else {
                    (y0, h)
                };
                Region { x0, x1, y0, y1 }
            }
        }
    }

    /// The next state of a xorshift64 generator.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A pixel value from a random `state`: ±0.0, 1.0, fractions,
    /// negatives and large values (small enough that no sum overflows to
    /// infinity).
    fn mixed_value(state: u64) -> f32 {
        let frac = (state >> 40) as f32 / (1u64 << 24) as f32;
        match state % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => frac,
            4 => -frac,
            5 => 1e30 * (frac - 0.5),
            _ => (state % 3) as f32,
        }
    }

    /// A mask of [`mixed_value`]s.
    fn mixed_mask(w: usize, h: usize, seed: u64) -> Grid<f32> {
        let mut state = seed | 1;
        let cells = (0..w * h).map(|_| mixed_value(xorshift(&mut state)));
        Grid::from_vec(w, h, cells.collect())
    }

    /// A `w × h` image made of runs of a few distinct rows of `value`s,
    /// the kind of image whose repeated rows the filter computes once. The
    /// distinct rows are one base row with one to three cells changed, so
    /// two of them may differ only beside a region. Runs are 1 to `2r + 4`
    /// rows long; the first starts at the top edge and the last ends at the
    /// bottom one.
    pub(crate) fn row_runs<T: Copy>(
        w: usize,
        h: usize,
        r: usize,
        seed: u64,
        value: impl Fn(u64) -> T,
    ) -> Grid<T> {
        let mut state = seed | 1;
        let mut next = move || xorshift(&mut state);
        let base: Vec<T> = (0..w).map(|_| value(next())).collect();
        let distinct: Vec<Vec<T>> = (0..1 + next() % 4)
            .map(|_| {
                let mut row = base.clone();
                for _ in 0..1 + next() % 3 {
                    row[(next() % w as u64) as usize] = value(next());
                }
                row
            })
            .collect();
        let mut cells = Vec::with_capacity(w * h);
        while cells.len() < w * h {
            let row = &distinct[(next() % distinct.len() as u64) as usize];
            let run = 1 + next() % (2 * r as u64 + 4);
            for _ in 0..run.min(((w * h - cells.len()) / w) as u64) {
                cells.extend_from_slice(row);
            }
        }
        Grid::from_vec(w, h, cells)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_instance_matches_the_direct_sum_bitwise(
            (w, h) in (arb_side(), arb_side()),
            (kind, picks) in (0u8..4, (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000)),
            radius in prop_oneof![1usize..6, 6usize..40, 40usize..160],
            seed in 0u64..u64::MAX,
        ) {
            let mask = mixed_mask(w, h, seed);
            // ceil(3σ) = radius at 1 nm per pixel.
            let psf = Kernel1d::gaussian(radius as f64 / 3.0 - 1e-3, 1).unwrap();
            let region = region_of(w, h, kind, [picks.0, picks.1, picks.2, picks.3]);
            let full = direct_sum(&mask, &psf);
            let expected = full.window(region.x0, region.y0, region.width(), region.height());
            for isa in supported() {
                prop_assert_eq!(
                    bits(&aerial_region(isa, &mask, &psf, region)),
                    bits(&expected),
                    "{:?}: {}x{}, radius {}, {:?}", isa, w, h, psf.radius(), region
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn repeated_rows_keep_the_direct_sum_bits_on_every_instance(
            (w, h) in (arb_side(), arb_side()),
            (kind, picks) in (0u8..4, (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000)),
            radius in prop_oneof![1usize..4, 4usize..16],
            seed in 0u64..u64::MAX,
        ) {
            // ceil(3σ) = radius at 1 nm per pixel.
            let psf = Kernel1d::gaussian(radius as f64 / 3.0 - 1e-3, 1).unwrap();
            let mask = row_runs(w, h, psf.radius(), seed, mixed_value);
            let region = region_of(w, h, kind, [picks.0, picks.1, picks.2, picks.3]);
            let full = direct_sum(&mask, &psf);
            let expected = full.window(region.x0, region.y0, region.width(), region.height());
            for isa in supported() {
                prop_assert_eq!(
                    bits(&aerial_region(isa, &mask, &psf, region)),
                    bits(&expected),
                    "{:?}: {}x{}, radius {}, {:?}", isa, w, h, psf.radius(), region
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
                    bits(&aerial_region(Isa::detect(), &mask, &psf, region)),
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
