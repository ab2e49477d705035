//! Process-window corners and printing-failure analysis.

use crate::aerial::{separable_filter, Isa, Region};
use crate::ResistModel;
use hotspot_geometry::Grid;
use serde::{Deserialize, Serialize};

/// One dose/defocus condition of the process window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessCorner {
    /// Relative exposure dose (1.0 = nominal).
    pub dose: f32,
    /// Focus error in nm (0.0 = best focus).
    pub defocus_nm: f64,
}

impl ProcessCorner {
    /// The nominal condition: dose 1.0, best focus.
    pub const fn nominal() -> Self {
        ProcessCorner {
            dose: 1.0,
            defocus_nm: 0.0,
        }
    }

    /// The standard five-corner window used throughout the suite:
    /// nominal, dose ±`dose_latitude`, and ±`defocus_nm` (defocus blur is
    /// symmetric, so the two focus corners coincide and one is kept, paired
    /// with the worse dose extreme on each side).
    pub fn standard_window(dose_latitude: f32, defocus_nm: f64) -> Vec<ProcessCorner> {
        vec![
            ProcessCorner::nominal(),
            ProcessCorner {
                dose: 1.0 + dose_latitude,
                defocus_nm: 0.0,
            },
            ProcessCorner {
                dose: 1.0 - dose_latitude,
                defocus_nm: 0.0,
            },
            ProcessCorner {
                dose: 1.0 - dose_latitude,
                defocus_nm,
            },
            ProcessCorner {
                dose: 1.0 + dose_latitude,
                defocus_nm,
            },
        ]
    }
}

impl Default for ProcessCorner {
    fn default() -> Self {
        ProcessCorner::nominal()
    }
}

/// A rectangular dose×defocus sampling of the process window.
///
/// Where [`ProcessCorner::standard_window`] keeps only the five extreme
/// corners, a grid samples the full window so every clip gets a *vector*
/// of pass/fail labels (one per grid point) plus a worst-corner severity —
/// the substrate for multi-label and severity-regression training heads.
///
/// The grid always contains the nominal condition: dose levels are
/// symmetric around 1.0 (so `n_dose` must be odd, or 1) and the defocus
/// levels start at 0 nm.
///
/// # Examples
///
/// ```
/// use hotspot_litho::CornerGrid;
///
/// let grid = CornerGrid::new(0.05, 60.0, 3, 2).unwrap();
/// assert_eq!(grid.len(), 6);
/// let corners = grid.corners();
/// assert_eq!(corners[grid.nominal_index()].dose, 1.0);
/// assert_eq!(corners[grid.nominal_index()].defocus_nm, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerGrid {
    /// Dose levels, ascending, symmetric around 1.0.
    doses: Vec<f32>,
    /// Defocus levels in nm, ascending from 0.
    defocus_nm: Vec<f64>,
}

impl CornerGrid {
    /// Builds a grid of `n_dose` dose levels spanning `1 ± dose_latitude`
    /// and `n_defocus` defocus levels spanning `0..=max_defocus_nm`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LithoError::InvalidParameter`] when a count is
    /// zero, `n_dose` is even (the grid would miss the nominal dose),
    /// `dose_latitude` is not in `[0, 1)`, or `max_defocus_nm` is
    /// negative/NaN.
    pub fn new(
        dose_latitude: f32,
        max_defocus_nm: f64,
        n_dose: usize,
        n_defocus: usize,
    ) -> Result<Self, crate::LithoError> {
        use crate::LithoError::InvalidParameter;
        if n_dose == 0 || n_dose.is_multiple_of(2) {
            return Err(InvalidParameter {
                name: "n_dose",
                value: n_dose as f64,
            });
        }
        if n_defocus == 0 {
            return Err(InvalidParameter {
                name: "n_defocus",
                value: n_defocus as f64,
            });
        }
        if !(0.0..1.0).contains(&dose_latitude) {
            return Err(InvalidParameter {
                name: "dose_latitude",
                value: dose_latitude as f64,
            });
        }
        if max_defocus_nm.is_nan() || max_defocus_nm < 0.0 {
            return Err(InvalidParameter {
                name: "max_defocus_nm",
                value: max_defocus_nm,
            });
        }
        // `(2i)/(n-1) - 1` is exactly 0 at the middle index, so the grid
        // contains dose 1.0 / defocus 0.0 bit-exactly.
        let doses = (0..n_dose)
            .map(|i| {
                if n_dose == 1 {
                    1.0
                } else {
                    1.0 + dose_latitude * ((2 * i) as f32 / (n_dose - 1) as f32 - 1.0)
                }
            })
            .collect();
        let defocus_nm = (0..n_defocus)
            .map(|i| {
                if n_defocus == 1 {
                    0.0
                } else {
                    max_defocus_nm * i as f64 / (n_defocus - 1) as f64
                }
            })
            .collect();
        Ok(CornerGrid { doses, defocus_nm })
    }

    /// Dose levels, ascending.
    #[inline]
    pub fn doses(&self) -> &[f32] {
        &self.doses
    }

    /// Defocus levels in nm, ascending from 0.
    #[inline]
    pub fn defocus_levels_nm(&self) -> &[f64] {
        &self.defocus_nm
    }

    /// Number of grid corners (`doses × defocus levels`).
    #[inline]
    pub fn len(&self) -> usize {
        self.doses.len() * self.defocus_nm.len()
    }

    /// A grid is never empty (construction validates the counts).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The corner list, defocus-major / dose-minor (row `d` holds every
    /// dose at defocus level `d`). This is the order of per-corner labels
    /// everywhere downstream.
    pub fn corners(&self) -> Vec<ProcessCorner> {
        self.defocus_nm
            .iter()
            .flat_map(|&defocus_nm| {
                self.doses
                    .iter()
                    .map(move |&dose| ProcessCorner { dose, defocus_nm })
            })
            .collect()
    }

    /// Index of the nominal corner (dose 1.0, defocus 0) in
    /// [`CornerGrid::corners`] order.
    #[inline]
    pub fn nominal_index(&self) -> usize {
        self.doses.len() / 2
    }

    /// A compact, deterministic schema string identifying the label layout
    /// (grid shape and levels). Two datasets with different schema strings
    /// carry incomparable per-corner label vectors.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = hotspot_litho::CornerGrid::new(0.05, 60.0, 3, 2).unwrap();
    /// assert_eq!(g.schema(), "dose3[0.950,1.000,1.050]xdefocus2[0,60]nm");
    /// ```
    pub fn schema(&self) -> String {
        let doses: Vec<String> = self.doses.iter().map(|d| format!("{d:.3}")).collect();
        let defocus: Vec<String> = self.defocus_nm.iter().map(|f| format!("{f:.0}")).collect();
        format!(
            "dose{}[{}]xdefocus{}[{}]nm",
            self.doses.len(),
            doses.join(","),
            self.defocus_nm.len(),
            defocus.join(",")
        )
    }
}

/// Printing-failure counts of one clip at one process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CornerReport {
    /// Pixels of must-print target interior that failed to print
    /// (necking / open-circuit risk).
    pub open_pixels: usize,
    /// Printed pixels beyond the dilated target (bridging / short-circuit
    /// risk).
    pub short_pixels: usize,
}

impl CornerReport {
    /// Whether this corner printed cleanly.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.open_pixels == 0 && self.short_pixels == 0
    }

    /// Total failing pixels.
    #[inline]
    pub fn failures(&self) -> usize {
        self.open_pixels + self.short_pixels
    }
}

/// Erodes a binary image by `r` pixels with a square structuring element
/// (separable two-pass min filter).
pub fn erode(image: &Grid<bool>, r: usize) -> Grid<bool> {
    morph(image, r, false, Region::full(image))
}

/// Dilates a binary image by `r` pixels with a square structuring element
/// (separable two-pass max filter).
pub fn dilate(image: &Grid<bool>, r: usize) -> Grid<bool> {
    morph(image, r, true, Region::full(image))
}

/// Shared separable morphology over `region`. `dilate = true` takes the OR
/// over the window, erosion the AND. The window is clipped to the image:
/// dilation does not grow beyond real geometry, and erosion does not shrink
/// shapes where they meet the image border.
///
/// Baseline code only: an AVX-512 build of the same body showed no
/// end-to-end gain in suite generation.
fn morph(image: &Grid<bool>, r: usize, dilate: bool, region: Region) -> Grid<bool> {
    // A window wider than the image covers all of it.
    let r = r.min(image.width().max(image.height()));
    // Eighty byte lanes: a block amortises the per-tap bookkeeping.
    if dilate {
        separable_filter::<_, 80>(image, region, r, false, |acc, src, _| acc | src)
    } else {
        separable_filter::<_, 80>(image, region, r, true, |acc, src, _| acc & src)
    }
}

/// Compares a printed image against the target geometry.
///
/// - **Opens**: pixels of `erode(target, margin)` (geometry that *must*
///   print even allowing `margin` px of edge-placement error) that did not
///   print.
/// - **Shorts**: printed pixels outside `dilate(target, margin)` (resist
///   appearing more than `margin` px away from any drawn geometry).
///
/// Only the interior `guard..(side-guard)` region is inspected, because the
/// aerial image is physically meaningless near the clip border (unknown
/// surrounding context).
///
/// This is the full-frame reference: labelling counts the same pixels but
/// erodes, dilates and develops only the inspected interior.
///
/// # Panics
///
/// Panics if `printed` and `target` have different dimensions.
pub fn check_printing(
    printed: &Grid<bool>,
    target: &Grid<bool>,
    margin_px: usize,
    guard_px: usize,
) -> CornerReport {
    assert_eq!(
        (printed.width(), printed.height()),
        (target.width(), target.height()),
        "printed/target dimension mismatch"
    );
    let Some(interior) = Region::interior(target, guard_px) else {
        return CornerReport::default();
    };
    let must_print = erode(target, margin_px);
    let may_print = dilate(target, margin_px);
    let mut report = CornerReport::default();
    for y in interior.y0..interior.y1 {
        for x in interior.x0..interior.x1 {
            let p = printed[(x, y)];
            if must_print[(x, y)] && !p {
                report.open_pixels += 1;
            }
            if p && !may_print[(x, y)] {
                report.short_pixels += 1;
            }
        }
    }
    report
}

/// A clip's target geometry, ready to check any number of aerial images
/// against: its must-print (eroded) and may-print (dilated) pixels over the
/// inspected interior, computed once.
///
/// [`PrintTarget::report`] gives exactly the [`check_printing`] counts of
/// the developed full-frame image, while the caller computes the aerial
/// image over [`PrintTarget::interior`] only.
#[derive(Debug)]
pub(crate) struct PrintTarget {
    interior: Region,
    must_print: Grid<bool>,
    may_print: Grid<bool>,
}

impl PrintTarget {
    /// Thresholds the mask coverage raster at 0.5 into the target and
    /// erodes/dilates it by `margin_px` over the interior left by a
    /// `guard_px` band; `None` when the band covers the whole mask.
    ///
    /// Only the pixels the morphology reads, the interior grown by the
    /// margin (clamped to the mask), are thresholded; the rest of the
    /// full-size target stays `false`. The target keeps the mask's size,
    /// so the filter clamps its windows exactly as on the full frame.
    pub(crate) fn new(mask: &Grid<f32>, margin_px: usize, guard_px: usize) -> Option<Self> {
        let interior = Region::interior(mask, guard_px)?;
        let (w, h) = (mask.width(), mask.height());
        let grown = |lo: usize, hi: usize, n: usize| {
            lo.saturating_sub(margin_px)..hi.saturating_add(margin_px).min(n)
        };
        let cols = grown(interior.x0, interior.x1, w);
        let mut target = Grid::filled(w, h, false);
        for y in grown(interior.y0, interior.y1, h) {
            let dst = &mut target.row_mut(y)[cols.clone()];
            for (t, &v) in dst.iter_mut().zip(&mask.row(y)[cols.clone()]) {
                *t = v >= 0.5;
            }
        }
        Some(PrintTarget {
            interior,
            must_print: morph(&target, margin_px, false, interior),
            may_print: morph(&target, margin_px, true, interior),
        })
    }

    /// The inspected pixels.
    #[inline]
    pub(crate) fn interior(&self) -> Region {
        self.interior
    }

    /// Opens and shorts of the `aerial` image over the interior, developed
    /// by `resist` at `dose`.
    pub(crate) fn report(
        &self,
        isa: Isa,
        aerial: &Grid<f32>,
        resist: &ResistModel,
        dose: f32,
    ) -> CornerReport {
        assert_eq!(
            (aerial.width(), aerial.height()),
            (self.interior.width(), self.interior.height()),
            "aerial image does not cover the interior"
        );
        let (must, may) = (self.must_print.as_slice(), self.may_print.as_slice());
        count_failures(isa, aerial.as_slice(), must, may, resist, dose)
    }
}

/// Pixels per summing of [`count_lanes`]' counters: a multiple of every
/// lane count, and few enough that no 32-bit lane counter can overflow.
const COUNT_PART: usize = 1 << 20;

/// Opens (`must` pixels that do not print) and shorts (printed pixels not
/// `may`) of `intensity` developed by `resist` at `dose`, pixel `i` being
/// `intensity[i]`, `must[i]` and `may[i]`.
fn count_failures(
    isa: Isa,
    intensity: &[f32],
    must: &[bool],
    may: &[bool],
    resist: &ResistModel,
    dose: f32,
) -> CornerReport {
    assert!(
        must.len() == intensity.len() && may.len() == intensity.len(),
        "target and aerial pixel counts differ"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if isa.available() => {
            // SAFETY: the guard has just checked that the CPU has the
            // features the instance is compiled for.
            unsafe { count_avx512(intensity, must, may, resist, dose) }
        }
        _ => count_lanes::<16>(intensity, must, may, resist, dose),
    }
}

/// The AVX-512 instance of [`count_failures`]; call it only where
/// [`Isa::Avx512`] is [available](Isa::available).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn count_avx512(
    intensity: &[f32],
    must: &[bool],
    may: &[bool],
    resist: &ResistModel,
    dose: f32,
) -> CornerReport {
    count_lanes::<64>(intensity, must, may, resist, dose)
}

/// The body of every [`count_failures`] instance: `L` pixels side by side
/// (one vector of `bool` bytes), each developed as [`ResistModel::prints`]
/// does, into `L` lane counters that are summed once per part of
/// [`COUNT_PART`] pixels. A part's remainder runs one pixel at a time into
/// lane 0.
#[inline(always)]
fn count_lanes<const L: usize>(
    intensity: &[f32],
    must: &[bool],
    may: &[bool],
    resist: &ResistModel,
    dose: f32,
) -> CornerReport {
    let mut report = CornerReport::default();
    for ((v, must), may) in intensity
        .chunks(COUNT_PART)
        .zip(must.chunks(COUNT_PART))
        .zip(may.chunks(COUNT_PART))
    {
        let (mut open, mut short) = ([0u32; L], [0u32; L]);
        let lanes = v
            .chunks_exact(L)
            .zip(must.chunks_exact(L))
            .zip(may.chunks_exact(L));
        for ((v, must), may) in lanes {
            for l in 0..L {
                let printed = resist.prints(v[l], dose);
                open[l] += u32::from(must[l] & !printed);
                short[l] += u32::from(printed & !may[l]);
            }
        }
        let rest = v.len() - v.len() % L;
        for ((&v, &must), &may) in v[rest..].iter().zip(&must[rest..]).zip(&may[rest..]) {
            let printed = resist.prints(v, dose);
            open[0] += u32::from(must & !printed);
            short[0] += u32::from(printed & !may);
        }
        report.open_pixels += open.iter().map(|&n| n as usize).sum::<usize>();
        report.short_pixels += short.iter().map(|&n| n as usize).sum::<usize>();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::tests::{arb_side, region_of, row_runs, supported};
    use proptest::prelude::*;

    fn block(side: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> Grid<bool> {
        let mut g = Grid::filled(side, side, false);
        for y in y0..y1 {
            for x in x0..x1 {
                g[(x, y)] = true;
            }
        }
        g
    }

    #[test]
    fn erode_shrinks_dilate_grows() {
        let g = block(20, 5, 5, 15, 15); // 10x10 square
        let e = erode(&g, 2);
        let d = dilate(&g, 2);
        let count = |g: &Grid<bool>| g.iter().filter(|&&v| v).count();
        assert_eq!(count(&e), 6 * 6);
        assert_eq!(count(&d), 14 * 14);
        assert!(e[(7, 7)] && !e[(6, 6)]);
        assert!(d[(3, 3)] && !d[(2, 2)]);
    }

    #[test]
    fn morphology_r0_is_identity() {
        let g = block(10, 2, 3, 7, 8);
        assert_eq!(erode(&g, 0), g);
        assert_eq!(dilate(&g, 0), g);
    }

    #[test]
    fn erosion_removes_thin_features() {
        let g = block(20, 9, 0, 11, 20); // 2 px wide line
        let e = erode(&g, 1);
        assert!(
            e.iter().all(|&v| !v),
            "2 px line must vanish under r=1 erosion"
        );
    }

    #[test]
    fn duality_on_interior() {
        // dilate(!g) == !erode(g) away from borders.
        let g = block(20, 6, 6, 14, 14);
        let ne = erode(&g, 2);
        let inv = g.map(|&v| !v);
        let di = dilate(&inv, 2);
        for y in 3..17 {
            for x in 3..17 {
                assert_eq!(di[(x, y)], !ne[(x, y)], "at ({x},{y})");
            }
        }
    }

    /// A deterministic non-square binary image.
    fn speckle(w: usize, h: usize) -> Grid<bool> {
        let mut state = 0x2545_F491u32;
        let cells = (0..w * h)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                state >> 30 != 0
            })
            .collect();
        Grid::from_vec(w, h, cells)
    }

    /// Each output pixel is the AND (erosion) / OR (dilation) of the image
    /// pixels within Chebyshev distance r; pixels outside the image take no
    /// part.
    fn brute(g: &Grid<bool>, r: usize, dilate: bool) -> Grid<bool> {
        let (w, h) = (g.width(), g.height());
        let mut out = g.clone();
        for y in 0..h {
            for x in 0..w {
                let rows = y.saturating_sub(r)..=y.saturating_add(r).min(h - 1);
                let cols = x.saturating_sub(r)..=x.saturating_add(r).min(w - 1);
                let mut window = rows.flat_map(|sy| cols.clone().map(move |sx| g[(sx, sy)]));
                out[(x, y)] = if dilate {
                    window.any(|v| v)
                } else {
                    window.all(|v| v)
                };
            }
        }
        out
    }

    #[test]
    fn morphology_is_the_clipped_square_window() {
        for (w, h) in [(17, 11), (1, 9), (6, 1), (12, 12)] {
            let g = speckle(w, h);
            for r in [0, 1, 2, 4, 20, usize::MAX] {
                assert_eq!(erode(&g, r), brute(&g, r, false), "{w}x{h} erode r={r}");
                assert_eq!(dilate(&g, r), brute(&g, r, true), "{w}x{h} dilate r={r}");
            }
        }
    }

    fn crop(g: &Grid<bool>, i: Region) -> Grid<bool> {
        let rows = (i.y0..i.y1).flat_map(|y| g.row(y)[i.x0..i.x1].to_vec());
        Grid::from_vec(i.width(), i.height(), rows.collect())
    }

    /// The per-pixel count every instance must reproduce.
    fn scalar_counts(
        intensity: &[f32],
        must: &[bool],
        may: &[bool],
        resist: &ResistModel,
        dose: f32,
    ) -> CornerReport {
        let mut report = CornerReport::default();
        for ((&v, &must), &may) in intensity.iter().zip(must).zip(may) {
            let printed = resist.prints(v, dose);
            report.open_pixels += usize::from(must && !printed);
            report.short_pixels += usize::from(printed && !may);
        }
        report
    }

    /// `n` intensities around the print threshold, with exact threshold
    /// crossings, ±0.0 and negatives, and `n` must/may pairs.
    fn count_case(
        n: usize,
        seed: u64,
        resist: &ResistModel,
        dose: f32,
    ) -> (Vec<f32>, Vec<bool>, Vec<bool>) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let on_threshold = resist.threshold() / dose;
        let intensity = (0..n)
            .map(|_| {
                let s = next();
                let frac = (s >> 40) as f32 / (1u64 << 24) as f32;
                match s % 6 {
                    0 => on_threshold,
                    1 => f32::from_bits(on_threshold.to_bits() - 1),
                    2 => [0.0, -0.0, -frac][(s >> 3) as usize % 3],
                    _ => frac,
                }
            })
            .collect();
        let must = (0..n).map(|_| next() % 3 == 0).collect();
        let may = (0..n).map(|_| next() % 3 != 0).collect();
        (intensity, must, may)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn morphology_over_any_region_is_the_clipped_square_window(
            (w, h) in (arb_side(), arb_side()),
            (kind, picks) in (0u8..4, (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000)),
            r in 0usize..6,
            density in 1u64..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let cells = (0..w * h).map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 61) < density
            });
            let g = Grid::from_vec(w, h, cells.collect());
            let region = region_of(w, h, kind, [picks.0, picks.1, picks.2, picks.3]);
            for dilate in [false, true] {
                prop_assert_eq!(
                    morph(&g, r, dilate, region),
                    crop(&brute(&g, r, dilate), region),
                    "{}x{}, r {}, dilate {}, {:?}", w, h, r, dilate, region
                );
            }
        }

        #[test]
        fn morphology_of_repeated_rows_is_the_clipped_square_window(
            (w, h) in (arb_side(), arb_side()),
            (kind, picks) in (0u8..4, (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000)),
            r in 0usize..8,
            density in 1u64..8,
            seed in 0u64..u64::MAX,
        ) {
            let g = row_runs(w, h, r, seed, |s| (s >> 61) < density);
            let region = region_of(w, h, kind, [picks.0, picks.1, picks.2, picks.3]);
            for dilate in [false, true] {
                prop_assert_eq!(
                    morph(&g, r, dilate, region),
                    crop(&brute(&g, r, dilate), region),
                    "{}x{}, r {}, dilate {}, {:?}", w, h, r, dilate, region
                );
            }
        }

        #[test]
        fn every_count_instance_matches_the_scalar_loop(
            n in prop_oneof![0usize..70, 6390usize..6410, 0usize..20_000],
            threshold in 0.2f32..0.8,
            dose in 0.8f32..1.2,
            seed in 0u64..u64::MAX,
        ) {
            let resist = ResistModel::new(threshold).unwrap();
            let (intensity, must, may) = count_case(n, seed, &resist, dose);
            let expected = scalar_counts(&intensity, &must, &may, &resist, dose);
            for isa in supported() {
                prop_assert_eq!(
                    count_failures(isa, &intensity, &must, &may, &resist, dose),
                    expected,
                    "{:?}: {} pixels", isa, n
                );
            }
        }
    }

    #[test]
    fn counts_span_lane_counter_parts() {
        // Two parts: the lane counters are summed twice.
        let resist = ResistModel::default();
        let n = COUNT_PART + 37;
        let (intensity, must, may) = count_case(n, 5, &resist, 1.05);
        let expected = scalar_counts(&intensity, &must, &may, &resist, 1.05);
        assert!(expected.open_pixels > 65_536 && expected.short_pixels > 65_536);
        for isa in supported() {
            assert_eq!(
                count_failures(isa, &intensity, &must, &may, &resist, 1.05),
                expected,
                "{isa:?}"
            );
        }
    }

    #[test]
    fn print_target_is_the_interior_of_the_full_frame_morphology() {
        let mask = speckle(23, 15).map(|&v| if v { 1.0f32 } else { 0.0 });
        let target = mask.map(|&v| v >= 0.5);
        for margin in [0, 1, 3] {
            for guard in [0, 2, 7] {
                let t = PrintTarget::new(&mask, margin, guard).unwrap();
                let i = t.interior();
                assert_eq!(t.must_print, crop(&erode(&target, margin), i));
                assert_eq!(t.may_print, crop(&dilate(&target, margin), i));
            }
        }
        assert!(PrintTarget::new(&mask, 1, 8).is_none(), "2 x 8 >= 15 rows");
    }

    #[test]
    fn perfect_print_is_clean() {
        let t = block(30, 10, 10, 20, 20);
        let r = check_printing(&t, &t, 2, 3);
        assert!(r.is_clean());
    }

    #[test]
    fn missing_interior_is_open() {
        let t = block(30, 10, 10, 20, 20);
        let mut p = t.clone();
        // Fail to print the centre.
        for y in 13..17 {
            for x in 13..17 {
                p[(x, y)] = false;
            }
        }
        let r = check_printing(&p, &t, 1, 3);
        assert!(r.open_pixels >= 16);
        assert_eq!(r.short_pixels, 0);
    }

    #[test]
    fn extra_resist_far_away_is_short() {
        let t = block(30, 10, 10, 20, 20);
        let mut p = t.clone();
        p[(25, 25)] = true; // far outside dilated target
        let r = check_printing(&p, &t, 2, 3);
        assert_eq!(r.short_pixels, 1);
        assert_eq!(r.open_pixels, 0);
    }

    #[test]
    fn edge_error_within_margin_is_tolerated() {
        let t = block(30, 10, 10, 20, 20);
        // Printed image shrunk by 1 px on every side: within margin 2.
        let p = erode(&t, 1);
        let r = check_printing(&p, &t, 2, 3);
        assert!(r.is_clean());
        // But not within margin 0.
        let r0 = check_printing(&p, &t, 0, 3);
        assert!(r0.open_pixels > 0);
    }

    #[test]
    fn guard_band_excludes_borders() {
        let t = block(30, 0, 0, 30, 5); // geometry hugging the border
        let p = Grid::filled(30, 30, false); // nothing printed
        let r = check_printing(&p, &t, 0, 6);
        assert_eq!(
            r.open_pixels, 0,
            "failures inside the guard band must be ignored"
        );
    }

    #[test]
    fn standard_window_contains_nominal() {
        let w = ProcessCorner::standard_window(0.05, 60.0);
        assert_eq!(w.len(), 5);
        assert_eq!(w[0], ProcessCorner::nominal());
        assert!(w.iter().any(|c| c.defocus_nm > 0.0));
        assert!(w.iter().any(|c| c.dose < 1.0));
    }

    #[test]
    fn corner_grid_contains_exact_nominal() {
        for (nd, nf) in [(1, 1), (3, 2), (5, 3), (3, 1)] {
            let g = CornerGrid::new(0.05, 60.0, nd, nf).unwrap();
            assert_eq!(g.len(), nd * nf);
            let corners = g.corners();
            let nominal = corners[g.nominal_index()];
            assert_eq!(nominal.dose, 1.0, "grid {nd}x{nf} misses nominal dose");
            assert_eq!(nominal.defocus_nm, 0.0, "grid {nd}x{nf} misses best focus");
        }
    }

    #[test]
    fn corner_grid_is_defocus_major() {
        let g = CornerGrid::new(0.10, 80.0, 3, 2).unwrap();
        let corners = g.corners();
        assert_eq!(corners.len(), 6);
        // First row: defocus 0 at every dose, ascending.
        assert!(corners[..3].iter().all(|c| c.defocus_nm == 0.0));
        assert!(corners[3..].iter().all(|c| c.defocus_nm == 80.0));
        assert!(corners[0].dose < corners[1].dose && corners[1].dose < corners[2].dose);
    }

    #[test]
    fn corner_grid_rejects_bad_shapes() {
        assert!(CornerGrid::new(0.05, 60.0, 0, 2).is_err());
        assert!(
            CornerGrid::new(0.05, 60.0, 2, 2).is_err(),
            "even n_dose misses nominal"
        );
        assert!(CornerGrid::new(0.05, 60.0, 3, 0).is_err());
        assert!(CornerGrid::new(-0.1, 60.0, 3, 2).is_err());
        assert!(CornerGrid::new(1.0, 60.0, 3, 2).is_err());
        assert!(CornerGrid::new(0.05, -1.0, 3, 2).is_err());
    }

    #[test]
    fn corner_grid_schema_is_deterministic() {
        let a = CornerGrid::new(0.05, 60.0, 3, 2).unwrap();
        let b = CornerGrid::new(0.05, 60.0, 3, 2).unwrap();
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.schema(), "dose3[0.950,1.000,1.050]xdefocus2[0,60]nm");
        let c = CornerGrid::new(0.05, 60.0, 5, 2).unwrap();
        assert_ne!(a.schema(), c.schema());
    }
}
