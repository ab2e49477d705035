//! Property-based tests for the lithography substrate.

use hotspot_geometry::{raster, Clip, Grid, Rect};
use hotspot_litho::process::{check_printing, dilate, erode};
use hotspot_litho::window::process_window_map;
use hotspot_litho::{
    aerial, CornerReport, Kernel1d, LithoConfig, LithoSimulator, ProcessCorner, ResistModel,
};
use proptest::prelude::*;

fn arb_binary_grid() -> impl Strategy<Value = Grid<bool>> {
    proptest::collection::vec(proptest::bool::ANY, 144).prop_map(|v| Grid::from_vec(12, 12, v))
}

/// Defocus values drawn with repeats, so corners share PSFs.
fn arb_defocus() -> impl Strategy<Value = f64> {
    proptest::sample::select(vec![0.0, 0.0, 25.0, 60.0, 60.0, 97.5])
}

/// A `w × h` px raster size (non-square in general) and a simulator
/// configuration for it: margins from 0 px, guard bands from 0 px to past
/// half a side, PSF radii from 1 px to wider than the guard band.
fn arb_setup() -> impl Strategy<Value = (usize, usize, LithoConfig)> {
    (1usize..40, 1usize..40).prop_flat_map(|(w, h)| {
        (
            (
                proptest::sample::select(vec![5u32, 10, 20]),
                5.0f64..70.0,
                0usize..4,
                0usize..w.max(h) / 2 + 3,
            ),
            proptest::collection::vec((0.8f32..1.2, arb_defocus()), 1..7),
            0.3f32..0.6,
            0usize..6,
        )
            .prop_map(
                move |((res, sigma_nm, margin, guard), corners, threshold, min_failure_px)| {
                    let config = LithoConfig {
                        resolution_nm: res,
                        sigma_nm,
                        resist: ResistModel::new(threshold).expect("threshold in (0, 1)"),
                        corners: corners
                            .into_iter()
                            .map(|(dose, defocus_nm)| ProcessCorner { dose, defocus_nm })
                            .collect(),
                        epe_margin_nm: (margin as u32 * res) as f64,
                        guard_band_nm: (guard as u32 * res) as f64,
                        min_failure_px,
                    };
                    (w, h, config)
                },
            )
    })
}

/// The full-frame reference composition at one corner:
/// `aerial_image` → `develop` → `check_printing` against `mask ≥ 0.5`.
fn reference_report(mask: &Grid<f32>, config: &LithoConfig, corner: ProcessCorner) -> CornerReport {
    let res = config.resolution_nm;
    let psf =
        Kernel1d::gaussian_defocused(config.sigma_nm, corner.defocus_nm, res).expect("valid PSF");
    let printed = config
        .resist
        .develop(&aerial::aerial_image(mask, &psf), corner.dose);
    let target = mask.map(|&v| v >= 0.5);
    let margin_px = (config.epe_margin_nm / res as f64).round() as usize;
    let guard_px = (config.guard_band_nm / res as f64).round() as usize;
    check_printing(&printed, &target, margin_px, guard_px)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gaussian_kernels_are_normalised(sigma in 1.0f64..80.0, res in 1u32..25) {
        let k = Kernel1d::gaussian(sigma, res).expect("valid parameters");
        let sum: f64 = k.weights().iter().map(|&w| w as f64).sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert_eq!(k.weights().len(), 2 * k.radius() + 1);
        // Symmetric and peaked at centre.
        let w = k.weights();
        for i in 0..w.len() / 2 {
            prop_assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-6);
            prop_assert!(w[i] <= w[k.radius()] + 1e-9);
        }
    }

    #[test]
    fn defocus_never_narrows_the_psf(sigma in 5.0f64..60.0, defocus in 0.0f64..120.0) {
        let nominal = Kernel1d::gaussian(sigma, 10).expect("valid");
        let blurred = Kernel1d::gaussian_defocused(sigma, defocus, 10).expect("valid");
        prop_assert!(blurred.radius() >= nominal.radius());
        prop_assert!(
            blurred.weights()[blurred.radius()] <= nominal.weights()[nominal.radius()] + 1e-7
        );
    }

    #[test]
    fn aerial_intensity_bounded_by_mask_range(
        mask_vals in proptest::collection::vec(0.0f32..1.0, 24 * 24),
        sigma in 10.0f64..50.0,
    ) {
        let mask = Grid::from_vec(24, 24, mask_vals);
        let psf = Kernel1d::gaussian(sigma, 10).expect("valid");
        let img = aerial::aerial_image(&mask, &psf);
        for &v in img.iter() {
            // Zero padding can only reduce intensity; blur cannot exceed
            // the max mask transmission.
            prop_assert!((-1e-6..=1.0 + 1e-5).contains(&v));
        }
    }

    #[test]
    fn develop_is_monotone_in_dose(
        vals in proptest::collection::vec(0.0f32..1.0, 16),
        lo in 0.5f32..1.0,
        extra in 0.01f32..0.5,
    ) {
        let aerial = Grid::from_vec(4, 4, vals);
        let resist = ResistModel::default();
        let a = resist.develop(&aerial, lo);
        let b = resist.develop(&aerial, lo + extra);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!(!x | y, "pixel printed at low dose but not high");
        }
    }

    #[test]
    fn erode_shrinks_dilate_grows(g in arb_binary_grid(), r in 0usize..3) {
        let e = erode(&g, r);
        let d = dilate(&g, r);
        for ((orig, er), di) in g.iter().zip(e.iter()).zip(d.iter()) {
            prop_assert!(!er | orig, "erosion added a pixel");
            prop_assert!(!orig | di, "dilation removed a pixel");
        }
    }

    #[test]
    fn morphology_is_monotone(g in arb_binary_grid(), r in 1usize..3) {
        // erode(g, r) ⊆ erode(g, r-1); dilate(g, r-1) ⊆ dilate(g, r).
        let e1 = erode(&g, r - 1);
        let e2 = erode(&g, r);
        let d1 = dilate(&g, r - 1);
        let d2 = dilate(&g, r);
        for (a, b) in e2.iter().zip(e1.iter()) {
            prop_assert!(!a | b);
        }
        for (a, b) in d1.iter().zip(d2.iter()) {
            prop_assert!(!a | b);
        }
    }

    #[test]
    fn analyze_raster_matches_the_reference_composition(
        (w, h, config) in arb_setup(),
        seed in 0u64..u64::MAX,
    ) {
        // Clear, dark, exactly-threshold and partial coverage.
        let mut state = seed;
        let cells = (0..w * h)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                match state >> 61 {
                    0..=2 => 0.0,
                    3..=5 => 1.0,
                    6 => 0.5,
                    _ => (state >> 40) as f32 / (1u32 << 24) as f32,
                }
            })
            .collect();
        let mask = Grid::from_vec(w, h, cells);
        let sim = LithoSimulator::new(config.clone()).expect("valid config");
        let expected: Vec<CornerReport> = config
            .corners
            .iter()
            .map(|&corner| reference_report(&mask, &config, corner))
            .collect();
        prop_assert_eq!(sim.analyze_raster(&mask).corner_reports(), &expected[..]);
    }

    #[test]
    fn process_window_map_matches_the_reference_composition(
        (w, h, config) in arb_setup(),
        rects in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0..6),
        doses in proptest::collection::vec(0.8f32..1.2, 1..4),
        defocuses in proptest::collection::vec(arb_defocus(), 1..4),
    ) {
        let res = config.resolution_nm as i64;
        let (wn, hn) = (w as i64 * res, h as i64 * res);
        let mut clip = Clip::new(Rect::new(0, 0, wn, hn).expect("window"));
        for (a, b, c, d) in rects {
            // Arbitrary nm edges, so coverage is fractional at the borders.
            let (x0, x1) = ((a * wn as f64) as i64, (b * wn as f64) as i64);
            let (y0, y1) = ((c * hn as f64) as i64, (d * hn as f64) as i64);
            if let Ok(r) = Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)) {
                clip.push(r);
            }
        }
        let sim = LithoSimulator::new(config.clone()).expect("valid config");
        let map = process_window_map(&sim, &clip, &doses, &defocuses).expect("valid axes");
        let mask = raster::rasterize_clip(&clip.normalized(), config.resolution_nm);
        for (fi, &defocus_nm) in defocuses.iter().enumerate() {
            for (di, &dose) in doses.iter().enumerate() {
                let report = reference_report(&mask, &config, ProcessCorner { dose, defocus_nm });
                prop_assert_eq!(
                    map.passes_at(di, fi),
                    report.failures() < config.min_failure_px.max(1),
                    "dose {} defocus {}", dose, defocus_nm
                );
            }
        }
    }

    #[test]
    fn wider_lines_never_fail_harder(w1 in 6i64..12, extra in 1i64..6) {
        // Severity is monotone non-increasing in line width for isolated
        // vertical lines (widths in units of 10 nm).
        let sim = LithoSimulator::new(LithoConfig::default()).expect("valid config");
        let worst = |w: i64| {
            let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200).expect("window"));
            clip.push(Rect::new(600 - 5 * w, 0, 600 + 5 * w, 1200).expect("line"));
            sim.analyze_clip(&clip).worst_failures()
        };
        prop_assert!(worst(w1) >= worst(w1 + extra));
    }
}
