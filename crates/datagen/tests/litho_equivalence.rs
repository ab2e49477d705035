//! The litho oracle's per-clip analysis against the full-frame reference
//! composition (`aerial_image` → `develop` → `check_printing` at every
//! corner), on seeded draws of every pattern family: the labels the suites
//! carry are exactly the reference's, open and short counts included.

use hotspot_datagen::{patterns, PatternKind};
use hotspot_geometry::{raster, Grid};
use hotspot_litho::process::check_printing;
use hotspot_litho::{aerial, CornerGrid, CornerReport, Kernel1d, LithoConfig, LithoSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS_PER_KIND: u64 = 20;

fn reference_reports(mask: &Grid<f32>, config: &LithoConfig) -> Vec<CornerReport> {
    let res = config.resolution_nm;
    let target = mask.map(|&v| v >= 0.5);
    let margin_px = (config.epe_margin_nm / res as f64).round() as usize;
    let guard_px = (config.guard_band_nm / res as f64).round() as usize;
    config
        .corners
        .iter()
        .map(|corner| {
            let psf = Kernel1d::gaussian_defocused(config.sigma_nm, corner.defocus_nm, res)
                .expect("valid PSF");
            let printed = config
                .resist
                .develop(&aerial::aerial_image(mask, &psf), corner.dose);
            check_printing(&printed, &target, margin_px, guard_px)
        })
        .collect()
}

#[test]
fn every_family_gets_the_reference_corner_counts() {
    let grid = CornerGrid::new(0.05, 60.0, 3, 2).expect("valid grid");
    for config in [
        LithoConfig::default(),
        LithoConfig::default().with_corner_grid(&grid),
    ] {
        let sim = LithoSimulator::new(config.clone()).expect("valid config");
        let mut failing = 0;
        for kind in PatternKind::ALL {
            for seed in 0..DRAWS_PER_KIND {
                let clip = patterns::sample_pattern(kind, &mut StdRng::seed_from_u64(seed));
                let mask = raster::rasterize_clip(&clip.normalized(), config.resolution_nm);
                let expected = reference_reports(&mask, &config);
                assert_eq!(
                    sim.analyze_clip(&clip).corner_reports(),
                    &expected[..],
                    "{kind:?} seed {seed}, {} corners",
                    config.corners.len()
                );
                failing += usize::from(expected.iter().any(|r| !r.is_clean()));
            }
        }
        // The draws must exercise failing corners, not only clean ones.
        assert!(failing > 0, "no draw failed at any corner");
    }
}
