//! The litho oracle's bits, pinned: a CRC-32 of the `analyze_raster`
//! reports (default window and 3×2 corner grid) and one of the aerial
//! images' guard-band interiors (best focus and 60 nm defocus), over
//! golden-mini's clips and a seeded Industry3 suite. The values were
//! recorded with the per-tap shifted-row filter and counted pixel by
//! pixel, before the oracle's kernels were vectorised.

use hotspot_datagen::suite::SuiteSpec;
use hotspot_geometry::raster;
use hotspot_litho::{aerial, CornerGrid, Kernel1d, LithoConfig, LithoSimulator};
use hotspot_nn::serialize::crc32;

#[test]
fn oracle_reports_and_aerial_interiors_are_pinned() {
    let config = LithoConfig::default();
    let grid = CornerGrid::new(0.05, 60.0, 3, 2).expect("valid grid");
    let sims = [
        LithoSimulator::new(config.clone()).expect("default config"),
        LithoSimulator::new(config.clone().with_corner_grid(&grid)).expect("grid config"),
    ];
    let mut industry3 = SuiteSpec::industry3(0.002);
    industry3.seed = 20;
    let mut clips = Vec::new();
    for spec in [SuiteSpec::golden_mini(), industry3] {
        let data = spec.build(&sims[0]);
        clips.extend(
            data.train
                .iter()
                .chain(data.test.iter())
                .map(|s| s.clip.clone()),
        );
    }
    let res = config.resolution_nm;
    let psfs = [
        Kernel1d::gaussian(config.sigma_nm, res).expect("valid PSF"),
        Kernel1d::gaussian_defocused(config.sigma_nm, 60.0, res).expect("valid PSF"),
    ];
    let guard = (config.guard_band_nm / res as f64).round() as usize;
    let (mut reports, mut interiors) = (Vec::new(), Vec::new());
    for clip in &clips {
        let mask = raster::rasterize_clip(&clip.normalized(), res);
        for sim in &sims {
            for r in sim.analyze_raster(&mask).corner_reports() {
                reports.extend_from_slice(&(r.open_pixels as u64).to_le_bytes());
                reports.extend_from_slice(&(r.short_pixels as u64).to_le_bytes());
            }
        }
        let side = mask.width() - 2 * guard;
        for psf in &psfs {
            let image = aerial::aerial_image(&mask, psf);
            let interior = image.window(guard, guard, side, mask.height() - 2 * guard);
            interiors.extend(interior.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
    }
    let failing = reports.chunks_exact(8).filter(|c| c != &[0; 8]).count();
    println!(
        "{} clips, {failing} nonzero counts: reports crc {:08x}, interiors crc {:08x}",
        clips.len(),
        crc32(&reports),
        crc32(&interiors)
    );
    assert_eq!((clips.len(), failing), (269, 596));
    assert_eq!(crc32(&reports), 0x3155_cfd1, "corner reports moved");
    assert_eq!(crc32(&interiors), 0x8068_ab66, "aerial interiors moved");
}
