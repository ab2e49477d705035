//! `FeaturePipeline` against the reference composition it replaced
//! (`rasterize_clip` of the normalised clip → per-block `Grid::window` →
//! full `Dct2d::forward` → first `k` zig-zag coefficients → scale by
//! `1 / B`), on seeded draws of every pattern family: the truncated
//! in-place kernel must reproduce every feature bit.

use hotspot_core::FeaturePipeline;
use hotspot_datagen::{patterns, PatternKind};
use hotspot_dct::{zigzag_indices, Dct2d};
use hotspot_geometry::{raster, Clip, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS_PER_KIND: u64 = 12;

fn reference_features(clip: &Clip, resolution_nm: u32, n: usize, k: usize) -> Vec<f32> {
    let image = raster::rasterize_clip(&clip.normalized(), resolution_nm);
    let b = image.width() / n;
    let dct = Dct2d::new(b).expect("nonzero block");
    let order = zigzag_indices(b);
    let scale = 1.0 / b as f32;
    let mut out = vec![0.0f32; k * n * n];
    for j in 0..n {
        for i in 0..n {
            let coeffs = dct
                .forward(&image.window(i * b, j * b, b, b))
                .expect("square block");
            for (c, &(x, y)) in order[..k].iter().enumerate() {
                out[(c * n + j) * n + i] = coeffs[(x, y)] * scale;
            }
        }
    }
    out
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_family_extracts_the_reference_feature_bits() {
    for k in [8usize, 32, 100] {
        let pipeline = FeaturePipeline::new(10, 12, k).expect("valid pipeline");
        let mut into = vec![f32::NAN; k * 12 * 12];
        for kind in PatternKind::ALL {
            for seed in 0..DRAWS_PER_KIND {
                let clip = patterns::sample_pattern(kind, &mut StdRng::seed_from_u64(seed));
                let expected = bits(&reference_features(&clip, 10, 12, k));
                // The pipeline rasterises without normalising first: a clip
                // whose window sits off the origin must give the same bits.
                let d = Point::new(-36_105, 52_473);
                let shifted = Clip::with_shapes(
                    clip.window().translated(d),
                    clip.shapes().iter().map(|r| r.translated(d)),
                );
                for clip in [&clip, &shifted] {
                    let tensor = pipeline.extract(clip).expect("clip fits the grid");
                    assert_eq!(tensor.shape(), &[k, 12, 12]);
                    assert_eq!(
                        bits(tensor.as_slice()),
                        expected,
                        "{kind:?} seed {seed} k {k}"
                    );
                    into.fill(f32::NAN);
                    pipeline
                        .extract_into(clip, &mut into)
                        .expect("clip fits the grid");
                    assert_eq!(bits(&into), expected, "{kind:?} seed {seed} k {k} (into)");
                }
            }
        }
    }
}

#[test]
fn extract_into_rejects_a_wrong_length_buffer() {
    let pipeline = FeaturePipeline::default();
    let clip = patterns::sample_pattern(PatternKind::ALL[0], &mut StdRng::seed_from_u64(0));
    let mut short = vec![0.0f32; 32 * 12 * 12 - 1];
    assert!(pipeline.extract_into(&clip, &mut short).is_err());
}
