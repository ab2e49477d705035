//! Criterion bench: the data-generation substrate — pattern sampling,
//! rasterisation, and full lithography labelling per clip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotspot_datagen::{patterns, PatternKind};
use hotspot_geometry::raster;
use hotspot_litho::{LithoConfig, LithoSimulator};
use rand::SeedableRng;

fn bench_pattern_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for kind in [PatternKind::LineArray, PatternKind::RandomRouting] {
        group.bench_with_input(
            BenchmarkId::new("sample", format!("{kind:?}")),
            &kind,
            |bench, &kind| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                bench.iter(|| patterns::sample_pattern(kind, &mut rng));
            },
        );
    }
    group.finish();
}

fn bench_rasterize(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let clip = patterns::sample_pattern(PatternKind::ContactArray, &mut rng);
    let mut group = c.benchmark_group("raster");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("contact-array-10nm", |bench| {
        bench.iter(|| raster::rasterize_clip(std::hint::black_box(&clip), 10));
    });
    group.finish();
}

fn bench_litho_label(c: &mut Criterion) {
    let sim = LithoSimulator::new(LithoConfig::default()).expect("valid config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let clip = patterns::sample_pattern(PatternKind::LineTips, &mut rng);
    let mut group = c.benchmark_group("litho");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("label-clip-5-corners", |bench| {
        bench.iter(|| sim.analyze_clip(std::hint::black_box(&clip)));
    });
    group.finish();
}

/// End-to-end inference cost per clip: rasterised clip → DCT feature
/// tensor → CNN forward (the per-clip work inside
/// `HotspotDetector::predict_batch`).
fn bench_clip_scoring(c: &mut Criterion) {
    use hotspot_core::{model::CnnConfig, FeaturePipeline};

    let pipeline = FeaturePipeline::new(10, 12, 32).expect("valid pipeline parameters");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let clip = patterns::sample_pattern(PatternKind::LineArray, &mut rng);
    let net = CnnConfig {
        input_grid: pipeline.grid_dim(),
        input_channels: pipeline.coefficients(),
        ..CnnConfig::default()
    }
    .build();
    let mut ex = hotspot_nn::engine::Executor::new();
    let mut group = c.benchmark_group("scoring");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("extract-and-forward-k32", |bench| {
        bench.iter(|| {
            let x = pipeline
                .extract(std::hint::black_box(&clip))
                .expect("suite clip fits the pipeline");
            ex.infer(&net, &x)[0]
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pattern_sampling,
    bench_rasterize,
    bench_litho_label,
    bench_clip_scoring
);
criterion_main!(benches);
