//! Criterion bench: CNN forward and forward+backward cost per clip —
//! the numbers behind the paper's claim that the compressed feature tensor
//! "dramatically speeds up feed-forward and back-propagation" relative to
//! feeding the raw clip image.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotspot_core::model::CnnConfig;
use hotspot_nn::engine::Executor;
use hotspot_nn::{optim, Parallelism, Tensor};

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("cnn_forward");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for k in [8usize, 16, 32] {
        let cfg = CnnConfig {
            input_channels: k,
            ..CnnConfig::default()
        };
        let net = cfg.build();
        let x = Tensor::from_vec(cfg.input_shape(), vec![0.3; k * 144]);
        let mut ex = Executor::new();
        group.bench_with_input(BenchmarkId::new("k", k), &k, |bench, _| {
            bench.iter(|| ex.infer(&net, std::hint::black_box(&x))[0]);
        });
    }
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let cfg = CnnConfig {
        input_channels: 32,
        ..CnnConfig::default()
    };
    let mut net = cfg.build();
    let x = Tensor::from_vec(cfg.input_shape(), vec![0.3; 32 * 144]);
    let mut ex = Executor::new();
    let mut group = c.benchmark_group("cnn_train");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("train_step-k32", |bench| {
        bench.iter(|| {
            let sample = [(std::hint::black_box(&x), [0.0, 1.0])];
            optim::minibatch_step(&mut net, &mut ex, &sample, 1e-4)
        });
    });
    group.finish();
}

/// The comparison the paper motivates: the same architecture fed with the
/// raw 120×120 clip raster as a single channel instead of the 12×12×k
/// feature tensor. (Spatial dims collapse by the same two pools, so the
/// flatten width differs; the dominant cost is the 120×120 convolutions.)
fn bench_raw_image_input(c: &mut Criterion) {
    let cfg = CnnConfig {
        input_grid: 120,
        input_channels: 1,
        ..CnnConfig::default()
    };
    let net = cfg.build();
    let x = Tensor::from_vec(cfg.input_shape(), vec![0.3; 120 * 120]);
    let mut ex = Executor::new();
    let mut group = c.benchmark_group("cnn_raw_image");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("forward-raw-120px", |bench| {
        bench.iter(|| ex.infer(&net, std::hint::black_box(&x))[0]);
    });
    group.finish();
}

/// Batched inference through `Network::forward_batch` — the path
/// `Detector::predict_batch` rides — at one, two and all threads.
fn bench_forward_batch(c: &mut Criterion) {
    let cfg = CnnConfig {
        input_channels: 32,
        ..CnnConfig::default()
    };
    let net = cfg.build();
    let inputs: Vec<Tensor> = (0..64)
        .map(|i| Tensor::from_vec(cfg.input_shape(), vec![0.01 * i as f32; 32 * 144]))
        .collect();
    let all = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1usize, 2, all];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut group = c.benchmark_group("cnn_forward_batch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for threads in thread_counts {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &threads| {
                let par = Parallelism::fixed(threads).expect("thread counts are nonzero");
                bench.iter(|| net.forward_batch(std::hint::black_box(&inputs), par));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_train_step,
    bench_raw_image_input,
    bench_forward_batch
);
criterion_main!(benches);
