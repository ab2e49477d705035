//! The suite-generation workload: the `hotspot gen` path, pattern
//! generation and lithography labelling of the seeded suite.

use crate::report::Report;
use crate::setup::{self, Rng, Stream};
use crate::{host, latency_notes, repeated_setup, timed_ops, Args};
use hotspot_datagen::manifest::clip_crc;
use hotspot_datagen::suite::BenchmarkData;
use hotspot_litho::LithoSimulator;
use hotspot_nn::serialize::crc32;
use std::time::Instant;

/// Test clips of each build re-labelled through the oracle, untimed.
const CHECKED_CLIPS: usize = 4;

/// CRC over every clip and label of both splits, in order.
fn suite_crc(data: &BenchmarkData) -> u32 {
    let mut bytes = Vec::new();
    for s in data.train.iter().chain(data.test.iter()) {
        bytes.extend_from_slice(&clip_crc(&s.clip).to_le_bytes());
        bytes.push(u8::from(s.hotspot));
    }
    crc32(&bytes)
}

/// Whether a build has the class counts its spec asks for, and a seeded
/// sample of its test clips carries the labels the oracle gives them.
fn build_matches(data: &BenchmarkData, sim: &LithoSimulator, rng: &mut Rng) -> bool {
    let spec = &data.spec;
    let test = data.test.samples();
    data.train.hotspot_count() == spec.train_hs
        && data.train.non_hotspot_count() == spec.train_nhs
        && data.test.hotspot_count() == spec.test_hs
        && data.test.non_hotspot_count() == spec.test_nhs
        && (0..CHECKED_CLIPS).all(|_| {
            let s = &test[rng.below(test.len())];
            sim.label_clip(&s.clip) == s.hotspot
        })
}

pub fn run(args: &Args, report: &mut Report) {
    let spec = setup::suite_spec(args.seed);
    // Set-up is a fresh oracle and its first (cold) build, so work moved
    // from building into the oracle's construction still shows.
    let (sim, warm) = repeated_setup(
        report,
        |_| {
            let sim = setup::simulator();
            let warm = spec.build(&sim);
            (sim, warm)
        },
        drop,
    );
    let mut rng = Rng::new(setup::seed_for(args.seed, Stream::Checks));
    let crc = build_matches(&warm, &sim, &mut rng).then(|| suite_crc(&warm));
    report.phase("warm-up", 1, usize::from(crc.is_none()));
    let kept = warm.train.len() + warm.test.len();
    // Every drawn candidate is generated and litho-labelled; the suite
    // keeps only as many of each class as its spec asks for. The number
    // drawn to fill a suite varies with the seed (117 to 164 over seeds
    // 1–30), the cost per drawn clip hardly at all.
    let drawn: usize = warm.families.iter().map(|f| f.drawn).sum();

    // Each build's CPU time is scaled by a run of the reference kernel
    // right after it; the metric uses the median scaled build.
    let reference = host::Reference::default();
    let mut adjusted = Vec::new();
    let (times, failed) = timed_ops(args.seconds, 3, |_| {
        let (t, cpu) = (Instant::now(), host::process_cpu_s());
        let data = spec.build(&sim);
        let (secs, cpu_s) = (t.elapsed().as_secs_f64(), host::process_cpu_s() - cpu);
        adjusted.push(host::adjust(cpu_s, reference.cpu_ms()));
        let ok = crc == Some(suite_crc(&data)) && build_matches(&data, &sim, &mut rng);
        (secs, ok)
    });
    report.phase("timed", times.len(), failed);

    let median_s = crate::stats::median(&times).expect("at least one build");
    let adjusted_s = crate::stats::median(&adjusted).expect("at least one build");
    report.metric(
        "adj_throughput_per_cpu_s",
        "1/s",
        drawn as f64 / adjusted_s,
        times.len(),
        format!(
            "clips per CPU-second at reference speed: {drawn} generated and litho-labelled \
             candidate clips per build / median build CPU time scaled to a {} ms reference",
            host::REFERENCE_MS
        ),
    );
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    latency_notes(report, &ms, "suite build");
    report.note(format!(
        "unadjusted: {:.3} clips per wall-clock second over the median build",
        drawn as f64 / median_s
    ));
    report.note(format!(
        "suite: {} families drew {drawn} candidate clips to keep {kept}; suite crc {:08x}",
        warm.families.len(),
        crc.unwrap_or(0)
    ));
}
