//! The traced run: every layer of the stack replayed under spans.
//!
//! The result contract asks every traced run for every per-layer metric,
//! so the traced run is the same whatever the workload: the seed's
//! set-up and litho labels, one dense and one cascade scan pass, training
//! steps, and served requests, each replayed from the layers' public
//! calls. Replayed scan and serve scores must equal the program's bit for
//! bit.

use crate::report::Report;
use crate::scan::{self, ScanSetup};
use crate::serve::{self, Daemon, Requests};
use crate::setup;
use crate::stats::{median, tail};
use crate::trace::Trace;
use crate::train;
use crate::Args;
use hotspot_core::{mgd, HotspotDetector};
use hotspot_datagen::suite::BenchmarkData;
use hotspot_geometry::Clip;
use hotspot_nn::gemm::gemm_call_count;
use hotspot_server::ClientConn;
use std::time::Instant;

/// Replayed training steps.
const TRAIN_STEPS: usize = 12;
/// Requests replayed through a daemon-free engine.
const ENGINE_REQUESTS: usize = 300;
/// Sequential socket round trips at low load.
const TRANSPORT_REQUESTS: usize = 300;
/// Open-loop burst length for generator lateness and batching.
const BURST_SECONDS: f64 = 2.0;
/// Empty spans timed to cost the recorder itself.
const EMPTY_SPANS: usize = 100_000;

pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let mut trace = Trace::new();

    let data = trace.time("datagen.suite_build", None, || setup::suite(seed));
    let mut det = trace.time("core.setup_fit", None, || setup::fit(&data, seed));
    let prefilter_data = setup::prefilter_suite();
    let prefilter = trace.time("core.cascade.train", None, || {
        setup::prefilter(&det, &prefilter_data)
    });
    report.phase("setup", 1, usize::from(!setup::trained(&mut det, seed)));
    let s = |t: &Trace, name| t.total_ms(name) / 1e3;
    report.metric(
        "datagen.suite_build_s",
        "s",
        s(&trace, "datagen.suite_build"),
        1,
        "SuiteSpec::build with litho labels",
    );
    let sim = setup::simulator();
    let relabelled = data
        .test
        .iter()
        .filter(|s| trace.time("litho.label", None, || sim.label_clip(&s.clip)) == s.hotspot)
        .count();
    report.phase("relabel", data.test.len(), data.test.len() - relabelled);
    report.metric(
        "litho.label_ms",
        "ms",
        median(&trace.durations_ms("litho.label")).expect("test clips labelled"),
        data.test.len(),
        "LithoSimulator::label_clip, median per test clip",
    );
    report.metric(
        "core.setup_fit_s",
        "s",
        s(&trace, "core.setup_fit"),
        1,
        "HotspotDetector::fit",
    );
    report.metric(
        "core.cascade.train_s",
        "s",
        s(&trace, "core.cascade.train"),
        1,
        "train_prefilter, FNR-0 calibration",
    );

    let model = serve::model_file(&mut det);
    profile_training(&data, &det, seed, &mut trace, report);

    let dense = ScanSetup {
        det,
        layout: setup::dense_layout(seed),
        prefilter: None,
    };
    profile_scan(&dense, &mut trace, report);
    let cascade = ScanSetup {
        layout: setup::sparse_layout(&dense.layout),
        det: dense.det,
        prefilter: Some(prefilter),
    };
    profile_scan(&cascade, &mut trace, report);

    let test: Vec<Clip> = data.test.iter().map(|s| s.clip.clone()).collect();
    profile_serving(&model, &cascade.det, &test, seed, &mut trace, report);

    let empty = Instant::now();
    for _ in 0..EMPTY_SPANS {
        let id = trace.open("trace.empty", None);
        trace.close(id);
    }
    report.metric(
        "trace.span_cost_ns",
        "ns",
        empty.elapsed().as_nanos() as f64 / EMPTY_SPANS as f64,
        EMPTY_SPANS,
        "mean cost of one empty span",
    );
    for line in trace.summary() {
        report.note(line);
    }
}

fn profile_training(
    data: &BenchmarkData,
    det: &HotspotDetector,
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
) {
    let pipeline = det.pipeline().clone();
    let (features, labels) = trace
        .time("core.feature.extract_dataset", None, || {
            pipeline.extract_dataset(&data.train)
        })
        .expect("the training split extracts");
    let config = setup::detector_config(seed);
    let batch = config.mgd.batch_size;
    let steps = train::replay_steps(
        &config.reconciled_cnn(),
        &features,
        &labels,
        batch,
        TRAIN_STEPS,
        seed,
        trace,
    );
    report.phase("train-replay", TRAIN_STEPS, 0);
    let val_from = features.len() * 3 / 4;
    trace.time("core.mgd.validate", None, || {
        mgd::balanced_accuracy(det.network(), &features[val_from..], &labels[val_from..])
    });
    let eval = det.evaluate(&data.test).expect("the test split evaluates");

    let per_step = format!("median over {TRAIN_STEPS} replayed {batch}-sample steps");
    let m = |v: &[f64]| median(v).expect("steps ran");
    report.metric(
        "core.feature.extract_dataset_ms",
        "ms",
        trace.total_ms("core.feature.extract_dataset"),
        1,
        format!("{} clips", data.train.len()),
    );
    report.metric(
        "nn.forward_train_ms",
        "ms",
        m(&steps.forward_ms),
        TRAIN_STEPS,
        format!("forward_train + softmax_cross_entropy_into, {per_step}"),
    );
    report.metric(
        "nn.backward_ms",
        "ms",
        m(&steps.backward_ms),
        TRAIN_STEPS,
        format!("Executor::backward, {per_step}"),
    );
    report.metric(
        "nn.update_ms",
        "ms",
        m(&steps.update_ms),
        TRAIN_STEPS,
        format!("apply_gradients, {per_step}"),
    );
    report.metric(
        "trace.train.accounted_frac",
        "fraction",
        m(&steps.accounted),
        TRAIN_STEPS,
        "layer spans over step span",
    );
    report.metric(
        "core.mgd.validate_ms",
        "ms",
        trace.total_ms("core.mgd.validate"),
        1,
        format!("balanced_accuracy on {} clips", features.len() - val_from),
    );
    report.metric(
        "core.eval.accuracy",
        "fraction",
        eval.accuracy,
        eval.hotspot_total,
        "paper Def. 1 on the test split",
    );
    report.metric(
        "core.eval.false_alarms",
        "count",
        eval.false_alarms as f64,
        eval.non_hotspot_total,
        "paper Def. 2 on the test split",
    );
}

fn profile_scan(s: &ScanSetup, trace: &mut Trace, report: &mut Report) {
    let cascade = s.prefilter.is_some();
    let config = scan::scan_config(s.prefilter.as_ref());
    let warm = s.det.scan(&s.layout, &config).expect("layout scans");
    let g0 = gemm_call_count();
    let program = s.det.scan(&s.layout, &config).expect("layout scans");
    let gemm = gemm_call_count() - g0;
    let pass = trace.open("scan.replay", None);
    let replay = scan::replay(s, trace, pass);
    trace.close(pass);
    let matches = replay
        .as_ref()
        .is_ok_and(|r| scan::replay_matches(r, &program) && scan::replay_matches(r, &warm));
    let stage = if cascade {
        "cascade-replay"
    } else {
        "dense-replay"
    };
    report.phase(stage, 1, usize::from(!matches));
    if let Ok(r) = &replay {
        if !cascade && r.blocks != program.cache.computed {
            report.problem(format!(
                "replay transformed {} blocks, the scan reports {}",
                r.blocks, program.cache.computed
            ));
        }
    }
    let windows = program.windows.len() as f64;
    let merge_frac = program.merge_s / program.elapsed_s;
    // The replay reproduces the band phase (raster to scores), not the
    // merge, so it is compared with the untraced band time.
    let overhead_ms = trace.ms(pass) - program.scan_s * 1e3;
    let accounted = trace.accounted_frac(pass);
    let one = |name: &str| trace.child_total_ms(pass, name);
    if cascade {
        let full = s
            .det
            .scan(&s.layout, &config.clone().without_cascade())
            .expect("layout scans");
        if !scan::cnn_windows_match(&full, &program) || !scan::regions_covered(&full, &program) {
            report.problem("cascade pass diverges from the uncascaded scan");
        }
        let stats = program.cascade.as_ref().expect("cascade stats");
        report.metric(
            "features.density_ms",
            "ms",
            one("features.density"),
            program.windows.len(),
            "density_feature per window crop, pass total",
        );
        report.metric(
            "core.cascade.margin_ms",
            "ms",
            one("core.cascade.margin"),
            program.windows.len(),
            "CascadePrefilter::try_margin, pass total",
        );
        report.metric(
            "core.cascade.cleared_frac",
            "fraction",
            stats.cleared as f64 / windows,
            program.windows.len(),
            "windows the prefilter cleared",
        );
        report.metric(
            "core.cascade.cnn_evals_per_window",
            "count",
            program.cnn_evals_per_window(),
            program.windows.len(),
            "CNN evaluations per window",
        );
        report.metric(
            "core.cascade.missed_hotspot_windows",
            "count",
            scan::missed_hotspot_windows(&full, &program) as f64,
            full.positives(),
            "uncascaded hotspot windows the cascade cleared (FNR-0 calibration)",
        );
        report.metric(
            "core.cascade.merge_frac",
            "fraction",
            merge_frac,
            1,
            format!(
                "merge share of the cascade pass at {} positives",
                program.positives()
            ),
        );
        report.metric(
            "core.cascade.positives",
            "count",
            program.positives() as f64,
            1,
            "flagged windows, cascade pass",
        );
        report.metric(
            "trace.scan_cascade.accounted_frac",
            "fraction",
            accounted,
            1,
            "layer spans over replayed pass",
        );
        report.metric(
            "trace.scan_cascade.overhead_ms",
            "ms",
            overhead_ms,
            1,
            "traced replay minus untraced band phase",
        );
    } else {
        report.metric(
            "geometry.raster_ms",
            "ms",
            one("geometry.raster"),
            1,
            "rasterize_clip on the dense layout",
        );
        report.metric(
            "dct.transform_ms",
            "ms",
            one("dct.transform"),
            program.cache.computed,
            "coefficients_for over distinct lattice blocks, pass total",
        );
        report.metric(
            "dct.blocks_computed",
            "count",
            program.cache.computed as f64,
            1,
            "ScanReport.cache",
        );
        report.metric(
            "dct.cache_hit_rate",
            "fraction",
            program.cache.hit_rate(),
            program.cache.lookups(),
            "ScanReport.cache",
        );
        report.metric(
            "nn.infer_ms",
            "ms",
            one("nn.infer"),
            trace.durations_ms("nn.infer").len(),
            "forward_batch_with per score block, pass total",
        );
        report.metric(
            "nn.gemm_calls_per_window",
            "count",
            gemm as f64 / windows,
            program.windows.len(),
            "gemm_call_count delta over one scan",
        );
        report.metric(
            "core.scan.prepare_ms",
            "ms",
            program.prepare_s * 1e3,
            1,
            "ScanReport.prepare_s",
        );
        report.metric(
            "core.scan.band_ms",
            "ms",
            program.scan_s * 1e3,
            1,
            "ScanReport.scan_s",
        );
        report.metric(
            "core.scan.merge_ms",
            "ms",
            program.merge_s * 1e3,
            1,
            "ScanReport.merge_s",
        );
        report.metric(
            "core.scan.merge_frac",
            "fraction",
            merge_frac,
            1,
            format!(
                "merge share of the dense pass at {} positives",
                program.positives()
            ),
        );
        report.metric(
            "core.scan.positives",
            "count",
            program.positives() as f64,
            1,
            "flagged windows, dense pass",
        );
        report.metric(
            "core.scan.regions",
            "count",
            program.regions.len() as f64,
            1,
            "merged regions, dense pass",
        );
        report.metric(
            "trace.scan_dense.accounted_frac",
            "fraction",
            accounted,
            1,
            "layer spans over replayed pass",
        );
        report.metric(
            "trace.scan_dense.overhead_ms",
            "ms",
            overhead_ms,
            1,
            "traced replay minus untraced band phase",
        );
    }
}

fn profile_serving(
    model: &hotspot_core::ModelFile,
    det: &HotspotDetector,
    test: &[Clip],
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
) {
    let burst = (serve::RATE_PER_S * BURST_SECONDS).round() as usize;
    let requests = Requests::new(
        model,
        test,
        seed,
        ENGINE_REQUESTS.max(TRANSPORT_REQUESTS) + burst,
    );

    for clip in requests.pairs.iter().flatten() {
        trace
            .time("core.feature.extract", None, || {
                det.pipeline().extract(clip)
            })
            .expect("clip extracts");
    }
    let matched = serve::replay_engine(model, &requests, ENGINE_REQUESTS, trace);
    report.phase("engine-replay", ENGINE_REQUESTS, ENGINE_REQUESTS - matched);

    let daemon = Daemon::start(model, 0);
    let mut conn = ClientConn::connect(&daemon.socket).expect("daemon accepts");
    let mut round_trips_us = Vec::new();
    let mut transport_failed = 0;
    for (i, line) in requests
        .lines(0..TRANSPORT_REQUESTS)
        .into_iter()
        .enumerate()
    {
        let t = Instant::now();
        let reply = conn.request(line.trim_end());
        round_trips_us.push(t.elapsed().as_secs_f64() * 1e6);
        transport_failed += usize::from(!reply.is_ok_and(|r| requests.reply_matches(i, &r)));
    }
    drop(conn);
    report.phase("round-trips", TRANSPORT_REQUESTS, transport_failed);

    let burst_from = requests.len() - burst;
    let before = daemon.engine.counters();
    let load = serve::open_loop(
        &daemon.socket,
        &requests.lines(burst_from..requests.len()),
        serve::RATE_PER_S,
        serve::connections(),
    );
    let after = daemon.engine.counters();
    let burst_failed = load.failed(&requests, burst_from);
    report.phase("burst", burst, burst_failed);
    daemon.stop();

    let us = |name: &str| median(&trace.durations_ms(name)).expect("spans recorded") * 1e3;
    let (parse, extract, enqueue, drain) = (
        us("core.api.parse"),
        us("core.feature.extract"),
        us("server.enqueue"),
        us("server.drain"),
    );
    let round_trip = median(&round_trips_us).expect("round trips ran");
    let accounted: Vec<f64> = trace
        .ids("serve.request")
        .into_iter()
        .map(|id| trace.accounted_frac(id))
        .collect();
    report.metric(
        "trace.serve.accounted_frac",
        "fraction",
        median(&accounted).expect("requests replayed"),
        accounted.len(),
        "parse + enqueue + drain spans over request span",
    );
    report.metric(
        "core.api.parse_us",
        "us",
        parse,
        ENGINE_REQUESTS,
        "Request::parse, median per request",
    );
    report.metric(
        "core.feature.extract_us",
        "us",
        extract,
        requests.pairs.len() * 2,
        "FeaturePipeline::extract, median per clip",
    );
    report.metric(
        "server.enqueue_us",
        "us",
        enqueue,
        ENGINE_REQUESTS,
        "Engine::enqueue_predict, median per request",
    );
    report.metric(
        "server.drain_us",
        "us",
        drain,
        ENGINE_REQUESTS,
        "Engine::drain_once, median per request",
    );
    report.metric(
        "server.transport_us",
        "us",
        round_trip - enqueue - drain,
        TRANSPORT_REQUESTS,
        format!("median socket round trip {round_trip:.1} us at low load minus enqueue and drain"),
    );
    let batches = after.batches - before.batches;
    report.metric(
        "server.clips_per_batch",
        "count",
        (after.clips - before.clips) as f64 / batches.max(1) as f64,
        batches as usize,
        "Engine::counters over the burst",
    );
    report.metric(
        "server.rejected_busy",
        "count",
        (after.rejected_busy - before.rejected_busy) as f64,
        burst,
        "busy replies over the burst",
    );
    let late = tail(&load.late_ms()).expect("burst sent requests");
    report.metric(
        "loadgen.late_p99_ms",
        "ms",
        late.value,
        burst,
        format!("generator lateness p{} over the burst", late.percentile),
    );
}
