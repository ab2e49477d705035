//! Label-efficiency benchmark for the batch active-learning loop.
//!
//! Three arms share one seed dataset, one unlabeled pool, and one test
//! set, differing only in which pool clips get litho labels:
//!
//! - **full supervision**: label the *entire* pool up front and train on
//!   seed + pool — the ROC-AUC ceiling, at maximum labelling cost.
//! - **active**: `--active-rounds` rounds of uncertainty + k-means
//!   diversity acquisition (`hotspot_core::train_active`), labelling
//!   `--active-batch` clips per round.
//! - **random**: the same round/batch schedule, but batches drawn
//!   uniformly at random — the sampling baseline active learning must
//!   beat (or match at lower cost).
//!
//! Each arm reports its labeler-call count and final test ROC-AUC; the
//! active and random arms also report the full per-round curve
//! (labels used → AUC), reconstructed from the v2 checkpoints the active
//! run persists at every round boundary. The headline figures are
//! `active_auc_fraction_of_full` (target: ≥ 0.99) and
//! `labels_fraction_of_pool` (target: ≤ 0.5).
//!
//! ```text
//! cargo run --release -p hotspot-bench --bin active -- \
//!     --scale 0.01 --steps 300 --pool 120 --active-rounds 5 --active-batch 10
//! ```
//!
//! Writes `results/BENCH_active.json` (override the directory with
//! `--out`).

use hotspot_bench::{build_benchmark, detector_config, oracle, ExperimentArgs};
use hotspot_core::mgd::MgdConfig;
use hotspot_core::{roc, ActiveConfig, Checkpoint, RunIdentity, TrainSession};
use hotspot_datagen::{ClipPool, Dataset, Sample};
use hotspot_litho::{Labeler, LithoLabeler};
use hotspot_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

fn curve_json(curve: &[(usize, f64)]) -> String {
    let points: Vec<String> = curve
        .iter()
        .map(|(labels, auc)| format!("{{ \"labels\": {labels}, \"auc\": {auc:.6} }}"))
        .collect();
    format!("[ {} ]", points.join(", "))
}

fn main() {
    let args = ExperimentArgs::from_env();
    let scale = args.f64("scale", 0.005);
    let out_dir = args.string("out", "results");
    let pool_size = args.usize("pool", 120);
    let pool_seed = args.usize("pool-seed", 7) as u64;
    let rounds = args.usize("active-rounds", 5);
    let batch = args.usize("active-batch", 10);

    let mut config = detector_config(&args);
    let steps = args.usize("steps", 500);
    config.mgd.max_steps = steps;
    config.biased.initial.max_steps = steps;
    config.biased.fine_tune.max_steps = (steps / 4).max(1);
    config.biased.rounds = args.usize("rounds", 2);
    // Fine-tuning after each acquisition needs enough budget to beat the
    // seed model's validation score — `train` restores the best-val
    // snapshot, so an under-budgeted fine-tune is silently a no-op.
    let ft_steps = args.usize("active-ft-steps", (steps / 2).max(1));

    let sim = oracle();
    let spec = hotspot_datagen::suite::SuiteSpec::iccad(scale);
    let data = build_benchmark(&spec, &sim);
    let pool = ClipPool::synthetic(&spec.mix, pool_size, pool_seed);
    let pipeline = config.pipeline.clone();
    let (test_features, test_labels) = pipeline
        .extract_dataset(&data.test)
        .expect("test set extracts");
    let auc_of = |net: &hotspot_nn::Network| -> f64 { roc::auc(net, &test_features, &test_labels) };

    let active_cfg = ActiveConfig {
        rounds,
        batch,
        clusters: args.usize("active-clusters", 0),
        candidate_factor: args.usize("active-factor", 4),
        epsilon: args.f64("active-epsilon", 0.1) as f32,
        fine_tune: MgdConfig {
            max_steps: ft_steps,
            ..config.schedule().fine_tune
        },
        seed: args.usize("active-seed", 13) as u64,
    };
    let schedule_rounds = config.biased.rounds;

    // --- Arm 1: full supervision (label the whole pool up front). -------
    eprintln!("[active] full-supervision arm: labelling all {pool_size} pool clips...");
    let full_labeler = LithoLabeler::new(oracle());
    let full_set: Dataset = data
        .train
        .iter()
        .cloned()
        .chain(
            pool.clips()
                .iter()
                .map(|clip| Sample::new(clip.clone(), full_labeler.label(clip))),
        )
        .collect();
    let full_calls = full_labeler.calls();
    eprintln!(
        "[active] full-supervision arm: training on {} clips...",
        full_set.len()
    );
    let full = hotspot_core::HotspotDetector::fit(&full_set, &config).expect("full arm trains");
    let full_auc = auc_of(full.network());
    eprintln!("[active]   full supervision: {full_calls} labels, AUC {full_auc:.4}");

    // --- Arm 2: batch active learning. -----------------------------------
    eprintln!("[active] active arm: {rounds} rounds x {batch} clips...");
    let active_labeler = LithoLabeler::new(oracle());
    let identity = RunIdentity {
        seed: config.mgd.seed,
        threads: config.mgd.threads,
        tag: "bench-active".into(),
    };
    // Round-boundary snapshots (no mid-round trainer, schedule finished,
    // every labelled batch fine-tuned) reconstruct the learning curve.
    let snapshots: RefCell<Vec<Checkpoint>> = RefCell::new(Vec::new());
    let (active_detector, active_report) = hotspot_core::train_active(
        &data.train,
        &pool,
        &active_labeler,
        &config,
        &active_cfg,
        &identity,
        None,
        0,
        &mut |ckpt| {
            let fine_tuned = ckpt.completed.len().saturating_sub(schedule_rounds);
            let labelled = ckpt.active.as_ref().map_or(0, |a| a.rounds.len());
            if ckpt.trainer.is_none()
                && ckpt.completed.len() >= schedule_rounds
                && fine_tuned == labelled
            {
                snapshots.borrow_mut().push(ckpt.clone());
            }
            Ok(())
        },
    )
    .expect("active arm trains");
    let active_curve: Vec<(usize, f64)> = snapshots
        .into_inner()
        .iter()
        .map(|ckpt| {
            let mut net = config.reconciled_cnn().build();
            ckpt.apply(&mut net).expect("snapshot applies");
            let labels: usize = ckpt
                .active
                .as_ref()
                .map_or(0, |a| a.rounds.iter().map(|r| r.selected.len()).sum());
            (labels, auc_of(&net))
        })
        .collect();
    let active_auc = auc_of(active_detector.network());
    let active_calls = active_report.labeler_calls;
    eprintln!("[active]   active: {active_calls} labels, AUC {active_auc:.4}");

    // --- Arm 3: random sampling at the same budget. ----------------------
    eprintln!("[active] random arm: same schedule, uniform batches...");
    let random_labeler = LithoLabeler::new(oracle());
    let (seed_features, seed_labels) = pipeline
        .extract_dataset(&data.train)
        .expect("seed set extracts");
    let mut session = TrainSession::new(
        config.reconciled_cnn().build(),
        seed_features,
        seed_labels,
        config.schedule(),
    );
    session
        .run_schedule(0, &mut |_, _| Ok(()))
        .expect("random arm schedule trains");
    let mut random_curve = vec![(0usize, auc_of(session.network()))];
    let mut rng = StdRng::seed_from_u64(active_cfg.seed ^ 0x5EED);
    let mut unlabeled: Vec<usize> = (0..pool.len()).collect();
    for round in 0..rounds {
        let take = batch.min(unlabeled.len());
        if take == 0 {
            break;
        }
        let mut picks = Vec::with_capacity(take);
        for _ in 0..take {
            picks.push(unlabeled.swap_remove(rng.gen_range(0..unlabeled.len())));
        }
        let tensors: Vec<Tensor> = picks
            .iter()
            .map(|&i| {
                pipeline
                    .extract(&pool.clips()[i])
                    .expect("pool clip extracts")
            })
            .collect();
        let labels: Vec<bool> = picks
            .iter()
            .map(|&i| random_labeler.label(&pool.clips()[i]))
            .collect();
        session.append(tensors, &labels).expect("batch appends");
        let cfg = MgdConfig {
            seed: active_cfg
                .fine_tune
                .seed
                .wrapping_add((round as u64 + 1) * 0x9E37),
            ..active_cfg.fine_tune.clone()
        };
        session
            .fine_tune(active_cfg.epsilon, &cfg, 0, &mut |_, _| Ok(()))
            .expect("random arm fine-tunes");
        random_curve.push((random_labeler.calls(), auc_of(session.network())));
    }
    let random_calls = random_labeler.calls();
    let random_auc = random_curve.last().map_or(0.0, |&(_, auc)| auc);
    eprintln!("[active]   random: {random_calls} labels, AUC {random_auc:.4}");

    // --- Report. ----------------------------------------------------------
    let auc_fraction = if full_auc > 0.0 {
        active_auc / full_auc
    } else {
        0.0
    };
    let labels_fraction = active_calls as f64 / pool_size as f64;
    let meets = auc_fraction >= 0.99 && labels_fraction <= 0.5;
    eprintln!(
        "[active] active/full AUC = {auc_fraction:.4} at {:.0}% of pool labels ({})",
        100.0 * labels_fraction,
        if meets { "target met" } else { "TARGET MISSED" }
    );

    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"scale\": {scale},\n  \
         \"seed_clips\": {},\n  \"pool_size\": {pool_size},\n  \
         \"rounds\": {rounds},\n  \"batch\": {batch},\n  \
         \"train_steps\": {steps},\n  \
         \"full_supervision\": {{ \"labeler_calls\": {full_calls}, \"labeler_cost_s\": {:.1}, \"auc\": {full_auc:.6} }},\n  \
         \"active\": {{ \"labeler_calls\": {active_calls}, \"labeler_cost_s\": {:.1}, \"auc\": {active_auc:.6}, \"curve\": {} }},\n  \
         \"random\": {{ \"labeler_calls\": {random_calls}, \"labeler_cost_s\": {:.1}, \"auc\": {random_auc:.6}, \"curve\": {} }},\n  \
         \"active_auc_fraction_of_full\": {auc_fraction:.6},\n  \
         \"labels_fraction_of_pool\": {labels_fraction:.6},\n  \
         \"meets_99pct_auc_at_half_pool_labels\": {meets}\n}}\n",
        spec.name,
        data.train.len(),
        full_labeler.cost_s(),
        active_labeler.cost_s(),
        curve_json(&active_curve),
        random_labeler.cost_s(),
        curve_json(&random_curve),
    );
    print!("{json}");

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = format!("{out_dir}/BENCH_active.json");
    std::fs::write(&path, &json).expect("write BENCH_active.json");
    eprintln!("[active] wrote {path}");
}
