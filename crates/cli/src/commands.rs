//! The `hotspot` subcommands, exposed as functions so tests can drive them
//! without spawning processes. Each returns the text it would print.

use crate::model_file::ModelFile;
use crate::CliError;
use hotspot_bench::ExperimentArgs;
use hotspot_core::api::{ClipSpec, Json, PredictRequest, ReloadRequest, Request, ScanRequest};
use hotspot_core::biased::CheckpointEvent;
use hotspot_core::checkpoint::write_atomic;
use hotspot_core::detector::{DetectorConfig, HotspotDetector};
use hotspot_core::metrics::EvalResult;
use hotspot_core::{
    ActiveConfig, CascadeConfig, CascadePrefilter, Checkpoint, CoreError, FeaturePipeline,
    Parallelism, RunIdentity, ScanConfig,
};
use hotspot_datagen::suite::SuiteSpec;
use hotspot_datagen::{ClipPool, Dataset, LayoutSpec, Manifest, PatternKind, Sample};
use hotspot_geometry::io::{read_clips, write_clips};
use hotspot_geometry::Clip;
use hotspot_litho::{LithoConfig, LithoLabeler, LithoSimulator};
use hotspot_nn::serialize::ParameterBlob;
use hotspot_server::{client_roundtrip, ServeModel, Server, ServerConfig};
use std::fs;
use std::path::Path;

fn oracle() -> Result<LithoSimulator, CliError> {
    LithoSimulator::new(LithoConfig::default())
        .map_err(|e| CliError::Data(format!("litho configuration: {e}")))
}

fn load_clips(path: &str) -> Result<Vec<Clip>, CliError> {
    let bytes = fs::read(path)?;
    Ok(read_clips(bytes.as_slice())?)
}

fn load_labels(path: &str, expected: usize) -> Result<Vec<bool>, CliError> {
    let text = fs::read_to_string(path)?;
    let mut labels = Vec::new();
    for (line_idx, line) in text.lines().enumerate() {
        match line.trim() {
            "" => {}
            "0" => labels.push(false),
            "1" => labels.push(true),
            other => {
                return Err(CliError::Data(format!(
                    "{path}:{}: label must be 0 or 1, got '{other}'",
                    line_idx + 1
                )))
            }
        }
    }
    if labels.len() != expected {
        return Err(CliError::Data(format!(
            "{} labels for {} clips",
            labels.len(),
            expected
        )));
    }
    Ok(labels)
}

fn required<'a>(args: &'a ExperimentArgs, key: &str) -> Result<&'a str, CliError> {
    args.get(key)
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
}

/// `hotspot gen --suite <name> --scale S --dir D` where `<name>` is any
/// registered suite (see [`SuiteSpec::REGISTRY`]).
///
/// Writes `train.clips` / `train.labels` / `test.clips` / `test.labels`
/// plus a `manifest.txt` content fingerprint, and — for suites built on a
/// process-corner grid — `train.corners` / `test.corners` per-corner
/// label files.
///
/// # Errors
///
/// Usage, generation and I/O failures.
pub fn cmd_gen(args: &ExperimentArgs) -> Result<String, CliError> {
    let suite = args.string("suite", "iccad");
    let scale = SuiteSpec::check_scale(args.try_f64("scale", 0.01)?)
        .map_err(|e| CliError::Usage(format!("--{e}")))?;
    let dir = required(args, "dir")?.to_string();
    let spec = SuiteSpec::by_name(&suite, scale).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown suite '{suite}' ({})",
            SuiteSpec::REGISTRY.join("|")
        ))
    })?;
    let sim = oracle()?;
    let data = spec.build(&sim);
    fs::create_dir_all(&dir)?;
    let corner_schema = data.train.corner_schema();
    for (name, split) in [("train", &data.train), ("test", &data.test)] {
        let mut clip_bytes = Vec::new();
        write_clips(&mut clip_bytes, split.iter().map(|s| &s.clip))?;
        fs::write(Path::new(&dir).join(format!("{name}.clips")), clip_bytes)?;
        let labels: String = split
            .iter()
            .map(|s| if s.hotspot { "1\n" } else { "0\n" })
            .collect();
        fs::write(Path::new(&dir).join(format!("{name}.labels")), labels)?;
        if corner_schema.is_some() {
            let corners: Vec<_> = split
                .iter()
                .map(|s| {
                    s.corners.clone().ok_or_else(|| {
                        CliError::Data(format!(
                            "{name} split sample is missing per-corner labels despite the schema"
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            let mut corner_bytes = Vec::new();
            hotspot_datagen::write_corner_labels(&mut corner_bytes, &corners)?;
            fs::write(
                Path::new(&dir).join(format!("{name}.corners")),
                corner_bytes,
            )?;
        }
    }
    let manifest = Manifest::from_data(&data);
    fs::write(Path::new(&dir).join("manifest.txt"), manifest.render())?;
    let corner_note = match &manifest.corner_schema {
        Some(schema) => format!(" with per-corner labels ({schema})"),
        None => String::new(),
    };
    Ok(format!(
        "wrote {} train clips ({} hotspots) and {} test clips ({} hotspots) to {dir}/{corner_note}",
        data.train.len(),
        data.train.hotspot_count(),
        data.test.len(),
        data.test.hotspot_count()
    ))
}

/// `hotspot label --clips F` — runs the lithography oracle, printing one
/// `0`/`1` per clip.
///
/// # Errors
///
/// Usage and I/O failures.
pub fn cmd_label(args: &ExperimentArgs) -> Result<String, CliError> {
    let clips = load_clips(required(args, "clips")?)?;
    let sim = oracle()?;
    let mut out = String::new();
    for clip in &clips {
        out.push(if sim.label_clip(clip) { '1' } else { '0' });
        out.push('\n');
    }
    Ok(out)
}

/// A fingerprint of every configuration knob that shapes the training
/// trajectory; a checkpoint taken under a different configuration is
/// refused on resume rather than silently producing different weights.
fn run_tag(config: &DetectorConfig, k: usize) -> String {
    let m = &config.mgd;
    let b = &config.biased;
    format!(
        "res={} grid={} k={} rounds={} eps_step={} steps={} ft_steps={} ft_lr={} batch={} \
         lr={} alpha={} decay={} val_int={} patience={} val_frac={} balanced={}",
        config.pipeline.resolution_nm(),
        config.pipeline.grid_dim(),
        k,
        b.rounds,
        b.epsilon_step,
        m.max_steps,
        b.fine_tune.max_steps,
        b.fine_tune.lr,
        m.batch_size,
        m.lr,
        m.alpha,
        m.decay_step,
        m.val_interval,
        m.patience,
        m.val_fraction,
        m.balanced_sampling
    )
}

/// `hotspot train --clips F --labels F --model OUT [--k 16 --steps 800
/// --rounds 2 --batch 32 --seed 42] [--checkpoint-every N]
/// [--checkpoint F] [--resume F] [--cascade OUT [--cascade-fnr 0.0]
/// [--cascade-rounds 64] [--cascade-grid 12] [--cascade-holdout 0.25]]
/// [--active ROUNDS [--active-batch 10] [--pool 200 | --pool-clips F]
/// [--pool-seed 7] [--active-clusters 0] [--active-factor 4]
/// [--active-epsilon 0.1] [--active-seed 13]]`
///
/// With `--active ROUNDS`, the labelled clips become the *seed set* of a
/// batch active-learning run: after the initial biased schedule, each
/// round scores an unlabeled pool (synthetic, `--pool` clips drawn with
/// `--pool-seed`, or loaded from `--pool-clips`), selects the
/// `--active-batch` most informative clips (uncertainty + k-means
/// diversity), pays the lithography oracle for those labels only, and
/// fine-tunes. Checkpoints (v2) record every paid-for batch, so a killed
/// run resumed with `--resume` never re-invokes the oracle.
///
/// With `--cascade OUT`, an AdaBoost prefilter over raw density features
/// is additionally trained on the same clips, its margin threshold
/// calibrated on a held-out split to the target false-negative rate, and
/// the result written to `OUT` for `hotspot scan --cascade`.
///
/// With `--checkpoint-every N` (or `--resume`), a crash-safe checkpoint is
/// written atomically every N optimiser steps and at every round boundary
/// (default path: `<model>.ckpt`), and the best-validation model so far is
/// kept at `<model>.best`. Resuming a killed run with the same flags plus
/// `--resume <ckpt>` finishes with bit-identical weights to a run that was
/// never interrupted.
///
/// # Errors
///
/// Usage, data-consistency, checkpoint-mismatch, training and I/O
/// failures.
pub fn cmd_train(args: &ExperimentArgs) -> Result<String, CliError> {
    let clips_path = required(args, "clips")?;
    let labels_path = required(args, "labels")?;
    let model_path = required(args, "model")?.to_string();

    // Every flag is read before any file, so a malformed one fails fast.
    // `try_detector_config` has already rejected an invalid explicit `--k`.
    let mut config: DetectorConfig = hotspot_bench::try_detector_config(args)?;
    let k = args.try_usize("k", 16)?;
    config.pipeline = FeaturePipeline::new(10, 12, k)?;
    config.biased.rounds = args.try_usize("rounds", 2)?;
    let cascade = match args.get("cascade") {
        Some(path) => Some((
            path,
            CascadeConfig {
                grid_dim: args.try_usize("cascade-grid", 12)?,
                rounds: args.try_usize("cascade-rounds", 64)?,
                target_fnr: args.try_f64("cascade-fnr", 0.0)?,
                holdout_fraction: args.try_f64("cascade-holdout", 0.25)?,
            },
        )),
        None => None,
    };

    let checkpoint_every = args.try_usize("checkpoint-every", 0)?;
    let checkpoint_path = args
        .get("checkpoint")
        .map_or_else(|| format!("{model_path}.ckpt"), str::to_string);
    let best_path = format!("{model_path}.best");
    let mut tag = run_tag(&config, k);
    let active = match args.get("active") {
        Some(_) => Some(ActiveConfig {
            rounds: args.try_usize("active", 2)?,
            batch: args.try_usize("active-batch", 10)?,
            clusters: args.try_usize("active-clusters", 0)?,
            candidate_factor: args.try_usize("active-factor", 4)?,
            epsilon: args.try_f64("active-epsilon", 0.1)? as f32,
            fine_tune: config.schedule().fine_tune,
            seed: args.try_usize("active-seed", 13)? as u64,
        }),
        None => None,
    };
    let pool_size = args.try_usize("pool", 200)?;
    let pool_seed = args.try_usize("pool-seed", 7)? as u64;
    if let Some(a) = &active {
        // The pool and acquisition knobs shape the trajectory too; bake
        // them into the resume fingerprint.
        tag.push_str(&format!(
            " active={} abatch={} aclusters={} afactor={} aeps={} aseed={} pool={} pool_seed={}",
            a.rounds,
            a.batch,
            a.clusters,
            a.candidate_factor,
            a.epsilon,
            a.seed,
            args.get("pool-clips").unwrap_or(&pool_size.to_string()),
            pool_seed,
        ));
    }
    let clips = load_clips(clips_path)?;
    let labels = load_labels(labels_path, clips.len())?;
    let dataset: Dataset = clips
        .into_iter()
        .zip(labels)
        .map(|(clip, hotspot)| Sample::new(clip, hotspot))
        .collect();
    let seed = config.mgd.seed;
    let threads = config.mgd.threads;

    let resume = match args.get("resume") {
        Some(path) => {
            let ckpt = Checkpoint::load(Path::new(path))?;
            ckpt.validate_run(seed, threads, &tag)?;
            Some(ckpt)
        }
        None => None,
    };

    if let Some(active) = active {
        return cmd_train_active(
            args,
            &dataset,
            &config,
            &active,
            RunIdentity { seed, threads, tag },
            resume,
            checkpoint_every,
            &checkpoint_path,
            &model_path,
            k,
            pool_size,
            pool_seed,
        );
    }
    let resumed_rounds = resume.as_ref().map(|c| c.completed.len());
    let checkpointing = checkpoint_every > 0 || resume.is_some();
    // Seed the best-so-far accuracy from the checkpoint so a resume never
    // overwrites `<model>.best` with a worse snapshot — unless the crash
    // landed before that snapshot hit the disk, in which case the first
    // hook event must recreate it.
    let mut best_acc = resume
        .as_ref()
        .filter(|_| Path::new(&best_path).exists())
        .map_or(f64::NEG_INFINITY, |c| {
            c.completed
                .iter()
                .map(|r| r.report.best_val_accuracy)
                .chain(c.trainer.as_ref().map(|t| t.best_acc))
                .fold(f64::NEG_INFINITY, f64::max)
        });

    let (resolution_nm, grid) = (config.pipeline.resolution_nm(), config.pipeline.grid_dim());
    let mut detector = HotspotDetector::fit_resumable(
        &dataset,
        &config,
        resume.as_ref(),
        checkpoint_every,
        &mut |event, net| {
            if !checkpointing {
                return Ok(());
            }
            let (completed, trainer, acc, blob) = match event {
                CheckpointEvent::Step { completed, state } => {
                    (completed, Some(state), state.best_acc, state.best.clone())
                }
                CheckpointEvent::RoundEnd { completed } => (
                    completed,
                    None,
                    completed
                        .last()
                        .map_or(f64::NEG_INFINITY, |r| r.report.best_val_accuracy),
                    ParameterBlob::from_network(net),
                ),
            };
            Checkpoint::new(seed, threads, tag.clone(), net, completed, trainer)
                .save(Path::new(&checkpoint_path))?;
            if acc > best_acc {
                best_acc = acc;
                let best = ModelFile {
                    resolution_nm,
                    grid,
                    k,
                    blob,
                };
                write_atomic(Path::new(&best_path), &best.to_bytes())
                    .map_err(|e| CoreError::Checkpoint(format!("writing {best_path}: {e}")))?;
            }
            Ok(())
        },
    )?;
    let model = ModelFile {
        resolution_nm,
        grid,
        k,
        blob: detector.export_parameters(),
    };
    write_atomic(Path::new(&model_path), &model.to_bytes())?;
    let cascade_note = match cascade {
        Some((cascade_path, cascade_config)) => {
            let prefilter = detector.train_prefilter(&dataset, &cascade_config)?;
            write_atomic(Path::new(cascade_path), &prefilter.to_bytes())?;
            Some(format!(
                "; cascade prefilter ({} stumps, margin > {:.4}, holdout FNR {:.3}) written to {cascade_path}",
                prefilter.calibrated().model().stumps().len(),
                prefilter.margin_threshold(),
                prefilter.calibrated().achieved_fnr(),
            ))
        }
        None => None,
    };
    let mut out = format!(
        "trained on {} clips (final ε = {:.1}, {:.0} s); model written to {model_path}",
        dataset.len(),
        detector.training_report().final_epsilon(),
        detector.training_report().total_train_time_s()
    );
    if let Some(rounds) = resumed_rounds {
        out.push_str(&format!(
            "; resumed with {rounds} round(s) already complete"
        ));
    }
    if checkpointing {
        out.push_str(&format!(
            "; checkpoints at {checkpoint_path}, best model at {best_path}"
        ));
    }
    if let Some(note) = cascade_note {
        out.push_str(&note);
    }
    Ok(out)
}

/// The `--active` arm of `hotspot train`: batch active learning against
/// the lithography oracle, with v2 checkpointing.
#[allow(clippy::too_many_arguments)]
fn cmd_train_active(
    args: &ExperimentArgs,
    seed_data: &Dataset,
    config: &DetectorConfig,
    active: &ActiveConfig,
    identity: RunIdentity,
    resume: Option<Checkpoint>,
    checkpoint_every: usize,
    checkpoint_path: &str,
    model_path: &str,
    k: usize,
    pool_size: usize,
    pool_seed: u64,
) -> Result<String, CliError> {
    let pool = match args.get("pool-clips") {
        Some(path) => ClipPool::from_clips(load_clips(path)?),
        None => {
            let mix: Vec<(PatternKind, f64)> =
                PatternKind::ALL.iter().map(|&kind| (kind, 1.0)).collect();
            ClipPool::synthetic(&mix, pool_size, pool_seed)
        }
    };
    let labeler = LithoLabeler::new(oracle()?);
    let checkpointing = checkpoint_every > 0 || resume.is_some();
    let resumed_batches = resume
        .as_ref()
        .and_then(|c| c.active.as_ref())
        .map(|a| a.rounds.len());
    let (mut detector, report) = hotspot_core::train_active(
        seed_data,
        &pool,
        &labeler,
        config,
        active,
        &identity,
        resume.as_ref(),
        checkpoint_every,
        &mut |ckpt| {
            if checkpointing {
                ckpt.save(Path::new(checkpoint_path))?;
            }
            Ok(())
        },
    )?;
    let model = ModelFile {
        resolution_nm: config.pipeline.resolution_nm(),
        grid: config.pipeline.grid_dim(),
        k,
        blob: detector.export_parameters(),
    };
    write_atomic(Path::new(model_path), &model.to_bytes())?;
    let labelled: usize = report.rounds.iter().map(|r| r.selected.len()).sum();
    let hotspots: usize = report.rounds.iter().map(|r| r.hotspots_found).sum();
    let mut out = format!(
        "active training: {} seed clips + {} round(s) labelled {labelled} of {} pool clips \
         ({hotspots} hotspots found); labeler calls {} (simulated cost {:.0} s); \
         final ε = {:.1}, {:.0} s; model written to {model_path}",
        seed_data.len(),
        report.rounds.len(),
        report.pool_size,
        report.labeler_calls,
        report.labeler_cost_s,
        detector.training_report().final_epsilon(),
        detector.training_report().total_train_time_s(),
    );
    if let Some(batches) = resumed_batches {
        out.push_str(&format!(
            "; resumed with {batches} batch(es) already labelled"
        ));
    }
    if checkpointing {
        out.push_str(&format!("; checkpoints at {checkpoint_path}"));
    }
    Ok(out)
}

/// `hotspot predict --clips F --model M [--threshold 0.5]` — prints
/// `probability<TAB>verdict` per clip.
///
/// # Errors
///
/// Usage, model-format and I/O failures.
pub fn cmd_predict(args: &ExperimentArgs) -> Result<String, CliError> {
    let threshold = args.try_f64("threshold", 0.5)? as f32;
    let clips = load_clips(required(args, "clips")?)?;
    let model = ModelFile::from_bytes(&fs::read(required(args, "model")?)?)?;
    let detector = HotspotDetector::from_network(model.pipeline()?, model.network()?);
    let mut out = String::new();
    for p in detector.predict_batch(&clips)? {
        out.push_str(&format!(
            "{p:.4}\t{}\n",
            if p > threshold { "hotspot" } else { "clean" }
        ));
    }
    Ok(out)
}

/// `hotspot eval --clips F --labels F --model M` — Table-2 metrics.
///
/// # Errors
///
/// Usage, data-consistency, model-format and I/O failures.
pub fn cmd_eval(args: &ExperimentArgs) -> Result<String, CliError> {
    let clips = load_clips(required(args, "clips")?)?;
    let labels = load_labels(required(args, "labels")?, clips.len())?;
    let model = ModelFile::from_bytes(&fs::read(required(args, "model")?)?)?;
    let detector = HotspotDetector::from_network(model.pipeline()?, model.network()?);
    let start = std::time::Instant::now();
    let predictions: Vec<bool> = detector
        .predict_batch(&clips)?
        .iter()
        .map(|&p| p > 0.5)
        .collect();
    let eval_time = start.elapsed().as_secs_f64();
    let r = EvalResult::from_predictions(&predictions, &labels, eval_time);
    Ok(format!(
        "clips {}  hotspots {}  accuracy {:.1}%  false-alarms {}  overall {:.1}%  cpu {:.2}s  odst {:.0}s\n",
        labels.len(),
        r.hotspot_total,
        100.0 * r.accuracy,
        r.false_alarms,
        100.0 * r.overall_accuracy(),
        r.eval_time_s,
        r.odst_s
    ))
}

/// `hotspot genlayout --out FILE [--tiles 4 | --tiles-x X --tiles-y Y]
/// [--seed 7]` — writes one multi-window layout clip for `hotspot scan`.
///
/// # Errors
///
/// Usage and I/O failures.
pub fn cmd_genlayout(args: &ExperimentArgs) -> Result<String, CliError> {
    let out_path = required(args, "out")?.to_string();
    let tiles = args.try_usize("tiles", 4)?;
    let tiles_x = args.try_usize("tiles-x", tiles)?;
    let tiles_y = args.try_usize("tiles-y", tiles)?;
    if tiles_x == 0 || tiles_y == 0 {
        return Err(CliError::Usage("tile counts must be positive".into()));
    }
    let seed = args.try_usize("seed", 7)? as u64;
    let spec = LayoutSpec::uniform(tiles_x, tiles_y, seed);
    let layout = spec.build();
    let mut bytes = Vec::new();
    write_clips(&mut bytes, std::iter::once(&layout))?;
    fs::write(&out_path, bytes)?;
    Ok(format!(
        "wrote {}×{} nm layout ({tiles_x}×{tiles_y} tiles, {} shapes, seed {seed}) to {out_path}",
        spec.width_nm(),
        spec.height_nm(),
        layout.shape_count()
    ))
}

/// `hotspot scan --layout FILE --model FILE [--stride 600] [--window 1200]
/// [--threshold 0.5] [--threads N] [--cascade FILE] [--report FILE]` —
/// slides the detector over a full layout, merging flagged windows into
/// hotspot regions. `--cascade` loads a calibrated prefilter (see `hotspot
/// train --cascade`) so only prefilter-flagged windows reach the CNN.
/// `--report` writes the full JSON scan report.
///
/// # Errors
///
/// Usage, model-format, scan-geometry and I/O failures.
pub fn cmd_scan(args: &ExperimentArgs) -> Result<String, CliError> {
    let layouts = load_clips(required(args, "layout")?)?;
    let layout = match layouts.first() {
        Some(layout) => layout,
        None => return Err(CliError::Data("layout file holds no clip".into())),
    };
    let model = ModelFile::from_bytes(&fs::read(required(args, "model")?)?)?;
    let mut detector = HotspotDetector::from_network(model.pipeline()?, model.network()?);
    if args.get("threads").is_some() {
        detector.set_parallelism(
            Parallelism::fixed(args.try_usize("threads", 1)?)
                .map_err(|e| CliError::Usage(e.to_string()))?,
        );
    }
    let cascade = match args.get("cascade") {
        Some(path) => Some(CascadePrefilter::from_bytes(&fs::read(path)?)?),
        None => None,
    };
    let mut config = ScanConfig::new(args.try_usize("stride", 600)? as i64)?
        .with_window_nm(args.try_usize("window", 1200)? as i64)?
        .with_threshold(args.try_f64("threshold", 0.5)? as f32)?
        .with_provenance(model.provenance(cascade.as_ref().map(CascadePrefilter::crc)));
    if let Some(cascade) = cascade {
        config = config.with_cascade(cascade);
    }
    let report = detector.scan(layout, &config)?;
    if let Some(path) = args.get("report") {
        fs::write(path, report.to_json())?;
    }
    let mut out = format!(
        "scanned {}×{} nm layout at stride {} nm: {} windows ({}×{}), {} flagged in {} region(s)\n\
         block-DCT cache: {:.1}% hit rate ({} transformed, {} reused); {:.0} windows/s\n\
         {} thread(s): prepare {:.3} s, scan {:.3} s, merge {:.3} s\n",
        report.layout_width_nm,
        report.layout_height_nm,
        report.stride_nm,
        report.windows.len(),
        report.grid_cols,
        report.grid_rows,
        report.positives(),
        report.regions.len(),
        100.0 * report.cache.hit_rate(),
        report.cache.computed,
        report.cache.hits,
        report.windows_per_sec(),
        report.threads,
        report.prepare_s,
        report.scan_s,
        report.merge_s
    );
    if let Some(stats) = &report.cascade {
        out.push_str(&format!(
            "cascade: {} cleared, {} forwarded to CNN ({:.2} CNN evals/window, margin > {:.4})\n",
            stats.cleared,
            stats.forwarded,
            report.cnn_evals_per_window(),
            stats.margin_threshold
        ));
    }
    Ok(out)
}

/// `hotspot serve --socket PATH --model FILE [--cascade FILE]
/// [--queue 64] [--threads N]` — runs the scan-as-a-service daemon on a
/// Unix domain socket until a `shutdown` request drains it.
///
/// Concurrent `predict` requests are coalesced into shared GEMM blocks by
/// a bounded micro-batching queue (bound `--queue`; a full queue refuses
/// with a structured `busy` reply). `reload` requests swap the served
/// model with zero downtime. See `hotspot client` for the request side.
///
/// # Errors
///
/// Usage, model-format and socket failures; per-request failures are
/// answered on the wire as structured error replies instead.
pub fn cmd_serve(args: &ExperimentArgs) -> Result<String, CliError> {
    let socket = required(args, "socket")?.to_string();
    let model_path = required(args, "model")?;
    let mut model = ServeModel::load(model_path, args.get("cascade"))
        .map_err(|e| CliError::Server(e.to_string()))?;
    if args.get("threads").is_some() {
        model.set_parallelism(
            Parallelism::fixed(args.try_usize("threads", 1)?)
                .map_err(|e| CliError::Usage(e.to_string()))?,
        );
    }
    let mut config = ServerConfig::new(&socket);
    config.queue_capacity = args.try_usize("queue", config.queue_capacity)?;
    let provenance = model.provenance();
    let server = Server::bind(model, &config).map_err(|e| CliError::Server(e.to_string()))?;
    let engine = server.engine().clone();
    eprintln!(
        "serving {} on {socket} (queue bound {})",
        provenance.render(),
        config.queue_capacity
    );
    server.run().map_err(|e| CliError::Server(e.to_string()))?;
    let c = engine.counters();
    Ok(format!(
        "served {} request(s) on {socket}: {} predicts ({} clips, {} micro-batches, largest {}), \
         {} scans, {} reloads, {} errors ({} busy)\n",
        c.requests,
        c.predicts,
        c.clips,
        c.batches,
        c.max_batch,
        c.scans,
        c.reloads,
        c.errors,
        c.rejected_busy
    ))
}

/// `hotspot client --socket PATH --op OP [...]` — sends one request to a
/// running daemon and prints the raw JSON reply line.
///
/// Ops: `predict` (`--clips FILE [--threshold 0.5]`), `scan` (`--layout
/// FILE [--stride 600] [--window 1200] [--threshold 0.5]
/// [--windows true|false]`), `status`, `reload` (`--model-path FILE
/// [--cascade-path FILE]`), `shutdown`. `--id` sets the request ID
/// (default `cli`). `--raw LINE` sends an arbitrary line verbatim, for
/// protocol testing.
///
/// # Errors
///
/// Usage and transport failures; a daemon-side error reply (`"ok":
/// false`) becomes [`CliError::Server`] carrying the reply line, so the
/// process exits nonzero on protocol errors.
pub fn cmd_client(args: &ExperimentArgs) -> Result<String, CliError> {
    let socket = required(args, "socket")?.to_string();
    let id = args.string("id", "cli");
    let line = match args.get("raw") {
        Some(raw) => raw.to_string(),
        None => {
            let request = match required(args, "op")? {
                "predict" => Request::Predict(PredictRequest {
                    id,
                    clips: load_clips(required(args, "clips")?)?
                        .iter()
                        .map(ClipSpec::from_clip)
                        .collect(),
                    threshold: args.try_f64("threshold", 0.5)? as f32,
                }),
                "scan" => {
                    let layouts = load_clips(required(args, "layout")?)?;
                    let layout = layouts
                        .first()
                        .ok_or_else(|| CliError::Data("layout file holds no clip".into()))?;
                    Request::Scan(ScanRequest {
                        id,
                        layout: ClipSpec::from_clip(layout),
                        stride_nm: args.try_usize("stride", 600)? as i64,
                        window_nm: args.try_usize("window", 1200)? as i64,
                        threshold: args.try_f64("threshold", 0.5)? as f32,
                        include_windows: args.string("windows", "true") == "true",
                    })
                }
                "status" => Request::Status { id },
                "reload" => Request::Reload(ReloadRequest {
                    id,
                    model_path: required(args, "model-path")?.to_string(),
                    cascade_path: args.get("cascade-path").map(str::to_string),
                }),
                "shutdown" => Request::Shutdown { id },
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown op '{other}' (predict|scan|status|reload|shutdown)"
                    )))
                }
            };
            request.render()
        }
    };
    let reply = client_roundtrip(Path::new(&socket), &line)?;
    let ok = Json::parse(&reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        return Err(CliError::Server(reply));
    }
    Ok(format!("{reply}\n"))
}

/// Usage text printed for `--help`/bad invocations.
pub const USAGE: &str = "\
hotspot — layout hotspot detection (DAC'17 deep biased learning)

USAGE:
  hotspot gen     --dir DIR [--scale 0.01]
                  [--suite iccad|industry1|industry2|industry3|topo|vias|rdl|golden-mini]
  hotspot label   --clips FILE
  hotspot train   --clips FILE --labels FILE --model OUT [--k 16] [--steps 800] [--rounds 2]
                  [--checkpoint-every N] [--checkpoint FILE] [--resume FILE]
                  [--cascade OUT] [--cascade-fnr 0.0] [--cascade-rounds 64]
                  [--cascade-grid 12] [--cascade-holdout 0.25]
                  [--active ROUNDS] [--active-batch 10] [--pool 200 | --pool-clips FILE]
                  [--pool-seed 7] [--active-clusters 0] [--active-factor 4]
                  [--active-epsilon 0.1] [--active-seed 13]
  hotspot predict --clips FILE --model FILE [--threshold 0.5]
  hotspot eval    --clips FILE --labels FILE --model FILE
  hotspot genlayout --out FILE [--tiles 4 | --tiles-x X --tiles-y Y] [--seed 7]
  hotspot scan    --layout FILE --model FILE [--stride 600] [--window 1200]
                  [--threshold 0.5] [--threads N] [--cascade FILE] [--report FILE]
  hotspot serve   --socket PATH --model FILE [--cascade FILE] [--queue 64] [--threads N]
  hotspot client  --socket PATH --op predict|scan|status|reload|shutdown [--id cli]
                  [--clips FILE] [--layout FILE] [--threshold 0.5] [--stride 600]
                  [--window 1200] [--windows true|false] [--model-path FILE]
                  [--cascade-path FILE] [--raw LINE]

Clip files use the text format of hotspot-geometry (clip/rect/end records);
label files carry one 0/1 per clip line.

gen writes train/test clip and label files plus manifest.txt, a content
fingerprint (per-split and per-family CRCs) that pins the generated bytes;
regenerating with the same suite, scale and tool version reproduces it
exactly. Suites built on a dose x defocus process-corner grid (topo,
golden-mini) additionally write train.corners / test.corners with one
'<severity> <fail-bits>' line per clip.

Scanning slides the detector window over a full layout (see genlayout),
reusing per-block DCT coefficients between overlapping windows whenever the
stride is a multiple of the block size, and merges flagged windows into
hotspot regions; --report writes the JSON scan report.

Training with --cascade OUT also fits an AdaBoost prefilter on raw density
features, calibrates its margin threshold on a held-out split to the
--cascade-fnr false-negative target, and writes it to OUT; hotspot scan
--cascade FILE then sends only prefilter-flagged windows to the CNN
(cleared windows record the margin and score 0).

Training with --checkpoint-every N writes a crash-safe checkpoint (default
<model>.ckpt) every N steps and keeps the best-validation model at
<model>.best; after a crash, rerun with the same flags plus --resume FILE
to finish with bit-identical weights to an uninterrupted run.

Training with --active ROUNDS treats the labelled clips as a seed set and
runs batch active learning against an unlabeled pool: each round selects
the --active-batch most informative clips (CNN uncertainty + k-means
diversity over feature tensors), pays the lithography oracle for those
labels only, and fine-tunes. The pool is synthetic (--pool clips, drawn
with --pool-seed) or loaded from --pool-clips. Checkpoints record every
paid-for batch, so resuming a killed run never re-invokes the oracle.

Serving keeps the detector resident behind a Unix domain socket speaking
newline-delimited JSON (schema v1): concurrent predict requests coalesce
into shared GEMM micro-batches, reload swaps models with zero downtime,
and every reply carries the provenance (model CRC) that produced it.
hotspot client wraps the protocol for shell use and exits nonzero when the
daemon answers with a structured error reply.
";

/// Parses `--flag value` tokens and dispatches them to `command`: the
/// `hotspot` binary's whole command line after the command name.
///
/// # Errors
///
/// Returns [`CliError::Usage`] naming the token or flag of a malformed
/// command line, plus everything [`dispatch`] returns.
pub fn run<I, S>(command: &str, tokens: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    dispatch(command, &ExperimentArgs::parse(tokens)?)
}

/// Dispatches a command name plus `--flag value` arguments.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands, plus whatever the
/// command itself raises.
pub fn dispatch(command: &str, args: &ExperimentArgs) -> Result<String, CliError> {
    match command {
        "gen" => cmd_gen(args),
        "label" => cmd_label(args),
        "train" => cmd_train(args),
        "predict" => cmd_predict(args),
        "eval" => cmd_eval(args),
        "genlayout" => cmd_genlayout(args),
        "scan" => cmd_scan(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("hotspot-cli-test-{name}"));
        fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn load_labels_reports_one_based_line_numbers() {
        let path = write_temp("bad-labels", "1\n\n0\nmaybe\n1\n");
        let err = load_labels(path.to_str().unwrap(), 3).unwrap_err();
        let msg = err.to_string();
        // Line 4 holds the bad token ('maybe'); blank line 2 still counts.
        assert!(msg.contains(":4:"), "missing line number in: {msg}");
        assert!(msg.contains("maybe"), "missing bad token in: {msg}");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn gen_writes_manifest_and_corner_labels_for_corner_suites() {
        let dir = std::env::temp_dir().join(format!("hotspot-cli-gen-{}", std::process::id()));
        let args =
            ExperimentArgs::from_iter(["--suite", "golden-mini", "--dir", dir.to_str().unwrap()]);
        let summary = cmd_gen(&args).unwrap();
        assert!(summary.contains("per-corner labels"), "summary: {summary}");
        for file in [
            "train.clips",
            "train.labels",
            "train.corners",
            "test.clips",
            "test.labels",
            "test.corners",
            "manifest.txt",
        ] {
            assert!(dir.join(file).exists(), "missing {file}");
        }
        let manifest_text = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let manifest = Manifest::parse(&manifest_text).unwrap();
        assert_eq!(manifest.name, "GoldenMini");
        assert!(manifest.corner_schema.is_some());
        let n_train = fs::read_to_string(dir.join("train.labels"))
            .unwrap()
            .lines()
            .count();
        let corners = fs::read(dir.join("train.corners")).unwrap();
        let parsed = hotspot_datagen::read_corner_labels(corners.as_slice()).unwrap();
        assert_eq!(parsed.len(), n_train);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn gen_rejects_unknown_suite_naming_the_registry() {
        let args = ExperimentArgs::from_iter(["--suite", "nope", "--dir", "/tmp/unused"]);
        let msg = cmd_gen(&args).unwrap_err().to_string();
        for name in SuiteSpec::REGISTRY {
            assert!(
                msg.contains(name),
                "registry entry {name} missing from: {msg}"
            );
        }
    }

    #[test]
    fn load_labels_accepts_blank_lines_and_checks_count() {
        let path = write_temp("good-labels", "1\n\n0\n 1 \n");
        assert_eq!(
            load_labels(path.to_str().unwrap(), 3).unwrap(),
            vec![true, false, true]
        );
        let err = load_labels(path.to_str().unwrap(), 5).unwrap_err();
        assert!(err.to_string().contains("3 labels for 5 clips"));
        fs::remove_file(path).unwrap();
    }

    /// Label-file lines: the two labels with and without padding, blank
    /// lines, and tokens that are not a label.
    fn label_line() -> impl Strategy<Value = &'static str> {
        proptest::sample::select(vec![
            "0", "1", " 1 ", "\t0", "0\r", "", "  ", "2", "-1", "01", "true", "0 1", "1.0", "#",
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `load_labels` never panics: it returns the labels, names the
        /// first bad line (1-based) and its token, or reports a count
        /// mismatch.
        #[test]
        fn load_labels_returns_labels_or_names_the_bad_line(
            lines in proptest::collection::vec(label_line(), 0..12),
            exact in proptest::bool::ANY,
            other_count in 0usize..8,
        ) {
            let labels: Vec<bool> = lines
                .iter()
                .filter_map(|l| match l.trim() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .collect();
            let first_bad = lines.iter().position(|l| !matches!(l.trim(), "" | "0" | "1"));
            let expected = if exact { labels.len() } else { other_count };
            let path = write_temp(&format!("labels-prop-{}", std::process::id()), &lines.join("\n"));
            let got = load_labels(path.to_str().unwrap(), expected);
            fs::remove_file(&path).unwrap();
            match (first_bad, got) {
                (Some(i), Err(e)) => {
                    let msg = e.to_string();
                    prop_assert!(msg.contains(&format!(":{}:", i + 1)), "{msg}");
                    prop_assert!(msg.contains(&format!("'{}'", lines[i].trim())), "{msg}");
                }
                (None, Ok(got)) => prop_assert_eq!(got, labels),
                (None, Err(e)) => prop_assert_eq!(
                    e.to_string(),
                    CliError::Data(format!("{} labels for {expected} clips", labels.len())).to_string()
                ),
                (_, got) => prop_assert!(false, "{lines:?} -> {got:?}"),
            }
        }
    }
}
