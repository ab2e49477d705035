//! Batch active learning: label-efficient training against an expensive
//! oracle.
//!
//! Following the batch-active-learning recipe for hotspot detection
//! (uncertainty sampling plus diversity over feature tensors), the loop
//! in [`train_active`] alternates between
//!
//! 1. **Acquisition** ([`acquire_batch`]): score every unlabeled pool
//!    clip with the current CNN, shortlist the most *uncertain*
//!    (probability closest to the 0.5 decision boundary — the margin
//!    whose calibration [`crate::calibration`] measures), cluster the
//!    shortlist's DCT feature tensors with k-means for *diversity*, and
//!    pick greedily across clusters so one batch never spends its budget
//!    on near-duplicates.
//! 2. **Labelling**: pay the oracle (litho simulation,
//!    [`SIM_TIME_PER_CLIP_S`] per clip) for the selected batch only.
//! 3. **Fine-tuning**: grow the [`TrainSession`] with the new labels and
//!    run one warm-start biased round.
//!
//! Everything is deterministic given the session seeds, and every batch
//! is recorded (with its oracle labels) in the version-2 checkpoint, so a
//! SIGKILL at any point resumes bit-identically **without re-invoking the
//! labeler** for clips already paid for.

use crate::biased::{BiasRound, BiasedLearningReport, CheckpointEvent};
use crate::checkpoint::{ActiveRoundState, ActiveState, Checkpoint};
use crate::detector::{DetectorConfig, HotspotDetector};
use crate::mgd::{self, MgdConfig};
use crate::session::TrainSession;
use crate::CoreError;
use hotspot_datagen::{ClipPool, Dataset};
use hotspot_features::{KMeans, KMeansConfig};
use hotspot_litho::simtime::SIM_TIME_PER_CLIP_S;
use hotspot_litho::Labeler;
use hotspot_nn::{Network, Parallelism, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the active-learning loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveConfig {
    /// Acquisition rounds to run (0 = just the initial schedule).
    pub rounds: usize,
    /// Clips labelled per round.
    pub batch: usize,
    /// Diversity clusters per round; 0 derives one cluster per batch
    /// slot.
    pub clusters: usize,
    /// Uncertainty-shortlist size as a multiple of `batch` (values below
    /// 1 behave as 1); the shortlist is what gets clustered.
    pub candidate_factor: usize,
    /// Bias ε of every per-round fine-tune (see [`crate::biased`]).
    pub epsilon: f32,
    /// Trainer settings for the per-round fine-tunes; each round derives
    /// its own seed from this one, so batches see distinct but
    /// reproducible sampling streams.
    pub fine_tune: MgdConfig,
    /// Acquisition seed (uncertainty/diversity selection stream).
    pub seed: u64,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        let base = MgdConfig::default();
        ActiveConfig {
            rounds: 4,
            batch: 10,
            clusters: 0,
            candidate_factor: 4,
            epsilon: 0.1,
            fine_tune: MgdConfig {
                max_steps: (base.max_steps / 4).max(1),
                lr: base.lr * 0.5,
                ..base
            },
            seed: 0,
        }
    }
}

/// Identity of a resumable run, checked against checkpoints (see
/// [`Checkpoint::validate_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// Training seed (must match the trainer configs).
    pub seed: u64,
    /// Worker-thread count of the trainer.
    pub threads: usize,
    /// Free-form configuration fingerprint.
    pub tag: String,
}

/// One completed acquisition round.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveRoundReport {
    /// Selected pool indices, in acquisition order.
    pub selected: Vec<usize>,
    /// Oracle labels, aligned with `selected`.
    pub labels: Vec<bool>,
    /// Number of hotspots the oracle found in the batch.
    pub hotspots_found: usize,
    /// The fine-tune round trained after appending the batch.
    pub train: BiasRound,
}

/// Outcome of a full active-learning run.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveReport {
    /// Acquisition rounds in order, including rounds replayed from a
    /// checkpoint on resume.
    pub rounds: Vec<ActiveRoundReport>,
    /// Total labeler invocations across the run, including before a
    /// resume.
    pub labeler_calls: usize,
    /// Simulated labelling cost: `labeler_calls ×` [`SIM_TIME_PER_CLIP_S`].
    pub labeler_cost_s: f64,
    /// Size of the unlabeled pool the run drew from.
    pub pool_size: usize,
    /// The full training trajectory (initial schedule plus fine-tunes).
    pub trajectory: BiasedLearningReport,
}

impl ActiveReport {
    /// Pool indices labelled so far, in acquisition order.
    pub fn labelled_indices(&self) -> Vec<usize> {
        self.rounds
            .iter()
            .flat_map(|r| r.selected.clone())
            .collect()
    }
}

/// Derives the deterministic per-round stream seed.
fn round_seed(base: u64, round: usize) -> u64 {
    base ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Selects one batch of pool indices: uncertainty shortlist → k-means
/// diversity clustering → greedy round-robin across clusters.
///
/// `probs` and `features` are indexed by pool position; `unlabeled` lists
/// the candidate positions. The result is deterministic given `seed`
/// (uncertainty ties break by pool index, clustering uses a seeded
/// stream), contains no duplicates, and is a subset of `unlabeled`; it is
/// shorter than `batch` only when the candidates run out.
///
/// # Errors
///
/// [`CoreError::Active`] when `batch` is zero, a candidate index is
/// outside the scored pool, or clustering fails
/// ([`hotspot_features::kmeans::KMeansError`]).
pub fn acquire_batch(
    probs: &[f32],
    features: &[Vec<f32>],
    unlabeled: &[usize],
    batch: usize,
    clusters: usize,
    candidate_factor: usize,
    seed: u64,
) -> Result<Vec<usize>, CoreError> {
    if batch == 0 {
        return Err(CoreError::Active("batch size must be nonzero".into()));
    }
    if unlabeled.is_empty() {
        return Ok(Vec::new());
    }
    if let Some(&bad) = unlabeled
        .iter()
        .find(|&&i| i >= probs.len() || i >= features.len())
    {
        return Err(CoreError::Active(format!(
            "candidate index {bad} outside the scored pool ({} probs, {} features)",
            probs.len(),
            features.len()
        )));
    }
    // Uncertainty ranking: distance to the decision boundary, ascending,
    // with ties broken by pool index so the order is total.
    let mut ranked: Vec<usize> = unlabeled.to_vec();
    ranked.sort_by(|&a, &b| {
        let ua = (probs[a] - 0.5).abs();
        let ub = (probs[b] - 0.5).abs();
        ua.total_cmp(&ub).then(a.cmp(&b))
    });
    let shortlist_len = ranked
        .len()
        .min(batch.saturating_mul(candidate_factor.max(1)));
    let shortlist = &ranked[..shortlist_len];
    if shortlist.len() <= batch {
        return Ok(shortlist.to_vec());
    }
    // Diversity: cluster the shortlist's feature tensors so the batch
    // spreads over distinct pattern neighbourhoods.
    let k = if clusters == 0 { batch } else { clusters }.clamp(1, shortlist.len());
    let samples: Vec<Vec<f32>> = shortlist.iter().map(|&i| features[i].clone()).collect();
    let cfg = KMeansConfig {
        k,
        ..KMeansConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, assignments) = KMeans::fit(&samples, &cfg, &mut rng)?;
    // Bucket shortlist members per cluster, preserving uncertainty order;
    // clusters are visited in order of their most-uncertain member.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut cluster_order: Vec<usize> = Vec::new();
    for (pos, &idx) in shortlist.iter().enumerate() {
        let c = assignments[pos];
        if buckets[c].is_empty() {
            cluster_order.push(c);
        }
        buckets[c].push(idx);
    }
    // Greedy round-robin: the most uncertain unpicked member of each
    // cluster in turn, until the batch is full.
    let mut picks = Vec::with_capacity(batch);
    let mut cursor = vec![0usize; k];
    while picks.len() < batch {
        let mut advanced = false;
        for &c in &cluster_order {
            if picks.len() == batch {
                break;
            }
            if cursor[c] < buckets[c].len() {
                picks.push(buckets[c][cursor[c]]);
                cursor[c] += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    Ok(picks)
}

/// Runs the full active-learning loop: the initial biased schedule on the
/// labelled seed dataset, then `active.rounds` acquisition → label →
/// fine-tune rounds against the unlabeled pool, stopping early if the
/// pool runs dry.
///
/// `persist` receives a fully-assembled version-2 [`Checkpoint`] at every
/// checkpointable moment: periodic optimiser steps (every
/// `checkpoint_every` when nonzero), round boundaries, and — critically —
/// **immediately after a batch is labelled**, so a crash between paying
/// the oracle and finishing the fine-tune never re-labels on resume.
/// Resuming from any of those checkpoints reproduces the identical batch
/// sequence and bit-identical final weights.
///
/// # Errors
///
/// Everything [`HotspotDetector::fit`] rejects, plus
/// [`CoreError::Active`] for an empty pool or zero batch,
/// [`CoreError::Checkpoint`] for a resume state inconsistent with the
/// run, the schedule, or the pool, and any error `persist` returns.
#[allow(clippy::too_many_arguments)]
pub fn train_active(
    seed_data: &Dataset,
    pool: &ClipPool,
    labeler: &dyn Labeler,
    config: &DetectorConfig,
    active: &ActiveConfig,
    identity: &RunIdentity,
    resume: Option<&Checkpoint>,
    checkpoint_every: usize,
    persist: &mut dyn FnMut(&Checkpoint) -> Result<(), CoreError>,
) -> Result<(HotspotDetector, ActiveReport), CoreError> {
    if pool.is_empty() {
        return Err(CoreError::Active("the unlabeled pool is empty".into()));
    }
    if active.batch == 0 {
        return Err(CoreError::Active("batch size must be nonzero".into()));
    }
    if !(0.0..0.5).contains(&active.epsilon) {
        return Err(CoreError::InvalidConfig("ε must be in [0, 0.5)"));
    }
    if seed_data.hotspot_count() == 0 || seed_data.non_hotspot_count() == 0 {
        return Err(CoreError::DegenerateTrainingSet(
            "training set must contain both classes",
        ));
    }
    let pipeline = config.pipeline.clone();
    let (seed_features, seed_labels) = pipeline.extract_dataset(seed_data)?;
    let pool_tensors: Vec<Tensor> = pool
        .clips()
        .iter()
        .map(|c| pipeline.extract(c))
        .collect::<Result<_, _>>()?;
    let pool_flat: Vec<Vec<f32>> = pool_tensors.iter().map(|t| t.as_slice().to_vec()).collect();

    let schedule = config.schedule();
    let schedule_rounds = schedule.rounds;
    let net = config.reconciled_cnn().build();
    let mut state = ActiveState::default();
    let mut session = TrainSession::new(net, seed_features, seed_labels, schedule);
    if let Some(ckpt) = resume {
        // Restore weights + RNG streams into the session's network, then
        // position the round cursor.
        ckpt.validate_run(identity.seed, identity.threads, &identity.tag)?;
        state = ckpt.active.clone().unwrap_or_default();
        let biased_resume = ckpt.apply(session.network_mut())?;
        session.restore(biased_resume);
    }

    // --- Phase 1: the initial biased schedule on the seed data. ---------
    if session.completed().len() < schedule_rounds {
        if !state.rounds.is_empty() {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint records {} labelled batches but the initial schedule is unfinished",
                state.rounds.len()
            )));
        }
        let mut hook = make_hook(identity, &state, persist);
        session.run_schedule(checkpoint_every, &mut hook)?;
    } else {
        // Past the schedule: every extra completed round consumed one
        // labelled batch; at most one batch may be labelled but not yet
        // fine-tuned (an interrupted round).
        let fine_tuned = session.completed().len() - schedule_rounds;
        if state.rounds.len() != fine_tuned && state.rounds.len() != fine_tuned + 1 {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint records {} labelled batches but {fine_tuned} fine-tune rounds",
                state.rounds.len()
            )));
        }
    }

    // --- Phase 2: replay already-labelled batches (no oracle calls). ----
    let mut unlabeled_mask = vec![true; pool.len()];
    for (r, round) in state.rounds.iter().enumerate() {
        if round.selected.len() != round.labels.len() {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint round {r} has {} selections but {} labels",
                round.selected.len(),
                round.labels.len()
            )));
        }
        let mut tensors = Vec::with_capacity(round.selected.len());
        for &raw in &round.selected {
            let idx = usize::try_from(raw).map_err(|_| {
                CoreError::Checkpoint(format!("pool index {raw} exceeds the platform word size"))
            })?;
            if idx >= pool.len() {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint selects pool index {idx} but the pool has {} clips",
                    pool.len()
                )));
            }
            if !unlabeled_mask[idx] {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint selects pool index {idx} twice"
                )));
            }
            unlabeled_mask[idx] = false;
            tensors.push(pool_tensors[idx].clone());
        }
        session.append(tensors, &round.labels)?;
    }

    // --- Phase 3: acquisition rounds. ------------------------------------
    while session.completed().len() - schedule_rounds < active.rounds {
        let round = session.completed().len() - schedule_rounds;
        // Acquire and label, unless this round's batch was already paid
        // for (resume of an interrupted fine-tune).
        if round == state.rounds.len() {
            let unlabeled: Vec<usize> = (0..pool.len()).filter(|&i| unlabeled_mask[i]).collect();
            if unlabeled.is_empty() {
                break;
            }
            let probs = mgd::hotspot_probs(session.network(), &pool_tensors, Parallelism::serial());
            let picks = acquire_batch(
                &probs,
                &pool_flat,
                &unlabeled,
                active.batch,
                active.clusters,
                active.candidate_factor,
                round_seed(active.seed, round),
            )?;
            if picks.is_empty() {
                break;
            }
            let mut labels = Vec::with_capacity(picks.len());
            let mut tensors = Vec::with_capacity(picks.len());
            for &idx in &picks {
                let clip = match pool.get(idx) {
                    Some(clip) => clip,
                    None => unreachable!("acquire_batch only picks validated candidates"),
                };
                labels.push(labeler.label(clip));
                unlabeled_mask[idx] = false;
                tensors.push(pool_tensors[idx].clone());
            }
            state.rounds.push(ActiveRoundState {
                selected: picks.iter().map(|&i| i as u64).collect(),
                labels: labels.clone(),
            });
            state.labeler_calls += picks.len() as u64;
            // Persist immediately: the oracle has been paid, so a crash
            // from here on must never re-label this batch.
            let (net, completed) = session.snapshot();
            let ckpt = Checkpoint::new(
                identity.seed,
                identity.threads,
                identity.tag.clone(),
                net,
                completed,
                None,
            )
            .with_active(state.clone());
            persist(&ckpt)?;
            session.append(tensors, &labels)?;
        }
        // Fine-tune on the grown set (consuming a pending mid-round
        // trainer state on resume).
        let cfg = MgdConfig {
            seed: round_seed(active.fine_tune.seed, round),
            ..active.fine_tune.clone()
        };
        let mut hook = make_hook(identity, &state, persist);
        session.fine_tune(active.epsilon, &cfg, checkpoint_every, &mut hook)?;
    }

    // --- Assemble the report. ---------------------------------------------
    let labeler_calls = state.labeler_calls as usize;
    let completed = session.completed();
    let rounds: Vec<ActiveRoundReport> = state
        .rounds
        .iter()
        .zip(completed[schedule_rounds..].iter())
        .map(|(s, train)| ActiveRoundReport {
            selected: s.selected.iter().map(|&i| i as usize).collect(),
            labels: s.labels.clone(),
            hotspots_found: s.labels.iter().filter(|&&l| l).count(),
            train: train.clone(),
        })
        .collect();
    let report = ActiveReport {
        rounds,
        labeler_calls,
        labeler_cost_s: labeler_calls as f64 * SIM_TIME_PER_CLIP_S,
        pool_size: pool.len(),
        trajectory: session.report(),
    };
    let detector = HotspotDetector::from_session(
        pipeline,
        session.into_network(),
        report.trajectory.clone(),
        config.parallelism,
    );
    Ok((detector, report))
}

/// Builds a checkpoint-persisting hook that attaches the current active
/// state to every snapshot.
fn make_hook<'a>(
    identity: &'a RunIdentity,
    state: &'a ActiveState,
    persist: &'a mut dyn FnMut(&Checkpoint) -> Result<(), CoreError>,
) -> impl FnMut(CheckpointEvent<'_>, &mut Network) -> Result<(), CoreError> + 'a {
    move |event, net| {
        let ckpt = match event {
            CheckpointEvent::Step {
                completed,
                state: trainer,
            } => Checkpoint::new(
                identity.seed,
                identity.threads,
                identity.tag.clone(),
                net,
                completed,
                Some(trainer),
            ),
            CheckpointEvent::RoundEnd { completed } => Checkpoint::new(
                identity.seed,
                identity.threads,
                identity.tag.clone(),
                net,
                completed,
                None,
            ),
        }
        .with_active(state.clone());
        persist(&ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: &[f32]) -> Vec<Vec<f32>> {
        v.iter().map(|&x| vec![x, x * 2.0]).collect()
    }

    #[test]
    fn acquisition_prefers_uncertain_clips() {
        // Indices 2 and 5 sit closest to the decision boundary.
        let probs = vec![0.95, 0.05, 0.52, 0.9, 0.1, 0.49, 0.85, 0.15];
        let features = flat(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let unlabeled: Vec<usize> = (0..8).collect();
        let picks = acquire_batch(&probs, &features, &unlabeled, 2, 0, 1, 7).unwrap();
        assert_eq!(picks.len(), 2);
        assert!(picks.contains(&2));
        assert!(picks.contains(&5));
    }

    #[test]
    fn acquisition_is_deterministic_and_disjoint() {
        let probs: Vec<f32> = (0..40).map(|i| 0.3 + 0.01 * i as f32).collect();
        let features: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 5) as f32, (i / 5) as f32])
            .collect();
        let unlabeled: Vec<usize> = (0..40).collect();
        let a = acquire_batch(&probs, &features, &unlabeled, 6, 3, 4, 11).unwrap();
        let b = acquire_batch(&probs, &features, &unlabeled, 6, 3, 4, 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no duplicates within a batch");
        // Remove the first batch; the next batch is disjoint from it.
        let remaining: Vec<usize> = unlabeled
            .iter()
            .copied()
            .filter(|i| !a.contains(i))
            .collect();
        let next = acquire_batch(&probs, &features, &remaining, 6, 3, 4, 12).unwrap();
        assert!(next.iter().all(|i| !a.contains(i)));
    }

    #[test]
    fn acquisition_handles_small_pools() {
        let probs = vec![0.4, 0.6, 0.5];
        let features = flat(&[0.0, 1.0, 2.0]);
        // Batch larger than the pool: everything is selected once.
        let picks = acquire_batch(&probs, &features, &[0, 1, 2], 10, 0, 4, 1).unwrap();
        assert_eq!(picks.len(), 3);
        // Empty candidate set: an empty batch, not an error.
        assert!(acquire_batch(&probs, &features, &[], 4, 0, 4, 1)
            .unwrap()
            .is_empty());
        // Zero batch rejected.
        assert!(acquire_batch(&probs, &features, &[0], 0, 0, 4, 1).is_err());
        // Out-of-range candidate rejected.
        assert!(acquire_batch(&probs, &features, &[9], 2, 0, 4, 1).is_err());
    }

    #[test]
    fn diversity_spreads_across_clusters() {
        // Two tight feature clusters; uncertainty alone would spend the
        // whole batch on cluster A (closest to 0.5). Diversity must pull
        // in cluster B.
        let mut probs = Vec::new();
        let mut features = Vec::new();
        for i in 0..10 {
            probs.push(0.5 + 0.001 * i as f32);
            features.push(vec![0.01 * i as f32, 0.0]);
        }
        for i in 0..10 {
            probs.push(0.6 + 0.001 * i as f32);
            features.push(vec![100.0 + 0.01 * i as f32, 100.0]);
        }
        let unlabeled: Vec<usize> = (0..20).collect();
        let picks = acquire_batch(&probs, &features, &unlabeled, 4, 2, 5, 3).unwrap();
        assert_eq!(picks.len(), 4);
        let from_b = picks.iter().filter(|&&i| i >= 10).count();
        assert!(
            from_b >= 1,
            "diversity clustering must reach the far cluster: {picks:?}"
        );
    }

    #[test]
    fn round_seed_varies_by_round() {
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_eq!(round_seed(1, 3), round_seed(1, 3));
    }
}
