//! Cascade prefilter: a cheap density/AdaBoost stage in front of the CNN.
//!
//! A full-chip scan scores every stride position, but real layouts are
//! overwhelmingly non-hotspot — most windows are nowhere near a printable
//! failure, and spending a CNN forward pass on each is wasted work. The
//! classic fix (Viola–Jones, and the SPIE'15 detector this repo already
//! reimplements as a baseline) is a *cascade*: a fast first stage clears
//! the easy negatives and only survivors reach the expensive model.
//!
//! This module builds that first stage from parts the workspace already
//! has: [`hotspot_features::density_feature`] vectors computed straight
//! from the window's raster (no DCT), scored by a
//! [`hotspot_baselines::AdaBoost`] ensemble whose signed margin is
//! thresholded at an operating point calibrated on held-out training data
//! to a configurable **target false-negative rate** (default 0: the
//! threshold is pushed just below the weakest held-out hotspot margin).
//! The calibrated pair travels as a
//! [`hotspot_baselines::CalibratedAdaBoost`] and serialises bit-exactly,
//! so a reloaded prefilter forwards exactly the same windows.
//!
//! The scan integration lives in [`crate::scan`]
//! ([`crate::ScanConfig::with_cascade`]): windows the prefilter clears
//! record their margin and skip the CNN entirely; survivors are scored by
//! the CNN with **bit-identical** results to the non-cascade scan.

use crate::roc::RocPoint;
use crate::CoreError;
use hotspot_baselines::{AdaBoost, AdaBoostConfig, CalibratedAdaBoost, Classifier};
use hotspot_datagen::Dataset;
use hotspot_features::density_feature;
use hotspot_geometry::raster;

/// How to train and calibrate a cascade prefilter.
///
/// # Examples
///
/// ```
/// use hotspot_core::cascade::CascadeConfig;
///
/// let config = CascadeConfig::default();
/// assert_eq!(config.grid_dim, 12);
/// assert_eq!(config.target_fnr, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Density grid dimension: each window is summarised as `grid_dim²`
    /// block-mean densities. The scan window (in pixels) must be divisible
    /// by it.
    pub grid_dim: usize,
    /// AdaBoost boosting rounds.
    pub rounds: usize,
    /// Largest fraction of held-out hotspots the calibrated threshold may
    /// clear (miss). 0 pins the threshold below the weakest held-out
    /// hotspot margin.
    pub target_fnr: f64,
    /// Fraction of the training set (per class, deterministic) held out
    /// for threshold calibration instead of ensemble training.
    pub holdout_fraction: f64,
}

impl Default for CascadeConfig {
    /// 12×12 density grid (mirroring the paper's block grid), 64 boosting
    /// rounds, zero-miss calibration on a 25 % holdout.
    fn default() -> Self {
        CascadeConfig {
            grid_dim: 12,
            rounds: 64,
            target_fnr: 0.0,
            holdout_fraction: 0.25,
        }
    }
}

impl CascadeConfig {
    fn validate(&self) -> Result<(), CoreError> {
        if self.grid_dim == 0 {
            return Err(CoreError::InvalidConfig(
                "cascade density grid must be nonzero",
            ));
        }
        if self.rounds == 0 {
            return Err(CoreError::InvalidConfig(
                "cascade boosting rounds must be nonzero",
            ));
        }
        if !(0.0..1.0).contains(&self.target_fnr) {
            return Err(CoreError::InvalidConfig(
                "cascade target FNR must be in [0, 1)",
            ));
        }
        if !(0.0..=0.5).contains(&self.holdout_fraction) || self.holdout_fraction == 0.0 {
            return Err(CoreError::InvalidConfig(
                "cascade holdout fraction must be in (0, 0.5]",
            ));
        }
        Ok(())
    }
}

/// The trained first cascade stage: a calibrated AdaBoost margin test over
/// per-window density features plus one aggregate mean-density feature.
///
/// The aggregate feature matters: depth-1 stumps over per-cell densities
/// cannot express "this window is (nearly) empty" — the conjunction over
/// all cells — but a single stump on the window mean separates quiet
/// layout area from any real pattern, which is most of what a full-chip
/// prefilter clears.
///
/// Construct by training ([`CascadePrefilter::train`], or
/// [`crate::detector::HotspotDetector::train_prefilter`]) or by reloading
/// serialised bytes ([`CascadePrefilter::from_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CascadePrefilter {
    calibrated: CalibratedAdaBoost,
    grid_dim: usize,
}

impl CascadePrefilter {
    /// Wraps a calibrated model whose feature length must be
    /// `grid_dim² + 1` (per-cell densities plus the mean-density
    /// aggregate appended by [`prefilter_features`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Prefilter`] on a zero grid or a feature-length
    /// disagreement.
    pub fn new(calibrated: CalibratedAdaBoost, grid_dim: usize) -> Result<Self, CoreError> {
        if grid_dim == 0 {
            return Err(CoreError::Prefilter(
                "prefilter density grid must be nonzero".into(),
            ));
        }
        let expected = grid_dim * grid_dim + 1;
        let actual = calibrated.model().feature_len();
        if actual != expected {
            return Err(CoreError::Prefilter(format!(
                "prefilter model scores {actual} features but a {grid_dim}x{grid_dim} \
                 density grid produces {expected} (cells + mean)"
            )));
        }
        Ok(CascadePrefilter {
            calibrated,
            grid_dim,
        })
    }

    /// Trains and calibrates a prefilter on a labelled clip dataset.
    ///
    /// Every clip is rasterised at `resolution_nm` and summarised as a
    /// `grid_dim²` density vector. A deterministic per-class split
    /// ([`holdout_mask`]) reserves `holdout_fraction` of each class for
    /// calibration; the AdaBoost ensemble trains on the remainder (plus a
    /// 25 % augmentation of all-blank negatives, so the mostly-empty
    /// windows of a real layout scan clear decisively), its
    /// signed margin is swept over the holdout ([`margin_sweep`]), and the
    /// decision threshold is set to the largest value whose held-out
    /// false-negative count stays within `target_fnr` ([`pick_threshold`]).
    ///
    /// # Errors
    ///
    /// Rejects invalid configs ([`CoreError::InvalidConfig`]); surfaces
    /// rasters indivisible by the density grid and degenerate splits
    /// (either part missing a class) as [`CoreError::Prefilter`].
    pub fn train(
        train: &Dataset,
        resolution_nm: u32,
        config: &CascadeConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let (features, labels) = density_vectors(train, resolution_nm, config.grid_dim)?;
        let holdout = holdout_mask(&labels, config.holdout_fraction);
        let mut fit_features = Vec::new();
        let mut fit_labels = Vec::new();
        let mut cal_features = Vec::new();
        let mut cal_labels = Vec::new();
        for ((feature, &label), &held) in features.into_iter().zip(&labels).zip(&holdout) {
            if held {
                cal_features.push(feature);
                cal_labels.push(label);
            } else {
                fit_features.push(feature);
                fit_labels.push(label);
            }
        }
        if !cal_labels.iter().any(|&l| l) {
            return Err(CoreError::Prefilter(
                "calibration holdout contains no hotspots".into(),
            ));
        }
        // Scan layouts are mostly quiet area, but every training clip
        // carries geometry — an ensemble fit on clips alone has no reason
        // to score an all-blank window low (sparse hotspot patterns pull
        // low-density vectors towards the hotspot side). Augment the fit
        // portion with blank negatives so empty windows land firmly on
        // the cleared side of any calibrated threshold.
        let blanks = (fit_features.len() / 4).max(8);
        let blank = vec![0.0f32; config.grid_dim * config.grid_dim + 1];
        fit_features.extend(std::iter::repeat_n(blank, blanks));
        fit_labels.extend(std::iter::repeat_n(false, blanks));
        let model = AdaBoost::fit(
            &fit_features,
            &fit_labels,
            &AdaBoostConfig {
                rounds: config.rounds,
                ..AdaBoostConfig::default()
            },
        )?;
        let mut margins = Vec::with_capacity(cal_features.len());
        for feature in &cal_features {
            margins.push(model.try_score(feature)?);
        }
        let sweep = margin_sweep(&margins, &cal_labels);
        let (threshold, achieved_fnr) = pick_threshold(&sweep, config.target_fnr);
        CascadePrefilter::new(
            CalibratedAdaBoost::new(model, threshold, config.target_fnr, achieved_fnr),
            config.grid_dim,
        )
    }

    /// Density blocks per axis.
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Length of the vectors this prefilter scores (`grid_dim²` cell
    /// densities plus the mean-density aggregate).
    #[inline]
    pub fn feature_len(&self) -> usize {
        self.grid_dim * self.grid_dim + 1
    }

    /// The calibrated model (ensemble + operating point + provenance).
    pub fn calibrated(&self) -> &CalibratedAdaBoost {
        &self.calibrated
    }

    /// The calibrated margin threshold: a window is forwarded to the CNN
    /// when its margin is strictly greater.
    #[inline]
    pub fn margin_threshold(&self) -> f32 {
        self.calibrated.threshold()
    }

    /// Overrides the operating point (e.g. `f32::NEG_INFINITY` forces an
    /// all-pass prefilter that forwards every window).
    #[must_use]
    pub fn with_margin_threshold(mut self, threshold: f32) -> Self {
        self.calibrated = self.calibrated.with_threshold(threshold);
        self
    }

    /// Signed ensemble margin of a density vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Prefilter`] for a wrong-length vector.
    pub fn try_margin(&self, features: &[f32]) -> Result<f32, CoreError> {
        Ok(self.calibrated.try_margin(features)?)
    }

    /// Whether a margin clears the calibrated threshold (the window is
    /// forwarded to the CNN stage).
    #[inline]
    pub fn passes(&self, margin: f32) -> bool {
        self.calibrated.flags(margin)
    }

    /// CRC-32 (IEEE) of the serialised prefilter — its identity for
    /// provenance tracking ([`crate::api::ModelProvenance::cascade_crc`]).
    pub fn crc(&self) -> u32 {
        hotspot_nn::serialize::crc32(&self.to_bytes())
    }

    /// Serialises the prefilter: a two-line `hsprefilter` header followed
    /// by the calibrated model's own (checksummed, bit-exact) encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("hsprefilter 1\ngrid {}\n", self.grid_dim).into_bytes();
        out.extend_from_slice(&self.calibrated.to_bytes());
        out
    }

    /// Parses bytes produced by [`CascadePrefilter::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Prefilter`] on a malformed header, a corrupt
    /// or truncated model payload, or a grid/feature-length disagreement.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        let bad = |why: &str| CoreError::Prefilter(format!("prefilter file: {why}"));
        let header_end = data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .ok_or_else(|| bad("missing header"))?;
        let header =
            std::str::from_utf8(&data[..header_end]).map_err(|_| bad("header is not UTF-8"))?;
        let mut lines = header.lines();
        match lines
            .next()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
        {
            Some(parts) if parts.first() == Some(&"hsprefilter") => {
                if parts.get(1) != Some(&"1") {
                    return Err(bad("unsupported version"));
                }
            }
            _ => return Err(bad("missing hsprefilter magic")),
        }
        let grid_dim: usize = match lines
            .next()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
        {
            Some(parts) if parts.len() == 2 && parts[0] == "grid" => parts[1]
                .parse()
                .map_err(|_| bad("grid value is not a number"))?,
            _ => return Err(bad("missing grid line")),
        };
        let calibrated = CalibratedAdaBoost::from_bytes(&data[header_end..])?;
        CascadePrefilter::new(calibrated, grid_dim)
    }
}

/// Rasterises every clip and extracts its `grid_dim²` density vector,
/// paired with labels in dataset order.
///
/// Uses exactly the raster the feature pipeline sees
/// ([`raster::rasterize_clip`] of the normalised clip), so a scan that
/// crops the same window out of a layout raster reproduces these vectors
/// bit-for-bit.
pub(crate) fn density_vectors(
    data: &Dataset,
    resolution_nm: u32,
    grid_dim: usize,
) -> Result<(Vec<Vec<f32>>, Vec<bool>), CoreError> {
    let mut features = Vec::with_capacity(data.len());
    let mut labels = Vec::with_capacity(data.len());
    for sample in data.iter() {
        let image = raster::rasterize_clip(&sample.clip.normalized(), resolution_nm);
        features.push(prefilter_features(density_feature(&image, grid_dim)?));
        labels.push(sample.hotspot);
    }
    Ok((features, labels))
}

/// Appends the mean cell density to a [`density_feature`] vector — the
/// feature layout [`CascadePrefilter`] scores. Deterministic left-to-right
/// summation, so training-time vectors and scan-time vectors built from
/// bit-identical density cells agree bit-for-bit.
pub fn prefilter_features(mut density: Vec<f32>) -> Vec<f32> {
    let mut total = 0.0f32;
    for &d in &density {
        total += d;
    }
    let mean = if density.is_empty() {
        0.0
    } else {
        total / density.len() as f32
    };
    density.push(mean);
    density
}

/// Deterministic stratified holdout assignment: within each class (in
/// input order), every `period`-th sample starting from the first is held
/// out, where `period ≈ 1 / holdout_fraction`. No RNG — the same labels
/// always produce the same split, so a calibration can be recomputed
/// exactly from the dataset alone.
pub fn holdout_mask(labels: &[bool], holdout_fraction: f64) -> Vec<bool> {
    let period = ((1.0 / holdout_fraction).round() as usize).max(2);
    let mut seen = [0usize; 2];
    labels
        .iter()
        .map(|&l| {
            let class = usize::from(l);
            let position = seen[class];
            seen[class] += 1;
            position.is_multiple_of(period)
        })
        .collect()
}

/// Sweeps the signed-margin threshold over every distinct margin value
/// (plus an all-pass `-∞` anchor), reporting one [`RocPoint`] per
/// candidate, sorted by descending threshold (ascending recall) like
/// [`crate::roc::sweep`]. A sample is flagged (forwarded) when its margin
/// is strictly greater than the threshold.
pub fn margin_sweep(margins: &[f32], labels: &[bool]) -> Vec<RocPoint> {
    let hotspot_total = labels.iter().filter(|&&l| l).count().max(1);
    let mut candidates: Vec<f32> = margins.to_vec();
    candidates.push(f32::NEG_INFINITY);
    candidates.sort_by(f32::total_cmp);
    candidates.dedup_by(|a, b| a.to_bits() == b.to_bits());
    candidates.reverse();
    let mut curve = Vec::with_capacity(candidates.len());
    for threshold in candidates {
        let mut hits = 0usize;
        let mut fas = 0usize;
        for (&m, &l) in margins.iter().zip(labels.iter()) {
            if m > threshold {
                if l {
                    hits += 1;
                } else {
                    fas += 1;
                }
            }
        }
        curve.push(RocPoint {
            threshold,
            recall: hits as f64 / hotspot_total as f64,
            false_alarms: fas,
        });
    }
    curve
}

/// Picks the operating point from a [`margin_sweep`] curve: the **largest**
/// threshold (clearing the most windows) whose false-negative rate stays
/// within `target_fnr`, and the FNR it actually achieves there. The `-∞`
/// anchor (recall 1, FNR 0) guarantees a feasible point exists.
pub fn pick_threshold(sweep: &[RocPoint], target_fnr: f64) -> (f32, f64) {
    let mut best: Option<(f32, f64)> = None;
    for point in sweep {
        let fnr = 1.0 - point.recall;
        if fnr <= target_fnr && best.is_none_or(|(t, _)| point.threshold > t) {
            best = Some((point.threshold, fnr));
        }
    }
    best.unwrap_or((f32::NEG_INFINITY, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_datagen::suite::SuiteSpec;
    use hotspot_litho::{LithoConfig, LithoSimulator};

    fn training_data() -> Dataset {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        SuiteSpec {
            name: "cascade-unit".into(),
            train_hs: 24,
            train_nhs: 40,
            test_hs: 0,
            test_nhs: 0,
            mix: vec![
                (hotspot_datagen::PatternKind::LineArray, 1.0),
                (hotspot_datagen::PatternKind::LineTips, 1.0),
            ],
            seed: 41,
            version: hotspot_datagen::suite::SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
        .build(&sim)
        .train
    }

    #[test]
    fn config_validates() {
        assert!(CascadeConfig::default().validate().is_ok());
        for bad in [
            CascadeConfig {
                grid_dim: 0,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                rounds: 0,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                target_fnr: 1.0,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                target_fnr: -0.1,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                holdout_fraction: 0.0,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                holdout_fraction: 0.75,
                ..CascadeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn holdout_mask_is_stratified_and_deterministic() {
        let labels = [true, false, false, true, false, false, false, true, false];
        let mask = holdout_mask(&labels, 0.25);
        assert_eq!(mask, holdout_mask(&labels, 0.25));
        // First sample of each class is held out; every 4th thereafter.
        assert!(mask[0], "first hotspot held out");
        assert!(mask[1], "first non-hotspot held out");
        assert!(!mask[2] && !mask[3] && !mask[4] && !mask[5]);
        let held_hot = labels.iter().zip(&mask).filter(|(&l, &h)| l && h).count();
        assert_eq!(held_hot, 1);
    }

    #[test]
    fn margin_sweep_is_monotone_with_all_pass_anchor() {
        let margins = [-2.0f32, -1.0, -0.5, 0.5, 1.0, 2.0];
        let labels = [false, false, false, true, true, true];
        let curve = margin_sweep(&margins, &labels);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
            assert!(w[1].false_alarms >= w[0].false_alarms);
            assert!(w[1].threshold <= w[0].threshold);
        }
        let last = curve.last().unwrap();
        assert_eq!(last.threshold, f32::NEG_INFINITY);
        assert_eq!(last.recall, 1.0);
        assert_eq!(last.false_alarms, 3);
    }

    #[test]
    fn pick_threshold_maximises_clearing_within_budget() {
        let margins = [-2.0f32, -1.0, -0.5, 0.5, 1.0, 2.0];
        let labels = [false, false, false, true, true, true];
        let curve = margin_sweep(&margins, &labels);
        // Zero budget: threshold just below the weakest hotspot margin —
        // the largest candidate that still flags all three hotspots.
        let (t, fnr) = pick_threshold(&curve, 0.0);
        assert_eq!(t, -0.5);
        assert_eq!(fnr, 0.0);
        // A 1/3 budget may clear the weakest hotspot.
        let (t, fnr) = pick_threshold(&curve, 0.34);
        assert_eq!(t, 0.5);
        assert!((fnr - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn trained_prefilter_meets_target_on_holdout() {
        let data = training_data();
        let config = CascadeConfig::default();
        let prefilter = CascadePrefilter::train(&data, 10, &config).unwrap();
        assert_eq!(prefilter.grid_dim(), 12);
        assert_eq!(prefilter.calibrated().target_fnr(), 0.0);
        // Recompute the holdout through the exposed deterministic split
        // and verify the calibrated threshold misses none of its hotspots
        // (target_fnr = 0) — the pinned calibration contract.
        let (features, labels) = density_vectors(&data, 10, config.grid_dim).unwrap();
        let mask = holdout_mask(&labels, config.holdout_fraction);
        let mut held_hotspots = 0usize;
        for ((feature, &label), &held) in features.iter().zip(&labels).zip(&mask) {
            if held && label {
                held_hotspots += 1;
                let margin = prefilter.try_margin(feature).unwrap();
                assert!(
                    prefilter.passes(margin),
                    "held-out hotspot cleared at margin {margin} (threshold {})",
                    prefilter.margin_threshold()
                );
            }
        }
        assert!(held_hotspots > 0, "split must hold out hotspots");
        assert_eq!(prefilter.calibrated().achieved_fnr(), 0.0);
    }

    #[test]
    fn prefilter_serialisation_roundtrips() {
        let prefilter =
            CascadePrefilter::train(&training_data(), 10, &CascadeConfig::default()).unwrap();
        let bytes = prefilter.to_bytes();
        let back = CascadePrefilter::from_bytes(&bytes).unwrap();
        assert_eq!(back, prefilter);
        assert_eq!(
            back.margin_threshold().to_bits(),
            prefilter.margin_threshold().to_bits()
        );
        // Corruption in the model payload is caught by its checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 20;
        bad[last] ^= 0x01;
        assert!(CascadePrefilter::from_bytes(&bad).is_err());
        // A header grid disagreeing with the model's feature length is
        // rejected even with an intact payload.
        let mut wrong_grid = b"hsprefilter 1\ngrid 7\n".to_vec();
        wrong_grid.extend_from_slice(&prefilter.calibrated().to_bytes());
        assert!(CascadePrefilter::from_bytes(&wrong_grid).is_err());
        assert!(CascadePrefilter::from_bytes(b"hsmodel 2\n").is_err());
    }

    #[test]
    fn forced_thresholds_override_operating_point() {
        let prefilter =
            CascadePrefilter::train(&training_data(), 10, &CascadeConfig::default()).unwrap();
        let all_pass = prefilter.clone().with_margin_threshold(f32::NEG_INFINITY);
        let none_pass = prefilter.with_margin_threshold(f32::INFINITY);
        assert!(all_pass.passes(-1.0e30));
        assert!(!none_pass.passes(1.0e30));
    }

    #[test]
    fn indivisible_raster_is_a_precise_error() {
        let data = training_data();
        // 1200 nm clips at 10 nm/px = 120 px; a 7-grid does not divide it.
        let config = CascadeConfig {
            grid_dim: 7,
            ..CascadeConfig::default()
        };
        match CascadePrefilter::train(&data, 10, &config) {
            Err(CoreError::Prefilter(why)) => {
                assert!(why.contains("7x7"), "{why}");
            }
            other => panic!("expected Prefilter error, got {other:?}"),
        }
    }
}
