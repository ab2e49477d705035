//! Threshold-sweep (ROC-style) analysis of a trained network.
//!
//! The paper's Figure 4 compares operating points; this module exposes the
//! full trade-off curve so any operating point can be read off without
//! re-scoring the test set ([`sweep`], for plotting), and the exact,
//! threshold-free area under it ([`auc`]).

use crate::mgd::hotspot_probs;
use hotspot_nn::{Network, Parallelism, Tensor};
use serde::{Deserialize, Serialize};

/// One operating point of the recall / false-alarm trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Decision threshold on the hotspot probability.
    pub threshold: f32,
    /// Hotspot recall (the contest "accuracy") at this threshold.
    pub recall: f64,
    /// False alarms at this threshold.
    pub false_alarms: usize,
}

/// Scores a labelled feature set once and sweeps `steps + 1` equally-spaced
/// thresholds over `[0, 1]`, returning the trade-off curve sorted by
/// descending threshold (ascending recall).
///
/// # Panics
///
/// Panics if `features` and `labels` differ in length or `steps == 0`.
pub fn sweep(net: &Network, features: &[Tensor], labels: &[bool], steps: usize) -> Vec<RocPoint> {
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    assert!(steps > 0, "steps must be nonzero");
    let probs = hotspot_probs(net, features, Parallelism::serial());
    let hotspot_total = labels.iter().filter(|&&l| l).count().max(1);
    let mut curve = Vec::with_capacity(steps + 1);
    for s in (0..=steps).rev() {
        let threshold = s as f32 / steps as f32;
        let mut hits = 0usize;
        let mut fas = 0usize;
        for (&p, &l) in probs.iter().zip(labels.iter()) {
            if p > threshold {
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

/// Area under the ROC curve (recall against false-alarm rate), computed
/// exactly as the Mann–Whitney rank statistic: the probability that a
/// random hotspot scores above a random non-hotspot, with ties counted as
/// ½. There is no threshold grid to quantise the curve, and samples whose
/// probability saturates to exactly `0.0` or `1.0` simply tie.
///
/// Returns 0.5 (no information) when either class is absent.
///
/// # Panics
///
/// Panics if `features` and `labels` differ in length.
pub fn auc(net: &Network, features: &[Tensor], labels: &[bool]) -> f64 {
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    let hotspots = labels.iter().filter(|&&l| l).count();
    let non_hotspots = labels.len() - hotspots;
    if hotspots == 0 || non_hotspots == 0 {
        return 0.5;
    }
    let mut scored: Vec<(f32, bool)> = hotspot_probs(net, features, Parallelism::serial())
        .into_iter()
        .zip(labels.iter().copied())
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Sum of the hotspots' 1-based ranks; a run of tied scores shares its
    // mean rank, which is what counts each tied pair as ½.
    let mut rank_sum = 0.0f64;
    let mut start = 0;
    while start < scored.len() {
        let end = start
            + scored[start..]
                .iter()
                .take_while(|s| s.0 == scored[start].0)
                .count()
                .max(1); // a NaN score never equals itself
        let mean_rank = (start + 1 + end) as f64 / 2.0;
        let tied_hotspots = scored[start..end].iter().filter(|s| s.1).count();
        rank_sum += mean_rank * tied_hotspots as f64;
        start = end;
    }
    let (h, n) = (hotspots as f64, non_hotspots as f64);
    (rank_sum - h * (h + 1.0) / 2.0) / (h * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::{Dense, Layer};

    /// Network scoring hotspot logit = 4x over a single input feature.
    fn scoring_net(weight: f32) -> Network {
        let mut net = Network::new();
        let mut d = Dense::new(1, 2, 0);
        let mut call = 0;
        d.visit_params(&mut |w, _| {
            if call == 0 {
                w.copy_from_slice(&[0.0, weight]);
            } else {
                w.copy_from_slice(&[0.0, 0.0]);
            }
            call += 1;
        });
        net.push(d);
        net
    }

    fn data() -> (Vec<Tensor>, Vec<bool>) {
        let xs = [-2.0f32, -1.0, -0.5, 0.5, 1.0, 2.0];
        let labels = vec![false, false, false, true, true, true];
        (
            xs.iter()
                .map(|&x| Tensor::from_vec(vec![1], vec![x]))
                .collect(),
            labels,
        )
    }

    #[test]
    fn curve_is_monotone_in_recall_and_fa() {
        let (x, y) = data();
        let net = scoring_net(4.0);
        let curve = sweep(&net, &x, &y, 50);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
            assert!(w[1].false_alarms >= w[0].false_alarms);
            assert!(w[1].threshold <= w[0].threshold);
        }
        // Extremes: threshold 1 flags nothing; threshold 0 flags all.
        assert_eq!(curve.first().unwrap().recall, 0.0);
        assert_eq!(curve.last().unwrap().recall, 1.0);
        assert_eq!(curve.last().unwrap().false_alarms, 3);
    }

    #[test]
    fn perfect_separator_has_unit_auc() {
        let (x, y) = data();
        assert_eq!(auc(&scoring_net(8.0), &x, &y), 1.0);
    }

    #[test]
    fn inverted_scorer_has_zero_auc() {
        let (x, y) = data();
        assert_eq!(auc(&scoring_net(-8.0), &x, &y), 0.0);
    }

    #[test]
    fn saturated_probabilities_keep_unit_auc() {
        // A large logit gap saturates the f32 softmax: hotspots score
        // exactly 1.0 and non-hotspots exactly 0.0. The ties are all
        // within a class, so this perfect separator keeps AUC 1 (a
        // strict `p > t` threshold sweep never flags the 0.0 scores and
        // once scored it 0).
        let (x, y) = data();
        assert_eq!(auc(&scoring_net(300.0), &x, &y), 1.0);
    }

    #[test]
    fn tied_scores_count_half() {
        // Scores rise with the input; the two 0.5 inputs tie across the
        // classes. Hotspot/non-hotspot pairs: (0.5, -1) and (1, -1) and
        // (1, 0.5) are ordered, (0.5, 0.5) ties: (3 + ½) / 4.
        let xs: Vec<Tensor> = [-1.0f32, 0.5, 0.5, 1.0]
            .iter()
            .map(|&x| Tensor::from_vec(vec![1], vec![x]))
            .collect();
        let labels = [false, true, false, true];
        assert_eq!(auc(&scoring_net(4.0), &xs, &labels), 0.875);
    }

    #[test]
    fn single_class_auc_is_uninformative() {
        let (x, _) = data();
        assert_eq!(auc(&scoring_net(4.0), &x, &[true; 6]), 0.5);
        assert_eq!(auc(&scoring_net(4.0), &x, &[false; 6]), 0.5);
    }

    #[test]
    #[should_panic(expected = "steps must be nonzero")]
    fn zero_steps_panics() {
        let (x, y) = data();
        let net = scoring_net(1.0);
        let _ = sweep(&net, &x, &y, 0);
    }
}
