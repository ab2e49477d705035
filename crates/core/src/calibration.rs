//! Probability calibration analysis.
//!
//! Biased learning deliberately *decalibrates* the non-hotspot class —
//! Theorem 1's proof rests on making the model "less confident" about
//! non-hotspots. This module quantifies that effect: reliability bins and
//! expected calibration error (ECE) before and after biased fine-tuning
//! make the mechanism measurable rather than anecdotal.

use crate::mgd::hotspot_probs;
use hotspot_nn::{Network, Parallelism, Tensor};
use serde::{Deserialize, Serialize};

/// One bin of a reliability diagram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityBin {
    /// Bin lower edge (probabilities in `[lo, lo + width)`).
    pub lo: f32,
    /// Mean predicted hotspot probability of samples in the bin.
    pub mean_predicted: f64,
    /// Empirical hotspot fraction of samples in the bin.
    pub empirical: f64,
    /// Samples in the bin.
    pub count: usize,
}

/// Bins predictions into a reliability diagram with `bins` equal-width
/// probability bins. Empty bins are omitted.
///
/// # Panics
///
/// Panics if lengths differ or `bins == 0`.
pub fn reliability_diagram(
    net: &Network,
    features: &[Tensor],
    labels: &[bool],
    bins: usize,
) -> Vec<ReliabilityBin> {
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    assert!(bins > 0, "bins must be nonzero");
    let mut sums = vec![(0.0f64, 0usize, 0usize); bins]; // (Σp, hotspots, count)
    let probs = hotspot_probs(net, features, Parallelism::serial());
    for (p, &l) in probs.into_iter().zip(labels.iter()) {
        let b = ((p * bins as f32) as usize).min(bins - 1);
        sums[b].0 += p as f64;
        if l {
            sums[b].1 += 1;
        }
        sums[b].2 += 1;
    }
    sums.into_iter()
        .enumerate()
        .filter(|(_, (_, _, count))| *count > 0)
        .map(|(i, (sum_p, hs, count))| ReliabilityBin {
            lo: i as f32 / bins as f32,
            mean_predicted: sum_p / count as f64,
            empirical: hs as f64 / count as f64,
            count,
        })
        .collect()
}

/// Expected calibration error: the count-weighted mean absolute gap
/// between predicted probability and empirical frequency across bins.
/// 0 = perfectly calibrated.
///
/// # Panics
///
/// Same conditions as [`reliability_diagram`].
pub fn expected_calibration_error(
    net: &Network,
    features: &[Tensor],
    labels: &[bool],
    bins: usize,
) -> f64 {
    let diagram = reliability_diagram(net, features, labels, bins);
    let total: usize = diagram.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    diagram
        .iter()
        .map(|b| (b.mean_predicted - b.empirical).abs() * b.count as f64)
        .sum::<f64>()
        / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::{Dense, Layer};

    /// A network outputting hotspot logit = w·x for scalar input.
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

    fn feature(x: f32) -> Tensor {
        Tensor::from_vec(vec![1], vec![x])
    }

    #[test]
    fn bins_partition_all_samples() {
        let net = scoring_net(2.0);
        let xs: Vec<Tensor> = (-10..=10).map(|i| feature(i as f32 / 5.0)).collect();
        let ys: Vec<bool> = (-10..=10).map(|i| i > 0).collect();
        let diagram = reliability_diagram(&net, &xs, &ys, 10);
        let total: usize = diagram.iter().map(|b| b.count).sum();
        assert_eq!(total, xs.len());
        for b in &diagram {
            assert!(b.mean_predicted >= b.lo as f64 - 1e-9);
            assert!(b.mean_predicted <= b.lo as f64 + 0.1 + 1e-6);
            assert!((0.0..=1.0).contains(&b.empirical));
        }
    }

    #[test]
    fn perfectly_confident_correct_model_has_low_ece() {
        // Steep logit: predictions saturate at ~0/1 and match labels.
        let net = scoring_net(50.0);
        let xs: Vec<Tensor> = (-20..=20)
            .filter(|&i| i != 0)
            .map(|i| feature(i as f32))
            .collect();
        let ys: Vec<bool> = (-20..=20).filter(|&i| i != 0).map(|i| i > 0).collect();
        let ece = expected_calibration_error(&net, &xs, &ys, 10);
        assert!(ece < 0.02, "ece {ece}");
    }

    #[test]
    fn anti_correlated_model_has_high_ece() {
        // Confidently wrong: logit sign flipped.
        let net = scoring_net(-50.0);
        let xs: Vec<Tensor> = (-20..=20)
            .filter(|&i| i != 0)
            .map(|i| feature(i as f32))
            .collect();
        let ys: Vec<bool> = (-20..=20).filter(|&i| i != 0).map(|i| i > 0).collect();
        let ece = expected_calibration_error(&net, &xs, &ys, 10);
        assert!(ece > 0.9, "ece {ece}");
    }

    #[test]
    fn empty_input_is_zero_ece() {
        let net = scoring_net(1.0);
        assert_eq!(expected_calibration_error(&net, &[], &[], 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "bins must be nonzero")]
    fn zero_bins_rejected() {
        let net = scoring_net(1.0);
        let _ = reliability_diagram(&net, &[], &[], 0);
    }
}
