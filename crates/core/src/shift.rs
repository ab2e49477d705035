//! Decision-boundary shifting (paper Eq. (11)) — the naive alternative to
//! biased learning.

use crate::mgd::hotspot_probs;
use hotspot_nn::{Network, Parallelism, Tensor};

/// Predicts hotspots with a shifted decision boundary: `F ∈ H` iff
/// `y(1) > 0.5 - λ` (Eq. (11)). `λ = 0` is the standard rule; larger λ
/// trades false alarms for accuracy *without retraining* — the strategy
/// Figure 4 shows to be inferior to biased learning.
pub fn predict_with_shift(net: &Network, features: &[Tensor], lambda: f32) -> Vec<bool> {
    let threshold = 0.5 - lambda;
    hotspot_probs(net, features, Parallelism::serial())
        .into_iter()
        .map(|p| p > threshold)
        .collect()
}

/// Finds the smallest shift λ (over a grid of `steps` values in
/// `[0, 0.5)`) whose hotspot recall reaches `target_accuracy`, returning
/// `(λ, achieved accuracy, false alarms)`.
///
/// Used by the Figure-4 experiment to match the boundary-shifted baseline
/// to each biased model's accuracy before comparing false alarms. Returns
/// the largest-λ result even when the target is unreachable (recall is
/// monotone in λ, so that is the best achievable).
///
/// # Panics
///
/// Panics if `features` and `labels` differ in length or `steps == 0`.
pub fn shift_for_accuracy(
    net: &Network,
    features: &[Tensor],
    labels: &[bool],
    target_accuracy: f64,
    steps: usize,
) -> (f32, f64, usize) {
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    assert!(steps > 0, "steps must be nonzero");
    // Score once; sweep thresholds over the cached probabilities.
    let probs = hotspot_probs(net, features, Parallelism::serial());
    let hotspot_total = labels.iter().filter(|&&l| l).count().max(1);
    let mut last = (0.0f32, 0.0f64, 0usize);
    for s in 0..steps {
        let lambda = 0.5 * s as f32 / steps as f32;
        let threshold = 0.5 - lambda;
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
        let acc = hits as f64 / hotspot_total as f64;
        last = (lambda, acc, fas);
        if acc >= target_accuracy {
            return last;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::Dense;
    use hotspot_nn::Layer;

    /// A 1-feature "network" whose hotspot probability is sigmoid-ish in
    /// the input: logits = [0, w·x].
    fn scoring_net() -> Network {
        let mut net = Network::new();
        let mut d = Dense::new(1, 2, 0);
        let mut call = 0;
        d.visit_params(&mut |w, _| {
            if call == 0 {
                w.copy_from_slice(&[0.0, 4.0]); // logit_h = 4x
            } else {
                w.copy_from_slice(&[0.0, 0.0]);
            }
            call += 1;
        });
        net.push(d);
        net
    }

    fn data() -> (Vec<Tensor>, Vec<bool>) {
        // Hotspots at high x, with two "hard" hotspots at slightly negative
        // x that a 0.5 threshold misses.
        let xs = [-1.0f32, -0.6, -0.25, -0.1, 0.2, 0.5, 1.0];
        let labels = [false, false, true, true, true, true, true];
        (
            xs.iter()
                .map(|&x| Tensor::from_vec(vec![1], vec![x]))
                .collect(),
            labels.to_vec(),
        )
    }

    #[test]
    fn lambda_zero_is_standard_rule() {
        let (features, labels) = data();
        let net = scoring_net();
        let preds = predict_with_shift(&net, &features, 0.0);
        // p > 0.5 iff x > 0.
        assert_eq!(preds, vec![false, false, false, false, true, true, true]);
        let _ = labels;
    }

    #[test]
    fn larger_lambda_flags_more() {
        let (features, _) = data();
        let net = scoring_net();
        let count = |l: f32| {
            predict_with_shift(&net, &features, l)
                .iter()
                .filter(|&&p| p)
                .count()
        };
        assert!(count(0.0) <= count(0.2));
        assert!(count(0.2) <= count(0.45));
    }

    #[test]
    fn shift_search_reaches_target() {
        let (features, labels) = data();
        let net = scoring_net();
        let (lambda, acc, fas) = shift_for_accuracy(&net, &features, &labels, 1.0, 100);
        assert!(acc >= 1.0, "full recall reachable, got {acc}");
        assert!(lambda > 0.0);
        // Catching x = -0.25 (p = sigmoid(-1) ≈ 0.27) costs flagging
        // nothing else here: the nearest non-hotspot sits at x = -0.6.
        assert_eq!(fas, 0);
    }

    #[test]
    fn unreachable_target_returns_best() {
        // All-negative scores and a hotspot that can never cross: acc
        // capped below the target.
        let (features, labels) = data();
        let net = scoring_net();
        let (lambda, acc, _) = shift_for_accuracy(&net, &features, &labels, 2.0, 50);
        assert!(acc <= 1.0);
        assert!(lambda >= 0.49 - 1e-6);
    }

    #[test]
    fn false_alarms_grow_with_recall_target() {
        // A non-hotspot scoring *above* the hardest hotspot: reaching full
        // recall must flag it.
        let xs = [-1.0f32, -0.1, -0.2, 0.4, 1.0];
        let labels = vec![false, false, true, true, true];
        let features: Vec<Tensor> = xs
            .iter()
            .map(|&x| Tensor::from_vec(vec![1], vec![x]))
            .collect();
        let net = scoring_net();
        let (_, _, fa_low) = shift_for_accuracy(&net, &features, &labels, 0.66, 100);
        let (_, _, fa_high) = shift_for_accuracy(&net, &features, &labels, 1.0, 100);
        assert!(fa_high >= fa_low);
        assert!(fa_high >= 1, "full recall must flag the -0.1 non-hotspot");
    }
}
