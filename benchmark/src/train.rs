//! The layer-by-layer replay of training steps.

use crate::setup::Rng;
use crate::trace::Trace;
use hotspot_core::mgd;
use hotspot_nn::engine::Executor;
use hotspot_nn::loss;
use hotspot_nn::Tensor;

/// Layer timings of replayed training steps, per 32-sample step.
pub struct StepTimes {
    pub forward_ms: Vec<f64>,
    pub backward_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub accounted: Vec<f64>,
}

/// Replays `steps` MGD steps (balanced batches at ε = 0) through the
/// executor the trainer uses, each layer call under a span caused by its
/// step.
pub fn replay_steps(
    cnn: &hotspot_core::CnnConfig,
    features: &[Tensor],
    labels: &[bool],
    batch: usize,
    steps: usize,
    seed: u64,
    trace: &mut Trace,
) -> StepTimes {
    let mut net = cnn.build();
    let hs: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let nhs: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    let mut rng = Rng::new(seed);
    let mut executor = Executor::new();
    let mut grad = Vec::new();
    let mut out = StepTimes {
        forward_ms: Vec::new(),
        backward_ms: Vec::new(),
        update_ms: Vec::new(),
        accounted: Vec::new(),
    };
    for _ in 0..steps {
        let step = trace.open("train.step", None);
        net.zero_grads();
        for j in 0..batch {
            let pool = if j % 2 == 0 { &hs } else { &nhs };
            let i = pool[rng.below(pool.len())];
            let f = trace.open("nn.forward_train", Some(step));
            let logits = executor.forward_train(&mut net, &features[i]);
            grad.resize(logits.len(), 0.0);
            let _ = loss::softmax_cross_entropy_into(
                logits,
                &mgd::target_for(labels[i], 0.0),
                &mut grad,
            );
            trace.close(f);
            trace.time("nn.backward", Some(step), || {
                executor.backward(&mut net, &grad).len()
            });
        }
        trace.time("nn.update", Some(step), || {
            net.apply_gradients(1e-3 / batch as f32)
        });
        trace.close(step);
        out.forward_ms
            .push(trace.child_total_ms(step, "nn.forward_train"));
        out.backward_ms
            .push(trace.child_total_ms(step, "nn.backward"));
        out.update_ms.push(trace.child_total_ms(step, "nn.update"));
        out.accounted.push(trace.accounted_frac(step));
    }
    out
}
