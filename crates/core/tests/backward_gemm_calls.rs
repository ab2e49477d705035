//! The training backward skips the first layer's input gradient: on the
//! Table-1 network (conv first) that is exactly one GEMM call per sample
//! fewer than the input-gradient path. This file is a test binary of its
//! own because the GEMM call counter is process-wide and the tests of one
//! binary run in parallel.

use hotspot_core::CnnConfig;
use hotspot_nn::engine::Executor;
use hotspot_nn::{gemm, loss, Tensor};

#[test]
fn table1_training_backward_makes_one_gemm_call_fewer() {
    let cfg = CnnConfig::default();
    let mut net = cfg.build();
    let len = cfg.input_shape().iter().product();
    let x = Tensor::from_vec(
        cfg.input_shape(),
        (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
    );
    let mut ex = Executor::new();
    let mut grad = [0.0f32; 2];
    let mut backward_calls = |input_grad: bool| {
        let y = ex.forward_train(&mut net, &x);
        loss::softmax_cross_entropy_into(y, &[0.0, 1.0], &mut grad);
        let before = gemm::gemm_call_count();
        if input_grad {
            ex.backward_input_grad(&mut net, &grad);
        } else {
            ex.backward(&mut net, &grad);
        }
        gemm::gemm_call_count() - before
    };
    let training = backward_calls(false);
    let with_input_grad = backward_calls(true);
    assert_eq!(training + 1, with_input_grad);
}
