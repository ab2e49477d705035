//! Pins the tentpole coalescing property with the process-wide GEMM-call
//! counter: two predict requests queued together are scored by ONE ragged
//! batched pass (same GEMM work as a single two-sample inference, strictly
//! less than scoring the jobs separately), and coalescing never changes a
//! score bit.
//!
//! Kept to a single `#[test]` so no parallel test in this binary can
//! perturb the global counter between the deltas.

mod common;

use hotspot_core::api::{ClipSpec, PredictRequest, PredictResponse};
use hotspot_core::HotspotDetector;
use hotspot_geometry::Clip;
use hotspot_nn::engine::BatchScorer;
use hotspot_nn::gemm::gemm_call_count;
use hotspot_server::{Engine, EngineConfig, ServeModel};

#[test]
fn concurrent_predicts_coalesce_into_shared_gemm_blocks() {
    let model_file = common::model_with_seed(11, 4);
    let engine = Engine::new(
        ServeModel::from_parts(&model_file, None).unwrap(),
        EngineConfig { queue_capacity: 8 },
    );

    let a = common::clip(0);
    let b = common::clip(1);
    let request = |id: &str, clip: &Clip| PredictRequest {
        id: id.into(),
        clips: vec![ClipSpec::from_clip(clip)],
        threshold: 0.5,
    };

    // Queue both jobs before any scoring happens, then drain one cycle.
    let rx_a = engine.enqueue_predict(&request("a", &a)).unwrap();
    let rx_b = engine.enqueue_predict(&request("b", &b)).unwrap();
    assert_eq!(engine.queue_len(), 2);
    let before = gemm_call_count();
    assert_eq!(engine.drain_once(), 2);
    let coalesced = gemm_call_count() - before;

    let reply_a = PredictResponse::parse(&rx_a.recv().unwrap()).unwrap();
    let reply_b = PredictResponse::parse(&rx_b.recv().unwrap()).unwrap();
    assert_eq!(reply_a.batched, 2, "job a must see its coalesced neighbour");
    assert_eq!(reply_b.batched, 2, "job b must see its coalesced neighbour");

    // Reference: one ragged two-sample inference does identical GEMM work.
    let pipeline = model_file.pipeline().unwrap();
    let net = model_file.network().unwrap();
    let in_shape = pipeline.input_shape();
    let features = [pipeline.extract(&a).unwrap(), pipeline.extract(&b).unwrap()];
    let mut scorer = BatchScorer::new();
    let before = gemm_call_count();
    scorer
        .infer_each(
            &net,
            &in_shape,
            2,
            |i, dst| {
                dst.copy_from_slice(features[i].as_slice());
                Ok::<(), ()>(())
            },
            |_, _| {},
        )
        .unwrap();
    let reference = gemm_call_count() - before;
    assert_eq!(
        coalesced, reference,
        "engine must score both jobs in one ragged batched pass"
    );

    // Scoring the same jobs in separate cycles costs strictly more GEMMs.
    let engine_solo = Engine::new(
        ServeModel::from_parts(&model_file, None).unwrap(),
        EngineConfig { queue_capacity: 8 },
    );
    let rx = engine_solo.enqueue_predict(&request("solo", &a)).unwrap();
    let before = gemm_call_count();
    assert_eq!(engine_solo.drain_once(), 1);
    let single = gemm_call_count() - before;
    rx.recv().unwrap();
    assert!(
        coalesced < 2 * single,
        "coalesced cycle used {coalesced} GEMM calls, two solo cycles would use {}",
        2 * single
    );

    // Coalescing never changes a score bit vs offline predict_batch.
    let detector = HotspotDetector::from_network(
        model_file.pipeline().unwrap(),
        model_file.network().unwrap(),
    );
    let offline = detector.predict_batch(&[a, b]).unwrap();
    assert_eq!(reply_a.scores.len(), 1);
    assert_eq!(reply_b.scores.len(), 1);
    assert_eq!(reply_a.scores[0].to_bits(), offline[0].to_bits());
    assert_eq!(reply_b.scores[0].to_bits(), offline[1].to_bits());
}
