//! End-to-end daemon tests over a real Unix socket: concurrent client
//! threads stream predicts while a reload lands mid-stream, and every
//! reply must be bit-identical to the offline reference for whichever
//! model generation served it (identified by the reply's provenance CRC);
//! and a client that never ends its line is refused without disturbing
//! the others.

mod common;

use hotspot_core::api::ErrorKind;
use hotspot_core::api::{
    ClipSpec, ErrorReply, Json, ModelProvenance, PredictRequest, PredictResponse, ReloadRequest,
    ReloadResponse, Request, StatusResponse,
};
use hotspot_core::HotspotDetector;
use hotspot_geometry::{Clip, Rect};
use hotspot_server::daemon::MAX_LINE_BYTES;
use hotspot_server::{client_roundtrip, ClientConn, ServeModel, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const PREDICTS_PER_PHASE: usize = 5;

fn wait_for_socket(path: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while ClientConn::connect(path).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        thread::sleep(Duration::from_millis(5));
    }
}

fn predict_line(id: String, clips: &[Clip]) -> String {
    Request::Predict(PredictRequest {
        id,
        clips: clips.iter().map(ClipSpec::from_clip).collect(),
        threshold: 0.5,
    })
    .render()
}

#[test]
fn concurrent_clients_stay_bit_identical_across_midstream_reload() {
    let model_a = common::model_with_seed(21, 4);
    let model_b = common::model_with_seed(22, 4);
    let (crc_a, crc_b) = (model_a.crc(), model_b.crc());
    assert_ne!(crc_a, crc_b, "fixture models must be distinguishable");
    let path_a = common::write_temp("daemon-a.hsmodel", &model_a.to_bytes());
    let path_b = common::write_temp("daemon-b.hsmodel", &model_b.to_bytes());

    let socket = std::env::temp_dir().join(format!("hotspot-daemon-{}.sock", std::process::id()));
    let server = Server::bind(
        ServeModel::load(path_a.to_str().unwrap(), None).unwrap(),
        &ServerConfig::new(&socket),
    )
    .unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());
    wait_for_socket(&socket);

    // Four clients stream predicts; between the phases the coordinator
    // lands a reload, so phase-1 replies may come from either generation
    // while phase-2 replies must all come from model B.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let socket = socket.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut conn = ClientConn::connect(&socket).unwrap();
                let mut run_phase = |phase: usize| {
                    (0..PREDICTS_PER_PHASE)
                        .map(|i| {
                            let clips = common::clips((t * 100 + phase * 50 + i) as i64, 1 + i % 3);
                            let line = predict_line(format!("c{t}-p{phase}-{i}"), &clips);
                            (clips, conn.request(&line).unwrap())
                        })
                        .collect::<Vec<_>>()
                };
                let phase1 = run_phase(1);
                barrier.wait(); // coordinator reloads...
                barrier.wait(); // ...and acknowledges
                let phase2 = run_phase(2);
                (phase1, phase2)
            })
        })
        .collect();

    barrier.wait();
    let reload = Request::Reload(ReloadRequest {
        id: "swap".into(),
        model_path: path_b.to_str().unwrap().into(),
        cascade_path: None,
    })
    .render();
    let ack = ReloadResponse::parse(&client_roundtrip(&socket, &reload).unwrap()).unwrap();
    assert_eq!(ack.model.model_crc, crc_b);
    barrier.wait();

    let detector_a =
        HotspotDetector::from_network(model_a.pipeline().unwrap(), model_a.network().unwrap());
    let detector_b =
        HotspotDetector::from_network(model_b.pipeline().unwrap(), model_b.network().unwrap());
    let check = |clips: &[Clip], reply: &str, expect: Option<u32>| {
        let r = PredictResponse::parse(reply).unwrap();
        let reference = match r.model.model_crc {
            crc if crc == crc_a => &detector_a,
            crc if crc == crc_b => &detector_b,
            crc => panic!("reply served by unknown model {crc:#010x}"),
        };
        if let Some(expected_crc) = expect {
            assert_eq!(r.model.model_crc, expected_crc);
        }
        let offline = reference.predict_batch(clips).unwrap();
        assert_eq!(r.scores.len(), offline.len());
        for (served, reference_score) in r.scores.iter().zip(&offline) {
            assert_eq!(
                served.to_bits(),
                reference_score.to_bits(),
                "daemon score differs from offline predict_batch"
            );
        }
        for (hot, score) in r.hotspots.iter().zip(&r.scores) {
            assert_eq!(*hot, *score > r.threshold);
        }
    };
    let mut total_clips = 0;
    for client in clients {
        let (phase1, phase2) = client.join().unwrap();
        for (clips, reply) in &phase1 {
            total_clips += clips.len();
            check(clips, reply, None);
        }
        // Reload was acknowledged before phase 2 began: generation B only.
        for (clips, reply) in &phase2 {
            total_clips += clips.len();
            check(clips, reply, Some(crc_b));
        }
    }

    // Scan through the daemon: report carries the serving provenance.
    let mut layout = Clip::new(Rect::new(0, 0, 2400, 2400).unwrap());
    for i in 0..8 {
        layout.push(Rect::new(120 + 280 * i, 200, 220 + 280 * i, 2200).unwrap());
    }
    let scan = Request::Scan(hotspot_core::api::ScanRequest {
        id: "sweep".into(),
        layout: ClipSpec::from_clip(&layout),
        stride_nm: 600,
        window_nm: 1200,
        threshold: 0.5,
        include_windows: false,
    })
    .render();
    let reply = client_roundtrip(&socket, &scan).unwrap();
    let v = Json::parse(&reply).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let report = v.get("report").expect("scan reply carries the report");
    let provenance =
        ModelProvenance::from_json(report.get("provenance").expect("report has provenance"))
            .unwrap();
    assert_eq!(provenance.model_crc, crc_b);
    assert_eq!(report.get("windows"), Some(&Json::Null));

    // Malformed JSON: structured parse error, no id recoverable.
    let reply = client_roundtrip(&socket, "{definitely not json").unwrap();
    let err = ErrorReply::parse(&reply).unwrap();
    assert_eq!(err.error.kind, hotspot_core::api::ErrorKind::Parse);
    assert_eq!(err.id, None);

    // Shape-mismatched reload: structured model error, old model keeps
    // serving.
    let bad = common::write_temp(
        "daemon-k8.hsmodel",
        &common::model_with_seed(23, 8).to_bytes(),
    );
    let reload_bad = Request::Reload(ReloadRequest {
        id: "bad".into(),
        model_path: bad.to_str().unwrap().into(),
        cascade_path: None,
    })
    .render();
    let reply = client_roundtrip(&socket, &reload_bad).unwrap();
    let err = ErrorReply::parse(&reply).unwrap();
    assert_eq!(err.error.kind, hotspot_core::api::ErrorKind::Model);
    assert_eq!(err.id.as_deref(), Some("bad"));

    // Status reflects everything this test did.
    let status_line = Request::Status { id: "st".into() }.render();
    let status = StatusResponse::parse(&client_roundtrip(&socket, &status_line).unwrap()).unwrap();
    assert_eq!(status.model.model_crc, crc_b);
    assert_eq!(
        status.counters.predicts,
        (CLIENTS * 2 * PREDICTS_PER_PHASE) as u64
    );
    assert_eq!(status.counters.clips, total_clips as u64);
    assert_eq!(status.counters.scans, 1);
    assert_eq!(status.counters.reloads, 1);
    assert!(status.counters.errors >= 2);
    assert!(status.counters.batches >= 1);
    assert!(status.counters.max_batch >= 1);
    assert!(status.uptime_s >= 0.0);

    // Graceful shutdown: acknowledged, daemon exits, socket removed.
    let shutdown = Request::Shutdown { id: "bye".into() }.render();
    let reply = client_roundtrip(&socket, &shutdown).unwrap();
    assert!(reply.contains("\"ok\": true"), "got: {reply}");
    daemon.join().unwrap();
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    for path in [path_a, path_b, bad] {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn overlong_unterminated_line_is_refused_while_other_connections_keep_serving() {
    let model = ServeModel::from_parts(&common::model_with_seed(31, 4), None).unwrap();
    let socket =
        std::env::temp_dir().join(format!("hotspot-daemon-cap-{}.sock", std::process::id()));
    let server = Server::bind(model, &ServerConfig::new(&socket)).unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());
    wait_for_socket(&socket);

    let status_line = Request::Status { id: "st".into() }.render();
    let mut steady = ClientConn::connect(&socket).unwrap();
    StatusResponse::parse(&steady.request(&status_line).unwrap()).unwrap();

    // One byte past the cap and no newline: the daemon must answer with a
    // structured data error instead of buffering on, then hang up.
    let mut flood = UnixStream::connect(&socket).unwrap();
    flood.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(flood);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let err = ErrorReply::parse(reply.trim_end()).unwrap();
    assert_eq!(err.error.kind, ErrorKind::Data);
    assert_eq!(err.id, None);
    assert_eq!(reader.read(&mut [0u8; 16]).unwrap(), 0, "connection closed");

    // The connection that was open all along and a new one both serve.
    let status = StatusResponse::parse(&steady.request(&status_line).unwrap()).unwrap();
    assert_eq!(status.counters.errors, 1);
    StatusResponse::parse(&client_roundtrip(&socket, &status_line).unwrap()).unwrap();

    let shutdown = Request::Shutdown { id: "bye".into() }.render();
    client_roundtrip(&socket, &shutdown).unwrap();
    drop(steady);
    daemon.join().unwrap();
}
