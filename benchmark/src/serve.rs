//! The open-loop serving workload, and the layer-by-layer replay of
//! served requests.

use crate::report::Report;
use crate::setup::{self, Rng, Stream};
use crate::stats;
use crate::trace::Trace;
use crate::{host, latency_notes, repeated_setup, Args};
use hotspot_core::api::{ClipSpec, PredictRequest, PredictResponse, Request};
use hotspot_core::{HotspotDetector, ModelFile};
use hotspot_geometry::Clip;
use hotspot_nn::serialize::ParameterBlob;
use hotspot_server::{ClientConn, Engine, EngineConfig, ServeModel, Server, ServerConfig};
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered open-loop load: 30–47% of the two-connection closed-loop
/// saturation this workload also measures (medians of 1.7k, 2.2k and
/// 2.7k req/s over three ten-seed sets on a 2-vCPU x86-64 host), so
/// latency reflects service time, not backlog. In slow host periods
/// (10–15% steal) saturation fell to 1.2k req/s, and at 1200 req/s the
/// open loop then queued: 26 ms median latency instead of ~1.2 ms.
pub const RATE_PER_S: f64 = 800.0;
/// Client connections (capped by the host's CPUs: one generator thread
/// per connection). Each connection thread in the daemon serves one
/// request at a time, so two connections hold at most two jobs in the
/// 64-job micro-batch queue: `busy` shedding cannot occur here.
const MAX_CONNECTIONS: usize = 2;
/// Clips per predict request.
const CLIPS_PER_REQUEST: usize = 2;
/// Distinct clip pairs the requests draw from.
const PAIRS: usize = 64;
/// Untimed open-loop warm-up requests.
const WARMUP_REQUESTS: usize = 400;
/// Seconds of each closed-loop chunk.
const CHUNK_S: f64 = 1.0;

pub fn connections() -> usize {
    MAX_CONNECTIONS.min(crate::host::nproc()).max(1)
}

/// An in-process `hotspot serve` daemon on a Unix socket.
pub struct Daemon {
    pub socket: PathBuf,
    pub engine: Arc<Engine>,
    thread: JoinHandle<()>,
}

impl Daemon {
    /// Binds a socket in the working directory (relative, so the path
    /// stays short whatever the checkout's location) and starts serving.
    pub fn start(model: &ModelFile, tag: usize) -> Daemon {
        let socket = PathBuf::from(format!(".perfbench-{}-{tag}.sock", std::process::id()));
        let serve_model = ServeModel::from_parts(model, None).expect("model file loads");
        let server = Server::bind(serve_model, &ServerConfig::new(&socket)).expect("socket binds");
        let engine = server.engine().clone();
        let thread = std::thread::spawn(move || server.run().expect("daemon runs"));
        while ClientConn::connect(&socket).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        Daemon {
            socket,
            engine,
            thread,
        }
    }

    /// Drains and stops the daemon, waiting for its thread.
    pub fn stop(self) {
        let line = Request::Shutdown { id: "stop".into() }.render();
        hotspot_server::client_roundtrip(&self.socket, &line).expect("daemon shuts down");
        self.thread.join().expect("daemon thread ends cleanly");
    }
}

pub fn model_file(det: &mut HotspotDetector) -> ModelFile {
    let pipeline = det.pipeline().clone();
    ModelFile {
        resolution_nm: pipeline.resolution_nm(),
        grid: pipeline.grid_dim(),
        k: pipeline.coefficients(),
        blob: ParameterBlob::from_network(det.network_mut()),
    }
}

/// Seeded predict requests over the test split, with the offline scores
/// every reply must reproduce. Requests draw from a fixed set of clip
/// pairs; each pair's line is rendered once (its id names the pair), so
/// the generator's own memory does not grow with the request count.
pub struct Requests {
    /// Request line of each pair, newline-terminated.
    pair_lines: Vec<String>,
    /// Pair index of each request.
    pair_of: Vec<usize>,
    pub pairs: Vec<[Clip; CLIPS_PER_REQUEST]>,
    /// `predict_batch` scores of each pair.
    expected: Vec<Vec<f32>>,
}

impl Requests {
    pub fn new(model: &ModelFile, test: &[Clip], seed: u64, count: usize) -> Requests {
        let offline = HotspotDetector::from_network(
            model.pipeline().expect("model pipeline"),
            model.network().expect("model network"),
        );
        let mut rng = Rng::new(setup::seed_for(seed, Stream::Requests));
        let pairs: Vec<[Clip; CLIPS_PER_REQUEST]> = (0..PAIRS)
            .map(|_| std::array::from_fn(|_| test[rng.below(test.len())].clone()))
            .collect();
        let expected = pairs
            .iter()
            .map(|p| offline.predict_batch(p).expect("offline scoring runs"))
            .collect();
        let pair_lines = pairs
            .iter()
            .enumerate()
            .map(|(k, pair)| {
                let mut line = Request::Predict(PredictRequest {
                    id: format!("p{k}"),
                    clips: pair.iter().map(ClipSpec::from_clip).collect(),
                    threshold: 0.5,
                })
                .render();
                line.push('\n');
                line
            })
            .collect();
        Requests {
            pair_lines,
            pair_of: (0..count).map(|_| rng.below(PAIRS)).collect(),
            pairs,
            expected,
        }
    }

    pub fn len(&self) -> usize {
        self.pair_of.len()
    }

    /// Line of request `i`, newline-terminated.
    pub fn line(&self, i: usize) -> &str {
        &self.pair_lines[self.pair_of[i]]
    }

    /// Lines of requests `range`, in order.
    pub fn lines(&self, range: std::ops::Range<usize>) -> Vec<&str> {
        self.pair_of[range]
            .iter()
            .map(|&p| self.pair_lines[p].as_str())
            .collect()
    }

    /// Whether the reply to request `i` is `ok` and bit-identical to
    /// offline scoring.
    pub fn reply_matches(&self, i: usize, reply: &str) -> bool {
        let pair = self.pair_of[i];
        PredictResponse::parse(reply).is_ok_and(|r| {
            let want = &self.expected[pair];
            r.id == format!("p{pair}")
                && r.scores.len() == want.len()
                && r.scores
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }
}

/// Outcome of one open-loop phase, times in seconds from its start.
pub struct Load {
    pub due: Vec<f64>,
    pub sent: Vec<f64>,
    pub done: Vec<Option<f64>>,
    pub replies: Vec<Option<String>>,
}

/// One request as a generator thread saw it.
struct Outcome {
    index: usize,
    sent: f64,
    done: Option<f64>,
    reply: Option<String>,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const TimeSpec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until `stream` has data (or its peer hung up) or `wait` has
/// passed. `ppoll` keeps nanosecond timeouts on high-resolution timers;
/// a socket read timeout is rounded to scheduler ticks, which would make
/// the generator send late.
fn wait_readable(stream: &UnixStream, wait: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = TimeSpec {
        tv_sec: c_long::try_from(wait.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(wait.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `timeout` are initialised locals laid out as the C
    // `struct pollfd` and `struct timespec` and outlive the call; `nfds`
    // is 1, matching the single `pollfd`; a null `sigmask` leaves the
    // signal mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    ready > 0
}

/// Sends `lines` open-loop at `rate` per second over `conns`
/// connections: request `i` is due at `i / rate` and is sent then,
/// whether or not earlier replies have arrived. One thread per
/// connection writes each request when it falls due and reads replies
/// in between.
pub fn open_loop(socket: &Path, lines: &[&str], rate: f64, conns: usize) -> Load {
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
    let give_up = due.last().copied().unwrap_or(0.0) + 30.0;
    let per_conn: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let due = &due;
                s.spawn(move || {
                    let mine: Vec<usize> = (c..n).step_by(conns).collect();
                    let mut out: Vec<Outcome> = mine
                        .iter()
                        .map(|&index| Outcome {
                            index,
                            sent: f64::NAN,
                            done: None,
                            reply: None,
                        })
                        .collect();
                    let Ok(mut stream) = UnixStream::connect(socket) else {
                        return out;
                    };
                    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                    let (mut next, mut got) = (0usize, 0usize);
                    let mut buf: Vec<u8> = Vec::new();
                    let mut chunk = vec![0u8; 1 << 16];
                    while got < mine.len() {
                        let now = Instant::now();
                        if next < mine.len() && now >= start + secs(due[mine[next]]) {
                            if stream.write_all(lines[mine[next]].as_bytes()).is_err() {
                                break;
                            }
                            out[next].sent = since(Instant::now());
                            next += 1;
                            continue;
                        }
                        let until = if next < mine.len() {
                            start + secs(due[mine[next]])
                        } else {
                            start + secs(give_up)
                        };
                        if next == mine.len() && now >= until {
                            break;
                        }
                        if !wait_readable(&stream, until.saturating_duration_since(now)) {
                            continue;
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(k) => {
                                let at = since(Instant::now());
                                buf.extend_from_slice(&chunk[..k]);
                                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                                    let line: Vec<u8> = buf.drain(..=pos).collect();
                                    if got < next {
                                        out[got].done = Some(at);
                                        out[got].reply = Some(
                                            String::from_utf8_lossy(&line[..line.len() - 1])
                                                .into_owned(),
                                        );
                                        got += 1;
                                    }
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(_) => break,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let mut load = Load {
        due,
        sent: vec![f64::NAN; n],
        done: vec![None; n],
        replies: vec![None; n],
    };
    for o in per_conn.into_iter().flatten() {
        load.sent[o.index] = o.sent;
        load.done[o.index] = o.done;
        load.replies[o.index] = o.reply;
    }
    load
}

impl Load {
    /// Requests without a reply, or whose reply does not match offline
    /// scoring.
    pub fn failed(&self, requests: &Requests, first_line: usize) -> usize {
        self.replies
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                !r.as_deref()
                    .is_some_and(|r| requests.reply_matches(first_line + i, r))
            })
            .count()
    }

    /// Latency of each completed request from its due time, in ms: a
    /// stalled reply is charged to every request queued behind it for as
    /// long as each waited, not just from when it reached the wire.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(due, done)| done.map(|d| (d - due) * 1e3))
            .collect()
    }

    /// How late the generator sent each request, in ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .filter(|(s, _)| s.is_finite())
            .map(|(s, d)| (s - d).max(0.0) * 1e3)
            .collect()
    }

    /// Completed requests per second from the first due time to the last
    /// reply.
    pub fn completed_per_s(&self) -> f64 {
        let done: Vec<f64> = self.done.iter().flatten().copied().collect();
        let last = done.iter().copied().fold(0.0, f64::max);
        done.len() as f64 / last
    }
}

/// Everything the serving workload fits and starts in set-up.
pub struct ServeSetup {
    pub model: ModelFile,
    pub test: Vec<Clip>,
    pub daemon: Daemon,
}

pub fn setup(seed: u64, tag: usize) -> ServeSetup {
    let data = setup::suite(seed);
    let mut det = setup::fit(&data, seed);
    let model = model_file(&mut det);
    let daemon = Daemon::start(&model, tag);
    ServeSetup {
        test: data.test.iter().map(|s| s.clip.clone()).collect(),
        model,
        daemon,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let s = repeated_setup(report, |i| setup(args.seed, i), |s| s.daemon.stop());
    let conns = connections();
    // A quarter of the measuring time is open-loop (latency, reported but
    // unbounded), the rest closed-loop at saturation (throughput, bounded).
    let open_s = args.seconds / 4.0;
    let timed = (RATE_PER_S * open_s).round() as usize;
    let requests = Requests::new(&s.model, &s.test, args.seed, WARMUP_REQUESTS + timed);
    let warm_lines = requests.lines(0..WARMUP_REQUESTS);
    let timed_lines = requests.lines(WARMUP_REQUESTS..requests.len());

    let warm = open_loop(&s.daemon.socket, &warm_lines, RATE_PER_S, conns);
    let warm_failed = warm.failed(&requests, 0);
    report.phase("warm-up", warm_lines.len(), warm_failed);

    let before = s.daemon.engine.counters();
    let load = open_loop(&s.daemon.socket, &timed_lines, RATE_PER_S, conns);
    let after = s.daemon.engine.counters();
    let failed = load.failed(&requests, WARMUP_REQUESTS);
    report.phase("open-loop", timed_lines.len(), failed);

    // The closed loop runs in one-second chunks over connections that stay
    // open throughout, so the daemon keeps its connection threads. Each
    // chunk's CPU time (daemon and client threads) is scaled by a run of
    // the reference kernel right after it, while the daemon idles; the
    // metric is the median chunk's requests per scaled CPU-second.
    let reference = host::Reference::default();
    let mut clients: Vec<ClientConn> = (0..conns)
        .map(|_| ClientConn::connect(&s.daemon.socket).expect("daemon accepts"))
        .collect();
    let closed_start = Instant::now();
    let (mut done, mut failed, mut secs) = (0, 0, 0.0);
    let mut adjusted = Vec::new();
    while closed_start.elapsed().as_secs_f64() < args.seconds - open_s {
        let cpu = host::process_cpu_s();
        let (d, f, chunk_s) = closed_loop(&mut clients, &requests, CHUNK_S);
        let cpu_s = host::process_cpu_s() - cpu;
        adjusted.push(d as f64 / host::adjust(cpu_s, reference.cpu_ms()));
        (done, failed, secs) = (done + d, failed + f, secs + chunk_s);
    }
    report.phase("closed-loop", done + failed, failed);
    report.metric(
        "adj_throughput_per_cpu_s",
        "1/s",
        stats::median(&adjusted).expect("at least one chunk"),
        adjusted.len(),
        format!(
            "requests per CPU-second at saturation and reference speed: median of {CHUNK_S}-s \
             closed-loop chunks over {conns} connections, {CLIPS_PER_REQUEST} clips per \
             request, each chunk's CPU time scaled to a {} ms reference",
            host::REFERENCE_MS
        ),
    );
    report.note(format!(
        "unadjusted: {:.3} req per wall-clock second over the closed loop",
        done as f64 / secs
    ));
    latency_notes(
        report,
        &load.latencies_ms(),
        &format!("request from due time, open loop at {RATE_PER_S}/s"),
    );
    let late = load.late_ms();
    let batches = after.batches - before.batches;
    report.note(format!(
        "serve: open loop completed {:.1} req/s; generator late p50 {:.3} ms / {}; \
         {:.3} clips per micro-batch; rejected busy {} (two connections never fill the \
         {}-job queue)",
        load.completed_per_s(),
        stats::median(&late).unwrap_or(f64::NAN),
        stats::tail(&late).map_or_else(String::new, |t| format!(
            "p{} {:.3} ms",
            t.percentile, t.value
        )),
        (after.clips - before.clips) as f64 / batches.max(1) as f64,
        after.rejected_busy - before.rejected_busy,
        s.daemon.engine.capacity()
    ));
    drop(clients);
    s.daemon.stop();
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrives, for `seconds`. Returns the requests completed
/// with a matching reply, those failed, and the elapsed seconds.
pub fn closed_loop(
    conns: &mut [ClientConn],
    requests: &Requests,
    seconds: f64,
) -> (usize, usize, f64) {
    let n = conns.len();
    let start = Instant::now();
    let per_conn: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let (mut done, mut failed) = (0, 0);
                    let mut i = c;
                    while start.elapsed().as_secs_f64() < seconds {
                        let ok = conn
                            .request(requests.line(i).trim_end())
                            .is_ok_and(|reply| requests.reply_matches(i, &reply));
                        if ok {
                            done += 1;
                        } else {
                            failed += 1;
                        }
                        i = (i + n) % requests.len();
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let (done, failed) = per_conn
        .iter()
        .fold((0, 0), |(d, f), (cd, cf)| (d + cd, f + cf));
    (done, failed, secs)
}

/// Replays the first `count` requests one by one through a daemon-free engine: parse,
/// enqueue (feature extraction and queueing), drain (batched scoring),
/// each under a span caused by the request. Returns how many replies
/// matched offline scoring.
pub fn replay_engine(
    model: &ModelFile,
    requests: &Requests,
    count: usize,
    trace: &mut Trace,
) -> usize {
    let engine = Engine::new(
        ServeModel::from_parts(model, None).expect("model file loads"),
        EngineConfig::default(),
    );
    let mut matched = 0;
    for (i, line) in requests.lines(0..count).into_iter().enumerate() {
        let request = trace.open("serve.request", None);
        let parsed = trace.time("core.api.parse", Some(request), || {
            Request::parse(line.trim_end())
        });
        let Ok(Request::Predict(req)) = parsed else {
            trace.close(request);
            continue;
        };
        let rx = trace.time("server.enqueue", Some(request), || {
            engine.enqueue_predict(&req)
        });
        trace.time("server.drain", Some(request), || engine.drain_once());
        trace.close(request);
        if let Some(reply) = rx.ok().and_then(|rx| rx.recv().ok()) {
            matched += usize::from(requests.reply_matches(i, &reply));
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixListener;

    /// A daemon stand-in that answers each line in order, holding the
    /// first reply back for `stall`.
    fn stalling_server(socket: &Path, stall: Duration) -> std::thread::JoinHandle<()> {
        let listener = UnixListener::bind(socket).expect("test socket binds");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("generator connects");
            let mut writer = stream.try_clone().expect("stream clones");
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                if i == 0 {
                    std::thread::sleep(stall);
                }
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("reply written");
            }
        })
    }

    #[test]
    fn stalled_reply_is_charged_to_later_requests_from_their_due_times() {
        let socket =
            std::env::temp_dir().join(format!("perfbench-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let server = stalling_server(&socket, Duration::from_millis(60));
        let lines: Vec<String> = (0..6).map(|i| format!("req{i}\n")).collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        // One request per 5 ms: all six fall due during the stall.
        let load = open_loop(&socket, &lines, 200.0, 1);
        server.join().expect("server thread");
        let _ = std::fs::remove_file(&socket);

        // Sends kept to schedule although no reply had arrived: a closed
        // loop would have held requests 1..5 back until the 60 ms stall
        // ended. The slack allows for a loaded test host.
        for (sent, due) in load.sent.iter().zip(&load.due) {
            assert!(sent - due < 0.025, "sent {sent} for due {due}");
        }
        // Each later request is charged the stall from its own due time:
        // request i was due at 5·i ms and answered after ~60 ms.
        let lat = load.latencies_ms();
        assert_eq!(lat.len(), 6);
        for (i, l) in lat.iter().enumerate() {
            let floor = 60.0 - 5.0 * i as f64 - 2.0;
            assert!(*l >= floor, "request {i}: {l} ms < {floor} ms");
        }
        assert_eq!(load.replies[3].as_deref(), Some("req3"));
    }
}
