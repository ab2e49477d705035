//! Serving engine: model state, micro-batch queue, request dispatch.
//!
//! The engine is deliberately I/O-free — it consumes request *lines* and
//! produces response *lines* ([`Engine::handle_line`]), so every protocol
//! path is testable without a socket. [`daemon`](crate::daemon) adds the
//! socket plumbing on top.
//!
//! # Micro-batching
//!
//! `predict` requests do not score inline. The connection thread extracts
//! the feature tensors straight into the job's buffer (CPU-parallel across
//! connections), snapshots the serving model, and pushes one predict job
//! onto a **bounded** queue; a single batcher thread drains *everything*
//! queued at once, groups the jobs by model snapshot, and scores each
//! group's features, in job order, through one ragged batched inference
//! call ([`BatchScorer::infer_each`]) on the engine's one scorer, whose
//! plans persist across drain cycles. Two clients that arrive within one
//! drain cycle therefore share GEMM blocks. Batched inference is
//! composition-independent (pinned in `hotspot-nn`), so coalescing never
//! changes a score: every reply is bit-identical to offline
//! [`predict_batch`](hotspot_core::HotspotDetector::predict_batch).
//!
//! When the queue is full the request is refused immediately with a
//! structured `busy` reply — explicit backpressure instead of unbounded
//! memory growth; the client retries.
//!
//! # Hot reload
//!
//! The live model is an [`Arc<ServeModel>`] behind an [`RwLock`]. Requests
//! snapshot the `Arc` once at acceptance; `reload` validates the successor
//! against the serving geometry, then swaps the `Arc`. In-flight jobs keep
//! scoring on the snapshot they were accepted under — the batcher's
//! grouping by snapshot identity keeps mixed-generation queues correct —
//! while every later request sees the new weights. No lock is held during
//! scoring.

use hotspot_core::api::{
    ApiError, ErrorKind, ErrorReply, ModelProvenance, PredictRequest, PredictResponse,
    ReloadRequest, ReloadResponse, Request, ScanRequest, ScanResponse, ServeCounters,
    ShutdownResponse, StatusResponse,
};
use hotspot_core::{CascadePrefilter, HotspotDetector, ModelFile, Parallelism, ScanConfig};
use hotspot_nn::engine::BatchScorer;
use hotspot_nn::loss;
use std::collections::VecDeque;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Default bound of the micro-batching queue (jobs, not clips).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// One immutable model generation: detector, optional cascade prefilter,
/// and the provenance that identifies it in responses.
///
/// A `ServeModel` never changes after construction; the engine swaps whole
/// generations behind an [`Arc`].
pub struct ServeModel {
    detector: HotspotDetector,
    cascade: Option<CascadePrefilter>,
    provenance: ModelProvenance,
}

impl ServeModel {
    /// Loads a model (and optionally a cascade prefilter) from disk.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Model`] for unreadable or undecodable files — the
    /// same structured error a `reload` request reports, so the daemon
    /// never panics on a bad model.
    pub fn load(model_path: &str, cascade_path: Option<&str>) -> Result<Self, ApiError> {
        let bytes = fs::read(model_path).map_err(|e| {
            ApiError::new(
                ErrorKind::Model,
                format!("cannot read model file '{model_path}': {e}"),
            )
        })?;
        let model = ModelFile::from_bytes(&bytes)
            .map_err(|e| ApiError::new(ErrorKind::Model, e.to_string()))?;
        let cascade = match cascade_path {
            None => None,
            Some(path) => {
                let bytes = fs::read(path).map_err(|e| {
                    ApiError::new(
                        ErrorKind::Model,
                        format!("cannot read cascade file '{path}': {e}"),
                    )
                })?;
                Some(
                    CascadePrefilter::from_bytes(&bytes)
                        .map_err(|e| ApiError::new(ErrorKind::Model, e.to_string()))?,
                )
            }
        };
        ServeModel::from_parts(&model, cascade)
    }

    /// Builds a serving generation from an in-memory model file.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Model`] when the header geometry is impossible or the
    /// parameter blob does not fit the declared architecture.
    pub fn from_parts(
        model: &ModelFile,
        cascade: Option<CascadePrefilter>,
    ) -> Result<Self, ApiError> {
        let pipeline = model
            .pipeline()
            .map_err(|e| ApiError::new(ErrorKind::Model, e.to_string()))?;
        let net = model
            .network()
            .map_err(|e| ApiError::new(ErrorKind::Model, e.to_string()))?;
        let provenance = model.provenance(cascade.as_ref().map(CascadePrefilter::crc));
        Ok(ServeModel {
            detector: HotspotDetector::from_network(pipeline, net),
            cascade,
            provenance,
        })
    }

    /// The detector serving this generation.
    pub fn detector(&self) -> &HotspotDetector {
        &self.detector
    }

    /// The cascade prefilter applied to `scan` requests, if any.
    pub fn cascade(&self) -> Option<&CascadePrefilter> {
        self.cascade.as_ref()
    }

    /// Identity of the served weights (echoed in every response).
    pub fn provenance(&self) -> ModelProvenance {
        self.provenance
    }

    /// Sets the thread budget for `scan` requests.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.detector.set_parallelism(parallelism);
    }

    /// Checks that `next` can replace this generation without disturbing
    /// clients: the feature geometry (raster resolution, block grid,
    /// coefficient count) must match, because clients size their clips to
    /// the serving pipeline.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Model`] describing both geometries on mismatch.
    pub fn validate_successor(&self, next: &ServeModel) -> Result<(), ApiError> {
        let a = self.detector.pipeline();
        let b = next.detector.pipeline();
        let geometry =
            |p: &hotspot_core::FeaturePipeline| (p.resolution_nm(), p.grid_dim(), p.coefficients());
        if geometry(a) != geometry(b) {
            return Err(ApiError::new(
                ErrorKind::Model,
                format!(
                    "geometry mismatch: serving (resolution_nm {}, grid {}, k {}) \
                     but reload has (resolution_nm {}, grid {}, k {})",
                    a.resolution_nm(),
                    a.grid_dim(),
                    a.coefficients(),
                    b.resolution_nm(),
                    b.grid_dim(),
                    b.coefficients()
                ),
            ));
        }
        Ok(())
    }
}

/// Engine tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Micro-batch queue bound; a full queue refuses with `busy`.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

/// What the connection loop should do after writing a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// The daemon is shutting down; close the connection.
    Shutdown,
}

/// One queued predict request: features already extracted, model already
/// snapshotted, reply channel back to the waiting connection thread.
struct PredictJob {
    id: String,
    threshold: f32,
    /// `count * feat_len` floats, clip-major.
    features: Vec<f32>,
    count: usize,
    model: Arc<ServeModel>,
    reply: mpsc::Sender<String>,
}

struct QueueState {
    jobs: VecDeque<PredictJob>,
    /// Jobs drained by the batcher but not yet replied to; `shutdown`
    /// completes only when the queue is empty *and* this is zero.
    in_flight: usize,
    shutdown: bool,
}

/// The serving engine: live model, bounded micro-batch queue, counters.
///
/// Thread-safe; the daemon shares one `Arc<Engine>` between the accept
/// loop, every connection thread and the batcher thread.
pub struct Engine {
    model: RwLock<Arc<ServeModel>>,
    queue: Mutex<QueueState>,
    /// Wakes the batcher (work arrived or shutdown began).
    work: Condvar,
    /// Wakes shutdown waiters (queue empty and nothing in flight).
    drained: Condvar,
    capacity: usize,
    /// The one batched scorer every drain cycle uses, so its per-size
    /// plans and workspace persist (`run_batcher` and `drain_once` alike).
    scorer: Mutex<BatchScorer>,
    start: Instant,
    requests: AtomicU64,
    predicts: AtomicU64,
    clips: AtomicU64,
    scans: AtomicU64,
    reloads: AtomicU64,
    errors: AtomicU64,
    rejected_busy: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

impl Engine {
    /// Wraps a loaded model into a serving engine.
    pub fn new(model: ServeModel, config: EngineConfig) -> Engine {
        Engine {
            model: RwLock::new(Arc::new(model)),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            drained: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            scorer: Mutex::new(BatchScorer::new()),
            start: Instant::now(),
            requests: AtomicU64::new(0),
            predicts: AtomicU64::new(0),
            clips: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }

    /// The model generation new requests are accepted under.
    pub fn current(&self) -> Arc<ServeModel> {
        match self.model.read() {
            Ok(guard) => guard.clone(),
            // Writers only assign a fresh Arc; a poisoned lock means a
            // daemon thread panicked mid-swap and serving cannot continue.
            Err(_) => panic!("model lock poisoned by a panicked daemon thread"),
        }
    }

    /// Locks the micro-batch queue. A poisoned lock means another daemon
    /// thread panicked while mutating the queue, so its contents (and the
    /// in-flight accounting the drain protocol depends on) cannot be
    /// trusted — abort rather than serve corrupt state.
    fn queue_state(&self) -> MutexGuard<'_, QueueState> {
        match self.queue.lock() {
            Ok(guard) => guard,
            Err(_) => panic!("queue mutex poisoned by a panicked daemon thread"),
        }
    }

    /// Queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting for the batcher.
    pub fn queue_len(&self) -> usize {
        self.queue_state().jobs.len()
    }

    /// Whether shutdown has begun (new predicts are refused).
    pub fn is_shutdown(&self) -> bool {
        self.queue_state().shutdown
    }

    /// Snapshot of the serving counters.
    pub fn counters(&self) -> ServeCounters {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServeCounters {
            requests: get(&self.requests),
            predicts: get(&self.predicts),
            clips: get(&self.clips),
            scans: get(&self.scans),
            reloads: get(&self.reloads),
            errors: get(&self.errors),
            rejected_busy: get(&self.rejected_busy),
            batches: get(&self.batches),
            max_batch: get(&self.max_batch),
        }
    }

    /// Handles one request line and returns the reply line plus what the
    /// connection should do next. Never panics on client input: every
    /// failure becomes a structured [`ErrorReply`] line.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err((id, e)) => return (self.error_reply(id, e), Control::Continue),
        };
        self.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Predict(req) => (self.predict(&req), Control::Continue),
            Request::Scan(req) => (self.scan(&req), Control::Continue),
            Request::Status { id } => (self.status(id), Control::Continue),
            Request::Reload(req) => (self.reload(&req), Control::Continue),
            Request::Shutdown { id } => {
                self.begin_shutdown();
                self.wait_drained();
                (ShutdownResponse { id }.render(), Control::Shutdown)
            }
        }
    }

    /// Extracts features for a predict request and enqueues it; the reply
    /// line arrives on the returned channel once the batcher scores it.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Data`] for unusable clips, [`ErrorKind::Busy`] when
    /// the queue is full, [`ErrorKind::Shutdown`] once draining began.
    pub fn enqueue_predict(
        &self,
        req: &PredictRequest,
    ) -> Result<mpsc::Receiver<String>, ApiError> {
        if req.clips.is_empty() {
            return Err(ApiError::new(
                ErrorKind::Data,
                "predict requires at least one clip",
            ));
        }
        let model = self.current();
        let pipeline = model.detector().pipeline();
        let feat_len: usize = pipeline.input_shape().iter().product();
        let mut features = vec![0.0f32; req.clips.len() * feat_len];
        for (i, (spec, dst)) in req
            .clips
            .iter()
            .zip(features.chunks_exact_mut(feat_len))
            .enumerate()
        {
            let clip = spec
                .to_clip()
                .map_err(|e| ApiError::new(ErrorKind::Data, format!("clip {i}: {e}")))?;
            pipeline
                .extract_into(&clip, dst)
                .map_err(|e| ApiError::new(ErrorKind::Data, format!("clip {i}: {e}")))?;
        }
        let (tx, rx) = mpsc::channel();
        let mut state = self.queue_state();
        if state.shutdown {
            return Err(ApiError::new(
                ErrorKind::Shutdown,
                "daemon is draining for shutdown",
            ));
        }
        if state.jobs.len() >= self.capacity {
            return Err(ApiError::new(
                ErrorKind::Busy,
                format!(
                    "micro-batch queue is full ({} jobs pending); retry",
                    state.jobs.len()
                ),
            ));
        }
        state.jobs.push_back(PredictJob {
            id: req.id.clone(),
            threshold: req.threshold,
            features,
            count: req.clips.len(),
            model,
            reply: tx,
        });
        drop(state);
        self.work.notify_one();
        Ok(rx)
    }

    fn predict(&self, req: &PredictRequest) -> String {
        match self.enqueue_predict(req) {
            Ok(rx) => match rx.recv() {
                Ok(line) => line,
                Err(_) => self.error_reply(
                    Some(req.id.clone()),
                    ApiError::new(ErrorKind::Internal, "batcher unavailable"),
                ),
            },
            Err(e) => self.error_reply(Some(req.id.clone()), e),
        }
    }

    fn scan(&self, req: &ScanRequest) -> String {
        let fail = |e: ApiError| self.error_reply(Some(req.id.clone()), e);
        let data = |msg: String| ApiError::new(ErrorKind::Data, msg);
        let layout = match req.layout.to_clip() {
            Ok(c) => c,
            Err(e) => return fail(data(format!("layout: {e}"))),
        };
        let model = self.current();
        let mut config = match ScanConfig::new(req.stride_nm)
            .and_then(|c| c.with_window_nm(req.window_nm))
            .and_then(|c| c.with_threshold(req.threshold))
        {
            Ok(c) => c.with_provenance(model.provenance()),
            Err(e) => return fail(data(e.to_string())),
        };
        if let Some(cascade) = model.cascade() {
            config = config.with_cascade(cascade.clone());
        }
        match model.detector().scan(&layout, &config) {
            Ok(report) => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                ScanResponse {
                    id: req.id.clone(),
                    report,
                }
                .render(req.include_windows)
            }
            Err(e) => fail(data(e.to_string())),
        }
    }

    fn status(&self, id: String) -> String {
        StatusResponse {
            id,
            model: self.current().provenance(),
            uptime_s: self.start.elapsed().as_secs_f64(),
            counters: self.counters(),
        }
        .render()
    }

    fn reload(&self, req: &ReloadRequest) -> String {
        let mut next = match ServeModel::load(&req.model_path, req.cascade_path.as_deref()) {
            Ok(m) => m,
            Err(e) => return self.error_reply(Some(req.id.clone()), e),
        };
        let current = self.current();
        if let Err(e) = current.validate_successor(&next) {
            return self.error_reply(Some(req.id.clone()), e);
        }
        next.set_parallelism(current.detector().parallelism());
        let provenance = next.provenance();
        match self.model.write() {
            Ok(mut guard) => *guard = Arc::new(next),
            Err(_) => panic!("model lock poisoned by a panicked daemon thread"),
        }
        self.reloads.fetch_add(1, Ordering::Relaxed);
        ReloadResponse {
            id: req.id.clone(),
            model: provenance,
        }
        .render()
    }

    /// Renders `e` as an error reply line and counts it.
    pub(crate) fn error_reply(&self, id: Option<String>, e: ApiError) -> String {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if e.kind == ErrorKind::Busy {
            self.rejected_busy.fetch_add(1, Ordering::Relaxed);
        }
        ErrorReply { id, error: e }.render()
    }

    /// Begins draining: new predicts are refused, the batcher finishes the
    /// queue and exits.
    pub fn begin_shutdown(&self) {
        let mut state = self.queue_state();
        state.shutdown = true;
        drop(state);
        self.work.notify_all();
        self.drained.notify_all();
    }

    /// Blocks until every accepted predict job has been replied to.
    pub fn wait_drained(&self) {
        let mut state = self.queue_state();
        while !state.jobs.is_empty() || state.in_flight > 0 {
            state = match self.drained.wait(state) {
                Ok(state) => state,
                Err(_) => panic!("queue mutex poisoned by a panicked daemon thread"),
            };
        }
    }

    /// The batcher loop: drain everything queued, score it coalesced,
    /// repeat; exits once shutdown began *and* the queue is empty.
    pub fn run_batcher(&self) {
        loop {
            let jobs = {
                let mut state = self.queue_state();
                loop {
                    if !state.jobs.is_empty() {
                        break;
                    }
                    if state.shutdown {
                        drop(state);
                        self.drained.notify_all();
                        return;
                    }
                    state = match self.work.wait(state) {
                        Ok(state) => state,
                        Err(_) => panic!("queue mutex poisoned by a panicked daemon thread"),
                    };
                }
                let jobs: Vec<PredictJob> = state.jobs.drain(..).collect();
                state.in_flight = jobs.len();
                jobs
            };
            self.process(jobs);
        }
    }

    /// Processes whatever is queued right now (one drain cycle) without
    /// blocking; returns the number of jobs scored. Lets tests drive the
    /// batcher deterministically — queue N jobs, drain once, observe one
    /// coalesced scoring pass.
    pub fn drain_once(&self) -> usize {
        let jobs = {
            let mut state = self.queue_state();
            if state.jobs.is_empty() {
                return 0;
            }
            let jobs: Vec<PredictJob> = state.jobs.drain(..).collect();
            state.in_flight = jobs.len();
            jobs
        };
        let n = jobs.len();
        self.process(jobs);
        n
    }

    /// Scores one drained job set: group by model snapshot (reload can
    /// leave mixed generations in the queue), coalesce each group into one
    /// ragged batched inference, reply per job.
    fn process(&self, jobs: Vec<PredictJob>) {
        let mut scorer = match self.scorer.lock() {
            Ok(guard) => guard,
            // Only the scoring pass holds this lock; a panic there leaves
            // jobs unanswered and the drain protocol unrecoverable.
            Err(_) => panic!("scorer mutex poisoned by a panicked daemon thread"),
        };
        let mut groups: Vec<(Arc<ServeModel>, Vec<PredictJob>)> = Vec::new();
        for job in jobs {
            match groups
                .iter_mut()
                .find(|(model, _)| Arc::ptr_eq(model, &job.model))
            {
                Some((_, group)) => group.push(job),
                None => {
                    let model = job.model.clone();
                    groups.push((model, vec![job]));
                }
            }
        }
        for (model, group) in groups {
            self.score_group(&mut scorer, &model, group);
        }
        drop(scorer);
        let mut state = self.queue_state();
        state.in_flight = 0;
        drop(state);
        self.drained.notify_all();
    }

    /// One coalesced scoring pass: identical arithmetic to
    /// [`HotspotDetector::predict_batch`] (extract → blocked batched
    /// forward → softmax), so replies are bit-identical to offline
    /// scoring regardless of how jobs were coalesced.
    fn score_group(
        &self,
        scorer: &mut BatchScorer,
        model: &Arc<ServeModel>,
        group: Vec<PredictJob>,
    ) {
        let pipeline = model.detector().pipeline();
        let in_shape = pipeline.input_shape();
        let total: usize = group.iter().map(|job| job.count).sum();
        let feat_len: usize = in_shape.iter().product();
        // The scorer asks for rows in order, so one cursor walks the jobs'
        // features straight into its input block.
        let mut rows = group
            .iter()
            .flat_map(|job| job.features.chunks_exact(feat_len));
        let mut soft = Vec::new();
        let mut scores = Vec::with_capacity(total);
        let filled = scorer.infer_each(
            model.detector().network(),
            &in_shape,
            total,
            |_, dst| {
                match rows.next() {
                    Some(row) => dst.copy_from_slice(row),
                    None => unreachable!("a job holds `count` feature rows"),
                }
                Ok::<(), std::convert::Infallible>(())
            },
            |_, y| {
                soft.resize(y.len(), 0.0);
                loss::softmax_into(y, &mut soft);
                scores.push(soft[1]);
            },
        );
        let Ok(()) = filled;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(total as u64, Ordering::Relaxed);
        let mut offset = 0;
        for job in group {
            let job_scores = scores[offset..offset + job.count].to_vec();
            offset += job.count;
            let hotspots = job_scores.iter().map(|&p| p > job.threshold).collect();
            let response = PredictResponse {
                id: job.id,
                scores: job_scores,
                hotspots,
                threshold: job.threshold,
                batched: total,
                model: model.provenance(),
            };
            self.predicts.fetch_add(1, Ordering::Relaxed);
            self.clips.fetch_add(job.count as u64, Ordering::Relaxed);
            // A vanished client (closed connection) is not an error.
            let _ = job.reply.send(response.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_core::api::ClipSpec;
    use hotspot_core::CnnConfig;
    use hotspot_geometry::{Clip, Rect};
    use hotspot_nn::serialize::ParameterBlob;

    #[test]
    fn drain_cycles_of_one_size_share_one_cached_plan() {
        let mut net = CnnConfig {
            input_grid: 12,
            input_channels: 4,
            ..CnnConfig::default()
        }
        .build();
        let model = ModelFile {
            resolution_nm: 10,
            grid: 12,
            k: 4,
            blob: ParameterBlob::from_network(&mut net),
        };
        let engine = Engine::new(
            ServeModel::from_parts(&model, None).unwrap(),
            EngineConfig::default(),
        );
        let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200).unwrap());
        clip.push(Rect::new(100, 0, 300, 1200).unwrap());
        let request = PredictRequest {
            id: "p".into(),
            clips: vec![ClipSpec::from_clip(&clip), ClipSpec::from_clip(&clip)],
            threshold: 0.5,
        };
        let mut replies = Vec::new();
        for _ in 0..2 {
            let rx = engine.enqueue_predict(&request).unwrap();
            assert_eq!(engine.drain_once(), 1);
            replies.push(rx.recv().unwrap());
        }
        assert_eq!(replies[0], replies[1]);
        assert_eq!(engine.scorer.lock().unwrap().cached_plans(), 1);
    }
}
