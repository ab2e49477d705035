//! Crash-safe training checkpoints.
//!
//! A [`Checkpoint`] captures a full biased-learning run at a safe point —
//! the completed rounds, the current model parameters, every RNG stream,
//! and (mid-round) the trainer's [`TrainerState`] — so a killed `train`
//! invocation can resume and finish with **bit-identical** weights to a
//! run that never stopped.
//!
//! # File layout (version 2, all little-endian)
//!
//! ```text
//! magic "HSCK" | u32 version | u32 crc32(payload) | u64 payload_len | payload
//! ```
//!
//! Version 2 appends an optional active-learning section to the version-1
//! payload: a presence flag, then the per-round pool selections **with
//! their oracle labels** and the cumulative labeler-call count
//! ([`ActiveState`]). Storing the labels means a resumed active run never
//! re-invokes the (expensive) labeler for clips it already paid for, and
//! replays the training-set growth in the identical order. Version-1 files
//! load unchanged (no active section).
//!
//! The CRC-32 (IEEE, shared with [`hotspot_nn::serialize`]) is computed
//! over the payload, so any single-byte corruption — truncation, bit flip,
//! bad length — is detected on load instead of silently resuming from a
//! different state. Decoding never panics and validates every declared
//! length against the remaining bytes *before* allocating.
//!
//! # Durability contract
//!
//! [`write_atomic`] writes to a temporary file in the destination
//! directory, fsyncs it, then renames it over the target (and fsyncs the
//! directory on Unix). A crash at any point leaves either the previous
//! checkpoint or the new one — never a torn file.

use crate::biased::{BiasRound, BiasedResume};
use crate::mgd::{TrainPoint, TrainerState};
use crate::{CoreError, TrainReport};
use hotspot_nn::serialize::{crc32, ParameterBlob};
use hotspot_nn::Network;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Checkpoint wire-format magic.
const MAGIC: &[u8; 4] = b"HSCK";
/// Checkpoint wire-format version written by [`Checkpoint::to_bytes`].
const VERSION: u32 = 2;
/// Oldest checkpoint version [`Checkpoint::from_bytes`] still reads.
const MIN_VERSION: u32 = 1;
/// Bytes before the payload: magic + version + crc + payload length.
const HEADER_LEN: usize = 20;

/// One completed active-learning acquisition round: which pool indices
/// were selected and the oracle labels they received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveRoundState {
    /// Selected pool indices, in acquisition order.
    pub selected: Vec<u64>,
    /// Oracle labels, aligned with `selected`.
    pub labels: Vec<bool>,
}

/// Per-round active-learning state carried by version-2 checkpoints.
///
/// Each entry records a batch that was already labelled (and paid for);
/// on resume the loop replays these batches from the checkpoint instead
/// of re-invoking the labeler, then recomputes acquisition only for
/// rounds that never ran.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActiveState {
    /// Labelled batches, in round order.
    pub rounds: Vec<ActiveRoundState>,
    /// Labeler calls charged before this snapshot (for cost accounting
    /// across resumes).
    pub labeler_calls: u64,
}

/// A complete, resumable snapshot of a biased-learning training run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Training seed of the run (resume refuses a different seed — the
    /// validation split and sampling streams would not match).
    pub seed: u64,
    /// Worker-thread count of the run (gradient merge order, and hence
    /// the weight trajectory, depends on it).
    pub threads: u32,
    /// Free-form fingerprint of the run configuration (geometry, feature
    /// parameters, step budget, …); resume refuses a mismatch.
    pub tag: String,
    /// Current model parameters (mid-round: the live weights; round
    /// boundary: the round's returned best-validation weights).
    pub params: ParameterBlob,
    /// Master-network stochastic-layer RNG states.
    pub net_rngs: Vec<[u64; 4]>,
    /// Fully completed biased-learning rounds, ε ascending.
    pub completed: Vec<BiasRound>,
    /// Mid-round trainer state when the snapshot was periodic; `None` at
    /// round boundaries.
    pub trainer: Option<TrainerState>,
    /// Active-learning state (labelled batches so far); `None` for plain
    /// training runs and version-1 files.
    pub active: Option<ActiveState>,
}

impl Checkpoint {
    /// Builds a checkpoint from the pieces the biased-learning hook
    /// provides (see [`crate::biased::CheckpointEvent`]).
    pub fn new(
        seed: u64,
        threads: usize,
        tag: String,
        net: &mut Network,
        completed: &[BiasRound],
        trainer: Option<&TrainerState>,
    ) -> Self {
        Checkpoint {
            seed,
            threads: threads as u32,
            tag,
            params: match trainer {
                Some(state) => state.params.clone(),
                None => ParameterBlob::from_network(net),
            },
            net_rngs: net.rng_states(),
            completed: completed.to_vec(),
            trainer: trainer.cloned(),
            active: None,
        }
    }

    /// Attaches active-learning state (builder style; see [`ActiveState`]).
    pub fn with_active(mut self, active: ActiveState) -> Self {
        self.active = Some(active);
        self
    }

    /// Verifies this checkpoint belongs to the given run configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] naming the first mismatching
    /// field.
    pub fn validate_run(&self, seed: u64, threads: usize, tag: &str) -> Result<(), CoreError> {
        if self.seed != seed {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint was taken with seed {} but this run uses {seed}",
                self.seed
            )));
        }
        if self.threads as usize != threads {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint was taken with {} threads but this run uses {threads} \
                 (the gradient merge order differs)",
                self.threads
            )));
        }
        if self.tag != tag {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint configuration '{}' does not match this run's '{tag}'",
                self.tag
            )));
        }
        Ok(())
    }

    /// Restores the checkpointed parameters and RNG streams into `net` and
    /// returns the loop-resume description for
    /// [`crate::session::TrainSession::restore`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the parameters or RNG states
    /// do not fit the network.
    pub fn apply(&self, net: &mut Network) -> Result<BiasedResume, CoreError> {
        self.params.load_into(net).map_err(|e| {
            CoreError::Checkpoint(format!("checkpoint parameters do not fit the network: {e}"))
        })?;
        net.restore_rng_states(&self.net_rngs).map_err(|e| {
            CoreError::Checkpoint(format!("checkpoint RNG states do not fit the network: {e}"))
        })?;
        Ok(BiasedResume {
            completed: self.completed.clone(),
            trainer: self.trainer.clone(),
        })
    }

    /// Encodes the checkpoint into the versioned, checksummed binary
    /// format described at the module level.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.seed);
        put_u32(&mut payload, self.threads);
        put_str(&mut payload, &self.tag);
        put_blob(&mut payload, &self.params);
        put_rngs(&mut payload, &self.net_rngs);
        put_u32(&mut payload, self.completed.len() as u32);
        for round in &self.completed {
            put_f32(&mut payload, round.epsilon);
            put_report(&mut payload, &round.report);
        }
        match &self.trainer {
            None => payload.push(0),
            Some(state) => {
                payload.push(1);
                put_trainer(&mut payload, state);
            }
        }
        match &self.active {
            None => payload.push(0),
            Some(active) => {
                payload.push(1);
                put_u64(&mut payload, active.labeler_calls);
                put_u32(&mut payload, active.rounds.len() as u32);
                for round in &active.rounds {
                    put_u32(&mut payload, round.selected.len() as u32);
                    for (&idx, &label) in round.selected.iter().zip(round.labels.iter()) {
                        put_u64(&mut payload, idx);
                        payload.push(label as u8);
                    }
                }
            }
        }
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, crc32(&payload));
        put_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        buf
    }

    /// Decodes a buffer produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] for a truncated buffer, bad magic
    /// or version, length or checksum mismatch, or any malformed section —
    /// decoding never panics and never silently accepts corrupted state.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        if data.len() < HEADER_LEN {
            return Err(bad(format!(
                "buffer too short for header: {} bytes",
                data.len()
            )));
        }
        if &data[..4] != MAGIC {
            return Err(bad("bad magic (expected \"HSCK\")".into()));
        }
        let mut header = Reader::new(&data[4..HEADER_LEN]);
        let version = header.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {MIN_VERSION}..={VERSION})"
            )));
        }
        let crc_declared = header.u32()?;
        let payload_len = header.u64()?;
        let payload = &data[HEADER_LEN..];
        if payload_len != payload.len() as u64 {
            return Err(bad(format!(
                "declared payload length {payload_len} does not match actual {} bytes",
                payload.len()
            )));
        }
        let crc_actual = crc32(payload);
        if crc_actual != crc_declared {
            return Err(bad(format!(
                "payload checksum mismatch: stored {crc_declared:#010x}, computed {crc_actual:#010x}"
            )));
        }
        let mut r = Reader::new(payload);
        let seed = r.u64()?;
        let threads = r.u32()?;
        let tag = r.string()?;
        let params = r.blob()?;
        let net_rngs = r.rngs()?;
        let round_count = r.count(4)?; // ε alone costs 4 bytes per round
        let mut completed = Vec::with_capacity(round_count);
        for _ in 0..round_count {
            let epsilon = r.f32()?;
            let report = r.report()?;
            completed.push(BiasRound { epsilon, report });
        }
        let trainer = match r.u8()? {
            0 => None,
            1 => Some(r.trainer()?),
            flag => return Err(bad(format!("invalid trainer-presence flag {flag}"))),
        };
        let active = if version >= 2 {
            match r.u8()? {
                0 => None,
                1 => Some(r.active()?),
                flag => return Err(bad(format!("invalid active-presence flag {flag}"))),
            }
        } else {
            None
        };
        r.finish()?;
        Ok(Checkpoint {
            seed,
            threads,
            tag,
            params,
            net_rngs,
            completed,
            trainer,
            active,
        })
    }

    /// Atomically persists the checkpoint to `path` (see [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        write_atomic(path, &self.to_bytes())
            .map_err(|e| bad(format!("writing {}: {e}", path.display())))
    }

    /// Loads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] for I/O failures and every decode
    /// failure of [`Checkpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let data = fs::read(path).map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
        Checkpoint::from_bytes(&data)
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory (Unix). Readers see
/// either the previous complete file or the new complete file, never a
/// partial write.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temp file is removed on
/// failure (best effort).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(dir) = dir {
            // Make the rename itself durable: fsync the directory entry.
            fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn bad(why: String) -> CoreError {
    CoreError::Checkpoint(why)
}

// ---- encoding helpers -------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_blob(buf: &mut Vec<u8>, blob: &ParameterBlob) {
    let bytes = blob.to_bytes();
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(&bytes);
}

fn put_rngs(buf: &mut Vec<u8>, rngs: &[[u64; 4]]) {
    put_u32(buf, rngs.len() as u32);
    for state in rngs {
        for &word in state {
            put_u64(buf, word);
        }
    }
}

fn put_report(buf: &mut Vec<u8>, report: &TrainReport) {
    put_u32(buf, report.history.len() as u32);
    for point in &report.history {
        put_u64(buf, point.step as u64);
        put_f64(buf, point.elapsed_s);
        put_f64(buf, point.val_accuracy);
    }
    put_f64(buf, report.best_val_accuracy);
    put_u64(buf, report.steps as u64);
    put_f64(buf, report.train_time_s);
}

fn put_trainer(buf: &mut Vec<u8>, state: &TrainerState) {
    put_f32(buf, state.epsilon);
    put_u64(buf, state.steps as u64);
    put_f32(buf, state.lr);
    put_u64(buf, state.lr_counter as u64);
    for &word in &state.batch_rng {
        put_u64(buf, word);
    }
    for &word in &state.sampler_rng {
        put_u64(buf, word);
    }
    put_blob(buf, &state.params);
    put_blob(buf, &state.best);
    put_f64(buf, state.best_acc);
    put_u64(buf, state.bad_checks as u64);
    put_u32(buf, state.history.len() as u32);
    for point in &state.history {
        put_u64(buf, point.step as u64);
        put_f64(buf, point.elapsed_s);
        put_f64(buf, point.val_accuracy);
    }
    put_f64(buf, state.elapsed_s);
    put_rngs(buf, &state.net_rngs);
    put_rngs(buf, &state.replica_rngs);
}

// ---- hardened decoding ------------------------------------------------

/// A non-panicking cursor over the checkpoint payload: every read checks
/// the remaining length first, and every declared element count is
/// validated against the remaining bytes before allocation.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.data.len() < n {
            return Err(bad(format!(
                "truncated payload: wanted {n} bytes, {} remain",
                self.data.len()
            )));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn f32(&mut self) -> Result<f32, CoreError> {
        Ok(f32::from_le_bytes(match self.take(4)?.try_into() {
            Ok(raw) => raw,
            Err(_) => unreachable!("take(4) yields 4 bytes"),
        }))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(match self.take(8)?.try_into() {
            Ok(raw) => raw,
            Err(_) => unreachable!("take(8) yields 8 bytes"),
        }))
    }

    fn usize64(&mut self) -> Result<usize, CoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("value {v} exceeds the platform word size")))
    }

    /// Reads a `u32` element count and validates it against the remaining
    /// bytes assuming at least `min_elem_size` bytes per element, so a
    /// corrupted count cannot trigger an absurd allocation.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, CoreError> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_elem_size) {
            Some(need) if need <= self.data.len() => Ok(count),
            _ => Err(bad(format!(
                "declared count {count} exceeds the {} remaining bytes",
                self.data.len()
            ))),
        }
    }

    fn string(&mut self) -> Result<String, CoreError> {
        let len = self.count(1)?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| bad("tag is not valid UTF-8".into()))
    }

    fn blob(&mut self) -> Result<ParameterBlob, CoreError> {
        let len = self.usize64()?;
        let raw = self.take(len)?;
        ParameterBlob::from_bytes(raw).map_err(|e| bad(format!("embedded parameter blob: {e}")))
    }

    fn rngs(&mut self) -> Result<Vec<[u64; 4]>, CoreError> {
        let count = self.count(32)?;
        let mut rngs = Vec::with_capacity(count);
        for _ in 0..count {
            rngs.push([self.u64()?, self.u64()?, self.u64()?, self.u64()?]);
        }
        Ok(rngs)
    }

    fn history(&mut self) -> Result<Vec<TrainPoint>, CoreError> {
        let count = self.count(24)?;
        let mut history = Vec::with_capacity(count);
        for _ in 0..count {
            history.push(TrainPoint {
                step: self.usize64()?,
                elapsed_s: self.f64()?,
                val_accuracy: self.f64()?,
            });
        }
        Ok(history)
    }

    fn report(&mut self) -> Result<TrainReport, CoreError> {
        Ok(TrainReport {
            history: self.history()?,
            best_val_accuracy: self.f64()?,
            steps: self.usize64()?,
            train_time_s: self.f64()?,
        })
    }

    fn trainer(&mut self) -> Result<TrainerState, CoreError> {
        Ok(TrainerState {
            epsilon: self.f32()?,
            steps: self.usize64()?,
            lr: self.f32()?,
            lr_counter: self.usize64()?,
            batch_rng: [self.u64()?, self.u64()?, self.u64()?, self.u64()?],
            sampler_rng: [self.u64()?, self.u64()?, self.u64()?, self.u64()?],
            params: self.blob()?,
            best: self.blob()?,
            best_acc: self.f64()?,
            bad_checks: self.usize64()?,
            history: self.history()?,
            elapsed_s: self.f64()?,
            net_rngs: self.rngs()?,
            replica_rngs: self.rngs()?,
        })
    }

    fn active(&mut self) -> Result<ActiveState, CoreError> {
        let labeler_calls = self.u64()?;
        let round_count = self.count(4)?; // each round carries ≥ a u32 count
        let mut rounds = Vec::with_capacity(round_count);
        for _ in 0..round_count {
            let len = self.count(9)?; // u64 index + u8 label per selection
            let mut selected = Vec::with_capacity(len);
            let mut labels = Vec::with_capacity(len);
            for _ in 0..len {
                selected.push(self.u64()?);
                labels.push(match self.u8()? {
                    0 => false,
                    1 => true,
                    flag => return Err(bad(format!("invalid oracle-label byte {flag}"))),
                });
            }
            rounds.push(ActiveRoundState { selected, labels });
        }
        Ok(ActiveState {
            rounds,
            labeler_calls,
        })
    }

    /// Rejects trailing garbage: a valid payload is consumed exactly.
    fn finish(&self) -> Result<(), CoreError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after the checkpoint payload",
                self.data.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::{Dense, Dropout, Relu};

    fn sample_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 6, 1));
        net.push(Relu::new());
        net.push(Dropout::new(0.5, 2));
        net.push(Dense::new(6, 2, 3));
        net
    }

    fn sample_checkpoint(trainer: bool) -> Checkpoint {
        let mut net = sample_net();
        let params = ParameterBlob::from_network(&mut net);
        let report = TrainReport {
            history: vec![
                TrainPoint {
                    step: 0,
                    elapsed_s: 0.25,
                    val_accuracy: 0.5,
                },
                TrainPoint {
                    step: 100,
                    elapsed_s: 1.5,
                    val_accuracy: 0.875,
                },
            ],
            best_val_accuracy: 0.875,
            steps: 150,
            train_time_s: 2.0,
        };
        Checkpoint {
            seed: 42,
            threads: 3,
            tag: "res=10 grid=12 k=8".into(),
            params: params.clone(),
            net_rngs: net.rng_states(),
            completed: vec![BiasRound {
                epsilon: 0.0,
                report: report.clone(),
            }],
            trainer: trainer.then(|| TrainerState {
                epsilon: 0.1,
                steps: 75,
                lr: 5e-4,
                lr_counter: 33,
                batch_rng: [1, 2, 3, 4],
                sampler_rng: [5, 6, 7, 8],
                params: params.clone(),
                best: params,
                best_acc: 0.625,
                bad_checks: 1,
                history: report.history.clone(),
                elapsed_s: 1.25,
                net_rngs: vec![[9, 10, 11, 12]],
                replica_rngs: vec![[13, 14, 15, 16], [17, 18, 19, 20], [21, 22, 23, 24]],
            }),
            active: None,
        }
    }

    fn sample_active() -> ActiveState {
        ActiveState {
            rounds: vec![
                ActiveRoundState {
                    selected: vec![3, 17, 42],
                    labels: vec![true, false, true],
                },
                ActiveRoundState {
                    selected: vec![5],
                    labels: vec![false],
                },
            ],
            labeler_calls: 4,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        for trainer in [false, true] {
            for active in [false, true] {
                let mut ckpt = sample_checkpoint(trainer);
                if active {
                    ckpt = ckpt.with_active(sample_active());
                }
                let bytes = ckpt.to_bytes();
                assert_eq!(&bytes[..4], b"HSCK");
                assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ckpt);
            }
        }
    }

    #[test]
    fn version_1_files_still_load() {
        // A v1 payload is the v2 payload minus the trailing active
        // section; synthesise one and fix up the header.
        let ckpt = sample_checkpoint(true);
        let mut bytes = ckpt.to_bytes();
        assert_eq!(bytes[bytes.len() - 1], 0, "active-absent flag");
        bytes.pop(); // drop the active section entirely (v1 layout)
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let payload_len = (bytes.len() - HEADER_LEN) as u64;
        bytes[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        let decoded = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        assert_eq!(decoded.active, None);
        // A v1 file may not carry an active section.
        let mut with_tail = bytes.clone();
        with_tail.push(0);
        let payload_len = (with_tail.len() - HEADER_LEN) as u64;
        with_tail[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&with_tail[HEADER_LEN..]);
        with_tail[8..12].copy_from_slice(&crc.to_le_bytes());
        assert!(Checkpoint::from_bytes(&with_tail).is_err());
    }

    #[test]
    fn unknown_versions_rejected() {
        let mut bytes = sample_checkpoint(false).to_bytes();
        for v in [0u32, 3, 999] {
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            let err = Checkpoint::from_bytes(&bytes).unwrap_err();
            assert!(err.to_string().contains("version"), "got {err}");
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_checkpoint(true).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample_checkpoint(true).to_bytes();
        for offset in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "bit flip at offset {offset} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Extend the payload and fix up length + CRC so only the trailing
        // check can catch it.
        let ckpt = sample_checkpoint(false);
        let mut bytes = ckpt.to_bytes();
        bytes.push(0xAB);
        let payload_len = (bytes.len() - HEADER_LEN) as u64;
        bytes[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "got {err}");
    }

    #[test]
    fn apply_restores_network_and_resume() {
        let ckpt = sample_checkpoint(false);
        let mut net = sample_net();
        // Perturb the network, then apply.
        net.visit_params(&mut |w, _| {
            for v in w.iter_mut() {
                *v += 1.0;
            }
        });
        let resume = ckpt.apply(&mut net).unwrap();
        assert_eq!(ParameterBlob::from_network(&mut net), ckpt.params);
        assert_eq!(resume.completed, ckpt.completed);
        assert_eq!(resume.trainer, None);
        // A differently-shaped network is rejected.
        let mut small = Network::new();
        small.push(Dense::new(2, 2, 0));
        assert!(ckpt.apply(&mut small).is_err());
    }

    #[test]
    fn validate_run_catches_mismatches() {
        let ckpt = sample_checkpoint(false);
        assert!(ckpt.validate_run(42, 3, "res=10 grid=12 k=8").is_ok());
        assert!(ckpt.validate_run(43, 3, "res=10 grid=12 k=8").is_err());
        assert!(ckpt.validate_run(42, 2, "res=10 grid=12 k=8").is_err());
        assert!(ckpt.validate_run(42, 3, "res=20 grid=12 k=8").is_err());
    }

    #[test]
    fn save_load_roundtrip_and_atomic_replace() {
        let dir = std::env::temp_dir().join(format!("hsck-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let first = sample_checkpoint(false);
        first.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), first);
        // Overwrite with a newer snapshot: the replace is atomic and no
        // temp file survives.
        let second = sample_checkpoint(true);
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("run.ckpt")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_of_missing_file_errors() {
        let err = Checkpoint::load(Path::new("/nonexistent/dir/run.ckpt")).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)));
    }
}
