//! Seeded inputs and the models every workload fits in set-up.
//!
//! The benchmark seed drives the suite, layout, training and request
//! seeds; the program only ever sees the generated inputs.

use hotspot_core::{
    BiasedLearningConfig, CascadeConfig, CascadePrefilter, DetectorConfig, FeaturePipeline,
    HotspotDetector, MgdConfig, Parallelism,
};
use hotspot_datagen::suite::{BenchmarkData, SuiteSpec};
use hotspot_datagen::LayoutSpec;
use hotspot_geometry::Clip;
use hotspot_litho::{LithoConfig, LithoSimulator};
use hotspot_nn::serialize::ParameterBlob;

/// Suite scale: 74 training and 37 test clips of the all-family
/// Industry3 mix. Litho labelling costs ~10 ms per clip, and set-up runs
/// five times per run, so the suite stays small; throughput per clip
/// and request does not depend on the suite size.
const SUITE_SCALE: f64 = 0.001;
/// Layout tiles per axis (30 × 1200 nm).
const TILES: usize = 30;
/// Scan window (the paper's clip side).
pub const WINDOW_NM: i64 = 1200;
/// Block-aligned stride: three 100 nm DCT blocks, 117 × 117 windows.
pub const STRIDE_NM: i64 = 300;
/// Initial MGD steps of the paper's schedule at benchmark size.
const INITIAL_STEPS: usize = 48;
/// Steps of each biased fine-tune round (a quarter of the initial round).
const FINE_TUNE_STEPS: usize = 12;
/// Learning rate of the initial round, held for the whole round; the
/// fine-tunes run at half of it. At the full-size schedule's 1e-3 (and
/// at 1e-2), no validation check of a round this short beat the
/// untrained network on some seeds, so the fit returned the untrained
/// weights; at 0.1 every one of 53 probed seeds trained.
const LR: f32 = 0.1;
/// Rounds: the initial ε = 0 round plus three fine-tunes (paper t = 4).
const ROUNDS: usize = 4;

/// splitmix64: derives independent seeds from the benchmark seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which seed stream feeds which input.
pub enum Stream {
    Suite = 1,
    Layout = 2,
    Training = 3,
    Requests = 4,
    Checks = 5,
}

pub fn seed_for(seed: u64, stream: Stream) -> u64 {
    mix(seed, stream as u64)
}

/// The paper's training schedule at benchmark size: an MGD round, then
/// biased fine-tunes at ε step 0.1, batch 32, k = 32, one thread. Early
/// stopping is off (patience never runs out), so every fit does the same
/// number of steps whatever the seed.
pub fn detector_config(seed: u64) -> DetectorConfig {
    let mgd = MgdConfig {
        lr: LR,
        alpha: 0.5,
        decay_step: INITIAL_STEPS,
        batch_size: 32,
        max_steps: INITIAL_STEPS,
        val_interval: 4,
        patience: usize::MAX,
        val_fraction: 0.25,
        seed: seed_for(seed, Stream::Training),
        balanced_sampling: true,
        threads: 1,
    };
    let fine_tune = MgdConfig {
        max_steps: FINE_TUNE_STEPS,
        lr: LR / 2.0,
        ..mgd.clone()
    };
    DetectorConfig {
        pipeline: FeaturePipeline::new(10, 12, 32).expect("valid pipeline parameters"),
        mgd: mgd.clone(),
        biased: BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds: ROUNDS,
            initial: mgd,
            fine_tune,
        },
        parallelism: Parallelism::serial(),
        ..DetectorConfig::default()
    }
}

/// The CLI's default prefilter: 12 × 12 density grid, 64 stumps, margin
/// calibrated to a false-negative rate of 0 on a 25% holdout.
pub fn cascade_config() -> CascadeConfig {
    CascadeConfig {
        grid_dim: 12,
        rounds: 64,
        target_fnr: 0.0,
        holdout_fraction: 0.25,
    }
}

/// The lithography oracle that labels every suite.
pub fn simulator() -> LithoSimulator {
    LithoSimulator::new(LithoConfig::default()).expect("default litho config is valid")
}

/// The seeded suite's spec.
pub fn suite_spec(seed: u64) -> SuiteSpec {
    let mut spec = SuiteSpec::industry3(SUITE_SCALE);
    spec.seed = seed_for(seed, Stream::Suite);
    spec
}

/// The seeded suite (litho-labelled).
pub fn suite(seed: u64) -> BenchmarkData {
    suite_spec(seed).build(&simulator())
}

/// Fits the detector with the benchmark schedule; scoring stays serial.
pub fn fit(data: &BenchmarkData, seed: u64) -> HotspotDetector {
    let mut det = HotspotDetector::fit(&data.train, &detector_config(seed))
        .expect("the seeded suite trains a detector");
    det.set_parallelism(Parallelism::serial());
    det
}

/// Whether a detector fitted with [`detector_config`]`(seed)` holds finite
/// weights that differ from the untrained network's. Each round keeps its
/// best-validation snapshot, starting from the weights it was given, so a
/// fit whose updates never help (or never happen) returns the untrained
/// network.
pub fn trained(det: &mut HotspotDetector, seed: u64) -> bool {
    let untrained =
        ParameterBlob::from_network(&mut detector_config(seed).reconciled_cnn().build());
    let blob = ParameterBlob::from_network(det.network_mut());
    blob.as_slice().iter().all(|w| w.is_finite()) && blob.to_bytes() != untrained.to_bytes()
}

/// The prefilter's training suite: the registry Industry3 suite at the
/// benchmark scale, with its own fixed seed. Calibrated to FNR 0 on a
/// seeded 18-clip holdout, the threshold lands above or below the margin
/// of blank windows depending on the seed, so the prefilter cleared
/// either almost none or almost all of the sparse layout's windows
/// (throughput spread 63% over ten seeds). Fitted on one suite, like a
/// shipped prefilter file, it clears a steady share of every seeded
/// layout.
pub fn prefilter_suite() -> BenchmarkData {
    SuiteSpec::industry3(SUITE_SCALE).build(&simulator())
}

pub fn prefilter(det: &HotspotDetector, data: &BenchmarkData) -> CascadePrefilter {
    det.train_prefilter(&data.train, &cascade_config())
        .expect("the seeded suite trains a prefilter")
}

/// The dense layout: every tile drawn from every pattern family.
pub fn dense_layout(seed: u64) -> Clip {
    LayoutSpec::uniform(TILES, TILES, seed_for(seed, Stream::Layout)).build()
}

/// The sparse layout of the existing scan bench: the dense layout's tiles
/// kept only on a 1-in-9 lattice (scattered IP blocks in quiet area).
/// Tile shapes never cross their 1200 nm tile border.
pub fn sparse_layout(dense: &Clip) -> Clip {
    let mut clip = Clip::new(dense.window());
    for shape in dense.shapes() {
        let (tx, ty) = (shape.lo().x / WINDOW_NM, shape.lo().y / WINDOW_NM);
        if tx % 3 == 0 && ty % 3 == 0 {
            clip.push(*shape);
        }
    }
    clip
}

/// Window low-corner offsets along one axis, as the scan places them:
/// stride multiples while the window fits, plus one flush to the edge.
pub fn axis_positions(extent_nm: i64) -> Vec<i64> {
    let mut xs = Vec::new();
    let mut x = 0;
    while x + WINDOW_NM <= extent_nm {
        xs.push(x);
        x += STRIDE_NM;
    }
    let flush = extent_nm - WINDOW_NM;
    if xs.last() != Some(&flush) {
        xs.push(flush);
    }
    xs
}
