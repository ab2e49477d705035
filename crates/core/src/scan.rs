//! Full-layout sliding-window scanning with block-DCT reuse.
//!
//! The paper classifies isolated 1200×1200 nm clips; deployment scans a
//! *layout* — a region many windows wide — by sliding that window on a
//! stride grid and scoring every position. Done naively, each window is
//! re-rasterised and re-transformed from scratch even though adjacent
//! windows share most of their area. This module exploits the structure of
//! the feature tensor instead: the tensor is built from per-block DCT
//! coefficients on a fixed block grid, so when the scan stride is a
//! multiple of the block size, every window's blocks land on one shared
//! *layout-global* block lattice. The layout is rasterised once, each
//! lattice block is transformed once ([`hotspot_dct::BlockDctPlan`]), and
//! overlapping windows assemble their tensors from the shared cache — at a
//! dense stride of one block, this cuts DCT work per window from `n × n`
//! blocks to roughly `n`.
//!
//! The cache is **bit-exact**: rasterisation accumulates per-pixel coverage
//! only from shapes that actually touch a pixel (in insertion order), so a
//! pixel-aligned crop of the full-layout raster equals the raster of the
//! extracted clip, and [`hotspot_dct::BlockDctPlan::coefficients_for`]
//! replays exactly the per-block arithmetic of whole-image extraction.
//! Scan scores are therefore bit-identical to extracting each window with
//! [`hotspot_geometry::Clip::extract_window`] and scoring it through
//! [`HotspotDetector::predict_batch`] — a property pinned by a property
//! test at the workspace root. Windows whose position does not align with
//! the block lattice fall back to computing their blocks directly from the
//! shared raster (still rasterising only once, but without coefficient
//! reuse).
//!
//! The scan itself is **tiled**: the window-row grid is split into
//! horizontal bands, one worker thread per band (see
//! [`crate::Parallelism`]), and each worker owns its raster strip, its
//! block-DCT cache shard and its batch scorer. Band results are
//! deterministic and thread-count-independent — scores are bit-identical
//! per window, regions merge globally after all bands join, and cache
//! statistics are reconstructed to match a single shared cache exactly.
//!
//! Optionally the scan runs as a **two-stage cascade**
//! ([`ScanConfig::with_cascade`]): a calibrated density/AdaBoost
//! prefilter ([`CascadePrefilter`]) scores every window's raster crop
//! first, and only windows whose signed margin clears the calibrated
//! threshold are forwarded to the CNN. Cleared windows record their
//! margin, score `0.0` and `hotspot: false`; forwarded windows are
//! compacted into full scoring blocks and their CNN scores are
//! bit-identical to the non-cascade scan (batched scoring is
//! composition-independent, so compaction never changes a score).
//!
//! Flagged windows are merged into hotspot *regions* by
//! connected-component clustering: two positive windows belong to the same
//! region when their windows overlap. A [`ScanReport`] carries the
//! per-window scores (with the stage that decided each window), the
//! merged regions, cache statistics, CNN-evaluation counts, the resolved
//! thread count, per-phase wall times and throughput, and serialises
//! itself to JSON for downstream tooling.

use crate::api::{self, ModelProvenance};
use crate::cascade::{prefilter_features, CascadePrefilter};
use crate::detector::HotspotDetector;
use crate::CoreError;
use hotspot_dct::BlockDctPlan;
use hotspot_features::density_feature;
use hotspot_geometry::{raster, Clip, Grid, Point, Rect};
use hotspot_nn::engine::BatchScorer;
use hotspot_nn::parallelism::map_parts;
use hotspot_nn::{loss, Network};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Sliding-window scan parameters.
///
/// Built with [`ScanConfig::new`] plus builder-style refinement; every
/// setter validates, so a constructed config is internally consistent
/// (detector-dependent constraints — resolution and block-grid
/// divisibility — are checked by [`HotspotDetector::scan`]).
///
/// # Examples
///
/// ```
/// use hotspot_core::ScanConfig;
///
/// # fn main() -> Result<(), hotspot_core::CoreError> {
/// let config = ScanConfig::new(600)?.with_threshold(0.7)?;
/// assert_eq!(config.window_nm(), 1200); // the paper's clip size
/// assert!(ScanConfig::new(0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScanConfig {
    stride_nm: i64,
    window_nm: i64,
    threshold: f32,
    score_block: Option<usize>,
    cascade: Option<CascadePrefilter>,
    provenance: Option<ModelProvenance>,
}

impl ScanConfig {
    /// A scan advancing `stride_nm` per step with the paper's 1200 nm
    /// window and a 0.5 decision threshold.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive stride.
    pub fn new(stride_nm: i64) -> Result<Self, CoreError> {
        if stride_nm <= 0 {
            return Err(CoreError::InvalidConfig("scan stride must be positive"));
        }
        Ok(ScanConfig {
            stride_nm,
            window_nm: 1200,
            threshold: 0.5,
            score_block: None,
            cascade: None,
            provenance: None,
        })
    }

    /// Overrides the window side length.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive window.
    pub fn with_window_nm(mut self, window_nm: i64) -> Result<Self, CoreError> {
        if window_nm <= 0 {
            return Err(CoreError::InvalidConfig("scan window must be positive"));
        }
        self.window_nm = window_nm;
        Ok(self)
    }

    /// Overrides the hotspot decision threshold (a window is flagged when
    /// its score is strictly greater).
    ///
    /// # Errors
    ///
    /// Rejects thresholds outside `[0, 1]`.
    pub fn with_threshold(mut self, threshold: f32) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(CoreError::InvalidConfig("scan threshold must be in [0, 1]"));
        }
        self.threshold = threshold;
        Ok(self)
    }

    /// Overrides how many windows are scored per batched GEMM pass. By
    /// default the block size is chosen from the execution plan's arena
    /// footprint ([`hotspot_nn::engine::ShapePlan::suggested_batch`]);
    /// scores are bit-identical for every block size, so this knob trades
    /// only memory against GEMM efficiency.
    ///
    /// # Errors
    ///
    /// Rejects a zero block size.
    pub fn with_score_block(mut self, block: usize) -> Result<Self, CoreError> {
        if block == 0 {
            return Err(CoreError::InvalidConfig("scan score block must be nonzero"));
        }
        self.score_block = Some(block);
        Ok(self)
    }

    /// Enables two-stage cascade scanning: every window is margin-scored
    /// by `prefilter` first, and only passing windows reach the CNN.
    /// Cleared windows keep score `0.0` and record their margin. The
    /// prefilter's density grid must divide the scan window in pixels
    /// (checked by [`HotspotDetector::scan`], which knows the raster
    /// resolution).
    #[must_use]
    pub fn with_cascade(mut self, prefilter: CascadePrefilter) -> Self {
        self.cascade = Some(prefilter);
        self
    }

    /// Removes a previously configured cascade prefilter.
    #[must_use]
    pub fn without_cascade(mut self) -> Self {
        self.cascade = None;
        self
    }

    /// Stamps the scan with the provenance of the model that will run
    /// it, so the report names the exact weights behind every score.
    #[must_use]
    pub fn with_provenance(mut self, provenance: ModelProvenance) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// The configured provenance stamp, if any.
    pub fn provenance(&self) -> Option<ModelProvenance> {
        self.provenance
    }

    /// The configured cascade prefilter, if any.
    pub fn cascade(&self) -> Option<&CascadePrefilter> {
        self.cascade.as_ref()
    }

    /// Step between window positions, nm.
    #[inline]
    pub fn stride_nm(&self) -> i64 {
        self.stride_nm
    }

    /// Window side length, nm.
    #[inline]
    pub fn window_nm(&self) -> i64 {
        self.window_nm
    }

    /// Decision threshold.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Configured scoring block size (`None` defers to the plan's
    /// suggestion).
    #[inline]
    pub fn score_block(&self) -> Option<usize> {
        self.score_block
    }
}

/// Block-DCT cache accounting for one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Blocks transformed with a fresh DCT.
    pub computed: usize,
    /// Block lookups served from the shared cache.
    pub hits: usize,
}

impl CacheStats {
    /// Total block fetches (`computed + hits`).
    #[inline]
    pub fn lookups(&self) -> usize {
        self.computed + self.hits
    }

    /// Fraction of block fetches served from the cache (0 when no blocks
    /// were fetched).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Which cascade stage produced a window's final decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStage {
    /// The prefilter cleared the window; the CNN never saw it.
    Prefilter,
    /// The CNN scored the window (always the case without a cascade).
    Cnn,
}

impl ScanStage {
    /// Stable lower-case name used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            ScanStage::Prefilter => "prefilter",
            ScanStage::Cnn => "cnn",
        }
    }
}

/// One scored window position (layout-frame nm coordinates of the window's
/// low corner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowScore {
    /// Window low-corner x, nm.
    pub x_nm: i64,
    /// Window low-corner y, nm.
    pub y_nm: i64,
    /// Predicted hotspot probability (`0.0` for prefilter-cleared
    /// windows, which the CNN never scored).
    pub score: f32,
    /// Whether the score exceeded the scan threshold (always `false` for
    /// prefilter-cleared windows).
    pub hotspot: bool,
    /// The prefilter's signed ensemble margin (`None` when the scan ran
    /// without a cascade; cascade scans record it for every window).
    pub margin: Option<f32>,
    /// The stage whose decision this window carries.
    pub stage: ScanStage,
}

/// A cluster of overlapping flagged windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotRegion {
    /// Bounding-box low x, nm (layout frame).
    pub x0_nm: i64,
    /// Bounding-box low y, nm.
    pub y0_nm: i64,
    /// Bounding-box high x, nm.
    pub x1_nm: i64,
    /// Bounding-box high y, nm.
    pub y1_nm: i64,
    /// Flagged windows merged into this region.
    pub windows: usize,
    /// Highest window score in the region.
    pub peak_score: f32,
    /// Mean window score in the region.
    pub mean_score: f32,
}

/// Cascade accounting for one scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeScanStats {
    /// The calibrated margin threshold the prefilter applied.
    pub margin_threshold: f32,
    /// Windows the prefilter cleared (CNN never evaluated them).
    pub cleared: usize,
    /// Windows forwarded to (and scored by) the CNN.
    pub forwarded: usize,
}

/// Everything a full-layout scan produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Layout extent along x, nm.
    pub layout_width_nm: i64,
    /// Layout extent along y, nm.
    pub layout_height_nm: i64,
    /// Scan stride, nm.
    pub stride_nm: i64,
    /// Window side, nm.
    pub window_nm: i64,
    /// Decision threshold.
    pub threshold: f32,
    /// Window positions along x.
    pub grid_cols: usize,
    /// Window positions along y.
    pub grid_rows: usize,
    /// Per-window scores, row-major (y-major, x-minor) over the stride
    /// grid.
    pub windows: Vec<WindowScore>,
    /// Merged hotspot regions, sorted by (y, x) of their low corner.
    pub regions: Vec<HotspotRegion>,
    /// Block-DCT cache accounting.
    pub cache: CacheStats,
    /// Windows the CNN actually evaluated (equal to `windows.len()`
    /// without a cascade).
    pub cnn_evals: usize,
    /// Cascade accounting (`None` when the scan ran without a cascade).
    pub cascade: Option<CascadeScanStats>,
    /// Worker threads the tiled scan resolved to (bands actually used).
    pub threads: usize,
    /// Wall time of the serial prefix (validation, geometry, execution
    /// planning), seconds.
    pub prepare_s: f64,
    /// Wall time of the tiled rasterise + feature + score phase, seconds.
    pub scan_s: f64,
    /// Wall time of window assembly and region merging, seconds.
    pub merge_s: f64,
    /// Wall-clock scan time, seconds.
    pub elapsed_s: f64,
    /// Identity of the weights that produced the scores (`None` when the
    /// caller did not stamp one via [`ScanConfig::with_provenance`]).
    pub provenance: Option<ModelProvenance>,
}

impl ScanReport {
    /// Number of flagged windows.
    pub fn positives(&self) -> usize {
        self.windows.iter().filter(|w| w.hotspot).count()
    }

    /// Scored windows per second of wall-clock time (0 for an
    /// instantaneous scan).
    pub fn windows_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.windows.len() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// CNN forward passes per scanned window — 1.0 without a cascade,
    /// lower when the prefilter cleared windows (0 for an empty scan).
    pub fn cnn_evals_per_window(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.cnn_evals as f64 / self.windows.len() as f64
        }
    }

    /// Serialises the report as the canonical v1 JSON object
    /// ([`api::scan_report_json`]) — the same schema the serve daemon
    /// embeds in its `scan` responses, validated by the CI smoke jobs.
    pub fn to_json(&self) -> String {
        api::scan_report_json(self)
    }
}

/// Window low-corner offsets covering `extent_nm`: stride multiples while
/// the window fits, plus a flush-to-edge position so the far border is
/// always scanned.
fn axis_positions(extent_nm: i64, window_nm: i64, stride_nm: i64) -> Vec<i64> {
    let mut xs = Vec::new();
    let mut x = 0;
    while x + window_nm <= extent_nm {
        xs.push(x);
        x += stride_nm;
    }
    let flush = extent_nm - window_nm;
    if xs.last() != Some(&flush) {
        xs.push(flush);
    }
    xs
}

/// Assembles one window's feature tensor from per-block DCT coefficients,
/// written into the caller's `data` slice (length `k·n·n`) so a scan can
/// fill one flat feature buffer without allocating per window.
///
/// Aligned windows (low corner on the block lattice) fetch blocks through
/// the shared cache; others transform their blocks directly from the
/// layout raster. Either path reproduces
/// [`crate::feature::FeaturePipeline::extract`] bit-for-bit.
///
/// `x_px`/`y_px` and the cache keys are **layout-global** pixel/lattice
/// coordinates; `raster_y0_px` is the global pixel row where the caller's
/// (possibly strip-cropped) `layout_raster` begins, so a tiled scan can
/// pass a per-band raster strip while keeping cache keys comparable
/// across bands.
#[allow(clippy::too_many_arguments)]
fn window_feature_into(
    data: &mut [f32],
    layout_raster: &Grid<f32>,
    raster_y0_px: usize,
    plan: &BlockDctPlan,
    cache: &mut HashMap<(usize, usize), Vec<f32>>,
    stats: &mut CacheStats,
    x_px: usize,
    y_px: usize,
    grid_dim: usize,
) -> Result<(), CoreError> {
    let b = plan.block_size();
    let k = plan.coefficients();
    let n = grid_dim;
    debug_assert_eq!(data.len(), k * n * n, "window feature slice length");
    let scale = 1.0 / b as f32;
    let width = layout_raster.width();
    if x_px + n * b > width
        || y_px < raster_y0_px
        || y_px + n * b > raster_y0_px + layout_raster.height()
    {
        return Err(CoreError::InvalidConfig(
            "scan window leaves its raster strip",
        ));
    }
    let pixels = layout_raster.as_slice();
    // The kernel reads block (x, y) in place, rows `width` apart.
    let corner = |x: usize, y: usize| (y - raster_y0_px) * width + x;
    let aligned = x_px.is_multiple_of(b) && y_px.is_multiple_of(b);
    for j in 0..n {
        for i in 0..n {
            let cell = &mut data[j * n + i..];
            if aligned {
                let key = (x_px / b + i, y_px / b + j);
                let coeffs: &Vec<f32> = match cache.entry(key) {
                    std::collections::hash_map::Entry::Occupied(entry) => {
                        stats.hits += 1;
                        entry.into_mut()
                    }
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        let mut coeffs = vec![0.0f32; k];
                        let block = &pixels[corner(key.0 * b, key.1 * b)..];
                        plan.transform_into(block, width, scale, &mut coeffs, 1);
                        stats.computed += 1;
                        entry.insert(coeffs)
                    }
                };
                for c in 0..k {
                    cell[c * n * n] = coeffs[c];
                }
            } else {
                let block = &pixels[corner(x_px + i * b, y_px + j * b)..];
                plan.transform_into(block, width, scale, cell, n * n);
                stats.computed += 1;
            }
        }
    }
    Ok(())
}

/// Splits `rows` window rows into at most `bands` contiguous near-equal
/// ranges; leading bands take the remainder rows.
fn band_ranges(rows: usize, bands: usize) -> Vec<(usize, usize)> {
    let bands = bands.clamp(1, rows.max(1));
    let base = rows / bands;
    let extra = rows % bands;
    let mut out = Vec::with_capacity(bands);
    let mut r0 = 0;
    for t in 0..bands {
        let len = base + usize::from(t < extra);
        out.push((r0, r0 + len));
        r0 += len;
    }
    out
}

/// What a band worker hands back: its raw cache accounting plus the
/// cache itself (keyed on the *layout-global* block lattice), so the
/// caller can reconstruct exactly the stats a single shared cache would
/// have reported.
type BandOutcome = Result<(CacheStats, HashMap<(usize, usize), Vec<f32>>), CoreError>;

/// One window's result cell in the band score grid: the CNN probability
/// (0 when the window never reached the CNN), the prefilter margin (NaN
/// without a cascade) and whether the CNN evaluated the window.
#[derive(Debug, Clone, Copy)]
struct BandCell {
    score: f32,
    margin: f32,
    cnn: bool,
}

impl Default for BandCell {
    fn default() -> Self {
        BandCell {
            score: 0.0,
            margin: f32::NAN,
            cnn: false,
        }
    }
}

/// Everything a band worker needs.
struct BandArgs<'a> {
    normalized: &'a Clip,
    resolution_nm: u32,
    window_nm: i64,
    window_px: usize,
    xs: &'a [i64],
    /// This band's window rows (a contiguous slice of the scan's `ys`).
    ys: &'a [i64],
    plan: &'a BlockDctPlan,
    grid_dim: usize,
    net: &'a Network,
    in_shape: [usize; 3],
    score_block: Option<usize>,
    cascade: Option<&'a CascadePrefilter>,
}

/// Scans one horizontal band of window rows.
///
/// The band rasterises only the strip of layout its windows cover
/// (adjacent strips overlap by up to one window extent), assembles window
/// features through a band-local block-DCT cache keyed on the global
/// lattice, and scores windows in streaming blocks through its own
/// [`BatchScorer`] — so peak memory is bounded by `threads × (strip raster
/// + one score block of features)` rather than the whole scan.
///
/// With a cascade configured, a prefilter pass runs first: every window's
/// raster crop is reduced to a density vector and margin-scored, and only
/// passing windows survive to the CNN pass, **compacted** into full
/// scoring blocks (batched CNN scoring is composition-independent, so
/// compaction never changes a surviving window's bits). Without a cascade
/// every window survives, reproducing the single-stage scan exactly.
///
/// Returns the band's raw cache accounting plus its cache so the caller
/// can reconstruct exactly the stats a single shared cache would report.
fn scan_band(args: &BandArgs<'_>, cells: &mut [BandCell]) -> BandOutcome {
    let res = i64::from(args.resolution_nm);
    let y_lo = args.ys[0];
    let y_hi = args.ys[args.ys.len() - 1] + args.window_nm;
    let width_nm = args.normalized.window().width();
    // Positive by construction (window > 0, nonempty band rows, validated
    // layout width), but routed as an error rather than a panic.
    let strip_rect = match Rect::from_size(Point::new(0, y_lo), width_nm, y_hi - y_lo) {
        Ok(rect) => rect,
        Err(_) => {
            return Err(CoreError::InvalidConfig(
                "scan band strip extent must be positive",
            ))
        }
    };
    // The raster of an extracted strip equals the matching pixel rows of
    // the full-layout raster bit-for-bit (coverage accumulates only from
    // shapes touching a pixel, in insertion order — the same pinned
    // property that makes window extraction bit-exact).
    let strip = args.normalized.extract_window(strip_rect);
    let strip_raster = raster::rasterize_clip(&strip, args.resolution_nm);
    let y0_px = (y_lo / res) as usize;

    let cols = args.xs.len();
    let band_total = cols * args.ys.len();
    debug_assert_eq!(cells.len(), band_total, "band cell slice length");

    // Stage 1 — prefilter pass. Each window's margin comes from the
    // density vector of its raster crop, which equals the raster of the
    // extracted window clip bit-for-bit, so margins match training-time
    // extraction and are independent of the banding. Survivor indices are
    // collected in scan order.
    let survivors: Vec<usize> = match args.cascade {
        None => {
            for cell in cells.iter_mut() {
                cell.cnn = true;
            }
            (0..band_total).collect()
        }
        Some(prefilter) => {
            let grid = prefilter.grid_dim();
            let mut alive = Vec::with_capacity(band_total);
            for (idx, cell) in cells.iter_mut().enumerate() {
                let y = args.ys[idx / cols];
                let x = args.xs[idx % cols];
                let crop = strip_raster.window(
                    (x / res) as usize,
                    (y / res) as usize - y0_px,
                    args.window_px,
                    args.window_px,
                );
                let features = prefilter_features(density_feature(&crop, grid)?);
                let margin = prefilter.try_margin(&features)?;
                cell.margin = margin;
                if prefilter.passes(margin) {
                    cell.cnn = true;
                    alive.push(idx);
                }
            }
            alive
        }
    };

    // Stage 2 — CNN pass over the survivors, compacted into full scoring
    // blocks (only the final block is ragged). A cascade can leave a band
    // no survivors.
    let mut cache: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    let mut stats = CacheStats::default();
    if survivors.is_empty() {
        return Ok((stats, cache));
    }
    let mut scorer = args
        .score_block
        .map_or_else(BatchScorer::new, BatchScorer::with_block_cap);
    let mut soft = Vec::new();
    scorer.infer_each(
        args.net,
        &args.in_shape,
        survivors.len(),
        |i, dst| {
            let idx = survivors[i];
            let y = args.ys[idx / cols];
            let x = args.xs[idx % cols];
            window_feature_into(
                dst,
                &strip_raster,
                y0_px,
                args.plan,
                &mut cache,
                &mut stats,
                (x / res) as usize,
                (y / res) as usize,
                args.grid_dim,
            )
        },
        |i, logit| {
            soft.resize(logit.len(), 0.0);
            loss::softmax_into(logit, &mut soft);
            cells[survivors[i]].score = soft[1];
        },
    )?;
    Ok((stats, cache))
}

/// Connected-component clustering of flagged windows: two positives join
/// the same region when their windows strictly overlap.
fn merge_regions(windows: &[WindowScore], window_nm: i64) -> Vec<HotspotRegion> {
    let pos: Vec<&WindowScore> = windows.iter().filter(|w| w.hotspot).collect();
    let mut parent: Vec<usize> = (0..pos.len()).collect();
    fn find(parent: &mut [usize], mut a: usize) -> usize {
        while parent[a] != a {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        a
    }
    for a in 0..pos.len() {
        for b in a + 1..pos.len() {
            if (pos[a].x_nm - pos[b].x_nm).abs() < window_nm
                && (pos[a].y_nm - pos[b].y_nm).abs() < window_nm
            {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for a in 0..pos.len() {
        let root = find(&mut parent, a);
        groups.entry(root).or_default().push(a);
    }
    let mut regions: Vec<HotspotRegion> = groups
        .into_values()
        .map(|members| {
            let mut x0 = i64::MAX;
            let mut y0 = i64::MAX;
            let mut x1 = i64::MIN;
            let mut y1 = i64::MIN;
            let mut peak = 0.0f32;
            let mut sum = 0.0f64;
            for &m in &members {
                let w = pos[m];
                x0 = x0.min(w.x_nm);
                y0 = y0.min(w.y_nm);
                x1 = x1.max(w.x_nm + window_nm);
                y1 = y1.max(w.y_nm + window_nm);
                peak = peak.max(w.score);
                sum += f64::from(w.score);
            }
            HotspotRegion {
                x0_nm: x0,
                y0_nm: y0,
                x1_nm: x1,
                y1_nm: y1,
                windows: members.len(),
                peak_score: peak,
                mean_score: (sum / members.len() as f64) as f32,
            }
        })
        .collect();
    regions.sort_by_key(|r| (r.y0_nm, r.x0_nm));
    regions
}

impl HotspotDetector {
    /// Scans a full layout with a sliding window, scoring every stride
    /// position and merging flagged windows into hotspot regions.
    ///
    /// The scan is sharded into horizontal bands of window rows, one
    /// scoped worker per band (band count from the configured
    /// [`crate::Parallelism`], capped at the row count). Each worker
    /// rasterises only the layout strip its windows cover (adjacent
    /// strips overlap by up to one window extent), assembles per-window
    /// feature tensors from per-block DCT coefficients through a
    /// band-local cache shard keyed on the global block lattice, and
    /// scores its windows in streaming blocks through one
    /// [`BatchScorer`] (block size from [`ScanConfig::with_score_block`]
    /// or the plan's arena-footprint suggestion) — so peak memory is
    /// bounded by the strip rasters plus one score block of features per
    /// worker, not the layout size.
    ///
    /// Scores, flagged windows, merged regions and cache statistics are
    /// **independent of the thread count** and bit-identical to
    /// extracting each window as a standalone clip and calling
    /// [`HotspotDetector::predict_batch`]: per-window arithmetic never
    /// sees the banding, regions are merged globally after all bands
    /// join, and cache stats are reconstructed to exactly the accounting
    /// a single shared cache would report.
    ///
    /// With a cascade configured ([`ScanConfig::with_cascade`]) the scan
    /// runs two stages: the prefilter margin-scores every window's raster
    /// crop, cleared windows record their margin with score `0.0` and
    /// `hotspot: false`, and only survivors are CNN-scored — with bits
    /// identical to the non-cascade scan for every window the CNN sees,
    /// at every thread count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the scan geometry is inconsistent
    /// with the feature pipeline: stride, window and layout extents must
    /// be multiples of the raster resolution, the window must divide into
    /// the pipeline's block grid, and the layout must be at least one
    /// window in each axis. [`CoreError::Prefilter`] when a configured
    /// cascade prefilter's density grid does not divide the scan window.
    pub fn scan(&self, layout: &Clip, config: &ScanConfig) -> Result<ScanReport, CoreError> {
        let start = Instant::now();
        let pipeline = self.pipeline();
        let res = i64::from(pipeline.resolution_nm());
        let n = pipeline.grid_dim();
        let width_nm = layout.window().width();
        let height_nm = layout.window().height();
        if config.stride_nm % res != 0 {
            return Err(CoreError::InvalidConfig(
                "scan stride must be a multiple of the raster resolution",
            ));
        }
        if config.window_nm % res != 0 {
            return Err(CoreError::InvalidConfig(
                "scan window must be a multiple of the raster resolution",
            ));
        }
        if width_nm % res != 0 || height_nm % res != 0 {
            return Err(CoreError::InvalidConfig(
                "layout extents must be multiples of the raster resolution",
            ));
        }
        let window_px = (config.window_nm / res) as usize;
        if !window_px.is_multiple_of(n) {
            return Err(CoreError::InvalidConfig(
                "scan window does not divide into the pipeline block grid",
            ));
        }
        if let Some(prefilter) = config.cascade() {
            // Checked here — not deep inside the band workers — so an
            // incompatible prefilter surfaces before any scanning as a
            // precise geometry error instead of a per-window feature
            // failure.
            let g = prefilter.grid_dim();
            if !window_px.is_multiple_of(g) {
                return Err(CoreError::Prefilter(format!(
                    "scan window of {window_px} px cannot be divided into the prefilter's \
                     {g}x{g} density grid"
                )));
            }
        }
        if width_nm < config.window_nm || height_nm < config.window_nm {
            return Err(CoreError::InvalidConfig(
                "layout is smaller than the scan window",
            ));
        }
        let block_px = window_px / n;
        let plan = BlockDctPlan::new(block_px, pipeline.coefficients())?;
        let normalized = layout.normalized();
        let xs = axis_positions(width_nm, config.window_nm, config.stride_nm);
        let ys = axis_positions(height_nm, config.window_nm, config.stride_nm);
        let k = pipeline.coefficients();
        let total = xs.len() * ys.len();
        let net = self.network();
        let bands = band_ranges(ys.len(), self.parallelism().workers());
        let threads = bands.len();
        let prepare_s = start.elapsed().as_secs_f64();

        // Tiled scan phase — the layout is sharded into horizontal bands
        // of window rows, one scoped worker per band
        // (`hotspot_nn::parallelism::map_parts`). Each worker owns
        // its raster strip, block-DCT cache shard and batch scorer;
        // scores land in disjoint slices of the global row-major score
        // grid, so results are independent of the band count (the
        // per-window arithmetic never sees the banding).
        let scan_t = Instant::now();
        let mut cells = vec![BandCell::default(); total];
        let band_args = |rows: &std::ops::Range<usize>| BandArgs {
            normalized: &normalized,
            resolution_nm: pipeline.resolution_nm(),
            window_nm: config.window_nm,
            window_px,
            xs: &xs,
            ys: &ys[rows.clone()],
            plan: &plan,
            grid_dim: n,
            net,
            in_shape: [k, n, n],
            score_block: config.score_block,
            cascade: config.cascade(),
        };
        let mut parts = Vec::with_capacity(threads);
        let mut rest: &mut [BandCell] = &mut cells;
        for &(r0, r1) in &bands {
            let (head, tail) = rest.split_at_mut((r1 - r0) * xs.len());
            parts.push((r0..r1, head));
            rest = tail;
        }
        let outcomes = map_parts(parts, |(rows, slice)| scan_band(&band_args(&rows), slice));
        // Reconstruct exactly the accounting one shared cache would have
        // produced: a block is a serial cache miss only on its first fetch
        // anywhere, so `computed` is the number of *distinct* cached keys
        // across all band shards (plus the uncached unaligned transforms),
        // and every remaining fetch is a hit.
        let mut distinct: HashSet<(usize, usize)> = HashSet::new();
        let mut unaligned_computed = 0usize;
        let mut lookups = 0usize;
        for outcome in outcomes {
            let (band_stats, band_cache) = outcome?;
            lookups += band_stats.lookups();
            unaligned_computed += band_stats.computed - band_cache.len();
            distinct.extend(band_cache.into_keys());
        }
        let stats = CacheStats {
            computed: distinct.len() + unaligned_computed,
            hits: lookups - distinct.len() - unaligned_computed,
        };
        let scan_s = scan_t.elapsed().as_secs_f64();

        let merge_t = Instant::now();
        let lo = layout.window().lo();
        let cascaded = config.cascade().is_some();
        let mut windows = Vec::with_capacity(total);
        let mut cnn_evals = 0usize;
        let mut idx = 0;
        for &y in &ys {
            for &x in &xs {
                let cell = cells[idx];
                cnn_evals += usize::from(cell.cnn);
                windows.push(WindowScore {
                    x_nm: lo.x + x,
                    y_nm: lo.y + y,
                    score: cell.score,
                    hotspot: cell.cnn && cell.score > config.threshold,
                    margin: cascaded.then_some(cell.margin),
                    stage: if cell.cnn {
                        ScanStage::Cnn
                    } else {
                        ScanStage::Prefilter
                    },
                });
                idx += 1;
            }
        }
        let cascade_stats = config.cascade().map(|p| CascadeScanStats {
            margin_threshold: p.margin_threshold(),
            cleared: total - cnn_evals,
            forwarded: cnn_evals,
        });
        let regions = merge_regions(&windows, config.window_nm);
        let merge_s = merge_t.elapsed().as_secs_f64();
        Ok(ScanReport {
            layout_width_nm: width_nm,
            layout_height_nm: height_nm,
            stride_nm: config.stride_nm,
            window_nm: config.window_nm,
            threshold: config.threshold,
            grid_cols: xs.len(),
            grid_rows: ys.len(),
            windows,
            regions,
            cache: stats,
            cnn_evals,
            cascade: cascade_stats,
            threads,
            prepare_s,
            scan_s,
            merge_s,
            elapsed_s: start.elapsed().as_secs_f64(),
            provenance: config.provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeaturePipeline;
    use crate::model::CnnConfig;
    use hotspot_datagen::LayoutSpec;

    /// A small untrained detector: res 10 nm/px, 4×4 block grid, k = 4,
    /// sized for 400 nm scan windows (blocks of 10 px / 100 nm).
    fn tiny_detector() -> HotspotDetector {
        let pipeline = FeaturePipeline::new(10, 4, 4).expect("valid pipeline");
        let net = CnnConfig {
            input_grid: 4,
            input_channels: 4,
            stage1_maps: 4,
            stage2_maps: 4,
            fc_width: 8,
            dropout_pct: 50,
            seed: 11,
        }
        .build();
        HotspotDetector::from_network(pipeline, net)
    }

    fn tiny_config(stride_nm: i64) -> ScanConfig {
        ScanConfig::new(stride_nm)
            .expect("positive stride")
            .with_window_nm(400)
            .expect("positive window")
    }

    #[test]
    fn config_validates() {
        assert!(ScanConfig::new(0).is_err());
        assert!(ScanConfig::new(-100).is_err());
        assert!(ScanConfig::new(100).unwrap().with_window_nm(0).is_err());
        assert!(ScanConfig::new(100).unwrap().with_threshold(1.5).is_err());
        assert!(ScanConfig::new(100).unwrap().with_threshold(-0.1).is_err());
        assert!(ScanConfig::new(100).unwrap().with_score_block(0).is_err());
        let c = ScanConfig::new(600).unwrap();
        assert_eq!(
            (c.stride_nm(), c.window_nm(), c.threshold()),
            (600, 1200, 0.5)
        );
        assert_eq!(c.score_block(), None);
        let c = c.with_score_block(7).unwrap();
        assert_eq!(c.score_block(), Some(7));
    }

    #[test]
    fn scan_rejects_inconsistent_geometry() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 3).build();
        // Stride not a multiple of the 10 nm resolution.
        assert!(detector.scan(&layout, &tiny_config(105)).is_err());
        // Window not a multiple of the resolution.
        let c = ScanConfig::new(200).unwrap().with_window_nm(405).unwrap();
        assert!(detector.scan(&layout, &c).is_err());
        // Window pixels (45) not divisible by the 4-block grid.
        let c = ScanConfig::new(200).unwrap().with_window_nm(450).unwrap();
        assert!(detector.scan(&layout, &c).is_err());
        // Layout smaller than the window.
        let c = ScanConfig::new(200).unwrap().with_window_nm(2000).unwrap();
        assert!(detector.scan(&layout, &c).is_err());
    }

    #[test]
    fn aligned_scan_transforms_each_block_at_most_once() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(2, 2, 7).build(); // 2400×2400 nm
                                                           // Stride 200 nm = 2 blocks: every window lands on the lattice.
        let report = detector.scan(&layout, &tiny_config(200)).unwrap();
        assert_eq!(report.grid_cols, 11);
        assert_eq!(report.grid_rows, 11);
        assert_eq!(report.windows.len(), 121);
        // 121 windows × 16 blocks fetched, but ≤ 24×24 distinct layout
        // blocks ever transformed — everything else is a cache hit.
        assert_eq!(report.cache.lookups(), 121 * 16);
        assert!(
            report.cache.computed <= 24 * 24,
            "computed {}",
            report.cache.computed
        );
        assert!(report.cache.hits > 0);
        assert!(
            report.cache.hit_rate() > 0.5,
            "hit rate {}",
            report.cache.hit_rate()
        );
    }

    #[test]
    fn scan_scores_match_naive_clip_extraction() {
        use hotspot_geometry::Rect;
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(2, 1, 19).build(); // 2400×1200 nm
        for stride in [200, 150] {
            // 200 nm is block-aligned; 150 nm is not (block = 100 nm).
            let report = detector.scan(&layout, &tiny_config(stride)).unwrap();
            let clips: Vec<Clip> = report
                .windows
                .iter()
                .map(|w| {
                    layout.extract_window(
                        Rect::from_size(hotspot_geometry::Point::new(w.x_nm, w.y_nm), 400, 400)
                            .unwrap(),
                    )
                })
                .collect();
            let naive = detector.predict_batch(&clips).unwrap();
            for (w, p) in report.windows.iter().zip(naive.iter()) {
                assert_eq!(
                    w.score.to_bits(),
                    p.to_bits(),
                    "stride {stride}, window ({}, {})",
                    w.x_nm,
                    w.y_nm
                );
            }
        }
    }

    #[test]
    fn regions_merge_overlapping_positives() {
        let w = |x_nm: i64, y_nm: i64, score: f32| WindowScore {
            x_nm,
            y_nm,
            score,
            hotspot: score > 0.5,
            margin: None,
            stage: ScanStage::Cnn,
        };
        // Two overlapping positives, one isolated positive, one negative.
        let windows = vec![
            w(0, 0, 0.9),
            w(200, 0, 0.7),
            w(2000, 2000, 0.8),
            w(800, 0, 0.1),
        ];
        let regions = merge_regions(&windows, 400);
        assert_eq!(regions.len(), 2);
        assert_eq!(
            (
                regions[0].x0_nm,
                regions[0].y0_nm,
                regions[0].x1_nm,
                regions[0].y1_nm
            ),
            (0, 0, 600, 400)
        );
        assert_eq!(regions[0].windows, 2);
        assert!((regions[0].peak_score - 0.9).abs() < 1e-6);
        assert!((regions[0].mean_score - 0.8).abs() < 1e-6);
        assert_eq!(regions[1].windows, 1);
        // Windows that merely touch (distance == window) stay separate.
        let touching = vec![w(0, 0, 0.9), w(400, 0, 0.9)];
        assert_eq!(merge_regions(&touching, 400).len(), 2);
    }

    #[test]
    fn single_window_layout_scores_exactly_once() {
        // Layout exactly one window in each axis: the stride grid
        // degenerates to the single flush position, and the batched
        // scoring path must handle a one-window block.
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 13).build(); // 1200×1200 nm
        let config = ScanConfig::new(400).unwrap().with_window_nm(1200).unwrap();
        let report = detector.scan(&layout, &config).unwrap();
        assert_eq!((report.grid_cols, report.grid_rows), (1, 1));
        assert_eq!(report.windows.len(), 1);
        assert_eq!((report.windows[0].x_nm, report.windows[0].y_nm), (0, 0));
        // Identical to scoring the layout as one standalone clip.
        let naive = detector
            .predict_batch(std::slice::from_ref(&layout))
            .unwrap();
        assert_eq!(report.windows[0].score.to_bits(), naive[0].to_bits());
    }

    #[test]
    fn layout_smaller_than_window_is_rejected() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 3).build(); // 1200×1200 nm
        let config = ScanConfig::new(400).unwrap().with_window_nm(1600).unwrap();
        match detector.scan(&layout, &config) {
            Err(CoreError::InvalidConfig(why)) => {
                assert!(why.contains("smaller than the scan window"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn threshold_one_flags_no_windows_and_yields_no_regions() {
        // Scores are probabilities in [0, 1] and flagging is strictly
        // `score > threshold`, so threshold 1.0 (valid) flags nothing.
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 5).build();
        let report = detector
            .scan(&layout, &tiny_config(200).with_threshold(1.0).unwrap())
            .unwrap();
        assert_eq!(report.positives(), 0);
        assert!(report.regions.is_empty());
        assert!(report.windows.iter().all(|w| !w.hotspot));
    }

    #[test]
    fn corner_touching_positives_stay_separate() {
        // Two flagged windows sharing only the corner point (400, 400):
        // |dx| == |dy| == window, so neither axis strictly overlaps and
        // the union-find must keep them in distinct regions.
        let w = |x_nm: i64, y_nm: i64| WindowScore {
            x_nm,
            y_nm,
            score: 0.9,
            hotspot: true,
            margin: None,
            stage: ScanStage::Cnn,
        };
        let corner = vec![w(0, 0), w(400, 400)];
        let regions = merge_regions(&corner, 400);
        assert_eq!(regions.len(), 2);
        // One nm of overlap in both axes merges them.
        let overlapping = vec![w(0, 0), w(399, 399)];
        assert_eq!(merge_regions(&overlapping, 400).len(), 1);
    }

    #[test]
    fn score_block_size_changes_neither_scores_nor_cache_stats() {
        // The block-DCT cache is filled in Phase 1, before scoring, so
        // CacheStats must be byte-identical for every score block size —
        // and so must every window score — at both a block-aligned stride
        // (200 nm) and an unaligned one (150 nm).
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(2, 2, 17).build(); // 2400×2400 nm
        for stride in [200, 150] {
            let baseline = detector
                .scan(&layout, &tiny_config(stride).with_score_block(1).unwrap())
                .unwrap();
            assert!(baseline.cache.lookups() > 0);
            for block in [2usize, 5, 64] {
                let report = detector
                    .scan(
                        &layout,
                        &tiny_config(stride).with_score_block(block).unwrap(),
                    )
                    .unwrap();
                assert_eq!(
                    report.cache, baseline.cache,
                    "stride {stride} block {block}"
                );
                assert_eq!(report.windows.len(), baseline.windows.len());
                for (a, b) in report.windows.iter().zip(baseline.windows.iter()) {
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "stride {stride} block {block} window ({}, {})",
                        a.x_nm,
                        a.y_nm
                    );
                }
            }
            // The default (plan-suggested) block agrees too.
            let default = detector.scan(&layout, &tiny_config(stride)).unwrap();
            assert_eq!(default.cache, baseline.cache);
            for (a, b) in default.windows.iter().zip(baseline.windows.iter()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn report_json_has_schema_keys() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 5).build();
        let report = detector
            .scan(&layout, &tiny_config(400).with_threshold(0.0).unwrap())
            .unwrap();
        // threshold 0: every window is positive, so regions are nonempty.
        assert!(report.positives() > 0);
        assert!(!report.regions.is_empty());
        let json = report.to_json();
        for key in [
            "\"v\"",
            "\"provenance\"",
            "\"layout\"",
            "\"scan\"",
            "\"cache\"",
            "\"hit_rate\"",
            "\"throughput\"",
            "\"windows_per_sec\"",
            "\"execution\"",
            "\"threads\"",
            "\"prepare_s\"",
            "\"scan_s\"",
            "\"merge_s\"",
            "\"positives\"",
            "\"regions\"",
            "\"windows\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.threads >= 1);
    }

    /// A hand-built single-stump prefilter on the tiny detector's 40 px
    /// window: density grid 4 (16 features), margin ±1 from whether the
    /// window's top-left block density exceeds `stump_threshold`, decided
    /// at `margin_threshold`.
    fn tiny_prefilter(margin_threshold: f32, stump_threshold: f32) -> CascadePrefilter {
        use hotspot_baselines::{AdaBoost, CalibratedAdaBoost, DecisionStump};
        let stump = DecisionStump {
            feature: 0,
            threshold: stump_threshold,
            polarity: 1.0,
        };
        let model = AdaBoost::from_parts(vec![(1.0, stump)], 17).expect("valid stump");
        CascadePrefilter::new(
            CalibratedAdaBoost::new(model, margin_threshold, 0.0, 0.0),
            4,
        )
        .expect("grid matches feature length")
    }

    #[test]
    fn cascade_rejects_indivisible_prefilter_grid() {
        use hotspot_baselines::{AdaBoost, CalibratedAdaBoost, DecisionStump};
        let stump = DecisionStump {
            feature: 0,
            threshold: 0.5,
            polarity: 1.0,
        };
        let model = AdaBoost::from_parts(vec![(1.0, stump)], 50).unwrap();
        // Grid 7 does not divide the 40 px scan window: the error must
        // surface at scan time, before any band work, naming the grid.
        let prefilter =
            CascadePrefilter::new(CalibratedAdaBoost::new(model, 0.0, 0.0, 0.0), 7).unwrap();
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(1, 1, 3).build();
        match detector.scan(&layout, &tiny_config(200).with_cascade(prefilter)) {
            Err(CoreError::Prefilter(why)) => {
                assert!(why.contains("7x7 density grid"), "{why}");
            }
            other => panic!("expected Prefilter error, got {other:?}"),
        }
    }

    #[test]
    fn all_pass_cascade_matches_plain_scan_exactly() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(2, 2, 7).build();
        for stride in [200, 150] {
            let plain = detector.scan(&layout, &tiny_config(stride)).unwrap();
            let cascade_cfg =
                tiny_config(stride).with_cascade(tiny_prefilter(f32::NEG_INFINITY, 0.5));
            let cascaded = detector.scan(&layout, &cascade_cfg).unwrap();
            // Every window passes the forced all-pass prefilter, so the
            // CNN work — scores, flags, regions, cache accounting — is
            // exactly the plain scan's.
            assert_eq!(cascaded.cache, plain.cache, "stride {stride}");
            assert_eq!(cascaded.cnn_evals, plain.windows.len());
            assert_eq!(cascaded.regions, plain.regions);
            let stats = cascaded.cascade.expect("cascade stats present");
            assert_eq!((stats.cleared, stats.forwarded), (0, plain.windows.len()));
            assert!(plain.cascade.is_none());
            assert_eq!(plain.cnn_evals, plain.windows.len());
            for (c, p) in cascaded.windows.iter().zip(plain.windows.iter()) {
                assert_eq!((c.x_nm, c.y_nm), (p.x_nm, p.y_nm));
                assert_eq!(c.score.to_bits(), p.score.to_bits());
                assert_eq!(c.hotspot, p.hotspot);
                assert_eq!(c.stage, ScanStage::Cnn);
                assert!(c.margin.is_some());
                assert_eq!(p.stage, ScanStage::Cnn);
                assert_eq!(p.margin, None);
            }
        }
    }

    #[test]
    fn none_pass_cascade_clears_every_window() {
        let detector = tiny_detector();
        let layout = LayoutSpec::uniform(2, 1, 7).build();
        let config = tiny_config(200)
            .with_threshold(0.0)
            .unwrap()
            .with_cascade(tiny_prefilter(f32::INFINITY, 0.5));
        let report = detector.scan(&layout, &config).unwrap();
        assert_eq!(report.cnn_evals, 0);
        assert_eq!(report.cnn_evals_per_window(), 0.0);
        assert_eq!(report.positives(), 0);
        assert!(report.regions.is_empty());
        let stats = report.cascade.unwrap();
        assert_eq!(stats.cleared, report.windows.len());
        assert_eq!(stats.forwarded, 0);
        for w in &report.windows {
            assert_eq!(w.stage, ScanStage::Prefilter);
            assert_eq!(w.score, 0.0);
            assert!(!w.hotspot);
            assert!(!w.margin.unwrap().is_nan());
        }
        // No CNN ran, so the block-DCT cache was never touched.
        assert_eq!(report.cache.lookups(), 0);
        // The JSON renders the non-finite forced threshold as null.
        let json = report.to_json();
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"margin_threshold\": null"));
        assert!(json.contains("\"stage\": \"prefilter\""));
    }

    #[test]
    fn cascade_survivors_score_bit_identical_at_every_thread_count() {
        use crate::Parallelism;
        let layout = LayoutSpec::uniform(2, 2, 29).build();
        let mut detector = tiny_detector();
        detector.set_parallelism(Parallelism::serial());
        let stride = 200;
        let plain = detector.scan(&layout, &tiny_config(stride)).unwrap();
        // A data-dependent stump threshold splits the windows: some
        // cleared, some forwarded (0.5 ≈ a typical mid density).
        let config = tiny_config(stride).with_cascade(tiny_prefilter(0.0, 0.5));
        let serial = detector.scan(&layout, &config).unwrap();
        let stats = serial.cascade.unwrap();
        assert_eq!(stats.cleared + stats.forwarded, serial.windows.len());
        assert_eq!(serial.cnn_evals, stats.forwarded);
        for (c, p) in serial.windows.iter().zip(plain.windows.iter()) {
            match c.stage {
                // The pin: every CNN-scored window is bit-identical to
                // the full scan.
                ScanStage::Cnn => assert_eq!(c.score.to_bits(), p.score.to_bits()),
                ScanStage::Prefilter => {
                    assert_eq!(c.score, 0.0);
                    assert!(!c.hotspot);
                }
            }
        }
        // Cascade decisions and scores are thread-count invariant.
        for workers in [2usize, 3, 7] {
            detector.set_parallelism(Parallelism::fixed(workers).unwrap());
            let tiled = detector.scan(&layout, &config).unwrap();
            assert_eq!(tiled.cnn_evals, serial.cnn_evals, "workers {workers}");
            assert_eq!(tiled.cascade, serial.cascade);
            assert_eq!(tiled.cache, serial.cache);
            assert_eq!(tiled.regions, serial.regions);
            for (a, b) in tiled.windows.iter().zip(serial.windows.iter()) {
                assert_eq!(a.stage, b.stage);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.margin.unwrap().to_bits(), b.margin.unwrap().to_bits());
            }
        }
    }

    #[test]
    fn band_ranges_partition_contiguously() {
        assert_eq!(band_ranges(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        assert_eq!(band_ranges(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(band_ranges(1, 4), vec![(0, 1)]);
        assert_eq!(band_ranges(6, 1), vec![(0, 6)]);
        // Degenerate zero-row grid still yields one (empty) band, which
        // the scan never hits (layouts hold at least one window row).
        assert_eq!(band_ranges(0, 3), vec![(0, 0)]);
    }

    /// Tiled multithreaded scans must equal the serial scan exactly:
    /// same score bits, same flagged windows, same regions in the same
    /// order, same cache totals — at a block-aligned stride and an
    /// unaligned one, with regions spanning band seams (threshold 0 makes
    /// every window positive, so one region crosses every seam).
    #[test]
    fn banded_scan_is_thread_count_invariant() {
        use crate::Parallelism;
        let layout = LayoutSpec::uniform(2, 2, 23).build(); // 2400×2400 nm
        for stride in [200, 150] {
            let mut detector = tiny_detector();
            detector.set_parallelism(Parallelism::serial());
            let config = tiny_config(stride).with_threshold(0.0).unwrap();
            let serial = detector.scan(&layout, &config).unwrap();
            assert_eq!(serial.threads, 1);
            for workers in [2usize, 3, 7, 64] {
                detector.set_parallelism(Parallelism::fixed(workers).unwrap());
                let tiled = detector.scan(&layout, &config).unwrap();
                assert_eq!(tiled.threads, workers.min(serial.grid_rows));
                assert_eq!(
                    tiled.cache, serial.cache,
                    "stride {stride} workers {workers}"
                );
                assert_eq!(tiled.windows.len(), serial.windows.len());
                for (a, b) in tiled.windows.iter().zip(serial.windows.iter()) {
                    assert_eq!(a.x_nm, b.x_nm);
                    assert_eq!(a.y_nm, b.y_nm);
                    assert_eq!(a.hotspot, b.hotspot);
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "stride {stride} workers {workers} window ({}, {})",
                        a.x_nm,
                        a.y_nm
                    );
                }
                assert_eq!(
                    tiled.regions, serial.regions,
                    "stride {stride} workers {workers}"
                );
                // Threshold 0 flags everything: the single merged region
                // spans every band seam.
                assert_eq!(tiled.regions.len(), 1);
            }
        }
    }

    /// A layout exactly one window tall cannot be split: any worker count
    /// resolves to a single band.
    #[test]
    fn single_row_layout_stays_one_band() {
        use crate::Parallelism;
        let mut detector = tiny_detector();
        detector.set_parallelism(Parallelism::fixed(8).unwrap());
        let layout = LayoutSpec::uniform(2, 1, 9).build(); // 2400×1200 nm
                                                           // A 1200 nm window spans the full layout height: one window row.
        let config = ScanConfig::new(400).unwrap().with_window_nm(1200).unwrap();
        let report = detector.scan(&layout, &config).unwrap();
        assert_eq!(report.grid_rows, 1);
        assert_eq!(report.threads, 1);
        assert!(report.prepare_s >= 0.0 && report.scan_s >= 0.0 && report.merge_s >= 0.0);
    }

    #[test]
    fn flush_positions_cover_the_far_edge() {
        // Extent 1000, window 400, stride 300: 0, 300, 600 fit; flush 600
        // already present. Stride 250: 0, 250, 500 + flush 600.
        assert_eq!(axis_positions(1000, 400, 300), vec![0, 300, 600]);
        assert_eq!(axis_positions(1000, 400, 250), vec![0, 250, 500, 600]);
        assert_eq!(axis_positions(400, 400, 100), vec![0]);
    }
}
