//! The layer-by-layer replay of one scan pass (dense or cascaded), and
//! the checks that compare a cascaded pass with the uncascaded scan.

use crate::setup::{self, STRIDE_NM, WINDOW_NM};
use crate::trace::{SpanId, Trace};
use hotspot_core::cascade::prefilter_features;
use hotspot_core::{
    CascadePrefilter, CoreError, HotspotDetector, ScanConfig, ScanReport, ScanStage,
};
use hotspot_dct::BlockDctPlan;
use hotspot_features::density_feature;
use hotspot_geometry::{raster, Clip, Point, Rect};
use hotspot_nn::engine::Workspace;
use hotspot_nn::loss;
use std::collections::hash_map::{Entry, HashMap};

/// A fitted detector, the layout it scans and, for a cascaded scan, the
/// prefilter.
pub struct ScanSetup {
    pub det: HotspotDetector,
    pub layout: Clip,
    pub prefilter: Option<CascadePrefilter>,
}

pub fn scan_config(prefilter: Option<&CascadePrefilter>) -> ScanConfig {
    let config = ScanConfig::new(STRIDE_NM)
        .and_then(|c| c.with_window_nm(WINDOW_NM))
        .expect("positive stride and window");
    match prefilter {
        Some(p) => config.with_cascade(p.clone()),
        None => config,
    }
}

/// Whether every region of `full` overlaps some region of `cascade`.
pub fn regions_covered(full: &ScanReport, cascade: &ScanReport) -> bool {
    full.regions.iter().all(|f| {
        cascade.regions.iter().any(|c| {
            f.x0_nm < c.x1_nm && c.x0_nm < f.x1_nm && f.y0_nm < c.y1_nm && c.y0_nm < f.y1_nm
        })
    })
}

/// Whether every CNN-scored window of a cascade pass matches the
/// uncascaded scan bit for bit.
pub fn cnn_windows_match(full: &ScanReport, cascade: &ScanReport) -> bool {
    full.windows.len() == cascade.windows.len()
        && full
            .windows
            .iter()
            .zip(&cascade.windows)
            .filter(|(_, c)| c.stage == ScanStage::Cnn)
            .all(|(f, c)| f.score.to_bits() == c.score.to_bits())
}

/// Hotspot windows of the uncascaded scan that the cascade cleared.
pub fn missed_hotspot_windows(full: &ScanReport, cascade: &ScanReport) -> usize {
    full.windows
        .iter()
        .zip(&cascade.windows)
        .filter(|(f, c)| f.hotspot && !c.hotspot)
        .count()
}

/// One scan pass replayed from the layers' public calls, under spans.
pub struct Replay {
    /// Per-window score in scan order (0 for windows the prefilter
    /// cleared).
    pub scores: Vec<f32>,
    /// Whether the CNN scored each window.
    pub cnn: Vec<bool>,
    /// Distinct lattice blocks transformed.
    pub blocks: usize,
}

/// Replays a serial scan pass: raster → (density → margin) → DCT block
/// cache → batched CNN → softmax, each layer call inside a span caused
/// by `pass`. Mirrors the program's single-band scan, so the scores must
/// equal `HotspotDetector::scan`'s bit for bit.
pub fn replay(s: &ScanSetup, trace: &mut Trace, pass: SpanId) -> Result<Replay, CoreError> {
    let pipeline = s.det.pipeline();
    let res = i64::from(pipeline.resolution_nm());
    let n = pipeline.grid_dim();
    let k = pipeline.coefficients();
    let window_px = (WINDOW_NM / res) as usize;
    let b = window_px / n;
    let plan = BlockDctPlan::new(b, k)?;
    let extent = s.layout.window();
    let xs = setup::axis_positions(extent.width());
    let ys = setup::axis_positions(extent.height());
    let strip_h = ys.last().expect("layout fits a window") + WINDOW_NM;
    let strip_rect = Rect::from_size(Point::new(0, 0), extent.width(), strip_h)
        .map_err(|_| CoreError::InvalidConfig("layout extent"))?;
    let strip = s.layout.normalized().extract_window(strip_rect);
    let raster = trace.time("geometry.raster", Some(pass), || {
        raster::rasterize_clip(&strip, pipeline.resolution_nm())
    });
    let cols = xs.len();
    let total = cols * ys.len();
    let at = |idx: usize| {
        (
            (xs[idx % cols] / res) as usize,
            (ys[idx / cols] / res) as usize,
        )
    };

    let mut cnn = vec![s.prefilter.is_none(); total];
    if let Some(pf) = &s.prefilter {
        for (idx, alive) in cnn.iter_mut().enumerate() {
            let (x, y) = at(idx);
            let crop = raster.window(x, y, window_px, window_px);
            let density = trace.time("features.density", Some(pass), || {
                density_feature(&crop, pf.grid_dim())
            });
            let features =
                prefilter_features(density.map_err(|e| CoreError::Prefilter(e.to_string()))?);
            let margin = trace.time("core.cascade.margin", Some(pass), || {
                pf.try_margin(&features)
            })?;
            *alive = pf.passes(margin);
        }
    }
    let survivors: Vec<usize> = (0..total).filter(|&i| cnn[i]).collect();

    let net = s.det.network();
    let in_shape = [k, n, n];
    let probe = net.plan(&in_shape);
    let out_len = probe.out_len();
    let block = probe.suggested_batch().min(total).max(1);
    let block_plan = net.plan_batch(&in_shape, block);
    let feat_len = k * n * n;
    let scale = 1.0 / b as f32;
    let mut cache: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    let mut ws = Workspace::new();
    let mut soft = vec![0.0f32; out_len];
    let mut feats = vec![0.0f32; block * feat_len];
    let mut scores = vec![0.0f32; total];
    for chunk in survivors.chunks(block) {
        for (w, &idx) in chunk.iter().enumerate() {
            let (x, y) = at(idx);
            let data = &mut feats[w * feat_len..(w + 1) * feat_len];
            for j in 0..n {
                for i in 0..n {
                    let key = (x / b + i, y / b + j);
                    let coeffs = match cache.entry(key) {
                        Entry::Occupied(hit) => hit.into_mut(),
                        Entry::Vacant(miss) => {
                            let crop = raster.window(key.0 * b, key.1 * b, b, b);
                            let mut coeffs = trace.time("dct.transform", Some(pass), || {
                                plan.coefficients_for(&crop)
                            })?;
                            for c in coeffs.iter_mut() {
                                *c *= scale;
                            }
                            miss.insert(coeffs)
                        }
                    };
                    for c in 0..k {
                        data[(c * n + j) * n + i] = coeffs[c];
                    }
                }
            }
        }
        let tail_plan;
        let plan = if chunk.len() == block {
            &block_plan
        } else {
            tail_plan = net.plan_batch(&in_shape, chunk.len());
            &tail_plan
        };
        let span = trace.open("nn.infer", Some(pass));
        let logits = net.forward_batch_with(plan, &mut ws, &feats[..chunk.len() * feat_len]);
        trace.close(span);
        for (logit, &idx) in logits.chunks_exact(out_len).zip(chunk) {
            loss::softmax_into(logit, &mut soft);
            scores[idx] = soft[1];
        }
    }
    Ok(Replay {
        scores,
        cnn,
        blocks: cache.len(),
    })
}

/// Whether a replay reproduces a program scan bit for bit.
pub fn replay_matches(replay: &Replay, program: &ScanReport) -> bool {
    program.windows.len() == replay.scores.len()
        && program
            .windows
            .iter()
            .zip(replay.scores.iter().zip(&replay.cnn))
            .all(|(w, (score, cnn))| {
                w.score.to_bits() == score.to_bits() && (w.stage == ScanStage::Cnn) == *cnn
            })
}
