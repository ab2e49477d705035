//! End-to-end hotspot labelling of clips.

use crate::aerial::Isa;
use crate::process::{CornerGrid, CornerReport, PrintTarget};
use crate::{aerial, Kernel1d, LithoError, ProcessCorner, ResistModel};
use hotspot_geometry::{raster, Clip, Grid};
use serde::{Deserialize, Serialize};

/// Configuration of the labelling simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LithoConfig {
    /// Raster resolution in nm per pixel.
    pub resolution_nm: u32,
    /// Nominal PSF standard deviation in nm (≈ the optical blur of a 193 nm
    /// scanner; 30 nm by default).
    pub sigma_nm: f64,
    /// Resist print threshold.
    pub resist: ResistModel,
    /// Dose/defocus corners that define the required process window.
    pub corners: Vec<ProcessCorner>,
    /// Allowed edge-placement error in nm before a pixel counts as a
    /// printing failure.
    pub epe_margin_nm: f64,
    /// Border region excluded from failure analysis, in nm.
    pub guard_band_nm: f64,
    /// A corner only counts as failing when it has at least this many
    /// failing pixels; suppresses 1–3 px corner-rounding artefacts of the
    /// discrete raster.
    pub min_failure_px: usize,
}

impl LithoConfig {
    /// Replaces the corner list with a full dose×defocus [`CornerGrid`],
    /// keeping every other knob. Simulators built from the result emit one
    /// [`CornerReport`] per grid point in [`CornerGrid::corners`] order.
    #[must_use]
    pub fn with_corner_grid(mut self, grid: &CornerGrid) -> Self {
        self.corners = grid.corners();
        self
    }
}

impl Default for LithoConfig {
    /// Defaults tuned for 1200×1200 nm clips at 10 nm/px: σ = 30 nm, ±5 %
    /// dose latitude, 60 nm defocus, 20 nm EPE margin, 200 nm guard band,
    /// 4-pixel failure threshold.
    ///
    /// The EPE margin must stay below half the minimum half-pitch of
    /// interest, otherwise erosion/dilation swallow the very features whose
    /// printing is being checked.
    fn default() -> Self {
        LithoConfig {
            resolution_nm: 10,
            sigma_nm: 30.0,
            resist: ResistModel::default(),
            corners: ProcessCorner::standard_window(0.05, 60.0),
            epe_margin_nm: 20.0,
            guard_band_nm: 200.0,
            min_failure_px: 4,
        }
    }
}

/// Per-clip simulation outcome: one [`CornerReport`] per process corner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LithoReport {
    corner_reports: Vec<CornerReport>,
    min_failure_px: usize,
}

impl LithoReport {
    /// Failure reports, one per configured corner (same order).
    #[inline]
    pub fn corner_reports(&self) -> &[CornerReport] {
        &self.corner_reports
    }

    /// Whether a given corner report counts as failing under the
    /// configured pixel threshold.
    #[inline]
    pub fn corner_fails(&self, report: &CornerReport) -> bool {
        report.failures() >= self.min_failure_px.max(1)
    }

    /// A clip is a hotspot when *any* corner of the required process window
    /// fails to print cleanly — i.e. its usable window is smaller than the
    /// required one (the paper's hotspot definition).
    pub fn is_hotspot(&self) -> bool {
        self.corner_reports.iter().any(|r| self.corner_fails(r))
    }

    /// Number of corners that print cleanly (a crude process-window size).
    pub fn clean_corner_count(&self) -> usize {
        self.corner_reports
            .iter()
            .filter(|r| !self.corner_fails(r))
            .count()
    }

    /// Worst-corner failing-pixel count, a severity score.
    pub fn worst_failures(&self) -> usize {
        self.corner_reports
            .iter()
            .map(CornerReport::failures)
            .max()
            .unwrap_or(0)
    }

    /// Signed distance of the worst corner to the pass/fail boundary, in
    /// failing pixels: `worst_failures() - min_failure_px`.
    ///
    /// Non-negative exactly when [`is_hotspot`](Self::is_hotspot) is true
    /// (`0` means the worst corner sits right on the failure threshold);
    /// more negative means a more robust pattern, more positive a more
    /// severe hotspot. Acquisition strategies can rank near-boundary clips
    /// by `|severity_margin()|`.
    pub fn severity_margin(&self) -> i64 {
        self.worst_failures() as i64 - self.min_failure_px.max(1) as i64
    }

    /// The per-corner label vector plus worst-corner severity, the
    /// multi-corner ground truth consumed by datasets and training heads.
    pub fn corner_labels(&self) -> CornerLabels {
        CornerLabels {
            fails: self
                .corner_reports
                .iter()
                .map(|r| self.corner_fails(r))
                .collect(),
            severity: self.severity_margin(),
        }
    }
}

/// Multi-corner ground truth of one clip: a pass/fail bit per process
/// corner (in the simulator's corner order) plus the signed worst-corner
/// severity margin from [`LithoReport::severity_margin`].
///
/// The invariant `is_hotspot() == (severity >= 0)` holds for labels
/// produced by [`LithoReport::corner_labels`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CornerLabels {
    /// Per-corner failure flags, corner order of the generating simulator.
    pub fails: Vec<bool>,
    /// Signed worst-corner severity margin in failing pixels.
    pub severity: i64,
}

impl CornerLabels {
    /// Number of corners in the label vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.fails.len()
    }

    /// Whether the label vector is empty (never true for labels produced
    /// by a validated simulator).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fails.is_empty()
    }

    /// Whether any corner fails — the scalar hotspot label.
    #[inline]
    pub fn is_hotspot(&self) -> bool {
        self.fails.iter().any(|&f| f)
    }

    /// Number of failing corners (a coarse process-window deficit).
    pub fn failing_corners(&self) -> usize {
        self.fails.iter().filter(|&&f| f).count()
    }
}

/// The labelling simulator: rasterise → aerial image per distinct PSF →
/// resist at each corner's dose → printing check.
///
/// Construct once and reuse: the corners are grouped by PSF up front, so a
/// clip costs one aerial image per distinct defocus blur (two for the
/// default window and for a 3×2 [`CornerGrid`]) and one erosion/dilation
/// of its target, all over the guard-band interior only.
///
/// # Examples
///
/// ```
/// use hotspot_geometry::{Clip, Rect};
/// use hotspot_litho::{LithoConfig, LithoSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = LithoSimulator::new(LithoConfig::default())?;
/// let mut dense = Clip::new(Rect::new(0, 0, 1200, 1200)?);
/// // 50 nm lines on a 100 nm pitch: below the σ = 30 nm optics' resolution
/// // limit, the array prints with necking/bridging => hotspot.
/// for i in 0..6 {
///     dense.push(Rect::new(300 + i * 100, 0, 350 + i * 100, 1200)?);
/// }
/// assert!(sim.analyze_clip(&dense).is_hotspot());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LithoSimulator {
    config: LithoConfig,
    /// Best-focus PSF, behind [`LithoSimulator::aerial_image`].
    nominal_psf: Kernel1d,
    /// The configured corners grouped by PSF.
    psfs: Vec<PsfGroup>,
    margin_px: usize,
    guard_px: usize,
}

/// One distinct PSF of a corner list and the indices of the corners that
/// share it.
#[derive(Debug, Clone)]
pub(crate) struct PsfGroup {
    kernel: Kernel1d,
    corners: Vec<usize>,
}

impl PsfGroup {
    /// Groups `corners` by equal defocused PSF, in order of first use.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidParameter`] when a kernel cannot be
    /// built (see [`Kernel1d::gaussian_defocused`]).
    pub(crate) fn group(
        corners: &[ProcessCorner],
        sigma_nm: f64,
        resolution_nm: u32,
    ) -> Result<Vec<PsfGroup>, LithoError> {
        let mut groups: Vec<PsfGroup> = Vec::new();
        for (i, corner) in corners.iter().enumerate() {
            let kernel = Kernel1d::gaussian_defocused(sigma_nm, corner.defocus_nm, resolution_nm)?;
            match groups.iter_mut().find(|g| g.kernel == kernel) {
                Some(group) => group.corners.push(i),
                None => groups.push(PsfGroup {
                    kernel,
                    corners: vec![i],
                }),
            }
        }
        Ok(groups)
    }
}

impl LithoSimulator {
    /// Builds a simulator, precomputing the distinct PSF kernels of the
    /// configured corners.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidParameter`] for non-physical parameters
    /// (zero resolution, non-positive σ, negative margins or an empty corner
    /// list).
    pub fn new(config: LithoConfig) -> Result<Self, LithoError> {
        if config.corners.is_empty() {
            return Err(LithoError::InvalidParameter {
                name: "corners",
                value: 0.0,
            });
        }
        if config.epe_margin_nm.is_nan() || config.epe_margin_nm < 0.0 {
            return Err(LithoError::InvalidParameter {
                name: "epe_margin_nm",
                value: config.epe_margin_nm,
            });
        }
        if config.guard_band_nm.is_nan() || config.guard_band_nm < 0.0 {
            return Err(LithoError::InvalidParameter {
                name: "guard_band_nm",
                value: config.guard_band_nm,
            });
        }
        let psfs = PsfGroup::group(&config.corners, config.sigma_nm, config.resolution_nm)?;
        let nominal_psf = Kernel1d::gaussian(config.sigma_nm, config.resolution_nm)?;
        let margin_px = (config.epe_margin_nm / config.resolution_nm as f64).round() as usize;
        let guard_px = (config.guard_band_nm / config.resolution_nm as f64).round() as usize;
        Ok(LithoSimulator {
            config,
            nominal_psf,
            psfs,
            margin_px,
            guard_px,
        })
    }

    /// The configuration this simulator was built with.
    #[inline]
    pub fn config(&self) -> &LithoConfig {
        &self.config
    }

    /// Nominal-condition (best-focus) aerial image of a pre-rasterised mask.
    pub fn aerial_image(&self, mask: &Grid<f32>) -> Grid<f32> {
        aerial::aerial_image(mask, &self.nominal_psf)
    }

    /// Full process-window analysis of a pre-rasterised mask.
    ///
    /// The reports equal, corner for corner, the full-frame composition
    /// [`aerial::aerial_image`] → [`ResistModel::develop`] →
    /// [`crate::process::check_printing`] of the target `mask ≥ 0.5`.
    pub fn analyze_raster(&self, mask: &Grid<f32>) -> LithoReport {
        self.analyze_corners(mask, &self.config.corners, &self.psfs)
    }

    /// Analyses `mask` at `corners` under this simulator's optics, resist
    /// and margins; `psfs` groups `corners` (see [`PsfGroup::group`]).
    /// With no interior inside the guard band every corner is clean.
    pub(crate) fn analyze_corners(
        &self,
        mask: &Grid<f32>,
        corners: &[ProcessCorner],
        psfs: &[PsfGroup],
    ) -> LithoReport {
        let mut corner_reports = vec![CornerReport::default(); corners.len()];
        let isa = Isa::detect();
        if let Some(target) = PrintTarget::new(mask, self.margin_px, self.guard_px) {
            for psf in psfs {
                let intensity = aerial::aerial_region(isa, mask, &psf.kernel, target.interior());
                for &i in &psf.corners {
                    corner_reports[i] =
                        target.report(isa, &intensity, &self.config.resist, corners[i].dose);
                }
            }
        }
        LithoReport {
            corner_reports,
            min_failure_px: self.config.min_failure_px,
        }
    }

    /// Rasterises and analyses a clip (the labelling entry point).
    pub fn analyze_clip(&self, clip: &Clip) -> LithoReport {
        let mask = raster::rasterize_clip(&clip.normalized(), self.config.resolution_nm);
        self.analyze_raster(&mask)
    }

    /// Convenience: the boolean hotspot label of a clip.
    pub fn label_clip(&self, clip: &Clip) -> bool {
        self.analyze_clip(clip).is_hotspot()
    }

    /// Convenience: the multi-corner label vector of a clip (one entry per
    /// configured corner, plus worst-corner severity).
    pub fn corner_labels(&self, clip: &Clip) -> CornerLabels {
        self.analyze_clip(clip).corner_labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geometry::Rect;

    fn window() -> Rect {
        Rect::new(0, 0, 1200, 1200).unwrap()
    }

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = LithoConfig::default();
        c.corners.clear();
        assert!(LithoSimulator::new(c).is_err());
        let mut c = LithoConfig::default();
        c.epe_margin_nm = -1.0;
        assert!(LithoSimulator::new(c).is_err());
        let mut c = LithoConfig::default();
        c.sigma_nm = 0.0;
        assert!(LithoSimulator::new(c).is_err());
    }

    #[test]
    fn empty_clip_is_not_hotspot() {
        let clip = Clip::new(window());
        let report = sim().analyze_clip(&clip);
        assert!(!report.is_hotspot());
        assert_eq!(report.clean_corner_count(), report.corner_reports().len());
    }

    #[test]
    fn wide_isolated_line_prints() {
        let mut clip = Clip::new(window());
        clip.push(Rect::new(500, 100, 640, 1100).unwrap()); // 140 nm line
        assert!(!sim().label_clip(&clip));
    }

    #[test]
    fn sub_resolution_dense_lines_fail() {
        let mut clip = Clip::new(window());
        for i in 0..6 {
            // 50 nm lines, 50 nm gaps — below the σ = 30 nm optics' limit.
            clip.push(Rect::new(300 + i * 100, 0, 350 + i * 100, 1200).unwrap());
        }
        let report = sim().analyze_clip(&clip);
        assert!(report.is_hotspot());
        assert!(report.worst_failures() > 0);
    }

    #[test]
    fn near_limit_pattern_fails_only_off_nominal() {
        // Find that marginal patterns exist: a pattern that prints at
        // nominal but dies at a corner exercises the "small process
        // window" definition. 55 nm lines / 55 nm spaces is near the edge
        // for σ=30 nm.
        let mut found_marginal = false;
        for half_pitch in [45i64, 50, 55, 60, 65, 70, 75, 80] {
            let mut clip = Clip::new(window());
            let mut x = 300;
            while x + half_pitch < 900 {
                clip.push(Rect::new(x, 300, x + half_pitch, 900).unwrap());
                x += 2 * half_pitch;
            }
            let report = sim().analyze_clip(&clip);
            let nominal_clean = report.corner_reports()[0].is_clean();
            if nominal_clean && report.is_hotspot() {
                found_marginal = true;
            }
        }
        assert!(
            found_marginal,
            "process-window sweep should contain marginal patterns"
        );
    }

    #[test]
    fn severity_grows_as_pitch_shrinks() {
        let failure_at = |half_pitch: i64| {
            let mut clip = Clip::new(window());
            let mut x = 300;
            while x + half_pitch < 900 {
                clip.push(Rect::new(x, 300, x + half_pitch, 900).unwrap());
                x += 2 * half_pitch;
            }
            sim().analyze_clip(&clip).worst_failures()
        };
        assert!(failure_at(50) >= failure_at(90));
        assert!(failure_at(60) >= failure_at(120));
    }

    #[test]
    fn severity_margin_sign_matches_label() {
        let s = sim();
        // Robust pattern: negative margin, not a hotspot.
        let mut clean = Clip::new(window());
        clean.push(Rect::new(500, 100, 640, 1100).unwrap());
        let report = s.analyze_clip(&clean);
        assert!(!report.is_hotspot());
        assert!(report.severity_margin() < 0);

        // Sub-resolution array: non-negative margin, hotspot.
        let mut dense = Clip::new(window());
        for i in 0..6 {
            dense.push(Rect::new(300 + i * 100, 0, 350 + i * 100, 1200).unwrap());
        }
        let report = s.analyze_clip(&dense);
        assert!(report.is_hotspot());
        assert!(report.severity_margin() >= 0);
    }

    #[test]
    fn severity_margin_monotone_in_worst_failures() {
        // margin = worst_failures - threshold, so ordering by margin must
        // match ordering by worst_failures across a pitch sweep.
        let report_at = |half_pitch: i64| {
            let mut clip = Clip::new(window());
            let mut x = 300;
            while x + half_pitch < 900 {
                clip.push(Rect::new(x, 300, x + half_pitch, 900).unwrap());
                x += 2 * half_pitch;
            }
            sim().analyze_clip(&clip)
        };
        let reports: Vec<LithoReport> = [45i64, 55, 65, 80, 100, 140]
            .iter()
            .map(|&hp| report_at(hp))
            .collect();
        for a in &reports {
            assert_eq!(
                a.severity_margin(),
                a.worst_failures() as i64 - LithoConfig::default().min_failure_px as i64
            );
            for b in &reports {
                assert_eq!(
                    a.worst_failures().cmp(&b.worst_failures()),
                    a.severity_margin().cmp(&b.severity_margin()),
                    "severity margin must order exactly like worst_failures"
                );
            }
        }
    }

    fn grid_sim(n_dose: usize, n_defocus: usize) -> (LithoSimulator, CornerGrid) {
        let grid = CornerGrid::new(0.05, 60.0, n_dose, n_defocus).unwrap();
        let config = LithoConfig::default().with_corner_grid(&grid);
        (LithoSimulator::new(config).unwrap(), grid)
    }

    fn dense_array() -> Clip {
        let mut clip = Clip::new(window());
        for i in 0..6 {
            clip.push(Rect::new(300 + i * 100, 0, 350 + i * 100, 1200).unwrap());
        }
        clip
    }

    #[test]
    fn corner_grid_labels_have_one_entry_per_corner() {
        let (sim, grid) = grid_sim(3, 3);
        let labels = sim.corner_labels(&dense_array());
        assert_eq!(labels.len(), grid.len());
        assert!(labels.is_hotspot());
        assert!(labels.failing_corners() > 0);
        assert!(labels.severity >= 0);
    }

    #[test]
    fn worst_corner_severity_bounds_nominal() {
        // The worst corner of the grid includes the nominal condition, so
        // the worst-corner failure count can never undercut nominal's.
        let (sim, grid) = grid_sim(5, 3);
        for clip in [dense_array(), {
            let mut c = Clip::new(window());
            c.push(Rect::new(500, 100, 640, 1100).unwrap());
            c
        }] {
            let report = sim.analyze_clip(&clip);
            let nominal = report.corner_reports()[grid.nominal_index()].failures();
            assert!(
                report.worst_failures() >= nominal,
                "worst corner ({}) beneath nominal ({nominal})",
                report.worst_failures()
            );
        }
    }

    #[test]
    fn corner_labels_hotspot_iff_severity_non_negative() {
        let (sim, _) = grid_sim(3, 2);
        let mut marginal = Clip::new(window());
        let mut x = 300;
        while x + 55 < 900 {
            marginal.push(Rect::new(x, 300, x + 55, 900).unwrap());
            x += 110;
        }
        for clip in [dense_array(), marginal, Clip::new(window())] {
            let labels = sim.corner_labels(&clip);
            assert_eq!(
                labels.is_hotspot(),
                labels.severity >= 0,
                "hotspot flag and severity sign disagree"
            );
        }
    }

    #[test]
    fn nominal_corner_fail_implies_hotspot_at_any_grid() {
        // Growing the grid only adds corners, so a clip that fails at
        // nominal stays a hotspot under every grid refinement.
        let clip = dense_array();
        let (coarse, _) = grid_sim(1, 1);
        if coarse.label_clip(&clip) {
            for (nd, nf) in [(3, 2), (3, 3), (5, 3)] {
                let (fine, _) = grid_sim(nd, nf);
                assert!(
                    fine.label_clip(&clip),
                    "hotspot at nominal lost under {nd}x{nf} grid"
                );
            }
        }
    }

    #[test]
    fn aerial_image_is_best_focus_whatever_the_first_corner() {
        let config = LithoConfig {
            corners: vec![ProcessCorner {
                dose: 1.0,
                defocus_nm: 60.0,
            }],
            ..LithoConfig::default()
        };
        let sim = LithoSimulator::new(config).unwrap();
        let mask = raster::rasterize_clip(&dense_array(), 10);
        let best_focus = Kernel1d::gaussian(30.0, 10).unwrap();
        let defocused = Kernel1d::gaussian_defocused(30.0, 60.0, 10).unwrap();
        let image = sim.aerial_image(&mask);
        assert_eq!(image, aerial::aerial_image(&mask, &best_focus));
        assert_ne!(image, aerial::aerial_image(&mask, &defocused));
    }

    #[test]
    fn corners_sharing_a_psf_share_one_group() {
        let groups = |sim: &LithoSimulator| -> Vec<Vec<usize>> {
            sim.psfs.iter().map(|g| g.corners.clone()).collect()
        };
        // Standard window: three best-focus corners, two at 60 nm.
        assert_eq!(groups(&sim()), [vec![0, 1, 2], vec![3, 4]]);
        let (grid, _) = grid_sim(3, 2);
        assert_eq!(groups(&grid), [vec![0, 1, 2], vec![3, 4, 5]]);
        let (single, _) = grid_sim(1, 1);
        assert_eq!(groups(&single), [vec![0]]);
    }

    #[test]
    fn guard_band_covering_the_clip_leaves_every_corner_clean() {
        let config = LithoConfig {
            guard_band_nm: 600.0,
            ..LithoConfig::default()
        };
        let report = LithoSimulator::new(config)
            .unwrap()
            .analyze_clip(&dense_array());
        assert_eq!(report.corner_reports(), [CornerReport::default(); 5]);
        assert!(!report.is_hotspot());
    }

    #[test]
    fn labels_are_deterministic() {
        let mut clip = Clip::new(window());
        clip.push(Rect::new(450, 200, 510, 1000).unwrap());
        clip.push(Rect::new(560, 200, 620, 1000).unwrap());
        let s = sim();
        assert_eq!(s.analyze_clip(&clip), s.analyze_clip(&clip));
    }
}
