//! Process-window mapping: the dose × defocus pass/fail landscape.
//!
//! The five-corner check of [`crate::label`] answers "is the required
//! window clean?"; this module measures the *whole* window — for each
//! point of a dose × defocus grid, does the pattern print? The resulting
//! map is the lithographer's classical process-window plot, and its area
//! is a graded printability score (hotspots = small windows, exactly the
//! paper's definition).

use crate::label::PsfGroup;
use crate::process::ProcessCorner;
use crate::{LithoError, LithoSimulator};
use hotspot_geometry::{raster, Clip, Grid};
use serde::{Deserialize, Serialize};

/// A measured process window: pass/fail over a dose × defocus grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessWindowMap {
    doses: Vec<f32>,
    defocuses_nm: Vec<f64>,
    /// Row-major `[defocus][dose]` pass flags.
    passes: Grid<bool>,
}

impl ProcessWindowMap {
    /// Dose axis values.
    pub fn doses(&self) -> &[f32] {
        &self.doses
    }

    /// Defocus axis values (nm).
    pub fn defocuses_nm(&self) -> &[f64] {
        &self.defocuses_nm
    }

    /// Whether the pattern prints cleanly at grid point `(dose_idx,
    /// defocus_idx)`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn passes_at(&self, dose_idx: usize, defocus_idx: usize) -> bool {
        self.passes[(dose_idx, defocus_idx)]
    }

    /// Fraction of grid points that print cleanly — the normalised window
    /// area in `[0, 1]`.
    pub fn window_area(&self) -> f64 {
        let total = self.passes.len().max(1);
        let pass = self.passes.iter().filter(|&&p| p).count();
        pass as f64 / total as f64
    }

    /// The widest dose range (in consecutive grid points) that passes at
    /// best focus (defocus index 0) — a discrete exposure-latitude
    /// estimate, in grid points.
    pub fn exposure_latitude_points(&self) -> usize {
        let mut best = 0usize;
        let mut run = 0usize;
        for d in 0..self.doses.len() {
            if self.passes_at(d, 0) {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }
}

/// Measures the process window of a clip over `doses × defocuses_nm`.
///
/// Uses the simulator's optics/resist/margin configuration and its
/// per-clip analysis: an `nd × nf` map costs one erosion/dilation of the
/// target and one aerial image per distinct defocus PSF (at most `nf`),
/// each over the guard-band interior only; the `nd` doses of a defocus
/// level share its image.
///
/// # Errors
///
/// Returns [`LithoError::InvalidParameter`] for an empty axis or
/// non-physical defocus values.
pub fn process_window_map(
    sim: &LithoSimulator,
    clip: &Clip,
    doses: &[f32],
    defocuses_nm: &[f64],
) -> Result<ProcessWindowMap, LithoError> {
    if doses.is_empty() {
        return Err(LithoError::InvalidParameter {
            name: "doses",
            value: 0.0,
        });
    }
    if defocuses_nm.is_empty() {
        return Err(LithoError::InvalidParameter {
            name: "defocuses_nm",
            value: 0.0,
        });
    }
    let config = sim.config();
    // Defocus-major, so corner `fi * nd + di` is map cell `(di, fi)`.
    let corners: Vec<ProcessCorner> = defocuses_nm
        .iter()
        .flat_map(|&defocus_nm| {
            doses
                .iter()
                .map(move |&dose| ProcessCorner { dose, defocus_nm })
        })
        .collect();
    let psfs = PsfGroup::group(&corners, config.sigma_nm, config.resolution_nm)?;
    let mask = raster::rasterize_clip(&clip.normalized(), config.resolution_nm);
    let report = sim.analyze_corners(&mask, &corners, &psfs);
    let passes = report
        .corner_reports()
        .iter()
        .map(|r| !report.corner_fails(r))
        .collect();
    Ok(ProcessWindowMap {
        doses: doses.to_vec(),
        defocuses_nm: defocuses_nm.to_vec(),
        passes: Grid::from_vec(doses.len(), defocuses_nm.len(), passes),
    })
}

/// Convenience: a symmetric default grid (doses 0.85–1.15 in 13 steps,
/// defocus 0–100 nm in 6 steps).
pub fn default_grid() -> (Vec<f32>, Vec<f64>) {
    let doses = (0..13).map(|i| 0.85 + 0.025 * i as f32).collect();
    let defocuses = (0..6).map(|i| 20.0 * i as f64).collect();
    (doses, defocuses)
}

/// The corners of [`ProcessCorner::standard_window`] evaluated through the
/// map machinery must agree with [`LithoSimulator::analyze_clip`]; exposed
/// for tests and sanity checks.
pub fn corners_agree(sim: &LithoSimulator, clip: &Clip) -> bool {
    let report = sim.analyze_clip(clip);
    let corners: Vec<ProcessCorner> = sim.config().corners.clone();
    for (corner, cr) in corners.iter().zip(report.corner_reports()) {
        let map = match process_window_map(sim, clip, &[corner.dose], &[corner.defocus_nm]) {
            Ok(m) => m,
            Err(_) => return false,
        };
        let map_pass = map.passes_at(0, 0);
        let report_pass = !report.corner_fails(cr);
        if map_pass != report_pass {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LithoConfig;
    use hotspot_geometry::Rect;

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::default()).unwrap()
    }

    fn line_array(half_pitch: i64) -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200).unwrap());
        let mut x = 100;
        while x + half_pitch < 1100 {
            clip.push(Rect::new(x, 0, x + half_pitch, 1200).unwrap());
            x += 2 * half_pitch;
        }
        clip
    }

    #[test]
    fn robust_pattern_has_larger_window_than_marginal() {
        let s = sim();
        let (doses, defocuses) = default_grid();
        let robust = process_window_map(&s, &line_array(100), &doses, &defocuses).unwrap();
        let marginal = process_window_map(&s, &line_array(60), &doses, &defocuses).unwrap();
        assert!(
            robust.window_area() > marginal.window_area(),
            "robust {} vs marginal {}",
            robust.window_area(),
            marginal.window_area()
        );
        assert!(robust.window_area() > 0.5);
    }

    #[test]
    fn nominal_point_passes_for_printable_pattern() {
        let s = sim();
        let map = process_window_map(&s, &line_array(100), &[1.0], &[0.0]).unwrap();
        assert!(map.passes_at(0, 0));
        assert_eq!(map.window_area(), 1.0);
    }

    #[test]
    fn map_agrees_with_corner_analysis() {
        let s = sim();
        assert!(corners_agree(&s, &line_array(100)));
        assert!(corners_agree(&s, &line_array(60)));
        assert!(corners_agree(&s, &line_array(55)));
    }

    #[test]
    fn exposure_latitude_shrinks_with_pitch() {
        let s = sim();
        let (doses, _) = default_grid();
        let wide = process_window_map(&s, &line_array(100), &doses, &[0.0]).unwrap();
        let tight = process_window_map(&s, &line_array(55), &doses, &[0.0]).unwrap();
        assert!(wide.exposure_latitude_points() >= tight.exposure_latitude_points());
    }

    #[test]
    fn empty_axes_rejected() {
        let s = sim();
        let clip = line_array(100);
        assert!(process_window_map(&s, &clip, &[], &[0.0]).is_err());
        assert!(process_window_map(&s, &clip, &[1.0], &[]).is_err());
    }
}
