//! Constant-threshold resist model.

use crate::LithoError;
use hotspot_geometry::Grid;
use serde::{Deserialize, Serialize};

/// A constant-threshold resist: a pixel prints when
/// `dose × intensity ≥ threshold`.
///
/// This is the standard first-order resist model used in fast printability
/// checks; dose variation enters multiplicatively, exactly how exposure
/// latitude is swept in a process-window analysis.
///
/// # Examples
///
/// ```
/// use hotspot_geometry::Grid;
/// use hotspot_litho::ResistModel;
///
/// # fn main() -> Result<(), hotspot_litho::LithoError> {
/// let resist = ResistModel::new(0.5)?;
/// let aerial = Grid::from_vec(2, 1, vec![0.6f32, 0.3]);
/// let printed = resist.develop(&aerial, 1.0);
/// assert_eq!(printed.as_slice(), &[true, false]);
/// // Under-dosing drops the bright pixel too.
/// let under = resist.develop(&aerial, 0.8);
/// assert_eq!(under.as_slice(), &[false, false]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResistModel {
    threshold: f32,
}

impl ResistModel {
    /// Creates a resist with print threshold in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidParameter`] outside that range.
    pub fn new(threshold: f32) -> Result<Self, LithoError> {
        if !(threshold.is_finite() && threshold > 0.0 && threshold < 1.0) {
            return Err(LithoError::InvalidParameter {
                name: "threshold",
                value: threshold as f64,
            });
        }
        Ok(ResistModel { threshold })
    }

    /// The print threshold.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Develops an aerial image at relative `dose` into a printed binary
    /// image.
    pub fn develop(&self, aerial: &Grid<f32>, dose: f32) -> Grid<bool> {
        aerial.map(|&v| self.prints(v, dose))
    }

    /// Whether a pixel of aerial `intensity` prints at relative `dose`.
    #[inline]
    pub(crate) fn prints(&self, intensity: f32, dose: f32) -> bool {
        intensity * dose >= self.threshold
    }
}

impl Default for ResistModel {
    /// The suite-wide default threshold of 0.45.
    fn default() -> Self {
        ResistModel { threshold: 0.45 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_range_validated() {
        assert!(ResistModel::new(0.0).is_err());
        assert!(ResistModel::new(1.0).is_err());
        assert!(ResistModel::new(f32::NAN).is_err());
        assert!(ResistModel::new(0.45).is_ok());
    }

    #[test]
    fn higher_dose_prints_no_fewer_pixels() {
        let resist = ResistModel::default();
        let aerial = Grid::from_vec(4, 1, vec![0.1f32, 0.4, 0.5, 0.9]);
        let lo = resist.develop(&aerial, 0.9);
        let hi = resist.develop(&aerial, 1.1);
        for (l, h) in lo.iter().zip(hi.iter()) {
            assert!(!l | h, "printed at low dose but not high dose");
        }
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(
            ResistModel::default().threshold(),
            ResistModel::new(0.45).unwrap().threshold()
        );
    }

    #[test]
    fn exact_threshold_prints() {
        let resist = ResistModel::new(0.5).unwrap();
        let aerial = Grid::from_vec(1, 1, vec![0.5f32]);
        assert!(resist.develop(&aerial, 1.0)[(0, 0)]);
    }
}
