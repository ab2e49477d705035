//! Clip → feature-tensor pipeline.

use crate::CoreError;
use hotspot_datagen::Dataset;
use hotspot_dct::{blocks, BlockDctPlan, FeatureTensorSpec};
use hotspot_geometry::{raster, Clip};
use hotspot_nn::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Converts layout clips into normalised CNN input tensors.
///
/// The pipeline is: rasterise at `resolution_nm` → divide into an
/// `n × n` block grid → per-block DCT → keep the first `k` zig-zag
/// coefficients → scale by `1 / B` (with `B` the block side in pixels) so
/// the DC channel lands in `[0, 1]` regardless of raster resolution.
///
/// # Examples
///
/// ```
/// use hotspot_core::FeaturePipeline;
/// use hotspot_geometry::{Clip, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pipeline = FeaturePipeline::new(10, 12, 32)?;
/// let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200)?);
/// clip.push(Rect::new(100, 0, 200, 1200)?);
/// let tensor = pipeline.extract(&clip)?;
/// assert_eq!(tensor.shape(), &[32, 12, 12]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct FeaturePipeline {
    resolution_nm: u32,
    spec: FeatureTensorSpec,
    /// Block plan for the block size of the first clip extracted, which
    /// every clip of the same window size shares. Derived state: not
    /// serialised, compared or printed.
    #[serde(skip)]
    plan: OnceLock<BlockDctPlan>,
}

impl PartialEq for FeaturePipeline {
    fn eq(&self, other: &Self) -> bool {
        (self.resolution_nm, self.spec) == (other.resolution_nm, other.spec)
    }
}

impl Eq for FeaturePipeline {}

impl fmt::Debug for FeaturePipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeaturePipeline")
            .field("resolution_nm", &self.resolution_nm)
            .field("spec", &self.spec)
            .finish()
    }
}

impl FeaturePipeline {
    /// Creates a pipeline rasterising at `resolution_nm` nm/pixel with an
    /// `grid_dim × grid_dim` block grid keeping `coefficients` DCT values
    /// per block (the paper: 12 and `k`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero resolution and
    /// [`CoreError::Feature`] for a zero grid/coefficient count.
    pub fn new(
        resolution_nm: u32,
        grid_dim: usize,
        coefficients: usize,
    ) -> Result<Self, CoreError> {
        if resolution_nm == 0 {
            return Err(CoreError::InvalidConfig("resolution_nm must be nonzero"));
        }
        Ok(FeaturePipeline {
            resolution_nm,
            spec: FeatureTensorSpec::new(grid_dim, coefficients)?,
            plan: OnceLock::new(),
        })
    }

    /// Raster resolution in nm per pixel.
    #[inline]
    pub fn resolution_nm(&self) -> u32 {
        self.resolution_nm
    }

    /// Blocks per axis (`n`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.spec.grid_dim()
    }

    /// Kept DCT coefficients per block (`k`, the CNN input channel count).
    #[inline]
    pub fn coefficients(&self) -> usize {
        self.spec.coefficients()
    }

    /// The CNN input shape this pipeline produces: `[k, n, n]`.
    pub fn input_shape(&self) -> Vec<usize> {
        vec![self.coefficients(), self.grid_dim(), self.grid_dim()]
    }

    /// Extracts the normalised feature tensor of one clip.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Feature`] when the rasterised clip is not
    /// divisible into the configured block grid (window size, resolution
    /// and grid dimension must be consistent).
    pub fn extract(&self, clip: &Clip) -> Result<Tensor, CoreError> {
        let (k, n) = (self.coefficients(), self.grid_dim());
        let mut data = vec![0.0f32; k * n * n];
        self.extract_into(clip, &mut data)?;
        Ok(Tensor::from_vec(vec![k, n, n], data))
    }

    /// Writes the normalised feature tensor of one clip into `out`
    /// (channel-major, length `k · n · n`), bit-identical to
    /// [`FeaturePipeline::extract`] — which calls it — without allocating
    /// the tensor. The raster is read in place by the truncated block
    /// kernel ([`BlockDctPlan`]), which writes each coefficient already
    /// scaled by `1 / B`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Feature`] as for [`FeaturePipeline::extract`], and
    /// when `out` is not exactly one tensor long.
    pub fn extract_into(&self, clip: &Clip, out: &mut [f32]) -> Result<(), CoreError> {
        // `rasterize_clip` already places the window's low corner at pixel
        // (0, 0), so the clip needs no normalised copy.
        let image = raster::rasterize_clip(clip, self.resolution_nm);
        let n = self.grid_dim();
        let b = blocks::block_size(&image, n)?;
        let fresh;
        let plan = match self.plan.get() {
            Some(plan) if plan.block_size() == b => plan,
            cached => {
                fresh = BlockDctPlan::new(b, self.coefficients())?;
                if cached.is_none() {
                    let _ = self.plan.set(fresh.clone());
                }
                &fresh
            }
        };
        plan.tensor_into(&image, n, 1.0 / b as f32, out)?;
        Ok(())
    }

    /// Extracts features and boolean labels for a whole dataset, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first extraction failure.
    pub fn extract_dataset(&self, data: &Dataset) -> Result<(Vec<Tensor>, Vec<bool>), CoreError> {
        let mut features = Vec::with_capacity(data.len());
        let mut labels = Vec::with_capacity(data.len());
        for sample in data.iter() {
            features.push(self.extract(&sample.clip)?);
            labels.push(sample.hotspot);
        }
        Ok((features, labels))
    }
}

impl Default for FeaturePipeline {
    /// The paper's reference configuration: 10 nm/px raster of a
    /// 1200×1200 nm clip, n = 12, k = 32.
    fn default() -> Self {
        match FeaturePipeline::new(10, 12, 32) {
            Ok(pipeline) => pipeline,
            Err(_) => unreachable!("reference configuration is valid"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geometry::Rect;

    fn clip_with_line() -> Clip {
        let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200).unwrap());
        clip.push(Rect::new(0, 0, 600, 1200).unwrap());
        clip
    }

    #[test]
    fn default_shape_matches_paper() {
        let p = FeaturePipeline::default();
        assert_eq!(p.input_shape(), vec![32, 12, 12]);
        let t = p.extract(&clip_with_line()).unwrap();
        assert_eq!(t.shape(), &[32, 12, 12]);
    }

    #[test]
    fn dc_channel_is_normalised_density() {
        let p = FeaturePipeline::default();
        let t = p.extract(&clip_with_line()).unwrap();
        // Left half fully covered: DC of covered blocks = B * 1.0 scaled by
        // 1/B = 1.0.
        assert!((t.at3(0, 5, 0) - 1.0).abs() < 1e-3);
        assert!(t.at3(0, 5, 11).abs() < 1e-3);
    }

    #[test]
    fn rejects_incompatible_configuration() {
        assert!(FeaturePipeline::new(0, 12, 32).is_err());
        assert!(FeaturePipeline::new(10, 0, 32).is_err());
        // 1200 nm window at 10 nm/px = 120 px; a 7-grid does not divide it.
        let p = FeaturePipeline::new(10, 7, 4).unwrap();
        assert!(p.extract(&clip_with_line()).is_err());
    }

    #[test]
    fn extraction_is_deterministic() {
        let p = FeaturePipeline::default();
        assert_eq!(
            p.extract(&clip_with_line()).unwrap(),
            p.extract(&clip_with_line()).unwrap()
        );
    }

    #[test]
    fn different_clips_different_tensors() {
        let p = FeaturePipeline::default();
        let a = p.extract(&clip_with_line()).unwrap();
        let mut other = Clip::new(Rect::new(0, 0, 1200, 1200).unwrap());
        other.push(Rect::new(600, 0, 1200, 1200).unwrap());
        let b = p.extract(&other).unwrap();
        assert_ne!(a, b);
    }
}
