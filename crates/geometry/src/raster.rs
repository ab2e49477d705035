//! Area-accurate rasterisation of clips.
//!
//! Rasterisation converts a [`Clip`] into a [`Grid<f32>`] where each pixel
//! holds the *fraction of its area covered by mask shapes* (0.0–1.0). For
//! Manhattan rectangles this coverage is computed exactly from 1-D overlap
//! products, so the raster is anti-aliased without sampling error. Coverage
//! values saturate at 1.0 when shapes overlap.

use crate::{Clip, Grid, Rect};

/// Rasterises `clip` at `resolution_nm` nanometres per pixel.
///
/// The output grid has `ceil(window / resolution)` pixels per axis; pixel
/// `(0, 0)` corresponds to the window's low corner. Each pixel value is the
/// exact covered area fraction, clamped to 1.0.
///
/// # Panics
///
/// Panics if `resolution_nm == 0` (use [`try_rasterize_clip`] for a fallible
/// variant).
///
/// # Examples
///
/// ```
/// use hotspot_geometry::{Clip, Rect, raster::rasterize_clip};
///
/// # fn main() -> Result<(), hotspot_geometry::GeometryError> {
/// let mut clip = Clip::new(Rect::new(0, 0, 100, 100)?);
/// clip.push(Rect::new(0, 0, 55, 100)?);
/// let img = rasterize_clip(&clip, 10);
/// assert_eq!(img[(0, 0)], 1.0);   // fully covered pixel
/// assert_eq!(img[(5, 0)], 0.5);   // edge pixel: half covered
/// assert_eq!(img[(9, 9)], 0.0);   // empty pixel
/// # Ok(())
/// # }
/// ```
pub fn rasterize_clip(clip: &Clip, resolution_nm: u32) -> Grid<f32> {
    match try_rasterize_clip(clip, resolution_nm) {
        Ok(grid) => grid,
        Err(_) => panic!("resolution must be nonzero"),
    }
}

/// Fallible variant of [`rasterize_clip`].
///
/// # Errors
///
/// Returns [`crate::GeometryError::ZeroResolution`] when `resolution_nm == 0`.
pub fn try_rasterize_clip(
    clip: &Clip,
    resolution_nm: u32,
) -> Result<Grid<f32>, crate::GeometryError> {
    if resolution_nm == 0 {
        return Err(crate::GeometryError::ZeroResolution);
    }
    let res = i64::from(resolution_nm);
    let window = clip.window();
    let width = div_ceil(window.width(), res) as usize;
    let height = div_ceil(window.height(), res) as usize;
    let mut grid = Grid::filled(width, height, 0.0f32);
    let pixel_area = (res * res) as f64;

    for shape in clip.shapes() {
        // Shape coordinates relative to window origin.
        let local = shape.translated(crate::Point::origin() - window.lo());
        paint_rect(&mut grid, &local, res, pixel_area);
    }
    // Overlapping shapes can push coverage past 1; saturate. A select
    // rather than a branch, so the loop vectorises.
    for v in grid.iter_mut() {
        *v = if *v > 1.0 { 1.0 } else { *v };
    }
    Ok(grid)
}

/// Accumulates the exact coverage of `r` (window-local nm coordinates) into
/// `grid` at `res` nm/pixel.
///
/// A rectangle covers every pixel strictly between its first and last
/// column of a row by the full pixel width, so each row takes three
/// values: its first column's, its last column's and the interior's, each
/// the per-pixel `((cover_x · cover_y) as f64 / pixel_area) as f32`. The
/// interior value is added over the contiguous span.
fn paint_rect(grid: &mut Grid<f32>, r: &Rect, res: i64, pixel_area: f64) {
    let px0 = (r.lo().x / res).max(0);
    let py0 = (r.lo().y / res).max(0);
    let px1 = div_ceil(r.hi().x, res).min(grid.width() as i64);
    let py1 = div_ceil(r.hi().y, res).min(grid.height() as i64);
    if px0 >= px1 {
        return;
    }
    let cover_x = |px: i64| overlap(r.lo().x, r.hi().x, px * res, px * res + res);
    let (first_x, last_x) = (cover_x(px0), cover_x(px1 - 1));
    for py in py0..py1 {
        let cell_y0 = py * res;
        let cover_y = overlap(r.lo().y, r.hi().y, cell_y0, cell_y0 + res);
        if cover_y == 0 {
            continue;
        }
        let value = |cover_x: i64| ((cover_x * cover_y) as f64 / pixel_area) as f32;
        match &mut grid.row_mut(py as usize)[px0 as usize..px1 as usize] {
            [only] => *only += value(first_x),
            [first, interior @ .., last] => {
                *first += value(first_x);
                let full = value(res);
                for v in interior {
                    *v += full;
                }
                *last += value(last_x);
            }
            [] => {}
        }
    }
}

#[inline]
fn overlap(a0: i64, a1: i64, b0: i64, b1: i64) -> i64 {
    (a1.min(b1) - a0.max(b0)).max(0)
}

#[inline]
fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Down-samples a coverage image by integer `factor` using block averaging.
///
/// Useful for producing the "raw down-sampled image" ablation baseline that
/// the feature tensor is compared against.
///
/// # Panics
///
/// Panics if `factor == 0` or the image dimensions are not divisible by
/// `factor`.
pub fn downsample(image: &Grid<f32>, factor: usize) -> Grid<f32> {
    assert!(factor > 0, "downsample factor must be nonzero");
    assert!(
        image.width().is_multiple_of(factor) && image.height().is_multiple_of(factor),
        "image {}x{} not divisible by {}",
        image.width(),
        image.height(),
        factor
    );
    let w = image.width() / factor;
    let h = image.height() / factor;
    let norm = 1.0 / (factor * factor) as f32;
    let mut out = Grid::filled(w, h, 0.0f32);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for dy in 0..factor {
                let row = image.row(y * factor + dy);
                for dx in 0..factor {
                    acc += row[x * factor + dx];
                }
            }
            out[(x, y)] = acc * norm;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;
    use proptest::prelude::*;

    /// The per-pixel loop [`paint_rect`] must reproduce bit for bit: each
    /// covered pixel of each row adds its own coverage fraction.
    fn paint_rect_per_pixel(grid: &mut Grid<f32>, r: &Rect, res: i64, pixel_area: f64) {
        let px0 = (r.lo().x / res).max(0);
        let py0 = (r.lo().y / res).max(0);
        let px1 = div_ceil(r.hi().x, res).min(grid.width() as i64);
        let py1 = div_ceil(r.hi().y, res).min(grid.height() as i64);
        for py in py0..py1 {
            let cell_y0 = py * res;
            let cover_y = overlap(r.lo().y, r.hi().y, cell_y0, cell_y0 + res);
            if cover_y == 0 {
                continue;
            }
            let row = grid.row_mut(py as usize);
            for px in px0..px1 {
                let cell_x0 = px * res;
                let cover_x = overlap(r.lo().x, r.hi().x, cell_x0, cell_x0 + res);
                if cover_x == 0 {
                    continue;
                }
                row[px as usize] += ((cover_x * cover_y) as f64 / pixel_area) as f32;
            }
        }
    }

    /// [`try_rasterize_clip`] through [`paint_rect_per_pixel`], with the
    /// branching saturation.
    fn rasterize_per_pixel(clip: &Clip, res: i64) -> Grid<f32> {
        let window = clip.window();
        let (w, h) = (
            div_ceil(window.width(), res),
            div_ceil(window.height(), res),
        );
        let mut grid = Grid::filled(w as usize, h as usize, 0.0f32);
        for shape in clip.shapes() {
            let local = shape.translated(Point::origin() - window.lo());
            paint_rect_per_pixel(&mut grid, &local, res, (res * res) as f64);
        }
        for v in grid.iter_mut() {
            if *v > 1.0 {
                *v = 1.0;
            }
        }
        grid
    }

    fn bits(g: &Grid<f32>) -> Vec<u32> {
        g.iter().map(|v| v.to_bits()).collect()
    }

    /// A rectangle from two corner picks: sub-pixel sizes, spans past
    /// every side of a window at most 400 nm on a side, and negative
    /// coordinates.
    fn arb_rect() -> impl Strategy<Value = Rect> {
        let coord = || prop_oneof![-500i64..900, -40i64..40, 390i64..410];
        let size = || prop_oneof![1i64..4, 1i64..60, 1i64..1400];
        (coord(), coord(), size(), size())
            .prop_map(|(x, y, dx, dy)| Rect::new(x, y, x + dx, y + dy).expect("positive extent"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn span_painting_is_the_per_pixel_loop_bitwise(
            (x0, y0) in (-300i64..300, -300i64..300),
            (w, h) in (1i64..400, 1i64..400),
            res in 1u32..31,
            shapes in proptest::collection::vec(arb_rect(), 0..12),
        ) {
            let window = Rect::new(x0, y0, x0 + w, y0 + h).expect("positive extent");
            // Clipped by the window, as every clip's shapes are.
            let clip = Clip::with_shapes(window, shapes.iter().copied());
            let res64 = i64::from(res);
            prop_assert_eq!(
                bits(&rasterize_clip(&clip, res)),
                bits(&rasterize_per_pixel(&clip, res64)),
                "{:?} at {} nm", clip, res
            );
            // Unclipped, window-local: negative and out-of-window spans
            // reach `paint_rect` itself.
            let side = (div_ceil(w, res64) as usize, div_ceil(h, res64) as usize);
            let (mut span, mut pixel) = (
                Grid::filled(side.0, side.1, 0.0f32),
                Grid::filled(side.0, side.1, 0.0f32),
            );
            for r in &shapes {
                paint_rect(&mut span, r, res64, (res64 * res64) as f64);
                paint_rect_per_pixel(&mut pixel, r, res64, (res64 * res64) as f64);
            }
            prop_assert_eq!(bits(&span), bits(&pixel), "{:?} at {} nm", shapes, res);
        }
    }

    fn clip_with(shapes: &[Rect]) -> Clip {
        Clip::with_shapes(Rect::new(0, 0, 100, 100).unwrap(), shapes.iter().copied())
    }

    #[test]
    fn total_coverage_equals_shape_area() {
        let c = clip_with(&[Rect::new(13, 27, 61, 89).unwrap()]);
        let img = rasterize_clip(&c, 10);
        let covered = img.sum() * 100.0; // pixel area = 100 nm²
        assert!((covered - (48 * 62) as f64).abs() < 1e-3);
    }

    #[test]
    fn partial_pixels_fractional() {
        let c = clip_with(&[Rect::new(0, 0, 15, 10).unwrap()]);
        let img = rasterize_clip(&c, 10);
        assert_eq!(img[(0, 0)], 1.0);
        assert_eq!(img[(1, 0)], 0.5);
        assert_eq!(img[(2, 0)], 0.0);
    }

    #[test]
    fn overlapping_shapes_saturate() {
        let c = clip_with(&[
            Rect::new(0, 0, 20, 20).unwrap(),
            Rect::new(0, 0, 20, 20).unwrap(),
        ]);
        let img = rasterize_clip(&c, 10);
        assert_eq!(img.max(), 1.0);
    }

    #[test]
    fn window_offset_is_respected() {
        let w = Rect::new(1000, 1000, 1100, 1100).unwrap();
        let mut c = Clip::new(w);
        c.push(Rect::new(1000, 1000, 1010, 1010).unwrap());
        let img = rasterize_clip(&c, 10);
        assert_eq!(img[(0, 0)], 1.0);
        assert_eq!(img[(1, 1)], 0.0);
    }

    #[test]
    fn zero_resolution_errors() {
        let c = Clip::new(Rect::new(0, 0, 10, 10).unwrap());
        assert!(matches!(
            try_rasterize_clip(&c, 0),
            Err(crate::GeometryError::ZeroResolution)
        ));
    }

    #[test]
    fn non_divisible_window_rounds_up() {
        let c = Clip::new(Rect::new(0, 0, 105, 95).unwrap());
        let img = rasterize_clip(&c, 10);
        assert_eq!((img.width(), img.height()), (11, 10));
    }

    #[test]
    fn downsample_preserves_mean() {
        let mut c = Clip::new(Rect::new(0, 0, 100, 100).unwrap());
        c.push(Rect::new(0, 0, 50, 100).unwrap());
        let img = rasterize_clip(&c, 5); // 20x20
        let small = downsample(&img, 4); // 5x5
        assert!((small.mean() - img.mean()).abs() < 1e-6);
        assert_eq!((small.width(), small.height()), (5, 5));
    }

    #[test]
    fn blank_clip_is_all_zero() {
        let c = Clip::new(Rect::new(0, 0, 50, 50).unwrap());
        let img = rasterize_clip(&c, 5);
        assert_eq!(img.sum(), 0.0);
        assert_eq!(img.min(), 0.0);
    }

    #[test]
    fn shape_partially_outside_window_counts_inside_only() {
        let w = Rect::new(0, 0, 100, 100).unwrap();
        let mut c = Clip::new(w);
        c.push(Rect::new(90, 90, 200, 200).unwrap());
        let img = rasterize_clip(&c, 10);
        let covered = img.sum() * 100.0;
        assert!((covered - 100.0).abs() < 1e-3);
        assert_eq!(img[(9, 9)], 1.0);
        // Clamp means the window translation math must still line up.
        assert_eq!(
            c.shapes()[0].translated(Point::origin() - w.lo()),
            Rect::new(90, 90, 100, 100).unwrap()
        );
    }
}
