//! Dense row-major raster container.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `width × height` grid stored row-major (`y * width + x`).
///
/// `Grid<f32>` is the raster-image currency of the suite: the rasteriser
/// produces one per clip, the lithography simulator convolves them, and the
/// DCT feature extractor consumes them.
///
/// # Examples
///
/// ```
/// use hotspot_geometry::Grid;
///
/// let mut g = Grid::filled(4, 3, 0.0f32);
/// g[(2, 1)] = 1.0;
/// assert_eq!(g[(2, 1)], 1.0);
/// assert_eq!(g.iter().filter(|&&v| v > 0.0).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every cell set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn filled(width: usize, height: usize, fill: T) -> Self {
        let Some(cells) = width.checked_mul(height) else {
            panic!("grid dimensions overflow usize");
        };
        Grid {
            width,
            height,
            data: vec![fill; cells],
        }
    }
}

impl<T> Grid<T> {
    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "buffer length {} does not match {}x{}",
            data.len(),
            width,
            height
        );
        Grid {
            width,
            height,
            data,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total cell count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bounds-checked cell access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Bounds-checked mutable cell access.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> Option<&mut T> {
        if x < self.width && y < self.height {
            Some(&mut self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// One full row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row {y} out of range");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// One full row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.height, "row {y} out of range");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterates over all cells in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iteration over all cells in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw mutable row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid and returns the backing buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element-wise map into a new grid.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl Grid<f32> {
    /// Sum of all cells.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Largest cell value (or `f32::NEG_INFINITY` on an empty grid).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest cell value (or `f32::INFINITY` on an empty grid).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean cell value; 0 for an empty grid.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Extracts the `bw × bh` sub-window whose lower corner cell is
    /// `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the grid bounds.
    pub fn window(&self, x0: usize, y0: usize, bw: usize, bh: usize) -> Grid<f32> {
        assert!(x0 + bw <= self.width && y0 + bh <= self.height);
        let mut out = Vec::with_capacity(bw * bh);
        for y in y0..y0 + bh {
            out.extend_from_slice(&self.data[y * self.width + x0..y * self.width + x0 + bw]);
        }
        Grid::from_vec(bw, bh, out)
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    /// Indexes by `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &mut self.data[y * self.width + x]
    }
}

impl<T: fmt::Debug> fmt::Display for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid {}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut g = Grid::filled(3, 2, 0i32);
        assert_eq!(g.len(), 6);
        g[(2, 1)] = 7;
        assert_eq!(g.get(2, 1), Some(&7));
        assert_eq!(g.get(3, 0), None);
        assert_eq!(g.get(0, 2), None);
        assert_eq!(g.row(1), &[0, 0, 7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let g = Grid::filled(2, 2, 0u8);
        let _ = g[(2, 0)];
    }

    #[test]
    fn from_vec_validates_len() {
        let g = Grid::from_vec(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(g[(0, 1)], 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_wrong_len() {
        let _ = Grid::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn float_statistics() {
        let g = Grid::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]);
        assert_eq!(g.sum(), 10.0);
        assert_eq!(g.max(), 4.0);
        assert_eq!(g.min(), 1.0);
        assert_eq!(g.mean(), 2.5);
    }

    #[test]
    fn window_extraction() {
        let g = Grid::from_vec(4, 4, (0..16).map(|v| v as f32).collect());
        let w = g.window(1, 2, 2, 2);
        assert_eq!(w.as_slice(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let h = g.map(|v| v * 2);
        assert_eq!(h.width(), 2);
        assert_eq!(h.height(), 3);
        assert_eq!(h[(1, 2)], 12);
    }
}
