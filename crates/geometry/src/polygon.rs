//! Rectilinear polygons with scanline decomposition.

use crate::{GeometryError, Point, Rect};
use serde::{Deserialize, Serialize};

/// A simple rectilinear (Manhattan) polygon, stored as its outline ring.
///
/// The ring is implicitly closed (the last vertex connects back to the
/// first). Consecutive edges must alternate horizontal/vertical, which
/// [`Polygon::new`] validates. Use [`Polygon::to_rects`] to decompose the
/// interior into disjoint rectangles — the form the rasteriser and pattern
/// generators consume.
///
/// # Examples
///
/// An L-shape:
///
/// ```
/// use hotspot_geometry::{Point, Polygon};
///
/// # fn main() -> Result<(), hotspot_geometry::GeometryError> {
/// let l = Polygon::new(vec![
///     Point::new(0, 0),
///     Point::new(20, 0),
///     Point::new(20, 10),
///     Point::new(10, 10),
///     Point::new(10, 30),
///     Point::new(0, 30),
/// ])?;
/// let rects = l.to_rects();
/// let area: i64 = rects.iter().map(|r| r.area()).sum();
/// assert_eq!(area, 20 * 10 + 10 * 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a rectilinear polygon from an outline ring.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidPolygon`] when the ring has fewer than
    /// four vertices, an odd vertex count, repeated consecutive vertices, or
    /// two consecutive edges in the same direction (i.e. the outline is not
    /// alternating horizontal/vertical).
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeometryError> {
        if vertices.len() < 4 {
            return Err(GeometryError::InvalidPolygon("fewer than 4 vertices"));
        }
        if !vertices.len().is_multiple_of(2) {
            return Err(GeometryError::InvalidPolygon(
                "rectilinear ring needs an even vertex count",
            ));
        }
        let n = vertices.len();
        let mut prev_horizontal = None;
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let horizontal = match (a.x == b.x, a.y == b.y) {
                (true, true) => {
                    return Err(GeometryError::InvalidPolygon("repeated consecutive vertex"))
                }
                (true, false) => false,
                (false, true) => true,
                (false, false) => {
                    return Err(GeometryError::InvalidPolygon("diagonal edge in outline"))
                }
            };
            if prev_horizontal == Some(horizontal) {
                return Err(GeometryError::InvalidPolygon(
                    "consecutive edges share a direction",
                ));
            }
            prev_horizontal = Some(horizontal);
        }
        // First and last edge must also alternate; with an even vertex count
        // and the loop above this is already guaranteed.
        Ok(Polygon { vertices })
    }

    /// Outline vertices in ring order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Axis-aligned bounding box of the outline.
    ///
    /// # Panics
    ///
    /// Never panics: a validated polygon always has positive extent.
    pub fn bounding_box(&self) -> Rect {
        let mut lo = self.vertices[0];
        let mut hi = self.vertices[0];
        for v in &self.vertices {
            lo.x = lo.x.min(v.x);
            lo.y = lo.y.min(v.y);
            hi.x = hi.x.max(v.x);
            hi.y = hi.y.max(v.y);
        }
        match Rect::from_corners(lo, hi) {
            Ok(bounds) => bounds,
            Err(_) => unreachable!("validated polygon has positive extent"),
        }
    }

    /// Decomposes the interior into disjoint rectangles via a horizontal
    /// scanline sweep over distinct vertex ordinates.
    ///
    /// Inside/outside is decided by crossing parity, so the decomposition is
    /// correct for any simple rectilinear ring regardless of orientation.
    pub fn to_rects(&self) -> Vec<Rect> {
        // Collect vertical edges as (x, y_lo, y_hi).
        let n = self.vertices.len();
        let mut vedges: Vec<(i64, i64, i64)> = Vec::new();
        let mut ys: Vec<i64> = Vec::new();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            ys.push(a.y);
            if a.x == b.x {
                vedges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
            }
        }
        ys.sort_unstable();
        ys.dedup();

        let mut rects = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            // Vertical edges fully spanning this band, sorted by x.
            let mut xs: Vec<i64> = vedges
                .iter()
                .filter(|&&(_, lo, hi)| lo <= y0 && hi >= y1)
                .map(|&(x, _, _)| x)
                .collect();
            xs.sort_unstable();
            // Parity pairing: (xs[0], xs[1]) inside, (xs[2], xs[3]) inside, ...
            for pair in xs.chunks_exact(2) {
                if let Ok(r) = Rect::new(pair[0], y0, pair[1], y1) {
                    rects.push(r);
                }
            }
        }
        rects
    }

    /// Total enclosed area in nm².
    pub fn area(&self) -> i64 {
        self.to_rects().iter().map(|r| r.area()).sum()
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Self {
        Polygon {
            vertices: vec![
                r.lo(),
                Point::new(r.hi().x, r.lo().y),
                r.hi(),
                Point::new(r.lo().x, r.hi().y),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rings() {
        assert!(Polygon::new(vec![Point::new(0, 0), Point::new(1, 0)]).is_err());
        // Diagonal edge.
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 5),
            Point::new(5, 0),
            Point::new(0, 5),
        ])
        .is_err());
        // Two horizontal edges in a row.
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(9, 0),
            Point::new(9, 4),
            Point::new(0, 4),
            Point::new(0, 2),
        ])
        .is_err());
    }

    #[test]
    fn rectangle_roundtrip() {
        let r = Rect::new(2, 3, 10, 7).unwrap();
        let p = Polygon::from(r);
        let rects = p.to_rects();
        assert_eq!(rects, vec![r]);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bounding_box(), r);
    }

    #[test]
    fn l_shape_area() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .unwrap();
        assert_eq!(l.area(), 200 + 200);
        // Rects are disjoint.
        let rects = l.to_rects();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(!rects[i].intersects(&rects[j]));
            }
        }
    }

    #[test]
    fn u_shape_has_two_columns_in_upper_band() {
        // A "U": 30 wide, 30 tall, 10-wide legs.
        let u = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 30),
            Point::new(20, 30),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .unwrap();
        assert_eq!(u.area(), 30 * 10 + 2 * (10 * 20));
        let upper: Vec<_> = u
            .to_rects()
            .into_iter()
            .filter(|r| r.lo().y >= 10)
            .collect();
        assert_eq!(upper.len(), 2);
    }

    #[test]
    fn reversed_orientation_same_area() {
        let mut verts = vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ];
        let a = Polygon::new(verts.clone()).unwrap().area();
        verts.reverse();
        let b = Polygon::new(verts).unwrap().area();
        assert_eq!(a, b);
    }
}
