//! Planar geometry helpers.
//!
//! Networks live in a local planar coordinate system measured in metres;
//! we never need geodesy because every network in the reproduction is
//! synthetic (see DESIGN.md, substitution table).

use serde::{Deserialize, Serialize};

/// A point in the local planar frame, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from planar coordinates in metres.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared Euclidean distance; cheaper when only comparing.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// Centroid of a non-empty set of points. Returns `None` for an empty slice.
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    Some(Point::new(sx / n, sy / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(10.0, -1.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(centroid(&[]).is_none());
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        let c = centroid(&pts).unwrap();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }
}
