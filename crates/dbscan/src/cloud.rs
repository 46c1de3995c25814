//! Runtime-dimension point storage with ingest-time validation.
//!
//! The monomorphized pipelines underneath this crate quantize coordinates
//! into grid cell keys with `((x − origin) / side).floor() as i64`, and the
//! `as i64` cast saturates instead of failing. Two kinds of input would
//! silently share cells that way, and each is rejected where it can be
//! detected:
//!
//! * NaN and ±∞ coordinates, whatever ε is. [`PointCloud`] rejects them:
//!   every constructor validates finiteness and arity once, so everything
//!   downstream — one-shot runs, engine sweeps, streaming updates — sees
//!   finite input.
//! * Finite coordinates that lie 2^52 or more cells of side ε/√D from the
//!   grid origin. This depends on ε, which a cloud does not know, so the
//!   grid build (one-shot runs, queries, sweeps, the start of a streaming
//!   episode) and the streaming batch validation reject it with
//!   [`Error::InvalidParams`]; a rejected batch applies nothing.

use crate::error::Error;

/// A set of points whose dimensionality is a runtime value.
///
/// Coordinates are stored flat and row-major (`dim` consecutive values per
/// point), the natural shape of a parsed CSV or JSON payload. Construction
/// validates every coordinate (finite) and the buffer arity (a whole number
/// of points), returning a typed [`Error`] instead of corrupting grid state
/// later.
///
/// ```
/// use dbscan::PointCloud;
///
/// let mut cloud = PointCloud::new(2, vec![0.0, 0.0, 1.0, 1.0])?;
/// cloud.push(&[2.0, 2.0])?;
/// assert_eq!((cloud.dim(), cloud.len()), (2, 3));
/// assert_eq!(cloud.point(2), &[2.0, 2.0]);
///
/// // Bad input fails at ingest, with a typed error.
/// assert!(PointCloud::new(2, vec![0.0, f64::NAN]).is_err());
/// assert!(PointCloud::new(2, vec![0.0, 0.0, 1.0]).is_err());
/// assert!(cloud.push(&[1.0, 2.0, 3.0]).is_err());
/// # Ok::<(), dbscan::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointCloud {
    dim: usize,
    coords: Vec<f64>,
}

impl PointCloud {
    /// Wraps a flat row-major coordinate buffer (`dim` consecutive values
    /// per point). Fails if `dim` is zero, the buffer does not divide into
    /// `dim`-dimensional points, or any coordinate is non-finite.
    pub fn new(dim: usize, coords: Vec<f64>) -> Result<Self, Error> {
        if dim == 0 {
            return Err(Error::UnsupportedDimension(0));
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(Error::RaggedCoordinates {
                len: coords.len(),
                dim,
            });
        }
        validate_finite(&coords, dim, 0)?;
        Ok(PointCloud { dim, coords })
    }

    /// An empty cloud of the given dimensionality (points can be
    /// [`PointCloud::push`]ed later).
    pub fn empty(dim: usize) -> Result<Self, Error> {
        PointCloud::new(dim, Vec::new())
    }

    /// Builds a cloud from per-point rows, inferring the dimensionality
    /// from the first row. Fails with [`Error::EmptyCloud`] when there is
    /// no row to infer from, and with [`Error::DimensionMismatch`] when the
    /// rows disagree about their arity.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, Error> {
        let first = rows.first().ok_or(Error::EmptyCloud)?;
        let mut cloud = PointCloud::empty(first.as_ref().len())?;
        for row in rows {
            cloud.push(row.as_ref())?;
        }
        Ok(cloud)
    }

    /// Appends one point, returning its index. Fails on arity mismatch or a
    /// non-finite coordinate; the cloud is unchanged on error.
    pub fn push(&mut self, point: &[f64]) -> Result<usize, Error> {
        if point.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        validate_finite(point, self.dim, self.len())?;
        self.coords.extend_from_slice(point);
        Ok(self.len() - 1)
    }

    /// The dimensionality of every point in the cloud.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Returns `true` if the cloud holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates of point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat row-major coordinate buffer.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Wraps a buffer the caller *guarantees* already satisfies the cloud
    /// invariants (coordinates that previously passed validation, e.g. the
    /// live set read back out of a streaming session) without re-scanning
    /// it. Crate-private: external input must go through [`PointCloud::new`].
    pub(crate) fn trusted(dim: usize, coords: Vec<f64>) -> Self {
        debug_assert!(PointCloud::new(dim, coords.clone()).is_ok());
        PointCloud { dim, coords }
    }
}

/// Rejects NaN/infinite coordinates in a flat buffer, reporting the
/// offending point (offset by `first_point`, so pushes report the cloud
/// index) and axis. The single copy of the finiteness policy — every
/// ingest path (cloud construction, pushes, streaming inserts) calls it.
pub(crate) fn validate_finite(coords: &[f64], dim: usize, first_point: usize) -> Result<(), Error> {
    for (i, &c) in coords.iter().enumerate() {
        if !c.is_finite() {
            return Err(Error::NonFiniteCoordinate {
                point: first_point + i / dim,
                axis: Some(i % dim),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let cloud = PointCloud::new(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(cloud.dim(), 3);
        assert_eq!(cloud.len(), 2);
        assert!(!cloud.is_empty());
        assert_eq!(cloud.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(cloud.coords().len(), 6);
        assert!(PointCloud::empty(5).unwrap().is_empty());
    }

    #[test]
    fn from_rows_infers_dimension_and_rejects_ragged_rows() {
        let cloud = PointCloud::from_rows(&[[0.0, 1.0], [2.0, 3.0]]).unwrap();
        assert_eq!((cloud.dim(), cloud.len()), (2, 2));
        assert_eq!(
            PointCloud::from_rows::<Vec<f64>>(&[]).unwrap_err(),
            Error::EmptyCloud
        );
        let rows: Vec<Vec<f64>> = vec![vec![0.0, 1.0], vec![2.0, 3.0, 4.0]];
        assert_eq!(
            PointCloud::from_rows(&rows).unwrap_err(),
            Error::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn validation_pinpoints_the_offending_coordinate() {
        assert_eq!(
            PointCloud::new(2, vec![0.0, 0.0, 1.0, f64::NAN]).unwrap_err(),
            Error::NonFiniteCoordinate {
                point: 1,
                axis: Some(1)
            }
        );
        assert_eq!(
            PointCloud::new(3, vec![0.0, f64::INFINITY, 0.0]).unwrap_err(),
            Error::NonFiniteCoordinate {
                point: 0,
                axis: Some(1)
            }
        );
        let mut cloud = PointCloud::new(2, vec![0.0, 0.0]).unwrap();
        assert_eq!(
            cloud.push(&[f64::NEG_INFINITY, 0.0]).unwrap_err(),
            Error::NonFiniteCoordinate {
                point: 1,
                axis: Some(0)
            }
        );
        assert_eq!(cloud.len(), 1, "failed push must not mutate the cloud");
    }

    #[test]
    fn degenerate_dimensions_are_rejected() {
        assert_eq!(
            PointCloud::new(0, vec![]).unwrap_err(),
            Error::UnsupportedDimension(0)
        );
        assert_eq!(
            PointCloud::new(2, vec![1.0]).unwrap_err(),
            Error::RaggedCoordinates { len: 1, dim: 2 }
        );
    }
}
