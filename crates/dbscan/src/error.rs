//! The facade's typed error.
//!
//! Every fallible entry point of this crate reports one [`Error`]: the
//! validation failures the facade checks itself (dimension support, arity,
//! finiteness) plus the underlying pipeline and streaming errors, lifted
//! into the same enum so callers match on a single type.

use pardbscan::DbscanError;
use std::fmt;

/// Errors reported by the `dbscan` facade.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The point dimensionality is outside the facade's dispatch range
    /// (`pardbscan::ERASED_DIM_MIN..=ERASED_DIM_MAX`, i.e. 2..=8). Higher
    /// dimensions remain reachable through the statically-typed per-crate
    /// APIs.
    UnsupportedDimension(usize),
    /// A point (a pushed row, an update insert, or a query point) does not
    /// have the cloud's dimensionality.
    DimensionMismatch {
        /// The cloud's dimensionality.
        expected: usize,
        /// The offending point's coordinate count.
        got: usize,
    },
    /// A flat coordinate buffer does not divide evenly into points of the
    /// declared dimensionality.
    RaggedCoordinates {
        /// Length of the flat buffer.
        len: usize,
        /// The declared dimensionality.
        dim: usize,
    },
    /// A coordinate is NaN or infinite. Quantizing such a value would
    /// silently corrupt grid cell keys, so the facade rejects it at ingest.
    NonFiniteCoordinate {
        /// Index of the offending point.
        point: usize,
        /// Axis of the offending coordinate, when known.
        axis: Option<usize>,
    },
    /// A construction that infers the dimensionality from its input (e.g.
    /// [`crate::PointCloud::from_rows`]) was given no points to infer from.
    EmptyCloud,
    /// ε, minPts or ρ is out of range, or ε is so small against the extent
    /// of the points that grid cell keys would not be exact (from the
    /// pipeline's validators and the grid build).
    InvalidParams(String),
    /// A 2D-only method was requested for data of a different dimension.
    RequiresTwoDimensions(&'static str),
    /// A streaming delete referenced an id that was never handed out or is
    /// already dead.
    UnknownPoint(usize),
    /// The same id appears twice in one update batch's deletes.
    DuplicateDelete(usize),
    /// The underlying subsystem rejected the configuration for a reason the
    /// facade does not model (carried verbatim).
    Unsupported(String),
    /// A durable-store I/O operation failed (message carried verbatim; the
    /// store's on-disk state is untouched by the failed operation).
    Io(String),
    /// Durable on-disk state failed validation: a checksum mismatch, a
    /// truncated non-tail region, an implausible length, or a WAL replay
    /// the snapshot contradicts.
    Corrupt {
        /// Log sequence number of the offending WAL record, when the
        /// corruption is attributable to one.
        lsn: Option<u64>,
        /// What failed validation.
        reason: String,
    },
    /// A durable file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnsupportedDimension(dim) => write!(
                f,
                "dimension {dim} is outside the facade's supported range \
                 {}..={} (use the statically-typed per-crate APIs for other \
                 dimensions)",
                pardbscan::ERASED_DIM_MIN,
                pardbscan::ERASED_DIM_MAX
            ),
            Error::DimensionMismatch { expected, got } => write!(
                f,
                "point has {got} coordinates but the cloud is {expected}-dimensional"
            ),
            Error::RaggedCoordinates { len, dim } => write!(
                f,
                "flat buffer of {len} coordinates does not divide into \
                 {dim}-dimensional points"
            ),
            Error::NonFiniteCoordinate { point, axis } => match axis {
                Some(axis) => write!(
                    f,
                    "point {point} has a non-finite coordinate on axis {axis}"
                ),
                None => write!(f, "point {point} has a non-finite coordinate"),
            },
            Error::EmptyCloud => write!(
                f,
                "cannot infer a dimensionality from an empty point list \
                 (use PointCloud::empty(dim) or PointCloud::new)"
            ),
            Error::InvalidParams(msg) => write!(f, "invalid DBSCAN parameters: {msg}"),
            Error::RequiresTwoDimensions(what) => {
                write!(f, "{what} is only available for 2-dimensional data")
            }
            Error::UnknownPoint(id) => {
                write!(f, "delete of unknown or already-deleted point id {id}")
            }
            Error::DuplicateDelete(id) => {
                write!(f, "point id {id} is deleted twice in one batch")
            }
            Error::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
            Error::Io(msg) => write!(f, "durable store I/O error: {msg}"),
            Error::Corrupt {
                lsn: Some(lsn),
                reason,
            } => {
                write!(f, "durable store corrupt at lsn {lsn}: {reason}")
            }
            Error::Corrupt { lsn: None, reason } => {
                write!(f, "durable store corrupt: {reason}")
            }
            Error::VersionMismatch { found, expected } => write!(
                f,
                "durable store format version {found} is not the supported version {expected}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<DbscanError> for Error {
    fn from(err: DbscanError) -> Self {
        match err {
            DbscanError::InvalidParams(msg) => Error::InvalidParams(msg),
            DbscanError::RequiresTwoDimensions(what) => Error::RequiresTwoDimensions(what),
        }
    }
}

impl From<dbscan_stream::StreamError> for Error {
    fn from(err: dbscan_stream::StreamError) -> Self {
        use dbscan_stream::StreamError;
        match err {
            StreamError::UnknownPoint(id) => Error::UnknownPoint(id),
            StreamError::DuplicateDelete(id) => Error::DuplicateDelete(id),
            // The facade validates inserts before they reach the streaming
            // layer, so this arm is defensive; the axis is not reported by
            // the streaming validator.
            StreamError::NonFinitePoint(i) => Error::NonFiniteCoordinate {
                point: i,
                axis: None,
            },
            StreamError::Dbscan(err) => err.into(),
            StreamError::Unsupported(msg) => Error::Unsupported(msg),
        }
    }
}

impl From<dbscan_durable::DurableError> for Error {
    fn from(err: dbscan_durable::DurableError) -> Self {
        use dbscan_durable::DurableError;
        match err {
            DurableError::Io(msg) => Error::Io(msg),
            DurableError::Corrupt { lsn, reason } => Error::Corrupt { lsn, reason },
            DurableError::VersionMismatch { found, expected } => {
                Error::VersionMismatch { found, expected }
            }
            // A replay rejection means the log and the snapshot disagree —
            // on-disk state inconsistent with itself, i.e. corruption (the
            // durable layer validates batches *before* appending them, so a
            // well-formed store never produces this).
            DurableError::Replay { lsn, source } => Error::Corrupt {
                lsn: Some(lsn),
                reason: format!("WAL replay rejected: {source}"),
            },
            DurableError::Stream(err) => err.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        assert!(Error::UnsupportedDimension(9).to_string().contains("2..=8"));
        assert!(Error::DimensionMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("3-dimensional"));
        assert!(Error::NonFiniteCoordinate {
            point: 4,
            axis: Some(1)
        }
        .to_string()
        .contains("axis 1"));
        assert!(Error::EmptyCloud.to_string().contains("infer"));
    }

    #[test]
    fn underlying_errors_lift_losslessly() {
        let e: Error = DbscanError::InvalidParams("eps".into()).into();
        assert_eq!(e, Error::InvalidParams("eps".into()));
        let e: Error = dbscan_stream::StreamError::UnknownPoint(7).into();
        assert_eq!(e, Error::UnknownPoint(7));
        let e: Error = dbscan_stream::StreamError::DuplicateDelete(3).into();
        assert_eq!(e, Error::DuplicateDelete(3));
        let e: Error = dbscan_durable::DurableError::Io("disk full".into()).into();
        assert_eq!(e, Error::Io("disk full".into()));
        let e: Error = dbscan_durable::DurableError::corrupt(Some(9), "bad crc").into();
        assert_eq!(
            e,
            Error::Corrupt {
                lsn: Some(9),
                reason: "bad crc".into()
            }
        );
        let e: Error = dbscan_durable::DurableError::VersionMismatch {
            found: 2,
            expected: 1,
        }
        .into();
        assert_eq!(
            e,
            Error::VersionMismatch {
                found: 2,
                expected: 1
            }
        );
        let e: Error =
            dbscan_durable::DurableError::Stream(dbscan_stream::StreamError::UnknownPoint(5))
                .into();
        assert_eq!(e, Error::UnknownPoint(5));
    }
}
