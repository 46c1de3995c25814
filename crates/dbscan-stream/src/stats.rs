//! Update batches, per-batch statistics, and the streaming error type.

use pardbscan::DbscanError;
use std::fmt;
use std::time::Duration;

/// A batch of point updates for [`crate::StreamingClusterer::apply`].
///
/// Deletes refer to the stable point ids handed out by the clusterer
/// (initial points get ids `0..n` in input order; each insert gets the next
/// id, reported in [`UpdateStats::inserted_ids`]). Within one batch, deletes
/// are applied before inserts; the two never interact (an id inserted by a
/// batch cannot be deleted by the same batch).
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch<const D: usize> {
    /// Points to insert.
    pub inserts: Vec<geom::Point<D>>,
    /// Ids of live points to delete. Unknown, dead, or repeated ids reject
    /// the whole batch (nothing is applied).
    pub deletes: Vec<usize>,
}

impl<const D: usize> UpdateBatch<D> {
    /// A batch that only inserts.
    pub fn inserts(points: Vec<geom::Point<D>>) -> Self {
        UpdateBatch {
            inserts: points,
            deletes: Vec::new(),
        }
    }

    /// A batch that only deletes.
    pub fn deletes(ids: Vec<usize>) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            deletes: ids,
        }
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// `true` if the batch carries no updates.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What one [`crate::StreamingClusterer::apply`] call actually did — the
/// observability counterpart of the engine's `QueryStats`: the point of
/// incremental maintenance is that these numbers stay proportional to the
/// update's ε-neighbourhood, not to the dataset.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Points inserted by the batch.
    pub inserted: usize,
    /// Points deleted by the batch.
    pub deleted: usize,
    /// Ids assigned to the batch's inserts, in batch order.
    pub inserted_ids: Vec<usize>,
    /// Cells whose MarkCore state was recomputed (the touched cells plus
    /// their ε-neighbour cells).
    pub cells_touched: usize,
    /// Points whose core flag was recomputed (all points of the touched
    /// region).
    pub points_rescanned: usize,
    /// Points whose core flag actually changed (promotions + demotions).
    pub points_reflagged: usize,
    /// Components dissolved and re-derived because a deletion (or demotion)
    /// may have split them.
    pub components_reclustered: usize,
    /// BCP cell-connectivity queries issued after union-find pruning.
    pub connectivity_queries: usize,
    /// Border points whose cluster-membership sets were recomputed.
    pub adjacency_updates: usize,
    /// Whether the overlay compacted (re-semisorted its base) after this
    /// batch.
    pub compacted: bool,
    /// The batch's timed phases, each with the duration of the span that
    /// timed it: `mark_core_region` (step 2, including the neighbour-list
    /// memo) and `connect_region` (step 3, the BCP re-connection of
    /// candidate cell pairs). A durable clusterer prepends `wal_append`,
    /// then `wal_fsync` when the batch's fsync ran. EXPLAIN reports this
    /// list as it is.
    pub phases: Vec<obs::PhaseExecution>,
    /// Wall-clock time of the whole `apply` call: the `stream`/`apply`
    /// span's duration (validation included).
    pub elapsed: Duration,
    /// Bytes appended to the write-ahead log for this batch. Zero for a
    /// non-durable clusterer; the `dbscan-durable` wrapper fills it.
    pub wal_bytes: u64,
}

/// Errors reported by the streaming clusterer.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A delete referenced an id that was never handed out or is already
    /// dead.
    UnknownPoint(usize),
    /// The same id appears twice in one batch's deletes.
    DuplicateDelete(usize),
    /// An inserted point has a non-finite coordinate (position in the
    /// batch's insert list).
    NonFinitePoint(usize),
    /// The underlying pipeline rejected the configuration.
    Dbscan(DbscanError),
    /// The point set cannot back a streaming clusterer (e.g. a non-grid
    /// partition was supplied).
    Unsupported(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownPoint(id) => {
                write!(f, "delete of unknown or already-deleted point id {id}")
            }
            StreamError::DuplicateDelete(id) => {
                write!(f, "point id {id} is deleted twice in one batch")
            }
            StreamError::NonFinitePoint(i) => {
                write!(f, "insert #{i} has a non-finite coordinate")
            }
            StreamError::Dbscan(err) => write!(f, "{err}"),
            StreamError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DbscanError> for StreamError {
    fn from(err: DbscanError) -> Self {
        StreamError::Dbscan(err)
    }
}
