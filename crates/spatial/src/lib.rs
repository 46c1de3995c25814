//! Spatial index substrate for parallel DBSCAN.
//!
//! * [`gridkey`] — quantization of points to integer cell keys for the grid
//!   method (§4.1) and the key → cell index ([`GridIndex`]), whose
//!   candidate-key walk finds a cell's neighbours in 1D and 2D.
//! * [`partition`] — cell partitions of a point set: the grid construction
//!   (semisort by cell key + concurrent hash table, §4.1) and the 2D box
//!   construction (strips via binary-search parents + pointer jumping, §4.2).
//! * [`kdtree`] — a k-d tree over the non-empty cells, used to find the
//!   non-empty neighbouring cells of a cell in higher dimensions (§5.1).
//! * [`neighbors`] — the flat CSR cell adjacency ([`NeighborGraph`]) holding
//!   every cell's ε-neighbour list, and its one builder,
//!   [`NeighborGraph::build`] (grid keys up to 2D, the k-d tree above).
//! * [`subdivision`] — per-cell quadtrees (2^d-way subdivision trees) used to
//!   answer exact and ρ-approximate RangeCount queries (§5.2).
//! * [`overlay`] — a mutable base-plus-delta layer over a grid partition
//!   and its neighbour graph (per-cell insert lists, tombstones, neighbour
//!   lists for cells inserts create, key-stable compaction) so the grid is
//!   updatable without re-semisorting; the substrate of the streaming
//!   clusterer in `dbscan-stream`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gridkey;
pub mod kdtree;
pub mod neighbors;
pub mod overlay;
pub mod partition;
pub mod subdivision;

pub use gridkey::{GridIndex, KeyOverflow};
pub use kdtree::CellKdTree;
pub use neighbors::NeighborGraph;
pub use overlay::{OverlayCell, OverlayPartition};
pub use partition::{
    box_partition, grid_partition, grid_partition_anchored, CellInfo, CellPartition,
};
pub use subdivision::SubdivisionTree;
