//! Sequential, lock-free concurrent, and dynamic union-find.
//!
//! The paper's ClusterCore step (Algorithm 3) merges the cell-graph
//! construction with the connected-components computation using a *lock-free*
//! union-find structure (unlike PDSDBSCAN's lock-based one): a cell
//! connectivity query is only issued when the two cells are not already in
//! the same component, and on success the two cells are linked.
//!
//! [`ConcurrentUnionFind`] implements the standard CAS-based scheme with path
//! halving; all operations are wait-free except the CAS retry loop in
//! `union`. The Delaunay-based cell-graph construction unions the edges it
//! filters from the triangulation straight into the same structure.
//!
//! [`DynamicUnionFind`] serves the *incremental* maintenance path
//! (`dbscan-stream`): it tracks the members of every component explicitly
//! and supports growing the element set and dissolving one component back
//! into singletons, which is how deletions that may split a cluster are
//! scoped to re-clustering the affected component only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod dynamic;
pub mod sequential;

pub use concurrent::ConcurrentUnionFind;
pub use dynamic::DynamicUnionFind;
pub use sequential::SequentialUnionFind;
