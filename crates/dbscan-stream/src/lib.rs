//! # dbscan-stream — incremental cluster maintenance under point updates
//!
//! The paper's grid pipeline (cells → MarkCore → ClusterCore →
//! ClusterBorder) is batch-only, and the `dbscan-engine` snapshot amortizes
//! it only across *parameter* changes over an immutable point set: any
//! change to the data forces a full re-index. This crate supplies the other
//! axis of reuse — maintenance under **point insertions and deletions** — in
//! the spirit of dynamic query answering under updates (Berkholz, Keppeler
//! & Schweikardt, "Answering FO+MOD queries under updates").
//!
//! The grid structure is what makes this tractable. An update to a point
//! can only affect state within its ε-cell neighbourhood:
//!
//! * **Grid** — [`spatial::OverlayPartition`] makes the ε-grid updatable
//!   without re-semisorting: per-cell insert lists, tombstoned deletions,
//!   and an amortized compaction that re-semisorts the live set while
//!   keeping every cell *key* stable (the rebuild is anchored at the
//!   original grid origin). A cell's ε-neighbours are its row of the
//!   spatial index's neighbour graph plus the cells inserts created beside
//!   it, so reading them costs the cell's degree in any dimension.
//! * **MarkCore** — a point's range count changes only if a touched cell
//!   intersects its ε-neighbourhood, so [`pardbscan::mark_core_region`]
//!   recomputes flags for the touched cells and their ε-neighbours only.
//! * **ClusterCore** — insertions and promotions can only *merge*
//!   components: new edges are discovered by BCP queries
//!   ([`pardbscan::connect_region`]) from the cells that gained core
//!   points, pruned by the union-find exactly as in Algorithm 3. Deletions
//!   and demotions can *split* a component, which union-find cannot undo —
//!   so every component that lost a core point is dissolved
//!   ([`unionfind::DynamicUnionFind::reset_component`], which tracks
//!   per-component membership precisely so the damage is scoped) and its
//!   region's connectivity re-derived from scratch.
//! * **ClusterBorder** — every border point carries the keys of the cells
//!   holding a core point within ε; the set is recomputed for points within
//!   two ε-hops of a change and resolved to cluster ids lazily by
//!   [`StreamingClusterer::clustering`].
//!
//! [`UpdateStats`] reports cells touched, points re-flagged, components
//! re-clustered, and connectivity queries issued, so the incrementality is
//! observable rather than asserted. The repo benchmark's `session-5d`
//! workload times `apply` on 0.1% sliding-window batches.
//!
//! **Exactness.** After any applied update sequence, the labels are
//! equivalent (up to cluster renaming — removed by the canonical
//! [`pardbscan::Clustering`] numbering) to a from-scratch
//! [`pardbscan::dbscan`] run on the final live point set. The
//! `tests/stream_matches_batch.rs` property test at the workspace root
//! enforces this over random interleavings of insert/delete batches.
//!
//! **Engine integration.** A service can alternate between sweep mode and
//! ingest mode: [`StreamingClusterer::from_snapshot`] starts maintaining an
//! engine [`dbscan_engine::Snapshot`]'s points (reusing the snapshot's
//! cached spatial index when one exists), and
//! [`StreamingClusterer::snapshot_live`] copies the live set into a fresh
//! immutable snapshot.
//!
//! ## Where this sits
//!
//! This crate is the *statically-typed, advanced* interface to incremental
//! maintenance. The `dbscan` facade crate drives it behind the
//! runtime-dimension `ClusterSession::updates` handle (which also owns the
//! freeze-back-to-snapshot hand-off) — start there unless you need a
//! compile-time `D` or direct access to [`UpdateBatch`]/[`UpdateStats`]
//! batching.
//!
//! ## Quick start
//!
//! ```
//! use dbscan_stream::{StreamingClusterer, UpdateBatch};
//! use geom::Point2;
//! use pardbscan::DbscanParams;
//!
//! let mut points: Vec<Point2> = (0..20)
//!     .map(|i| Point2::new([0.1 * i as f64, 0.0]))
//!     .collect();
//! points.push(Point2::new([50.0, 50.0])); // noise
//!
//! let params = DbscanParams::new(0.5, 3);
//! let mut clusterer = StreamingClusterer::new(points, params).unwrap();
//! assert_eq!(clusterer.clustering().num_clusters(), 1);
//!
//! // Ingest a second chain far away: one new cluster, maintained
//! // incrementally (only the touched ε-neighbourhood is reprocessed).
//! let batch = UpdateBatch::inserts(
//!     (0..20).map(|i| Point2::new([0.1 * i as f64, 30.0])).collect(),
//! );
//! let stats = clusterer.apply(batch).unwrap();
//! assert_eq!(clusterer.clustering().num_clusters(), 2);
//! assert!(stats.points_reflagged > 0);
//!
//! // Deleting the second chain's points empties that cluster again.
//! clusterer.apply(UpdateBatch::deletes(stats.inserted_ids)).unwrap();
//! assert_eq!(clusterer.clustering().num_clusters(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clusterer;
mod stats;

pub use clusterer::StreamingClusterer;
pub use stats::{StreamError, UpdateBatch, UpdateStats};

// Re-exports so stream users don't need separate dependencies for basic use.
pub use pardbscan::{Clustering, DbscanParams, PointLabel};
