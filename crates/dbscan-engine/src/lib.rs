//! # dbscan-engine — an index-once / query-many clustering engine
//!
//! [`Dbscan::run`](pardbscan::Dbscan::run) executes all four phases of the
//! paper's Algorithm 1 from scratch on every call. That is the right shape
//! for a single clustering, but the paper's own evaluation — and any service
//! answering repeated clustering requests over a mostly-static point set —
//! runs *sweeps*: the same points queried under many `(ε, minPts, ρ)`
//! combinations. Most of the pipeline's cost is in state that a new query
//! does not invalidate:
//!
//! * **Phase 1 (cells + neighbour lists)** depends only on `(ε, cell
//!   method)` — it is identical across every minPts, cell-graph method,
//!   bucketing choice, and ρ.
//! * **Phase 2 (MarkCore)** depends only on `(ε, cell method, minPts)` —
//!   the core flags are the same whichever RangeCount implementation
//!   computed them, and do not change with the cell-graph method or ρ.
//! * **Phases 3–4 (ClusterCore / ClusterBorder)** are the only phases that
//!   depend on the full parameter set, and are usually the cheapest.
//!
//! This crate holds those reusable states in per-snapshot caches:
//!
//! * [`Snapshot::new`] takes ownership of a point set; the [`Snapshot`]
//!   owns it, immutable, plus two small LRU caches of fixed capacity —
//!   `(ε, cell method) → SpatialIndex` (8 entries), and `(index instance,
//!   minPts) → CoreSet` (32 entries; core sets are positional in their
//!   index's cell order, which the grid semisort does not promise to
//!   reproduce across rebuilds, so they are keyed to the concrete index
//!   *instance*: after an index is evicted and rebuilt, MarkCore re-runs
//!   rather than risk a stale cell order) — and answers
//!   [`Snapshot::query`] by running only the phases the parameters
//!   actually invalidate;
//! * [`Snapshot::sweep`] executes an `ε-grid × minPts-grid` cross-product in
//!   parallel with rayon, sharing each ε's spatial index across all minPts
//!   values;
//! * [`QueryStats`] / [`CacheStats`] expose per-query phase timings and
//!   cache hit/miss counters so the reuse is observable, not asserted.
//!
//! Exact-variant results are **label-identical** to a fresh
//! [`pardbscan::dbscan`] call with the same parameters (enforced by
//! `tests/engine_matches_oneshot.rs` at the workspace root): caching
//! changes where the phase inputs come from, never what they contain. For
//! ρ-approximate variants the guarantee is the algorithm's own: core flags
//! are exact, but two independent runs — engine or one-shot alike — may
//! legitimately connect or split core cells at distances in (ε, ε(1+ρ)].
//!
//! ## When the data changes: streaming mode
//!
//! A [`Snapshot`]'s points are immutable — the right trade for sweep-heavy
//! serving, the wrong one for live ingest. The `dbscan-stream` crate
//! covers the other axis of reuse: `StreamingClusterer::from_snapshot`
//! starts maintaining a snapshot's points under insertions and deletions
//! (reusing its cached spatial index via [`Snapshot::cached_index`] when one
//! matches), and `StreamingClusterer::snapshot_live` copies the live set
//! into a fresh [`Snapshot`]. The `dbscan` facade's `ClusterSession`
//! alternates between the two modes this way.
//!
//! ## Where this sits
//!
//! This crate is the *statically-typed, advanced* interface to snapshot
//! serving: [`Snapshot`] is monomorphized on the compile-time dimension and
//! exposes the cache machinery directly. The `dbscan` facade crate
//! wraps a snapshot behind its runtime-dimension `ClusterSession` (query
//! and sweep paths) — start there unless you need a compile-time `D` or
//! the raw [`QueryResult`]/[`Snapshot::cached_index`] machinery. The
//! facade ships the worked parameter-exploration example
//! (`crates/dbscan/examples/parameter_explorer.rs`).
//!
//! ## Quick start
//!
//! ```
//! use dbscan_engine::Snapshot;
//! use geom::Point2;
//! use pardbscan::DbscanParams;
//!
//! let mut points: Vec<Point2> = Vec::new();
//! for i in 0..20 {
//!     points.push(Point2::new([0.1 * i as f64, 0.0]));
//!     points.push(Point2::new([0.1 * i as f64, 50.0]));
//! }
//!
//! let snapshot = Snapshot::new(points, 0);
//!
//! // First query builds the partition; the second reuses it because only
//! // minPts changed.
//! let a = snapshot.query(DbscanParams::new(0.5, 3)).unwrap();
//! let b = snapshot.query(DbscanParams::new(0.5, 4)).unwrap();
//! assert_eq!(a.clustering.num_clusters(), 2);
//! assert!(!a.stats.partition_cache_hit);
//! assert!(b.stats.partition_cache_hit);
//!
//! // Batched parameter sweep: 2 × 2 queries, one partition build per eps.
//! let grid = snapshot.sweep(([0.5, 0.7], [3, 4])).unwrap();
//! assert_eq!(grid.len(), 4);
//! assert_eq!(snapshot.cache_stats().partition_misses, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod snapshot;
mod stats;

pub use snapshot::{QueryResult, Snapshot, SweepCell};
pub use stats::{CacheStats, QueryStats};

// Re-exports so engine users don't need a separate pardbscan dependency for
// basic use.
pub use pardbscan::{
    CellGraphMethod, CellMethod, Clustering, DbscanError, DbscanParams, MarkCoreMethod, PointLabel,
    SweepGrid, VariantConfig,
};
