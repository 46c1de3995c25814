//! # pardbscan — theoretically-efficient and practical parallel DBSCAN
//!
//! A from-scratch Rust implementation of the parallel exact and approximate
//! Euclidean DBSCAN algorithms of Wang, Gu and Shun (SIGMOD 2020). The
//! algorithms are work-efficient (they match the best sequential DBSCAN work
//! bounds) and highly parallel, and follow the common four-phase structure of
//! the paper's Algorithm 1:
//!
//! 1. **Cells** — points are partitioned into cells of diameter ε, either on
//!    a regular grid (any dimension) or with the 2D box construction.
//! 2. **MarkCore** — core points are identified with per-point range counts
//!    against the O(1) neighbouring cells.
//! 3. **ClusterCore** — the *cell graph* (core cells connected when their
//!    closest core points are within ε) is built with one of several
//!    connectivity methods (BCP, quadtree-assisted BCP, Delaunay edges, USEC
//!    wavefronts) merged on the fly into a lock-free union-find; its
//!    connected components are the clusters of the core points.
//! 4. **ClusterBorder** — remaining points join the clusters of core points
//!    within ε (possibly several), or are noise.
//!
//! The exact variants return exactly the clustering of the standard DBSCAN
//! definition; [`Dbscan::approximate`] switches to Gan–Tao ρ-approximate
//! DBSCAN, in which core points at distance in (ε, ε(1+ρ)] may or may not be
//! connected.
//!
//! This crate is the *statically-typed, advanced* interface: everything is
//! monomorphized on the compile-time dimension `D`, and the phase-granular
//! [`pipeline`] module exposes the algorithm's internal state. Callers whose
//! dimensionality arrives at runtime — or who want one handle covering
//! one-shot runs, cached parameter sweeps and streaming updates — should
//! start at the `dbscan` facade crate, which dispatches here through one
//! jump table over the dimensions it serves.
//!
//! ## Quick start
//!
//! ```
//! use geom::Point2;
//! use pardbscan::{dbscan, Dbscan, DbscanParams, CellGraphMethod};
//!
//! // Two obvious clusters and one outlier.
//! let mut points: Vec<Point2> = Vec::new();
//! for i in 0..20 {
//!     points.push(Point2::new([0.1 * i as f64, 0.0]));
//!     points.push(Point2::new([0.1 * i as f64, 50.0]));
//! }
//! points.push(Point2::new([25.0, 25.0]));
//!
//! let clustering = dbscan(&points, 0.5, 3).unwrap();
//! assert_eq!(clustering.num_clusters(), 2);
//! assert!(clustering.is_noise(points.len() - 1));
//!
//! // The same run through the builder, selecting a different cell-graph
//! // method and the bucketing heuristic.
//! let alt = Dbscan::new(&points, DbscanParams::new(0.5, 3))
//!     .cell_graph(CellGraphMethod::Usec)
//!     .bucketing(true)
//!     .run()
//!     .unwrap();
//! assert_eq!(alt, clustering);
//! ```

#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cluster_border;
mod cluster_core;
mod connectivity;
mod dbscan;
pub mod kernels;
mod mark_core;
mod params;
pub mod pipeline;
mod result;

pub use cluster_border::cluster_border;
pub use cluster_core::{cluster_core, ClusterCoreOptions};
pub use connectivity::{bcp_scratch_stats, bichromatic_closest_pair, reset_bcp_scratch_stats};
pub use dbscan::{cluster_phases, dbscan, dbscan_approx, mark_core_phase, partition_phase, Dbscan};
pub use kernels::{active_backend, Backend};
pub use mark_core::mark_core;
pub use params::{
    CellGraphMethod, CellMethod, DbscanError, DbscanParams, MarkCoreMethod, SweepGrid,
    VariantConfig,
};
pub use pipeline::{connect_region, mark_core_region, CoreSet, RegionEdge, SpatialIndex};
pub use result::{ClusterSets, Clustering, PointLabel};

/// Re-export of the point types used by the public API, so downstream users
/// don't need a separate dependency on the geometry crate for basic use.
pub use geom::{Point, Point2};
