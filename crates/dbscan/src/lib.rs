//! # dbscan — one front door for the parallel DBSCAN workspace
//!
//! The pipelines underneath this crate (the four-phase algorithm of Wang,
//! Gu & Shun's SIGMOD 2020 paper, the index-once/query-many engine, the
//! streaming clusterer) are monomorphized on a compile-time dimension
//! `const D: usize` — the right call for the hot loops, and the wrong shape
//! for a service whose point dimensionality arrives at runtime in a CSV
//! upload or a JSON body. This crate erases that dimension once, at the
//! boundary, and unifies the three entry points behind a single session:
//!
//! * [`PointCloud`] — flat `Vec<f64>` plus a runtime `dim`, validated at
//!   construction (finite coordinates, consistent arity) with a typed
//!   [`Error`];
//! * [`ClusterSession`] — ingest → index → query → sweep →
//!   streaming-update as one lifecycle, dispatching to the monomorphized
//!   pipelines for dimensions 2..=8 through a macro-generated jump table
//!   (anything else reports [`Error::UnsupportedDimension`]);
//! * [`Labels`] — one result type wrapping the canonical
//!   [`pardbscan::Clustering`], identical across the one-shot
//!   ([`ClusterSession::cluster`]), sweep ([`ClusterSession::sweep`]) and
//!   streaming ([`ClusterSession::updates`]) paths.
//!
//! The batch and incremental modes are two faces of the same query — the
//! dynamic-evaluation framing of Berkholz, Keppeler & Schweikardt
//! ("Answering FO+MOD queries under updates") — so the session exposes
//! them as modes of one handle rather than separate products: a streaming
//! [`UpdateHandle`] borrows the session exclusively and freezes back into
//! it on drop.
//!
//! The statically-typed per-crate APIs ([`pardbscan::Dbscan`],
//! [`engine::Engine`], [`stream::StreamingClusterer`]) remain available as
//! the advanced interface — for compile-time dimensions (including d > 8),
//! phase-granular control, and zero-overhead embedding.
//!
//! ## Quick start
//!
//! ```
//! use dbscan::{cluster, ClusterSession, Params, PointCloud};
//!
//! // Dimensionality is data, not a type parameter: three 3D points.
//! let cloud = PointCloud::new(3, vec![
//!     0.0, 0.0, 0.0,
//!     0.1, 0.0, 0.0,
//!     9.0, 9.0, 9.0,
//! ])?;
//!
//! // One-shot, no session state kept.
//! let labels = cluster(&cloud, Params::new(0.5, 2))?;
//! assert_eq!(labels.num_clusters(), 1);
//! assert!(labels.is_noise(2));
//!
//! // The same cloud behind a session: repeated queries reuse phase state.
//! let session = ClusterSession::ingest(cloud)?;
//! assert_eq!(session.cluster(Params::new(0.5, 2))?, labels);
//! # Ok::<(), dbscan::Error>(())
//! ```
//!
//! See [`ClusterSession`] for the sweep and streaming examples.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cloud;
mod concurrent;
mod error;
mod labels;
mod session;

pub use cloud::PointCloud;
pub use concurrent::{ConcurrentSession, Generation, UpdateOutcome};
pub use error::Error;
pub use labels::Labels;
pub use session::{ClusterSession, QueryOutcome, SessionBuilder, SweepCell, UpdateHandle};

/// The DBSCAN parameters (ε, minPts) — the pipeline's
/// [`pardbscan::DbscanParams`], re-exported as the facade's parameter type.
/// Every parameter-taking entry point accepts `impl Into<Params>`, so a
/// plain `(eps, min_pts)` tuple works wherever a `Params` does.
pub use pardbscan::DbscanParams as Params;

/// A parameter grid for [`ClusterSession::sweep`]: ε values × minPts
/// values, plus the algorithm variant to run them under. Build one with
/// [`SweepGrid::new`] or convert from a tuple of arrays/slices/vecs.
pub use pardbscan::SweepGrid;

/// Per-point label detail (core / border / noise), re-exported from the
/// pipeline.
pub use pardbscan::PointLabel;

/// Algorithm-variant selection for [`ClusterSession::query`] and
/// [`SweepGrid::variant`], re-exported from the pipeline.
pub use pardbscan::VariantConfig;

/// Per-query statistics (phase timings, cache-reuse flags), re-exported
/// from the engine.
pub use dbscan_engine::QueryStats;

/// Cumulative cache counters of a session, re-exported from the engine.
pub use dbscan_engine::CacheStats;

/// Per-update-batch statistics, re-exported from the streaming crate.
pub use dbscan_stream::UpdateStats;

/// Durability knobs for [`ClusterSession::ingest_durable`] /
/// [`ClusterSession::open_durable`] — WAL fsync policy and checkpoint
/// cadence, re-exported from the durable crate.
pub use dbscan_durable::{DurableOptions, FsyncPolicy};

/// The durability crate (snapshot persistence, write-ahead logging, crash
/// recovery, fault injection) — the advanced statically-typed interface
/// behind the durable session paths.
pub use dbscan_durable as durable;

/// The engine crate (snapshots, explicit cache control) — the advanced
/// statically-typed interface behind [`ClusterSession`]'s query and sweep
/// paths.
pub use dbscan_engine as engine;

/// The streaming crate (incremental maintenance) — the advanced
/// statically-typed interface behind [`ClusterSession::updates`].
pub use dbscan_stream as stream;

/// The core pipeline crate (one-shot runs, phase-granular state) — the
/// advanced statically-typed interface behind [`cluster`].
pub use pardbscan;

/// The observability substrate behind [`ClusterSession::metrics`] and
/// [`ClusterSession::take_trace`] — re-exported so downstream users can name
/// its types (reports, span records, phase constants) without a direct
/// dependency.
pub use obs;

/// One-shot exact DBSCAN over a runtime-dimension point cloud: the
/// dimension-erased counterpart of [`pardbscan::dbscan`], dispatched
/// through the core crate's sealed [`pardbscan::ErasedPipeline`] jump
/// table. No session state is built or kept; for repeated queries over the
/// same points, open a [`ClusterSession`] instead.
///
/// ```
/// use dbscan::{cluster, Params, PointCloud};
///
/// let cloud = PointCloud::from_rows(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])?;
/// let labels = cluster(&cloud, Params::new(0.15, 2))?;
/// assert_eq!(labels.num_clusters(), 1);
/// # Ok::<(), dbscan::Error>(())
/// ```
pub fn cluster(cloud: &PointCloud, params: impl Into<Params>) -> Result<Labels, Error> {
    cluster_variant(cloud, params.into(), VariantConfig::exact())
}

/// Publishes the process's runtime dispatch decisions as registry `info`
/// metrics: `dbscan_backend_info{value="…"}` (the distance-kernel backend
/// [`pardbscan::active_backend`] resolved to on this machine) and
/// `dbscan_obs_mode_info{value="…"}` (the `DBSCAN_OBS` observability
/// mode). Both are otherwise only queryable in-process; calling this at
/// startup makes them visible to every `/metrics` scrape. Idempotent;
/// no-op under `DBSCAN_OBS=off` like every other registry write.
pub fn register_runtime_info() {
    obs::set_info("dbscan_backend_info", pardbscan::active_backend().label());
    obs::set_info("dbscan_obs_mode_info", obs::mode().label());
}

/// [`cluster`] with an explicit algorithm variant.
pub fn cluster_variant(
    cloud: &PointCloud,
    params: Params,
    variant: VariantConfig,
) -> Result<Labels, Error> {
    let pipeline =
        pardbscan::erased_pipeline(cloud.dim()).ok_or(Error::UnsupportedDimension(cloud.dim()))?;
    let clustering = pipeline.cluster(cloud.coords(), params, variant)?;
    Ok(Labels::from(clustering))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_matches_session_across_dimensions() {
        for dim in [2usize, 3, 4, 7] {
            let coords: Vec<f64> = (0..dim * 30)
                .map(|i| 0.04 * (i / dim) as f64 + 0.01 * (i % dim) as f64)
                .collect();
            let cloud = PointCloud::new(dim, coords).unwrap();
            let params = Params::new(0.6, 3);
            let one_shot = cluster(&cloud, params).unwrap();
            let session = ClusterSession::ingest(cloud).unwrap();
            assert_eq!(session.cluster(params).unwrap(), one_shot, "dim {dim}");
        }
    }

    #[test]
    fn one_shot_rejects_unsupported_dimensions() {
        let cloud = PointCloud::new(9, vec![0.0; 18]).unwrap();
        assert_eq!(
            cluster(&cloud, Params::new(1.0, 2)).unwrap_err(),
            Error::UnsupportedDimension(9)
        );
    }

    #[test]
    fn variant_selection_passes_through() {
        let cloud = PointCloud::from_rows(&[[0.0, 0.0], [0.1, 0.1], [5.0, 5.0]]).unwrap();
        let exact = cluster(&cloud, Params::new(0.3, 2)).unwrap();
        let qt = cluster_variant(&cloud, Params::new(0.3, 2), VariantConfig::exact_qt()).unwrap();
        assert_eq!(exact, qt);
        // 2D-only methods stay rejected for other dimensions, through the
        // facade's typed error.
        let cloud3 = PointCloud::new(3, vec![0.0; 9]).unwrap();
        assert!(matches!(
            cluster_variant(
                &cloud3,
                Params::new(0.3, 2),
                VariantConfig::two_d(pardbscan::CellMethod::Box, pardbscan::CellGraphMethod::Bcp)
            ),
            Err(Error::RequiresTwoDimensions(_))
        ));
    }
}
