//! The cluster session: one handle owning ingest → index → query → sweep →
//! streaming-update as a single lifecycle.
//!
//! A [`ClusterSession`] erases the compile-time dimension the pipelines
//! underneath are monomorphized on: construction packs the validated
//! [`PointCloud`] into `Point<D>`s through a macro-generated jump table
//! (one arm per supported dimension, 2..=8) and stores the resulting state
//! behind an object-safe trait. Everything after that — exact queries,
//! batched sweeps, streaming updates — is one virtual call deep, and the
//! heavy loops below it stay fully monomorphized.
//!
//! The session's two modes mirror the engine/stream split it unifies:
//!
//! * **Indexed** (the default): an engine `Snapshot` serves
//!   [`ClusterSession::cluster`] and [`ClusterSession::sweep`] with
//!   LRU-cached phase state.
//! * **Streaming**: [`ClusterSession::updates`] converts the snapshot into
//!   a `StreamingClusterer` (reusing the snapshot's cached spatial index
//!   when one matches) and hands back an [`UpdateHandle`]. While the handle
//!   lives, the borrow checker statically prevents queries; dropping (or
//!   [`UpdateHandle::finish`]ing) it freezes the live set back into a
//!   fresh snapshot, and sweep service resumes on the updated points.

use crate::cloud::PointCloud;
use crate::error::Error;
use crate::labels::Labels;
use dbscan_durable::{DurableClusterer, DurableOptions, RealStorage, Storage};
use dbscan_engine::{CacheStats, Engine, QueryStats, Snapshot};
use dbscan_stream::{StreamingClusterer, UpdateBatch, UpdateStats};
use geom::{points_from_flat, Point};
use pardbscan::{DbscanParams, SweepGrid, VariantConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Configures and opens [`ClusterSession`]s.
///
/// Two kinds of knob. The cache capacities mirror the engine's: how many
/// spatial indexes (distinct ε values, roughly) and core sets (distinct
/// `(ε, minPts)` pairs) the session caches between queries; they are
/// reapplied when a streaming handle freezes back into sweep mode.
/// [`SessionBuilder::durable`] persists the point set and write-ahead logs
/// every streaming update. Every session clusters through the same engine
/// pipeline, whichever knobs are set.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    engine: Engine,
    durable: Option<(PathBuf, DurableOptions)>,
}

impl SessionBuilder {
    /// A builder with the engine's default cache capacities.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Sets how many spatial indexes the session keeps cached.
    pub fn partition_cache_capacity(mut self, capacity: usize) -> Self {
        self.engine = self.engine.partition_cache_capacity(capacity);
        self
    }

    /// Sets how many core sets the session keeps cached.
    pub fn core_cache_capacity(mut self, capacity: usize) -> Self {
        self.engine = self.engine.core_cache_capacity(capacity);
        self
    }

    /// Attaches durability: the session's point set is persisted under
    /// `dir` (a snapshot at ingest and after every streaming episode), and
    /// every [`ClusterSession::updates`] episode write-ahead logs its
    /// batches per `options` before applying them. Reopen later with
    /// [`ClusterSession::open_durable`].
    pub fn durable(mut self, dir: impl AsRef<Path>, options: DurableOptions) -> Self {
        self.durable = Some((dir.as_ref().to_path_buf(), options));
        self
    }

    /// Ingests a validated point cloud and opens the session. Fails with
    /// [`Error::UnsupportedDimension`] when the cloud's dimensionality is
    /// outside 2..=8. With [`SessionBuilder::durable`] configured, also
    /// (re)initializes the store directory with a snapshot of the cloud.
    pub fn ingest(self, cloud: PointCloud) -> Result<ClusterSession, Error> {
        let dim = cloud.dim();
        let inner = open_session(self.engine, &cloud, self.durable)?;
        Ok(ClusterSession::from_parts(dim, inner))
    }

    /// Opens the session persisted in the durable store at `dir`: recovers
    /// the live point set (newest snapshot plus WAL replay), checkpoints so
    /// the next open needs no replay, and serves it in indexed mode. The
    /// dimensionality is read from the store's headers.
    pub fn open_durable(
        self,
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<ClusterSession, Error> {
        let dir = dir.as_ref();
        let storage = RealStorage::shared();
        let dim = dbscan_durable::store_dim(&storage, dir)? as usize;
        let inner = open_durable_session(self.engine, storage, dir, options, dim)?;
        Ok(ClusterSession::from_parts(dim, inner))
    }
}

/// Builds the EXPLAIN phase list of one query from its stats: a cache hit
/// reports the phase as skipped by the generation whose artifact served it,
/// a miss reports the phase's measured duration. (ClusterCore and
/// ClusterBorder always run.)
fn phases_from_query(stats: &QueryStats) -> Vec<obs::PhaseExecution> {
    vec![
        if stats.partition_cache_hit {
            obs::PhaseExecution::skipped(obs::phase::PARTITION, stats.index_generation)
        } else {
            obs::PhaseExecution::ran(obs::phase::PARTITION, stats.partition_time)
        },
        if stats.core_cache_hit {
            // The core cache is keyed on (index generation, minPts), so the
            // index generation identifies the reused artifact here too.
            obs::PhaseExecution::skipped(obs::phase::MARK_CORE, stats.index_generation)
        } else {
            obs::PhaseExecution::ran(obs::phase::MARK_CORE, stats.mark_core_time)
        },
        obs::PhaseExecution::ran(obs::phase::CLUSTER_CORE, stats.cluster_core_time),
        obs::PhaseExecution::ran(obs::phase::CLUSTER_BORDER, stats.cluster_border_time),
    ]
}

/// Aggregates the per-cell phase outcomes of a sweep into one run/skip
/// tally per phase.
fn phases_from_sweep(cells: &[SweepCell]) -> Vec<obs::PhaseExecution> {
    let mut out: Vec<obs::PhaseExecution> = [
        obs::phase::PARTITION,
        obs::phase::MARK_CORE,
        obs::phase::CLUSTER_CORE,
        obs::phase::CLUSTER_BORDER,
    ]
    .into_iter()
    .map(|phase| obs::PhaseExecution {
        phase,
        runs: 0,
        skips: 0,
        skipped_by_generation: None,
        duration: std::time::Duration::ZERO,
    })
    .collect();
    for cell in cells {
        for p in phases_from_query(&cell.stats) {
            let acc = out
                .iter_mut()
                .find(|a| a.phase == p.phase)
                .expect("fixed phase set");
            acc.runs += p.runs;
            acc.skips += p.skips;
            acc.duration += p.duration;
            if p.skipped_by_generation.is_some() {
                acc.skipped_by_generation = p.skipped_by_generation;
            }
        }
    }
    out
}

/// The EXPLAIN phase list of one streaming apply: the two maintenance
/// phases that dominate an update's cost (overlay bookkeeping and
/// component/adjacency repair are part of the wall total). A durable
/// session's applies additionally report the write-ahead logging cost —
/// the WAL phases appear exactly when the batch was logged
/// (`stats.wal_bytes > 0`), so non-durable sessions' reports are
/// unchanged.
fn phases_from_update(stats: &UpdateStats) -> Vec<obs::PhaseExecution> {
    let mut phases = Vec::with_capacity(4);
    if stats.wal_bytes > 0 {
        phases.push(obs::PhaseExecution::ran(
            obs::phase::WAL_APPEND,
            stats.wal_append_time,
        ));
        phases.push(obs::PhaseExecution::ran(
            obs::phase::WAL_FSYNC,
            stats.wal_fsync_time,
        ));
    }
    phases.push(obs::PhaseExecution::ran(
        obs::phase::MARK_CORE_REGION,
        stats.mark_core_region_time,
    ));
    phases.push(obs::PhaseExecution::ran(
        obs::phase::CONNECT_REGION,
        stats.connect_region_time,
    ));
    phases
}

/// One clustering result grid cell of a [`ClusterSession::sweep`].
pub struct SweepCell {
    /// The ε of this grid cell.
    pub eps: f64,
    /// The minPts of this grid cell.
    pub min_pts: usize,
    /// The labels for `(eps, min_pts)` — the same [`Labels`] type every
    /// other session path produces.
    pub labels: Labels,
    /// Phase timings and cache-reuse flags of this grid cell's query.
    pub stats: QueryStats,
}

/// A clustering plus the per-query statistics describing how it was served
/// (returned by [`ClusterSession::query`], the stats-bearing sibling of
/// [`ClusterSession::cluster`]).
pub struct QueryOutcome {
    /// The labels.
    pub labels: Labels,
    /// Phase timings and cache-reuse flags of this query.
    pub stats: QueryStats,
}

/// A clustering session over one point set whose dimensionality is a
/// runtime value.
///
/// The session is the workspace's front door: it serves one-shot queries,
/// batched parameter sweeps, and streaming updates from a single handle,
/// with one [`Labels`] result type across all three. See the crate docs
/// for the architecture; the examples below each run as doctests.
///
/// # One-shot
///
/// ```
/// use dbscan::{ClusterSession, Params, PointCloud};
///
/// // Two clusters of five points each, one far-away noise point.
/// let mut rows: Vec<[f64; 2]> = Vec::new();
/// for i in 0..5 {
///     rows.push([0.1 * i as f64, 0.0]);
///     rows.push([0.1 * i as f64, 30.0]);
/// }
/// rows.push([15.0, 15.0]);
///
/// let session = ClusterSession::ingest(PointCloud::from_rows(&rows)?)?;
/// let labels = session.cluster(Params::new(0.5, 3))?;
/// assert_eq!(labels.num_clusters(), 2);
/// assert!(labels.is_noise(rows.len() - 1));
/// # Ok::<(), dbscan::Error>(())
/// ```
///
/// # Parameter sweep
///
/// ```
/// use dbscan::{ClusterSession, PointCloud};
///
/// let coords: Vec<f64> = (0..40).map(|i| 0.1 * (i % 20) as f64).collect();
/// let session = ClusterSession::ingest(PointCloud::new(2, coords)?)?;
///
/// // 2 × 2 parameter grid, one partition build per ε underneath.
/// let grid = session.sweep(([0.5, 0.7], [3, 4]))?;
/// assert_eq!(grid.len(), 4);
/// assert_eq!(session.cache_stats().partition_misses, 2);
/// # Ok::<(), dbscan::Error>(())
/// ```
///
/// # Streaming updates
///
/// ```
/// use dbscan::{ClusterSession, Params, PointCloud};
///
/// let rows: Vec<[f64; 2]> = (0..10).map(|i| [0.1 * i as f64, 0.0]).collect();
/// let mut session = ClusterSession::ingest(PointCloud::from_rows(&rows)?)?;
/// let params = Params::new(0.5, 3);
///
/// let mut updates = session.updates(params)?;
/// let far = updates.insert(&[50.0, 50.0])?;        // a lone noise point
/// assert!(updates.labels().is_noise(rows.len()));
/// updates.delete(far)?;
/// updates.finish();                                 // freeze back to sweep mode
///
/// assert_eq!(session.cluster(params)?.num_clusters(), 1);
/// # Ok::<(), dbscan::Error>(())
/// ```
pub struct ClusterSession {
    dim: usize,
    pub(crate) inner: Box<dyn ErasedSession>,
    /// EXPLAIN report of the most recent successful query/sweep/apply.
    /// Interior mutability because `query`/`sweep` take `&self`.
    last_explain: Mutex<Option<obs::ExplainReport>>,
}

impl std::fmt::Debug for ClusterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSession")
            .field("dim", &self.dim)
            .field("num_points", &self.num_points())
            .finish_non_exhaustive()
    }
}

impl ClusterSession {
    /// Starts configuring a session (cache capacities, then
    /// [`SessionBuilder::ingest`]).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Opens a session over `cloud` with default cache capacities.
    pub fn ingest(cloud: PointCloud) -> Result<Self, Error> {
        SessionBuilder::new().ingest(cloud)
    }

    /// Opens a session over `cloud` persisted in the durable store at
    /// `dir` (see [`SessionBuilder::durable`]). Any prior store at `dir`
    /// is reinitialized.
    pub fn ingest_durable(
        cloud: PointCloud,
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<Self, Error> {
        SessionBuilder::new().durable(dir, options).ingest(cloud)
    }

    /// Reopens the session persisted in the durable store at `dir`:
    /// recovers the live point set from the newest snapshot plus the WAL
    /// suffix, checkpoints, and serves it in indexed mode. The recovered
    /// points (ascending stable id) become the new session's ingest order,
    /// so labels computed before the crash and after recovery line up
    /// point for point.
    ///
    /// ```no_run
    /// use dbscan::{ClusterSession, DurableOptions, Params, PointCloud};
    ///
    /// let dir = "/var/lib/myapp/clusters";
    /// let opts = DurableOptions::default();
    /// {
    ///     let rows: Vec<[f64; 2]> = (0..10).map(|i| [0.1 * i as f64, 0.0]).collect();
    ///     let mut session =
    ///         ClusterSession::ingest_durable(PointCloud::from_rows(&rows)?, dir, opts)?;
    ///     let mut updates = session.updates(Params::new(0.5, 3))?;
    ///     updates.insert(&[0.15, 0.0])?; // WAL'd before it is applied
    ///     // process crashes here — the insert survives
    /// }
    /// let recovered = ClusterSession::open_durable(dir, opts)?;
    /// assert_eq!(recovered.num_points(), 11);
    /// # Ok::<(), dbscan::Error>(())
    /// ```
    pub fn open_durable(dir: impl AsRef<Path>, options: DurableOptions) -> Result<Self, Error> {
        SessionBuilder::new().open_durable(dir, options)
    }

    /// Wraps an already-dispatched session state — the constructor behind
    /// the builder and the generational publish path, which uses it for
    /// each immutable published generation.
    pub(crate) fn from_parts(dim: usize, inner: Box<dyn ErasedSession>) -> Self {
        ClusterSession {
            dim,
            inner,
            last_explain: Mutex::new(None),
        }
    }

    /// Converts this session into a concurrently shareable one: a single
    /// writer applies update batches while any number of readers resolve
    /// queries against immutable published generations. See
    /// [`crate::ConcurrentSession`] for the full contract.
    ///
    /// `params` selects the maintained clustering (the streaming layer
    /// maintains one (ε, minPts) incrementally; published generations still
    /// answer arbitrary-parameter queries through their own caches). For a
    /// durable session the conversion starts a WAL'd streaming episode, so
    /// every batch applied through the concurrent writer is logged before
    /// it is acknowledged.
    pub fn share(self, params: impl Into<DbscanParams>) -> Result<crate::ConcurrentSession, Error> {
        crate::ConcurrentSession::from_session(self, params.into())
    }

    /// The dimensionality of the session's points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points currently served (the ingested count, adjusted by
    /// any applied streaming updates).
    pub fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    /// Clusters the session's points with the paper's default exact
    /// variant (`our-exact`), reusing cached phase state where possible:
    /// shorthand for [`ClusterSession::query`] with
    /// [`VariantConfig::exact`], keeping only the labels. Accepts anything
    /// convertible into [`crate::Params`] — `Params::new(0.5, 3)` or the
    /// tuple `(0.5, 3)`.
    pub fn cluster(&self, params: impl Into<DbscanParams>) -> Result<Labels, Error> {
        Ok(self.query(params, VariantConfig::exact())?.labels)
    }

    /// Runs an explicit algorithm variant and returns the labels together
    /// with the per-query statistics (phase timings, cache-reuse flags).
    pub fn query(
        &self,
        params: impl Into<DbscanParams>,
        variant: VariantConfig,
    ) -> Result<QueryOutcome, Error> {
        let params = params.into();
        let scope = obs::OpScope::begin_with_pool("query", rayon::pool_busy_nanos());
        let outcome = {
            let _span = obs::Span::enter("session", obs::phase::QUERY)
                .eps(params.eps)
                .min_pts(params.min_pts)
                .n(self.num_points());
            self.inner.query(params, variant)
        }?;
        let mut report = scope.finish_with_pool(rayon::pool_busy_nanos(), rayon::pool_threads());
        report.variant = outcome.stats.variant.clone();
        report.eps = params.eps;
        report.min_pts = params.min_pts;
        report.n = self.num_points();
        report.cells_visited = outcome.stats.num_cells;
        report.num_core_points = outcome.stats.num_core_points;
        report.phases = phases_from_query(&outcome.stats);
        self.store_explain(report);
        Ok(outcome)
    }

    /// Runs a full `ε-grid × minPts-grid` cross-product in parallel. Each
    /// ε's spatial index is built once and shared across that ε's minPts
    /// values, and repeated grid entries are deduplicated before dispatch.
    ///
    /// Accepts anything convertible into [`SweepGrid`]: the builder form
    /// `SweepGrid::new([0.5, 0.7], [3, 4])` (with
    /// [`SweepGrid::variant`] for a non-default algorithm variant), or
    /// plain tuples of arrays/slices/vecs —
    /// `session.sweep(([0.5, 0.7], [3, 4]))`.
    pub fn sweep(&self, grid: impl Into<SweepGrid>) -> Result<Vec<SweepCell>, Error> {
        let grid = grid.into();
        let (eps_grid, min_pts_grid, variant) = (grid.eps, grid.min_pts, grid.variant);
        let scope = obs::OpScope::begin_with_pool("sweep", rayon::pool_busy_nanos());
        let grid = {
            let _span = obs::Span::enter("session", obs::phase::SWEEP)
                .n(eps_grid.len() * min_pts_grid.len());
            self.inner.sweep(&eps_grid, &min_pts_grid, variant)
        }?;
        let mut report = scope.finish_with_pool(rayon::pool_busy_nanos(), rayon::pool_threads());
        report.variant = format!(
            "{} over a {}x{} grid",
            variant.paper_name(),
            eps_grid.len(),
            min_pts_grid.len()
        );
        if let [eps] = *eps_grid {
            report.eps = eps;
        }
        if let [min_pts] = *min_pts_grid {
            report.min_pts = min_pts;
        }
        report.n = self.num_points() * grid.len().max(1);
        report.cells_visited = grid.iter().map(|c| c.stats.num_cells).sum();
        report.num_core_points = grid.iter().map(|c| c.stats.num_core_points).sum();
        report.phases = phases_from_sweep(&grid);
        self.store_explain(report);
        Ok(grid)
    }

    /// The [`obs::ExplainReport`] of this session's most recent successful
    /// `query`, `sweep`, or streaming `apply`/`insert`/`delete` — which
    /// phases ran vs. were cache-skipped (and by which generation), phase
    /// and pool timings, parallel efficiency, registry counter deltas, and
    /// (with the `alloc-profile` feature and a counting allocator
    /// installed) allocation deltas. `None` before the first operation.
    ///
    /// Spans are attached only under `DBSCAN_OBS=trace`; counter deltas are
    /// empty under `DBSCAN_OBS=off`. The registry and allocator are
    /// process-wide, so operations running *concurrently* in other sessions
    /// land in the same delta window — attribution is exact when operations
    /// don't overlap.
    pub fn explain_last(&self) -> Option<obs::ExplainReport> {
        self.last_explain
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn store_explain(&self, report: obs::ExplainReport) {
        *self.last_explain.lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
    }

    /// Cumulative cache counters since the session was opened (or since the
    /// last streaming handle froze back, which re-indexes).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    /// A point-in-time snapshot of the **process-wide** metrics registry:
    /// cache hit/miss counters, kernel and BCP work counters, streaming
    /// maintenance counters, query/apply duration histograms, and the
    /// worker-pool profile — everything the workspace records under the
    /// `DBSCAN_OBS` observability mode (see the [`obs`] crate docs).
    ///
    /// Unlike [`ClusterSession::cache_stats`], which counts this session's
    /// snapshot only, the registry accumulates across every session, engine
    /// and streaming path in the process since start. Empty when
    /// `DBSCAN_OBS=off`. Render it with
    /// [`obs::MetricsReport::to_prometheus`] for scraping.
    pub fn metrics(&self) -> obs::MetricsReport {
        obs::snapshot()
    }

    /// Drains and returns the recorded trace spans (phase-level timings with
    /// ε, minPts, point counts and thread ids), oldest first.
    ///
    /// Spans are recorded only under `DBSCAN_OBS=trace` and land in one
    /// **process-wide** ring buffer shared by every session; draining here
    /// empties it for all readers. The ring keeps the most recent
    /// [`obs::RING_CAPACITY`] spans — check [`obs::trace_dropped`] to see
    /// whether older ones were overwritten.
    pub fn take_trace(&self) -> Vec<obs::SpanRecord> {
        obs::take_trace()
    }

    /// Switches the session into streaming mode under `params` and returns
    /// the update handle. The cached spatial index for `params.eps` is
    /// reused when one exists, so entering streaming mode after queries at
    /// the same ε skips the re-partition entirely.
    ///
    /// While the handle lives the session is exclusively borrowed — queries
    /// and sweeps are statically impossible until the handle is dropped or
    /// [`UpdateHandle::finish`]ed, which freezes the live point set back
    /// into an indexed snapshot.
    ///
    /// **Point ids are per-episode.** Each call to `updates` hands out
    /// fresh stable ids: the current points get `0..num_points()` in their
    /// served order (ingest order initially; ascending previous-episode id
    /// after a freeze), and inserts extend from there. Ids cached from an
    /// earlier handle do not address the same points in a later one —
    /// re-read [`UpdateHandle::live_ids`] at the start of every episode.
    ///
    /// The incremental maintenance underneath enumerates grid-key
    /// neighbourhoods whose size grows steeply with the dimension; it is
    /// engineered for the low-dimensional regime (d ≤ 3 is where the
    /// paper's grid constants are small). Higher-dimensional sessions can
    /// still stream, but per-update costs rise accordingly.
    pub fn updates(&mut self, params: impl Into<DbscanParams>) -> Result<UpdateHandle<'_>, Error> {
        let params = params.into();
        self.inner.begin_updates(params)?;
        Ok(UpdateHandle {
            session: self,
            params,
        })
    }
}

/// Exclusive streaming access to a [`ClusterSession`].
///
/// Obtained from [`ClusterSession::updates`]; insertions and deletions are
/// maintained incrementally (work proportional to the update's
/// ε-neighbourhood, not the dataset). Dropping the handle — or calling
/// [`UpdateHandle::finish`] — freezes the live point set back into the
/// session's indexed mode.
pub struct UpdateHandle<'s> {
    session: &'s mut ClusterSession,
    params: DbscanParams,
}

impl UpdateHandle<'_> {
    /// The shared apply path of [`UpdateHandle::apply`], `insert`, and
    /// `delete`: runs the batch under an EXPLAIN scope and stores the
    /// session's `explain_last` report on success.
    fn apply_scoped(
        &mut self,
        insert_coords: &[f64],
        deletes: &[usize],
    ) -> Result<UpdateStats, Error> {
        let n = insert_coords.len() / self.session.dim.max(1) + deletes.len();
        let scope = obs::OpScope::begin_with_pool("apply", rayon::pool_busy_nanos());
        let stats = {
            let _span = obs::Span::enter("session", obs::phase::APPLY)
                .eps(self.params.eps)
                .min_pts(self.params.min_pts)
                .n(n);
            self.session.inner.apply(insert_coords, deletes)
        }?;
        let mut report = scope.finish_with_pool(rayon::pool_busy_nanos(), rayon::pool_threads());
        report.eps = self.params.eps;
        report.min_pts = self.params.min_pts;
        report.n = n;
        report.cells_visited = stats.cells_touched;
        report.phases = phases_from_update(&stats);
        self.session.store_explain(report);
        Ok(stats)
    }

    /// Applies a batch of updates: `inserts` (validated against the
    /// session's dimensionality) and `deletes` (stable point ids). The
    /// batch is atomic — on error nothing is applied.
    pub fn apply(&mut self, inserts: &PointCloud, deletes: &[usize]) -> Result<UpdateStats, Error> {
        if inserts.dim() != self.session.dim && !inserts.is_empty() {
            return Err(Error::DimensionMismatch {
                expected: self.session.dim,
                got: inserts.dim(),
            });
        }
        self.apply_scoped(inserts.coords(), deletes)
    }

    /// Inserts one point, returning its stable id. Fails on arity mismatch
    /// with the session's dimensionality or a non-finite coordinate.
    pub fn insert(&mut self, point: &[f64]) -> Result<usize, Error> {
        if point.len() != self.session.dim {
            return Err(Error::DimensionMismatch {
                expected: self.session.dim,
                got: point.len(),
            });
        }
        crate::cloud::validate_finite(point, self.session.dim, 0)?;
        let stats = self.apply_scoped(point, &[])?;
        Ok(stats.inserted_ids[0])
    }

    /// Deletes one live point by stable id.
    pub fn delete(&mut self, id: usize) -> Result<UpdateStats, Error> {
        self.apply_scoped(&[], &[id])
    }

    /// The current labels of the live points, in ascending stable-id order
    /// (the order [`UpdateHandle::live_ids`] reports) — the same [`Labels`]
    /// type the query and sweep paths produce, maintained incrementally.
    pub fn labels(&self) -> Labels {
        self.session.inner.stream_labels()
    }

    /// The stable ids of the live points, ascending. Ids are stable for the
    /// lifetime of *this* handle only — the next [`ClusterSession::updates`]
    /// episode renumbers (see there).
    pub fn live_ids(&self) -> Vec<usize> {
        self.session.inner.live_ids()
    }

    /// The live points as a [`PointCloud`], in the same ascending stable-id
    /// order as [`UpdateHandle::labels`] and [`UpdateHandle::live_ids`].
    pub fn live_cloud(&self) -> PointCloud {
        // Every live coordinate passed validation when it entered the
        // session, so the re-wrap skips the O(n·dim) finiteness re-scan.
        PointCloud::trusted(self.session.dim, self.session.inner.live_coords())
    }

    /// Number of live points.
    pub fn num_live(&self) -> usize {
        self.session.inner.num_points()
    }

    /// Ends streaming mode now, freezing the live point set back into the
    /// session's indexed snapshot. (Dropping the handle does the same; this
    /// method just names the hand-off.)
    pub fn finish(self) {}
}

impl Drop for UpdateHandle<'_> {
    fn drop(&mut self) {
        self.session.inner.freeze();
    }
}

/// The object-safe surface each monomorphized session state implements.
/// Crate-private and implemented only by [`SessionState`]: the jump table
/// in [`open_session`] is the sole constructor, so every trait object in a
/// [`ClusterSession`] is backed by this crate's dispatch. (The
/// `crate::concurrent` module drives it directly for the generational
/// publish path.)
pub(crate) trait ErasedSession: Send + Sync {
    fn num_points(&self) -> usize;
    fn query(&self, params: DbscanParams, variant: VariantConfig) -> Result<QueryOutcome, Error>;
    fn sweep(
        &self,
        eps_grid: &[f64],
        min_pts_grid: &[usize],
        variant: VariantConfig,
    ) -> Result<Vec<SweepCell>, Error>;
    fn cache_stats(&self) -> CacheStats;
    fn begin_updates(&mut self, params: DbscanParams) -> Result<(), Error>;
    fn apply(&mut self, insert_coords: &[f64], deletes: &[usize]) -> Result<UpdateStats, Error>;
    fn stream_labels(&self) -> Labels;
    fn live_ids(&self) -> Vec<usize>;
    fn live_coords(&self) -> Vec<f64>;
    fn freeze(&mut self);
    /// A fresh indexed session state over the current live point set,
    /// without leaving the current mode — the publish half of generational
    /// concurrency. The new state's engine caches stamp generations
    /// starting at `first_generation`. Works from every mode (streaming
    /// modes snapshot the live overlay; indexed mode re-indexes a copy of
    /// the snapshot's points).
    fn publish_indexed(&self, first_generation: u64) -> Result<Box<dyn ErasedSession>, Error>;
    /// Persists a durable session's current live set (snapshot + WAL
    /// reset). A no-op `Ok(())` for non-durable modes.
    fn checkpoint(&mut self) -> Result<(), Error>;
}

/// The session's mode: an engine snapshot (query/sweep service) or a
/// streaming clusterer (update service) — write-ahead logged when the
/// session is durable. `Transitioning` exists only inside mode changes
/// (the enum must be takeable by value). The variants are boxed: exactly
/// one `Mode` exists per session, so the indirection is irrelevant, and it
/// keeps the enum pointer-sized.
enum Mode<const D: usize> {
    Indexed(Box<Snapshot<D>>),
    Streaming(Box<StreamingClusterer<D>>),
    DurableStreaming(Box<DurableClusterer<D>>),
    Transitioning,
}

/// The monomorphized state behind a [`ClusterSession`] for one dimension.
struct SessionState<const D: usize> {
    engine: Engine,
    mode: Mode<D>,
    /// Present on durable sessions: the store directory and the WAL
    /// policy every streaming episode runs under.
    durable: Option<(PathBuf, DurableOptions)>,
}

impl<const D: usize> SessionState<D> {
    fn new(
        engine: Engine,
        points: Vec<Point<D>>,
        durable: Option<(PathBuf, DurableOptions)>,
    ) -> Result<Self, Error> {
        if let Some((dir, _)) = &durable {
            // Persist the ingested cloud before serving anything: a durable
            // session recovers to at least its ingest state.
            dbscan_durable::init_store(&RealStorage::shared(), dir, points.clone(), None)?;
        }
        let snapshot = engine.index(points);
        Ok(SessionState {
            engine,
            mode: Mode::Indexed(Box::new(snapshot)),
            durable,
        })
    }

    fn snapshot(&self) -> &Snapshot<D> {
        match &self.mode {
            Mode::Indexed(snapshot) => snapshot,
            // `UpdateHandle` holds the session's unique borrow while
            // streaming, so the query paths cannot observe these modes.
            _ => unreachable!("query paths are unreachable while streaming"),
        }
    }

    /// The live `(stable id, point)` pairs of whichever streaming mode is
    /// active.
    fn streaming_live_points(&self) -> Vec<(usize, Point<D>)> {
        match &self.mode {
            Mode::Streaming(clusterer) => clusterer.live_points(),
            Mode::DurableStreaming(durable) => durable.live_points(),
            _ => unreachable!("update paths require an UpdateHandle"),
        }
    }
}

impl<const D: usize> ErasedSession for SessionState<D> {
    fn num_points(&self) -> usize {
        match &self.mode {
            Mode::Indexed(snapshot) => snapshot.num_points(),
            Mode::Streaming(clusterer) => clusterer.num_live(),
            Mode::DurableStreaming(durable) => durable.num_live(),
            Mode::Transitioning => unreachable!("mode transitions are not observable"),
        }
    }

    fn query(&self, params: DbscanParams, variant: VariantConfig) -> Result<QueryOutcome, Error> {
        let result = self.snapshot().query_variant(params, variant)?;
        Ok(QueryOutcome {
            labels: Labels::from(result.clustering),
            stats: result.stats,
        })
    }

    fn sweep(
        &self,
        eps_grid: &[f64],
        min_pts_grid: &[usize],
        variant: VariantConfig,
    ) -> Result<Vec<SweepCell>, Error> {
        let grid = self
            .snapshot()
            .sweep_variant(eps_grid, min_pts_grid, variant)?;
        Ok(grid
            .into_iter()
            .map(|cell| SweepCell {
                eps: cell.eps,
                min_pts: cell.min_pts,
                labels: Labels::from(cell.clustering),
                stats: cell.stats,
            })
            .collect())
    }

    fn cache_stats(&self) -> CacheStats {
        self.snapshot().cache_stats()
    }

    fn begin_updates(&mut self, params: DbscanParams) -> Result<(), Error> {
        params.validate().map_err(Error::from)?;
        // Both branches build from the borrowed snapshot and switch modes
        // only on success, so a failed start (an ε too small for the extent
        // of the points, a store I/O error) leaves the session serviceable.
        let snapshot = self.snapshot();
        self.mode = if let Some((dir, options)) = &self.durable {
            // Durable episode: re-found the store on the current live set
            // (stable ids are per-episode, so the store's external ids — a
            // fresh `0..n` — coincide with the episode's ids) and log every
            // batch from here on.
            let points = snapshot.points().to_vec();
            let durable =
                DurableClusterer::create(RealStorage::shared(), dir, points, params, *options)?;
            Mode::DurableStreaming(Box::new(durable))
        } else {
            let clusterer = StreamingClusterer::from_snapshot(snapshot, params)?;
            Mode::Streaming(Box::new(clusterer))
        };
        Ok(())
    }

    fn apply(&mut self, insert_coords: &[f64], deletes: &[usize]) -> Result<UpdateStats, Error> {
        let batch = UpdateBatch {
            inserts: points_from_flat::<D>(insert_coords),
            deletes: deletes.to_vec(),
        };
        match &mut self.mode {
            Mode::Streaming(clusterer) => Ok(clusterer.apply(batch)?),
            Mode::DurableStreaming(durable) => Ok(durable.apply(batch)?),
            _ => unreachable!("update paths require an UpdateHandle"),
        }
    }

    fn stream_labels(&self) -> Labels {
        match &self.mode {
            Mode::Streaming(clusterer) => Labels::from(clusterer.clustering()),
            Mode::DurableStreaming(durable) => Labels::from(durable.clustering()),
            _ => unreachable!("update paths require an UpdateHandle"),
        }
    }

    fn live_ids(&self) -> Vec<usize> {
        self.streaming_live_points()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    fn live_coords(&self) -> Vec<f64> {
        let live = self.streaming_live_points();
        let mut out = Vec::with_capacity(live.len() * D);
        for (_, p) in live {
            out.extend_from_slice(&p.coords);
        }
        out
    }

    fn freeze(&mut self) {
        match std::mem::replace(&mut self.mode, Mode::Transitioning) {
            Mode::Streaming(clusterer) => {
                let points: Vec<Point<D>> = clusterer
                    .live_points()
                    .into_iter()
                    .map(|(_, p)| p)
                    .collect();
                self.mode = Mode::Indexed(Box::new(self.engine.index(points)));
            }
            Mode::DurableStreaming(mut durable) => {
                // Best-effort final checkpoint (freeze runs from Drop, so
                // the error cannot propagate): if it fails, the WAL still
                // holds every logged batch and recovery replays them — only
                // the log compaction is lost.
                let _ = durable.checkpoint();
                let points: Vec<Point<D>> =
                    durable.live_points().into_iter().map(|(_, p)| p).collect();
                self.mode = Mode::Indexed(Box::new(self.engine.index(points)));
            }
            _ => unreachable!("freeze requires a streaming mode"),
        }
    }

    fn publish_indexed(&self, first_generation: u64) -> Result<Box<dyn ErasedSession>, Error> {
        let snapshot = match &self.mode {
            Mode::Indexed(snapshot) => self.engine.index_from_generation(
                snapshot.points().to_vec(),
                Vec::new(),
                first_generation,
            ),
            Mode::Streaming(clusterer) => clusterer.snapshot_live(&self.engine, first_generation),
            Mode::DurableStreaming(durable) => durable
                .clusterer()
                .snapshot_live(&self.engine, first_generation),
            Mode::Transitioning => unreachable!("mode transitions are not observable"),
        };
        Ok(Box::new(SessionState {
            engine: self.engine.clone(),
            mode: Mode::Indexed(Box::new(snapshot)),
            // Published generations are immutable read replicas; the store
            // stays owned by the writer they were published from.
            durable: None,
        }))
    }

    fn checkpoint(&mut self) -> Result<(), Error> {
        match &mut self.mode {
            Mode::DurableStreaming(durable) => {
                durable.checkpoint()?;
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The dimension dispatch: packs the cloud into `Point<D>`s and
/// monomorphizes the session state for every supported dimension, one jump
/// table arm each. Dimensions outside the table report
/// [`Error::UnsupportedDimension`].
///
/// The arms must cover exactly
/// `pardbscan::ERASED_DIM_MIN..=ERASED_DIM_MAX` — the same range as the
/// core crate's `erased_pipeline` jump table, which the one-shot
/// [`crate::cluster`] path dispatches through (and which the error message
/// quotes). The `session_range_equals_erased_pipeline_range` test pins the
/// two tables together.
fn open_session(
    engine: Engine,
    cloud: &PointCloud,
    durable: Option<(PathBuf, DurableOptions)>,
) -> Result<Box<dyn ErasedSession>, Error> {
    macro_rules! open_dim {
        ($d:literal) => {
            Box::new(SessionState::<$d>::new(
                engine,
                points_from_flat::<$d>(cloud.coords()),
                durable,
            )?) as Box<dyn ErasedSession>
        };
    }
    Ok(match cloud.dim() {
        2 => open_dim!(2),
        3 => open_dim!(3),
        4 => open_dim!(4),
        5 => open_dim!(5),
        6 => open_dim!(6),
        7 => open_dim!(7),
        8 => open_dim!(8),
        dim => return Err(Error::UnsupportedDimension(dim)),
    })
}

/// The durable twin of [`open_session`]: recovers the store at `dir` for
/// the store's own dimensionality (read from its file headers) and serves
/// the recovered points in indexed mode.
fn open_durable_session(
    engine: Engine,
    storage: Arc<dyn Storage>,
    dir: &Path,
    options: DurableOptions,
    dim: usize,
) -> Result<Box<dyn ErasedSession>, Error> {
    fn recover<const D: usize>(
        engine: Engine,
        storage: Arc<dyn Storage>,
        dir: &Path,
        options: DurableOptions,
    ) -> Result<SessionState<D>, Error> {
        let has_wal = storage.exists(&dir.join(dbscan_durable::wal::WAL_FILE));
        let snapshot = dbscan_durable::read_store_snapshot::<D>(&storage, dir)?;
        let points: Vec<Point<D>> = match (&snapshot, has_wal) {
            // An idle store (ingested or frozen, never streamed since):
            // nothing to replay.
            (Some(s), false) if s.params.is_none() => s.points.clone(),
            // Anything else goes through full recovery; the checkpoint
            // afterwards means the *next* open takes the idle path or a
            // replay-free one.
            _ => {
                let mut durable = DurableClusterer::<D>::open(storage, dir, options)?;
                durable.checkpoint()?;
                durable.live_points().into_iter().map(|(_, p)| p).collect()
            }
        };
        Ok(SessionState {
            mode: Mode::Indexed(Box::new(engine.index(points))),
            engine,
            durable: Some((dir.to_path_buf(), options)),
        })
    }
    macro_rules! open_dim {
        ($d:literal) => {
            Box::new(recover::<$d>(engine, storage, dir, options)?) as Box<dyn ErasedSession>
        };
    }
    Ok(match dim {
        2 => open_dim!(2),
        3 => open_dim!(3),
        4 => open_dim!(4),
        5 => open_dim!(5),
        6 => open_dim!(6),
        7 => open_dim!(7),
        8 => open_dim!(8),
        dim => return Err(Error::UnsupportedDimension(dim)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cloud(n_side: usize, spacing: f64) -> PointCloud {
        let mut coords = Vec::with_capacity(n_side * n_side * 2);
        for i in 0..n_side {
            for j in 0..n_side {
                coords.push(spacing * i as f64);
                coords.push(spacing * j as f64);
            }
        }
        PointCloud::new(2, coords).unwrap()
    }

    #[test]
    fn session_serves_all_supported_dimensions() {
        for dim in 2..=8usize {
            let coords: Vec<f64> = (0..dim * 20).map(|i| 0.05 * (i / dim) as f64).collect();
            let cloud = PointCloud::new(dim, coords).unwrap();
            let session = ClusterSession::ingest(cloud).unwrap();
            assert_eq!(session.dim(), dim);
            assert_eq!(session.num_points(), 20);
            let labels = session.cluster(DbscanParams::new(0.5, 3)).unwrap();
            assert_eq!(labels.len(), 20);
            assert_eq!(labels.num_clusters(), 1, "dim {dim}");
        }
    }

    #[test]
    fn unsupported_dimensions_are_rejected_with_a_typed_error() {
        for dim in [1usize, 9, 13] {
            let cloud = PointCloud::new(dim, vec![0.0; dim * 3]).unwrap();
            assert_eq!(
                ClusterSession::ingest(cloud).unwrap_err(),
                Error::UnsupportedDimension(dim)
            );
        }
    }

    #[test]
    fn session_range_equals_erased_pipeline_range() {
        // The session's jump table and the core crate's erased_pipeline
        // table are written separately; this pins them to the same set so
        // extending one without the other fails loudly.
        for dim in 1..=pardbscan::ERASED_DIM_MAX + 4 {
            let cloud = PointCloud::new(dim, Vec::new()).unwrap();
            let session_accepts = ClusterSession::ingest(cloud).is_ok();
            assert_eq!(
                session_accepts,
                pardbscan::erased_pipeline(dim).is_some(),
                "dimension {dim}: session and erased_pipeline must agree"
            );
            assert_eq!(
                session_accepts,
                (pardbscan::ERASED_DIM_MIN..=pardbscan::ERASED_DIM_MAX).contains(&dim),
                "dimension {dim}: advertised constants must match the table"
            );
        }
    }

    #[test]
    fn update_episodes_renumber_point_ids() {
        // Documented contract: ids are per-episode. Episode 1 deletes id 0;
        // after the freeze, episode 2's live ids are renumbered from 0
        // again (so a cached episode-1 id must not be reused).
        let mut session = ClusterSession::ingest(grid_cloud(4, 0.1)).unwrap();
        let params = DbscanParams::new(0.2, 3);
        let mut updates = session.updates(params).unwrap();
        assert_eq!(updates.live_ids(), (0..16).collect::<Vec<_>>());
        updates.delete(0).unwrap();
        updates.finish();
        let updates = session.updates(params).unwrap();
        assert_eq!(updates.live_ids(), (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn one_session_serves_queries_sweeps_and_updates() {
        let mut session = ClusterSession::builder()
            .partition_cache_capacity(4)
            .core_cache_capacity(8)
            .ingest(grid_cloud(10, 0.1))
            .unwrap();
        let params = DbscanParams::new(0.2, 4);

        let one_shot = session.cluster(params).unwrap();
        assert_eq!(one_shot.num_clusters(), 1);

        let grid = session.sweep(([0.2, 0.35], [4, 8])).unwrap();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].labels, one_shot, "sweep cell ≡ one-shot labels");
        assert!(session.cache_stats().partition_hits > 0);

        let mut updates = session.updates(params).unwrap();
        let id = updates.insert(&[20.0, 20.0]).unwrap();
        assert_eq!(id, 100);
        assert!(updates.labels().is_noise(updates.num_live() - 1));
        let stats = updates.delete(id).unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(updates.live_ids().len(), 100);
        updates.finish();

        // Back in indexed mode: the same query is served again and still
        // matches (the live set round-tripped unchanged).
        assert_eq!(session.cluster(params).unwrap(), one_shot);
    }

    #[test]
    fn dropping_the_handle_freezes_back() {
        let mut session = ClusterSession::ingest(grid_cloud(6, 0.1)).unwrap();
        let params = DbscanParams::new(0.2, 3);
        {
            let mut updates = session.updates(params).unwrap();
            updates.insert(&[0.25, 0.25]).unwrap();
        } // dropped without finish()
        assert_eq!(session.num_points(), 37);
        assert_eq!(session.cluster(params).unwrap().num_clusters(), 1);
    }

    #[test]
    fn update_handle_validates_dimension_and_finiteness() {
        let mut session = ClusterSession::ingest(grid_cloud(4, 0.1)).unwrap();
        let mut updates = session.updates(DbscanParams::new(0.2, 3)).unwrap();
        assert_eq!(
            updates.insert(&[1.0, 2.0, 3.0]).unwrap_err(),
            Error::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            updates.insert(&[f64::NAN, 0.0]).unwrap_err(),
            Error::NonFiniteCoordinate {
                point: 0,
                axis: Some(0)
            }
        );
        let wrong_dim = PointCloud::new(3, vec![0.0, 0.0, 0.0]).unwrap();
        assert_eq!(
            updates.apply(&wrong_dim, &[]).unwrap_err(),
            Error::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(updates.delete(999).unwrap_err(), Error::UnknownPoint(999));
        assert_eq!(updates.num_live(), 16, "failed updates applied nothing");
    }

    #[test]
    fn invalid_parameters_are_typed_errors_on_every_path() {
        let mut session = ClusterSession::ingest(grid_cloud(4, 0.1)).unwrap();
        assert!(matches!(
            session.cluster(DbscanParams::new(0.0, 3)),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            session.sweep(([0.2, f64::NAN], [3])),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            session.updates(DbscanParams::new(-1.0, 3)),
            Err(Error::InvalidParams(_))
        ));
        // A failed `updates` must leave the session serviceable.
        assert!(session.cluster(DbscanParams::new(0.2, 3)).is_ok());
    }

    #[test]
    fn empty_cloud_sessions_work() {
        let session = ClusterSession::ingest(PointCloud::empty(4).unwrap()).unwrap();
        assert_eq!(session.num_points(), 0);
        let labels = session.cluster(DbscanParams::new(1.0, 3)).unwrap();
        assert!(labels.is_empty());
        assert_eq!(labels.num_clusters(), 0);
    }
}
