//! Generational concurrency: one writer, any number of non-blocking
//! readers.
//!
//! A [`ClusterSession`]'s streaming mode takes `&mut` — while an
//! [`crate::UpdateHandle`] lives, the borrow checker statically forbids
//! queries, which is exactly the wrong shape for a service answering reads
//! under a continuous update feed. [`ConcurrentSession`] lifts the same
//! machinery into a multi-version scheme instead:
//!
//! * The **writer** owns a session pinned in streaming (or WAL'd
//!   durable-streaming) mode and applies [`ConcurrentSession::update`]
//!   batches through the incremental maintenance path.
//! * After each batch (or explicitly, via [`ConcurrentSession::publish`])
//!   it snapshots the live point set into an immutable **generation**: an
//!   indexed engine snapshot plus the maintained labels, wrapped in an
//!   [`Arc`] and swapped into the published slot.
//! * **Readers** call [`ConcurrentSession::current`] and resolve queries,
//!   sweeps and label fetches against that [`Generation`] — an `Arc` clone
//!   under a lock held for a pointer copy, never for index builds or
//!   batch applies. A reader keeps its generation alive for as long as it
//!   holds the `Arc`, even as newer generations are published.
//!
//! Generation ids are monotonic per session, start at 0 (the shared
//! ingest), and stamp the engine's generation-keyed caches: a query's
//! [`crate::QueryStats::index_generation`] is at least the id of the
//! generation that answered it, so EXPLAIN output and cache keys identify
//! the published version they belong to.
//!
//! This is the dynamic-evaluation contract of Berkholz, Keppeler &
//! Schweikardt ("Answering FO+MOD queries under updates") served over
//! shared memory: constant-delay answers from a consistent version while
//! the maintenance structure absorbs updates.
//!
//! ```
//! use dbscan::{ClusterSession, Params, PointCloud};
//!
//! let rows: Vec<[f64; 2]> = (0..10).map(|i| [0.1 * i as f64, 0.0]).collect();
//! let params = Params::new(0.25, 3);
//! let shared = ClusterSession::ingest(PointCloud::from_rows(&rows)?)?.share(params)?;
//!
//! // A reader pins generation 0 ...
//! let reader = shared.clone();
//! let g0 = reader.current();
//! assert_eq!(g0.id(), 0);
//!
//! // ... the writer publishes generation 1 ...
//! let far = PointCloud::from_rows(&[[50.0, 50.0]])?;
//! let outcome = shared.update(&far, &[])?;
//! assert_eq!(outcome.generation, 1);
//!
//! // ... and the pinned generation still answers, unchanged.
//! assert_eq!(g0.num_points(), 10);
//! assert_eq!(reader.current().num_points(), 11);
//! # Ok::<(), dbscan::Error>(())
//! ```

use crate::cloud::PointCloud;
use crate::error::Error;
use crate::labels::Labels;
use crate::session::{ClusterSession, QueryOutcome, SweepCell};
use dbscan_stream::UpdateStats;
use pardbscan::{DbscanParams, SweepGrid, VariantConfig};
use std::sync::{Arc, Mutex, MutexGuard};

static GENERATIONS_PUBLISHED: obs::LazyCounter = obs::LazyCounter::with_help(
    "dbscan_generations_published_total",
    "Generations published by concurrent sessions",
);
static PUBLISH_SECONDS: obs::LazyHistogram = obs::LazyHistogram::with_help(
    "dbscan_publish_duration_seconds",
    "Wall time of one generation publish (live-set snapshot + label resolve)",
);

/// One immutable published version of a [`ConcurrentSession`]'s point set.
///
/// Obtained from [`ConcurrentSession::current`] as an `Arc`; every read it
/// answers is consistent with exactly this version, no matter what the
/// writer does concurrently. Queries at parameters other than the
/// maintained ones are served by the generation's own engine caches
/// (`&self`, internally synchronized — concurrent readers share built
/// indexes).
pub struct Generation {
    id: u64,
    params: DbscanParams,
    cloud: PointCloud,
    labels: Labels,
    session: ClusterSession,
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("id", &self.id)
            .field("num_points", &self.cloud.len())
            .finish_non_exhaustive()
    }
}

impl Generation {
    /// This generation's id: 0 for the ingest generation, +1 per publish.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The maintained parameters ([`Generation::labels`] is their result).
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Number of points in this generation.
    pub fn num_points(&self) -> usize {
        self.cloud.len()
    }

    /// The labels at the maintained parameters, resolved when this
    /// generation was published (no work per fetch). Point order is
    /// ascending stable id — the same order as [`Generation::cloud`].
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The generation's point set, in label order.
    pub fn cloud(&self) -> &PointCloud {
        &self.cloud
    }

    /// Clusters this generation at arbitrary parameters (cached per
    /// generation across readers). Accepts anything convertible into
    /// [`crate::Params`], including an `(eps, min_pts)` tuple.
    pub fn cluster(&self, params: impl Into<DbscanParams>) -> Result<Labels, Error> {
        self.session.cluster(params)
    }

    /// [`Generation::cluster`] with an explicit variant, returning
    /// per-query statistics. The reported
    /// [`crate::QueryStats::index_generation`] is ≥ this generation's id.
    pub fn query(
        &self,
        params: impl Into<DbscanParams>,
        variant: VariantConfig,
    ) -> Result<QueryOutcome, Error> {
        self.session.query(params, variant)
    }

    /// Sweeps a parameter grid over this generation — anything convertible
    /// into a [`SweepGrid`], e.g. `([0.5, 0.7], [3, 4])`.
    pub fn sweep(&self, grid: impl Into<SweepGrid>) -> Result<Vec<SweepCell>, Error> {
        self.session.sweep(grid)
    }

    /// The indexed session serving this generation, for the remaining
    /// read-only surface (cache stats, EXPLAIN reports).
    pub fn session(&self) -> &ClusterSession {
        &self.session
    }
}

/// Result of one writer batch: the per-batch maintenance statistics and
/// the id of the generation the batch published.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// Id of the newly published generation (readers see it from the
    /// moment this outcome is returned).
    pub generation: u64,
    /// The streaming layer's per-batch statistics.
    pub stats: UpdateStats,
}

/// The single-writer state: a session pinned in streaming mode plus the
/// publish counter.
struct WriterState {
    session: ClusterSession,
    next_generation: u64,
}

struct Shared {
    dim: usize,
    params: DbscanParams,
    /// The published generation. Locked only to clone or swap the `Arc` —
    /// never while indexing, clustering, or applying a batch.
    published: Mutex<Arc<Generation>>,
    /// The writer side. Writers serialize here; readers never take it.
    writer: Mutex<WriterState>,
}

/// A concurrently shareable clustering session: cloneable, `Send + Sync`,
/// one writer path and non-blocking multi-version readers. See the module
/// docs above for the contract and an example.
#[derive(Clone)]
pub struct ConcurrentSession {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ConcurrentSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSession")
            .field("dim", &self.shared.dim)
            .field("generation", &self.current().id())
            .finish_non_exhaustive()
    }
}

/// Locks a mutex, ignoring poisoning: a panicked writer can only have
/// poisoned state that is re-derived or swapped whole (the published slot
/// holds a fully-constructed generation or the previous one).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ConcurrentSession {
    /// Converts `session` (in indexed mode — i.e. not inside an
    /// [`crate::UpdateHandle`] episode, which the borrow checker already
    /// guarantees) into a concurrent one maintaining `params`.
    /// [`ClusterSession::share`] is the method form.
    pub(crate) fn from_session(
        mut session: ClusterSession,
        params: DbscanParams,
    ) -> Result<Self, Error> {
        let dim = session.dim();
        session.inner.begin_updates(params)?;
        let mut writer = WriterState {
            session,
            next_generation: 0,
        };
        let first = publish_locked(dim, params, &mut writer)?;
        Ok(ConcurrentSession {
            shared: Arc::new(Shared {
                dim,
                params,
                published: Mutex::new(first),
                writer: Mutex::new(writer),
            }),
        })
    }

    /// Ingests `cloud` and shares it, maintaining `params` — shorthand for
    /// [`ClusterSession::ingest`] + [`ClusterSession::share`].
    pub fn ingest(cloud: PointCloud, params: DbscanParams) -> Result<Self, Error> {
        ClusterSession::ingest(cloud)?.share(params)
    }

    /// Durable [`ConcurrentSession::ingest`]: every writer batch is
    /// write-ahead logged under `options` before it is acknowledged, and
    /// [`ConcurrentSession::checkpoint`] persists the live set.
    pub fn ingest_durable(
        cloud: PointCloud,
        dir: impl AsRef<std::path::Path>,
        options: crate::DurableOptions,
        params: DbscanParams,
    ) -> Result<Self, Error> {
        ClusterSession::ingest_durable(cloud, dir, options)?.share(params)
    }

    /// Reopens the durable store at `dir` (recovering acknowledged batches
    /// from its snapshot + WAL) and shares it. Generation ids restart at 0
    /// on reopen; they order versions within one process lifetime.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        options: crate::DurableOptions,
        params: DbscanParams,
    ) -> Result<Self, Error> {
        ClusterSession::open_durable(dir, options)?.share(params)
    }

    /// The dimensionality of the session's points.
    pub fn dim(&self) -> usize {
        self.shared.dim
    }

    /// The maintained parameters every generation's
    /// [`Generation::labels`] are resolved at.
    pub fn params(&self) -> DbscanParams {
        self.shared.params
    }

    /// The currently published generation. This is the whole read path: an
    /// `Arc` clone under a lock held for a pointer copy, so readers never
    /// wait on index builds or update batches. Hold the returned `Arc` to
    /// pin the version across several reads.
    pub fn current(&self) -> Arc<Generation> {
        lock(&self.shared.published).clone()
    }

    /// Applies one atomic batch through the writer (WAL'd first when the
    /// session is durable) and publishes the resulting generation.
    /// Concurrent updaters serialize; readers are unaffected until the
    /// final pointer swap. On error nothing is applied and the published
    /// generation is unchanged.
    pub fn update(&self, inserts: &PointCloud, deletes: &[usize]) -> Result<UpdateOutcome, Error> {
        if inserts.dim() != self.shared.dim && !inserts.is_empty() {
            return Err(Error::DimensionMismatch {
                expected: self.shared.dim,
                got: inserts.dim(),
            });
        }
        let mut writer = lock(&self.shared.writer);
        let stats = writer.session.inner.apply(inserts.coords(), deletes)?;
        let generation = publish_locked(self.shared.dim, self.shared.params, &mut writer)?;
        let id = generation.id;
        *lock(&self.shared.published) = generation;
        drop(writer);
        Ok(UpdateOutcome {
            generation: id,
            stats,
        })
    }

    /// Re-publishes the writer's current live set as a fresh generation
    /// without applying a batch (useful after a sequence of failed or
    /// external changes; generally [`ConcurrentSession::update`] publishes
    /// for you). Returns the new generation's id.
    pub fn publish(&self) -> Result<u64, Error> {
        let mut writer = lock(&self.shared.writer);
        let generation = publish_locked(self.shared.dim, self.shared.params, &mut writer)?;
        let id = generation.id;
        *lock(&self.shared.published) = generation;
        Ok(id)
    }

    /// Checkpoints a durable session's live set (snapshot + WAL reset), so
    /// the next [`ConcurrentSession::open_durable`] recovers without
    /// replay. A no-op `Ok(())` for non-durable sessions.
    pub fn checkpoint(&self) -> Result<(), Error> {
        lock(&self.shared.writer).session.inner.checkpoint()
    }
}

/// The publish step, under the writer lock: snapshot the live set into an
/// indexed session stamped at the new generation id, resolve the
/// maintained labels, and wrap it all in an [`Arc`]. The caller swaps the
/// result into the published slot.
fn publish_locked(
    dim: usize,
    params: DbscanParams,
    writer: &mut WriterState,
) -> Result<Arc<Generation>, Error> {
    let id = writer.next_generation;
    let span = obs::Span::enter("concurrent", obs::phase::PUBLISH)
        .eps(params.eps)
        .min_pts(params.min_pts)
        .n(writer.session.num_points());
    let generation = {
        let inner = writer.session.inner.publish_indexed(id)?;
        let labels = writer.session.inner.stream_labels();
        // Live coordinates already passed ingest/update validation, so the
        // re-wrap skips the finiteness re-scan.
        let cloud = PointCloud::trusted(dim, writer.session.inner.live_coords());
        Generation {
            id,
            params,
            cloud,
            labels,
            session: ClusterSession::from_parts(dim, inner),
        }
    };
    let elapsed = span.finish();
    writer.next_generation += 1;
    GENERATIONS_PUBLISHED.incr();
    PUBLISH_SECONDS.observe(elapsed);
    Ok(Arc::new(generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_cloud(n: usize) -> PointCloud {
        let coords: Vec<f64> = (0..n).flat_map(|i| [0.1 * i as f64, 0.0]).collect();
        PointCloud::new(2, coords).unwrap()
    }

    #[test]
    fn generations_are_monotonic_and_immutable() {
        let params = DbscanParams::new(0.25, 3);
        let shared = ConcurrentSession::ingest(line_cloud(12), params).unwrap();
        let g0 = shared.current();
        assert_eq!(g0.id(), 0);
        assert_eq!(g0.num_points(), 12);
        assert_eq!(g0.labels().num_clusters(), 1);

        let far = PointCloud::from_rows(&[[40.0, 0.0], [40.1, 0.0], [40.2, 0.0]]).unwrap();
        let o1 = shared.update(&far, &[]).unwrap();
        assert_eq!(o1.generation, 1);
        assert_eq!(o1.stats.inserted_ids.len(), 3);
        let o2 = shared.update(&PointCloud::empty(2).unwrap(), &[0]).unwrap();
        assert_eq!(o2.generation, 2);

        // The pinned generation 0 is untouched by both updates.
        assert_eq!(g0.num_points(), 12);
        assert_eq!(g0.labels().num_clusters(), 1);
        let g2 = shared.current();
        assert_eq!(g2.id(), 2);
        assert_eq!(g2.num_points(), 14);
        assert_eq!(g2.labels().num_clusters(), 2);
    }

    #[test]
    fn generation_labels_match_offline_run_of_its_cloud() {
        let params = DbscanParams::new(0.25, 3);
        let shared = ConcurrentSession::ingest(line_cloud(30), params).unwrap();
        for step in 0..5 {
            let x = 10.0 + step as f64;
            let batch = PointCloud::from_rows(&[[x, 0.0], [x + 0.1, 0.0], [x + 0.2, 0.0]]).unwrap();
            shared.update(&batch, &[step * 2]).unwrap();
            let gen = shared.current();
            let offline = crate::cluster(gen.cloud(), params).unwrap();
            assert_eq!(gen.labels(), &offline, "generation {}", gen.id());
            // The generation's own indexed session agrees too.
            assert_eq!(gen.cluster(params).unwrap(), offline);
        }
    }

    #[test]
    fn queries_on_a_generation_carry_its_stamp() {
        let params = DbscanParams::new(0.25, 3);
        let shared = ConcurrentSession::ingest(line_cloud(10), params).unwrap();
        shared.update(&line_cloud(3), &[]).unwrap();
        shared.update(&line_cloud(3), &[]).unwrap();
        let gen = shared.current();
        assert_eq!(gen.id(), 2);
        let outcome = gen.query(params, VariantConfig::exact()).unwrap();
        assert!(
            outcome.stats.index_generation >= gen.id(),
            "index generation {} should be stamped at or past the published id {}",
            outcome.stats.index_generation,
            gen.id()
        );
    }

    #[test]
    fn failed_updates_publish_nothing() {
        let params = DbscanParams::new(0.25, 3);
        let shared = ConcurrentSession::ingest(line_cloud(8), params).unwrap();
        let wrong_dim = PointCloud::new(3, vec![0.0; 3]).unwrap();
        assert!(matches!(
            shared.update(&wrong_dim, &[]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            shared.update(&PointCloud::empty(2).unwrap(), &[99]),
            Err(Error::UnknownPoint(99))
        ));
        assert_eq!(shared.current().id(), 0, "failed updates publish nothing");
        // The writer stays serviceable after failures.
        assert_eq!(shared.update(&line_cloud(1), &[]).unwrap().generation, 1);
    }

    #[test]
    fn explicit_publish_bumps_the_generation() {
        let params = DbscanParams::new(0.25, 3);
        let shared = ConcurrentSession::ingest(line_cloud(5), params).unwrap();
        assert_eq!(shared.publish().unwrap(), 1);
        assert_eq!(shared.current().id(), 1);
        assert_eq!(shared.current().num_points(), 5);
    }
}
