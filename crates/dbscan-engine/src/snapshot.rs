//! The engine: indexed snapshots, cached phase state, queries and sweeps.

use crate::cache::LruCache;
use crate::stats::{CacheCounters, CacheStats, QueryStats};
use geom::Point;
use pardbscan::pipeline::{CoreSet, SpatialIndex};
use pardbscan::{
    cluster_border, cluster_core, mark_core, CellMethod, ClusterCoreOptions, Clustering,
    DbscanError, DbscanParams, MarkCoreMethod, SweepGrid, VariantConfig,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration for building [`Snapshot`]s: how much reusable phase state
/// each snapshot may cache.
///
/// A spatial index is the expensive phase-1 state for one `(ε, cell
/// method)`; a core set is the phase-2 state for one `(ε, cell method,
/// minPts)`. Both are `Arc`-shared, so capacities trade memory for sweep
/// and repeat-query speed.
#[derive(Debug, Clone)]
pub struct Engine {
    partition_cache_capacity: usize,
    core_cache_capacity: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            partition_cache_capacity: 8,
            core_cache_capacity: 32,
        }
    }
}

impl Engine {
    /// An engine with default cache capacities (8 spatial indexes, 32 core
    /// sets per snapshot).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Sets how many spatial indexes (distinct ε values, roughly) a snapshot
    /// keeps.
    pub fn partition_cache_capacity(mut self, capacity: usize) -> Self {
        self.partition_cache_capacity = capacity.max(1);
        self
    }

    /// Sets how many core sets (distinct `(ε, minPts)` pairs, roughly) a
    /// snapshot keeps.
    pub fn core_cache_capacity(mut self, capacity: usize) -> Self {
        self.core_cache_capacity = capacity.max(1);
        self
    }

    /// Takes ownership of a point set and returns a queryable snapshot.
    ///
    /// Indexing itself is lazy: the first query for each `(ε, cell method)`
    /// builds the corresponding spatial state, which subsequent queries
    /// reuse. The points are immutable for the snapshot's lifetime — for an
    /// updated point set, index a new snapshot.
    pub fn index<const D: usize>(&self, points: Vec<Point<D>>) -> Snapshot<D> {
        self.index_with_prebuilt(points, Vec::new())
    }

    /// [`Engine::index`] seeded with already-built spatial indexes — the
    /// load half of snapshot persistence (`dbscan-durable` reconstructs the
    /// persisted per-ε state and hands it in here, so the first query after
    /// a process restart is a partition-cache hit).
    ///
    /// Each prebuilt entry is `(generation, index)`; entries are inserted in
    /// the given order (least recently used first), entries beyond the
    /// partition-cache capacity evict from the front, and the snapshot's
    /// generation counter resumes past the largest seeded generation so
    /// later builds can never collide with a persisted core-set key.
    pub fn index_with_prebuilt<const D: usize>(
        &self,
        points: Vec<Point<D>>,
        prebuilt: Vec<(u64, SpatialIndex<D>)>,
    ) -> Snapshot<D> {
        self.index_from_generation(points, prebuilt, 0)
    }

    /// [`Engine::index_with_prebuilt`] with an explicit floor for the
    /// snapshot's generation counter — the publish half of generational
    /// concurrency (`dbscan`'s `ConcurrentSession` stamps each published
    /// snapshot's first index generation at the session generation it
    /// belongs to, so a query's reported `index_generation` identifies the
    /// published version that answered it).
    ///
    /// The counter starts at `max(first_generation, max seeded generation
    /// + 1)`; seeded entries keep their own stamps.
    pub fn index_from_generation<const D: usize>(
        &self,
        points: Vec<Point<D>>,
        prebuilt: Vec<(u64, SpatialIndex<D>)>,
        first_generation: u64,
    ) -> Snapshot<D> {
        let mut partitions = LruCache::new(self.partition_cache_capacity);
        let mut next_generation = first_generation;
        for (generation, index) in prebuilt {
            next_generation = next_generation.max(generation + 1);
            let key = IndexKey {
                eps_bits: index.eps.to_bits(),
                cell_method: index.cell_method,
            };
            partitions.insert(key, (generation, Arc::new(index)));
        }
        Snapshot {
            points: Arc::new(points),
            partitions: Mutex::new(partitions),
            cores: Mutex::new(LruCache::new(self.core_cache_capacity)),
            counters: CacheCounters::default(),
            next_generation: AtomicU64::new(next_generation),
        }
    }
}

/// Cache key of a spatial index: ε (exact bits) and the cell method.
#[derive(PartialEq)]
struct IndexKey {
    eps_bits: u64,
    cell_method: CellMethod,
}

/// Cache key of a core set: the *generation* of the spatial index it was
/// computed against, plus minPts. The MarkCore method is deliberately absent
/// — Scan and QuadTree produce identical flags.
///
/// Keying on the index generation (not on ε) matters for correctness: a
/// `CoreSet`'s per-cell lists are positional in the index's cell order, and
/// the semisort used by the grid construction does not promise a
/// reproducible cell order across rebuilds. If an index is evicted and later
/// rebuilt for the same ε, its generation changes and stale core sets can
/// never be misapplied to it.
#[derive(PartialEq)]
struct CoreKey {
    index_generation: u64,
    min_pts: usize,
}

/// An immutable, indexed point set answering DBSCAN queries with snapshot
/// reuse: phases of Algorithm 1 whose inputs a query does not change are
/// served from per-snapshot caches. See the crate docs for the reuse rules.
pub struct Snapshot<const D: usize> {
    points: Arc<Vec<Point<D>>>,
    partitions: Mutex<LruCache<IndexKey, (u64, Arc<SpatialIndex<D>>)>>,
    cores: Mutex<LruCache<CoreKey, Arc<CoreSet<D>>>>,
    counters: CacheCounters,
    /// Generation stamp handed to each freshly built spatial index; ties
    /// cached core sets to the exact index instance they describe.
    next_generation: AtomicU64,
}

/// A clustering plus the [`QueryStats`] describing how it was produced.
pub struct QueryResult {
    /// The clustering — for exact variants, label-identical to a one-shot
    /// run (ρ-approximate clusterings are legitimately non-unique; see the
    /// crate docs).
    pub clustering: Clustering,
    /// Phase timings and cache-reuse flags of this query.
    pub stats: QueryStats,
}

/// One cell of a [`Snapshot::sweep`] result grid.
///
/// The grids are **deduplicated before dispatch**: repeated ε entries (by
/// exact bit pattern) and repeated minPts entries each produce a single
/// column/row, so the result covers the *distinct* cross-product and no
/// duplicate parameter pair is clustered twice.
pub struct SweepCell {
    /// The ε of this grid cell.
    pub eps: f64,
    /// The minPts of this grid cell.
    pub min_pts: usize,
    /// The clustering for `(eps, min_pts)`.
    pub clustering: Clustering,
    /// Stats of this grid cell's query. The spatial-index build time of each
    /// ε is attributed to that ε's first grid cell.
    pub stats: QueryStats,
}

impl<const D: usize> Snapshot<D> {
    /// The indexed points, in input order.
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Consumes the snapshot and returns its points, in input order. The
    /// bulk array is recovered without copying when no query result still
    /// shares it.
    pub fn into_points(self) -> Vec<Point<D>> {
        Arc::try_unwrap(self.points).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The cached spatial index for `(eps, cell_method)`, if this snapshot
    /// currently holds one. Refreshes the entry's LRU recency but does not
    /// touch the hit/miss counters (it is a peek, not a logical query) and
    /// never builds anything. `dbscan-stream` uses this to seed a streaming
    /// clusterer from already-indexed phase-1 state instead of
    /// re-partitioning.
    pub fn cached_index(&self, eps: f64, cell_method: CellMethod) -> Option<Arc<SpatialIndex<D>>> {
        let key = IndexKey {
            eps_bits: eps.to_bits(),
            cell_method,
        };
        lock(&self.partitions).get(&key).map(|(_, index)| index)
    }

    /// Every cached spatial index as `(generation, index)`, least recently
    /// used first, without refreshing recency or touching the hit/miss
    /// counters. This is the persist half of snapshot durability: feeding
    /// the entries back to [`Engine::index_with_prebuilt`] in this order
    /// reproduces the cache's eviction order.
    pub fn cached_indexes(&self) -> Vec<(u64, Arc<SpatialIndex<D>>)> {
        lock(&self.partitions)
            .iter()
            .map(|(_, (generation, index))| (*generation, Arc::clone(index)))
            .collect()
    }

    /// Runs the paper's default exact variant (`our-exact`) for `params`,
    /// reusing cached phase state where possible. Accepts anything
    /// convertible into [`DbscanParams`], including an `(eps, min_pts)`
    /// tuple.
    pub fn query(&self, params: impl Into<DbscanParams>) -> Result<QueryResult, DbscanError> {
        self.query_variant(params.into(), VariantConfig::exact())
    }

    /// Runs an explicit algorithm variant for `params`.
    ///
    /// Reuse rules: the spatial index is shared by every query with this
    /// `(ε, cell method)`; the core set by every query that also shares
    /// minPts (the MarkCore *method* does not affect the flags, so it is not
    /// part of the key); ClusterCore and ClusterBorder always run.
    pub fn query_variant(
        &self,
        params: DbscanParams,
        variant: VariantConfig,
    ) -> Result<QueryResult, DbscanError> {
        params.validate()?;
        variant.validate_for_dimension(D)?;
        let _span = obs::Span::enter("engine", obs::phase::QUERY)
            .eps(params.eps)
            .min_pts(params.min_pts)
            .n(self.num_points());
        let start = Instant::now();
        let (index, generation, partition_hit, partition_time) =
            self.index_for(params.eps, variant.cell_method)?;
        let (core, core_hit, mark_core_time) =
            self.core_for(&index, generation, params.min_pts, variant.mark_core);
        let (clustering, cluster_core_time, cluster_border_time) =
            run_cluster_phases(&index, &core, &variant);
        QUERY_SECONDS.observe(start.elapsed());
        let stats = QueryStats {
            eps: params.eps,
            min_pts: params.min_pts,
            variant: variant.paper_name(),
            partition_cache_hit: partition_hit,
            core_cache_hit: core_hit,
            partition_time,
            mark_core_time,
            cluster_core_time,
            cluster_border_time,
            total_time: start.elapsed(),
            num_cells: index.num_cells(),
            num_core_points: core.num_core_points(),
            index_generation: generation,
        };
        Ok(QueryResult { clustering, stats })
    }

    /// Runs a [`SweepGrid`] — the full `ε-grid × minPts-grid`
    /// cross-product under the grid's variant. Accepts anything convertible
    /// into a grid, e.g. a tuple of slices or arrays; see
    /// [`Snapshot::sweep_variant`] for the slice-level form and the reuse
    /// rules.
    pub fn sweep(&self, grid: impl Into<SweepGrid>) -> Result<Vec<SweepCell>, DbscanError> {
        let grid = grid.into();
        self.sweep_variant(&grid.eps, &grid.min_pts, grid.variant)
    }

    /// Runs `variant` over the full `ε-grid × minPts-grid` cross-product in
    /// parallel, returning the grid in row-major order (ε outer, minPts
    /// inner).
    ///
    /// Each ε's spatial index is built (or fetched) once and shared across
    /// all of that ε's minPts values, so a sweep over `E × M` parameters
    /// performs at most `E` partition builds instead of `E × M`. Repeated
    /// grid entries are deduplicated (first occurrence wins the ordering)
    /// before anything is dispatched, so a sloppy caller-supplied grid never
    /// clusters the same `(ε, minPts)` pair twice — see [`SweepCell`]. Cache
    /// counters are kept per logical query: the cells that share a column's
    /// index count as partition hits, so [`Snapshot::cache_stats`] reads as
    /// "builds vs. queries" after a sweep.
    pub fn sweep_variant(
        &self,
        eps_grid: &[f64],
        min_pts_grid: &[usize],
        variant: VariantConfig,
    ) -> Result<Vec<SweepCell>, DbscanError> {
        // Validate the whole grid up front so a late failure cannot waste
        // the earlier columns' work.
        variant.validate_for_dimension(D)?;
        for &eps in eps_grid {
            for &min_pts in min_pts_grid {
                DbscanParams::new(eps, min_pts).validate()?;
            }
        }
        // Deduplicate repeated grid entries (ε by exact bit pattern),
        // preserving first-occurrence order.
        let mut seen_eps = Vec::new();
        let eps_grid: Vec<f64> = eps_grid
            .iter()
            .copied()
            .filter(|eps| {
                let bits = eps.to_bits();
                !seen_eps.contains(&bits) && {
                    seen_eps.push(bits);
                    true
                }
            })
            .collect();
        let mut seen_min_pts = Vec::new();
        let min_pts_grid: Vec<usize> = min_pts_grid
            .iter()
            .copied()
            .filter(|m| {
                !seen_min_pts.contains(m) && {
                    seen_min_pts.push(*m);
                    true
                }
            })
            .collect();
        let (eps_grid, min_pts_grid) = (&eps_grid[..], &min_pts_grid[..]);
        if eps_grid.is_empty() || min_pts_grid.is_empty() {
            // Zero queries: don't build indexes for columns nothing will use.
            return Ok(Vec::new());
        }
        let _span =
            obs::Span::enter("engine", obs::phase::SWEEP).n(eps_grid.len() * min_pts_grid.len());
        let columns: Vec<Result<Vec<SweepCell>, DbscanError>> = eps_grid
            .par_iter()
            .map(|&eps| {
                let (index, generation, partition_hit, partition_time) =
                    self.index_for(eps, variant.cell_method)?;
                let cells: Vec<SweepCell> = min_pts_grid
                    .par_iter()
                    .enumerate()
                    .map(|(i, &min_pts)| {
                        let start = Instant::now();
                        if i > 0 {
                            // Cells after the column's first reuse its index:
                            // count them as partition hits so the counters
                            // track logical queries, not cache lookups.
                            self.counters.record_partition(true);
                        }
                        let (core, core_hit, mark_core_time) =
                            self.core_for(&index, generation, min_pts, variant.mark_core);
                        let (clustering, cluster_core_time, cluster_border_time) =
                            run_cluster_phases(&index, &core, &variant);
                        let stats = QueryStats {
                            eps,
                            min_pts,
                            variant: variant.paper_name(),
                            // Cells after the ε's first share the index that
                            // cell fetched or built, so reuse is reported
                            // from their perspective.
                            partition_cache_hit: if i == 0 { partition_hit } else { true },
                            core_cache_hit: core_hit,
                            // The shared index build is attributed to the
                            // ε's first grid cell.
                            partition_time: if i == 0 {
                                partition_time
                            } else {
                                Duration::ZERO
                            },
                            mark_core_time,
                            cluster_core_time,
                            cluster_border_time,
                            // The ε's first cell also absorbed the shared
                            // index build (it happened before this cell's
                            // timer started), so total_time must cover it —
                            // phase times never exceed the total.
                            total_time: start.elapsed()
                                + if i == 0 {
                                    partition_time
                                } else {
                                    Duration::ZERO
                                },
                            num_cells: index.num_cells(),
                            num_core_points: core.num_core_points(),
                            index_generation: generation,
                        };
                        SweepCell {
                            eps,
                            min_pts,
                            clustering,
                            stats,
                        }
                    })
                    .collect();
                Ok(cells)
            })
            .collect();
        let mut grid = Vec::with_capacity(eps_grid.len() * min_pts_grid.len());
        for column in columns {
            grid.extend(column?);
        }
        Ok(grid)
    }

    /// Cumulative cache counters since the snapshot was created.
    /// `partition_misses` equals the number of partition builds performed.
    pub fn cache_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Number of live entries in the core-set cache (test instrumentation).
    #[cfg(test)]
    fn core_cache_len(&self) -> usize {
        lock(&self.cores).len()
    }

    /// Fetches or builds the spatial index for `(eps, cell_method)`.
    /// Returns `(index, generation, was_cache_hit, build_time)`.
    fn index_for(
        &self,
        eps: f64,
        cell_method: CellMethod,
    ) -> Result<(Arc<SpatialIndex<D>>, u64, bool, Duration), DbscanError> {
        let key = IndexKey {
            eps_bits: eps.to_bits(),
            cell_method,
        };
        if let Some((generation, index)) = lock(&self.partitions).get(&key) {
            self.counters.record_partition(true);
            return Ok((index, generation, true, Duration::ZERO));
        }
        // Build outside the cache lock: a concurrent query for a *different*
        // ε must not serialize behind this build. Two concurrent misses on
        // the same ε may both build; the insert below is idempotent and each
        // build gets its own generation, so core sets never cross instances.
        let start = Instant::now();
        let index = Arc::new(SpatialIndex::build(&self.points, eps, cell_method)?);
        let build_time = start.elapsed();
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        {
            let mut partitions = lock(&self.partitions);
            let displaced = partitions.insert(key, (generation, Arc::clone(&index)));
            if let Some((_, (dead_generation, _))) = displaced {
                // Core sets of a displaced index can never be looked up
                // again (their generation left the partition cache), so drop
                // them rather than let dataset-sized dead state crowd out
                // live entries. The partitions lock is held across the prune
                // (same order as core_for: partitions, then cores) so
                // concurrent core_for inserts cannot interleave.
                lock(&self.cores).remove_matching(|k| k.index_generation == dead_generation);
            }
        }
        self.counters.record_partition(false);
        Ok((index, generation, false, build_time))
    }

    /// Fetches or builds the core set for `(index generation, min_pts)`.
    /// Returns `(core, was_cache_hit, mark_core_time)`.
    fn core_for(
        &self,
        index: &Arc<SpatialIndex<D>>,
        generation: u64,
        min_pts: usize,
        method: MarkCoreMethod,
    ) -> (Arc<CoreSet<D>>, bool, Duration) {
        let key = CoreKey {
            index_generation: generation,
            min_pts,
        };
        if let Some(core) = lock(&self.cores).get(&key) {
            self.counters.record_core(true);
            return (core, true, Duration::ZERO);
        }
        let start = Instant::now();
        let core = Arc::new(mark_core(index, min_pts, method));
        let elapsed = start.elapsed();
        {
            // Insert only while this generation is still in the partition
            // cache, holding the partitions lock (same order as index_for:
            // partitions, then cores) so a concurrent displacement cannot
            // slip a dead-generation core set past its pruning.
            let partitions = lock(&self.partitions);
            if partitions.any(|_, (live_generation, _)| *live_generation == generation) {
                lock(&self.cores).insert(key, Arc::clone(&core));
            }
        }
        self.counters.record_core(false);
        (core, false, elapsed)
    }
}

/// End-to-end duration histogram of [`Snapshot::query_variant`] calls
/// (`dbscan_query_duration_seconds`).
static QUERY_SECONDS: obs::LazyHistogram = obs::LazyHistogram::new("dbscan_query_duration_seconds");

/// Runs phases 3–4 (always computed) and canonicalizes the result.
fn run_cluster_phases<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    variant: &VariantConfig,
) -> (Clustering, Duration, Duration) {
    let options = ClusterCoreOptions::from_variant(variant);
    let start = Instant::now();
    let core_clusters = cluster_core(index, core, &options);
    let cluster_core_time = start.elapsed();
    let start = Instant::now();
    let cluster_sets = cluster_border(index, core, &core_clusters);
    let clustering = Clustering::from_sets(core.core_flags.clone(), cluster_sets);
    let cluster_border_time = start.elapsed();
    (clustering, cluster_core_time, cluster_border_time)
}

/// Locks ignoring poisoning (a panicked query must not wedge the snapshot).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point2;
    use rand::prelude::*;

    fn random_points(n: usize, extent: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn query_matches_oneshot_and_reuses_partition() {
        let pts = random_points(600, 25.0, 1);
        let snapshot = Engine::new().index(pts.clone());

        let a = snapshot.query(DbscanParams::new(1.5, 5)).unwrap();
        let oneshot = pardbscan::dbscan(&pts, 1.5, 5).unwrap();
        assert_eq!(a.clustering, oneshot);
        assert!(!a.stats.partition_cache_hit);
        assert!(!a.stats.core_cache_hit);

        // Same eps, different minPts: partition reused, MarkCore re-runs.
        let b = snapshot.query(DbscanParams::new(1.5, 8)).unwrap();
        assert!(b.stats.partition_cache_hit);
        assert!(!b.stats.core_cache_hit);
        assert_eq!(b.clustering, pardbscan::dbscan(&pts, 1.5, 8).unwrap());

        // Same (eps, minPts), different cell-graph method: core set reused.
        let c = snapshot
            .query_variant(DbscanParams::new(1.5, 8), VariantConfig::exact_qt())
            .unwrap();
        assert!(c.stats.partition_cache_hit);
        assert!(c.stats.core_cache_hit);
        assert_eq!(c.clustering, b.clustering);

        assert_eq!(
            snapshot.cache_stats(),
            CacheStats {
                partition_hits: 2,
                partition_misses: 1,
                core_hits: 1,
                core_misses: 2,
            }
        );
    }

    #[test]
    fn sweep_builds_each_partition_once() {
        let pts = random_points(500, 20.0, 2);
        let snapshot = Engine::new().index(pts.clone());
        let eps_grid = [0.8, 1.2, 1.6, 2.0, 2.4];
        let min_pts_grid = [4, 9];
        let grid = snapshot.sweep((&eps_grid, &min_pts_grid)).unwrap();
        assert_eq!(grid.len(), 10);

        // Row-major order and label identity with one-shot runs.
        for (k, cell) in grid.iter().enumerate() {
            assert_eq!(cell.eps, eps_grid[k / 2]);
            assert_eq!(cell.min_pts, min_pts_grid[k % 2]);
            let oneshot = pardbscan::dbscan(&pts, cell.eps, cell.min_pts).unwrap();
            assert_eq!(
                cell.clustering, oneshot,
                "eps={} minPts={}",
                cell.eps, cell.min_pts
            );
        }

        // 10 queries, strictly fewer partition builds than one-shot's 10.
        let stats = snapshot.cache_stats();
        assert_eq!(stats.partition_misses, eps_grid.len());
        assert!(stats.partition_misses < grid.len());
        assert_eq!(stats.partition_hits + stats.partition_misses, grid.len());
        assert_eq!(stats.core_misses, grid.len());
    }

    #[test]
    fn approximate_and_2d_variants_run_through_the_engine() {
        let pts = random_points(400, 15.0, 3);
        let snapshot = Engine::new().index(pts.clone());
        for variant in [
            VariantConfig::two_d(CellMethod::Box, pardbscan::CellGraphMethod::Usec),
            VariantConfig::two_d(CellMethod::Grid, pardbscan::CellGraphMethod::Delaunay),
        ] {
            let got = snapshot
                .query_variant(DbscanParams::new(1.0, 5), variant)
                .unwrap();
            let want = pardbscan::Dbscan::new(&pts, DbscanParams::new(1.0, 5))
                .variant(variant)
                .run()
                .unwrap();
            assert_eq!(got.clustering, want, "{}", variant.paper_name());
        }
        // The ρ-approximate clustering is legitimately non-reproducible
        // across independently built partitions (cell order decides which
        // (ε, ε(1+ρ)] edges are kept), so only the exact parts of its
        // output are compared.
        let got = snapshot
            .query_variant(DbscanParams::new(1.0, 5), VariantConfig::approx(0.05))
            .unwrap();
        let want = pardbscan::Dbscan::new(&pts, DbscanParams::new(1.0, 5))
            .variant(VariantConfig::approx(0.05))
            .run()
            .unwrap();
        assert_eq!(got.clustering.core_flags(), want.core_flags());
    }

    #[test]
    fn rejects_invalid_parameters_and_dimension_mismatches() {
        let snapshot = Engine::new().index(random_points(10, 5.0, 4));
        assert!(snapshot.query(DbscanParams::new(0.0, 5)).is_err());
        assert!(snapshot.query(DbscanParams::new(1.0, 0)).is_err());
        assert!(snapshot
            .query_variant(DbscanParams::new(1.0, 5), VariantConfig::approx(-1.0))
            .is_err());
        let snapshot3 = Engine::new().index(vec![geom::Point::new([0.0, 0.0, 0.0])]);
        assert!(matches!(
            snapshot3.query_variant(
                DbscanParams::new(1.0, 1),
                VariantConfig::two_d(CellMethod::Box, pardbscan::CellGraphMethod::Bcp),
            ),
            Err(DbscanError::RequiresTwoDimensions(_))
        ));
        // An invalid grid fails before any work.
        assert!(snapshot.sweep(([1.0, -1.0], [3])).is_err());
        assert_eq!(snapshot.cache_stats().partition_misses, 0);
    }

    #[test]
    fn lru_eviction_forces_rebuild() {
        let pts = random_points(200, 10.0, 5);
        let snapshot = Engine::new().partition_cache_capacity(1).index(pts);
        snapshot.query(DbscanParams::new(1.0, 4)).unwrap();
        snapshot.query(DbscanParams::new(2.0, 4)).unwrap(); // evicts eps=1.0
        let again = snapshot.query(DbscanParams::new(1.0, 4)).unwrap();
        assert!(!again.stats.partition_cache_hit);
        assert_eq!(snapshot.cache_stats().partition_misses, 3);
    }

    #[test]
    fn evicting_an_index_prunes_its_core_sets() {
        let pts = random_points(300, 12.0, 6);
        let snapshot = Engine::new().partition_cache_capacity(1).index(pts);
        // Two minPts against eps=1.0 → two core sets for generation 0.
        snapshot.query(DbscanParams::new(1.0, 3)).unwrap();
        snapshot.query(DbscanParams::new(1.0, 6)).unwrap();
        assert_eq!(snapshot.core_cache_len(), 2);
        // eps=2.0 evicts the eps=1.0 index; its core sets are unreachable
        // (generation-keyed) and must be dropped with it.
        snapshot.query(DbscanParams::new(2.0, 3)).unwrap();
        assert_eq!(snapshot.core_cache_len(), 1);
        // The evicted state is gone, so the same query rebuilds both phases.
        let redo = snapshot.query(DbscanParams::new(1.0, 3)).unwrap();
        assert!(!redo.stats.partition_cache_hit);
        assert!(!redo.stats.core_cache_hit);
    }

    #[test]
    fn sweep_deduplicates_repeated_grid_entries() {
        let pts = random_points(300, 15.0, 7);
        let snapshot = Engine::new().index(pts.clone());
        // Three distinct eps (one repeated twice), two distinct minPts (one
        // repeated): the sweep must cover the 3 × 2 distinct cross-product.
        let grid = snapshot.sweep(([1.0, 1.5, 1.0, 2.0], [4, 4, 8])).unwrap();
        assert_eq!(grid.len(), 6, "duplicates are merged before dispatch");
        let stats = snapshot.cache_stats();
        assert_eq!(stats.partition_misses, 3, "one build per distinct eps");
        assert_eq!(
            stats.partition_hits + stats.partition_misses,
            6,
            "six logical queries, not eight"
        );
        for (k, cell) in grid.iter().enumerate() {
            assert_eq!(cell.eps, [1.0, 1.5, 2.0][k / 2]);
            assert_eq!(cell.min_pts, [4, 8][k % 2]);
        }
    }

    #[test]
    fn into_points_and_cached_index_round_trip() {
        let pts = random_points(120, 8.0, 8);
        let snapshot = Engine::new().index(pts.clone());
        assert!(snapshot.cached_index(1.0, CellMethod::Grid).is_none());
        snapshot.query(DbscanParams::new(1.0, 4)).unwrap();
        let index = snapshot.cached_index(1.0, CellMethod::Grid).unwrap();
        assert_eq!(index.num_points(), pts.len());
        assert!(snapshot.cached_index(2.0, CellMethod::Grid).is_none());
        assert_eq!(snapshot.into_points(), pts);
    }

    #[test]
    fn empty_point_set() {
        let snapshot = Engine::new().index(Vec::<Point2>::new());
        let result = snapshot.query(DbscanParams::new(1.0, 3)).unwrap();
        assert!(result.clustering.is_empty());
        assert_eq!(result.stats.num_cells, 0);
    }
}
