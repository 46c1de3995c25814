//! Per-query and per-snapshot observability.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Timing and reuse statistics of one [`crate::Snapshot::query`] call.
///
/// `phases` lists the query's phases in Algorithm 1 order — partition
/// (cells + neighbour lists), MarkCore, ClusterCore, ClusterBorder, then
/// canonicalization. A phase that ran carries the duration of the `core`
/// span that timed it; a phase served from cache is recorded as skipped by
/// the reused index generation, matching the corresponding `*_cache_hit`
/// flag. EXPLAIN reports the same list.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The ε of the query.
    pub eps: f64,
    /// The minPts of the query.
    pub min_pts: usize,
    /// Paper name of the variant that ran (e.g. `"our-exact"`,
    /// `"our-exact-qt"`, `"our-approx"`), so traces and stats distinguish
    /// exact from approximate runs.
    pub variant: String,
    /// Whether phase 1 was served from the snapshot's partition cache.
    pub partition_cache_hit: bool,
    /// Whether phase 2 was served from the snapshot's core-set cache.
    pub core_cache_hit: bool,
    /// One record per phase, in pipeline order: run with its span's
    /// duration, or skipped by a cache hit.
    pub phases: Vec<obs::PhaseExecution>,
    /// End-to-end wall time of the query: the `engine`/`query` span's
    /// duration (for a sweep's first cell per ε, plus the shared index
    /// build it reports as its partition phase).
    pub total_time: Duration,
    /// Number of non-empty ε-cells in the partition used.
    pub num_cells: usize,
    /// Number of core points found.
    pub num_core_points: usize,
    /// Generation number of the spatial index the query used — on a
    /// partition cache hit, the build this query reused; on a miss, the
    /// build this query performed. EXPLAIN reports it as the generation
    /// that skipped the phase.
    pub index_generation: u64,
}

impl std::fmt::Display for QueryStats {
    /// One-line human summary: variant, parameters, cache outcomes, and
    /// per-phase timings (cached phases print `hit` instead of a duration).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| format!("{:.2}ms", d.as_secs_f64() * 1e3);
        let phases: Vec<String> = (self.phases.iter())
            .map(|p| match p.executed() {
                true => format!("{} {}", p.phase, ms(p.duration)),
                false => format!("{} hit", p.phase),
            })
            .collect();
        write!(
            f,
            "{} eps={} minPts={}: {} total ({}), {} cells, {} core, index gen {}",
            self.variant,
            self.eps,
            self.min_pts,
            ms(self.total_time),
            phases.join(", "),
            self.num_cells,
            self.num_core_points,
            self.index_generation,
        )
    }
}

/// Cumulative cache counters of a [`crate::Snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries whose spatial index was served from cache.
    pub partition_hits: usize,
    /// Queries that had to build a spatial index (== partition builds).
    pub partition_misses: usize,
    /// Queries whose core set was served from cache.
    pub core_hits: usize,
    /// Queries that had to run MarkCore.
    pub core_misses: usize,
}

impl CacheStats {
    /// Fraction of queries that reused a cached spatial index (0 when no
    /// queries ran).
    pub fn partition_hit_rate(&self) -> f64 {
        rate(self.partition_hits, self.partition_misses)
    }

    /// Fraction of queries that reused a cached core set.
    pub fn core_hit_rate(&self) -> f64 {
        rate(self.core_hits, self.core_misses)
    }
}

fn rate(hits: usize, misses: usize) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Process-wide registry mirrors of the cache counters. [`CacheStats`] is a
/// per-snapshot view; these accumulate the same events across every snapshot
/// for the life of the process. `CacheCounters::record_*` below is the
/// single write path for both, so the two can never drift.
static PARTITION_HITS: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_partition_cache_hits_total");
static PARTITION_MISSES: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_partition_cache_misses_total");
static CORE_HITS: obs::LazyCounter = obs::LazyCounter::new("dbscan_core_cache_hits_total");
static CORE_MISSES: obs::LazyCounter = obs::LazyCounter::new("dbscan_core_cache_misses_total");

/// Thread-safe counter block backing [`CacheStats`].
#[derive(Default)]
pub(crate) struct CacheCounters {
    partition_hits: AtomicUsize,
    partition_misses: AtomicUsize,
    core_hits: AtomicUsize,
    core_misses: AtomicUsize,
}

impl CacheCounters {
    pub(crate) fn record_partition(&self, hit: bool) {
        if hit {
            self.partition_hits.fetch_add(1, Ordering::Relaxed);
            PARTITION_HITS.incr();
        } else {
            self.partition_misses.fetch_add(1, Ordering::Relaxed);
            PARTITION_MISSES.incr();
        }
    }

    pub(crate) fn record_core(&self, hit: bool) {
        if hit {
            self.core_hits.fetch_add(1, Ordering::Relaxed);
            CORE_HITS.incr();
        } else {
            self.core_misses.fetch_add(1, Ordering::Relaxed);
            CORE_MISSES.incr();
        }
    }

    pub(crate) fn snapshot(&self) -> CacheStats {
        CacheStats {
            partition_hits: self.partition_hits.load(Ordering::Relaxed),
            partition_misses: self.partition_misses.load(Ordering::Relaxed),
            core_hits: self.core_hits.load(Ordering::Relaxed),
            core_misses: self.core_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let counters = CacheCounters::default();
        counters.record_partition(false);
        counters.record_partition(true);
        counters.record_partition(true);
        counters.record_core(false);
        let stats = counters.snapshot();
        assert_eq!(stats.partition_hits, 2);
        assert_eq!(stats.partition_misses, 1);
        assert!((stats.partition_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.core_hit_rate(), 0.0);
        assert_eq!(CacheStats::default().partition_hit_rate(), 0.0);
    }
}
