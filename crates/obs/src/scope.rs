//! Scoped per-operation attribution: [`OpScope`] brackets one `query` /
//! `sweep` / `apply` and yields an [`ExplainReport`] — the EXPLAIN output
//! for that one operation, assembled from the operation's own span,
//! registry deltas, the span ring, the worker-pool profile, and
//! (optionally) allocation counters.
//!
//! The registry itself is process-cumulative; a scope turns it into
//! per-operation numbers by snapshotting at begin and diffing at finish.
//! The caller (the `dbscan` facade) fills in what only it knows: the phase
//! records its operation's stats carry, and the pool busy-time samples
//! (obs stays dependency-free, so it cannot read the pool itself).
//!
//! Limitation, by design: with concurrent operations in one process the
//! counter/alloc deltas attribute *jointly* — everything that advanced
//! during the window lands in the report. Per-session isolation is the
//! serving-layer arc's problem; EXPLAIN makes single-operation attribution
//! exact and concurrent attribution visible.

use crate::alloc::AllocStats;
use crate::metrics::MetricsReport;
use crate::trace::{Span, SpanRecord};
use std::fmt;
use std::time::Duration;

/// How one phase fared inside an operation: how many times it ran, how
/// many times a cache skipped it, and the wall time of the runs. A run's
/// duration is the [`Span::finish`] value of the span that timed it, so
/// the record and the trace carry the same number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseExecution {
    /// Phase name — one of the [`crate::phase`] constants.
    pub phase: &'static str,
    /// Times the phase actually executed within the operation.
    pub runs: usize,
    /// Times a cache hit skipped the phase.
    pub skips: usize,
    /// For cache skips: the index/core generation whose cached artifact
    /// satisfied the phase (so EXPLAIN shows *which* build was reused).
    pub skipped_by_generation: Option<u64>,
    /// Total wall time of the runs (zero when everything was skipped).
    pub duration: Duration,
}

impl PhaseExecution {
    /// A phase that executed once, taking `duration`.
    pub fn ran(phase: &'static str, duration: Duration) -> PhaseExecution {
        PhaseExecution {
            phase,
            runs: 1,
            skips: 0,
            skipped_by_generation: None,
            duration,
        }
    }

    /// The record of a phase that ran under `span`: ends the span and takes
    /// its phase name and [`Span::finish`] duration.
    pub fn finished(span: Span) -> PhaseExecution {
        PhaseExecution::ran(span.rec.phase, span.finish())
    }

    /// A phase skipped by a cache hit on the artifact from `generation`.
    pub fn skipped(phase: &'static str, generation: u64) -> PhaseExecution {
        PhaseExecution {
            phase,
            runs: 0,
            skips: 1,
            skipped_by_generation: Some(generation),
            duration: Duration::ZERO,
        }
    }

    /// `true` if the phase executed at least once.
    pub fn executed(&self) -> bool {
        self.runs > 0
    }

    /// `true` if the phase was only ever cache-skipped.
    pub fn cache_skipped(&self) -> bool {
        self.runs == 0 && self.skips > 0
    }

    /// Folds several operations' phase lists (a sweep's cells) into one
    /// run/skip tally per phase, in first-seen order. Durations add up; a
    /// skipped phase keeps the last generation that skipped it.
    pub fn fold<'a>(lists: impl IntoIterator<Item = &'a [PhaseExecution]>) -> Vec<PhaseExecution> {
        let mut out: Vec<PhaseExecution> = Vec::new();
        for p in lists.into_iter().flatten() {
            let Some(acc) = out.iter_mut().find(|a| a.phase == p.phase) else {
                out.push(p.clone());
                continue;
            };
            acc.runs += p.runs;
            acc.skips += p.skips;
            acc.duration += p.duration;
            acc.skipped_by_generation = p.skipped_by_generation.or(acc.skipped_by_generation);
        }
        out
    }
}

/// Allocation delta over a scoped operation. `profiled` is `false` unless
/// the binary installed `obs::alloc::CountingAllocator` (requires the
/// `alloc-profile` feature), in which case the counts are process-wide
/// mallocs/frees/bytes during the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Whether a counting allocator was active (otherwise counts are 0/0/0).
    pub profiled: bool,
    /// Allocations during the window.
    pub allocations: u64,
    /// Deallocations during the window.
    pub deallocations: u64,
    /// Bytes allocated during the window.
    pub bytes_allocated: u64,
}

/// The EXPLAIN output for one operation. Obtain it from
/// `ClusterSession::explain_last()` (the facade fills the operation-shaped
/// fields) or build one directly with [`OpScope`].
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Operation kind: `"query"`, `"sweep"`, or `"apply"`.
    pub op: &'static str,
    /// Algorithm variant label (queries) or grid summary (sweeps); empty
    /// when not applicable.
    pub variant: String,
    /// The ε the operation ran under, or `NaN` for multi-ε sweeps.
    pub eps: f64,
    /// The minPts the operation ran under, or 0 for multi-minPts sweeps.
    pub min_pts: usize,
    /// Problem size: points queried, grid cells × points swept, or batch
    /// updates applied.
    pub n: usize,
    /// End-to-end wall time of the operation: the [`Span::finish`] value of
    /// the session span the [`OpScope`] owns, so the trace's session span
    /// reads the same number.
    pub wall: Duration,
    /// Per-phase execution/skip accounting, in pipeline order.
    pub phases: Vec<PhaseExecution>,
    /// Grid cells the operation visited (touched cells for `apply`).
    pub cells_visited: usize,
    /// Core points the operation saw (0 when not applicable).
    pub num_core_points: usize,
    /// Every registry counter that advanced during the window, with its
    /// delta. Batched counters (`dbscan_bcp_queries_total` flushes every
    /// 256 per thread) are approximate at the window edges.
    pub counter_deltas: Vec<(String, u64)>,
    /// Worker-pool busy time attributable to the window.
    pub pool_busy: Duration,
    /// Threads available to the operation (pool workers + the caller).
    pub threads: usize,
    /// `(pool_busy + wall) / (wall × threads)` — the fraction of the
    /// machine the operation kept busy (1.0 = perfect scaling,
    /// `1/threads` = fully sequential; the caller thread works alongside
    /// the pool, hence the `+ wall`).
    pub parallel_efficiency: f64,
    /// Allocation delta (see [`AllocDelta::profiled`]).
    pub alloc: AllocDelta,
    /// Spans recorded during the window (empty unless `DBSCAN_OBS=trace`).
    pub spans: Vec<SpanRecord>,
}

impl ExplainReport {
    /// Delta of the counter named `name` during the window (0 if it did not
    /// advance).
    pub fn delta(&self, name: &str) -> u64 {
        self.counter_deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, d)| *d)
    }

    /// Accounting for the phase named `phase`, if the operation involved it.
    pub fn phase(&self, phase: &str) -> Option<&PhaseExecution> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EXPLAIN {}", self.op)?;
        if !self.variant.is_empty() {
            write!(f, " {}", self.variant)?;
        }
        if self.eps.is_finite() {
            write!(f, " eps={}", self.eps)?;
        }
        if self.min_pts > 0 {
            write!(f, " minPts={}", self.min_pts)?;
        }
        writeln!(
            f,
            " n={}: {} wall, {} cells, {} core points",
            self.n,
            fmt_duration(self.wall),
            self.cells_visited,
            self.num_core_points
        )?;
        for p in &self.phases {
            if p.cache_skipped() {
                match p.skipped_by_generation {
                    Some(generation) => writeln!(
                        f,
                        "  {:<16} SKIP ×{} (cached, generation {})",
                        p.phase, p.skips, generation
                    )?,
                    None => writeln!(f, "  {:<16} SKIP ×{} (cached)", p.phase, p.skips)?,
                }
            } else if p.skips > 0 {
                writeln!(
                    f,
                    "  {:<16} RUN ×{} / SKIP ×{}  {}",
                    p.phase,
                    p.runs,
                    p.skips,
                    fmt_duration(p.duration)
                )?;
            } else {
                writeln!(
                    f,
                    "  {:<16} RUN ×{}  {}",
                    p.phase,
                    p.runs,
                    fmt_duration(p.duration)
                )?;
            }
        }
        writeln!(
            f,
            "  pool: {} busy on {} threads -> parallel efficiency {:.2}",
            fmt_duration(self.pool_busy),
            self.threads,
            self.parallel_efficiency
        )?;
        if !self.counter_deltas.is_empty() {
            write!(f, "  counters:")?;
            for (name, delta) in &self.counter_deltas {
                write!(f, " {name} +{delta}")?;
            }
            writeln!(f)?;
        }
        if self.alloc.profiled {
            writeln!(
                f,
                "  alloc: {} allocations, {} frees, {} bytes",
                self.alloc.allocations, self.alloc.deallocations, self.alloc.bytes_allocated
            )?;
        } else {
            writeln!(
                f,
                "  alloc: not profiled (build with --features alloc-profile)"
            )?;
        }
        write!(f, "  spans: {} recorded", self.spans.len())
    }
}

/// Brackets one operation: owns the operation's span, and snapshots the
/// registry, span ring, and allocation counters at [`OpScope::begin`],
/// diffing them at [`OpScope::finish`]. The report's `op`, `eps`,
/// `min_pts` and `n` are the span's, and its `wall` is the span's
/// [`Span::finish`] value: one clock per operation. See the module docs
/// for the attribution caveats.
pub struct OpScope {
    span: Span,
    before: MetricsReport,
    seq_floor: u64,
    pool_busy0_ns: u64,
    alloc0: AllocStats,
    // `alloc0` is sampled last in `begin` and first again in `finish`, so
    // the scope's own snapshot allocations fall outside the alloc window.
}

impl OpScope {
    /// Open a scope around `span`. `pool_busy_ns` is the caller's sample of
    /// the worker pool's cumulative busy nanoseconds (e.g.
    /// `rayon::pool_busy_nanos()`); pass 0 if unavailable. The span's clock
    /// restarts once the scope's snapshots are taken, so they fall outside
    /// the timed window.
    pub fn begin(mut span: Span, pool_busy_ns: u64) -> OpScope {
        let before = crate::snapshot();
        let seq_floor = crate::trace_seq();
        let alloc0 = crate::alloc::stats();
        span.start = Some(std::time::Instant::now());
        OpScope {
            span,
            before,
            seq_floor,
            pool_busy0_ns: pool_busy_ns,
            alloc0,
        }
    }

    /// Close the scope. `pool_busy_ns` is the pool's cumulative busy
    /// nanoseconds *now* (same source as at begin); `threads` is the
    /// parallelism the operation had available (pool workers + the caller).
    pub fn finish(self, pool_busy_ns: u64, threads: usize) -> ExplainReport {
        let rec = self.span.rec.clone();
        let wall = self.span.finish();
        // Alloc first: everything finish itself allocates (snapshot, span
        // clones, the report) stays outside the measured window.
        let alloc1 = crate::alloc::stats();
        let after = crate::snapshot();
        let spans = crate::spans_since(self.seq_floor);
        let counter_deltas = after.counter_deltas(&self.before);
        let alloc_delta = alloc1.since(&self.alloc0);
        let pool_busy = Duration::from_nanos(pool_busy_ns.saturating_sub(self.pool_busy0_ns));
        let threads = threads.max(1);
        let wall_s = wall.as_secs_f64().max(1e-12);
        let parallel_efficiency =
            (pool_busy.as_secs_f64() + wall.as_secs_f64()) / (wall_s * threads as f64);
        ExplainReport {
            op: rec.phase,
            variant: String::new(),
            eps: rec.eps,
            min_pts: rec.min_pts,
            n: rec.n,
            wall,
            phases: Vec::new(),
            cells_visited: 0,
            num_core_points: 0,
            counter_deltas,
            pool_busy,
            threads,
            parallel_efficiency,
            alloc: AllocDelta {
                profiled: crate::alloc::profiling_active(),
                allocations: alloc_delta.allocations,
                deallocations: alloc_delta.deallocations,
                bytes_allocated: alloc_delta.bytes_allocated,
            },
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_diffs_counters_without_bleed() {
        static C: crate::LazyCounter = crate::LazyCounter::new("obs_test_scope_total");
        let scope = OpScope::begin(Span::enter("session", crate::phase::QUERY), 0);
        C.add(5);
        let report = scope.finish(0, 1);
        assert_eq!(report.delta("obs_test_scope_total"), 5);

        // A back-to-back scope must not see the first scope's advances.
        let scope = OpScope::begin(Span::enter("session", crate::phase::QUERY), 0);
        C.add(2);
        let report2 = scope.finish(0, 1);
        assert_eq!(report2.delta("obs_test_scope_total"), 2);
        assert_eq!(report2.op, "query");
    }

    #[test]
    fn efficiency_accounts_for_caller_thread() {
        // `outer` brackets the scope, so it reads at least the scope's wall.
        let outer = std::time::Instant::now();
        let scope = OpScope::begin(Span::enter("session", crate::phase::SWEEP), 1_000);
        std::thread::sleep(Duration::from_millis(2));
        // Pool did 3× the wall in busy time on 4 threads => efficiency ≈ 1.
        let wall_ns = outer.elapsed().as_nanos() as u64;
        let report = scope.finish(1_000 + 3 * wall_ns, 4);
        assert!(report.parallel_efficiency > 0.8 && report.parallel_efficiency <= 1.1);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn fold_tallies_each_phase_in_first_seen_order() {
        let (ms, p) = (Duration::from_millis, crate::phase::PARTITION);
        let first = [PhaseExecution::ran(p, ms(3))];
        let second = [
            PhaseExecution::skipped(p, 7),
            PhaseExecution::ran("x", ms(2)),
        ];
        let folded = PhaseExecution::fold([&first[..], &second[..], &first[..]]);
        let mut want = PhaseExecution::ran(p, ms(6));
        (want.runs, want.skips, want.skipped_by_generation) = (2, 1, Some(7));
        assert_eq!(folded, [want, PhaseExecution::ran("x", ms(2))]);
    }

    #[test]
    fn display_renders_phases_and_skips() {
        let scope = OpScope::begin(Span::enter("session", crate::phase::QUERY), 0);
        let mut report = scope.finish(0, 1);
        report.variant = "our-exact".to_string();
        report.eps = 0.25;
        report.min_pts = 10;
        report.n = 1000;
        report.phases = vec![
            PhaseExecution::skipped(crate::phase::PARTITION, 3),
            PhaseExecution::ran(crate::phase::MARK_CORE, Duration::from_millis(4)),
        ];
        let text = report.to_string();
        assert!(text.contains("EXPLAIN query our-exact eps=0.25 minPts=10"));
        assert!(text.contains("partition"));
        assert!(text.contains("SKIP ×1 (cached, generation 3)"));
        assert!(text.contains("mark_core"));
        assert!(text.contains("RUN ×1"));
        assert!(text.contains("not profiled"));
    }
}
