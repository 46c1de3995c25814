//! Invariant tests for `DBSCAN_OBS=trace`: each phase is timed once, so
//! stats, EXPLAIN and the trace report the same duration for it, a sweep's
//! EXPLAIN and its span agree on `n`, and the registry's cache counters
//! stay in lock-step with the engine's per-snapshot `CacheStats`.
//!
//! Own-process integration binary (same pattern as `force_scalar.rs`): the
//! mode is read once per process, so the variable must be set before the
//! first instrumented call. Keep this file single-test.

use dbscan::{ClusterSession, DurableOptions, Params, PointCloud, VariantConfig};
use std::time::Duration;

/// Each phase `phases` reports as run, and each `(path, duration)` of
/// `totals`, has exactly one span of that name (or path) in `window`, whose
/// duration is bit-identical to the reported one.
fn timed_once(
    window: &[obs::SpanRecord],
    phases: &[obs::PhaseExecution],
    totals: [(&str, Duration); 2],
) {
    let ran = phases.iter().filter(|p| p.executed());
    for (name, reported) in ran.map(|p| (p.phase, p.duration)).chain(totals) {
        let durations: Vec<Duration> = window
            .iter()
            .filter(|s| s.phase == name || s.path == name)
            .map(|s| s.duration)
            .collect();
        assert_eq!(durations, [reported], "{name} is timed once");
    }
}

#[test]
fn trace_spans_and_registry_agree_with_query_stats() {
    std::env::set_var("DBSCAN_OBS", "trace");
    assert_eq!(obs::mode(), obs::ObsMode::Trace);

    let rows: Vec<[f64; 2]> = (0..500)
        .map(|i| [0.05 * (i % 100) as f64, 0.02 * (i / 100) as f64])
        .collect();
    let session = ClusterSession::ingest(PointCloud::from_rows(&rows).unwrap()).unwrap();
    let params = Params::new(0.2, 3);

    // --- Invariant 1: a fresh query times each of its five phases once.
    // Stats, EXPLAIN and the trace carry the same records and durations,
    // the engine span is the query's total_time, and the session span is
    // EXPLAIN's wall.
    let _ = session.take_trace(); // start from an empty ring
    let query_report_before = session.metrics();
    let outcome = session.query(params, VariantConfig::exact()).unwrap();
    let query_report_after = session.metrics();
    assert_eq!(outcome.stats.variant, "our-exact");
    let trace = session.take_trace();
    let (stats, explain) = (&outcome.stats, session.explain_last().unwrap());
    assert_eq!(stats.phases, explain.phases);
    let phase_names = [
        obs::phase::PARTITION,
        obs::phase::MARK_CORE,
        obs::phase::CLUSTER_CORE,
        obs::phase::CLUSTER_BORDER,
        obs::phase::CANONICALIZE,
    ];
    let ran: Vec<&str> = stats.phases.iter().map(|p| p.phase).collect();
    assert_eq!(ran, phase_names);
    assert!(
        stats.phases.iter().all(|p| p.executed()),
        "a fresh-ε query runs every phase"
    );
    let totals = [("session", explain.wall), ("engine", stats.total_time)];
    timed_once(&trace, &stats.phases, totals);
    for span in trace.iter().filter(|s| s.path == "core") {
        assert!(
            phase_names.contains(&span.phase)
                || span.phase == obs::phase::MARK_CORE_REGION
                || span.phase == obs::phase::CONNECT_REGION,
            "unexpected core phase {:?}",
            span.phase
        );
    }
    let phase_sum: Duration = stats.phases.iter().map(|p| p.duration).sum();
    assert!(
        phase_sum <= stats.total_time,
        "the phases nest in the query"
    );

    // --- Invariant 2: after a scripted sweep, the registry's cache-counter
    // deltas equal the per-snapshot CacheStats deltas (single write path),
    // and EXPLAIN's n is the session sweep span's.
    let before_report = session.metrics();
    let before_stats = session.cache_stats();
    let _ = session.take_trace();
    let grid = session.sweep(([0.2, 0.3], [3, 5])).unwrap();
    assert_eq!(grid.len(), 4);
    let trace = session.take_trace();
    let after_report = session.metrics();
    let after_stats = session.cache_stats();
    let sweep_spans: Vec<usize> = trace
        .iter()
        .filter(|s| s.path == "session" && s.phase == obs::phase::SWEEP)
        .map(|s| s.n)
        .collect();
    assert_eq!(sweep_spans, [session.explain_last().unwrap().n]);
    assert_eq!(sweep_spans, [rows.len() * grid.len()]);

    let registry_delta = |name: &str| -> usize {
        (after_report.counter(name).unwrap_or(0) - before_report.counter(name).unwrap_or(0))
            as usize
    };
    assert_eq!(
        registry_delta("dbscan_partition_cache_hits_total"),
        after_stats.partition_hits - before_stats.partition_hits
    );
    assert_eq!(
        registry_delta("dbscan_partition_cache_misses_total"),
        after_stats.partition_misses - before_stats.partition_misses
    );
    assert_eq!(
        registry_delta("dbscan_core_cache_hits_total"),
        after_stats.core_hits - before_stats.core_hits
    );
    assert_eq!(
        registry_delta("dbscan_core_cache_misses_total"),
        after_stats.core_misses - before_stats.core_misses
    );

    // The query-duration histogram counted the one-shot query above exactly
    // once. (Sweeps dispatch cells through their own batched path, so they
    // do not observe this histogram — only `query_variant` calls do.)
    let before_count = query_report_before
        .histogram("dbscan_query_duration_seconds")
        .map(|h| h.count)
        .unwrap_or(0);
    let after_count = query_report_after
        .histogram("dbscan_query_duration_seconds")
        .map(|h| h.count)
        .unwrap_or(0);
    assert_eq!(after_count - before_count, 1);

    // --- Invariant 3: a durable streaming apply reports the WAL's own
    // spans, and stats, EXPLAIN and trace agree on every phase.
    let dir = std::env::temp_dir().join(format!("obs_trace_durable_{}", std::process::id()));
    let mut durable = ClusterSession::ingest_durable(
        PointCloud::from_rows(&rows).unwrap(),
        &dir,
        DurableOptions::default(),
    )
    .unwrap();
    let mut updates = durable.updates(params).unwrap();
    let _ = obs::take_trace();
    let inserts = PointCloud::from_rows(&[[0.025, 0.01], [30.0, 30.0]]).unwrap();
    let stats = updates.apply(&inserts, &[0]).unwrap();
    // Drained before the handle drops: its freeze checkpoints and fsyncs.
    let trace = obs::take_trace();
    drop(updates);
    let explain = durable.explain_last().unwrap();
    assert_eq!(stats.phases, explain.phases);
    let ran: Vec<&str> = stats.phases.iter().map(|p| p.phase).collect();
    assert_eq!(ran[..2], [obs::phase::WAL_APPEND, obs::phase::WAL_FSYNC]);
    timed_once(
        &trace,
        &stats.phases,
        [("session", explain.wall), ("stream", stats.elapsed)],
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // --- Invariant 4: the one-shot path times each phase once, including
    // canonicalization.
    let _ = obs::take_trace();
    dbscan::cluster(&PointCloud::from_rows(&rows).unwrap(), params).unwrap();
    let trace = obs::take_trace();
    let mut names: Vec<&str> = trace.iter().map(|s| s.phase).collect();
    names.sort_unstable();
    let mut want = phase_names;
    want.sort_unstable();
    assert_eq!(names, want, "the one-shot path times each phase once");
}
