//! Regression test for `DBSCAN_OBS=off`: the kill switch must mean *zero*
//! recorded observability state — no spans, an empty registry — while the
//! per-session statistics views keep working.
//!
//! This lives in its own integration-test binary on purpose (same pattern
//! as `force_scalar.rs` in the core crate): the mode is read once per
//! process at the first instrumented call, so the test must own the whole
//! process to set the variable *before* that first call. Keep this file
//! single-test for the same reason.

use dbscan::{ClusterSession, Params, PointCloud};

#[test]
fn obs_off_records_no_spans_and_no_metrics() {
    std::env::set_var("DBSCAN_OBS", "off");
    assert_eq!(obs::mode(), obs::ObsMode::Off);

    // Exercise every instrumented layer: facade dispatch, engine query and
    // sweep, the core phases underneath, and a streaming episode.
    let rows: Vec<[f64; 2]> = (0..200).map(|i| [0.05 * (i % 50) as f64, 0.0]).collect();
    let mut session = ClusterSession::ingest(PointCloud::from_rows(&rows).unwrap()).unwrap();
    let params = Params::new(0.2, 3);
    let labels = session.cluster(params).unwrap();
    assert_eq!(labels.num_clusters(), 1);
    // The mode gates recording, not timing: a fresh query still reports
    // every phase as run, each with its measured duration.
    let phases = session.explain_last().unwrap().phases;
    assert_eq!(phases.len(), 5, "partition through canonicalize");
    assert!(phases.iter().all(|p| p.executed() && !p.duration.is_zero()));
    session.sweep(([0.2, 0.4], [3, 5])).unwrap();
    // The per-session views are independent of the observability mode.
    // (Captured before the streaming episode: freezing back re-indexes the
    // snapshot, which resets the session's cache counters.)
    assert!(session.cache_stats().partition_misses > 0);
    {
        let mut updates = session.updates(params).unwrap();
        let id = updates.insert(&[30.0, 30.0]).unwrap();
        updates.delete(id).unwrap();
    }

    // No spans were recorded anywhere...
    assert_eq!(obs::trace_len(), 0);
    assert_eq!(obs::trace_dropped(), 0);
    assert!(session.take_trace().is_empty());

    // ...and nothing ever registered a metric, so the report (and its
    // Prometheus rendering) is empty.
    let report = session.metrics();
    assert!(
        report.counters.is_empty(),
        "counters: {:?}",
        report.counters
    );
    assert!(report.gauges.is_empty(), "gauges: {:?}", report.gauges);
    assert!(report.histograms.is_empty());
    assert!(report.infos.is_empty(), "infos: {:?}", report.infos);
    assert!(report.to_prometheus().is_empty());

    // The decision is sticky: changing the variable mid-process must not
    // re-dispatch.
    std::env::set_var("DBSCAN_OBS", "trace");
    session.cluster(params).unwrap();
    assert_eq!(obs::mode(), obs::ObsMode::Off);
    assert!(session.take_trace().is_empty());
}
