//! Validates [`obs::export::chrome_trace`] against the Chrome trace-event
//! schema on a real sweep: the output parses as JSON, events carry the
//! required `name`/`ph`/`pid`/`tid`/`ts`/`dur` fields, complete events are
//! sorted by start time, and every event lane is labelled by a
//! `thread_name` metadata event. Also round-trips the `DBSCAN_TRACE_OUT`
//! file sink.
//!
//! Own-process integration binary (same pattern as `obs_trace.rs`): the
//! `DBSCAN_OBS` mode is read once per process, so the variable must be set
//! before the first instrumented call. Keep this file single-test.

use dbscan::{ClusterSession, Params, PointCloud};
use jsonv::{parse, Value};
use std::collections::BTreeSet;

fn validate_trace(doc: &Value) -> (usize, BTreeSet<u64>) {
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a real sweep records spans");

    let mut labelled_tids = BTreeSet::new();
    let mut event_tids = BTreeSet::new();
    let mut complete_events = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    for event in events {
        assert!(event.get("name").and_then(Value::as_str).is_some());
        assert_eq!(event.get("pid").and_then(Value::as_f64), Some(1.0));
        let tid = event.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        match event.get("ph").and_then(Value::as_str).expect("ph") {
            "M" => {
                assert_eq!(
                    event.get("name").and_then(Value::as_str),
                    Some("thread_name")
                );
                assert!(event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_some());
                labelled_tids.insert(tid);
            }
            "X" => {
                let ts = event.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = event.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= 0.0 && ts.is_finite());
                assert!(dur >= 0.0 && dur.is_finite());
                assert!(
                    ts >= last_ts,
                    "complete events must be sorted by start time ({ts} < {last_ts})"
                );
                last_ts = ts;
                assert!(event
                    .get("args")
                    .and_then(|a| a.get("seq"))
                    .and_then(Value::as_f64)
                    .is_some());
                event_tids.insert(tid);
                complete_events += 1;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(
        event_tids.is_subset(&labelled_tids),
        "every event lane needs a thread_name label: {event_tids:?} vs {labelled_tids:?}"
    );
    (complete_events, event_tids)
}

#[test]
fn chrome_trace_of_a_real_sweep_conforms_to_the_trace_event_schema() {
    std::env::set_var("DBSCAN_OBS", "trace");
    assert!(obs::trace_enabled());

    let rows: Vec<[f64; 2]> = (0..600)
        .map(|i| [0.05 * (i % 100) as f64, 0.02 * (i / 100) as f64])
        .collect();
    let session = ClusterSession::ingest(PointCloud::from_rows(&rows).unwrap()).unwrap();
    let _ = session.take_trace(); // start from an empty ring
    let grid = session.sweep(([0.2, 0.3], [3, 5])).unwrap();
    assert_eq!(grid.len(), 4);

    let spans = session.take_trace();
    assert!(!spans.is_empty());
    let trace = obs::export::chrome_trace(&spans);
    let doc = parse(&trace).expect("chrome_trace emits valid JSON");
    let (complete_events, _) = validate_trace(&doc);
    assert_eq!(
        complete_events,
        spans.len(),
        "one complete event per recorded span"
    );

    // The sweep dispatches its per-(ε, minPts) cells through the engine, so
    // the session-level sweep span and the core phases are all present.
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let names: BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for phase in [
        obs::phase::SWEEP,
        obs::phase::MARK_CORE,
        obs::phase::CLUSTER_CORE,
        obs::phase::CLUSTER_BORDER,
    ] {
        assert!(names.contains(phase), "missing {phase} in {names:?}");
    }

    // --- DBSCAN_TRACE_OUT round-trip: a query refills the ring, the sink
    // drains it into a file whose contents validate the same way.
    let outcome = session.query(Params::new(0.2, 3), dbscan::VariantConfig::exact());
    assert!(outcome.is_ok());
    let path = std::env::temp_dir().join(format!("dbscan_trace_test_{}.json", std::process::id()));
    std::env::set_var("DBSCAN_TRACE_OUT", &path);
    let written = obs::export::write_trace_out()
        .expect("DBSCAN_TRACE_OUT is set")
        .expect("trace file written");
    assert_eq!(written, path);
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = parse(&text).expect("trace file is valid JSON");
    validate_trace(&doc);
    assert!(
        session.take_trace().is_empty(),
        "the file sink drains the ring"
    );
    std::env::remove_var("DBSCAN_TRACE_OUT");
    let _ = std::fs::remove_file(&path);
}
