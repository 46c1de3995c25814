//! Exporters: [`ExplainReport`] → JSON, span ring → Chrome trace-event
//! JSON (loadable in Perfetto / `chrome://tracing`), and the
//! `DBSCAN_TRACE_OUT` file sink.
//!
//! The serializers are hand-rolled (this crate is dependency-free); the
//! trace-event output follows the Trace Event Format's complete-event
//! (`"ph": "X"`) shape: microsecond `ts`/`dur`, one `pid`, and one `tid`
//! lane per recording thread.

use crate::scope::ExplainReport;
use crate::trace::SpanRecord;
use std::fmt::Write as _;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite float as JSON, mapping NaN/∞ (no JSON spelling) to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize an [`ExplainReport`] as a JSON object (stable field names,
/// durations in seconds, non-finite floats as `null`).
pub fn explain_json(report: &ExplainReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"op\": \"{}\", \"variant\": \"{}\", \"eps\": {}, \"min_pts\": {}, \"n\": {}, \
         \"wall_s\": {}, \"cells_visited\": {}, \"num_core_points\": {},",
        json_escape(report.op),
        json_escape(&report.variant),
        json_f64(report.eps),
        report.min_pts,
        report.n,
        json_f64(report.wall.as_secs_f64()),
        report.cells_visited,
        report.num_core_points,
    );
    out.push_str(" \"phases\": [");
    for (i, p) in report.phases.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"phase\": \"{}\", \"runs\": {}, \"skips\": {}, \"skipped_by_generation\": {}, \
             \"duration_s\": {}}}",
            if i > 0 { ", " } else { "" },
            json_escape(p.phase),
            p.runs,
            p.skips,
            p.skipped_by_generation
                .map_or("null".to_string(), |g| g.to_string()),
            json_f64(p.duration.as_secs_f64()),
        );
    }
    out.push_str("], \"counter_deltas\": {");
    for (i, (name, delta)) in report.counter_deltas.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {}",
            if i > 0 { ", " } else { "" },
            json_escape(name),
            delta
        );
    }
    let _ = write!(
        out,
        "}}, \"pool_busy_s\": {}, \"threads\": {}, \"parallel_efficiency\": {}, \
         \"alloc\": {{\"profiled\": {}, \"allocations\": {}, \"deallocations\": {}, \
         \"bytes_allocated\": {}}}, \"spans\": {}}}",
        json_f64(report.pool_busy.as_secs_f64()),
        report.threads,
        json_f64(report.parallel_efficiency),
        report.alloc.profiled,
        report.alloc.allocations,
        report.alloc.deallocations,
        report.alloc.bytes_allocated,
        report.spans.len(),
    );
    out
}

/// Serialize spans as Chrome trace-event JSON: one complete event
/// (`"ph": "X"`) per span with microsecond `ts` (offset from the process
/// trace epoch) and `dur`, `pid` 1, and the recording thread's id as `tid`
/// — so Perfetto renders one lane per thread. Thread-name metadata events
/// label the lanes. Events are sorted by start time.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.seq));

    let mut tids: Vec<u64> = sorted.iter().map(|s| s.thread).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    for tid in &tids {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"obs thread {tid}\"}}}}"
        );
    }
    for s in &sorted {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = s.start.as_secs_f64() * 1e6;
        let dur_us = s.duration.as_secs_f64() * 1e6;
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"seq\": {}, \"n\": {}, \"min_pts\": {}",
            json_escape(s.phase),
            json_escape(s.path),
            json_f64(ts_us),
            json_f64(dur_us),
            s.thread,
            s.seq,
            s.n,
            s.min_pts,
        );
        if s.eps.is_finite() {
            let _ = write!(out, ", \"eps\": {}", json_f64(s.eps));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// The path `DBSCAN_TRACE_OUT` points at, if set and non-empty.
pub fn trace_out_path() -> Option<std::path::PathBuf> {
    std::env::var_os("DBSCAN_TRACE_OUT")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

/// Drain the span ring and write it as Chrome trace-event JSON to the
/// `DBSCAN_TRACE_OUT` path. Returns `None` when the variable is unset (and
/// leaves the ring untouched), otherwise the write result.
///
/// Called automatically when a tracing thread exits (best-effort — the
/// thread-local exit hook only covers threads that recorded spans, and
/// `std::process::exit` skips it); long-running binaries should call this
/// explicitly at shutdown.
pub fn write_trace_out() -> Option<std::io::Result<std::path::PathBuf>> {
    let path = trace_out_path()?;
    let spans = crate::take_trace();
    Some(std::fs::write(&path, chrome_trace(&spans)).map(|()| path))
}

/// Arm the best-effort exit writer on the calling thread: when the thread
/// exits, the ring is flushed to `DBSCAN_TRACE_OUT` (if set). An empty ring
/// writes nothing, so an explicit [`write_trace_out`] at shutdown is not
/// overwritten by an empty trace. Idempotent.
pub(crate) fn arm_exit_writer() {
    struct ExitWriter;
    impl Drop for ExitWriter {
        fn drop(&mut self) {
            if crate::trace_len() > 0 {
                let _ = write_trace_out();
            }
        }
    }
    thread_local! {
        static GUARD: ExitWriter = const { ExitWriter };
    }
    GUARD.with(|_| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(seq: u64, start_us: u64, thread: u64) -> SpanRecord {
        SpanRecord {
            path: "engine",
            phase: crate::phase::QUERY,
            eps: 0.5,
            min_pts: 10,
            n: 1000,
            start: Duration::from_micros(start_us),
            duration: Duration::from_micros(25),
            thread,
            seq,
        }
    }

    #[test]
    fn chrome_trace_sorts_and_lanes() {
        let spans = vec![span(2, 300, 2), span(1, 100, 1)];
        let text = chrome_trace(&spans);
        // Sorted by start: seq 1 (ts 100) precedes seq 2 (ts 300).
        let a = text.find("\"ts\": 100").unwrap();
        let b = text.find("\"ts\": 300").unwrap();
        assert!(a < b);
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"M\""));
        assert!(text.contains("\"tid\": 1"));
        assert!(text.contains("\"tid\": 2"));
        assert!(text.contains("\"eps\": 0.5"));
    }

    #[test]
    fn exit_hook_leaves_an_explicit_flush_alone_when_the_ring_is_empty() {
        let path = std::env::temp_dir().join(format!("obs-exit-hook-{}.json", std::process::id()));
        let after = {
            let _guard = crate::trace::TEST_LOCK.lock().unwrap();
            let _ = crate::take_trace();
            std::fs::write(&path, "explicit flush").unwrap();
            std::env::set_var("DBSCAN_TRACE_OUT", &path);
            // The thread records nothing, so its exit hook finds an empty ring.
            std::thread::spawn(arm_exit_writer).join().unwrap();
            std::env::remove_var("DBSCAN_TRACE_OUT");
            std::fs::read_to_string(&path)
        };
        let _ = std::fs::remove_file(&path);
        assert_eq!(after.unwrap(), "explicit flush");
    }

    #[test]
    fn explain_json_is_balanced() {
        let report = crate::OpScope::begin("query").finish();
        let text = explain_json(&report);
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in {text}"
        );
        assert!(text.contains("\"op\": \"query\""));
        assert!(text.contains("\"eps\": null"));
    }
}
