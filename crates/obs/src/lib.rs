//! Dependency-free observability substrate for the pardbscan workspace.
//!
//! Three pillars, all behind one process-wide switch:
//!
//! 1. **Structured span tracing** ([`Span`], [`take_trace`]): RAII guards
//!    record `(path, phase, eps, min_pts, n, duration, thread)` tuples into a
//!    bounded ring buffer, with [`phase`] constants matching the paper's
//!    Algorithm 1 so a sweep's trace shows which phase re-ran for which
//!    parameters. A span is also the workspace's one stopwatch: it times in
//!    every mode, and [`Span::finish`] returns the duration it records.
//! 2. **A metrics registry** ([`LazyCounter`], [`Gauge`], [`Histogram`],
//!    [`snapshot`]): named atomic counters/gauges plus fixed-bucket duration
//!    histograms, with a typed [`MetricsReport`] and a Prometheus
//!    text-exposition exporter ([`MetricsReport::to_prometheus`]).
//! 3. **Callback gauges** ([`register_gauge_fn`]) so subsystems that keep
//!    their own counters (the worker pool) can surface them at snapshot time
//!    without double accounting.
//!
//! # The `DBSCAN_OBS` environment variable
//!
//! The mode is read **once**, on first use, exactly like
//! `DBSCAN_FORCE_SCALAR` in the distance kernels — changing the variable
//! after the first instrumented call has no effect on this process:
//!
//! | value      | counters & histograms | span records |
//! |------------|-----------------------|--------------|
//! | `off`      | no                    | no           |
//! | `counters` | yes (default)         | no           |
//! | `trace`    | yes                   | yes          |
//!
//! Unknown values fall back to `counters`.
//!
//! On top of the substrate sit the attribution layers: [`OpScope`] /
//! [`ExplainReport`] (per-operation EXPLAIN built from registry + ring
//! deltas, see [`OpScope`]), the exporters in [`export`] (EXPLAIN JSON,
//! Chrome trace-event JSON, the `DBSCAN_TRACE_OUT` sink), and allocation
//! accounting in [`alloc`] (a counting global allocator behind the
//! `alloc-profile` feature).
//!
//! This crate is offline and dependency-free by design (compat-style — no
//! `tracing`, no `prometheus` crate). It contains no unsafe code except,
//! behind the `alloc-profile` feature, the `GlobalAlloc` forwarding shim in
//! [`alloc`] (the trait itself is unsafe to implement).

#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-profile", deny(unsafe_code))]
#![deny(missing_docs)]

pub mod alloc;
pub mod export;
mod metrics;
mod scope;
mod trace;

pub use metrics::{
    describe, register_gauge_fn, set_info, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    LazyCounter, LazyGauge, LazyHistogram, MetricsReport,
};
pub use scope::{AllocDelta, ExplainReport, OpScope, PhaseExecution};
pub use trace::{
    spans_since, take_trace, trace_dropped, trace_len, trace_seq, Span, SpanRecord, RING_CAPACITY,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// What the process-wide `DBSCAN_OBS` switch is set to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Counter updates and span recording are both no-ops.
    Off,
    /// Counters, gauges, and histograms record; spans do not. The default.
    Counters,
    /// Everything records, including spans.
    Trace,
}

impl ObsMode {
    /// Stable lower-case label (`"off"`, `"counters"`, `"trace"`).
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Trace => "trace",
        }
    }
}

const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_COUNTERS: u8 = 2;
const MODE_TRACE: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[cold]
fn init_mode() -> u8 {
    let code = match std::env::var_os("DBSCAN_OBS") {
        Some(v) if v == "off" => MODE_OFF,
        Some(v) if v == "trace" => MODE_TRACE,
        _ => MODE_COUNTERS,
    };
    // A racing first call may store a different-but-identical decision; the
    // env var is only read, never written, so both racers agree.
    MODE.store(code, Ordering::Relaxed);
    if code >= MODE_COUNTERS {
        // Ring-health gauges: exhaustion shows up in the Prometheus dump
        // instead of silently truncating traces. Registered here (after the
        // mode store) so `DBSCAN_OBS=off` keeps the registry empty.
        metrics::describe(
            "dbscan_trace_buffered",
            "Spans currently buffered in the trace ring",
        );
        metrics::register_gauge_fn("dbscan_trace_buffered", || trace_len() as i64);
        metrics::describe(
            "dbscan_trace_dropped_total",
            "Spans overwritten because the trace ring was full",
        );
        metrics::register_gauge_fn("dbscan_trace_dropped_total", || trace_dropped() as i64);
    }
    if code == MODE_TRACE {
        // Best-effort DBSCAN_TRACE_OUT flush when this thread exits.
        export::arm_exit_writer();
    }
    code
}

#[inline]
fn mode_code() -> u8 {
    let code = MODE.load(Ordering::Relaxed);
    if code == MODE_UNINIT {
        init_mode()
    } else {
        code
    }
}

/// The process-wide observability mode (reads `DBSCAN_OBS` on first call,
/// then sticks for the lifetime of the process).
pub fn mode() -> ObsMode {
    match mode_code() {
        MODE_OFF => ObsMode::Off,
        MODE_TRACE => ObsMode::Trace,
        _ => ObsMode::Counters,
    }
}

/// `true` when counters, gauges, and histograms should record
/// (`DBSCAN_OBS` is `counters` or `trace`).
#[inline]
pub fn counters_enabled() -> bool {
    mode_code() >= MODE_COUNTERS
}

/// `true` when spans should record into the ring (`DBSCAN_OBS=trace`).
#[inline]
pub fn trace_enabled() -> bool {
    mode_code() == MODE_TRACE
}

/// Phase constants for [`Span`] records, matching Algorithm 1 of the paper
/// plus the maintenance steps of the streaming path.
pub mod phase {
    /// Grid partition + ε-neighbour computation (Algorithm 1, line 1).
    pub const PARTITION: &str = "partition";
    /// Core-point flagging (Algorithm 1, MarkCore).
    pub const MARK_CORE: &str = "mark_core";
    /// Cell-graph construction + core clustering (Algorithm 1, ClusterCore).
    pub const CLUSTER_CORE: &str = "cluster_core";
    /// Border-point assignment (Algorithm 1, ClusterBorder).
    pub const CLUSTER_BORDER: &str = "cluster_border";
    /// Canonical cluster renumbering (`Clustering::from_sets`).
    pub const CANONICALIZE: &str = "canonicalize";
    /// One engine/facade query (all phases plus cache lookups).
    pub const QUERY: &str = "query";
    /// One engine/facade parameter-grid sweep.
    pub const SWEEP: &str = "sweep";
    /// One streaming update batch.
    pub const APPLY: &str = "apply";
    /// Streaming step 2: collect the dirty region (the touched cells and
    /// their small ε-neighbour cells) and re-flag core status over it.
    pub const MARK_CORE_REGION: &str = "mark_core_region";
    /// Streaming step 3: BCP re-connection of surviving cell pairs.
    pub const CONNECT_REGION: &str = "connect_region";
    /// Encoding + appending one update batch's write-ahead-log record
    /// (`dbscan-durable`).
    pub const WAL_APPEND: &str = "wal_append";
    /// Fsyncing the write-ahead log (absent from a batch whose fsync a
    /// group-commit policy deferred).
    pub const WAL_FSYNC: &str = "wal_fsync";
    /// Opening a durable store: snapshot load + WAL replay.
    pub const RECOVERY: &str = "recovery";
    /// Publishing one immutable generation of a concurrent session
    /// (`dbscan::ConcurrentSession`): live-set snapshot + label resolve.
    pub const PUBLISH: &str = "publish";
    /// Serving one HTTP request (`dbscan-serve`), parse to flush.
    pub const REQUEST: &str = "request";
}

/// A monotonically assigned per-thread id, used in span records. Stable for
/// the life of the thread; ids are never reused within a process.
pub fn thread_id() -> u64 {
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        let v = id.get();
        if v != 0 {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(v);
            v
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_label_round_trip() {
        assert_eq!(ObsMode::Off.label(), "off");
        assert_eq!(ObsMode::Counters.label(), "counters");
        assert_eq!(ObsMode::Trace.label(), "trace");
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }
}
