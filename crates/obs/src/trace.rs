//! Structured span tracing: RAII guards and the process-wide ring buffer.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Capacity of the process-wide span ring buffer. Oldest records are
/// overwritten once full; [`trace_dropped`] counts the casualties.
pub const RING_CAPACITY: usize = 8192;

/// The process trace epoch: every span's [`SpanRecord::start`] offset is
/// measured from this instant. Pinned on the first span construction so the
/// epoch always precedes every recorded start.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span: a phase of work on one clustering path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Which layer emitted the span: `"core"`, `"engine"`, `"stream"`, or
    /// `"session"`.
    pub path: &'static str,
    /// Phase name — one of the [`crate::phase`] constants.
    pub phase: &'static str,
    /// The ε the phase ran under, or `NaN` when not applicable.
    pub eps: f64,
    /// The minPts the phase ran under, or 0 when not applicable.
    pub min_pts: usize,
    /// Problem size the phase saw (points, pairs, or batch updates —
    /// whatever the instrumented site counts its work in).
    pub n: usize,
    /// When the span started, as an offset from the process trace epoch
    /// (the first span construction). Monotonic across threads, so traces
    /// from different threads line up on one timeline.
    pub start: Duration,
    /// Wall-clock duration from guard construction to drop.
    pub duration: Duration,
    /// Process-unique id of the recording thread ([`crate::thread_id`]).
    pub thread: u64,
    /// Process-wide record sequence number, assigned at record time under
    /// the ring lock. Strictly increasing; [`spans_since`] uses it to read
    /// "everything recorded after instant X" without draining the ring.
    pub seq: u64,
}

struct Ring {
    buf: Vec<SpanRecord>,
    /// Index of the oldest record when `buf` is full.
    start: usize,
    dropped: u64,
    /// Next sequence number to assign (== total spans ever recorded).
    next_seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: Vec::new(),
    start: 0,
    dropped: 0,
    next_seq: 0,
});

fn ring() -> std::sync::MutexGuard<'static, Ring> {
    // A panic while holding the lock can only happen on OOM pushing into
    // `buf`; the ring contents stay structurally valid either way.
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

fn record(mut rec: SpanRecord) {
    let mut ring = ring();
    rec.seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.buf.len() < RING_CAPACITY {
        ring.buf.push(rec);
    } else {
        let start = ring.start;
        ring.buf[start] = rec;
        ring.start = (start + 1) % RING_CAPACITY;
        ring.dropped += 1;
    }
}

/// Drain every recorded span, oldest first, leaving the buffer empty.
///
/// Spans only record under `DBSCAN_OBS=trace`; in other modes this always
/// returns an empty vector.
pub fn take_trace() -> Vec<SpanRecord> {
    let mut ring = ring();
    let start = ring.start;
    ring.start = 0;
    let mut buf = std::mem::take(&mut ring.buf);
    buf.rotate_left(start);
    buf
}

/// The next sequence number the ring will assign — i.e. the total number of
/// spans ever recorded in this process. Sample it before an operation, then
/// pass it to [`spans_since`] afterwards to read just that operation's spans.
pub fn trace_seq() -> u64 {
    ring().next_seq
}

/// Clone every buffered span with `seq >= seq_floor`, oldest first,
/// **without** draining the ring. If the ring wrapped past `seq_floor`
/// (visible as a [`trace_dropped`] increase) the earliest spans are gone.
pub fn spans_since(seq_floor: u64) -> Vec<SpanRecord> {
    let ring = ring();
    let len = ring.buf.len();
    let mut out = Vec::new();
    for i in 0..len {
        let rec = &ring.buf[(ring.start + i) % len.max(1)];
        if rec.seq >= seq_floor {
            out.push(rec.clone());
        }
    }
    out
}

/// Number of spans currently buffered (capped at the ring capacity).
pub fn trace_len() -> usize {
    ring().buf.len()
}

/// Total spans overwritten because the ring buffer was full.
pub fn trace_dropped() -> u64 {
    ring().dropped
}

/// RAII span guard and the workspace's one stopwatch: times the enclosing
/// scope in every mode and, under `DBSCAN_OBS=trace`, records a
/// [`SpanRecord`] when it ends (by [`Span::finish`], or on drop). A caller
/// that reports `finish()`'s duration in stats, EXPLAIN or a histogram
/// reports the very number the trace shows.
///
/// ```
/// let span = obs::Span::enter("core", obs::phase::MARK_CORE)
///     .eps(0.5)
///     .min_pts(10)
///     .n(100_000);
/// // ... phase work ...
/// let took = span.finish(); // records the span, returns what it recorded
/// # let _ = took;
/// ```
#[must_use = "a span records the time until it is dropped; binding it to _ drops it immediately"]
pub struct Span {
    /// The record to be: path, phase and attributes (the timing fields are
    /// filled in when the span ends).
    pub(crate) rec: SpanRecord,
    /// `None` once the span has ended (by [`Span::finish`] or on drop).
    pub(crate) start: Option<Instant>,
}

impl Span {
    /// Start a span on `path` (the emitting layer) for `phase` (one of
    /// [`crate::phase`]).
    pub fn enter(path: &'static str, phase: &'static str) -> Span {
        // Pin the epoch before sampling `start` so the offset can't go
        // negative even for the very first span.
        epoch();
        Span {
            rec: SpanRecord {
                path,
                phase,
                eps: f64::NAN,
                min_pts: 0,
                n: 0,
                start: Duration::ZERO,
                duration: Duration::ZERO,
                thread: 0,
                seq: 0, // assigned by `record` under the ring lock
            },
            start: Some(Instant::now()),
        }
    }

    /// Attach the ε this phase runs under.
    pub fn eps(mut self, eps: f64) -> Span {
        self.rec.eps = eps;
        self
    }

    /// Attach the minPts this phase runs under.
    pub fn min_pts(mut self, min_pts: usize) -> Span {
        self.rec.min_pts = min_pts;
        self
    }

    /// Attach the problem size this phase saw.
    pub fn n(mut self, n: usize) -> Span {
        self.rec.n = n;
        self
    }

    /// End the span now: record it (under `DBSCAN_OBS=trace`) and return
    /// the duration it recorded.
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    fn end(&mut self) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let duration = start.elapsed();
        if crate::trace_enabled() {
            record(SpanRecord {
                start: start.saturating_duration_since(epoch()),
                duration,
                thread: crate::thread_id(),
                ..self.rec.clone()
            });
        }
        duration
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end();
    }
}

/// The ring is process-wide; serializes the unit tests that drain it.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: usize) -> SpanRecord {
        SpanRecord {
            path: "core",
            phase: crate::phase::MARK_CORE,
            eps: 1.0,
            min_pts: 2,
            n,
            start: Duration::from_micros(n as u64),
            duration: Duration::from_micros(n as u64),
            thread: crate::thread_id(),
            seq: 0,
        }
    }

    #[test]
    fn ring_drains_in_order_and_overwrites_oldest() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        for i in 0..3 {
            record(rec(i));
        }
        let got = take_trace();
        assert_eq!(got.iter().map(|r| r.n).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(trace_len(), 0);

        let dropped_before = trace_dropped();
        for i in 0..RING_CAPACITY + 5 {
            record(rec(i));
        }
        let got = take_trace();
        assert_eq!(got.len(), RING_CAPACITY);
        assert_eq!(got.first().unwrap().n, 5);
        assert_eq!(got.last().unwrap().n, RING_CAPACITY + 4);
        assert_eq!(trace_dropped() - dropped_before, 5);
    }

    #[test]
    fn spans_since_reads_without_draining() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        for i in 0..4 {
            record(rec(i));
        }
        let floor = trace_seq();
        for i in 10..13 {
            record(rec(i));
        }
        let got = spans_since(floor);
        assert_eq!(
            got.iter().map(|r| r.n).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        // Non-draining: everything is still in the ring, in order.
        assert_eq!(trace_len(), 7);
        let all = take_trace();
        assert_eq!(all.len(), 7);
        // Sequence numbers are strictly increasing in drain order.
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn span_guard_is_inert_when_tracing_disabled() {
        // The test process does not set DBSCAN_OBS=trace (mode defaults to
        // counters), so guards must record nothing. They still time:
        // `finish` reports the elapsed time in every mode.
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        {
            let _span = Span::enter("core", crate::phase::PARTITION)
                .eps(0.1)
                .min_pts(5)
                .n(42);
        }
        let span = Span::enter("core", crate::phase::PARTITION);
        std::thread::sleep(Duration::from_millis(1));
        assert!(span.finish() >= Duration::from_millis(1));
        assert_eq!(trace_len(), 0);
    }

    /// Satellite: threads record spans while another thread drains the ring.
    /// No record may be lost to a cursor race — every span either comes out
    /// of a `take_trace` call or is accounted for by `trace_dropped`.
    #[test]
    fn concurrent_record_and_drain_lose_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = take_trace();
        let dropped_before = trace_dropped();
        let seq_before = trace_seq();

        const WRITERS: usize = 4;
        const PER_WRITER: usize = 5_000;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let drained = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    got.extend(take_trace());
                }
                got.extend(take_trace());
                got
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        record(rec(w * PER_WRITER + i));
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let drained = drained.join().unwrap();

        let total = (WRITERS * PER_WRITER) as u64;
        let dropped = trace_dropped() - dropped_before;
        assert_eq!(trace_seq() - seq_before, total);
        assert_eq!(drained.len() as u64 + dropped, total);
        assert_eq!(trace_len(), 0);
        // No duplicate deliveries either: all drained seqs are distinct.
        let mut seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), drained.len());
    }
}
