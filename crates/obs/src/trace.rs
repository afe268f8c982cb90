//! Deterministic hierarchical span tracing.
//!
//! The metrics core answers "how much time did phase *P* take overall";
//! this module answers "which job, level, phase, or candidate batch burned
//! it". A [`Span`] is one timed interval in a fixed hierarchy —
//! job → level → phase → candidate-batch — recorded into a [`TraceSink`]:
//! a bounded ring buffer behind one short mutex hold per span (spans are
//! per level/phase/node, not per row, so the lock is cold).
//!
//! Determinism is the design center, mirroring the engine's event-stream
//! contract:
//!
//! * **Ids are content-derived, not allocation-derived.** A span's id is a
//!   pure function of its coordinates — `(level, node-order, phase)` — via
//!   [`span_id`], so two runs of the same config produce the same id for
//!   the same work regardless of thread count or recording interleaving.
//! * **Time enters only through the injectable [`Clock`].** Under a
//!   [`ManualClock`](crate::ManualClock) every timestamp is reproducible,
//!   so a trace's serialized bytes are stable across runs and thread
//!   counts; under a [`MonotonicClock`](crate::MonotonicClock) the same
//!   fields carry real wall-clock values. This is the same isolation
//!   discipline the wire layer applies to its `*_ms` fields: wall-clock
//!   content lives in designated slots, never mixed into identity.
//! * **Nondeterministic spans ride a separate lane.** Per-worker `run`
//!   spans (recorded by the executor) depend on scheduling; they are kept
//!   in a worker lane ([`TraceSink::worker_spans`]) that byte-stable
//!   exports exclude, exactly like `threads_used` is excluded from the
//!   engine's bit-identity contract.
//!
//! Serialization (NDJSON and Chrome `trace_event` JSON) lives in
//! `aod_core::trace_export` — this crate sits below `aod-core` in the
//! dependency order, so it defines the data model and the core crate
//! renders it with the shared `aod_core::json` writer.

use crate::Clock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default bound on retained spans per lane; beyond it the oldest span is
/// evicted (ring discipline) and [`TraceSink::dropped`] counts the loss.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// One timed interval of a discovery run.
///
/// `start_us`/`dur_us` are the *wall-clock slots*: they carry whatever the
/// sink's [`Clock`] reports and are the only fields allowed to vary
/// between identically-configured runs (they don't vary under a
/// `ManualClock`). Everything else — id, parent, name, category, thread
/// lane, args — is deterministic content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Content-derived id (see [`span_id`]); unique within one trace.
    pub id: u64,
    /// Id of the enclosing span, `0` for the root job span.
    pub parent: u64,
    /// Short stable name (`"discover"`, `"level"`, a phase name, ...).
    pub name: &'static str,
    /// Hierarchy tier: `"job"`, `"level"`, `"phase"`, `"batch"`, or
    /// `"worker"` for the worker lane.
    pub cat: &'static str,
    /// Render lane: `0` for the deterministic driving-thread hierarchy,
    /// `worker index + 1` for worker-lane spans.
    pub tid: u32,
    /// Start timestamp in clock microseconds.
    pub start_us: u64,
    /// Duration in clock microseconds.
    pub dur_us: u64,
    /// Numeric attributes (level number, node order, candidate counts,
    /// queue depth). Numeric-only keeps recording allocation-light and the
    /// serialized form trivially deterministic.
    pub args: Vec<(&'static str, u64)>,
}

/// Content-derived span ids: a pure function of a span's coordinates in
/// the job → level → phase → candidate-batch hierarchy, so ids are stable
/// across runs and thread counts. The top four bits encode the tier.
pub mod span_id {
    /// The root job span.
    pub const JOB: u64 = 1;

    /// The span covering one lattice level.
    pub fn level(level: usize) -> u64 {
        (1 << 60) | level as u64
    }

    /// The span covering one engine phase of one level. `phase` is the
    /// phase's reporting index (0 = OC validation, 1 = OFD validation,
    /// 2 = partitioning).
    pub fn phase(level: usize, phase: usize) -> u64 {
        (2 << 60) | ((level as u64) << 8) | phase as u64
    }

    /// The span covering one node's candidate batch within one phase;
    /// `node` is the node's deterministic order index within its level.
    pub fn batch(level: usize, node: usize, phase: usize) -> u64 {
        (3 << 60) | ((level as u64) << 40) | ((node as u64) << 8) | phase as u64
    }

    /// A worker-lane span (one executor item); `seq` is a per-sink
    /// sequence number. Worker spans are scheduling-dependent, so their
    /// ids only promise uniqueness, not cross-run stability.
    pub fn worker(seq: u64) -> u64 {
        (4 << 60) | seq
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: VecDeque<Span>,
    workers: VecDeque<Span>,
    dropped: u64,
    worker_seq: u64,
}

/// A bounded, thread-safe collector of [`Span`]s fed by an injectable
/// [`Clock`].
///
/// Two lanes: [`record`](TraceSink::record) feeds the deterministic
/// hierarchy (driving-thread spans with content-derived ids), and
/// [`record_worker`](TraceSink::record_worker) feeds the scheduling-
/// dependent worker lane. Both are rings: when a lane exceeds the
/// capacity, the oldest span is evicted and counted in
/// [`dropped`](TraceSink::dropped).
#[derive(Debug)]
pub struct TraceSink {
    clock: Arc<dyn Clock>,
    capacity: usize,
    inner: Mutex<TraceBuf>,
}

impl TraceSink {
    /// A sink with the [`DEFAULT_TRACE_CAPACITY`].
    pub fn new(clock: Arc<dyn Clock>) -> TraceSink {
        TraceSink::with_capacity(clock, DEFAULT_TRACE_CAPACITY)
    }

    /// A sink retaining at most `capacity` spans per lane (minimum 1).
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> TraceSink {
        TraceSink {
            clock,
            capacity: capacity.max(1),
            inner: Mutex::new(TraceBuf::default()),
        }
    }

    /// The current clock reading, in microseconds. Recording code brackets
    /// work with two calls and stores the difference in
    /// [`Span::dur_us`].
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The injected clock (shared with code that brackets work on other
    /// threads, e.g. per-node validation timing).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        // A panicking recorder cannot leave the buffer torn: every
        // critical section is a push/pop pair on a VecDeque.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a deterministic-lane span.
    pub fn record(&self, span: Span) {
        let mut buf = self.lock();
        if buf.spans.len() >= self.capacity {
            buf.spans.pop_front();
            buf.dropped += 1;
        }
        buf.spans.push_back(span);
    }

    /// Records a worker-lane span (scheduling-dependent content).
    pub fn record_worker(&self, span: Span) {
        let mut buf = self.lock();
        if buf.workers.len() >= self.capacity {
            buf.workers.pop_front();
            buf.dropped += 1;
        }
        buf.workers.push_back(span);
    }

    /// Allocates the next worker-lane span sequence number.
    pub fn next_worker_seq(&self) -> u64 {
        let mut buf = self.lock();
        buf.worker_seq += 1;
        buf.worker_seq
    }

    /// The deterministic-lane spans, in recording order (which is itself
    /// deterministic: only the session's driving thread records here).
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.iter().cloned().collect()
    }

    /// The worker-lane spans, in recording order (scheduling-dependent).
    pub fn worker_spans(&self) -> Vec<Span> {
        self.lock().workers.iter().cloned().collect()
    }

    /// Spans evicted by the ring bound, across both lanes.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    fn span(id: u64) -> Span {
        Span {
            id,
            parent: 0,
            name: "level",
            cat: "level",
            tid: 0,
            start_us: 10,
            dur_us: 5,
            args: vec![("level", id)],
        }
    }

    #[test]
    fn ids_are_pure_functions_of_coordinates() {
        assert_eq!(span_id::level(3), span_id::level(3));
        assert_ne!(span_id::level(3), span_id::level(4));
        assert_ne!(span_id::level(3), span_id::phase(3, 0));
        assert_ne!(span_id::phase(3, 1), span_id::phase(3, 2));
        assert_ne!(span_id::batch(3, 0, 1), span_id::batch(3, 1, 1));
        assert_ne!(span_id::batch(2, 7, 0), span_id::phase(2, 7));
        assert_ne!(span_id::worker(1), span_id::JOB);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let sink = TraceSink::with_capacity(Arc::new(ManualClock::new()), 3);
        for id in 0..5 {
            sink.record(span(id));
        }
        let ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn lanes_are_independent() {
        let sink = TraceSink::new(Arc::new(ManualClock::new()));
        sink.record(span(1));
        sink.record_worker(span(span_id::worker(sink.next_worker_seq())));
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.worker_spans().len(), 1);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clock_feeds_timestamps() {
        let clock = Arc::new(ManualClock::new());
        clock.set_us(500);
        let sink = TraceSink::new(clock.clone());
        assert_eq!(sink.now_us(), 500);
        clock.advance_us(25);
        assert_eq!(sink.now_us(), 525);
    }
}
