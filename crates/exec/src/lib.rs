//! # aod-exec — scoped work-stealing executor for level-wise discovery
//!
//! The level-wise lattice traversal validates every node of level `ℓ`
//! independently given the cached level-`ℓ−1` partitions, so the paper's
//! scalability walls (Figures 2–3) are embarrassingly parallel *within a
//! level*. This crate provides the thread substrate for that: a
//! dependency-free (`std::thread` only — the build environment has no
//! crates.io access, so no rayon) scoped executor with
//!
//! * **work stealing** — items are dealt to per-worker deques up front;
//!   a worker that drains its own deque steals the back half of the
//!   fullest remaining one, so skewed per-item costs (one giant partition
//!   class on one node) cannot idle the other cores;
//! * **deterministic output** — [`Executor::par_map_indexed`] returns
//!   results in **input order** regardless of which worker computed what,
//!   which is what lets the discovery engine merge per-node results in
//!   node order and give the same output at every worker count;
//! * **panic propagation** — a panicking closure aborts the whole map and
//!   the original payload is re-raised on the caller's thread (no wedged
//!   workers, no swallowed assertion failures);
//! * **per-worker state** — [`Executor::par_map_with_state`] builds one
//!   owned state value (validator scratch, partition scratch) per worker
//!   it runs and threads it through that worker's items, so hot-path
//!   buffers are reused across items without locking.
//!
//! A map never runs more workers than it has items, and a one-worker map
//! (one thread, or a single item) runs the items in order on the caller's
//! thread without queues or spawns — so the discovery engine sends every
//! thread count, one included, through the same map.
//!
//! Threads are spawned per call inside [`std::thread::scope`], which is
//! what allows closures to borrow the caller's stack (tables, caches,
//! pruning state) without `Arc`-wrapping the world; at level granularity
//! the ~10 µs spawn cost is noise against milliseconds of validation.
//!
//! ```
//! use aod_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.par_map_indexed(&[1u64, 2, 3, 4, 5], |_i, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod deque;
pub mod sync;

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aod_obs::trace::{span_id, Span, TraceSink};
use deque::{deal, worker_loop, StealQueue};
use sync::Mutex;

/// A fixed-width scoped executor.
///
/// Holds no threads while idle — each `par_map_*` call spawns its workers
/// inside a [`std::thread::scope`] and joins them before returning, so the
/// executor itself is trivially `Send + Sync` and free to store in
/// long-lived sessions.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    queue_gauge: Option<aod_obs::Gauge>,
    trace: Option<Arc<TraceSink>>,
}

impl Executor {
    /// An executor with `threads` workers. `0` resolves to
    /// [`std::thread::available_parallelism`] (falling back to 1 when the
    /// platform cannot report it).
    pub fn new(threads: usize) -> Executor {
        let threads = match threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        Executor {
            threads,
            queue_gauge: None,
            trace: None,
        }
    }

    /// Attaches a queue-depth gauge: each `par_map_*` call sets it to the
    /// number of pending items and decrements it as items complete, so an
    /// observer sees the pool's outstanding work in real time. Purely
    /// observational — results and scheduling are unaffected. (After a
    /// panicking map the gauge may retain the unprocessed remainder; the
    /// panic is re-raised either way.)
    pub fn with_queue_gauge(mut self, gauge: aod_obs::Gauge) -> Executor {
        self.queue_gauge = Some(gauge);
        self
    }

    /// Attaches a trace sink: multi-worker maps record one worker-lane
    /// span per claimed item (`"run"` for an initially-dealt item,
    /// `"steal"` for one claimed off another worker's block), carrying the
    /// item index and — when a queue gauge is attached — the queue depth
    /// observed at completion. Worker spans are scheduling-dependent by
    /// nature, so they go to the sink's worker lane, which byte-stable
    /// exports exclude (see [`aod_obs::trace`]). Purely observational.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Executor {
        self.trace = Some(trace);
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order.
    ///
    /// # Panics
    /// Re-raises the first panic any invocation of `f` produced.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_with_state(|| (), items, |(), i, item| f(i, item))
    }

    /// Like [`par_map_indexed`](Executor::par_map_indexed), but each worker
    /// owns one state value (scratch buffers, forked validators) for the
    /// duration of the map. `make_state` runs on the caller's thread, once
    /// per worker the map runs: `min(threads, items.len())` times, and not
    /// at all for an empty slice.
    ///
    /// # Panics
    /// Re-raises the first panic any invocation of `f` produced.
    pub fn par_map_with_state<S, T, R, F>(
        &self,
        mut make_state: impl FnMut() -> S,
        items: &[T],
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        if let Some(gauge) = &self.queue_gauge {
            gauge.set(items.len() as u64);
        }
        if items.is_empty() {
            return Vec::new();
        }
        // Never run more workers than items; a 1-worker map degenerates
        // to the plain in-order loop (no queues, no slots, no spawn).
        let n_workers = self.threads.min(items.len());
        if n_workers == 1 {
            let mut state = make_state();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(&mut state, i, item);
                    if let Some(gauge) = &self.queue_gauge {
                        gauge.sub(1);
                    }
                    r
                })
                .collect();
        }
        let states: Vec<S> = (0..n_workers).map(|_| make_state()).collect();

        let queues: Vec<StealQueue> = deal(items.len(), n_workers);
        let slots = Slots::new(items.len());
        let abort = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Payload>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for (w, state) in states.into_iter().enumerate() {
                let queues = &queues;
                let slots = &slots;
                let abort = &abort;
                let panic_payload = &panic_payload;
                let f = &f;
                let queue_gauge = self.queue_gauge.as_ref();
                let trace = self.trace.as_deref();
                let n_items = items.len();
                scope.spawn(move || {
                    let mut state = state;
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(w, queues, abort, |i| {
                            let t0 = trace.map(TraceSink::now_us);
                            let r = f(&mut state, i, &items[i]);
                            // SAFETY: index `i` was claimed from exactly one
                            // queue pop, so no other worker writes slot `i`,
                            // and the caller only reads slots after `scope`
                            // joined every worker.
                            unsafe { slots.write(i, r) };
                            if let Some(gauge) = queue_gauge {
                                gauge.sub(1);
                            }
                            if let (Some(trace), Some(t0)) = (trace, t0) {
                                record_worker_span(
                                    trace,
                                    w,
                                    i,
                                    t0,
                                    n_items,
                                    n_workers,
                                    queue_gauge,
                                );
                            }
                        });
                    }));
                    if let Err(payload) = result {
                        abort.store(true, Ordering::Release);
                        let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                });
            }
        });

        if let Some(payload) = panic_payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            resume_unwind(payload);
        }
        slots.into_vec()
    }
}

impl Default for Executor {
    /// One worker per available core (`Executor::new(0)`).
    fn default() -> Executor {
        Executor::new(0)
    }
}

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Records one worker-lane span for a completed item: `"run"` when the
/// item sat in worker `w`'s initially-dealt block, `"steal"` when the
/// worker claimed it off another block.
fn record_worker_span(
    trace: &TraceSink,
    w: usize,
    i: usize,
    t0: u64,
    n_items: usize,
    n_workers: usize,
    queue_gauge: Option<&aod_obs::Gauge>,
) {
    // Worker `w`'s dealt block is [n·w/nw, n·(w+1)/nw) (see
    // `deque::deal`); an item outside it reached this worker by stealing.
    let own = n_items * w / n_workers..n_items * (w + 1) / n_workers;
    let stolen = !own.contains(&i);
    let mut args = vec![("item", i as u64), ("stolen", stolen as u64)];
    if let Some(gauge) = queue_gauge {
        args.push(("queue_depth", gauge.get()));
    }
    trace.record_worker(Span {
        id: span_id::worker(trace.next_worker_seq()),
        parent: 0,
        name: if stolen { "steal" } else { "run" },
        cat: "worker",
        tid: (w + 1) as u32,
        start_us: t0,
        dur_us: trace.now_us().saturating_sub(t0),
        args,
    });
}

/// Write-once result slots, indexed by item position.
///
/// This is the one `unsafe` construction in the workspace (everything
/// else carries `#![forbid(unsafe_code)]`). Its soundness rests on the
/// exactly-once claim property of the deque protocol in [`deque`], which
/// is model-checked under all 2–3-thread interleavings by
/// `tests/loom_models.rs`.
struct Slots<R> {
    data: Vec<UnsafeCell<Option<R>>>,
}

// SAFETY: `Slots` is shared across worker threads only for calls to
// `Slots::write`, whose contract requires distinct workers to write
// *distinct* indices — each index is handed out exactly once via a
// `StealQueue` pop (the exactly-once property model-checked in
// `tests/loom_models.rs`) — so no two threads ever touch the same
// `UnsafeCell`. Reads happen only in `into_vec`, after `thread::scope`
// has joined every worker, so no write can be concurrent with a read.
// `R: Send` suffices (no `R: Sync` needed) because no `&R` is ever
// shared across threads: each cell's value is written by one thread and
// moved out on the caller's thread.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Slots<R> {
        Slots {
            data: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// # Safety
    /// `i` must have been claimed by exactly one worker (no other thread
    /// may call `write` with the same `i`), and no read of slot `i` may
    /// be concurrent with this call.
    unsafe fn write(&self, i: usize, value: R) {
        // SAFETY: per this function's contract the caller is the unique
        // writer of index `i` and no reader exists until after join, so
        // the raw pointer is the only live access to this cell.
        unsafe { *self.data[i].get() = Some(value) };
    }

    fn into_vec(self) -> Vec<R> {
        self.data
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("every item index was claimed and computed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_input_order() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..997).collect();
        let out = exec.par_map_indexed(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out.len(), 997);
        assert!(out.iter().enumerate().all(|(i, &r)| r == i * 3));
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.threads() >= 1);
        assert_eq!(Executor::default().threads(), exec.threads());
        assert_eq!(Executor::new(7).threads(), 7);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.par_map_indexed(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let exec = Executor::new(3);
        let counters: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..500).collect();
        exec.par_map_indexed(&items, |_, &i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn per_worker_state_is_threaded_through() {
        let items: Vec<u64> = (0..256).collect();
        // One state per worker the map runs, however wide the executor:
        // each worker tags results with its own state, so every tag must
        // be a valid worker id.
        for (threads, n_items, workers) in [(4, 256, 4), (usize::MAX, 3, 3), (1, 256, 1)] {
            let exec = Executor::new(threads);
            let mut made = 0u64;
            let out = exec.par_map_with_state(
                || {
                    made += 1;
                    vec![made - 1]
                },
                &items[..n_items],
                |state, _i, &x| {
                    state.push(x); // scratch mutation must be allowed
                    state[0]
                },
            );
            assert_eq!(made, workers, "threads = {threads}");
            assert_eq!(out.len(), n_items);
            assert!(out.iter().all(|&tag| tag < workers));
        }
        let mut made = 0;
        let none = Executor::new(4).par_map_with_state(|| made += 1, &items[..0], |_, _, &x| x);
        assert!(none.is_empty());
        assert_eq!(made, 0, "an empty map builds no state");
    }

    #[test]
    fn stealing_covers_skewed_workloads() {
        // Worker 0's block gets all the heavy items; the map still
        // completes with every result present and ordered.
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..64).map(|i| if i < 16 { 200_000 } else { 10 }).collect();
        let out = exec.par_map_indexed(&items, |_, &spins| {
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            spins
        });
        assert_eq!(out, items);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.par_map_indexed(&items, |_, &x| {
                if x == 13 {
                    panic!("unlucky item");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must cross par_map_indexed");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload preserved");
        assert_eq!(msg, "unlucky item");
    }

    #[test]
    fn queue_gauge_fills_then_drains_to_zero_in_both_paths() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 4] {
            let gauge = aod_obs::Gauge::new();
            let exec = Executor::new(threads).with_queue_gauge(gauge.clone());
            let out = exec.par_map_indexed(&items, |_, &x| x);
            assert_eq!(out, items);
            assert_eq!(gauge.get(), 0, "threads={threads}");
        }
    }

    #[test]
    fn trace_records_one_worker_span_per_item_in_the_worker_lane() {
        let clock = Arc::new(aod_obs::ManualClock::new());
        let sink = Arc::new(TraceSink::new(clock));
        let gauge = aod_obs::Gauge::new();
        let exec = Executor::new(4)
            .with_queue_gauge(gauge)
            .with_trace(Arc::clone(&sink));
        let items: Vec<usize> = (0..200).collect();
        let out = exec.par_map_indexed(&items, |_, &x| x);
        assert_eq!(out, items);
        let spans = sink.worker_spans();
        assert_eq!(spans.len(), items.len());
        // Every span sits in the worker lane with a valid worker tid and
        // carries its item index; the deterministic lane stays empty.
        let mut seen: Vec<u64> = spans
            .iter()
            .map(|s| {
                assert!(matches!(s.name, "run" | "steal"));
                assert_eq!(s.cat, "worker");
                assert!((1..=4).contains(&s.tid));
                assert!(s.args.iter().any(|&(k, _)| k == "queue_depth"));
                s.args
                    .iter()
                    .find(|&&(k, _)| k == "item")
                    .expect("item arg")
                    .1
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<u64>>());
        assert!(sink.spans().is_empty());
    }
}
