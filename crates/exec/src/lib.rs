//! # aod-exec — scoped claim-counter executor for level-wise discovery
//!
//! The level-wise lattice traversal validates every node of level `ℓ`
//! independently given the cached level-`ℓ−1` partitions, so the paper's
//! scalability walls (Figures 2–3) are embarrassingly parallel *within a
//! level*. This crate provides the thread substrate for that: a
//! dependency-free (`std::thread` only — the build environment has no
//! crates.io access, so no rayon) scoped executor with
//!
//! * **one claim counter** — workers take the next unclaimed item index
//!   from a shared atomic counter, one item at a time, so a worker that
//!   finishes early simply claims more: skewed per-item costs (one giant
//!   partition class on one node) cannot idle the other cores. A level
//!   hands out a few hundred millisecond-scale items, so one
//!   `fetch_add` per item is noise;
//! * **deterministic output** — [`Executor::par_map_indexed`] returns
//!   results in **input order** regardless of which worker computed what,
//!   which is what lets the discovery engine merge per-node results in
//!   node order and give the same output at every worker count;
//! * **panic propagation** — a panicking closure stops every worker from
//!   claiming further items, and the original payload is re-raised on the
//!   caller's thread (no wedged workers, no swallowed assertion failures);
//! * **per-worker state** — [`Executor::par_map_with_state`] builds one
//!   owned state value (validator scratch, partition scratch) per worker
//!   it runs and threads it through that worker's items, so hot-path
//!   buffers are reused across items without locking.
//!
//! A map never runs more workers than it has items, and a one-worker map
//! (one thread, or a single item) runs the items in order on the caller's
//! thread without counters or spawns — so the discovery engine sends every
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use aod_obs::trace::{span_id, Span, TraceSink};

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

    /// Attaches a queue-depth gauge: each `par_map_*` call adds its item
    /// count on entry and takes one out as each item completes, so an
    /// observer sees the outstanding work in real time. Maps that share
    /// the gauge (every job on one dataset in `aod-serve`, or a map inside
    /// another map's item) add up: the gauge reads the sum of their
    /// unfinished items. A map that panics takes its unfinished items back
    /// out before the panic is re-raised. Purely observational — results
    /// and scheduling are unaffected.
    pub fn with_queue_gauge(mut self, gauge: aod_obs::Gauge) -> Executor {
        self.queue_gauge = Some(gauge);
        self
    }

    /// Attaches a trace sink: multi-worker maps record one `"run"`
    /// worker-lane span per item, carrying the item index and — when a
    /// queue gauge is attached — the queue depth observed at completion.
    /// Worker spans are scheduling-dependent by nature, so they go to the
    /// sink's worker lane, which byte-stable exports exclude (see
    /// [`aod_obs::trace`]). Purely observational.
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
        if items.is_empty() {
            return Vec::new();
        }
        let queued = Queued::new(self.queue_gauge.as_ref(), items.len());
        // Never run more workers than items; a 1-worker map degenerates
        // to the plain in-order loop (no counter, no spawn).
        let n_workers = self.threads.min(items.len());
        if n_workers == 1 {
            let mut state = make_state();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(&mut state, i, item);
                    queued.done_one();
                    r
                })
                .collect();
        }
        let states: Vec<S> = (0..n_workers).map(|_| make_state()).collect();

        // Workers claim indices from one shared counter: each `fetch_add`
        // hands one index to exactly one worker. The counter publishes no
        // data (results come back through `join`), so `Relaxed` suffices.
        // `abort` stops further claims once a sibling has panicked.
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let workers: Vec<Result<Vec<(usize, R)>, Payload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .enumerate()
                .map(|(w, mut state)| {
                    let (next, abort, f, queued) = (&next, &abort, &f, &queued);
                    let trace = self.trace.as_deref();
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        catch_unwind(AssertUnwindSafe(|| {
                            while !abort.load(Ordering::Acquire) {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(i) else { break };
                                let t0 = trace.map(TraceSink::now_us);
                                done.push((i, f(&mut state, i, item)));
                                queued.done_one();
                                if let (Some(trace), Some(t0)) = (trace, t0) {
                                    record_worker_span(trace, w, i, t0, queued.gauge);
                                }
                            }
                        }))
                        .map(|()| done)
                        .map_err(|payload| {
                            abort.store(true, Ordering::Release);
                            payload
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(Err))
                .collect()
        });

        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for done in workers {
            for (i, r) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every index is claimed by exactly one worker"))
            .collect()
    }
}

impl Default for Executor {
    /// One worker per available core (`Executor::new(0)`).
    fn default() -> Executor {
        Executor::new(0)
    }
}

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// One map's share of the queue-depth gauge: its item count is added on
/// creation and taken out one item at a time, and whatever is left when
/// it drops (only after a panic) is taken out then.
struct Queued<'a> {
    gauge: Option<&'a aod_obs::Gauge>,
    left: AtomicUsize,
}

impl<'a> Queued<'a> {
    fn new(gauge: Option<&'a aod_obs::Gauge>, items: usize) -> Queued<'a> {
        if let Some(gauge) = gauge {
            gauge.add(items as u64);
        }
        Queued {
            gauge,
            left: AtomicUsize::new(items),
        }
    }

    /// One item finished.
    fn done_one(&self) {
        if let Some(gauge) = self.gauge {
            self.left.fetch_sub(1, Ordering::Relaxed);
            gauge.sub(1);
        }
    }
}

impl Drop for Queued<'_> {
    fn drop(&mut self) {
        if let Some(gauge) = self.gauge {
            gauge.sub(*self.left.get_mut() as u64);
        }
    }
}

/// Records one `"run"` worker-lane span for a completed item.
fn record_worker_span(
    trace: &TraceSink,
    w: usize,
    i: usize,
    t0: u64,
    queue_gauge: Option<&aod_obs::Gauge>,
) {
    let mut args = vec![("item", i as u64)];
    if let Some(gauge) = queue_gauge {
        args.push(("queue_depth", gauge.get()));
    }
    trace.record_worker(Span {
        id: span_id::worker(trace.next_worker_seq()),
        parent: 0,
        name: "run",
        cat: "worker",
        tid: (w + 1) as u32,
        start_us: t0,
        dur_us: trace.now_us().saturating_sub(t0),
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn skewed_workloads_complete_in_input_order() {
        // The first quarter of the items is heavy; the map still
        // completes with every result present and ordered.
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..64).map(|i| if i < 16 { 200_000 } else { 10 }).collect();
        let out = exec.par_map_indexed(&items, |_, &spins| spin(spins));
        assert_eq!(out, items);
    }

    /// Burns `spins` rounds of arithmetic and returns `spins`.
    fn spin(spins: u64) -> u64 {
        let mut acc = 0u64;
        for k in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        std::hint::black_box(acc);
        spins
    }

    proptest! {
        #[test]
        fn claim_loop_matches_the_sequential_map(
            pick in 0usize..9,
            costs in proptest::collection::vec(0u32..1000, 0..=300),
        ) {
            // 1..=8 workers, or far more workers than items.
            let threads = if pick == 8 { usize::MAX } else { pick + 1 };
            // Skewed per-item cost: about one item in sixteen is heavy.
            let items: Vec<u64> = costs
                .iter()
                .map(|&c| if c % 16 == 0 { 20_000 } else { u64::from(c % 64) })
                .collect();
            let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let mut states = 0usize;
            let out = Executor::new(threads).par_map_with_state(
                || states += 1,
                &items,
                |(), i, &spins| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    spin(spins) * 2 + i as u64
                },
            );
            let sequential: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &spins)| spins * 2 + i as u64)
                .collect();
            prop_assert_eq!(out, sequential);
            prop_assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            prop_assert_eq!(states, threads.min(items.len()));
        }
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
    fn a_panic_stops_the_remaining_claims() {
        // Item 0 panics; 10,000 slow items follow, and none of them
        // starts its work before item 0 has begun to panic. Without the
        // abort flag the other workers would run all of them.
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..10_001).collect();
        let panicking = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.par_map_indexed(&items, |i, _| {
                if i == 0 {
                    panicking.store(true, Ordering::Release);
                    panic!("first item");
                }
                while !panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = result.expect_err("panic must cross par_map_indexed");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("first item"));
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < 10_000, "{ran} slow items ran after the panic");
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

            // Maps that share the gauge add up. Map B's five items run
            // inside map A's first item while A's other two wait, so once
            // B is done the gauge still reads A's three unfinished items.
            let b = Executor::new(threads).with_queue_gauge(gauge.clone());
            let b_done = AtomicBool::new(false);
            let after_b = exec.par_map_indexed(&[0, 1, 2], |i, _| {
                if i > 0 {
                    while !b_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    return None;
                }
                b.par_map_indexed(&[(); 5], |_, _| ());
                let depth = gauge.get();
                b_done.store(true, Ordering::Release);
                Some(depth)
            });
            assert_eq!(after_b[0], Some(3), "threads={threads}");
            assert_eq!(gauge.get(), 0, "threads={threads}");

            // A map that panics takes its unfinished items back out.
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                exec.par_map_indexed(&items, |i, _| assert_ne!(i, 7, "item 7"));
            }));
            assert!(panicked.is_err());
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
                assert_eq!(s.name, "run");
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
