//! Process-wide persistent worker pool for data-parallel kernels.
//!
//! Every threaded kernel in this crate (`matmul`, convolution, the
//! large-tensor elementwise ops) funnels through [`run_partitioned`], which
//! splits an index space into one contiguous chunk per thread and executes
//! the chunks on a lazily-initialized pool of persistent workers. The
//! caller's thread always processes the first chunk itself, so a pool with
//! `t` configured threads spawns at most `t - 1` OS threads.
//!
//! # Thread-count resolution
//!
//! The effective thread count is resolved once, lazily, in this order:
//!
//! 1. `PUFFER_NUM_THREADS` environment variable (a positive integer);
//! 2. [`std::thread::available_parallelism`] otherwise.
//!
//! [`set_num_threads`] overrides the setting at runtime (tests use this to
//! compare identical kernels under different thread counts). With an
//! effective count of 1 — in particular under `PUFFER_NUM_THREADS=1` —
//! every call runs inline on the caller thread and **no worker threads are
//! ever spawned**, so single-threaded CI pays zero threading overhead.
//!
//! # Idle workers
//!
//! A worker that runs out of jobs polls for the next one for
//! [`SPIN_BEFORE_PARK`] before it blocks on the job queue. A training
//! step fans out every few hundred microseconds, and a worker that parks in
//! every gap makes the step's time depend on how the machine treats a
//! sleeping thread's wake-up: on a small virtual machine the hypervisor
//! takes an idle virtual CPU off its core, the guest scheduler then avoids
//! that CPU, and every woken worker lands on the caller's CPU — the same
//! binary runs a quarter slower for as long as that lasts (minutes; see
//! EXPERIMENTS.md, "Steadiness"). Polling through the gaps keeps the
//! worker's CPU in use, so the state does not arise and a cold start leaves
//! it within a second. The cost is bounded: at most [`SPIN_BEFORE_PARK`] of
//! CPU per worker after each dispatch, nothing once the pool is idle.
//!
//! # Determinism
//!
//! [`run_partitioned`] guarantees nothing about *which* thread runs which
//! chunk, only that chunks are contiguous, disjoint, cover `0..n_items`,
//! and have all completed when the call returns. Kernels built on it keep
//! bitwise-deterministic results by making each item's output depend only
//! on the item index — e.g. GEMM partitions over output panels and keeps
//! each element's reduction order identical to the sequential kernel — so
//! the result is the same for every thread count.
//!
//! # Panics
//!
//! A panic inside the partition closure is caught on the worker, all
//! sibling chunks are still waited for (so borrowed data stays alive), and
//! the panic is then resumed on the calling thread.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use puffer_probe as probe;

/// Hard cap on the configurable thread count; guards against absurd
/// `PUFFER_NUM_THREADS` values spawning unbounded OS threads.
pub const MAX_THREADS: usize = 256;

/// How long a worker with nothing to do polls for the next job before it
/// parks on the job queue. It has to outlast the gaps between the
/// fan-outs of one training step (a BatchNorm and its ReLU between two
/// convolutions: 0.08–0.35 ms at the benchmark's sizes, batch 16) and the
/// ~0.2 ms a
/// hypervisor itself polls before it deschedules a halted virtual CPU;
/// below 0.2 ms the stacked state described in the module docs lasted whole
/// runs, from 0.5 ms on a cold start left it within a second.
pub const SPIN_BEFORE_PARK: Duration = Duration::from_micros(500);

/// `0` means "not yet resolved"; any other value is the effective setting.
static SETTING: AtomicUsize = AtomicUsize::new(0);

/// Jobs queued and not yet taken by a worker. Only a hint that tells
/// polling workers when to look at the queue — the queue's mutex hands over
/// the job and everything it borrows — hence `Relaxed`.
static QUEUED: AtomicUsize = AtomicUsize::new(0);

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Notified once per queued job; parked workers wait here.
    ready: Condvar,
    spawned: Mutex<usize>,
}

static POOL: Pool =
    Pool { queue: Mutex::new(VecDeque::new()), ready: Condvar::new(), spawned: Mutex::new(0) };

/// One dispatch's outstanding jobs, counted down to zero. It lives on the
/// dispatcher's stack: a job must not touch it after its own decrement —
/// the dispatcher may already have returned — so each job carries its own
/// handle of the thread to wake.
struct Latch {
    remaining: AtomicUsize,
    /// The payload of a chunk that panicked (the last one, if several did).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    /// Blocks until every job has counted down; returns a chunk's panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        while self.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        self.panic.lock().expect("pool latch lock poisoned").take()
    }
}

fn resolve_default() -> usize {
    if let Ok(v) = std::env::var("PUFFER_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// The current effective thread count (resolving `PUFFER_NUM_THREADS` /
/// hardware parallelism on first use).
pub fn num_threads() -> usize {
    match SETTING.load(Ordering::Relaxed) {
        0 => {
            let n = resolve_default();
            // A concurrent set_num_threads may race us; keep whichever wrote
            // last — both are valid settings.
            SETTING.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed).ok();
            SETTING.load(Ordering::Relaxed)
        }
        n => n,
    }
}

/// Overrides the effective thread count (clamped to `1..=MAX_THREADS`).
///
/// Takes effect for subsequent [`run_partitioned`] calls; already-spawned
/// workers are kept parked rather than torn down when shrinking.
pub fn set_num_threads(n: usize) {
    let clamped = n.clamp(1, MAX_THREADS);
    SETTING.store(clamped, Ordering::Relaxed);
    probe::gauge_set("pool.width", clamped as f64);
}

fn ensure_workers(needed: usize) {
    let mut spawned = POOL.spawned.lock().expect("pool spawn lock poisoned");
    while *spawned < needed {
        std::thread::Builder::new()
            .name(format!("puffer-pool-{spawned}"))
            .spawn(work)
            .expect("failed to spawn puffer-pool worker");
        *spawned += 1;
    }
}

/// A worker's life: take a job, run it, poll for the next one for
/// [`SPIN_BEFORE_PARK`], then block on the queue. When several workers see
/// fewer jobs than there are workers, the ones that find the queue empty
/// again park there until the next dispatch.
fn work() {
    loop {
        let idle = probe::Stopwatch::start();
        while QUEUED.load(Ordering::Relaxed) == 0 && idle.elapsed() < SPIN_BEFORE_PARK {
            std::hint::spin_loop();
        }
        let job = {
            let mut queue = POOL.queue.lock().expect("pool queue lock poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = POOL.ready.wait(queue).expect("pool queue lock poisoned");
            }
        };
        QUEUED.fetch_sub(1, Ordering::Relaxed);
        job();
    }
}

/// Balanced contiguous partition: the first `n_items % parts` chunks get one
/// extra item.
pub(crate) fn chunk_range(n_items: usize, parts: usize, idx: usize) -> Range<usize> {
    let base = n_items / parts;
    let rem = n_items % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

/// Splits `0..n_items` into one contiguous chunk per effective thread and
/// runs `f` on every chunk, blocking until all chunks complete.
///
/// The caller thread runs the first chunk itself; remaining chunks go to
/// the persistent pool. With an effective thread count of 1 (or fewer than
/// 2 items) the whole range runs inline and the pool is never touched.
pub fn run_partitioned<F>(n_items: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let parts = num_threads().min(n_items);
    if parts <= 1 {
        if n_items > 0 {
            f(0..n_items);
        }
        return;
    }

    let n_jobs = parts - 1;
    probe::counter_add("pool.dispatches", 1);
    probe::counter_add("pool.jobs", n_jobs as u64);
    let _sp = probe::span_with("pool", "dispatch", || {
        vec![("items", n_items.into()), ("parts", parts.into())]
    });
    ensure_workers(n_jobs);
    let latch = Latch { remaining: AtomicUsize::new(n_jobs), panic: Mutex::new(None) };
    let this_thread = std::thread::current();
    for idx in 1..parts {
        let range = chunk_range(n_items, parts, idx);
        let dispatcher = this_thread.clone();
        let latch = &latch;
        let fref: &(dyn Fn(Range<usize>) + Sync) = &f;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            // The span runs on the worker thread, so the trace shows
            // per-worker occupancy under the pool's own thread names.
            let sp = probe::span_with("pool", "chunk", || {
                vec![("start", range.start.into()), ("len", range.len().into())]
            });
            let result = catch_unwind(AssertUnwindSafe(|| fref(range)));
            drop(sp);
            if let Err(payload) = result {
                *latch.panic.lock().expect("pool latch lock poisoned") = Some(payload);
            }
            // AcqRel: every chunk's writes happen before the Acquire load
            // that reads zero in `Latch::wait`.
            if latch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                dispatcher.unpark();
            }
        });
        // SAFETY: the job borrows `f` (and anything `f` captures) and
        // `latch` for less than this stack frame: `latch.wait()` below
        // returns only after every dispatched job has counted down, and its
        // decrement is the last time a job touches either. Extending the
        // borrows to 'static therefore never outlives the data.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        QUEUED.fetch_add(1, Ordering::Relaxed);
        POOL.queue.lock().expect("pool queue lock poisoned").push_back(job);
        POOL.ready.notify_one();
    }

    let caller_result = catch_unwind(AssertUnwindSafe(|| f(chunk_range(n_items, parts, 0))));

    // Wait for every dispatched chunk before propagating anything, so
    // borrows held by in-flight jobs cannot dangle.
    let worker_panic = latch.wait();
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Partitions a mutable buffer of `n_items = data.len() / item_len`
/// fixed-size items into per-thread sub-slices and runs
/// `f(first_item_index, chunk)` on each, blocking until all complete.
///
/// This is the safe `&mut`-splitting companion to [`run_partitioned`]: each
/// chunk is a disjoint `&mut [f32]` window aligned to `item_len`, so
/// kernels can write rows/planes in parallel without sharing mutable state.
///
/// # Panics
///
/// Panics if `item_len` is zero or does not divide `data.len()`.
pub fn run_chunked<F>(data: &mut [f32], item_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(item_len > 0, "run_chunked: item_len must be positive");
    assert_eq!(
        data.len() % item_len,
        0,
        "run_chunked: data length {} not divisible by item length {}",
        data.len(),
        item_len
    );
    let n_items = data.len() / item_len;

    struct SendPtr(*mut f32);
    // SAFETY: only disjoint regions derived from distinct chunk ranges are
    // ever dereferenced, and run_partitioned joins all chunks before
    // returning.
    unsafe impl Send for SendPtr {}
    // SAFETY: shared references to SendPtr only ever read the pointer value;
    // the disjointness argument above covers the derived slices.
    unsafe impl Sync for SendPtr {}

    let base = SendPtr(data.as_mut_ptr());
    run_partitioned(n_items, |range: Range<usize>| {
        // Capture the whole SendPtr, not its raw-pointer field (edition 2021
        // disjoint capture would otherwise lose the Send + Sync impls).
        let base = &base;
        // SAFETY: run_partitioned hands every worker a distinct, in-bounds
        // `range` over `n_items`, so each slice covers `data` exclusively and
        // the borrow ends when run_partitioned joins.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                base.0.add(range.start * item_len),
                range.len() * item_len,
            )
        };
        f(range.start, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_balanced_and_cover() {
        for &(n, parts) in &[(10usize, 3usize), (7, 7), (64, 5), (1, 1), (5, 2)] {
            let mut next = 0;
            for idx in 0..parts {
                let r = chunk_range(n, parts, idx);
                assert_eq!(r.start, next, "chunks must be contiguous");
                assert!(r.len() >= n / parts && r.len() <= n / parts + 1);
                next = r.end;
            }
            assert_eq!(next, n, "chunks must cover the full range");
        }
    }

    #[test]
    fn run_partitioned_visits_every_item_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        run_partitioned(hits.len(), |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_chunked_writes_disjoint_rows() {
        let mut data = vec![0.0f32; 12 * 5];
        run_chunked(&mut data, 5, |first, chunk| {
            for (offset, row) in chunk.chunks_exact_mut(5).enumerate() {
                row.fill((first + offset) as f32);
            }
        });
        for (i, row) in data.chunks_exact(5).enumerate() {
            assert!(row.iter().all(|&x| x == i as f32), "row {i} corrupted");
        }
    }

    #[test]
    fn zero_items_is_a_no_op() {
        run_partitioned(0, |_| panic!("must not be called"));
        run_chunked(&mut [], 3, |_, _| panic!("must not be called"));
    }

    #[test]
    fn worker_panic_propagates() {
        let prev = num_threads();
        set_num_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_partitioned(100, |range| {
                if range.end == 100 {
                    panic!("boom in last chunk");
                }
            });
        }));
        set_num_threads(prev);
        assert!(result.is_err(), "panic in a chunk must surface to the caller");
    }

    #[test]
    fn more_jobs_than_workers_and_every_chunk_runs_once() {
        use std::sync::atomic::AtomicU32;
        let prev = num_threads();
        set_num_threads(4);
        // Eight dispatchers at a time keep up to 24 jobs queued for the
        // pool's workers, so jobs wait in the queue and workers take one
        // dispatcher's chunks between another's.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let hits: Vec<AtomicU32> = (0..67).map(|_| AtomicU32::new(0)).collect();
                        run_partitioned(hits.len(), |range| {
                            for i in range {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            }
                        });
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
        set_num_threads(prev);
    }

    #[test]
    fn set_num_threads_clamps() {
        let prev = num_threads();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(usize::MAX);
        assert_eq!(num_threads(), MAX_THREADS);
        set_num_threads(prev);
    }
}
