//! Satellite guarantee: the tensor pool's thread-count controls
//! (`PUFFER_NUM_THREADS`, `set_num_threads`) compose with the trainer's
//! RAII `PoolWidthGuard` under nested probe spans — no deadlock, and the
//! width is restored even when the guarded region panics. One test per
//! file: the pool's width and the probe's state are process-global, and
//! the env var must be read before the pool's first lazy resolution.

use puffer_dist::trainer::PoolWidthGuard;
use puffer_probe as probe;
use puffer_tensor::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn pool_width_guard_nests_with_probe_spans_and_survives_panic() {
    // This process has not touched the pool yet, so the env override is
    // what the first num_threads() call resolves.
    std::env::set_var("PUFFER_NUM_THREADS", "3");
    assert_eq!(pool::num_threads(), 3, "PUFFER_NUM_THREADS must win on first resolution");

    probe::configure(probe::ProbeConfig::in_memory());

    // Guard + nested spans + a real pool dispatch: must complete (no
    // deadlock between the probe's sink lock and the pool's channels).
    {
        let _outer = probe::span("test", "outer");
        let _guard = PoolWidthGuard::cap_for(2);
        let capped = pool::num_threads();
        assert!(capped <= 3, "guard must never widen the pool");
        let _inner = probe::span("test", "inner");
        pool::run_partitioned(64, |range| {
            let _chunk = probe::span("test", "chunk-work");
            let _ = range;
        });
    }
    assert_eq!(pool::num_threads(), 3, "guard must restore the width on drop");
    assert_eq!(probe::span_depth(), 0, "span stack must unwind with the guards");

    // Width restored when the guarded region panics — including a panic
    // raised inside a partitioned chunk and resumed on the caller.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _guard = PoolWidthGuard::cap_for(2);
        let _sp = probe::span("test", "guarded-panic");
        pool::run_partitioned(64, |range| {
            if range.start == 0 {
                panic!("injected chunk panic");
            }
        });
    }));
    assert!(result.is_err(), "the chunk panic must propagate");
    assert_eq!(pool::num_threads(), 3, "guard must restore the width on unwind");

    // Runtime override still works after guards, and the guard composes
    // with it (restoring to whatever was set when it was created).
    #[expect(
        clippy::disallowed_methods,
        reason = "the test plays the user who set a width before the guard was made"
    )]
    pool::set_num_threads(2);
    {
        let _guard = PoolWidthGuard::cap_for(64);
        assert_eq!(pool::num_threads(), 1, "64 workers cap the pool to one thread");
    }
    assert_eq!(pool::num_threads(), 2);

    // The pool width gauge tracked the set_num_threads calls.
    assert_eq!(probe::counter_value("pool.width"), Some(2.0));
    probe::reset();
}
