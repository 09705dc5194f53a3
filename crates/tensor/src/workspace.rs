//! Thread-local scratch arenas: size-bucketed reuse of `f32` buffers.
//!
//! Every dense kernel and every [`Tensor`](crate::Tensor) constructor in
//! this crate draws its storage from here, and [`Tensor`](crate::Tensor)'s
//! `Drop` returns the storage, so a steady-state training step — one that
//! repeats the allocation pattern of the previous step — performs **zero**
//! fresh heap allocations: every `take` is served from a buffer the
//! previous step returned.
//!
//! # Architecture
//!
//! Each OS thread owns a private arena (a `thread_local!`), holding free
//! buffers in power-of-two size classes: class `c` keeps `Vec<f32>`s with
//! `capacity ≥ 2^c`. Taking a buffer of length `len` pops from class
//! `⌈log₂ len⌉`; recycling keys the buffer at `⌊log₂ capacity⌋`, so any
//! buffer found in a class is always large enough for any request routed
//! to that class. There is no cross-thread free list and no locking: the
//! threaded GEMM path stays lock-free, and a buffer that migrates between
//! threads inside a `Tensor` (e.g. through a channel) is simply recycled
//! into the arena of whichever thread drops it.
//!
//! # Determinism
//!
//! Pooled execution is **bitwise identical** to fresh allocation: before
//! any element of a buffer handed out can be read, it has been
//!
//! * *zeroed* ([`take_zeroed`], [`take`]) — kernels that rely on
//!   zero-initialized storage (the direct convolutions' zero borders, the
//!   scatter of `conv2d_grad_input`, `im2col`'s implicit padding) see
//!   exactly the state a fresh `vec![0.0; len]` would give them;
//! * *copied* from a source slice ([`take_copied`]) or pushed by its
//!   producer ([`take_with_capacity`]); or
//! * *fully overwritten by its kernel* ([`take_unfilled`],
//!   [`take_unfilled_vec`]): the GEMM engine's packing blocks, which
//!   `PanelSource::pack_panel` must overwrite element for element, and the
//!   outputs of kernels that store every element they own (the engine's C,
//!   the direct convolutions' `y` and `dx`). Filling those first is a pass
//!   over memory nobody reads. The rule for taking a buffer this way: a
//!   fill may go only where the writer provably stores every element that
//!   is later read. Debug builds hold the rule to account — the buffer
//!   comes back filled with NaN, so an element the kernel skipped poisons
//!   whatever reads it and every bitwise suite run under `cargo test` fails
//!   loudly; release builds hand the buffer over untouched.
//!
//! So recycled contents can never leak into results. [`set_enabled`]
//! switches the whole subsystem off so tests can compare pooled and fresh
//! execution bit for bit.
//!
//! # Counters
//!
//! When the probe layer is on, the workspace records:
//!
//! * `alloc.pool_hits` — takes served from a recycled buffer;
//! * `alloc.pool_misses` — takes that had to touch the heap (every take
//!   counts as a miss while the workspace is disabled, so the same counter
//!   measures the allocation rate of pooled *and* fresh execution);
//! * `alloc.fresh_bytes` — bytes of fresh heap capacity those misses
//!   requested.
//!
//! The steady-state test suite asserts that after a two-step warm-up a
//! training step advances `alloc.pool_misses` by zero.

use puffer_probe as probe;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// One free list per power-of-two size class.
const N_CLASSES: usize = usize::BITS as usize;

/// Per-thread cap on retained free bytes; recycling beyond it frees the
/// buffer instead, bounding worst-case memory held by idle threads.
pub const MAX_ARENA_BYTES: usize = 256 << 20;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns buffer reuse on or off process-wide (default: on).
///
/// While disabled, every take allocates fresh storage and every recycle
/// frees — the exact allocation behaviour the crate had without the
/// workspace. Results are bitwise identical either way; tests and the
/// `alloc-churn` experiment use this to compare the two regimes.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether buffer reuse is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Arena {
    /// `free[c]` holds buffers with `capacity ≥ 2^c`.
    free: Vec<Vec<Vec<f32>>>,
    held_bytes: usize,
}

impl Arena {
    fn new() -> Self {
        Arena { free: (0..N_CLASSES).map(|_| Vec::new()).collect(), held_bytes: 0 }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Smallest class whose buffers can hold `len` elements: `⌈log₂ len⌉`.
#[inline]
fn class_for_len(len: usize) -> usize {
    debug_assert!(len > 0);
    (usize::BITS - (len - 1).leading_zeros()) as usize
}

/// Class a buffer of `capacity` belongs to: `⌊log₂ capacity⌋`, so every
/// buffer filed under class `c` has `capacity ≥ 2^c`.
#[inline]
fn class_for_capacity(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Pops a pooled buffer (capacity ≥ `len`, still holding whatever its last
/// user left in it, at whatever length) or allocates an empty one.
fn take_raw(len: usize) -> Vec<f32> {
    if enabled() {
        // `try_with` so a take during thread-local teardown degrades to a
        // fresh allocation instead of panicking.
        let reused = ARENA
            .try_with(|cell| {
                let mut arena = cell.borrow_mut();
                let buf = arena.free[class_for_len(len)].pop();
                if let Some(b) = &buf {
                    arena.held_bytes -= b.capacity() * std::mem::size_of::<f32>();
                }
                buf
            })
            .ok()
            .flatten();
        if let Some(buf) = reused {
            probe::counter_add("alloc.pool_hits", 1);
            return buf;
        }
    }
    let cap = if enabled() { 1usize << class_for_len(len) } else { len };
    probe::counter_add("alloc.pool_misses", 1);
    probe::counter_add("alloc.fresh_bytes", (cap * std::mem::size_of::<f32>()) as u64);
    Vec::with_capacity(cap)
}

/// An empty pooled buffer with capacity for at least `len` elements.
///
/// Callers push/extend exactly `len` elements; used when every element is
/// produced sequentially so zero-initialization would be a wasted pass.
pub fn take_with_capacity(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let mut buf = take_raw(len);
    buf.clear();
    buf
}

/// A pooled buffer of exactly `len` zeros — the pooled `vec![0.0; len]`.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let mut buf = take_raw(len);
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// A pooled buffer of exactly `len` elements of no particular value, for a
/// kernel that overwrites every one of them before anything reads it (module
/// docs, "Determinism"). A recycled buffer keeps what its last user left in
/// it — only elements past that user's length are written, with zeros, so
/// no element is ever uninitialized memory; under `debug_assertions` all of
/// it is NaN instead.
pub fn take_unfilled_vec(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let mut buf = take_raw(len);
    if cfg!(debug_assertions) {
        buf.clear();
        buf.resize(len, f32::NAN);
    } else {
        // Shrinks without touching an element, or appends zeros to the
        // stale prefix.
        buf.resize(len, 0.0);
    }
    buf
}

/// A pooled buffer holding a copy of `src` — the pooled `src.to_vec()`.
pub fn take_copied(src: &[f32]) -> Vec<f32> {
    if src.is_empty() {
        return Vec::new();
    }
    let mut buf = take_raw(src.len());
    buf.clear();
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the current thread's arena (or frees it when the
/// workspace is disabled, the buffer has no capacity, or the arena is at
/// its byte cap).
pub fn recycle(buf: Vec<f32>) {
    let capacity = buf.capacity();
    if capacity == 0 || !enabled() {
        return;
    }
    let bytes = capacity * std::mem::size_of::<f32>();
    // `Err` only during thread-local teardown: the buffer is simply freed,
    // which is always sound.
    ARENA
        .try_with(move |cell| {
            let mut arena = cell.borrow_mut();
            if arena.held_bytes + bytes <= MAX_ARENA_BYTES {
                arena.held_bytes += bytes;
                arena.free[class_for_capacity(capacity)].push(buf);
            }
        })
        .ok();
}

/// Frees every buffer held by the current thread's arena (test isolation).
pub fn clear_thread_arena() {
    // `Err` only during thread-local teardown, when the arena is gone anyway.
    ARENA
        .try_with(|cell| {
            let mut arena = cell.borrow_mut();
            for class in &mut arena.free {
                class.clear();
            }
            arena.held_bytes = 0;
        })
        .ok();
}

/// Bytes currently held by the calling thread's free lists.
pub fn thread_arena_bytes() -> usize {
    ARENA.try_with(|cell| cell.borrow().held_bytes).unwrap_or(0)
}

/// A scratch buffer borrowed from the pool; RAII-returned on drop.
///
/// Dereferences to `[f32]`, so kernels use it exactly like the
/// `Vec<f32>` it replaces.
pub struct ScratchBuf {
    buf: Vec<f32>,
}

impl ScratchBuf {
    /// The buffer as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// The buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.buf));
    }
}

/// Takes a zeroed scratch buffer of `len` elements from the pool.
pub fn take(len: usize) -> ScratchBuf {
    ScratchBuf { buf: take_zeroed(len) }
}

/// Takes a scratch buffer of `len` elements that its user overwrites in full
/// before reading any ([`take_unfilled_vec`]).
pub fn take_unfilled(len: usize) -> ScratchBuf {
    ScratchBuf { buf: take_unfilled_vec(len) }
}

/// The workspace facade: associated-function spellings of the module API.
pub struct Workspace;

impl Workspace {
    /// See [`take`].
    pub fn take(len: usize) -> ScratchBuf {
        take(len)
    }

    /// See [`take_zeroed`].
    pub fn take_zeroed(len: usize) -> Vec<f32> {
        take_zeroed(len)
    }

    /// See [`take_copied`].
    pub fn take_copied(src: &[f32]) -> Vec<f32> {
        take_copied(src)
    }

    /// See [`recycle`].
    pub fn recycle(buf: Vec<f32>) {
        recycle(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(1024), 10);
        assert_eq!(class_for_len(1025), 11);
        assert_eq!(class_for_capacity(1), 0);
        assert_eq!(class_for_capacity(1023), 9);
        assert_eq!(class_for_capacity(1024), 10);
        // Invariant: anything recycled into a class satisfies any take
        // routed to that class.
        for cap in [1usize, 2, 3, 7, 8, 9, 100, 1 << 20] {
            for len in 1..=cap {
                if class_for_capacity(cap) == class_for_len(len) {
                    assert!(cap >= len);
                }
            }
        }
    }

    #[test]
    fn take_zeroed_is_zeroed_after_dirty_recycle() {
        let mut dirty = vec![7.5f32; 100];
        dirty.reserve(28); // capacity 128 → class 7
        recycle(dirty);
        let buf = take_zeroed(100); // class 7: must reuse and re-zero
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_unfilled_is_poisoned_in_debug_and_untouched_in_release() {
        clear_thread_arena();
        let mut dirty = vec![7.5f32; 100];
        dirty.reserve(28); // capacity 128 → class 7
        recycle(dirty);
        // Class 7 again, longer than what the last user left behind.
        let buf = take_unfilled(120);
        assert_eq!(buf.len(), 120);
        if cfg!(debug_assertions) {
            // A kernel that skipped an element would hand on a NaN.
            assert!(buf.iter().all(|x| x.is_nan()));
        } else {
            // No pass over the stale prefix; zeros only past its end.
            assert!(buf[..100].iter().all(|&x| x == 7.5));
            assert!(buf[100..].iter().all(|&x| x == 0.0));
        }
        drop(buf);
        // Shorter than the stale contents: nothing is written at all.
        let buf = take_unfilled_vec(70);
        assert_eq!(buf.len(), 70);
        if !cfg!(debug_assertions) {
            assert!(buf.iter().all(|&x| x == 7.5));
        }
        // A fresh allocation has no stale contents to hand over.
        clear_thread_arena();
        let fresh = take_unfilled_vec(9);
        assert!(fresh.iter().all(|&x| if cfg!(debug_assertions) { x.is_nan() } else { x == 0.0 }));
        // And the zeroed takes still zero a buffer that comes back dirty.
        recycle(vec![f32::NAN; 64]);
        assert!(take(64).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_copied_matches_source() {
        recycle(vec![9.0f32; 64]);
        let src: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let buf = take_copied(&src);
        assert_eq!(buf, src);
    }

    #[test]
    fn scratch_buf_round_trips() {
        clear_thread_arena();
        let before = thread_arena_bytes();
        {
            let mut s = take(1000);
            assert_eq!(s.len(), 1000);
            assert!(s.iter().all(|&x| x == 0.0));
            s[3] = 4.0;
            assert_eq!(s.as_slice()[3], 4.0);
        }
        assert!(thread_arena_bytes() > before, "drop must return the buffer");
        let s2 = take(1000);
        assert!(s2.iter().all(|&x| x == 0.0), "reused buffer must be re-zeroed");
    }

    #[test]
    fn zero_len_takes_are_empty_and_free() {
        assert!(take_zeroed(0).is_empty());
        assert!(take_copied(&[]).is_empty());
        assert!(take_unfilled_vec(0).is_empty());
        assert!(take_with_capacity(0).capacity() == 0);
        recycle(Vec::new()); // no-op
    }

    #[test]
    fn disabled_mode_allocates_fresh() {
        clear_thread_arena();
        recycle(vec![1.0f32; 32]); // lands in the arena while enabled
        set_enabled(false);
        let buf = take_zeroed(32);
        assert!(buf.iter().all(|&x| x == 0.0));
        recycle(buf); // freed, not pooled
        set_enabled(true);
        // The enabled-mode buffer is still there from before.
        assert!(thread_arena_bytes() >= 32 * 4);
        clear_thread_arena();
    }

    #[test]
    fn workspace_facade_delegates() {
        let s = Workspace::take(8);
        assert_eq!(s.len(), 8);
        let z = Workspace::take_zeroed(4);
        assert_eq!(z, vec![0.0; 4]);
        let c = Workspace::take_copied(&[1.0, 2.0]);
        Workspace::recycle(c);
        Workspace::recycle(z);
    }
}
