//! Offline stand-in for the slice of `crossbeam` 0.8 that the crates on the
//! training path use: multi-producer multi-consumer `channel`s (the tensor
//! pool clones its `Receiver`) and `scope`d threads.
//!
//! The channel is one mutex-guarded queue with two condition variables, not
//! crossbeam's lock-free list, so dispatch costs differ from the published
//! crate. Numbers produced by a build against this shim compare only with
//! other builds against this shim.

pub use thread::scope;

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    // `recv_timeout` needs a deadline, not a measurement, and a stand-in for a
    // registry crate cannot depend on the repository's probe.
    // lint:allow(no-wall-clock-outside-probe)
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No code path panics while holding the lock, so a poisoned
            // mutex still guards a consistent queue.
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone it for more consumers. Each message goes
    /// to exactly one receiver.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Every sender is gone and the queue is empty.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why `recv_timeout` returned without a message.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// The deadline passed with senders still alive.
        Timeout,
        /// Every sender is gone and the queue is empty.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// A channel of unlimited capacity: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// A channel holding at most `cap` messages: `send` blocks while full.
    ///
    /// # Panics
    ///
    /// Panics on `cap == 0`; crossbeam's rendezvous channel is not
    /// implemented because nothing in this repository uses it.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "zero-capacity channels are not implemented by this shim");
        with_cap(Some(cap))
    }

    impl<T> Sender<T> {
        /// Queues `msg`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message back if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if self.shared.cap.is_none_or(|cap| st.queue.len() < cap) {
                    break;
                }
                st = self.shared.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let msg = st.queue.pop_front();
            if msg.is_some() && self.shared.cap.is_some() {
                self.shared.not_full.notify_one();
            }
            msg
        }

        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the queue is empty and every sender
        /// has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Blocks until a message arrives or `timeout` passes.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when the deadline passes first,
        /// [`RecvTimeoutError::Disconnected`] once the queue is empty and
        /// every sender has been dropped.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            // lint:allow(no-wall-clock-outside-probe) — deadline, see the import
            let deadline = Instant::now().checked_add(timeout);
            let mut st = self.shared.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                // A timeout too large for `Instant` means "wait forever".
                let Some(deadline) = deadline else {
                    st = self.shared.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
                    continue;
                };
                // lint:allow(no-wall-clock-outside-probe) — deadline, see the import
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .shared
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// See [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                // Nobody can read these; drop them outside the lock.
                let stranded = std::mem::take(&mut st.queue);
                drop(st);
                drop(stranded);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

/// Scoped threads that may borrow from the caller's stack.
pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc, Mutex};

    type Job<'env> = Box<dyn FnOnce() + Send + 'env>;
    type Panics = Arc<Mutex<Vec<Box<dyn Any + Send + 'static>>>>;

    /// Handle for spawning threads that are joined before [`scope`] returns.
    ///
    /// `std::thread::Scope` carries a second lifetime that crossbeam's
    /// one-parameter `Scope<'env>` has no room for, so spawn requests travel
    /// over a channel to a dispatcher thread living inside a
    /// `std::thread::scope`, which performs the actual spawn.
    pub struct Scope<'env> {
        jobs: mpsc::Sender<Job<'env>>,
        panics: Panics,
    }

    impl<'env> Scope<'env> {
        /// Spawns a thread that is joined when the enclosing [`scope`] ends.
        /// The closure receives a scope handle for nested spawns. Unlike
        /// crossbeam this returns no join handle: results travel over
        /// channels everywhere in this repository.
        pub fn spawn<F, T>(&self, f: F)
        where
            F: FnOnce(&Scope<'env>) -> T + Send + 'env,
            T: Send + 'env,
        {
            let child = Scope { jobs: self.jobs.clone(), panics: Arc::clone(&self.panics) };
            let job: Job<'env> = Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drop(f(&child)))) {
                    child.panics.lock().unwrap_or_else(|e| e.into_inner()).push(payload);
                }
            });
            // The dispatcher outlives every `Scope` handle (it exits only
            // when the last sender drops), so the send cannot fail.
            self.jobs.send(job).expect("scope dispatcher exited while a Scope handle was alive");
        }
    }

    /// Runs `f` with a [`Scope`]; every thread spawned through it is joined
    /// before this returns.
    ///
    /// # Errors
    ///
    /// Returns the panic payloads if any spawned thread panicked. A panic
    /// in `f` itself propagates after the children have been joined.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let (jobs, inbox) = mpsc::channel::<Job<'env>>();
        let panics: Panics = Arc::default();
        let result = std::thread::scope(|s| {
            s.spawn(move || {
                // Ends once `f` returned and every child dropped its handle.
                for job in inbox {
                    s.spawn(job);
                }
            });
            let root = Scope { jobs, panics: Arc::clone(&panics) };
            f(&root)
        });
        let panics = std::mem::take(&mut *panics.lock().unwrap_or_else(|e| e.into_inner()));
        if panics.is_empty() {
            Ok(result)
        } else {
            Err(Box::new(panics))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError};
    use super::scope;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn cloned_receivers_get_each_job_exactly_once() {
        const JOBS: usize = 4_000;
        let (tx, rx) = unbounded::<usize>();
        let hits: Vec<AtomicUsize> = (0..JOBS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let hits = &hits;
                s.spawn(move || {
                    for job in rx.iter() {
                        hits[job].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            drop(rx);
            for job in 0..JOBS {
                tx.send(job).unwrap();
            }
            drop(tx); // disconnect ends every consumer's iterator
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn recv_timeout_tells_timeout_from_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        drop(tx);
        // Queued messages outlive their sender.
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Err(RecvTimeoutError::Disconnected));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_once_every_receiver_is_gone() {
        let (tx, rx) = unbounded::<u8>();
        let rx2 = rx.clone();
        drop(rx);
        assert!(tx.send(1).is_ok());
        drop(rx2);
        assert_eq!(tx.send(2).unwrap_err().0, 2);
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(0).unwrap();
        let sent = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send(1).unwrap(); // blocks: the channel is full
                sent.store(1, Ordering::SeqCst);
            });
            // The receive is what lets the blocked send finish, so the
            // order of the two messages is forced, not slept for.
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv(), Ok(1));
        });
        assert_eq!(sent.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_joins_children_and_lets_them_borrow() {
        let done = AtomicUsize::new(0);
        let out = scope(|s| {
            for _ in 0..3 {
                s.spawn(|inner| {
                    inner.spawn(|_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            7
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(done.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn scope_reports_a_child_panic_as_err() {
        let survived = AtomicUsize::new(0);
        let out = scope(|s| {
            s.spawn(|_| panic!("child failed"));
            s.spawn(|_| {
                survived.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(out.is_err());
        assert_eq!(survived.load(Ordering::SeqCst), 1);
    }
}
