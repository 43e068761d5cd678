//! Workspace synchronization facade: one set of lock/condvar/atomic types
//! that compiles against `std` normally and against the vendored `loom`
//! model checker when built with `RUSTFLAGS="--cfg loom"`.
//!
//! Runtime code in this workspace is forbidden (by `cargo xtask lint`) from
//! calling `.unwrap()`/`.expect()` on poisonable lock results. Instead it
//! goes through these types, which *recover* from poisoning: a thread that
//! panics while holding a lock must not cascade into panics in every other
//! thread that touches the same lock — ingestion pipelines degrade a single
//! operator, they do not take the node down. Every recovery is counted and
//! visible via [`poison_recoveries`] so tests (and operators) can tell that
//! the safety net fired.
//!
//! The module also hosts two purpose-built primitives used on the ingestion
//! hot paths, both expressed in terms of the cfg-switched types so their
//! loom models exercise the exact shipping implementation:
//!
//! * [`WakeSignal`] — a latch for background workers (the LSM compactor)
//!   combining a wake flag, a shutdown flag and a timed wait.
//! * [`handoff`] — a small bounded MPSC channel behind every cluster-event
//!   subscriber, so the lost-wakeup proof covers the real code.
//! * [`thread`] — the workspace's only sanctioned way to start an OS
//!   thread. Runtime code is forbidden (by the `raw-thread-spawn` lint
//!   rule) from calling `std::thread::spawn` directly; every background
//!   thread goes through [`thread::spawn_named`] so it carries a name and
//!   is countable.

use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::atomic::Ordering as StdOrdering;

/// Count of poisoned-lock recoveries performed process-wide.
///
/// Deliberately a raw static (not a [`crate::metrics::Counter`]): the
/// metrics registry itself locks through this module, so routing the
/// counter through the registry would recurse.
// lint-allow: static-atomic
static POISON_RECOVERIES: StdAtomicU64 = StdAtomicU64::new(0);

/// How many times a poisoned lock has been recovered process-wide.
///
/// Zero in a healthy process; a non-zero value means some thread panicked
/// while holding a lock and the rest of the system kept going.
pub fn poison_recoveries() -> u64 {
    // relaxed-ok: standalone diagnostic counter, carries no payload
    POISON_RECOVERIES.load(StdOrdering::Relaxed)
}

fn note_recovery() {
    // relaxed-ok: standalone diagnostic counter, carries no payload
    POISON_RECOVERIES.fetch_add(1, StdOrdering::Relaxed);
}

/// Acquire a `std::sync::Mutex`, recovering the guard if it is poisoned.
///
/// For code that holds a bare `std` lock (tests, fixtures, FFI-adjacent
/// structs); new runtime code should prefer [`Mutex`], which recovers
/// internally.
pub fn lock_or_recover<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            poisoned.into_inner()
        }
    }
}

/// Acquire a `std::sync::RwLock` for reading, recovering if poisoned.
pub fn read_or_recover<T: ?Sized>(l: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            poisoned.into_inner()
        }
    }
}

/// Acquire a `std::sync::RwLock` for writing, recovering if poisoned.
pub fn write_or_recover<T: ?Sized>(l: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            poisoned.into_inner()
        }
    }
}

#[cfg(loom)]
pub use loom::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(loom)]
pub mod atomic {
    //! Atomics: loom-modelled under `--cfg loom`, plain `std` otherwise.
    pub use loom::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(not(loom))]
pub use self::std_impl::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub mod atomic {
    //! Atomics: loom-modelled under `--cfg loom`, plain `std` otherwise.
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(not(loom))]
mod std_impl {
    use super::note_recovery;
    use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock};

    fn recover<T: ?Sized>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                note_recovery();
                poisoned.into_inner()
            }
        }
    }

    /// Poison-recovering mutex with a `parking_lot`-style API:
    /// [`Mutex::lock`] returns the guard directly.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(StdMutex<T>);

    /// RAII guard for [`Mutex`].
    ///
    /// The inner guard lives in an `Option` so [`Condvar::wait`] can take
    /// it by value for the underlying `std` wait and put it back after.
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: Option<StdMutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// New unlocked mutex.
        pub const fn new(value: T) -> Self {
            Mutex(StdMutex::new(value))
        }

        /// Consume the mutex, returning the inner value (recovering poison).
        pub fn into_inner(self) -> T {
            match self.0.into_inner() {
                Ok(v) => v,
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the lock, recovering the guard if poisoned.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: Some(recover(&self.0)),
            }
        }

        /// Try to acquire the lock without blocking (recovers poison).
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(g) => Some(MutexGuard { inner: Some(g) }),
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    note_recovery();
                    Some(MutexGuard {
                        inner: Some(p.into_inner()),
                    })
                }
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            match self.0.get_mut() {
                Ok(v) => v,
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            }
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_deref().expect("guard present")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_deref_mut().expect("guard present")
        }
    }

    /// Did a [`Condvar::wait_for`] end because the timeout elapsed?
    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult {
        pub(super) timed_out: bool,
    }

    impl WaitTimeoutResult {
        /// True if the wait ended by timeout rather than notification.
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// Condition variable pairing with [`Mutex`]; waits recover poison.
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// New condition variable.
        pub const fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Block until notified, releasing the guard's lock while waiting.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.inner.take().expect("guard present");
            let inner = match self.0.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            };
            guard.inner = Some(inner);
        }

        /// Block until notified or `timeout` elapses.
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: std::time::Duration,
        ) -> WaitTimeoutResult {
            let inner = guard.inner.take().expect("guard present");
            let (inner, res) = match self.0.wait_timeout(inner, timeout) {
                Ok((g, res)) => (g, res),
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            };
            guard.inner = Some(inner);
            WaitTimeoutResult {
                timed_out: res.timed_out(),
            }
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Poison-recovering reader-writer lock.
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(StdRwLock<T>);

    /// Shared-access guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
    /// Exclusive-access guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

    impl<T> RwLock<T> {
        /// New unlocked lock.
        pub const fn new(value: T) -> Self {
            RwLock(StdRwLock::new(value))
        }

        /// Consume the lock, returning the inner value (recovering poison).
        pub fn into_inner(self) -> T {
            match self.0.into_inner() {
                Ok(v) => v,
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquire shared access, recovering if poisoned.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            match self.0.read() {
                Ok(g) => RwLockReadGuard(g),
                Err(poisoned) => {
                    note_recovery();
                    RwLockReadGuard(poisoned.into_inner())
                }
            }
        }

        /// Acquire exclusive access, recovering if poisoned.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            match self.0.write() {
                Ok(g) => RwLockWriteGuard(g),
                Err(poisoned) => {
                    note_recovery();
                    RwLockWriteGuard(poisoned.into_inner())
                }
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            match self.0.get_mut() {
                Ok(v) => v,
                Err(poisoned) => {
                    note_recovery();
                    poisoned.into_inner()
                }
            }
        }
    }

    impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

/// What ended a [`WakeSignal::wait_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeEvent {
    /// A producer raised the signal ([`WakeSignal::wake`]); the flag has
    /// been consumed.
    Woken,
    /// Shutdown was requested; the flag stays set for subsequent calls.
    Shutdown,
    /// The timeout elapsed with neither flag raised.
    TimedOut,
}

#[derive(Debug, Default)]
struct WakeState {
    wake: bool,
    shutdown: bool,
}

/// Wake latch for background workers (e.g. the LSM compactor thread).
///
/// The flag-under-mutex protocol makes the notify race-free: `wake()` sets
/// the flag *while holding the lock* before notifying, so a worker that is
/// between "checked the flag" and "started waiting" cannot miss it — the
/// loom model in `loom_handoff.rs` proves this exhaustively, and the timed
/// wait is thereby a pure safety net, not a correctness crutch.
#[derive(Debug, Default)]
pub struct WakeSignal {
    state: Mutex<WakeState>,
    cv: Condvar,
}

impl WakeSignal {
    /// New signal with neither flag raised.
    pub fn new() -> Self {
        WakeSignal {
            state: Mutex::new(WakeState::default()),
            cv: Condvar::new(),
        }
    }

    /// Raise the wake flag and notify the worker.
    pub fn wake(&self) {
        let mut st = self.state.lock();
        st.wake = true;
        self.cv.notify_all();
    }

    /// Request shutdown (sticky) and notify the worker.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.cv.notify_all();
    }

    /// True once [`WakeSignal::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Wait until woken, shut down, or `timeout` elapses.
    ///
    /// Shutdown wins over a pending wake so workers drain promptly.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> WakeEvent {
        let mut st = self.state.lock();
        loop {
            if st.shutdown {
                return WakeEvent::Shutdown;
            }
            if st.wake {
                st.wake = false;
                return WakeEvent::Woken;
            }
            if self.cv.wait_for(&mut st, timeout).timed_out() {
                // re-check the flags one last time: a signal raised just as
                // the timeout fired must not be reported as TimedOut
                if st.shutdown {
                    return WakeEvent::Shutdown;
                }
                if st.wake {
                    st.wake = false;
                    return WakeEvent::Woken;
                }
                return WakeEvent::TimedOut;
            }
        }
    }
}

pub mod handoff {
    //! Bounded MPSC handoff channel built on the cfg-switched [`Mutex`] /
    //! [`Condvar`](super::Condvar), so its loom model exercises this exact
    //! implementation.
    //!
    //! Semantics mirror a subset of `crossbeam_channel`: bounded capacity,
    //! non-blocking [`Sender::try_send`]
    //! distinguishing *full* from *disconnected*, blocking [`Sender::send`],
    //! and a blocking [`Receiver::recv`] that reports the disconnect once
    //! every sender is dropped and the queue is drained.

    use super::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Error from [`Sender::try_send`]; returns the rejected value.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The queue is at capacity (the receiver is alive but behind).
        Full(T),
        /// The receiver is gone; no send can ever succeed again.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recover the value that failed to send.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }
    }

    /// Error from [`Sender::send`]: the receiver disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error from [`Receiver::recv`]: all senders disconnected, queue empty.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no value available.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    #[derive(Debug)]
    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        rx_alive: bool,
    }

    #[derive(Debug)]
    struct Chan<T> {
        state: Mutex<State<T>>,
        not_full: Condvar,
        not_empty: Condvar,
    }

    /// Create a bounded channel with capacity `cap` (minimum 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                rx_alive: true,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// Producer half; cloneable (MPSC).
    #[derive(Debug)]
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Consumer half.
    #[derive(Debug)]
    pub struct Receiver<T>(Arc<Chan<T>>);

    impl<T> Sender<T> {
        /// Enqueue without blocking; on failure the value comes back.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.state.lock();
            if !st.rx_alive {
                return Err(TrySendError::Disconnected(value));
            }
            if st.queue.len() >= st.cap {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Values currently queued — the congestion sensor's depth reading
        /// (a point-in-time read; the queue may move before it is used).
        pub fn len(&self) -> usize {
            self.0.state.lock().queue.len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Enqueue, blocking while the queue is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock();
            loop {
                if !st.rx_alive {
                    return Err(SendError(value));
                }
                if st.queue.len() < st.cap {
                    st.queue.push_back(value);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                self.0.not_full.wait(&mut st);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                // wake the receiver so a blocked recv() observes the close
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue, blocking until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                self.0.not_empty.wait(&mut st);
            }
        }

        /// Dequeue, blocking until a value arrives, every sender is gone,
        /// or `timeout` elapses.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.0.state.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                self.0.not_empty.wait_for(&mut st, deadline - now);
            }
        }

        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Option<T> {
            let mut st = self.0.state.lock();
            let v = st.queue.pop_front();
            if v.is_some() {
                self.0.not_full.notify_one();
            }
            v
        }

        /// Number of queued values.
        pub fn len(&self) -> usize {
            self.0.state.lock().queue.len()
        }

        /// True if nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock();
            st.rx_alive = false;
            // wake blocked senders so they observe the disconnect
            self.0.not_full.notify_all();
        }
    }
}

pub mod thread {
    //! Thread-spawn facade: the one place in the workspace allowed to call
    //! `std::thread` spawn primitives directly.
    //!
    //! Every background thread in runtime code must come through
    //! [`spawn_named`] so it (a) carries a meaningful name for debuggers
    //! and `/proc`, and (b) is visible to the process-wide live-thread
    //! count, which the scheduler smoke tests and the thread census use
    //! to prove the runtime is *not* spawning a thread per operator. The
    //! `raw-thread-spawn` xtask rule rejects direct `std::thread::spawn` /
    //! `thread::Builder` calls elsewhere.

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Live threads started through [`spawn_named`] that have not yet
    /// finished their closure.
    // lint-allow: static-atomic
    static FACADE_THREADS: AtomicU64 = AtomicU64::new(0);

    /// Number of threads started via [`spawn_named`] still running.
    pub fn live_threads() -> u64 {
        // relaxed-ok: standalone diagnostic counter, carries no payload
        FACADE_THREADS.load(Ordering::Relaxed)
    }

    struct LiveGuard;

    impl Drop for LiveGuard {
        fn drop(&mut self) {
            // relaxed-ok: standalone diagnostic counter, carries no payload
            FACADE_THREADS.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Spawn a named OS thread.
    ///
    /// Returns `Err` only if the OS refuses to create the thread (resource
    /// exhaustion); callers on degradable paths (e.g. the feed-flow pusher)
    /// can downgrade instead of panicking.
    pub fn spawn_named<T, F>(
        name: impl Into<String>,
        f: F,
    ) -> std::io::Result<std::thread::JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        // relaxed-ok: standalone diagnostic counter, carries no payload
        FACADE_THREADS.fetch_add(1, Ordering::Relaxed);
        let res = std::thread::Builder::new() // spawn-ok: this IS the facade
            .name(name.into())
            .spawn(move || {
                let _live = LiveGuard;
                f()
            });
        if res.is_err() {
            // relaxed-ok: standalone diagnostic counter, carries no payload
            FACADE_THREADS.fetch_sub(1, Ordering::Relaxed);
        }
        res
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn lock_or_recover_survives_poison() {
        let before = poison_recoveries();
        let m = std::sync::Arc::new(std::sync::Mutex::new(7u64));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("first lock"); // lint-allow: lock-unwrap
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock really is poisoned");
        assert_eq!(*lock_or_recover(&m), 7);
        assert!(poison_recoveries() > before);
    }

    #[test]
    fn facade_mutex_recovers_poison() {
        let m = std::sync::Arc::new(Mutex::new(3u64));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison while holding the facade lock");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn rwlock_recovers_poison() {
        let l = std::sync::Arc::new(RwLock::new(1u64));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison while writing");
        })
        .join();
        assert_eq!(*l.read(), 1);
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn wake_signal_roundtrip() {
        let sig = std::sync::Arc::new(WakeSignal::new());
        assert_eq!(
            sig.wait_timeout(Duration::from_millis(1)),
            WakeEvent::TimedOut
        );
        sig.wake();
        assert_eq!(sig.wait_timeout(Duration::from_secs(5)), WakeEvent::Woken);
        // wake flag is consumed
        assert_eq!(
            sig.wait_timeout(Duration::from_millis(1)),
            WakeEvent::TimedOut
        );
        sig.wake();
        sig.shutdown();
        // shutdown wins over a pending wake and is sticky
        assert_eq!(
            sig.wait_timeout(Duration::from_secs(5)),
            WakeEvent::Shutdown
        );
        assert_eq!(
            sig.wait_timeout(Duration::from_millis(1)),
            WakeEvent::Shutdown
        );
        assert!(sig.is_shutdown());
    }

    #[test]
    fn wake_signal_cross_thread() {
        let sig = std::sync::Arc::new(WakeSignal::new());
        let s2 = std::sync::Arc::clone(&sig);
        let t = std::thread::spawn(move || s2.wait_timeout(Duration::from_secs(30)));
        sig.wake();
        assert_eq!(t.join().expect("waiter thread"), WakeEvent::Woken);
    }

    #[test]
    fn handoff_basic_flow() {
        let (tx, rx) = handoff::bounded(2);
        tx.try_send(1u32).expect("room");
        tx.try_send(2u32).expect("room");
        assert!(matches!(
            tx.try_send(3u32),
            Err(handoff::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3u32).expect("room after recv");
        drop(tx);
        let rest: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(rest, vec![2, 3]);
        assert_eq!(rx.recv(), Err(handoff::RecvError));
    }

    #[test]
    fn handoff_disconnect_is_reported() {
        let (tx, rx) = handoff::bounded::<u32>(1);
        drop(rx);
        assert!(matches!(
            tx.try_send(9),
            Err(handoff::TrySendError::Disconnected(9))
        ));
        assert_eq!(tx.send(9), Err(handoff::SendError(9)));
    }

    #[test]
    fn handoff_recv_timeout_paths() {
        let (tx, rx) = handoff::bounded(2);
        tx.try_send(1u32).expect("room");
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(1));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(handoff::RecvTimeoutError::Timeout)
        );
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(2u32)
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        t.join().expect("sender thread").expect("send succeeds");
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(handoff::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn spawn_named_runs_and_counts() {
        let h = thread::spawn_named("sync-facade-test", || 40 + 2).expect("spawn");
        assert_eq!(h.join().expect("join"), 42);
        // the LiveGuard decrements before the closure's thread exits; after
        // join the count must not include this thread any more
        let (tx, rx) = handoff::bounded::<()>(1);
        let h = thread::spawn_named("sync-facade-park", move || {
            let _ = rx.recv();
        })
        .expect("spawn");
        assert!(thread::live_threads() >= 1);
        drop(tx);
        h.join().expect("join");
    }

    #[test]
    fn handoff_blocking_send_unblocks_on_recv() {
        let (tx, rx) = handoff::bounded(1);
        tx.try_send(1u32).expect("room");
        let t = std::thread::spawn(move || tx.send(2u32));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().expect("sender thread").expect("send succeeds");
    }
}
