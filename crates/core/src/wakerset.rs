//! [`WakerSet`]: a notify-on-release registry that bridges *synchronous*
//! lock users and *asynchronous* waiters.
//!
//! The `hemlock-async` waker queue owns its lock state outright, so it
//! can hand off directly. The sharded table and minikv cannot take that
//! route: their locks are ordinary raw locks, released by plain guard
//! drops all over existing synchronous code. An async waiter for such a
//! lock therefore parks in a `WakerSet`, and **every release path
//! notifies** — the sync guards are taught to call
//! [`WakerSet::notify_all`] after their raw unlock.
//!
//! This is an *eventcount*, not a grant queue: a notified waker re-runs
//! its trylock and may lose the race to a concurrent (possibly
//! synchronous) acquirer, in which case it re-registers. Stale
//! registrations (a waiter that got its lock, or a dropped future) are
//! drained on the next notification and waking a finished task is a
//! no-op, so cancellation needs no bookkeeping here — there is nothing a
//! stale waker can acquire.
//!
//! # The register/notify protocol
//!
//! Lost wakeups are excluded by a store-buffering (Dekker) fence pair:
//!
//! - **waiter**: register the waker, `fence(SeqCst)`, then *re-try* the
//!   lock; only a second failure parks.
//! - **releaser**: raw unlock, `fence(SeqCst)`, then check the registered
//!   count and wake.
//!
//! Either the releaser's count read observes the registration (waiter gets
//! woken) or the waiter's re-try observes the unlock (waiter gets the
//! lock). The releaser's cost when no async waiter exists is one fence and
//! one load — paid on every release of a bridged lock, the documented
//! price of mixing sync and async users on one lock.
//!
//! This argument is model-checked: the **`proto.wakerset`** scenario
//! (`hemlock_simlock::protocols::wakerset`, explored exhaustively by
//! `hemlock-model` and the `model-check` CI job) encodes the fence pair
//! as program order and proves `no-lost-wakeup` over every interleaving
//! at small scope; dropping either half of the pair
//! (`DekkerBug::SkipRecheck` / `DekkerBug::NotifyBeforeRelease`) is
//! caught as a lost wakeup.
//!
//! # Blocking on the same protocol
//!
//! [`block_on`] is how a *thread* waits on a `WakerSet`: it drives a
//! future on the calling thread and parks between polls, with a waker
//! that sets a flag and unparks. The synchronous batch paths
//! (`ShardedTable::apply_batch`, `Db::apply_batch`) are exactly
//! `block_on` of their asynchronous forms, so each batch has one
//! implementation and one park protocol.

use crate::hemlock::Hemlock;
use crate::Mutex;
use core::cell::Cell;
use core::future::Future;
use core::pin::Pin;
use core::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use core::task::{Context, Poll, Waker};
use std::sync::Arc;

/// A compact registry of parked wakers, guarded by a one-word Hemlock
/// lock. See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct WakerSet {
    /// Registered-waker count; the releaser's fast-path check.
    registered: AtomicUsize,
    /// The parked wakers (a Hemlock-guarded vector: registration is rare —
    /// it is the contended slow path — so a compact spin lock is right).
    wakers: Mutex<Vec<Waker>, Hemlock>,
}

impl WakerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `waker` for the next [`WakerSet::notify_all`]. The caller
    /// **must** re-try its lock acquisition after this returns and only
    /// park on a second failure (the fence pair below and in `notify_all`
    /// is what makes that protocol lose no wakeups).
    pub fn register(&self, waker: &Waker) {
        self.wakers.lock().push(waker.clone());
        self.registered.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Convenience: [`WakerSet::register`] from a poll context.
    pub fn register_current(&self, cx: &Context<'_>) {
        self.register(cx.waker());
    }

    /// Wakes and drains every registered waker. Called by releasers
    /// *after* their raw unlock; the empty-set fast path is one fence and
    /// one relaxed load.
    pub fn notify_all(&self) {
        fence(Ordering::SeqCst);
        if self.registered.load(Ordering::Relaxed) == 0 {
            return;
        }
        let drained: Vec<Waker> = {
            let mut g = self.wakers.lock();
            self.registered.store(0, Ordering::Relaxed);
            core::mem::take(&mut *g)
        };
        // Wake outside the guard: waker code is arbitrary (it may schedule
        // tasks, take executor locks) and must not run under a spin lock.
        for w in drained {
            w.wake();
        }
    }

    /// Number of currently registered wakers (diagnostics; racy).
    pub fn len(&self) -> usize {
        self.registered.load(Ordering::Relaxed)
    }

    /// True when no waker is registered (diagnostics; racy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The flag-and-unpark half of [`block_on`]'s waker: a wake sets
/// `notified` and unparks `thread`, which consumes the flag before its
/// next poll.
struct ThreadWaker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl std::task::Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// A thread's waker and the state its wakes set.
struct CachedWaker {
    state: Arc<ThreadWaker>,
    waker: Waker,
}

impl CachedWaker {
    fn new() -> Self {
        let state = Arc::new(ThreadWaker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&state));
        Self { state, waker }
    }
}

std::thread_local! {
    /// The calling thread's waker, built on its first `block_on`.
    static THREAD_WAKER: CachedWaker = CachedWaker::new();
    /// Set while a `block_on` on this thread uses [`THREAD_WAKER`]. A
    /// nested call then builds a waker of its own, so two loops never
    /// consume each other's wakes.
    static IN_USE: Cell<bool> = const { Cell::new(false) };
}

/// Clears [`IN_USE`] on every exit of the outermost `block_on`,
/// unwinding too.
struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        IN_USE.with(|busy| busy.set(false));
    }
}

/// Runs a future to completion on the current thread, parking between
/// polls.
///
/// The waker is built once per thread and reused, which keeps a call that
/// never parks to a few nanoseconds. A wake that arrives after a call
/// returned — a registration left in a [`WakerSet`] by a future that then
/// completed — costs the thread's next call one extra poll and is
/// otherwise harmless.
///
/// ```
/// use hemlock_core::block_on;
///
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
#[inline]
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = core::pin::pin!(fut);
    if IN_USE.with(|busy| busy.replace(true)) {
        return run(fut, &CachedWaker::new());
    }
    let _release = Release;
    match THREAD_WAKER.try_with(|waker| run(fut.as_mut(), waker)) {
        Ok(out) => out,
        // The cache is gone only while the thread's locals are torn down.
        Err(_) => run(fut, &CachedWaker::new()),
    }
}

/// The poll-park loop of [`block_on`], on the given waker.
#[inline]
fn run<F: Future>(mut fut: Pin<&mut F>, parker: &CachedWaker) -> F::Output {
    let mut cx = Context::from_waker(&parker.waker);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        while !parker.state.notified.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::task::Wake;

    struct Counting(StdAtomicUsize);
    impl Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn notify_drains_and_wakes_everyone_once() {
        let set = WakerSet::new();
        let flags: Vec<Arc<Counting>> = (0..3)
            .map(|_| Arc::new(Counting(StdAtomicUsize::new(0))))
            .collect();
        for f in &flags {
            set.register(&Waker::from(Arc::clone(f)));
        }
        assert_eq!(set.len(), 3);
        set.notify_all();
        assert!(set.is_empty());
        assert!(flags.iter().all(|f| f.0.load(Ordering::SeqCst) == 1));
        // Idempotent on an empty set.
        set.notify_all();
        assert!(flags.iter().all(|f| f.0.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn re_registration_after_a_drain_is_seen_by_the_next_notify() {
        let set = WakerSet::new();
        let f = Arc::new(Counting(StdAtomicUsize::new(0)));
        set.register(&Waker::from(Arc::clone(&f)));
        set.notify_all();
        set.register(&Waker::from(Arc::clone(&f)));
        set.notify_all();
        assert_eq!(f.0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn nested_block_on_takes_a_fresh_waker_and_the_outer_keeps_its_wake() {
        // The outer future's own wake arrives *before* it runs a nested
        // `block_on`. Sharing one waker, the inner loop would consume that
        // wake and the outer call would park forever.
        let mut outer_polls = 0;
        let done = block_on(core::future::poll_fn(|cx| {
            outer_polls += 1;
            if outer_polls == 2 {
                return Poll::Ready(true);
            }
            cx.waker().wake_by_ref();
            let outer = cx.waker().clone();
            let mut inner_polls = 0;
            let inner_fresh = block_on(core::future::poll_fn(|icx| {
                inner_polls += 1;
                if inner_polls == 2 {
                    return Poll::Ready(!icx.waker().will_wake(&outer));
                }
                icx.waker().wake_by_ref();
                Poll::Pending
            }));
            assert!(inner_fresh, "the nested call shared the outer waker");
            Poll::Pending
        }));
        assert!(done);
        assert_eq!(outer_polls, 2);
        // Both loops returned their wakers: a following call still works.
        assert_eq!(block_on(async { 5 }), 5);
    }

    #[test]
    fn stale_wake_from_a_finished_call_costs_one_poll_and_loses_nothing() {
        let set = WakerSet::new();
        // Call 1 registers the thread's waker, then finishes anyway: the
        // registration stays in the set.
        block_on(core::future::poll_fn(|cx| {
            set.register_current(cx);
            Poll::Ready(())
        }));
        assert_eq!(set.len(), 1);
        let polls = StdAtomicUsize::new(0);
        std::thread::scope(|s| {
            block_on(core::future::poll_fn(|cx| {
                match polls.fetch_add(1, Ordering::SeqCst) {
                    0 => {
                        // The stale registration fires during call 2 and
                        // reaches call 2's waker.
                        set.notify_all();
                        Poll::Pending
                    }
                    1 => {
                        // Polled again by the stale wake alone. Now arm
                        // this call's own wake, from another thread.
                        let own = cx.waker().clone();
                        s.spawn(move || own.wake());
                        Poll::Pending
                    }
                    _ => Poll::Ready(()),
                }
            }));
        });
        assert_eq!(polls.load(Ordering::SeqCst), 3);
        assert!(set.is_empty());
    }

    #[test]
    fn register_then_retry_protocol_loses_no_wakeup_under_a_real_lock() {
        // The protocol end to end, against a real raw lock: a "holder"
        // thread acquires/releases in a loop (notifying after every
        // release, as the bridged guards do); "waiter" threads follow
        // register → re-try → park. Every waiter must eventually acquire —
        // a lost wakeup would park one forever and hang the test.
        use crate::raw::{RawLock, RawTryLock};
        let set = Arc::new(WakerSet::new());
        let lock = Arc::new(crate::hemlock::Hemlock::default());
        let acquired = Arc::new(StdAtomicUsize::new(0));
        // Miri interprets every wait iteration; keep its schedule short.
        let per_waiter = if cfg!(miri) { 10 } else { 200 };
        std::thread::scope(|s| {
            for _ in 0..3 {
                let set = Arc::clone(&set);
                let lock = Arc::clone(&lock);
                let acquired = Arc::clone(&acquired);
                s.spawn(move || {
                    for _ in 0..per_waiter {
                        loop {
                            if lock.try_lock() {
                                break;
                            }
                            let me = Arc::new(Counting(StdAtomicUsize::new(0)));
                            set.register(&Waker::from(Arc::clone(&me)));
                            if lock.try_lock() {
                                break;
                            }
                            // Park (bounded spin stands in for a real
                            // executor park) until some release notifies.
                            let mut spins = 0u64;
                            while me.0.load(Ordering::SeqCst) == 0 && spins < 100_000_000 {
                                std::thread::yield_now();
                                spins += 1;
                            }
                            assert!(
                                me.0.load(Ordering::SeqCst) > 0,
                                "lost wakeup: waiter parked forever"
                            );
                        }
                        acquired.fetch_add(1, Ordering::SeqCst);
                        // Safety: acquired in the loop above.
                        unsafe { lock.unlock() };
                        set.notify_all(); // releaser side of the protocol
                    }
                });
            }
        });
        assert_eq!(acquired.load(Ordering::SeqCst), 3 * per_waiter);
        set.notify_all();
        assert!(set.is_empty());
    }
}
