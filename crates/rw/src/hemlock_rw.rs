//! The native Hemlock reader-writer lock: [`HemlockRw`].
//!
//! Writers keep everything the paper's Listing 2 gives the exclusive lock —
//! SWAP-based FIFO arrival on a one-word tail, address-based handover
//! through the per-thread Grant word, CTR polling — by simply *being* a
//! [`Hemlock`] acquisition: writer-vs-writer ordering, space cost, and
//! coherence behaviour are inherited unchanged. What is new is the read
//! side: a **distributed read-indicator** of per-cache-line striped
//! counters. An arriving reader increments the stripe picked by its
//! thread's stable seed (one uncontended atomic RMW when stripes ≥
//! threads), checks the writer flag, and is in — constant-time arrival, no
//! queue element, nothing allocated per engagement, exactly the property
//! Table 1 prices for the exclusive family.
//!
//! Admission is **writer-preference**: a writer first wins the internal
//! Hemlock lock (serializing writers FIFO), raises the writer flag so new
//! readers turn away, then drains the indicator stripe by stripe. Readers
//! that lose the race decrement, wait for the flag to clear, and retry.
//! Continuous writer traffic can therefore starve readers — the intended
//! trade-off for a read-mostly workload where writers are rare and should
//! not wait behind unbounded reader streams.
//!
//! The drain/withdrawal protocol is model-checked: the **`proto.rw`**
//! scenario (`hemlock_simlock::protocols::rw`, explored exhaustively by
//! `hemlock-model` and the `model-check` CI job) proves
//! `readers-exclude-writer` and `indicator-consistency` over every
//! interleaving at small scope; skipping the writer-flag check
//! (`RwBug::SkipWflagCheck`) or leaking the indicator increment on a
//! timed abort (`RwBug::LeakOnAbort`) is caught by a named invariant.

use core::sync::atomic::{AtomicUsize, Ordering};
use hemlock_core::hemlock::Hemlock;
use hemlock_core::meta::LockMeta;
use hemlock_core::pad::CachePadded;
use hemlock_core::raw::{RawLock, RawRwLock, RawTryLock};
use hemlock_core::spin::SpinWait;
use std::time::Instant;

/// Default number of read-indicator stripes. Sized so that a handful of
/// concurrent readers land on distinct cache lines; raise via the const
/// parameter for very wide read-side parallelism (space grows one line per
/// stripe, priced by [`LockMeta::footprint_bytes`] through `lock_words`).
pub const DEFAULT_STRIPES: usize = 8;

/// Monotonic seed handed to each thread on first use; a thread's stripe for
/// every `HemlockRw<STRIPES>` is `seed % STRIPES`, which spreads the first
/// `STRIPES` threads across distinct stripes perfectly. The seed (not the
/// stripe) is stored so one thread-local serves every stripe count.
static NEXT_SEED: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static STRIPE_SEED: usize = NEXT_SEED.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn stripe_index<const STRIPES: usize>() -> usize {
    STRIPE_SEED.with(|s| *s) % STRIPES
}

/// Native Hemlock reader-writer lock (see the module docs for the design).
///
/// The write path implements [`RawLock`] — `lock` / `unlock` *are*
/// `write_lock` / `write_unlock` — so a `HemlockRw` drops into every
/// exclusive-only call site; `read_lock` / `read_unlock` add the shared
/// mode. Like the rest of the workspace, operations are context-free and
/// must be released by the acquiring thread (the reader's stripe comes
/// from thread-local state). Not reentrant in either mode.
pub struct HemlockRw<const STRIPES: usize = DEFAULT_STRIPES> {
    /// Serializes writers: FIFO arrival and handover via the grant protocol.
    writer: Hemlock,
    /// Write phase flag: non-zero while a writer owns (or is draining
    /// readers for) the lock. Arriving readers back off while set.
    wflag: AtomicUsize,
    /// The distributed read-indicator: per-line striped reader counts.
    readers: [CachePadded<AtomicUsize>; STRIPES],
}

impl<const STRIPES: usize> HemlockRw<STRIPES> {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        assert!(STRIPES > 0, "HemlockRw needs at least one stripe");
        Self {
            writer: Hemlock::new(),
            wflag: AtomicUsize::new(0),
            readers: core::array::from_fn(|_| CachePadded::new(AtomicUsize::new(0))),
        }
    }

    /// Bytes occupied by the read-indicator stripes alone (the space this
    /// design spends beyond the exclusive lock's single word).
    pub const INDICATOR_BYTES: usize = STRIPES * core::mem::size_of::<CachePadded<AtomicUsize>>();

    /// Sum over all stripes: the number of readers currently admitted
    /// (racy; diagnostics only).
    pub fn reader_count(&self) -> usize {
        self.readers.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

impl<const STRIPES: usize> Default for HemlockRw<STRIPES> {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl<const STRIPES: usize> RawLock for HemlockRw<STRIPES> {
    const META: LockMeta = {
        let mut m = LockMeta::base("HemlockRw", "extension: RW over Listing 2");
        // Body = writer tail + flag + the padded stripe array, as measured
        // (alignment rounds the two scalar words up to one full line).
        m.lock_words = core::mem::size_of::<Self>().div_ceil(core::mem::size_of::<usize>());
        m.thread_words = 1; // the writer path's Grant word
                            // Writers hand over FIFO, but readers may overtake waiting writers'
                            // queue positions (and writers starve readers), so global admission
                            // is not FCFS.
        m.fifo = false;
        m.rw = true;
        // Both modes abort cleanly: a timed writer rides the internal
        // Hemlock's conditional arrival and can back out of the drain by
        // dropping the write phase; a timed reader withdraws from its
        // indicator stripe — per-lock state, so (unlike the Grant word) a
        // genuine mid-wait withdrawal is sound here.
        m.try_lock = true;
        m.abortable = true;
        m.asyncable = true;
        m
    };

    /// Exclusive (write) acquisition: win the writer lock, raise the write
    /// phase, drain the read-indicator.
    fn lock(&self) {
        self.writer.lock();
        // SeqCst store-then-scan pairs with the readers' SeqCst
        // increment-then-check: in the total order either the reader's
        // wflag load sees this store (reader backs off) or the reader's
        // stripe increment precedes the scan below (writer waits it out).
        self.wflag.store(1, Ordering::SeqCst);
        for stripe in &self.readers {
            let mut spin = SpinWait::new();
            while stripe.load(Ordering::SeqCst) != 0 {
                spin.wait();
            }
        }
    }

    unsafe fn unlock(&self) {
        self.wflag.store(0, Ordering::SeqCst);
        // Safety: caller holds the write lock, acquired via `lock` above.
        self.writer.unlock();
    }

    /// Shared acquisition: one RMW on this thread's stripe plus one flag
    /// load in the uncontended (no-writer) case.
    fn read_lock(&self) {
        let stripe = &self.readers[stripe_index::<STRIPES>()];
        let mut spin = SpinWait::new();
        loop {
            stripe.fetch_add(1, Ordering::SeqCst);
            if self.wflag.load(Ordering::SeqCst) == 0 {
                return;
            }
            // A writer is present (or draining): withdraw, wait for the
            // write phase to end, retry. The flag stays set for the whole
            // write phase, so the writer's drain cannot livelock.
            stripe.fetch_sub(1, Ordering::AcqRel);
            while self.wflag.load(Ordering::Relaxed) != 0 {
                spin.wait();
            }
        }
    }

    unsafe fn read_unlock(&self) {
        // Release so the critical section's loads are ordered before a
        // draining writer's Acquire observation of the zero.
        self.readers[stripe_index::<STRIPES>()].fetch_sub(1, Ordering::AcqRel);
    }

    fn is_locked_hint(&self) -> Option<bool> {
        if self.writer.is_locked_hint() == Some(true) || self.wflag.load(Ordering::Relaxed) != 0 {
            return Some(true);
        }
        Some(self.reader_count() != 0)
    }
}

// Safety: readers coexist (disjoint stripe increments admit any number
// while wflag is clear); `lock` drains every stripe under a raised wflag
// before returning, so no write acquisition returns while a reader is in
// (and vice versa — see the SeqCst pairing notes inline). META.rw is set.
unsafe impl<const STRIPES: usize> RawRwLock for HemlockRw<STRIPES> {}

// Safety: write successes hold the internal Hemlock with the indicator
// drained under a raised wflag — the same state `lock` confers; read
// successes hold a stripe increment with the wflag observed clear — the
// same state `read_lock` confers. Every abort path restores exactly the
// state it changed (wflag cleared before the writer lock is released; a
// withdrawing reader decrements the stripe it bumped) before returning, so
// a timed-out waiter leaves nothing for others to block on and can never
// be granted the lock later.
unsafe impl<const STRIPES: usize> RawTryLock for HemlockRw<STRIPES> {
    /// Writer trylock: conditional arrival on the internal Hemlock, then a
    /// single pass over the indicator; any reader in flight backs us out.
    fn try_lock(&self) -> bool {
        if !self.writer.try_lock() {
            return false;
        }
        self.wflag.store(1, Ordering::SeqCst);
        for stripe in &self.readers {
            if stripe.load(Ordering::SeqCst) != 0 {
                self.wflag.store(0, Ordering::SeqCst);
                // Safety: acquired just above on this thread.
                unsafe { self.writer.unlock() };
                return false;
            }
        }
        true
    }

    /// Timed writer acquisition: a timed internal-Hemlock acquisition,
    /// then a deadline-bounded drain. A drain timeout withdraws by
    /// dropping the write phase (readers that backed off while our wflag
    /// was up simply retry) and releasing the writer lock.
    fn try_lock_until(&self, deadline: Instant) -> bool {
        if !self.writer.try_lock_until(deadline) {
            return false;
        }
        self.wflag.store(1, Ordering::SeqCst);
        for stripe in &self.readers {
            let mut spin = SpinWait::new();
            while stripe.load(Ordering::SeqCst) != 0 {
                if Instant::now() >= deadline {
                    self.wflag.store(0, Ordering::SeqCst);
                    // Safety: the writer lock was acquired above on this
                    // thread.
                    unsafe { self.writer.unlock() };
                    return false;
                }
                spin.wait();
            }
        }
        true
    }

    /// Reader trylock: one optimistic stripe bump; if a writer is present
    /// the bump is withdrawn and the attempt refused — the same
    /// single-step withdrawal the blocking path performs, so a failed
    /// probe leaves no indicator state.
    fn try_read_lock(&self) -> bool {
        let stripe = &self.readers[stripe_index::<STRIPES>()];
        stripe.fetch_add(1, Ordering::SeqCst);
        if self.wflag.load(Ordering::SeqCst) == 0 {
            return true;
        }
        stripe.fetch_sub(1, Ordering::AcqRel);
        false
    }

    /// Timed reader acquisition: the blocking `read_lock` loop with a
    /// deadline on the back-off wait. The withdrawal (decrementing the
    /// stripe we optimistically bumped) is the *same* step the blocking
    /// path already performs when it loses to a writer — timing out merely
    /// stops retrying.
    fn try_read_lock_until(&self, deadline: Instant) -> bool {
        let stripe = &self.readers[stripe_index::<STRIPES>()];
        let mut spin = SpinWait::new();
        loop {
            stripe.fetch_add(1, Ordering::SeqCst);
            if self.wflag.load(Ordering::SeqCst) == 0 {
                return true;
            }
            stripe.fetch_sub(1, Ordering::AcqRel);
            loop {
                if Instant::now() >= deadline {
                    return false;
                }
                if self.wflag.load(Ordering::Relaxed) == 0 {
                    break;
                }
                spin.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    #[test]
    fn body_accounting_matches_measurement() {
        assert_eq!(
            <HemlockRw>::META.lock_words * core::mem::size_of::<usize>(),
            core::mem::size_of::<HemlockRw>()
        );
        const { assert!(<HemlockRw>::META.rw) };
        // 8 stripes, one line each, plus one line for tail + flag.
        assert_eq!(HemlockRw::<8>::INDICATOR_BYTES, 8 * 128);
        assert_eq!(core::mem::size_of::<HemlockRw<8>>(), 9 * 128);
    }

    #[test]
    fn write_path_is_a_working_mutex() {
        let m: Mutex<u64, HemlockRw> = Mutex::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 20_000);
    }

    #[test]
    fn readers_are_admitted_concurrently() {
        let l: Arc<HemlockRw> = Arc::new(HemlockRw::new());
        l.read_lock();
        let peer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                // Must not block behind the main thread's read hold.
                l.read_lock();
                unsafe { l.read_unlock() };
            })
        };
        peer.join().unwrap();
        assert_eq!(l.reader_count(), 1);
        unsafe { l.read_unlock() };
        assert_eq!(l.reader_count(), 0);
    }

    #[test]
    fn writer_waits_for_readers_and_readers_wait_for_writer() {
        let l: Arc<HemlockRw> = Arc::new(HemlockRw::new());
        let writer_in = Arc::new(AtomicBool::new(false));
        l.read_lock();
        let w = {
            let l = Arc::clone(&l);
            let writer_in = Arc::clone(&writer_in);
            std::thread::spawn(move || {
                l.lock();
                writer_in.store(true, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(10));
                writer_in.store(false, Ordering::Release);
                unsafe { l.unlock() };
            })
        };
        // Wait until the writer has arrived (it has raised its write
        // phase and is draining the readers) instead of sleeping on spawn
        // timing.
        while l.wflag.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert!(
            !writer_in.load(Ordering::Acquire),
            "writer must wait for the reader to drain"
        );
        unsafe { l.read_unlock() };
        // A late reader must never observe the writer inside its phase.
        let r = {
            let l = Arc::clone(&l);
            let writer_in = Arc::clone(&writer_in);
            std::thread::spawn(move || {
                l.read_lock();
                assert!(!writer_in.load(Ordering::Acquire), "reader/writer overlap");
                unsafe { l.read_unlock() };
            })
        };
        w.join().unwrap();
        r.join().unwrap();
    }

    #[test]
    fn no_lost_updates_under_reader_writer_mix() {
        let l: Arc<HemlockRw<4>> = Arc::new(HemlockRw::new());
        let value = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let l = Arc::clone(&l);
                let value = Arc::clone(&value);
                s.spawn(move || {
                    for _ in 0..3_000 {
                        l.lock();
                        // Non-atomic-style RMW: safe only because writers
                        // exclude everyone.
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        unsafe { l.unlock() };
                    }
                });
            }
            for _ in 0..3 {
                let l = Arc::clone(&l);
                let value = Arc::clone(&value);
                s.spawn(move || {
                    for _ in 0..3_000 {
                        l.read_lock();
                        let a = value.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        let b = value.load(Ordering::Relaxed);
                        assert_eq!(a, b, "value changed under a read hold");
                        unsafe { l.read_unlock() };
                    }
                });
            }
        });
        assert_eq!(value.load(Ordering::Relaxed), 6_000);
    }

    #[test]
    fn timed_writer_backs_out_of_the_drain_without_stranding_readers() {
        use std::time::Duration;
        let l: Arc<HemlockRw<4>> = Arc::new(HemlockRw::new());
        l.read_lock();
        // trylock: one pass, immediate back-out.
        assert!(!l.try_lock());
        // timed: bounded drain, then withdrawal.
        let w = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                let got = l.try_lock_for(Duration::from_millis(15));
                (got, t0.elapsed())
            })
        };
        let (got, waited) = w.join().unwrap();
        assert!(!got, "writer must time out behind the reader");
        assert!(waited >= Duration::from_millis(15));
        // The withdrawal dropped the write phase: new readers are admitted
        // immediately while the original hold is still live.
        assert!(l.try_read_lock_for(Duration::from_millis(5)));
        unsafe { l.read_unlock() };
        unsafe { l.read_unlock() };
        // And the writer lock was released: exclusive paths work again.
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn timed_reader_withdraws_from_its_stripe_on_timeout() {
        use std::time::Duration;
        let l: Arc<HemlockRw<4>> = Arc::new(HemlockRw::new());
        l.lock(); // writer in: the wflag stays up
        let r = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || l.try_read_lock_for(Duration::from_millis(10)))
        };
        assert!(
            !r.join().unwrap(),
            "reader must time out during the write phase"
        );
        // The aborted reader left its stripe at zero — a fresh writer's
        // drain must not wait on ghost readers.
        assert_eq!(l.reader_count(), 0);
        unsafe { l.unlock() };
        assert!(l.try_lock_for(Duration::from_millis(10)));
        unsafe { l.unlock() };
        assert!(l.try_read_lock_for(Duration::from_millis(5)));
        unsafe { l.read_unlock() };
    }

    #[test]
    fn locked_hint_tracks_both_modes() {
        let l: HemlockRw = HemlockRw::new();
        assert_eq!(l.is_locked_hint(), Some(false));
        l.read_lock();
        assert_eq!(l.is_locked_hint(), Some(true));
        unsafe { l.read_unlock() };
        assert_eq!(l.is_locked_hint(), Some(false));
        l.lock();
        assert_eq!(l.is_locked_hint(), Some(true));
        unsafe { l.unlock() };
        assert_eq!(l.is_locked_hint(), Some(false));
    }
}
