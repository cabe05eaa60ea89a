//! [`RwFromRaw`]: a reader-writer variant of any exclusive lock.
//!
//! The construction is the classic "mutex as admission gate" RW lock:
//! readers acquire the underlying lock only long enough to bump a shared
//! read count, then release it and run concurrently; a writer acquires the
//! underlying lock for its *whole* critical section, first waiting for the
//! in-flight readers to drain. Because the gate is held across the drain,
//! readers arriving while a writer waits (or runs) queue behind it on the
//! gate and are then admitted together as a batch when the writer leaves —
//! with a FIFO gate (Hemlock, MCS, CLH, Ticket) admission alternates
//! between the writer and the reader batch that accumulated behind it, the
//! practical phase-fairness property (no mode starves the other) that
//! group-mutual-exclusion designs aim for. With an unfair gate (TAS/TTAS)
//! fairness degrades exactly as the underlying lock's does.
//!
//! Space: the underlying body plus one shared counter word — the adapter
//! preserves the catalog entry's Table 1 character (a one-word Hemlock
//! gate yields a two-word RW lock), at the cost of every reader arrival
//! bouncing the gate and the counter line. [`HemlockRw`](crate::HemlockRw)
//! trades those two shared lines for a striped indicator when read
//! scalability matters more than body size.

use core::sync::atomic::{AtomicUsize, Ordering};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawRwLock, RawTryLock};
use hemlock_core::spin::SpinWait;
use std::time::Instant;

/// Reader-writer adapter over any [`RawLock`] (see the module docs).
///
/// Not reentrant in either mode: a reader re-entering `read_lock` while a
/// writer waits on the gate deadlocks, exactly like re-locking an
/// exclusive lock.
#[derive(Default)]
pub struct RwFromRaw<L: RawLock> {
    /// Admission gate: held briefly by arriving readers, for the whole
    /// critical section by writers.
    gate: L,
    /// In-flight readers (admitted, not yet released).
    readers: AtomicUsize,
}

impl<L: RawLock> RwFromRaw<L> {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self {
            gate: L::default(),
            readers: AtomicUsize::new(0),
        }
    }

    /// In-flight reader count (racy; diagnostics only).
    pub fn reader_count(&self) -> usize {
        self.readers.load(Ordering::Relaxed)
    }
}

unsafe impl<L: RawLock> RawLock for RwFromRaw<L> {
    const META: LockMeta = {
        // Inherit the gate's descriptor: same display name (the rw catalog
        // patches it to an `RW-` spelling), same fairness/parking/init
        // character, same per-thread and per-engagement state.
        let mut m = L::META;
        m.lock_words = core::mem::size_of::<Self>().div_ceil(core::mem::size_of::<usize>());
        // Trylock and the timed family are inherited from the gate: a
        // writer's trylock takes the gate conditionally and *backs out of
        // the drain* by releasing the gate (the readers it found were never
        // excluded, so the withdrawal is free); a reader's is the gate
        // trylock around the count bump. Gates that cannot trylock (CLH,
        // Anderson) leave both bits false here too.
        m.try_lock = L::META.try_lock;
        m.abortable = L::META.abortable;
        m.asyncable = L::META.asyncable;
        m.rw = true;
        m
    };

    /// Exclusive (write) acquisition: take the gate, drain the readers.
    fn lock(&self) {
        self.gate.lock();
        let mut spin = SpinWait::new();
        // Acquire pairs with read_unlock's Release: the readers' critical
        // sections are ordered before this writer's writes.
        while self.readers.load(Ordering::Acquire) != 0 {
            spin.wait();
        }
    }

    unsafe fn unlock(&self) {
        // Safety: the caller holds the gate, acquired in `lock`.
        self.gate.unlock();
    }

    /// Shared acquisition: pass through the gate, bumping the read count.
    fn read_lock(&self) {
        self.gate.lock();
        // Relaxed is enough: the gate's release/acquire edges order this
        // increment before any later writer's drain loop.
        self.readers.fetch_add(1, Ordering::Relaxed);
        // Safety: acquired just above on this thread.
        unsafe { self.gate.unlock() };
    }

    unsafe fn read_unlock(&self) {
        self.readers.fetch_sub(1, Ordering::Release);
    }

    fn is_locked_hint(&self) -> Option<bool> {
        if self.readers.load(Ordering::Relaxed) != 0 {
            return Some(true);
        }
        self.gate.is_locked_hint()
    }
}

// Safety: readers coexist (the gate is released right after the count
// bump); `lock` returns only with the gate held and the count drained, so
// no write acquisition overlaps a read hold — the gate excludes writers
// from arriving readers and the drain excludes them from admitted ones.
// META.rw is set above.
unsafe impl<L: RawLock> RawRwLock for RwFromRaw<L> {}

// Safety: every success path holds the gate with the reader count drained
// (write) or has bumped the count under the gate (read) — exactly the
// states `lock`/`read_lock` confer. Every failure path releases the gate
// before returning, so an aborted attempt leaves no state: readers it
// observed were never excluded, and no waiter can block on anything the
// aborter did.
unsafe impl<L: RawTryLock> RawTryLock for RwFromRaw<L> {
    /// Writer trylock: take the gate conditionally; if readers are in
    /// flight, back out by releasing the gate.
    fn try_lock(&self) -> bool {
        if !self.gate.try_lock() {
            return false;
        }
        if self.readers.load(Ordering::Acquire) != 0 {
            // Safety: acquired just above on this thread.
            unsafe { self.gate.unlock() };
            return false;
        }
        true
    }

    /// Timed writer acquisition: a timed gate acquisition followed by a
    /// deadline-bounded drain. A drain timeout *withdraws* by releasing
    /// the gate — the in-flight readers were never excluded, so the
    /// batched readers queued behind us on the gate are admitted as if we
    /// had never arrived.
    fn try_lock_until(&self, deadline: Instant) -> bool {
        if !self.gate.try_lock_until(deadline) {
            return false;
        }
        let mut spin = SpinWait::new();
        while self.readers.load(Ordering::Acquire) != 0 {
            if Instant::now() >= deadline {
                // Safety: the gate was acquired above on this thread.
                unsafe { self.gate.unlock() };
                return false;
            }
            spin.wait();
        }
        true
    }

    /// Reader trylock: a conditional pass through the gate around the
    /// count bump — one attempt, no waiting, genuinely shared (a read-held
    /// lock leaves the gate free, so concurrent probes all succeed).
    fn try_read_lock(&self) -> bool {
        if !self.gate.try_lock() {
            return false;
        }
        self.readers.fetch_add(1, Ordering::Relaxed);
        // Safety: acquired just above on this thread.
        unsafe { self.gate.unlock() };
        true
    }

    /// Timed reader acquisition: a timed pass through the gate around the
    /// count bump. Once the bump lands the reader is admitted — there is
    /// no post-admission wait to abort from.
    fn try_read_lock_until(&self, deadline: Instant) -> bool {
        if !self.gate.try_lock_until(deadline) {
            return false;
        }
        self.readers.fetch_add(1, Ordering::Relaxed);
        // Safety: acquired just above on this thread.
        unsafe { self.gate.unlock() };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use hemlock_core::Mutex;
    use hemlock_locks::{McsLock, TicketLock};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn meta_inherits_the_gate_and_adds_the_counter() {
        type Rw = RwFromRaw<Hemlock>;
        const { assert!(Rw::META.rw) };
        const { assert!(Rw::META.try_lock && Rw::META.abortable) };
        // A non-try gate propagates honesty.
        const { assert!(!RwFromRaw::<hemlock_locks::ClhLock>::META.try_lock) };
        const { assert!(!RwFromRaw::<hemlock_locks::ClhLock>::META.abortable) };
        assert_eq!(Rw::META.name, "Hemlock");
        assert_eq!(Rw::META.thread_words, 1);
        // One-word gate + one counter word, as measured.
        assert_eq!(
            Rw::META.lock_words * core::mem::size_of::<usize>(),
            core::mem::size_of::<Rw>()
        );
        assert_eq!(Rw::META.lock_words, 2);
    }

    fn readers_coexist<L: RawLock + 'static>() {
        let l: Arc<RwFromRaw<L>> = Arc::new(RwFromRaw::new());
        l.read_lock();
        let peer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.read_lock();
                unsafe { l.read_unlock() };
            })
        };
        peer.join().unwrap();
        unsafe { l.read_unlock() };
        assert_eq!(l.reader_count(), 0);
    }

    #[test]
    fn readers_coexist_over_representative_gates() {
        readers_coexist::<Hemlock>();
        readers_coexist::<McsLock>();
        readers_coexist::<TicketLock>();
    }

    #[test]
    fn writer_excludes_and_is_excluded() {
        let l: Arc<RwFromRaw<Hemlock>> = Arc::new(RwFromRaw::new());
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
        // Wait until the writer has arrived (it holds the gate and is
        // draining the readers) instead of sleeping on spawn timing.
        while l.gate.is_locked_hint() != Some(true) {
            std::thread::yield_now();
        }
        assert!(
            !writer_in.load(Ordering::Acquire),
            "writer must wait for the reader"
        );
        unsafe { l.read_unlock() };
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
    fn mixed_traffic_loses_no_updates() {
        let m: Mutex<u64, RwFromRaw<McsLock>> = Mutex::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..3_000 {
                        *m.lock() += 1;
                    }
                });
            }
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..3_000 {
                        let g = m.read();
                        let a = *g;
                        std::hint::spin_loop();
                        assert_eq!(a, *g, "value changed under a read hold");
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 6_000);
    }

    #[test]
    fn writer_try_and_timed_paths_respect_readers() {
        use std::time::Duration;
        let l: RwFromRaw<Hemlock> = RwFromRaw::new();
        // Uncontended: both writer paths acquire.
        assert!(l.try_lock());
        unsafe { l.unlock() };
        assert!(l.try_lock_for(Duration::from_millis(5)));
        unsafe { l.unlock() };
        // A reader in flight: the writer trylock backs out of the drain…
        l.read_lock();
        assert!(!l.try_lock());
        let t0 = std::time::Instant::now();
        assert!(!l.try_lock_for(Duration::from_millis(15)));
        assert!(t0.elapsed() >= Duration::from_millis(15));
        // …and the withdrawal released the gate: a new reader is admitted
        // immediately (timed read path), proving nothing was left behind.
        assert!(l.try_read_lock_for(Duration::from_millis(5)));
        unsafe { l.read_unlock() };
        unsafe { l.read_unlock() };
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn timed_reader_times_out_behind_a_writer_and_recovers() {
        use std::sync::Arc;
        use std::time::Duration;
        let l: Arc<RwFromRaw<Hemlock>> = Arc::new(RwFromRaw::new());
        l.lock(); // writer holds the gate for its whole critical section
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || l.try_read_lock_for(Duration::from_millis(10)))
        };
        assert!(!waiter.join().unwrap(), "reader must time out on the gate");
        unsafe { l.unlock() };
        assert!(l.try_read_lock_for(Duration::from_millis(5)));
        unsafe { l.read_unlock() };
        assert_eq!(l.reader_count(), 0);
    }

    #[test]
    fn locked_hint_sees_readers_and_the_gate() {
        let l: RwFromRaw<Hemlock> = RwFromRaw::new();
        assert_eq!(l.is_locked_hint(), Some(false));
        l.read_lock();
        assert_eq!(l.is_locked_hint(), Some(true));
        unsafe { l.read_unlock() };
        l.lock();
        assert_eq!(l.is_locked_hint(), Some(true));
        unsafe { l.unlock() };
        assert_eq!(l.is_locked_hint(), Some(false));
    }
}
