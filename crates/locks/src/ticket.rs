//! Classic Ticket Lock.
//!
//! Two words, no per-thread data: arrivals take a ticket with `fetch_add`
//! and spin until the `serving` counter reaches it. "They perform well in
//! the absence of contention, exhibiting low latency because of short code
//! paths. Under contention, however, performance suffers because all threads
//! contending for a given lock will busy-wait on a central location,
//! increasing coherence costs" (§1) — the global-spinning behaviour our
//! Figure 2/3 reproductions and the coherence simulator both expose.

use core::sync::atomic::{AtomicU64, Ordering};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_core::spin::SpinWait;

/// Classic two-word ticket lock: FIFO, global spinning.
///
/// The paper notes (§2) that ticket locks admit no *trivial* trylock —
/// taking a ticket with `fetch_add` is already a commitment. The
/// non-trivial form implemented here is **conditional entry**: `try_lock`
/// CASes `next` forward *only when it equals `serving`*, i.e. it takes a
/// ticket only if that ticket would be served immediately. A waiter
/// therefore never joins the line, which is also what makes the timed path
/// ([`RawTryLock::try_lock_for`], deadline-bounded retries of the CAS)
/// abortable: there is never a queue position to withdraw from.
pub struct TicketLock {
    /// Next ticket to hand out.
    next: AtomicU64,
    /// Ticket currently being served; all waiters spin here (globally).
    serving: AtomicU64,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
        }
    }

    /// Number of arrivals so far (tests and instrumentation).
    #[doc(hidden)]
    pub fn arrivals(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// True when some thread holds the lock.
    pub fn is_locked(&self) -> bool {
        self.next.load(Ordering::Relaxed) != self.serving.load(Ordering::Relaxed)
    }
}

impl Default for TicketLock {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl RawLock for TicketLock {
    const META: LockMeta = {
        let mut m = LockMeta::base("Ticket", "§4, Table 1");
        m.lock_words = 2; // next-ticket + now-serving
        m.fifo = true;
        m.try_lock = true; // conditional entry (see the type docs)
        m.abortable = true; // …which never queues, so aborts are free
        m.asyncable = true; // free aborts => safe as the async queue guard
        m
    };

    fn lock(&self) {
        // Uncontended acquisition is a single fetch-and-add (§2).
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut spin = SpinWait::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            spin.wait();
        }
    }

    unsafe fn unlock(&self) {
        // Only the owner writes `serving`: plain add-and-store, wait-free.
        let next = self.serving.load(Ordering::Relaxed) + 1;
        self.serving.store(next, Ordering::Release);
    }

    fn is_locked_hint(&self) -> Option<bool> {
        Some(self.is_locked())
    }
}

// Safety: the CAS takes ticket `serving` only while `next == serving`, so a
// success means our ticket is the one being served — ownership exactly as
// `lock()` confers it (Acquire on success pairs with unlock's Release). A
// failure takes no ticket at all: nothing to withdraw, so the provided
// timed methods (deadline-bounded retries) satisfy the abortable contract.
unsafe impl RawTryLock for TicketLock {
    fn try_lock(&self) -> bool {
        // Acquire: the happens-before edge with the previous holder comes
        // from observing its `unlock` (a Release store to `serving`) —
        // the CAS below is on `next`, which release paths never write, so
        // this load is the only place that pairing can happen.
        let serving = self.serving.load(Ordering::Acquire);
        // `next >= serving` always; if another arrival or a release slips
        // in between the load and the CAS, `next` has moved past our stale
        // `serving` view and the CAS fails harmlessly.
        self.next
            .compare_exchange(serving, serving + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    crate::baseline_tests!(super::TicketLock, arrival: |l| l.arrivals());

    #[test]
    fn lock_body_is_two_words() {
        assert_eq!(core::mem::size_of::<TicketLock>(), 16);
    }

    #[test]
    fn conditional_entry_try_lock_confers_real_ownership() {
        let l = TicketLock::new();
        assert!(l.try_lock());
        assert!(l.is_locked());
        assert!(!l.try_lock(), "held: conditional entry must refuse");
        unsafe { l.unlock() };
        // The refused attempt took no ticket: FIFO accounting is intact.
        assert_eq!(l.arrivals(), 1);
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn try_lock_refuses_while_a_queue_exists() {
        use std::sync::Arc;
        let l = Arc::new(TicketLock::new());
        l.lock();
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.lock(); // joins the line behind the holder
                unsafe { l.unlock() };
            })
        };
        while l.arrivals() < 2 {
            std::hint::spin_loop();
        }
        // next(2) != serving(0): conditional entry must refuse rather than
        // barge past the queued waiter.
        assert!(!l.try_lock());
        unsafe { l.unlock() };
        waiter.join().unwrap();
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn timed_acquisition_times_out_and_leaves_fifo_state_clean() {
        use std::time::Duration;
        let l = TicketLock::new();
        l.lock();
        let t0 = std::time::Instant::now();
        assert!(!l.try_lock_for(Duration::from_millis(10)));
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(
            l.arrivals(),
            1,
            "aborted waiter must not have taken a ticket"
        );
        unsafe { l.unlock() };
        assert!(l.try_lock_for(Duration::from_millis(5)));
        unsafe { l.unlock() };
    }

    #[test]
    fn is_locked_tracks_state() {
        let l = TicketLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        unsafe { l.unlock() };
        assert!(!l.is_locked());
    }

    #[test]
    fn fifo_admission_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let l = Arc::new(TicketLock::new());
        let order = Arc::new(AtomicUsize::new(0));
        let finish: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(usize::MAX)).collect());

        l.lock();
        let mut handles = Vec::new();
        for i in 0..4 {
            let prev = l.arrivals();
            let l2 = Arc::clone(&l);
            let order2 = Arc::clone(&order);
            let finish2 = Arc::clone(&finish);
            handles.push(std::thread::spawn(move || {
                l2.lock();
                finish2[i].store(order2.fetch_add(1, Ordering::AcqRel), Ordering::Release);
                unsafe { l2.unlock() };
            }));
            // The doorstep here is the fetch_add on `next`.
            while l.arrivals() == prev {
                std::hint::spin_loop();
            }
        }
        unsafe { l.unlock() };
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(finish[i].load(Ordering::Acquire), i);
        }
    }
}
