//! Anderson's array-based queueing lock (related work, §4).
//!
//! "Anderson's array-based queueing lock is based on Ticket Locks but
//! provides local spinning. It employs a waiting array for each lock
//! instance, sized to ensure there is at least one array element for each
//! potentially waiting thread, yielding a potentially large footprint. The
//! maximum number of participating threads must be known in advance when
//! initializing the lock." — the space/locality trade-off Table 1 positions
//! Hemlock against.

use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use hemlock_core::meta::LockMeta;
use hemlock_core::pad::CachePadded;
use hemlock_core::raw::RawLock;
use hemlock_core::spin::SpinWait;

/// Default waiting-array capacity (maximum simultaneous threads per lock).
pub const DEFAULT_SLOTS: usize = 64;

/// Anderson array lock: FIFO, local spinning, one padded flag per potential
/// waiter. `SLOTS` bounds the number of threads that may contend at once.
pub struct AndersonLock<const SLOTS: usize = DEFAULT_SLOTS> {
    /// `flags[i]` is true when the thread holding ticket `i % SLOTS` may
    /// enter.
    flags: [CachePadded<AtomicBool>; SLOTS],
    /// Ticket dispenser.
    tail: AtomicUsize,
    /// The owner's slot index, carried from lock to unlock under the lock
    /// itself (context-free interface, same trick as our MCS head field).
    head: AtomicUsize,
}

impl<const SLOTS: usize> AndersonLock<SLOTS> {
    /// Creates an unlocked lock. Slot 0 starts enabled.
    pub fn new() -> Self {
        let flags = core::array::from_fn(|i| CachePadded::new(AtomicBool::new(i == 0)));
        Self {
            flags,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Bytes occupied by the waiting array (Table 1's "potentially large
    /// footprint").
    pub const ARRAY_BYTES: usize = SLOTS * core::mem::size_of::<CachePadded<AtomicBool>>();
}

impl<const SLOTS: usize> Default for AndersonLock<SLOTS> {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl<const SLOTS: usize> RawLock for AndersonLock<SLOTS> {
    const META: LockMeta = {
        let mut m = LockMeta::base("Anderson", "§4 related work");
        // Padded waiting array plus head + tail; the struct's cache-line
        // alignment rounds the two scalar words up to one more full line.
        m.lock_words =
            (SLOTS + 1) * (hemlock_core::pad::CACHE_LINE / core::mem::size_of::<usize>());
        m.fifo = true;
        m
    };

    fn lock(&self) {
        let slot = self.tail.fetch_add(1, Ordering::Relaxed) % SLOTS;
        let mut spin = SpinWait::new();
        while !self.flags[slot].load(Ordering::Acquire) {
            spin.wait();
        }
        // Consume the permission so the slot can be reused a lap later.
        self.flags[slot].store(false, Ordering::Relaxed);
        self.head.store(slot, Ordering::Relaxed);
    }

    unsafe fn unlock(&self) {
        let slot = self.head.load(Ordering::Relaxed);
        self.flags[(slot + 1) % SLOTS].store(true, Ordering::Release);
    }

    fn is_locked_hint(&self) -> Option<bool> {
        // The grant slot the *next* arrival would take: its flag is true
        // exactly when the lock is free with an empty queue (the previous
        // owner enabled it and nobody has consumed it). A holder clears its
        // own flag on entry, and with waiters queued the dispenser has
        // advanced to a slot whose flag is still false — so a false flag at
        // `tail % SLOTS` means "engaged". Racy by nature (the ticket may
        // advance between the two loads); statistics only, per the trait.
        let next = self.tail.load(Ordering::Relaxed) % SLOTS;
        Some(!self.flags[next].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    crate::baseline_tests!(super::AndersonLock<64>, arrival: |l| {
        l.tail.load(std::sync::atomic::Ordering::Relaxed) as u64
    });

    #[test]
    fn array_footprint_is_large() {
        // The point Table 1 makes: the waiting array dwarfs a Hemlock lock.
        assert_eq!(AndersonLock::<64>::ARRAY_BYTES, 64 * 128);
        assert!(core::mem::size_of::<AndersonLock<64>>() >= 64 * 128);
    }

    #[test]
    fn wraps_around_the_array() {
        let l: AndersonLock<4> = AndersonLock::new();
        // More acquisitions than slots: indices wrap and flags recycle.
        for _ in 0..13 {
            l.lock();
            unsafe { l.unlock() };
        }
    }

    #[test]
    fn locked_hint_tracks_the_grant_slot() {
        let l: AndersonLock<4> = AndersonLock::new();
        // Across wraps: free → held → free must stay visible in the hint.
        for _ in 0..13 {
            assert_eq!(l.is_locked_hint(), Some(false));
            l.lock();
            assert_eq!(l.is_locked_hint(), Some(true));
            unsafe { l.unlock() };
        }
        assert_eq!(l.is_locked_hint(), Some(false));
    }

    #[test]
    fn locked_hint_sees_queued_waiters() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let l: Arc<AndersonLock<8>> = Arc::new(AndersonLock::new());
        let release = Arc::new(AtomicBool::new(false));
        l.lock();
        let waiter = {
            let l = Arc::clone(&l);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                l.lock();
                while !release.load(std::sync::atomic::Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                unsafe { l.unlock() };
            })
        };
        // Holder plus a queued waiter: the hint must say engaged
        // throughout, including right after ownership transfers. Wait for
        // the waiter's ticket first — unlocking before it arrives would
        // correctly read "free".
        while l.tail.load(std::sync::atomic::Ordering::Relaxed) < 2 {
            std::hint::spin_loop();
        }
        assert_eq!(l.is_locked_hint(), Some(true));
        unsafe { l.unlock() };
        assert_eq!(l.is_locked_hint(), Some(true), "waiter now holds it");
        release.store(true, std::sync::atomic::Ordering::Release);
        waiter.join().unwrap();
        assert_eq!(l.is_locked_hint(), Some(false));
    }

    #[test]
    fn small_array_contended() {
        use std::sync::Arc;
        let l: Arc<AndersonLock<8>> = Arc::new(AndersonLock::new());
        let c = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        l.lock();
                        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        unsafe { l.unlock() };
                    }
                });
            }
        });
        assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), 8_000);
    }
}
