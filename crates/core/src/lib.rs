//! # hemlock-core
//!
//! A from-scratch reproduction of **Hemlock: Compact and Scalable Mutual
//! Exclusion** (Dave Dice & Alex Kogan, SPAA 2021; extended version
//! arXiv:2102.03863).
//!
//! Hemlock is a mutual-exclusion lock that is:
//!
//! - **compact** — one word per lock plus one word per thread, regardless of
//!   how many locks are held or waited upon;
//! - **context-free** — nothing is passed from `lock` to the matching
//!   `unlock`, so it drops into `pthread_mutex`-shaped APIs;
//! - **FIFO** — admission follows arrival (the SWAP on the lock's `Tail`);
//! - **fere-locally spinning** — at most *k* threads ever spin on one word,
//!   where *k* is the number of locks concurrently associated with that
//!   word's owning thread (and *k = 1*, i.e. purely local spinning, whenever
//!   threads hold one contended lock at a time — the common case).
//!
//! ## Quick start
//!
//! ```
//! use hemlock_core::{Mutex, hemlock::Hemlock};
//!
//! let account: Mutex<i64, Hemlock> = Mutex::new(100);
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| *account.lock() += 25);
//!     }
//! });
//! assert_eq!(*account.lock(), 200);
//! ```
//!
//! ## The three-layer lock API
//!
//! This crate defines the first two layers of the workspace's lock API
//! (the third, the string-keyed algorithm catalog, lives in
//! `hemlock-locks::catalog` where every algorithm is visible):
//!
//! 1. **Typed core** — the context-free [`raw::RawLock`] /
//!    [`raw::RawTryLock`] traits (`lock`/`unlock` only, nothing passed
//!    between them — the paper's §1 pthread-compatibility requirement),
//!    each implementor carrying a single [`meta::LockMeta`] descriptor
//!    (`L::META`) with its name, Table 1 space accounting, and
//!    FIFO/trylock/parking capabilities. [`mutex::Mutex<T, L>`] is the
//!    guard-based, zero-cost wrapper at this layer.
//! 2. **Dynamic layer** — the object-safe [`dynlock::DynLock`] trait and
//!    [`dynlock::DynMutex<T>`], which mirror the typed API but select the
//!    algorithm at *runtime* (the Rust analog of the paper's §5
//!    `LD_PRELOAD` interposition). [`dynlock::TryLockError`] distinguishes
//!    "busy" from "this algorithm has no trylock".
//!
//! Both layers carry a *shared-mode* extension: [`raw::RawLock::read_lock`]
//! / [`raw::RawLock::read_unlock`] default to the exclusive path, and
//! reader-writer algorithms ([`raw::RawRwLock`], advertised via
//! [`meta::LockMeta`]'s `rw` bit) override them to admit concurrent
//! readers. [`dynrw::DynRwLock`] / [`dynrw::DynRwMutex`] are the
//! object-safe counterpart; the implementations (`HemlockRw`, the
//! `RwFromRaw` adapter) and the `rw.*` catalog live in `hemlock-rw`.
//!
//! Both layers also carry an **abortable (timed) acquisition** extension:
//! [`raw::RawTryLock::try_lock_for`] / `try_lock_until` (and the shared
//! `try_read_lock_for`) give bounded-wait acquisition with the guarantee
//! that a timed-out waiter never receives the lock afterwards and leaves no
//! protocol state behind. The capability is advertised by
//! [`meta::LockMeta`]'s `abortable` bit; algorithms whose waiters cannot
//! withdraw once advertised (CLH, Anderson) leave it false and the dynamic
//! layer reports [`dynlock::TryLockError::Unsupported`]. See [`raw`] for
//! why queue withdrawal is unsound under Hemlock's single multiplexed
//! Grant word and the timed path therefore uses *conditional arrival*.
//!
//! ```
//! use hemlock_core::{Mutex, hemlock::Hemlock};
//! use std::time::Duration;
//!
//! let m: Mutex<u32, Hemlock> = Mutex::new(1);
//! let held = m.lock();
//! // A bounded wait instead of wedging behind the holder:
//! assert!(m.try_lock_for(Duration::from_millis(5)).is_none());
//! drop(held);
//! assert_eq!(*m.try_lock_for(Duration::from_millis(5)).unwrap(), 1);
//! ```
//!
//! ```
//! use hemlock_core::dynlock::{boxed_try, DynMutex};
//! use hemlock_core::hemlock::Hemlock;
//!
//! let m = DynMutex::new(boxed_try::<Hemlock>(), 0u64);
//! *m.lock() += 1;
//! assert_eq!(m.meta().name, "Hemlock");
//! assert_eq!(m.meta().lock_words, 1); // compact: one word per lock…
//! assert_eq!(m.meta().thread_words, 1); // …plus one word per thread
//! ```
//!
//! ## Layout of this crate
//!
//! - [`hemlock`] — the algorithm family: the Listing 1 reference algorithm,
//!   the CTR-optimized default, and the Overlap / Aggressive-Hand-over /
//!   Optimized-Hand-over (V1, V2) / parking / chain variants from the
//!   paper's appendices, plus an instrumented build for the §5.4 censuses.
//! - [`raw`] — the context-free [`raw::RawLock`] / [`raw::RawTryLock`]
//!   traits every lock in this workspace (including the MCS/CLH/Ticket
//!   baselines in `hemlock-locks`) implements.
//! - [`meta`] — the [`meta::LockMeta`] algorithm descriptor.
//! - [`mutex`] — a guard-based `Mutex<T, L>` over any raw lock.
//! - [`dynlock`] — the object-safe dynamic layer: [`dynlock::DynLock`],
//!   [`dynlock::DynMutex`], and the raw→dyn adapters.
//! - [`registry`] — the per-thread Grant-slot arena (leak-and-recycle, with
//!   the paper's drain-before-reclaim rule).
//! - [`spin`] — busy-wait policy (pure spin vs spin-then-yield).
//! - [`pad`] — cache-line padding used for all contended words.
//! - [`events`] — the lock-event emission seam `hemlock-obs` installs its
//!   census sink into (a few relaxed loads when no sink is installed).
//! - [`wakerset`] — [`wakerset::WakerSet`], the notify-on-release
//!   eventcount that lets synchronous raw-lock releases wake asynchronous
//!   waiters (the `hemlock-async` subsystem's sync↔async bridge; it lives
//!   here so the sharded table and minikv need no async dependency).

#![deny(missing_docs)]

pub mod dynlock;
pub mod dynrw;
pub mod events;
pub mod hemlock;
pub mod meta;
pub mod mutex;
pub mod pad;
pub mod raw;
pub mod registry;
pub mod spin;
pub mod wakerset;

pub use dynlock::{DynLock, DynMutex, DynMutexGuard, TryLockError};
pub use dynrw::{DynRwLock, DynRwMutex, DynRwReadGuard, DynRwWriteGuard};
pub use meta::LockMeta;
pub use mutex::{Mutex, MutexGuard, ReadGuard};
pub use raw::{RawLock, RawRwLock, RawTryLock};
pub use wakerset::{block_on, WakerSet};

#[cfg(test)]
mod proptests {
    use crate::hemlock::{Hemlock, HemlockAh, HemlockNaive, HemlockOverlap, HemlockV1, HemlockV2};
    use crate::mutex::Mutex;
    use proptest::prelude::*;

    /// Oracle test: an arbitrary per-thread schedule of add/sub operations
    /// applied under a Hemlock-guarded accumulator must equal the sequential
    /// sum, for every variant.
    fn run_schedule<L: crate::raw::RawLock + 'static>(ops: &[Vec<i64>]) -> i64 {
        let m: Mutex<i64, L> = Mutex::new(0);
        std::thread::scope(|s| {
            for thread_ops in ops {
                let m = &m;
                s.spawn(move || {
                    for &d in thread_ops {
                        *m.lock() += d;
                    }
                });
            }
        });
        m.into_inner()
    }

    macro_rules! schedule_oracle {
        ($name:ident, $lock:ty) => {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(16))]
                #[test]
                fn $name(ops in proptest::collection::vec(
                    proptest::collection::vec(-100i64..100, 0..64), 1..4)) {
                    let expected: i64 = ops.iter().flatten().sum();
                    prop_assert_eq!(run_schedule::<$lock>(&ops), expected);
                }
            }
        };
    }

    schedule_oracle!(naive_matches_sequential_sum, HemlockNaive);
    schedule_oracle!(ctr_matches_sequential_sum, Hemlock);
    schedule_oracle!(overlap_matches_sequential_sum, HemlockOverlap);
    schedule_oracle!(ah_matches_sequential_sum, HemlockAh);
    schedule_oracle!(v1_matches_sequential_sum, HemlockV1);
    schedule_oracle!(v2_matches_sequential_sum, HemlockV2);
}
