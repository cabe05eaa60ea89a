//! The Hemlock algorithm family.
//!
//! One word per lock (`Tail`) plus one word per thread (`Grant`). Arriving
//! threads SWAP themselves onto `Tail`, forming an implicit FIFO queue, and
//! busy-wait for the lock's *address* to appear in their predecessor's
//! `Grant` field; the outgoing owner publishes the lock address in its own
//! `Grant` and waits for the successor to acknowledge receipt by clearing it.
//! Ownership transfer is address-based (unlike the boolean handshakes of
//! MCS/CLH), which is what lets a single per-thread word stand in for a queue
//! node even when the thread holds several contended locks at once.
//!
//! Variants implemented here, in the paper's order:
//!
//! | Type | Paper | Busy-wait | Notes |
//! |------|-------|-----------|-------|
//! | [`HemlockNaive`] | Listing 1 | plain loads | reference semantics ("Hemlock−") |
//! | [`Hemlock`] | Listing 2 | CAS / FAA(0) | CTR optimization; the paper's default |
//! | [`HemlockOverlap`] | Listing 3 (Appendix A) | plain loads | defers the ack wait to later operations |
//! | [`HemlockAh`] | Listing 4 (Appendix B) | CAS / FAA(0) | aggressive hand-over: Grant published before the Tail CAS |
//! | [`HemlockV1`] | Listing 5 (Appendix B) | CAS / FAA(0) | `L\|1` successor tag; contended unlock skips Tail |
//! | [`HemlockV2`] | Listing 6 (Appendix B) | CAS / FAA(0) | polite Tail probe before the CAS |
//! | [`HemlockInstrumented`] | §5.4 | CAS / FAA(0) | CTR plus census counters |
//! | [`HemlockParking`] | §6 (future work) | condvar | Grant as a capacity-1 bounded buffer |
//! | [`HemlockChain`] | Appendix C | per-element flag + park | local spinning, park/unpark-capable |

mod ah;
mod chain;
mod ctr;
mod instrumented;
mod naive;
mod overlap;
mod parking;
mod v1;
mod v2;

pub use ah::HemlockAh;
pub use chain::HemlockChain;
pub use ctr::Hemlock;
pub use instrumented::HemlockInstrumented;
pub use naive::HemlockNaive;
pub use overlap::HemlockOverlap;
pub use parking::HemlockParking;
pub use v1::HemlockV1;
pub use v2::HemlockV2;

/// Address of a lock, as published through `Grant` fields. Bit 0 is always
/// clear (lock bodies contain at least a word-aligned atomic), which the V1
/// variant exploits for its `L|1` successor tag.
#[inline]
pub(crate) fn lock_id<T>(lock: &T) -> usize {
    let addr = lock as *const T as usize;
    debug_assert_eq!(addr & 1, 0, "lock bodies are word-aligned");
    addr
}

/// Shared conformance tests instantiated by every variant module. Each
/// exercises a distinct cross-variant contract; variant-specific behaviour is
/// tested in the variant's own module.
#[cfg(test)]
macro_rules! lock_family_tests {
    ($lock:ty) => {
        mod family {
            use crate::mutex::Mutex;
            use crate::raw::{RawLock, RawTryLock};
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
            use std::sync::Arc;

            #[test]
            fn uncontended_roundtrip() {
                let l = <$lock>::default();
                for _ in 0..100 {
                    l.lock();
                    unsafe { l.unlock() };
                }
            }

            #[test]
            fn guard_api_counter() {
                let m: Arc<Mutex<u64, $lock>> = Arc::new(Mutex::new(0));
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
                assert_eq!(*m.lock(), 20_000);
            }

            #[test]
            fn critical_sections_never_overlap() {
                let l = Arc::new(<$lock>::default());
                let in_cs = Arc::new(AtomicBool::new(false));
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let l = Arc::clone(&l);
                        let in_cs = Arc::clone(&in_cs);
                        s.spawn(move || {
                            for _ in 0..2_000 {
                                l.lock();
                                assert!(!in_cs.swap(true, Ordering::AcqRel), "overlap!");
                                in_cs.store(false, Ordering::Release);
                                unsafe { l.unlock() };
                            }
                        });
                    }
                });
            }

            #[test]
            fn try_lock_semantics() {
                let m: Mutex<i32, $lock> = Mutex::new(7);
                {
                    let g = m.lock();
                    assert!(m.try_lock().is_none(), "lock is held");
                    drop(g);
                }
                let g = m.try_lock().expect("uncontended try_lock succeeds");
                assert_eq!(*g, 7);
                drop(g);
                // try_lock confers real ownership: unlock works.
                assert!(m.raw().try_lock());
                unsafe { m.raw().unlock() };
            }

            #[test]
            fn timed_acquisition_aborts_cleanly_and_never_acquires_late() {
                use std::time::Duration;
                let meta = <$lock as RawLock>::META;
                assert!(meta.abortable, "hemlock family must advertise abortable");
                let l = Arc::new(<$lock>::default());
                l.lock();
                // A timed waiter must give up within bound — and, by the
                // conditional-arrival contract, must never have joined the
                // queue, so releasing afterwards wakes nobody.
                let aborted = {
                    let l = Arc::clone(&l);
                    std::thread::spawn(move || {
                        let t0 = std::time::Instant::now();
                        let got = l.try_lock_for(Duration::from_millis(15));
                        (got, t0.elapsed())
                    })
                };
                let (got, waited) = aborted.join().unwrap();
                assert!(!got, "waiter must time out while the lock is held");
                assert!(waited >= Duration::from_millis(15));
                unsafe { l.unlock() };
                // The abort left no protocol state: every path still works,
                // including another timed acquisition.
                assert!(l.try_lock_for(Duration::from_millis(10)));
                unsafe { l.unlock() };
                l.lock();
                unsafe { l.unlock() };
            }

            #[test]
            fn handover_blocks_then_transfers() {
                let l = Arc::new(<$lock>::default());
                let stage = Arc::new(AtomicUsize::new(0));
                l.lock();
                let before = l.tail_word();
                let t = {
                    let l = Arc::clone(&l);
                    let stage = Arc::clone(&stage);
                    std::thread::spawn(move || {
                        stage.store(1, Ordering::Release);
                        l.lock(); // blocks until the main thread releases
                        stage.store(2, Ordering::Release);
                        unsafe { l.unlock() };
                    })
                };
                // Handshake: the waiter has arrived once the tail moves.
                while l.tail_word() == before {
                    std::hint::spin_loop();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                assert_eq!(stage.load(Ordering::Acquire), 1, "waiter must still block");
                unsafe { l.unlock() };
                t.join().unwrap();
                assert_eq!(stage.load(Ordering::Acquire), 2);
            }

            #[test]
            fn holds_multiple_locks_released_in_any_order() {
                // The paper requires usability under pthread-style APIs,
                // "which allow multiple locks to be held simultaneously and
                // released in arbitrary order" (§4).
                let a = <$lock>::default();
                let b = <$lock>::default();
                let c = <$lock>::default();
                a.lock();
                b.lock();
                c.lock();
                unsafe { b.unlock() }; // middle first
                unsafe { a.unlock() };
                unsafe { c.unlock() };
                // and again, reverse order
                a.lock();
                b.lock();
                unsafe { b.unlock() };
                unsafe { a.unlock() };
            }

            #[test]
            fn multiwaiting_disambiguates_by_lock_address() {
                // One thread holds two contended locks: both waiters spin on
                // the holder's single Grant word (§2.2). Address-based
                // transfer must wake exactly the right waiter per release.
                let l1 = Arc::new(<$lock>::default());
                let l2 = Arc::new(<$lock>::default());
                let acquired = Arc::new(AtomicUsize::new(0));
                l1.lock();
                l2.lock();
                let spawn_waiter = |l: &Arc<$lock>, bit: usize| {
                    let l = Arc::clone(l);
                    let acquired = Arc::clone(&acquired);
                    std::thread::spawn(move || {
                        l.lock();
                        acquired.fetch_or(bit, Ordering::AcqRel);
                        unsafe { l.unlock() };
                    })
                };
                let (t1, t2) = (l1.tail_word(), l2.tail_word());
                let w1 = spawn_waiter(&l1, 1);
                let w2 = spawn_waiter(&l2, 2);
                // Handshake: both waiters are queued on the holder's Grant
                // word once both tails move.
                while l1.tail_word() == t1 || l2.tail_word() == t2 {
                    std::hint::spin_loop();
                }
                assert_eq!(acquired.load(Ordering::Acquire), 0);
                unsafe { l2.unlock() }; // must wake w2, not w1
                w2.join().unwrap();
                assert_eq!(acquired.load(Ordering::Acquire), 2);
                unsafe { l1.unlock() };
                w1.join().unwrap();
                assert_eq!(acquired.load(Ordering::Acquire), 3);
            }

            #[test]
            fn mutex_into_inner_and_get_mut() {
                let mut m: Mutex<Vec<u8>, $lock> = Mutex::new(vec![1]);
                m.get_mut().push(2);
                assert_eq!(m.into_inner(), vec![1, 2]);
            }
        }
    };
}
#[cfg(test)]
pub(crate) use lock_family_tests;
