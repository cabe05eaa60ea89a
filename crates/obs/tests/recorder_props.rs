//! Property test for the flight recorder through the public API: lock
//! events recorded on a thread and read back with `trace::lock_events`
//! keep exactly that thread's newest `trace::RING_CAP` events, oldest
//! first, at every lap boundary of its ring.

use hemlock_core::events::LockEvent;
use hemlock_obs::trace::{self, RING_CAP};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers the writer threads, so every case (shrink reruns included)
/// writes into a ring of its own.
static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    // Each case fills a fresh thread's ring, which stays registered for
    // the life of the process; a few cases cover the lap boundaries.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For a write count at, just below or just above a lap boundary,
    /// the flight recorder holds exactly the newest
    /// `min(written, RING_CAP)` events of the writing thread, oldest
    /// first, with their site and event intact.
    #[test]
    fn wraparound_keeps_exactly_the_newest(
        laps in 0u64..3,
        offset in -2i64..3,
    ) {
        let cap = RING_CAP as u64;
        let writes = (laps * cap).saturating_add_signed(offset);
        // The ring belongs to a fresh thread with a name of its own, so
        // the dump below can pick out exactly its events.
        let name = format!("recorder-prop-{}", CASE.fetch_add(1, Ordering::Relaxed));
        std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                for i in 0..writes {
                    trace::lock_event("prop-site", LockEvent::Acquire, i);
                }
            })
            .unwrap()
            .join()
            .unwrap();
        let track = format!("{name}#");
        let mine: Vec<_> = trace::lock_events()
            .into_iter()
            .filter(|e| e.track.starts_with(&track))
            .collect();
        let kept = writes.min(cap);
        let args: Vec<u64> = mine.iter().map(|e| e.lock.unwrap().1).collect();
        prop_assert_eq!(args, (writes - kept..writes).collect::<Vec<_>>());
        for e in &mine {
            prop_assert_eq!(&e.name, "prop-site:acquire");
            prop_assert_eq!(e.lock.unwrap().0, LockEvent::Acquire);
        }
        prop_assert!(mine.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns));
    }
}
