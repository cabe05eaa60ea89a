//! Flight-recorder tests: lock events pushed into a small trace ring and
//! read back the way [`crate::trace::lock_events`] reads every ring.

mod tests {
    use crate::trace::{site_name, SpanKind, TraceRing};
    use hemlock_core::events::LockEvent;

    fn record(ring: &TraceRing, tick: u64, site: &'static str, event: LockEvent, arg: u64) {
        ring.push(tick, arg, 0, site, SpanKind::Instant, Some(event));
    }

    fn args(ring: &TraceRing) -> Vec<u64> {
        ring.dump().iter().map(|r| r.lock.unwrap().1).collect()
    }

    #[test]
    fn records_in_order_until_capacity() {
        let ring = TraceRing::with_capacity(8);
        for i in 0..5 {
            record(&ring, i, "site-a", LockEvent::Acquire, i);
        }
        let d = ring.dump();
        assert_eq!(d.len(), 5);
        assert_eq!(args(&ring), vec![0, 1, 2, 3, 4]);
        assert!(d.iter().all(|r| site_name(r.site) == "site-a"));
        assert!(d.iter().all(|r| r.lock.unwrap().0 == LockEvent::Acquire));
        assert!(d.windows(2).all(|w| w[0].t0 <= w[1].t0));
    }

    #[test]
    fn wraparound_keeps_the_newest_records() {
        let ring = TraceRing::with_capacity(8);
        for i in 0..20u64 {
            record(&ring, i, "site-b", LockEvent::Release, i);
        }
        let d = ring.dump();
        assert_eq!(d.len(), 8, "ring keeps exactly `capacity` records");
        assert_eq!(
            args(&ring),
            (12..20).collect::<Vec<_>>(),
            "oldest records are overwritten first"
        );
        assert!(d.iter().all(|r| site_name(r.site) == "site-b"));
    }

    #[test]
    fn empty_ring_dumps_empty() {
        let ring = TraceRing::with_capacity(16);
        assert!(ring.dump().is_empty());
    }
}
