//! Fairness measurement.
//!
//! §4: TAS/TTAS locks "fail to scale and may allow unfairness and even
//! indefinite starvation", while Ticket/MCS/CLH/Hemlock are FIFO. This
//! harness quantifies that: under sustained contention, it collects each
//! thread's completed-iteration count and per-acquisition latency
//! distribution, reporting Jain's fairness index and the tail/median
//! latency ratio.

use crate::measure::Throughput;
use core::sync::atomic::{AtomicBool, Ordering};
use hemlock_core::raw::RawLock;
use hemlock_obs::Hist;
use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

/// Result of a fairness run.
#[derive(Clone, Debug)]
pub struct FairnessReport {
    /// Per-thread completed iterations.
    pub per_thread_ops: Vec<u64>,
    /// Merged acquisition-latency histogram (nanoseconds).
    pub latency: Hist,
    /// Aggregate throughput.
    pub throughput: Throughput,
}

impl FairnessReport {
    /// Jain's fairness index over per-thread throughput:
    /// `(Σx)² / (n · Σx²)`; 1.0 = perfectly fair, 1/n = one thread hogs.
    pub fn jain_index(&self) -> f64 {
        let n = self.per_thread_ops.len() as f64;
        let sum: f64 = self.per_thread_ops.iter().map(|&x| x as f64).sum();
        let sumsq: f64 = self
            .per_thread_ops
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        if sumsq == 0.0 {
            return 0.0;
        }
        sum * sum / (n * sumsq)
    }

    /// p99 / p50 acquisition-latency ratio (tail blowup).
    pub fn tail_ratio(&self) -> f64 {
        let p50 = self.latency.quantile(0.50).max(1);
        self.latency.quantile(0.99) as f64 / p50 as f64
    }

    /// Max/min per-thread ops ratio (∞-unfairness witness; capped).
    pub fn max_min_ratio(&self) -> f64 {
        let max = *self.per_thread_ops.iter().max().unwrap_or(&0) as f64;
        let min = *self.per_thread_ops.iter().min().unwrap_or(&0) as f64;
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Runs `threads` threads hammering one lock for `duration`, recording
/// per-thread progress and per-acquisition latency.
pub fn fairness_bench<L: RawLock>(threads: usize, duration: Duration) -> FairnessReport {
    let lock = L::default();
    let stop = AtomicBool::new(false);
    let results: StdMutex<Vec<(usize, u64, Hist)>> = StdMutex::new(Vec::new());

    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let lock = &lock;
            let stop = &stop;
            let results = &results;
            s.spawn(move || {
                let mut ops = 0u64;
                let mut hist = Hist::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    lock.lock();
                    let wait_ns = t0.elapsed().as_nanos() as u64;
                    // Safety: acquired above on this thread.
                    unsafe { lock.unlock() };
                    hist.record(wait_ns.max(1));
                    ops += 1;
                }
                results.lock().unwrap().push((t, ops, hist));
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
    });
    let elapsed = start.elapsed();

    let mut rows = results.into_inner().unwrap();
    rows.sort_by_key(|(t, _, _)| *t);
    let per_thread_ops: Vec<u64> = rows.iter().map(|(_, ops, _)| *ops).collect();
    let mut latency = Hist::new();
    for (_, _, h) in &rows {
        latency.merge(h);
    }
    let ops = per_thread_ops.iter().sum();
    FairnessReport {
        per_thread_ops,
        latency,
        throughput: Throughput { ops, elapsed },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use hemlock_locks::TicketLock;

    /// Runs a load-sensitive check up to 3 times: when the test binary
    /// itself oversubscribes the box, a thread spawn can miss the whole
    /// measurement window. Any clean attempt passes.
    fn with_retries(mut attempt: impl FnMut() -> Result<(), String>) {
        let mut last = String::new();
        for _ in 0..3 {
            match attempt() {
                Ok(()) => return,
                Err(e) => last = e,
            }
        }
        panic!("all attempts failed: {last}");
    }

    #[test]
    fn fifo_locks_are_fair() {
        with_retries(|| {
            let r = fairness_bench::<Hemlock>(3, Duration::from_millis(250));
            assert_eq!(r.per_thread_ops.len(), 3);
            if r.throughput.ops <= 100 {
                return Err(format!("too few ops: {}", r.throughput.ops));
            }
            if r.jain_index() <= 0.60 {
                return Err(format!(
                    "FIFO lock should be near-fair: {} ({:?})",
                    r.jain_index(),
                    r.per_thread_ops
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn ticket_starves_nobody() {
        // On an oversubscribed box, short-window Jain for global-spinning
        // locks is scheduler noise; the robust FIFO property is that every
        // thread makes progress (no starvation).
        with_retries(|| {
            let r = fairness_bench::<TicketLock>(3, Duration::from_millis(250));
            if !r.per_thread_ops.iter().all(|&ops| ops > 0) {
                return Err(format!(
                    "a FIFO lock must not starve any thread: {:?}",
                    r.per_thread_ops
                ));
            }
            if r.jain_index() <= 1.2 / 3.0 {
                return Err(format!("{:?}", r.per_thread_ops));
            }
            Ok(())
        });
    }

    #[test]
    fn report_math() {
        let r = FairnessReport {
            per_thread_ops: vec![100, 100, 100],
            latency: Hist::new(),
            throughput: Throughput {
                ops: 300,
                elapsed: Duration::from_secs(1),
            },
        };
        assert!((r.jain_index() - 1.0).abs() < 1e-9);
        assert_eq!(r.max_min_ratio(), 1.0);

        let skewed = FairnessReport {
            per_thread_ops: vec![300, 0, 0],
            latency: Hist::new(),
            throughput: Throughput {
                ops: 300,
                elapsed: Duration::from_secs(1),
            },
        };
        assert!((skewed.jain_index() - 1.0 / 3.0).abs() < 1e-9);
        assert!(skewed.max_min_ratio().is_infinite());
    }
}
