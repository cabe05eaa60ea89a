//! # hemlock-harness
//!
//! The benchmark harnesses behind the Hemlock paper's evaluation section:
//!
//! - [`mutexbench`] — MutexBench at maximum and moderate contention
//!   (Figures 2–7), plus single-thread acquire/release latency;
//! - [`multiwait`] — the Figure 9 multi-waiting benchmark (10 locks,
//!   leader acquires ascending / releases descending);
//! - [`ring`] — the §5.5 token-ring circulation microbenchmark with
//!   Load/CAS/SWAP/FAA waiting;
//! - [`mt19937`] — the Mersenne Twister the moderate-contention workload
//!   steps (reimplemented and validated against the C++ standard's check
//!   value);
//! - [`measure`] / [`table`] / [`cli`] — timing, median-of-K, output
//!   formatting, and argument plumbing for the reproduction binaries in
//!   `hemlock-bench`;
//! - [`executor`] — a minimal in-tree async runtime (`block_on` + a
//!   multi-worker `TaskPool`), so the `hemlock-async` subsystem's benches
//!   and tests need no external runtime in this offline workspace;
//! - [`reactor`] — the tick-based readiness reactor backing
//!   `hemlock-net`'s nonblocking sockets (std-only; no epoll bindings in
//!   this offline workspace);
//! - [`zipf`] — a seeded Zipfian key-distribution sampler (Gray et al. /
//!   YCSB method) for service-shaped workloads (`loadgen`, `shardkv`).

#![warn(missing_docs)]

pub mod cli;
pub mod executor;
pub mod fairness;
pub mod measure;
pub mod mt19937;
pub mod multiwait;
pub mod mutexbench;
pub mod reactor;
pub mod ring;
pub mod table;
pub mod zipf;

pub use cli::{Args, Spec};
pub use executor::{block_on, JoinHandle, TaskPool};
pub use fairness::{fairness_bench, FairnessReport};
pub use hemlock_obs::now_ns;
pub use measure::{median_of, thread_sweep, Throughput};
pub use mt19937::Mt19937;
pub use multiwait::{multiwait_bench, MultiwaitConfig};
pub use mutexbench::{mutex_bench, uncontended_latency_ns, Contention, MutexBenchConfig};
pub use reactor::Reactor;
pub use ring::{dyn_ring_bench, ring_bench, RingWait};
pub use table::{fmt_f64, Table};
pub use zipf::Zipf;

#[cfg(test)]
mod proptests {
    use crate::mt19937::Mt19937;
    use proptest::prelude::*;

    proptest! {
        /// Determinism: equal seeds produce equal streams.
        #[test]
        fn mt19937_deterministic(seed: u32, n in 1usize..2000) {
            let mut a = Mt19937::new(seed);
            let mut b = Mt19937::new(seed);
            for _ in 0..n {
                prop_assert_eq!(a.next_u32(), b.next_u32());
            }
        }

        /// `below(b)` stays in range for arbitrary bounds.
        #[test]
        fn below_in_range(seed: u32, bound in 1u32..10_000) {
            let mut rng = Mt19937::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.below(bound) < bound);
            }
        }
    }
}
