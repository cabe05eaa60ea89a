//! `hot-shards`: two threads of point operations on a four-shard Hemlock
//! `ShardedTable` over 1Ki Zipfian keys — the paper's contended regime,
//! where shard locks are handed over between threads and FIFO admission
//! decides who goes next. No other workload contends the lock layer.
//!
//! The end-to-end figures are taken at a fixed host speed, as `ladder`'s
//! are: a shared host's speed drifts within the hour, and this workload's
//! throughput moved between 6.6M and 9.2M ops/s across ten runs of
//! unchanged code. Each instance times a probe right after its warm-up
//! and right after its measured phase: the same two streams for
//! `PROBE_OPS` operations each on four std `HashMap`s, each behind a
//! ticket lock (code outside the program under test, contended and
//! handed over in FIFO order as the shards are). The instance's
//! latencies are scaled by `PROBE_REF_NS` over the probe's mean time per
//! operation, its throughputs by the inverse, and its set-up time by the
//! first probe.

use crate::stats::{median, Dist};
use crate::stream::{Mix, OpStream};
use crate::{Report, Windows};
use hemlock_core::hemlock::Hemlock;
use hemlock_core::pad::CachePadded;
use hemlock_obs::trace::now_ns;
use hemlock_shard::ShardedTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const MIX: Mix = Mix {
    keys: 1024,
    theta: 0.99,
    write_pct: 10,
    value_len: 0,
};
const SHARDS: usize = 4;
const THREADS: usize = 2;
/// Pre-generated operations per thread, replayed cyclically so the timed
/// loop measures the table and not the Zipf sampler.
const STREAM_LEN: usize = 1 << 20;
/// Operations per thread in the warm-up counted in `setup_s`.
const WARMUP_OPS: u64 = 1_000_000;
/// One operation in this many is timed.
const SAMPLE_EVERY: u64 = 64;
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(100);
/// Operations per thread in one probe.
const PROBE_OPS: u64 = 1_000_000;
/// Probe time per operation that the end-to-end figures are scaled to:
/// about what the probe takes on a quiet 2-vCPU Xeon host.
const PROBE_REF_NS: f64 = 100.0;

type Table = ShardedTable<u64, u64, Hemlock>;

/// The point operations a phase runs, on the table under test or on the
/// probe.
trait PointOps: Sync {
    fn put(&self, rank: u64, value: u64);
    fn read(&self, rank: u64) -> Option<u64>;
}

impl PointOps for Table {
    fn put(&self, rank: u64, value: u64) {
        self.insert(rank, value);
    }

    fn read(&self, rank: u64) -> Option<u64> {
        self.get(&rank)
    }
}

/// The host-speed probe: `SHARDS` std maps, each behind a ticket lock
/// made of two std atomics, so that the threads take turns in FIFO order
/// and hand the map over through the cache as on the table's shards. The
/// `Mutex` is only ever taken by the ticket holder, so it never waits.
struct Probe(Vec<CachePadded<TicketMap>>);

#[derive(Default)]
struct TicketMap {
    next: AtomicU64,
    serving: AtomicU64,
    map: Mutex<HashMap<u64, u64>>,
}

impl Probe {
    fn preloaded() -> Self {
        let probe = Probe(
            (0..SHARDS)
                .map(|_| CachePadded::from(TicketMap::default()))
                .collect(),
        );
        for rank in 0..MIX.keys {
            probe.put(rank, value(rank, 0));
        }
        probe
    }

    fn with<R>(&self, rank: u64, f: impl FnOnce(&mut HashMap<u64, u64>) -> R) -> R {
        let shard = &self.0[rank as usize % SHARDS];
        let ticket = shard.next.fetch_add(1, Ordering::Relaxed);
        while shard.serving.load(Ordering::Acquire) != ticket {
            std::hint::spin_loop();
        }
        let mut map = shard
            .map
            .lock()
            .expect("the probe never panics holding a map");
        let r = f(&mut map);
        drop(map);
        shard.serving.store(ticket + 1, Ordering::Release);
        r
    }
}

impl PointOps for Probe {
    fn put(&self, rank: u64, value: u64) {
        self.with(rank, |m| m.insert(rank, value));
    }

    fn read(&self, rank: u64) -> Option<u64> {
        self.with(rank, |m| m.get(&rank).copied())
    }
}

/// A stored value: the key's rank in the top bits, the write's version
/// below, so a read can tell whose value it got.
fn value(rank: u64, version: u64) -> u64 {
    (rank << 40) | (version & ((1 << 40) - 1))
}

/// One thread's stream packed as `rank | write << 31`.
fn packed_stream(seed: u64, thread: usize) -> Vec<u32> {
    let mut s = OpStream::new(&MIX, seed, 1 + thread as u64);
    (0..STREAM_LEN)
        .map(|_| {
            let op = s.next_op();
            op.rank as u32 | (u32::from(op.write) << 31)
        })
        .collect()
}

/// What one worker did in one phase.
struct Worker {
    /// Stream position after its last operation.
    end: u64,
    /// Reads that returned another key's value or none.
    bad: u64,
}

/// What the two workers did in one phase.
struct Phase {
    counts: Vec<u64>,
    bad: u64,
    /// `(start, end, ops/s)` of each `WINDOW` (timed phases only).
    windows: Vec<(u64, u64, f64)>,
}

/// Runs one worker per stream over `table`, each resuming at `next[t]`
/// (positions carry from warm-up into measurement): `limit` operations
/// each when `seconds` is `None`, else until `seconds` pass while the
/// calling thread samples throughput windows. One operation in `every`
/// is timed into the worker's `lat` buffer as `(start, duration)` on the
/// trace clock, in start order.
fn phase(
    table: &impl PointOps,
    streams: &[Vec<u32>],
    next: &mut [u64],
    lat: &mut [Vec<(u64, u64)>],
    limit: u64,
    seconds: Option<f64>,
    every: u64,
) -> Phase {
    let done: Vec<CachePadded<AtomicU64>> = next
        .iter()
        .map(|&n| CachePadded::from(AtomicU64::new(n)))
        .collect();
    let stop = AtomicBool::new(false);
    let mut windows = Vec::new();
    let results: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&done)
            .zip(next.iter())
            .zip(lat.iter_mut())
            .map(|(((ops, done), &start), lat)| {
                let stop = &stop;
                s.spawn(move || {
                    lat.clear();
                    let mut bad = 0;
                    let mut i = start;
                    let end = start.saturating_add(limit);
                    while i < end && !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            let p = ops[(i as usize) % STREAM_LEN];
                            let rank = u64::from(p & 0x7FFF_FFFF);
                            let t0 = if i % every == 0 { now_ns() } else { 0 };
                            if p >> 31 == 1 {
                                table.put(rank, value(rank, i + 1));
                            } else if table.read(rank).map(|v| v >> 40) != Some(rank) {
                                bad += 1;
                            }
                            if t0 != 0 {
                                lat.push((t0, now_ns() - t0));
                            }
                            i += 1;
                        }
                        done.store(i, Ordering::Relaxed);
                    }
                    Worker { end: i, bad }
                })
            })
            .collect();
        if let Some(seconds) = seconds {
            let t0 = Instant::now();
            let total = || done.iter().map(|d| d.load(Ordering::Relaxed)).sum::<u64>();
            let mut last = (now_ns(), total());
            while t0.elapsed().as_secs_f64() < seconds {
                std::thread::sleep(WINDOW);
                let now = (now_ns(), total());
                let rate = (now.1 - last.1) as f64 * 1e9 / (now.0 - last.0) as f64;
                windows.push((last.0, now.0, rate));
                last = now;
            }
            stop.store(true, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("hot-shards worker panicked"))
            .collect()
    });
    let mut out = Phase {
        counts: Vec::new(),
        bad: 0,
        windows,
    };
    for (n, w) in next.iter_mut().zip(results) {
        out.counts.push(w.end - *n);
        *n = w.end;
        out.bad += w.bad;
    }
    out
}

/// Runs one probe, resuming the streams at `next`; returns its wall time
/// per operation.
fn probe_ns(probe: &Probe, streams: &[Vec<u32>], next: &mut [u64], report: &mut Report) -> f64 {
    let mut lat = vec![Vec::new(); THREADS];
    let t0 = Instant::now();
    let p = phase(probe, streams, next, &mut lat, PROBE_OPS, None, u64::MAX);
    if p.bad > 0 {
        report.fail(
            0,
            format!("{} probe reads returned another key's value or none", p.bad),
        );
    }
    t0.elapsed().as_nanos() as f64 / p.counts.iter().sum::<u64>() as f64
}

fn preloaded() -> Table {
    let t = Table::with_shards(SHARDS);
    for rank in 0..MIX.keys {
        t.insert(rank, value(rank, 0));
    }
    t
}

/// Runs `SETUPS` instances, each a fresh table with its timed set-up
/// (preload, a fixed amount of contended warm-up and the first probe) and
/// an equal share of the run in `WINDOW`s, followed by the second probe.
/// `layers` prints the per-layer metrics instead of the end-to-end ones.
pub fn run(seed: u64, seconds: f64, layers: bool, report: &mut Report) {
    let streams: Vec<Vec<u32>> = (0..THREADS).map(|t| packed_stream(seed, t)).collect();
    let mut win = Windows::default();
    let (mut spread, mut contended, mut probes, mut raw) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Latency buffers sized for the longest phase and touched once up
    // front, so that no instance's peak memory depends on how many samples
    // it took or on when the allocator grew a buffer.
    let mut lat: Vec<Vec<(u64, u64)>> = (0..THREADS)
        .map(|_| {
            let mut buf = vec![(u64::MAX, u64::MAX); (1 << 24) / SAMPLE_EVERY as usize];
            buf.clear();
            buf
        })
        .collect();
    for _ in 0..crate::SETUPS {
        win.start_instance();
        let table = preloaded();
        let mut next = vec![0; THREADS];
        phase(
            &table,
            &streams,
            &mut next,
            &mut lat,
            WARMUP_OPS,
            None,
            u64::MAX,
        );
        let probe = Probe::preloaded();
        let mut probe_next = vec![0; THREADS];
        let before = probe_ns(&probe, &streams, &mut probe_next, report);
        win.setup_done_scaled(PROBE_REF_NS / before);
        win.footprint = table.footprint_bytes(THREADS);

        table.reset_stats();
        let share = seconds / crate::SETUPS as f64;
        let p = phase(
            &table,
            &streams,
            &mut next,
            &mut lat,
            u64::MAX,
            Some(share),
            SAMPLE_EVERY,
        );
        let after = probe_ns(&probe, &streams, &mut probe_next, report);
        let probe_per_op = (before + after) / 2.0;
        probes.push(probe_per_op);
        let scale = PROBE_REF_NS / probe_per_op;
        let total: u64 = p.counts.iter().sum();
        report.attempted += total;
        if p.bad > 0 {
            report.fail(
                p.bad,
                format!("{} reads returned another key's value or none", p.bad),
            );
        }
        report.note(format!(
            "hot-shards: {total} ops, per-thread {:?}",
            p.counts
        ));
        for &(from, to, rate) in &p.windows {
            let samples = lat.iter().flat_map(|l| {
                let (a, b) = (
                    l.partition_point(|s| s.0 < from),
                    l.partition_point(|s| s.0 < to),
                );
                l[a..b].iter().map(|s| (s.1 as f64 * scale) as u64)
            });
            raw.push(rate);
            win.add(rate / scale, &Dist::new(samples.collect()));
        }
        let (lo, hi) = (p.counts.iter().min(), p.counts.iter().max());
        spread.push(match (lo, hi) {
            (Some(&lo), Some(&hi)) if lo > 0 => hi as f64 / lo as f64,
            _ => f64::INFINITY,
        });
        contended.push(table.stats().contended_fraction());
        win.end_instance();
    }
    report.note(format!(
        "raw, unscaled: median probe {:.1} ns/op, median window {:.0} ops/s; \
         end-to-end figures are scaled to a {PROBE_REF_NS} ns probe",
        median(&probes),
        median(&raw)
    ));
    if layers {
        report.metric("core.fifo_spread", median(&spread), "ratio");
        report.metric("shard.contended_frac", median(&contended), "ratio");
        report.metric("shard.op_p99_ns", win.p99_us() * 1e3, "ns");
    } else {
        win.report(report);
    }
}
