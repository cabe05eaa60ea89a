//! `ladder`: one thread, no network, no contention. The first
//! `LADDER_OPS` operations of `kv-read`'s seeded stream are replayed on
//! every rung in turn, from the bare lock up to `Db::apply_batch_async`
//! on a task pool, so the cost a layer adds is one subtraction between
//! adjacent rungs.
//!
//! Rungs run round-robin and each reports its median pass. Every serving
//! rung must read back exactly what a plain model of the stream predicts,
//! pass after pass.
//!
//! The end-to-end figures are taken at a fixed host speed. On a shared
//! host the speed of one thread drifts by a third and more within the
//! hour, and every rung drifts with it, so raw single-thread figures
//! cannot hold any bound of a quarter between two sets of runs. Around
//! each `Db::apply_batch` pass the replaying thread times a probe: the
//! same stream on a std `HashMap`, code outside the program under test.
//! The pass's time and call latencies are scaled by `PROBE_REF_NS` over
//! the probe's time per op, which reads them as they would be on a host
//! where the probe takes `PROBE_REF_NS`; set-up time is scaled by the
//! probe's pass at the end of set-up. The raw figures are printed as
//! notes.

use crate::stats::{median, Dist};
use crate::stream::{self, Checksum, GenOp, OpStream};
use crate::{Report, Windows, KV_READ_MIX};
use hemlock_core::hemlock::Hemlock;
use hemlock_core::{Mutex, RawLock};
use hemlock_harness::TaskPool;
use hemlock_minikv::{Db, KvOp, KvResult};
use hemlock_shard::{ShardedTable, TableOp, TableResult};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Operations per pass: a round over all rungs takes about a tenth of a
/// second, so a run holds over a hundred windows.
const LADDER_OPS: usize = 16 * 1024;
/// Group size of the batch rungs: a full pipeline burst of one `kv-read`
/// connection.
const GROUP: usize = 8;
/// Threads that touch the ladder's table: the replaying thread and the
/// pool worker.
const LADDER_THREADS: usize = 2;

type Bytes = Box<[u8]>;
type Table = ShardedTable<Bytes, Bytes, Hemlock>;

/// `(label, per-layer metric)` per rung, bottom up.
const RUNGS: [(&str, &str); 9] = [
    ("Hemlock lock/unlock", "core.lock_unlock_ns"),
    ("Mutex<HashMap> op", "core.mutex_op_ns"),
    ("ShardedTable point op", "shard.point_op_ns"),
    ("ShardedTable::apply_batch x1", "shard.batch1_op_ns"),
    ("ShardedTable::apply_batch x8", "shard.batch_op_ns"),
    ("apply_batch_async x8 on pool", "harness.pool_batch_op_ns"),
    ("Db point op", "minikv.point_op_ns"),
    ("Db::apply_batch x8", "minikv.batch_op_ns"),
    (
        "Db::apply_batch_async x8 on pool",
        "minikv.async_batch_op_ns",
    ),
];
/// The rung whose throughput is the workload's `ops_per_s`: the embedded
/// store as an application uses it.
const DB_BATCH_RUNG: usize = 7;
/// Probe time per op that the end-to-end figures are scaled to: about
/// what the probe takes on a quiet 2-vCPU Xeon host.
const PROBE_REF_NS: f64 = 200.0;

/// The replayed stream in the shapes each layer's API takes.
struct Inputs {
    gen: Vec<GenOp>,
    keys: Vec<[u8; 16]>,
    /// The value each write stores (`None` for reads).
    vals: Vec<Option<Bytes>>,
    table_ops: Arc<Vec<TableOp<Bytes, Bytes>>>,
    kv_ops: Arc<Vec<KvOp>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let gen = OpStream::new(&KV_READ_MIX, seed, 0).take(LADDER_OPS);
        let len = KV_READ_MIX.value_len;
        let keys: Vec<[u8; 16]> = gen.iter().map(|o| stream::key(o.rank)).collect();
        let vals: Vec<Option<Bytes>> = gen
            .iter()
            .map(|o| {
                o.write
                    .then(|| stream::value(o.rank, o.version(), len).into())
            })
            .collect();
        let table_ops = keys
            .iter()
            .zip(&vals)
            .map(|(k, v)| match v {
                Some(v) => TableOp::Put(Bytes::from(&k[..]), v.clone()),
                None => TableOp::Get(Bytes::from(&k[..])),
            })
            .collect();
        let kv_ops = keys
            .iter()
            .zip(&vals)
            .map(|(k, v)| match v {
                Some(v) => KvOp::Put(k.to_vec(), v.to_vec()),
                None => KvOp::Get(k.to_vec()),
            })
            .collect();
        Self {
            gen,
            keys,
            vals,
            table_ops: Arc::new(table_ops),
            kv_ops: Arc::new(kv_ops),
        }
    }

    /// What a pass must read back, from a plain map of rank to version:
    /// the first pass starts from the preload, every later pass from the
    /// state the first one left (the last write to each key wins, so a
    /// full pass is idempotent on the store).
    fn model_checksums(&self) -> (Checksum, Checksum) {
        let len = KV_READ_MIX.value_len;
        let mut versions: HashMap<u64, u64> = HashMap::new();
        let mut pass = || {
            let mut sum = Checksum::default();
            for op in &self.gen {
                if op.write {
                    versions.insert(op.rank, op.version());
                } else {
                    let ver = versions.get(&op.rank).copied().unwrap_or(0);
                    sum.read(Some(&stream::value(op.rank, ver, len)));
                }
            }
            sum
        };
        let first = pass();
        (first, pass())
    }
}

/// The stores every rung runs against, preloaded with `kv-read`'s keys.
struct Stores {
    lock: Hemlock,
    map: Mutex<HashMap<Bytes, Bytes>, Hemlock>,
    table: Arc<Table>,
    db: Arc<Db<Hemlock>>,
    pool: TaskPool,
    /// The host-speed probe's map (see the module documentation).
    probe: RefCell<HashMap<Bytes, Bytes>>,
}

impl Stores {
    fn preloaded() -> Self {
        let s = Stores {
            lock: Hemlock::default(),
            map: Mutex::new(HashMap::new()),
            table: Arc::new(Table::new()),
            db: Arc::new(Db::new(Default::default())),
            pool: TaskPool::new(1),
            probe: RefCell::default(),
        };
        let len = KV_READ_MIX.value_len;
        let mut map = s.map.lock();
        let mut probe = s.probe.borrow_mut();
        for rank in 0..KV_READ_MIX.keys {
            let k = stream::key(rank);
            let v = stream::value(rank, 0, len);
            map.insert(Bytes::from(&k[..]), v.clone().into());
            probe.insert(Bytes::from(&k[..]), v.clone().into());
            s.table.insert(Bytes::from(&k[..]), v.clone().into());
            s.db.put(&k, &v);
        }
        drop((map, probe));
        s
    }
}

/// Replays the stream once on the probe's plain map; returns the pass's
/// wall time and the checksum of what it read.
fn probe_pass(inp: &Inputs, st: &Stores) -> (u64, Checksum) {
    let mut map = st.probe.borrow_mut();
    let mut sum = Checksum::default();
    let t0 = Instant::now();
    for (k, v) in inp.keys.iter().zip(&inp.vals) {
        match v {
            Some(v) => {
                map.insert(Bytes::from(&k[..]), v.clone());
            }
            None => sum.read(map.get(&k[..]).map(|v| v.to_vec()).as_deref()),
        }
    }
    (t0.elapsed().as_nanos() as u64, sum)
}

fn fold_table(sum: &mut Checksum, results: &[TableResult<Bytes>], ops: &[TableOp<Bytes, Bytes>]) {
    for (op, r) in ops.iter().zip(results) {
        match (op, r) {
            (TableOp::Get(_), TableResult::Value(v)) => sum.read(v.as_deref()),
            (TableOp::Get(_), _) => sum.read(Some(b"wrong result kind for a get")),
            _ => {}
        }
    }
}

fn fold_kv(sum: &mut Checksum, results: &[KvResult], ops: &[KvOp]) {
    for (op, r) in ops.iter().zip(results) {
        match (op, r) {
            (KvOp::Get(_), KvResult::Value(v)) => sum.read(v.as_deref()),
            (KvOp::Get(_), KvResult::Done) => sum.read(Some(b"wrong result kind for a get")),
            _ => {}
        }
    }
}

/// Replays the stream once on `rung`; returns the pass's wall time and
/// the checksum of what it read. Rung 0 serves nothing and returns no
/// checksum. `calls` collects per-call latencies of the `Db::apply_batch`
/// rung.
fn pass(rung: usize, inp: &Inputs, st: &Stores, calls: &mut Vec<u64>) -> (u64, Option<Checksum>) {
    let mut sum = Checksum::default();
    let t0 = Instant::now();
    match rung {
        0 => {
            for _ in &inp.gen {
                st.lock.lock();
                // SAFETY: this thread acquired the lock on the line above.
                unsafe { st.lock.unlock() };
            }
        }
        1 => {
            for (k, v) in inp.keys.iter().zip(&inp.vals) {
                match v {
                    Some(v) => {
                        st.map.lock().insert(Bytes::from(&k[..]), v.clone());
                    }
                    None => {
                        let got = st.map.lock().get(&k[..]).cloned();
                        sum.read(got.as_deref());
                    }
                }
            }
        }
        2 => {
            for (k, v) in inp.keys.iter().zip(&inp.vals) {
                match v {
                    Some(v) => {
                        st.table.insert(Bytes::from(&k[..]), v.clone());
                    }
                    None => sum.read(st.table.get(&k[..]).as_deref()),
                }
            }
        }
        3 | 4 => {
            let group = if rung == 3 { 1 } else { GROUP };
            for ops in inp.table_ops.chunks(group) {
                let out = st.table.apply_batch(ops);
                fold_table(&mut sum, &out, ops);
            }
        }
        5 => {
            for a in (0..LADDER_OPS).step_by(GROUP) {
                let b = (a + GROUP).min(LADDER_OPS);
                let (t, ops) = (Arc::clone(&st.table), Arc::clone(&inp.table_ops));
                let out = st
                    .pool
                    .spawn(async move { t.apply_batch_async(&ops[a..b]).await })
                    .join();
                fold_table(&mut sum, &out, &inp.table_ops[a..b]);
            }
        }
        6 => {
            for (k, v) in inp.keys.iter().zip(&inp.vals) {
                match v {
                    Some(v) => st.db.put(k, v),
                    None => sum.read(st.db.get(k).as_deref()),
                }
            }
        }
        7 => {
            for ops in inp.kv_ops.chunks(GROUP) {
                let c0 = Instant::now();
                let out = st.db.apply_batch(ops);
                calls.push(c0.elapsed().as_nanos() as u64);
                fold_kv(&mut sum, &out, ops);
            }
        }
        8 => {
            for a in (0..LADDER_OPS).step_by(GROUP) {
                let b = (a + GROUP).min(LADDER_OPS);
                let (db, ops) = (Arc::clone(&st.db), Arc::clone(&inp.kv_ops));
                let out = st
                    .pool
                    .spawn(async move { db.apply_batch_async(&ops[a..b]).await })
                    .join();
                fold_kv(&mut sum, &out, &inp.kv_ops[a..b]);
            }
        }
        _ => unreachable!("nine rungs"),
    }
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, (rung != 0).then_some(sum))
}

/// Builds and preloads every store, then warms each with one priming
/// pass, whose reads must match the model's first pass. Also returns the
/// probe's priming pass time per op, which scales the set-up time.
fn setup(inp: &Inputs, first: Checksum, report: &mut Report) -> (Stores, f64) {
    let st = Stores::preloaded();
    // One pass per distinct store: the map, the table and the Db.
    for rung in [1, 2, 6] {
        let (_, sum) = pass(rung, inp, &st, &mut Vec::new());
        if sum != Some(first) {
            report.fail(
                LADDER_OPS as u64,
                format!(
                    "priming pass on rung {rung} ({}) read the wrong values",
                    RUNGS[rung].0
                ),
            );
        }
    }
    let (ns, sum) = probe_pass(inp, &st);
    if sum != first {
        report.fail(0, "the probe's priming pass read the wrong values".into());
    }
    (st, ns as f64 / LADDER_OPS as f64)
}

/// Runs `SETUPS` instances, each set up afresh and measured for an equal
/// share of the run; each round over the rungs is one window, whose
/// end-to-end figures are scaled by the probe timed just before and just
/// after its `Db::apply_batch` pass. A rung's per-layer figure is the
/// median of its raw passes.
/// `layers` prints the per-layer rung metrics instead of the end-to-end
/// ones.
pub fn run(seed: u64, seconds: f64, layers: bool, report: &mut Report) {
    let inp = Inputs::new(seed);
    let (first, steady) = inp.model_checksums();
    let mut win = Windows::default();
    let mut passes: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut mismatched = [false; RUNGS.len()];
    let mut rounds = 0;
    let (mut probe_bad, mut probe_ns, mut raw_ops) = (false, Vec::new(), Vec::new());
    for _ in 0..crate::SETUPS {
        win.start_instance();
        let (st, probe_per_op) = setup(&inp, first, report);
        win.setup_done_scaled(PROBE_REF_NS / probe_per_op);
        win.footprint = st.table.footprint_bytes(LADDER_THREADS);
        let t0 = Instant::now();
        let mut first_round = true;
        while first_round || t0.elapsed().as_secs_f64() < seconds / crate::SETUPS as f64 {
            first_round = false;
            let mut calls = Vec::new();
            let mut probe = || {
                let (ns, sum) = probe_pass(&inp, &st);
                probe_bad |= sum != steady;
                ns
            };
            let mut probe_total = 0;
            for (rung, samples) in passes.iter_mut().enumerate() {
                if rung == DB_BATCH_RUNG {
                    probe_total += probe();
                }
                let (ns, sum) = pass(rung, &inp, &st, &mut calls);
                if rung == DB_BATCH_RUNG {
                    probe_total += probe();
                }
                samples.push(ns as f64 / LADDER_OPS as f64);
                if rung != 0 {
                    report.attempted += LADDER_OPS as u64;
                    if sum != Some(steady) {
                        report.failed += LADDER_OPS as u64;
                        if !std::mem::replace(&mut mismatched[rung], true) {
                            report.fail(
                                0,
                                format!(
                                    "rung {rung} ({}) checksum {:#x} != model {:#x}",
                                    RUNGS[rung].0,
                                    sum.map_or(0, |s| s.get()),
                                    steady.get()
                                ),
                            );
                        }
                    }
                }
            }
            let db_batch = passes[DB_BATCH_RUNG].last().expect("a pass just ran");
            let per_op = probe_total as f64 / (2 * LADDER_OPS) as f64;
            let scale = PROBE_REF_NS / per_op;
            probe_ns.push(per_op);
            raw_ops.push(1e9 / db_batch);
            let scaled = calls.iter().map(|&c| (c as f64 * scale) as u64);
            win.add(1e9 / (db_batch * scale), &Dist::new(scaled.collect()));
            rounds += 1;
        }
        win.end_instance();
    }
    if probe_bad {
        report.fail(0, "a probe pass read the wrong values".into());
    }
    report.note(format!(
        "raw, unscaled: median probe {:.1} ns/op, median Db::apply_batch rung {:.0} ops/s; \
         end-to-end figures below are scaled to a {PROBE_REF_NS} ns probe",
        median(&probe_ns),
        median(&raw_ops)
    ));
    report.note(format!(
        "ladder: {rounds} rounds of {LADDER_OPS} ops per rung, checksum {:#x} on every serving rung",
        steady.get()
    ));
    let medians: Vec<f64> = passes.iter().map(|s| median(s)).collect();
    for (i, ((label, _), m)) in RUNGS.iter().zip(&medians).enumerate() {
        let delta = if i == 0 { 0.0 } else { m - medians[i - 1] };
        report.note(format!(
            "  rung {i} {label:34} {m:10.1} ns/op  (+{delta:.1})"
        ));
    }
    if layers {
        for ((_, metric), m) in RUNGS.iter().zip(&medians) {
            report.metric(metric, *m, "ns");
        }
    } else {
        win.report(report);
    }
}
