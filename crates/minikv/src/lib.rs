//! # hemlock-minikv
//!
//! A LevelDB-shaped in-memory key-value store, built as the substrate for
//! the Hemlock paper's Figure 8 ("LevelDB readrandom"). The paper measured
//! LevelDB 1.20 with its coarse-grained central mutex (`DBImpl::Mutex`)
//! swapped between lock algorithms via `LD_PRELOAD`; this crate reproduces
//! the relevant code path:
//!
//! - an LSM-shaped store: active **memtable** + immutable sorted **runs**
//!   (in-memory SSTables) with foreground merge compaction;
//! - a **sharded memtable** (`hemlock-shard`'s `ShardedTable`): point
//!   reads/writes take one shard lock; the **central mutex** — generic
//!   over [`hemlock_core::RawLock`] like every lock here — guards the run
//!   list, freeze, and compaction, and reads still snapshot run handles
//!   under it before searching runs outside, as LevelDB's `Get` does;
//! - `db_bench`-style drivers: [`fill_seq`] and the fixed-duration
//!   [`read_random`] the paper's harness modification added.
//!
//! ```
//! use hemlock_minikv::{Db, fill_seq, key_for};
//! use hemlock_core::hemlock::Hemlock;
//!
//! let db: Db<Hemlock> = Db::new(Default::default());
//! fill_seq(&db, 100, 16);
//! assert!(db.get(&key_for(42)).is_some());
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod db;
pub mod memtable;
pub mod op;
pub mod run;

pub use bench::{fill_seq, key_for, read_random, value_for, ReadBenchResult};
pub use db::{AsyncKv, BoxKvFuture, Db, DbStats, Options, WouldBlock};
pub use memtable::Memtable;
pub use op::{KvOp, KvResult};
pub use run::Run;

#[cfg(test)]
mod proptests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    enum DbOp {
        Put(u8, u8),
        Delete(u8),
        Get(u8),
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// One op through the point API.
        Point(DbOp),
        /// Ops applied together by one `Db::apply_batch`.
        Batch(Vec<DbOp>),
    }

    fn op_strategy() -> impl Strategy<Value = DbOp> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| DbOp::Put(k, v)),
            any::<u8>().prop_map(DbOp::Delete),
            any::<u8>().prop_map(DbOp::Get),
        ]
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            op_strategy().prop_map(Step::Point),
            op_strategy().prop_map(Step::Point),
            op_strategy().prop_map(Step::Point),
            proptest::collection::vec(op_strategy(), 1..9).prop_map(Step::Batch),
        ]
    }

    /// Key `k` of the oracle's keyspace. Lengths vary: the empty key,
    /// prefix chains (`k1`, `k10`, `k100`), and long keys that share a
    /// 40-byte head, so run-block offsets and fences are exercised.
    fn key_of(k: u8) -> Vec<u8> {
        match k {
            0 => Vec::new(),
            1..=199 => format!("k{k}").into_bytes(),
            _ => format!("k{}{k}", "x".repeat(40)).into_bytes(),
        }
    }

    /// Value `v`: zero to three bytes, so empty values (not tombstones)
    /// occur too.
    fn value_of(v: u8) -> Vec<u8> {
        vec![v; usize::from(v % 4)]
    }

    /// The op as a batch entry, and the answer the oracle gives it (the
    /// oracle applies writes as it goes).
    fn lower(op: &DbOp, oracle: &mut BTreeMap<Vec<u8>, Vec<u8>>) -> (KvOp, KvResult) {
        match *op {
            DbOp::Put(k, v) => {
                oracle.insert(key_of(k), value_of(v));
                (KvOp::Put(key_of(k), value_of(v)), KvResult::Done)
            }
            DbOp::Delete(k) => {
                oracle.remove(&key_of(k));
                (KvOp::Delete(key_of(k)), KvResult::Done)
            }
            DbOp::Get(k) => (
                KvOp::Get(key_of(k)),
                KvResult::Value(oracle.get(&key_of(k)).cloned()),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Sequential oracle: the database behaves exactly like a BTreeMap,
        /// across memtable freezes and compactions, through both the point
        /// API and `Db::apply_batch`.
        #[test]
        fn db_matches_btreemap_oracle(steps in proptest::collection::vec(step_strategy(), 1..300)) {
            let db: Db<Hemlock> = Db::new(Options {
                memtable_bytes: 256,
                max_runs: 2,
                mem_shards: 2,
            });
            let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Point(op) => match lower(&op, &mut oracle) {
                        (KvOp::Put(k, v), _) => db.put(&k, &v),
                        (KvOp::Delete(k), _) => db.delete(&k),
                        (KvOp::Get(k), want) => {
                            prop_assert_eq!(KvResult::Value(db.get(&k)), want);
                        }
                    },
                    Step::Batch(ops) => {
                        let (kv_ops, want): (Vec<KvOp>, Vec<KvResult>) =
                            ops.iter().map(|op| lower(op, &mut oracle)).unzip();
                        prop_assert_eq!(db.apply_batch(&kv_ops), want);
                    }
                }
            }
            // Final sweep over the whole keyspace.
            for k in 0..=u8::MAX {
                prop_assert_eq!(db.get(&key_of(k)), oracle.get(&key_of(k)).cloned());
            }
        }
    }
}
