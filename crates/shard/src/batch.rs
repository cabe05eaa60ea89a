//! Flat-combining batch operations on [`ShardedTable`]: [`TableOp`] /
//! [`TableResult`], the per-shard **publication list**, and
//! [`ShardedTable::apply_batch`] / [`ShardedTable::apply_batch_async`].
//!
//! # Why a combining layer
//!
//! Under service-shaped load every point operation pays one shard-lock
//! acquisition. When a burst of operations arrives together (a pipelined
//! network batch, a bulk load), most of those acquisitions are pure
//! overhead: the ops are independent and the shard holder could have
//! executed all of them in one critical section. The batch API does
//! exactly that — ops are grouped by shard and each shard's group runs
//! under a **single** acquisition — and when two batches collide on a
//! shard, the loser does not spin: it *posts* its shard group on the
//! shard's publication list and parks, and whichever thread holds the
//! shard lock drains the list and services the posted ops before
//! releasing. One lock acquisition amortizes the lock work of every
//! contending arrival (cf. Jayanti & Jayanti's constant *amortized* RMR
//! line of work in PAPERS.md) — classic flat combining.
//!
//! # The publication record discipline
//!
//! Publication records reuse the node discipline of the PR-5
//! `WakerQueue`: each record is an `Arc`-shared node with a one-byte
//! state machine, so every cancel-vs-claim race is memory-safe by
//! construction (whoever loses a race still holds a strong reference and
//! merely observes the winner's state):
//!
//! ```text
//!   POSTED ──claim (combiner, under shard lock)──► CLAIMED ──► DONE
//!      │
//!      └──withdraw (cancelled poster)──► ABORTED   (never applied)
//! ```
//!
//! The load-bearing invariant: **records are claimed and completed only
//! while the claiming thread holds the shard's data lock, and `DONE` is
//! stored before that lock is released.** Consequently a waiter that
//! acquires the shard lock and does not find its record `DONE` knows no
//! combiner can be mid-flight on it — it services the list (including
//! its own record) itself. There is no state in which a waiter must
//! block while holding the lock. This lifecycle is model-checked: the
//! **`proto.flat-combining`** scenario
//! (`hemlock_simlock::protocols::fc`, explored exhaustively by
//! `hemlock-model` and the `model-check` CI job) proves
//! `claimed-implies-locked` and `applied-at-most-once` over every
//! interleaving at small scope; deferring the `DONE` store past the lock
//! release (`FcBug::ReleaseBeforeDone`) is caught as a claim-discipline
//! violation.
//!
//! Completion wakeups need no new machinery: `DONE` precedes the shard
//! guard drop, and every guard drop already notifies the table's
//! [`WakerSet`](hemlock_core::wakerset::WakerSet) — the same
//! release-then-notify protocol the `*_async` point ops rely on.
//! Asynchronous posters park their task waker there. The synchronous
//! [`ShardedTable::apply_batch`] is [`block_on`] of the asynchronous one,
//! so a synchronous poster parks its *thread* there through the same
//! code: there is one batch implementation, and neither population spins
//! on a posted op.
//!
//! Cancellation safety follows the PR-5 contract: dropping a pending
//! [`ShardedTable::apply_batch_async`] future withdraws its posted
//! record (`POSTED → ABORTED`, then unlink), so an aborted op is never
//! applied; if a combiner already claimed the record the ops execute to
//! completion and only the results are discarded — work, once claimed,
//! is as unretractable as a granted lock, and an op is applied **at most
//! once** on every path.

use crate::table::{ShardGuard, ShardedTable};
use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU8, Ordering};
use core::task::Poll;
use hemlock_core::hemlock::Hemlock;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_core::{block_on, Mutex};
use hemlock_obs::trace;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// One operation in a batch submitted to [`ShardedTable::apply_batch`].
///
/// Ops are plain data (no closures): that is what lets a *different*
/// thread — the combiner — execute them on the poster's behalf. Keys and
/// values are cloned into the table on application, so the submitted
/// batch remains readable for positional result matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableOp<K, V> {
    /// Point lookup; answers [`TableResult::Value`].
    Get(K),
    /// Insert or overwrite; answers [`TableResult::Prev`].
    Put(K, V),
    /// Remove; answers [`TableResult::Prev`].
    Remove(K),
}

/// The outcome of one [`TableOp`], positionally matched to its op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableResult<V> {
    /// A [`TableOp::Get`]'s answer: the value, if present.
    Value(Option<V>),
    /// A [`TableOp::Put`]/[`TableOp::Remove`]'s answer: the previous
    /// value, if any.
    Prev(Option<V>),
    /// The op's key/value trait impls (`Hash`/`Eq`/`Clone`) panicked
    /// while it was applied. The op's effect on the table is whatever
    /// landed before the panic; **neighboring ops are unaffected** —
    /// per-op isolation is part of the batch contract.
    Panicked,
}

impl<V> TableResult<V> {
    /// The carried value (present for `Value`/`Prev`, `None` for
    /// `Panicked`) — a convenience for callers that treat lookups and
    /// previous values uniformly.
    pub fn into_value(self) -> Option<V> {
        match self {
            TableResult::Value(v) | TableResult::Prev(v) => v,
            TableResult::Panicked => None,
        }
    }
}

/// Publication-record states. See the module docs for the machine.
const POSTED: u8 = 0;
const CLAIMED: u8 = 1;
const DONE: u8 = 2;
const ABORTED: u8 = 3;

/// One posted shard group: the ops of a single batch that map to one
/// shard, awaiting service by whichever thread next holds that shard's
/// lock. `Arc`-shared between the poster and the combiner, like the
/// `WakerQueue`'s wait nodes.
pub(crate) struct PubRecord<K, V> {
    /// `POSTED` → `CLAIMED` → `DONE`, or `POSTED` → `ABORTED`.
    state: AtomicU8,
    /// The ops to apply, immutable after publication (the publication
    /// list's lock is the synchronizing edge from poster to combiner).
    /// `None` marks an op whose `Clone` panicked while the group was
    /// being posted — the combiner answers it [`TableResult::Panicked`]
    /// without applying anything, preserving positional results.
    ops: Vec<Option<TableOp<K, V>>>,
    /// Written by the sole claimant between `CLAIMED` and `DONE`
    /// (`Release`); read by the poster only after observing `DONE`
    /// (`Acquire`). No other access exists, which is the entire safety
    /// argument for the `UnsafeCell`.
    results: UnsafeCell<Vec<TableResult<V>>>,
    /// The poster's trace id (0 = untraced), captured at post time so the
    /// combiner can attribute its `shard.combine_serve` span to the
    /// request it serviced — the "which combiner serviced whose op" edge.
    trace: u64,
}

// Safety: `results` is accessed by exactly one side at a time, ordered
// by the `state` machine (see the field docs); `ops` is read-only after
// the record is published under the list lock.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for PubRecord<K, V> {}

impl<K, V> PubRecord<K, V> {
    fn new(ops: Vec<Option<TableOp<K, V>>>) -> Self {
        Self {
            state: AtomicU8::new(POSTED),
            ops,
            results: UnsafeCell::new(Vec::new()),
            trace: trace::current(),
        }
    }

    /// Takes the results out after `DONE` was observed with `Acquire`.
    fn take_results(&self) -> Vec<TableResult<V>> {
        debug_assert_eq!(self.state.load(Ordering::Acquire), DONE);
        // Safety: `DONE` (Acquire) orders us after the claimant's final
        // write; the claimant never touches `results` again and the
        // poster calls this exactly once.
        unsafe { core::mem::take(&mut *self.results.get()) }
    }
}

/// One shard's publication list: posted records awaiting a combiner.
/// Guarded by a compact one-word Hemlock lock for the same reason the
/// `WakerSet` is — posting is the contended slow path, the sections are
/// a few pointer moves, and the per-shard space cost must stay small
/// (it is priced in [`ShardedTable::footprint_bytes`]).
pub(crate) struct PubList<K, V> {
    records: Mutex<Vec<Arc<PubRecord<K, V>>>, Hemlock>,
}

impl<K, V> Default for PubList<K, V> {
    fn default() -> Self {
        Self {
            records: Mutex::new(Vec::new()),
        }
    }
}

impl<K, V> PubList<K, V> {
    fn push(&self, rec: Arc<PubRecord<K, V>>) {
        self.records.lock().push(rec);
    }

    /// Empties the list, handing every pending record to the caller
    /// (who must hold the shard's data lock — see the module invariant).
    fn drain(&self) -> Vec<Arc<PubRecord<K, V>>> {
        core::mem::take(&mut *self.records.lock())
    }

    /// Unlinks one record by identity (a withdrawing poster). Records
    /// already drained by a combiner are simply not found — the state
    /// machine, not the list, decides whether the ops run.
    fn unlink(&self, rec: &Arc<PubRecord<K, V>>) {
        self.records.lock().retain(|r| !Arc::ptr_eq(r, rec));
    }
}

/// Applies one op to a shard map with per-op panic isolation: a panic in
/// the key/value trait impls is converted to [`TableResult::Panicked`]
/// and the remaining ops of the critical section proceed. This is what
/// keeps one poisoned op from wedging a combiner servicing neighbors.
fn apply_one<K: Hash + Eq + Clone, V: Clone>(
    map: &mut HashMap<K, V>,
    op: &TableOp<K, V>,
) -> TableResult<V> {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
        TableOp::Get(k) => TableResult::Value(map.get(k).cloned()),
        TableOp::Put(k, v) => TableResult::Prev(map.insert(k.clone(), v.clone())),
        TableOp::Remove(k) => TableResult::Prev(map.remove(k)),
    }));
    r.unwrap_or(TableResult::Panicked)
}

/// A poster's handle on its in-flight shard group. Dropping the slot
/// with a still-posted record **withdraws** it (`POSTED → ABORTED`, then
/// unlink), which is what makes `apply_batch_async` cancel-safe: an
/// abandoned future leaves no record a combiner could apply.
struct PostSlot<'a, K, V, L: RawLock> {
    table: &'a ShardedTable<K, V, L>,
    idx: usize,
    rec: Option<Arc<PubRecord<K, V>>>,
}

impl<K, V, L: RawLock> Drop for PostSlot<'_, K, V, L> {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        // Forbid any future claim first, then unlink. Losing the CAS
        // means a combiner already claimed (or finished) the record: the
        // ops execute to completion and the results die with the record
        // — claimed work is not retractable, granted-lock style.
        let _ = rec
            .state
            .compare_exchange(POSTED, ABORTED, Ordering::AcqRel, Ordering::Acquire);
        self.table.shard_pubs(self.idx).unlink(&rec);
    }
}

impl<K, V, L> ShardedTable<K, V, L>
where
    K: Hash + Eq + Clone + Send + Sync,
    V: Clone + Send + Sync,
    L: RawTryLock,
{
    /// Applies a batch of ops, **one shard-lock acquisition per shard
    /// touched**, returning results positionally matched to `ops`.
    ///
    /// Ops are grouped by shard and the groups executed in ascending
    /// shard order, each atomically within its shard (at most one lock
    /// is held at a time, so batches cannot deadlock each other or
    /// [`Self::with_two`]). Cross-shard atomicity is *not* promised —
    /// a concurrent observer may see one shard's group applied and
    /// another's not yet. Within a group, ops apply in batch order with
    /// per-op panic isolation ([`TableResult::Panicked`]).
    ///
    /// When the shard is busy this call does not spin: it posts the
    /// group on the shard's publication list and parks the thread; the
    /// current lock holder's batch path (or this thread, when it wins
    /// the next acquisition) services it. See the module docs for the
    /// combining protocol. This is [`block_on`] of
    /// [`Self::apply_batch_async`].
    ///
    /// ```
    /// use hemlock_core::hemlock::Hemlock;
    /// use hemlock_shard::{ShardedTable, TableOp, TableResult};
    ///
    /// let t: ShardedTable<u32, u32, Hemlock> = ShardedTable::with_shards(4);
    /// let out = t.apply_batch(&[
    ///     TableOp::Put(1, 10),
    ///     TableOp::Get(1),
    ///     TableOp::Remove(1),
    /// ]);
    /// assert_eq!(out, vec![
    ///     TableResult::Prev(None),
    ///     TableResult::Value(Some(10)),
    ///     TableResult::Prev(Some(10)),
    /// ]);
    /// ```
    pub fn apply_batch(&self, ops: &[TableOp<K, V>]) -> Vec<TableResult<V>> {
        block_on(self.apply_batch_async(ops))
    }

    /// Asynchronous [`Self::apply_batch`]: parks the *task* (not a
    /// thread) while a posted shard group awaits service.
    ///
    /// Cancel-safe in the PR-5 sense: dropping the future withdraws any
    /// still-`POSTED` record, so unclaimed ops are never applied. Shard
    /// groups that completed before the drop (earlier shards of the
    /// batch, or a group a combiner had already claimed) stay applied —
    /// per-group all-or-nothing, never partial within a group, and
    /// never twice.
    pub async fn apply_batch_async(&self, ops: &[TableOp<K, V>]) -> Vec<TableResult<V>> {
        let mut out: Vec<Option<TableResult<V>>> = ops.iter().map(|_| None).collect();
        for (idx, ixs) in self.group_by_shard(ops) {
            let mut slot = PostSlot {
                table: self,
                idx,
                rec: None,
            };
            let results = match self.batch_step(&mut slot, ops, &ixs) {
                Some(out) => out,
                None => self.await_posted(slot, ops, &ixs).await,
            };
            for (slot, r) in ixs.into_iter().zip(results) {
                out[slot] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every op belongs to exactly one shard group"))
            .collect()
    }

    /// Groups op indices by shard, in ascending shard order (sorted
    /// iteration keeps lock acquisition order deterministic and results
    /// reproducible under contention).
    fn group_by_shard(&self, ops: &[TableOp<K, V>]) -> BTreeMap<usize, Vec<usize>> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let key = match op {
                TableOp::Get(k) | TableOp::Put(k, _) | TableOp::Remove(k) => k,
            };
            groups.entry(self.shard_index(key)).or_default().push(i);
        }
        groups
    }

    /// Parks the task until the shard group posted in `slot` is done:
    /// register → re-check → park, the lost-wakeup-free `WakerSet`
    /// protocol. Every poll registers before its one step, so a wake
    /// costs one trylock. The `PostSlot` drop guard is what withdraws
    /// the record if the future is dropped mid-wait.
    async fn await_posted(
        &self,
        mut slot: PostSlot<'_, K, V, L>,
        ops: &[TableOp<K, V>],
        ixs: &[usize],
    ) -> Vec<TableResult<V>> {
        let mut waiter = trace::Waiter::new();
        waiter.arm(trace::current());
        std::future::poll_fn(move |cx| {
            self.wakerset().register_current(cx);
            match self.batch_step(&mut slot, ops, ixs) {
                Some(out) => {
                    waiter.finish("shard.lock_wait");
                    Poll::Ready(out)
                }
                None => Poll::Pending,
            }
        })
        .await
    }

    /// One bounded attempt to finish the shard group `ixs` (indices into
    /// the caller's batch `ops`); never blocks.
    ///
    /// - Not yet posted: trylock → apply own ops *by reference* + service
    ///   the list (fast path, no clones beyond what lands in the map); on
    ///   a busy shard, clone the group into a record, post it, and report
    ///   "not done".
    /// - Posted: finished if a combiner marked it `DONE`; otherwise
    ///   trylock → become the combiner ourselves (which services our own
    ///   record — by the module invariant it *must* be `DONE` once we
    ///   hold the lock and the list is drained).
    fn batch_step(
        &self,
        slot: &mut PostSlot<'_, K, V, L>,
        ops: &[TableOp<K, V>],
        ixs: &[usize],
    ) -> Option<Vec<TableResult<V>>> {
        let idx = slot.idx;
        if let Some(rec) = &slot.rec {
            if rec.state.load(Ordering::Acquire) != DONE {
                let mut g = self.try_lock_shard_idx(idx)?;
                self.combine_locked(idx, &mut g);
            }
            let rec = slot.rec.take().expect("checked above");
            return Some(rec.take_results());
        }
        match self.try_lock_shard_idx(idx) {
            Some(mut g) => {
                if hemlock_obs::enabled() {
                    hemlock_obs::registry()
                        .shard_batch_size
                        .record(ixs.len() as u64);
                }
                let out = ixs.iter().map(|&i| apply_one(&mut g, &ops[i])).collect();
                self.combine_locked(idx, &mut g);
                Some(out)
            }
            None => {
                // Clone the group to post it; a panicking `Clone` turns
                // that op into a posted `None` (answered `Panicked`),
                // keeping per-op isolation on the publication path too.
                let cloned: Vec<Option<TableOp<K, V>>> = ixs
                    .iter()
                    .map(|&i| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ops[i].clone()))
                            .ok()
                    })
                    .collect();
                let rec = Arc::new(PubRecord::new(cloned));
                self.shard_pubs(idx).push(Arc::clone(&rec));
                slot.rec = Some(rec);
                None
            }
        }
    }

    /// Services shard `idx`'s publication list while holding its data
    /// lock: claim each pending record, apply its ops, publish results,
    /// store `DONE` — all before `g` is released (whose drop then
    /// notifies every parked poster through the `WakerSet`). Records
    /// withdrawn by a cancelled poster lose the claim CAS and are
    /// skipped without applying anything.
    fn combine_locked(&self, idx: usize, g: &mut ShardGuard<'_, K, V, L>) {
        for rec in self.shard_pubs(idx).drain() {
            if rec
                .state
                .compare_exchange(POSTED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // ABORTED: the poster withdrew before we claimed
            }
            if hemlock_obs::enabled() {
                hemlock_obs::registry()
                    .shard_batch_size
                    .record(rec.ops.len() as u64);
            }
            // Attributed to the POSTER's trace id, on the combiner's
            // thread: in the rendered trace the poster's `lock_wait`
            // overlaps this span on another track, which is exactly the
            // handoff the combining layer exists to show.
            let serve = trace::SyncSpan::start(rec.trace, "shard.combine_serve");
            let results = rec
                .ops
                .iter()
                .map(|op| match op {
                    Some(op) => apply_one(g, op),
                    None => TableResult::Panicked, // clone panicked at post
                })
                .collect();
            drop(serve);
            // Safety: we won the claim; the poster reads `results` only
            // after observing the `DONE` we store next (Release).
            unsafe { *rec.results.get() = results };
            rec.state.store(DONE, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;

    type Table<K, V> = ShardedTable<K, V, Hemlock>;

    /// Two distinct keys mapping to the same shard (found by probing).
    fn same_shard_pair<V>(t: &Table<u32, V>) -> (u32, u32) {
        for a in 0..256u32 {
            for b in (a + 1)..256u32 {
                if t.shard_index(&a) == t.shard_index(&b) {
                    return (a, b);
                }
            }
        }
        unreachable!("256 keys over few shards must collide");
    }

    #[test]
    fn batch_results_are_positional() {
        let t: Table<u32, u32> = ShardedTable::with_shards(4);
        let out = t.apply_batch(&[
            TableOp::Put(1, 10),
            TableOp::Put(2, 20),
            TableOp::Get(1),
            TableOp::Remove(2),
            TableOp::Get(2),
            TableOp::Put(1, 11),
        ]);
        assert_eq!(
            out,
            vec![
                TableResult::Prev(None),
                TableResult::Prev(None),
                TableResult::Value(Some(10)),
                TableResult::Prev(Some(20)),
                TableResult::Value(None),
                TableResult::Prev(Some(10)),
            ]
        );
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let t: Table<u32, u32> = ShardedTable::with_shards(2);
        assert!(t.apply_batch(&[]).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn one_acquisition_per_shard_touched() {
        let t: Table<u32, u32> = ShardedTable::with_shards(8);
        let (a, b) = same_shard_pair(&t);
        t.reset_stats();
        // Two ops on one shard: exactly one acquisition.
        t.apply_batch(&[TableOp::Put(a, 1), TableOp::Put(b, 2)]);
        assert_eq!(t.stats().acquisitions(), 1);
    }

    #[test]
    fn same_key_twice_in_one_batch_sees_its_own_writes() {
        let t: Table<u32, u32> = ShardedTable::with_shards(2);
        let out = t.apply_batch(&[
            TableOp::Put(7, 1),
            TableOp::Put(7, 2),
            TableOp::Get(7),
            TableOp::Remove(7),
            TableOp::Get(7),
        ]);
        assert_eq!(
            out,
            vec![
                TableResult::Prev(None),
                TableResult::Prev(Some(1)),
                TableResult::Value(Some(2)),
                TableResult::Prev(Some(2)),
                TableResult::Value(None),
            ]
        );
    }

    #[test]
    fn panicking_op_is_isolated_from_its_neighbors() {
        #[derive(Debug, PartialEq, Eq)]
        struct Val(u32);
        impl Clone for Val {
            fn clone(&self) -> Self {
                assert!(self.0 != 666, "poisoned value");
                Val(self.0)
            }
        }
        let t: ShardedTable<u32, Val, Hemlock> = ShardedTable::with_shards(1);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let out = t.apply_batch(&[
            TableOp::Put(1, Val(1)),
            TableOp::Put(2, Val(666)), // clone panics on application
            TableOp::Put(3, Val(3)),
        ]);
        std::panic::set_hook(hook);
        assert_eq!(out[0], TableResult::Prev(None));
        assert_eq!(out[1], TableResult::Panicked);
        assert_eq!(out[2], TableResult::Prev(None));
        // Neighbors landed; the poisoned op did not.
        assert!(t.with(&1, |v| v.is_some()));
        assert!(t.with(&2, |v| v.is_none()));
        assert!(t.with(&3, |v| v.is_some()));
    }

    #[test]
    fn contending_batches_all_land() {
        use std::sync::Arc as StdArc;
        // One shard: every batch collides, so the publication path (post,
        // combine, park) is exercised hard. Disjoint key ranges make any
        // lost or doubled op visible in the final count.
        let t: StdArc<Table<u32, u32>> = StdArc::new(ShardedTable::with_shards(1));
        let threads = 4u32;
        let rounds = if cfg!(miri) { 5 } else { 200 };
        let per_batch = 8u32;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = StdArc::clone(&t);
                s.spawn(move || {
                    for r in 0..rounds {
                        let base = tid * 1_000_000 + r * per_batch;
                        let ops: Vec<TableOp<u32, u32>> = (0..per_batch)
                            .map(|i| TableOp::Put(base + i, tid))
                            .collect();
                        let out = t.apply_batch(&ops);
                        assert!(out.iter().all(|r| *r == TableResult::Prev(None)));
                    }
                });
            }
        });
        assert_eq!(t.len(), (threads * rounds * per_batch) as usize);
    }

    #[test]
    fn a_batch_parked_behind_a_point_guard_completes() {
        use std::sync::Arc as StdArc;
        let t: StdArc<Table<u32, u32>> = StdArc::new(ShardedTable::with_shards(1));
        let held = t.guard(&1); // point-op holder: never services the list
        let t2 = StdArc::clone(&t);
        let poster =
            std::thread::spawn(move || t2.apply_batch(&[TableOp::Put(1, 10), TableOp::Put(2, 20)]));
        // Give the poster time to post and park behind the held guard.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held); // release → notify: the poster wakes, combines itself
        let out = poster.join().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(t.get(&1), Some(10));
        assert_eq!(t.get(&2), Some(20));
    }

    #[test]
    fn async_batch_roundtrip_and_sync_async_mix() {
        use hemlock_harness::executor::TaskPool;
        use std::sync::Arc as StdArc;
        let t: StdArc<Table<u32, u64>> = StdArc::new(ShardedTable::with_shards(1));
        let pool = TaskPool::new(2);
        let rounds = if cfg!(miri) { 5 } else { 100 };
        let handles: Vec<_> = (0..2u64)
            .map(|task| {
                let t = StdArc::clone(&t);
                pool.spawn(async move {
                    for r in 0..rounds {
                        let base = (task * 1_000_000 + r * 4) as u32;
                        let ops: Vec<TableOp<u32, u64>> =
                            (0..4).map(|i| TableOp::Put(base + i, task)).collect();
                        let out = t.apply_batch_async(&ops).await;
                        assert_eq!(out.len(), 4);
                    }
                })
            })
            .collect();
        std::thread::scope(|s| {
            let t = StdArc::clone(&t);
            s.spawn(move || {
                for r in 0..rounds {
                    let base = (2_000_000 + r * 4) as u32;
                    let ops: Vec<TableOp<u32, u64>> =
                        (0..4).map(|i| TableOp::Put(base + i, 2)).collect();
                    t.apply_batch(&ops);
                }
            });
        });
        for h in handles {
            h.join();
        }
        assert_eq!(t.len(), (3 * rounds * 4) as usize);
    }

    #[test]
    fn cancelled_async_batch_is_withdrawn_not_applied() {
        use std::future::Future;
        use std::sync::Arc as StdArc;
        use std::task::{Context, Wake, Waker};
        struct Noop;
        impl Wake for Noop {
            fn wake(self: StdArc<Self>) {}
        }
        let t: Table<u32, u32> = ShardedTable::with_shards(1);
        let held = t.guard(&9); // keep the shard busy so the batch posts
        {
            let fut = t.apply_batch_async(&[TableOp::Put(1, 1), TableOp::Put(2, 2)]);
            let mut fut = Box::pin(fut);
            let waker = Waker::from(StdArc::new(Noop));
            assert!(fut
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
            // Drop the pending future: the posted record is withdrawn.
        }
        drop(held);
        // The cancelled ops were never applied…
        assert_eq!(t.get(&1), None);
        assert_eq!(t.get(&2), None);
        // …and the shard is fully serviceable afterwards (no stale
        // record wedges later combiners).
        let out = t.apply_batch(&[TableOp::Put(1, 10), TableOp::Get(1)]);
        assert_eq!(out[1], TableResult::Value(Some(10)));
    }

    #[test]
    fn concurrent_clear_never_splits_a_shard_group() {
        use std::sync::atomic::{AtomicBool, Ordering as AO};
        use std::sync::Arc as StdArc;
        // Satellite fix test: `clear` cuts per shard — a batch's
        // same-shard group (applied under one shard lock) must never be
        // observed half-cleared. Writer pairs (a, b) always carry the
        // same round value; a reader batch on the same shard must see
        // the pair equal (both absent or both the same round).
        let t: StdArc<Table<u32, u32>> = StdArc::new(ShardedTable::with_shards(4));
        let (a, b) = same_shard_pair(&t);
        let stop = StdArc::new(AtomicBool::new(false));
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        std::thread::scope(|s| {
            {
                let (t, stop) = (StdArc::clone(&t), StdArc::clone(&stop));
                s.spawn(move || {
                    let mut r = 0u32;
                    while !stop.load(AO::Relaxed) {
                        t.apply_batch(&[TableOp::Put(a, r), TableOp::Put(b, r)]);
                        r = r.wrapping_add(1);
                    }
                });
            }
            {
                let (t, stop) = (StdArc::clone(&t), StdArc::clone(&stop));
                s.spawn(move || {
                    while !stop.load(AO::Relaxed) {
                        t.clear();
                    }
                });
            }
            for _ in 0..rounds {
                let out = t.apply_batch(&[TableOp::Get(a), TableOp::Get(b)]);
                let (va, vb) = match (&out[0], &out[1]) {
                    (TableResult::Value(x), TableResult::Value(y)) => (x, y),
                    other => panic!("unexpected results: {other:?}"),
                };
                assert_eq!(va, vb, "shard cut split a same-shard batch group");
            }
            stop.store(true, AO::Relaxed);
        });
    }
}
