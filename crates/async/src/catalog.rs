//! The async view of the lock catalog (`hemlock_locks::catalog`):
//! `async.*` selectors. Every **asyncable** row ([`LockMeta::asyncable`],
//! in practice the abortable subset — not CLH or Anderson, whose waiters
//! cannot withdraw and so cannot back a cancel-safe future) has an async
//! face: a [`DynAsyncLock`] waker queue guarded by the row's lock. Its
//! static type is the guard itself, so static dispatch is
//! `with_try_lock_type`; this module adds the dynamic factory and
//! re-exports what resolving a selector needs.

use crate::dynasync::{boxed_async, DynAsyncLock, DynAsyncMutex};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawTryLock;
pub use hemlock_locks::catalog::{
    keys, resolve, resolve_list, view, with_try_lock_type, CatalogEntry, Selection, TryLockVisitor,
    View,
};

/// Builds a fresh, idle, type-erased waker queue guarded by `entry`'s
/// algorithm; `None` when the async view does not cover the row.
pub fn make(entry: &CatalogEntry) -> Option<Box<dyn DynAsyncLock>> {
    struct Make;
    impl TryLockVisitor for Make {
        type Output = Box<dyn DynAsyncLock>;
        fn visit<L: RawTryLock + 'static>(self, _meta: LockMeta) -> Self::Output {
            boxed_async::<L>()
        }
    }
    View::Async
        .covers(entry)
        .then(|| with_try_lock_type(entry, Make))?
}

/// Builds a runtime async-lock handle for `name`.
pub fn dyn_async_lock(name: &str) -> Result<Box<dyn DynAsyncLock>, String> {
    let sel = resolve(name, &[View::Async])?;
    Ok(make(sel.entry).expect("async view rows have a trylock path"))
}

/// Builds a [`DynAsyncMutex`] protecting `value` with the algorithm
/// `name`.
pub fn dyn_async_mutex<T>(name: &str, value: T) -> Result<DynAsyncMutex<T>, String> {
    Ok(DynAsyncMutex::new(dyn_async_lock(name)?, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_harness::executor::block_on;
    use hemlock_locks::catalog::{find, ENTRIES};

    #[test]
    fn async_keys_are_exactly_the_abortable_subset() {
        let abortable = hemlock_locks::catalog::abortable();
        assert_eq!(view(View::Async).count(), abortable.len());
        for entry in &abortable {
            let async_key = format!("async.{}", entry.key);
            let found = find(&async_key)
                .unwrap_or_else(|| panic!("no async counterpart for abortable key {}", entry.key));
            assert_eq!((found.view, found.key()), (View::Async, async_key.as_str()));
            assert_eq!(found.entry.meta, entry.meta, "{async_key}");
            assert!(found.entry.meta.asyncable, "{async_key}");
            assert!(found.entry.meta.abortable, "{async_key}");
        }
        // The unwithdrawable entries stay out.
        assert!(find("async.clh").is_none());
        assert!(find("async.anderson").is_none());
    }

    #[test]
    fn asyncable_equals_abortable_across_the_exclusive_catalog() {
        for entry in ENTRIES {
            assert_eq!(
                entry.meta.asyncable, entry.meta.abortable,
                "{}: asyncable must equal abortable",
                entry.key
            );
        }
    }

    #[test]
    fn finds_by_key_and_alias_case_insensitively() {
        let a = |name: &str| resolve(name, &[View::Async]).ok();
        assert_eq!(a("async.hemlock").unwrap().entry.meta.name, "Hemlock");
        assert_eq!(a("ASYNC.HEMLOCK.CTR").unwrap().key(), "async.hemlock");
        assert_eq!(a("async.mcs").unwrap().entry.meta.name, "MCS");
        assert!(a("hemlock").is_none(), "exclusive keys stay out");
        assert!(a("nope").is_none());
    }

    #[test]
    fn every_entry_builds_a_working_dyn_async_lock() {
        for sel in view(View::Async) {
            let lock = make(sel.entry).unwrap();
            assert_eq!(lock.meta(), sel.entry.meta, "{}", sel.key());
            assert!(lock.is_idle(), "{}", sel.key());
            assert!(lock.try_acquire(true), "{}", sel.key());
            assert!(!lock.try_acquire(true), "{}", sel.key());
            // Safety: acquired just above.
            unsafe { lock.release(true) };
            assert!(lock.is_idle(), "{}", sel.key());
        }
        assert!(make(find("clh").unwrap().entry).is_none());
    }

    #[test]
    fn resolve_list_preserves_order_and_reports_errors() {
        let a = &[View::Async];
        let picked = resolve_list("async.mcs, async.hemlock", a).unwrap();
        assert_eq!(
            picked.iter().map(|s| s.key()).collect::<Vec<_>>(),
            ["async.mcs", "async.hemlock"]
        );
        assert!(resolve_list("async.mcs,bogus", a)
            .unwrap_err()
            .contains("known async locks"));
        assert!(resolve_list("async.mcs,,async.tas", a)
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list("async.mcs,ASYNC.MCS", a)
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn dyn_async_mutex_by_name() {
        let m = dyn_async_mutex("async.ticket", 41u32).unwrap();
        block_on(async {
            *m.lock().await += 1;
        });
        assert_eq!(block_on(async { *m.lock().await }), 42);
        assert_eq!(m.meta().name, "Ticket");
        assert!(dyn_async_mutex("bogus", 0).is_err());
    }

    #[test]
    fn static_dispatch_reaches_the_right_type() {
        struct NameOf;
        impl TryLockVisitor for NameOf {
            type Output = &'static str;
            fn visit<L: RawTryLock + 'static>(self, meta: LockMeta) -> Self::Output {
                assert_eq!(L::META, meta);
                L::META.name
            }
        }
        let sel = resolve("async.mcs", &[View::Async]).unwrap();
        assert_eq!(with_try_lock_type(sel.entry, NameOf), Some("MCS"));
        assert!(resolve("mcs", &[View::Async]).is_err());
        assert!(resolve("bogus", &[View::Async]).is_err());
    }

    #[test]
    fn keys_are_unique_and_prefixed() {
        let keys = keys(&[View::Async]);
        assert_eq!(keys.len(), view(View::Async).count());
        assert!(keys.iter().all(|k| k.starts_with("async.")));
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
