//! The RW view of the lock catalog (`hemlock_locks::catalog`): `rw.*`
//! selectors. Each row's RW face is [`RwFromRaw`](crate::RwFromRaw) over
//! the row's lock, or the native type the row names
//! ([`HemlockRw`](crate::HemlockRw) for `"rw.hemlock"`). Its [`LockMeta`]
//! is that type's `META` with the display name patched to the row's
//! `rw_name` (`"RW-MCS"`); Rust has no `const` string concatenation.

use hemlock_core::dynrw::{DynRwAdapter, DynRwLock, DynRwMutex, DynRwTimedAdapter};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawLock;
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, TryLockVisitor, View};

/// Maps a catalog row's RW slot to its type: `rw_type!(RwFromRaw, L)` is
/// [`RwFromRaw<L>`](crate::RwFromRaw); `rw_type!(HemlockRw, L)` is
/// [`HemlockRw`](crate::HemlockRw).
#[macro_export]
macro_rules! rw_type {
    (RwFromRaw, $ty:ty) => { $crate::RwFromRaw<$ty> };
    (HemlockRw, $ty:ty) => { $crate::HemlockRw };
}

fn rw_meta<L: RawLock>(entry: &CatalogEntry) -> LockMeta {
    LockMeta {
        name: entry.rw_name,
        ..L::META
    }
}

macro_rules! gen_rw_view {
    ($(($key:literal, [$($alias:literal),*], $ty:ty, $cap:ident, ($rw_name:literal, [$($rw_alias:literal),*], $rw:ident))),+ $(,)?) => {
        /// Statically dispatches `visitor` on `entry`'s RW type.
        pub fn with_rw_lock_type<V: LockVisitor>(entry: &CatalogEntry, visitor: V) -> V::Output {
            match entry.key {
                $($key => visitor.visit::<rw_type!($rw, $ty)>(rw_meta::<rw_type!($rw, $ty)>(entry)),)+
                _ => unreachable!("catalog key missing from RW dispatch table"),
            }
        }

        /// [`with_rw_lock_type`] for a [`TryLockVisitor`]; `None` for
        /// `no_try` rows (`rw.clh`, `rw.anderson`).
        pub fn with_try_rw_lock_type<V: TryLockVisitor>(entry: &CatalogEntry, visitor: V) -> Option<V::Output> {
            match entry.key {
                $($key => gen_rw_view!(@try $cap, rw_type!($rw, $ty), visitor, entry),)+
                _ => unreachable!("catalog key missing from RW dispatch table"),
            }
        }

        /// Builds a fresh, unlocked handle on `entry`'s RW face; its timed
        /// paths are real exactly for `try` rows.
        pub fn make(entry: &CatalogEntry) -> Box<dyn DynRwLock> {
            match entry.key {
                $($key => gen_rw_view!(@make $cap, rw_type!($rw, $ty), entry),)+
                _ => unreachable!("catalog key missing from RW dispatch table"),
            }
        }
    };
    (@try try, $ty:ty, $visitor:ident, $entry:ident) => { Some($visitor.visit::<$ty>(rw_meta::<$ty>($entry))) };
    (@try no_try, $ty:ty, $visitor:ident, $entry:ident) => {{ let _ = $visitor; None }};
    (@make try, $ty:ty, $entry:ident) => { Box::new(DynRwTimedAdapter::<$ty>::with_meta(rw_meta::<$ty>($entry))) };
    (@make no_try, $ty:ty, $entry:ident) => { Box::new(DynRwAdapter::<$ty>::with_meta(rw_meta::<$ty>($entry))) };
}
hemlock_locks::for_each_lock!(gen_rw_view);

/// The RW face's descriptor, as its runtime handle reports it.
pub fn meta(entry: &CatalogEntry) -> LockMeta {
    make(entry).meta()
}

/// Builds a runtime reader-writer lock handle for `name`.
pub fn dyn_rw_lock(name: &str) -> Result<Box<dyn DynRwLock>, String> {
    Ok(make(catalog::resolve(name, &[View::Rw])?.entry))
}

/// Builds a [`DynRwMutex`] protecting `value` with the algorithm `name`.
pub fn dyn_rw_mutex<T>(name: &str, value: T) -> Result<DynRwMutex<T>, String> {
    Ok(DynRwMutex::new(dyn_rw_lock(name)?, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::raw::RawTryLock;
    use hemlock_locks::catalog::{find, keys, resolve_list, ENTRIES};

    /// Mixed-view static dispatch, the way `rwbench` runs it: `rw.*`
    /// selections reach the RW face, anything else the lock itself.
    fn dispatch<V: LockVisitor>(name: &str, visitor: V) -> Option<V::Output> {
        let sel = find(name)?;
        Some(match sel.view {
            View::Rw => with_rw_lock_type(sel.entry, visitor),
            _ => catalog::with_lock_type(sel.entry, visitor),
        })
    }

    fn dispatch_timed<V: TryLockVisitor>(name: &str, visitor: V) -> Option<V::Output> {
        let sel = find(name)?;
        match sel.view {
            View::Rw => with_try_rw_lock_type(sel.entry, visitor),
            _ => catalog::with_try_lock_type(sel.entry, visitor),
        }
    }

    #[test]
    fn every_exclusive_key_has_an_rw_counterpart() {
        for entry in ENTRIES {
            let rw_key = format!("rw.{}", entry.key);
            let rw = find(&rw_key)
                .unwrap_or_else(|| panic!("no RW counterpart for catalog key {}", entry.key));
            assert_eq!((rw.view, rw.key()), (View::Rw, rw_key.as_str()));
            let rw = meta(rw.entry);
            assert!(rw.rw, "{rw_key}: descriptor must advertise rw");
            // Trylock/abortable capability mirrors the gate's: a CLH gate
            // cannot withdraw, so neither can its adapter.
            assert_eq!(
                rw.try_lock, entry.meta.try_lock,
                "{rw_key}: trylock capability must mirror the gate"
            );
            assert_eq!(
                rw.abortable, entry.meta.abortable,
                "{rw_key}: abortable capability must mirror the gate"
            );
        }
        assert_eq!(catalog::view(View::Rw).count(), ENTRIES.len());
    }

    #[test]
    fn timed_capability_agrees_between_meta_and_dyn_handle() {
        use core::time::Duration;
        for entry in ENTRIES {
            let lock = make(entry);
            let read = lock.try_read_lock_for(Duration::from_millis(5));
            let write = lock.try_write_lock_for(Duration::from_millis(5));
            if meta(entry).abortable {
                // Free lock: the read attempt must have been admitted; the
                // write attempt then timed out behind it (readers exclude
                // writers) — both through the vtable.
                assert_eq!(read, Ok(true), "{}", entry.key);
                assert_eq!(write, Ok(false), "{}: writer behind a reader", entry.key);
                // Safety: read-acquired just above on this thread.
                unsafe { lock.read_unlock() };
                assert_eq!(
                    lock.try_write_lock_for(Duration::from_millis(5)),
                    Ok(true),
                    "{}",
                    entry.key
                );
                // Safety: write-acquired just above on this thread.
                unsafe { lock.write_unlock() };
            } else {
                assert!(read.is_err(), "{}", entry.key);
                assert!(write.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn timed_dispatch_reaches_both_catalogs_and_skips_unwithdrawable_entries() {
        struct TimedRoundtrip;
        impl TryLockVisitor for TimedRoundtrip {
            type Output = &'static str;
            fn visit<L: RawTryLock + 'static>(self, meta: LockMeta) -> Self::Output {
                let l = L::default();
                assert!(
                    l.try_lock_for(core::time::Duration::from_millis(5)),
                    "{}",
                    meta.name
                );
                // Safety: the timed acquisition conferred ownership.
                unsafe { l.unlock() };
                assert!(
                    l.try_read_lock_for(core::time::Duration::from_millis(5)),
                    "{}",
                    meta.name
                );
                // Safety: the timed read acquisition succeeded above.
                unsafe { l.read_unlock() };
                meta.name
            }
        }
        assert_eq!(
            dispatch_timed("rw.hemlock", TimedRoundtrip),
            Some("HemlockRw")
        );
        assert_eq!(dispatch_timed("rw.mcs", TimedRoundtrip), Some("RW-MCS"));
        assert_eq!(dispatch_timed("hemlock", TimedRoundtrip), Some("Hemlock"));
        assert_eq!(dispatch_timed("ticket", TimedRoundtrip), Some("Ticket"));
        // Known but unwithdrawable names dispatch to None in both views.
        assert_eq!(dispatch_timed("rw.clh", TimedRoundtrip), None);
        assert_eq!(dispatch_timed("clh", TimedRoundtrip), None);
        assert_eq!(dispatch_timed("bogus", TimedRoundtrip), None);
    }

    #[test]
    fn finds_by_key_alias_display_name_case_insensitively() {
        let rw = |name: &str| find(name).filter(|s| s.view == View::Rw);
        assert_eq!(meta(rw("rw.hemlock").unwrap().entry).name, "HemlockRw");
        assert_eq!(rw("HEMLOCKRW").unwrap().key(), "rw.hemlock");
        assert_eq!(rw("hemlock.rw").unwrap().key(), "rw.hemlock");
        assert_eq!(rw("RW-MCS").unwrap().key(), "rw.mcs");
        assert!(rw("mcs").is_none(), "exclusive keys stay out of this view");
        assert!(rw("nope").is_none());
    }

    #[test]
    fn every_entry_builds_a_working_dyn_rw_lock() {
        for entry in ENTRIES {
            let lock = make(entry);
            assert_eq!(lock.meta(), meta(entry), "{}", entry.key);
            lock.write_lock();
            // Safety: acquired on this thread just above.
            unsafe { lock.write_unlock() };
            lock.read_lock();
            // Safety: read-acquired on this thread just above.
            unsafe { lock.read_unlock() };
        }
    }

    #[test]
    fn resolve_list_preserves_order_and_reports_errors() {
        let rw = &[View::Rw];
        let picked = resolve_list("rw.mcs, rw.clh,rw.hemlock", rw).unwrap();
        assert_eq!(
            picked.iter().map(|s| s.key()).collect::<Vec<_>>(),
            ["rw.mcs", "rw.clh", "rw.hemlock"]
        );
        assert!(resolve_list("rw.mcs,bogus", rw)
            .unwrap_err()
            .contains("known RW locks"));
        assert!(resolve_list("rw.mcs,,rw.clh", rw)
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list("rw.mcs,RW-MCS", rw)
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn dyn_rw_mutex_by_name() {
        let m = dyn_rw_mutex("rw.ticket", 41u32).unwrap();
        *m.write() += 1;
        assert_eq!(*m.read(), 42);
        assert_eq!(m.meta().name, "RW-Ticket");
        assert!(dyn_rw_mutex("bogus", 0).is_err());
    }

    #[test]
    fn static_dispatch_reaches_both_catalogs() {
        struct NameAndSize;
        impl LockVisitor for NameAndSize {
            type Output = (&'static str, usize, bool);
            fn visit<L: RawLock + 'static>(self, meta: LockMeta) -> Self::Output {
                (meta.name, core::mem::size_of::<L>(), meta.rw)
            }
        }
        let (name, size, rw) = dispatch("rw.mcs", NameAndSize).unwrap();
        assert_eq!(name, "RW-MCS");
        assert_eq!(
            size,
            core::mem::size_of::<crate::RwFromRaw<hemlock_locks::McsLock>>()
        );
        assert!(rw);
        // Exclusive fall-through: same visitor, degraded read path.
        let (name, _, rw) = dispatch("mcs", NameAndSize).unwrap();
        assert_eq!(name, "MCS");
        assert!(!rw);
        assert!(dispatch("bogus", NameAndSize).is_none());
    }

    #[test]
    fn keys_are_unique_prefixed_and_listed_with_the_exclusive_keys() {
        let keys_rw = keys(&[View::Rw]);
        assert_eq!(keys_rw.len(), ENTRIES.len());
        assert!(keys_rw.iter().all(|k| k.starts_with("rw.")));
        let mut dedup = keys_rw.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys_rw.len());
        let all = keys(&[View::Exclusive, View::Rw]);
        assert!(all.len() == keys_rw.len() + keys(&[View::Exclusive]).len());
        assert!(all.contains(&"hemlock") && all.contains(&"rw.hemlock"));
    }

    #[test]
    fn display_names_do_not_collide_with_exclusive_ones() {
        for rw in ENTRIES {
            assert!(
                ENTRIES
                    .iter()
                    .all(|e| !e.meta.name.eq_ignore_ascii_case(meta(rw).name)),
                "{} shadows an exclusive display name",
                meta(rw).name
            );
        }
    }
}
