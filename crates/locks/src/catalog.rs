//! The lock catalog: the one list of lock algorithms in the workspace.
//!
//! Every lock — the Hemlock family from `hemlock-core` plus the baselines
//! in this crate — is one row of [`for_each_lock!`](crate::for_each_lock),
//! materialized as one [`CatalogEntry`]: selector spellings, the
//! algorithm's [`LockMeta`], and a [`DynLock`] factory. This is the Rust
//! analog of the paper's `LD_PRELOAD` interposition (§5): every binary's
//! `--lock <name>[,<name>…]` resolves here.
//!
//! A selector's prefix picks a [`View`] of a row, and view membership
//! follows from the row's `LockMeta` bits: no prefix names the lock itself
//! (every row); `rw.` its reader-writer face (every row; the RW display
//! names and aliases such as `"RW-MCS"` and `"hemlockrw"` need no prefix);
//! `async.` a waker queue it guards (rows with `meta.asyncable`).
//! `hemlock-rw` and `hemlock-async` hold only their view's type mapping.
//! Adding a lock means adding one row.
//!
//! Dispatch is **dynamic** ([`dyn_lock`], [`dyn_mutex`]) or **static**
//! ([`with_lock_type`], [`with_try_lock_type`]: a visitor monomorphized
//! for the chosen row, so benchmark loops stay tight).

use hemlock_core::dynlock::{boxed, boxed_try, DynLock, DynMutex};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};

/// Re-exports of every catalogued lock type, so `for_each_lock!` callers
/// (and the macro's own `$crate::catalog::types::…` paths) resolve without
/// depending on `hemlock-core` directly.
pub mod types {
    pub use crate::{AndersonLock, ClhLock, McsLock, TasLock, TicketLock, TtasLock};
    pub use hemlock_core::hemlock::{
        Hemlock, HemlockAh, HemlockChain, HemlockInstrumented, HemlockNaive, HemlockOverlap,
        HemlockParking, HemlockV1, HemlockV2,
    };
    pub use hemlock_obs::ObservedHemlock;
}

/// Invokes a callback macro with the catalog, one row per algorithm:
/// `(key, [aliases…], Type, try|no_try, (rw-name, [rw-aliases…], RwType))`.
/// `try` rows implement `RawTryLock` (trylock and the timed family);
/// `no_try` rows (CLH, Anderson) cannot withdraw a waiter once advertised.
/// The last group is the RW face: display name, unprefixed aliases, and
/// `RwFromRaw` (the adapter over `Type`) or a native RW type's name, mapped
/// by `hemlock_rw::rw_type!`.
///
/// ```
/// macro_rules! count_locks {
///     ($(($key:literal, [$($alias:literal),*], $ty:ty, $cap:ident, $rw:tt)),+ $(,)?) => {
///         const N: usize = 0 $(+ { let _ = $key; 1 })+;
///     };
/// }
/// hemlock_locks::for_each_lock!(count_locks);
/// assert_eq!(N, hemlock_locks::catalog::ENTRIES.len());
/// ```
#[macro_export]
macro_rules! for_each_lock {
    ($cb:path) => {
        $cb! {
            ("hemlock", ["hemlock.ctr"], $crate::catalog::types::Hemlock, try, ("HemlockRw", ["hemlockrw", "hemlock.rw"], HemlockRw)),
            ("hemlock.naive", ["hemlock-"], $crate::catalog::types::HemlockNaive, try, ("RW-Hemlock-", [], RwFromRaw)),
            ("hemlock.overlap", [], $crate::catalog::types::HemlockOverlap, try, ("RW-Hemlock+Overlap", [], RwFromRaw)),
            ("hemlock.ah", [], $crate::catalog::types::HemlockAh, try, ("RW-Hemlock+AH", [], RwFromRaw)),
            ("hemlock.v1", ["hemlock.hov1"], $crate::catalog::types::HemlockV1, try, ("RW-Hemlock+HOV1", [], RwFromRaw)),
            ("hemlock.v2", ["hemlock.hov2"], $crate::catalog::types::HemlockV2, try, ("RW-Hemlock+HOV2", [], RwFromRaw)),
            ("hemlock.parking", ["hemlock.cv"], $crate::catalog::types::HemlockParking, try, ("RW-Hemlock+CV", [], RwFromRaw)),
            ("hemlock.chain", [], $crate::catalog::types::HemlockChain, try, ("RW-Hemlock+Chain", [], RwFromRaw)),
            ("hemlock.instr", ["hemlock.instrumented"], $crate::catalog::types::HemlockInstrumented, try, ("RW-Hemlock(instr)", [], RwFromRaw)),
            ("obs.hemlock", ["hemlock.obs"], $crate::catalog::types::ObservedHemlock, try, ("RW-Hemlock(obs)", [], RwFromRaw)),
            ("mcs", [], $crate::catalog::types::McsLock, try, ("RW-MCS", [], RwFromRaw)),
            ("clh", [], $crate::catalog::types::ClhLock, no_try, ("RW-CLH", [], RwFromRaw)),
            ("ticket", [], $crate::catalog::types::TicketLock, try, ("RW-Ticket", [], RwFromRaw)),
            ("tas", [], $crate::catalog::types::TasLock, try, ("RW-TAS", [], RwFromRaw)),
            ("ttas", [], $crate::catalog::types::TtasLock, try, ("RW-TTAS", [], RwFromRaw)),
            ("anderson", [], $crate::catalog::types::AndersonLock, no_try, ("RW-Anderson", [], RwFromRaw)),
        }
    };
}

/// Which face of a row a selector names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// The lock itself (no prefix).
    Exclusive,
    /// Its reader-writer face (`rw.` prefix); covers every row.
    Rw,
    /// A waker queue it guards (`async.` prefix); covers asyncable rows.
    Async,
}

impl View {
    /// Every view, in listing order.
    pub const ALL: [View; 3] = [View::Exclusive, View::Rw, View::Async];

    /// The selector prefix naming this view.
    pub const fn prefix(self) -> &'static str {
        ["", "rw.", "async."][self as usize]
    }

    /// True when this view has a face for `entry`: a waiter that cannot
    /// withdraw cannot back a cancel-safe future, so only `asyncable` rows
    /// have an async face.
    pub fn covers(self, entry: &CatalogEntry) -> bool {
        self != View::Async || entry.meta.asyncable
    }
}

/// One catalog row: selector spellings, metadata, and a handle factory.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Canonical key of the lock itself, e.g. `"hemlock.v1"`.
    pub key: &'static str,
    /// Alternate spellings of the key.
    pub aliases: &'static [&'static str],
    /// The algorithm's descriptor: the static type's `META`, which is also
    /// the async face's (a queue guarded by Hemlock is still Hemlock).
    pub meta: LockMeta,
    /// The RW face's display name, e.g. `"RW-MCS"`.
    pub rw_name: &'static str,
    /// Unprefixed spellings of the RW face, e.g. `"hemlockrw"`.
    pub rw_aliases: &'static [&'static str],
    /// Builds a fresh, unlocked, type-erased handle on this algorithm.
    pub make: fn() -> Box<dyn DynLock>,
    view_keys: [&'static str; 3],
}

impl CatalogEntry {
    /// True when `name` selects the lock itself: the key, an alias, or the
    /// display name, ASCII-case-insensitively.
    pub fn matches(&self, name: &str) -> bool {
        self.key.eq_ignore_ascii_case(name)
            || self.meta.name.eq_ignore_ascii_case(name)
            || self.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    }
}

/// A resolved selector: a row and the view it was named in.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// The selected algorithm.
    pub entry: &'static CatalogEntry,
    /// The face of it the selector named.
    pub view: View,
}

impl Selection {
    /// The canonical key of the selection, e.g. `"async.mcs"`.
    pub fn key(self) -> &'static str {
        self.entry.view_keys[self.view as usize]
    }
}

/// A computation instantiated per statically-dispatched lock type.
pub trait LockVisitor {
    /// Result produced per lock type.
    type Output;
    /// Runs with the chosen type as `L`; `meta` is the selected view's.
    fn visit<L: RawLock + 'static>(self, meta: LockMeta) -> Self::Output;
}

/// [`LockVisitor`] for trylock-capable types: the bound gives the body
/// `try_lock`, the `try_lock_for` family and `AsyncMutex<T, L>` at zero
/// dispatch cost.
pub trait TryLockVisitor {
    /// Result produced per lock type.
    type Output;
    /// Runs with the chosen type as `L`; `meta` is the selected view's.
    fn visit<L: RawTryLock + 'static>(self, meta: LockMeta) -> Self::Output;
}

macro_rules! gen_catalog {
    ($(($key:literal, [$($alias:literal),*], $ty:ty, $cap:ident, ($rw_name:literal, [$($rw_alias:literal),*], $rw:ident))),+ $(,)?) => {
        /// Every lock algorithm, in catalog order (Hemlock family first).
        pub static ENTRIES: &[CatalogEntry] = &[
            $(CatalogEntry {
                key: $key,
                aliases: &[$($alias),*],
                meta: <$ty as RawLock>::META,
                rw_name: $rw_name,
                rw_aliases: &[$($rw_alias),*],
                make: gen_catalog!(@make $cap, $ty),
                view_keys: [$key, concat!("rw.", $key), concat!("async.", $key)],
            }),+
        ];

        /// Statically dispatches `visitor` on `entry`'s lock type (the
        /// exclusive face, and the async face's queue guard).
        pub fn with_lock_type<V: LockVisitor>(entry: &CatalogEntry, visitor: V) -> V::Output {
            match entry.key {
                $($key => visitor.visit::<$ty>(entry.meta),)+
                _ => unreachable!("catalog key missing from dispatch table"),
            }
        }

        /// [`with_lock_type`] for a [`TryLockVisitor`]; `None` for `no_try`
        /// rows.
        pub fn with_try_lock_type<V: TryLockVisitor>(entry: &CatalogEntry, visitor: V) -> Option<V::Output> {
            match entry.key {
                $($key => gen_catalog!(@try $cap, $ty, visitor, entry),)+
                _ => unreachable!("catalog key missing from dispatch table"),
            }
        }
    };
    (@make try, $ty:ty) => { boxed_try::<$ty> };
    (@make no_try, $ty:ty) => { boxed::<$ty> };
    (@try try, $ty:ty, $visitor:ident, $entry:ident) => { Some($visitor.visit::<$ty>($entry.meta)) };
    (@try no_try, $ty:ty, $visitor:ident, $entry:ident) => {{ let _ = $visitor; None }};
}
for_each_lock!(gen_catalog);

/// The selections of one view, in catalog order.
pub fn view(view: View) -> impl Iterator<Item = Selection> {
    ENTRIES
        .iter()
        .filter(move |e| view.covers(e))
        .map(move |entry| Selection { entry, view })
}

/// The canonical keys of `views`, view by view.
pub fn keys(views: &[View]) -> Vec<&'static str> {
    views
        .iter()
        .flat_map(|&v| view(v).map(Selection::key))
        .collect()
}

/// Looks up a selector in any view, case-insensitively: the prefix picks
/// the view and the rest must select a row; unprefixed RW display names
/// and aliases select the RW view.
pub fn find(name: &str) -> Option<Selection> {
    let name = name.trim();
    for view in [View::Rw, View::Async] {
        let p = view.prefix();
        if name
            .get(..p.len())
            .is_some_and(|h| h.eq_ignore_ascii_case(p))
        {
            let entry = ENTRIES.iter().find(|e| e.matches(&name[p.len()..]))?;
            return view.covers(entry).then_some(Selection { entry, view });
        }
    }
    let rw = |e: &&CatalogEntry| {
        e.rw_name.eq_ignore_ascii_case(name)
            || e.rw_aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    };
    match ENTRIES.iter().find(|e| e.matches(name)) {
        Some(entry) => Some(Selection {
            entry,
            view: View::Exclusive,
        }),
        None => ENTRIES.iter().find(rw).map(|entry| Selection {
            entry,
            view: View::Rw,
        }),
    }
}

/// [`find`] restricted to `views`, with an error that lists their keys.
pub fn resolve(name: &str, views: &[View]) -> Result<Selection, String> {
    let name = name.trim();
    find(name)
        .filter(|s| views.contains(&s.view))
        .ok_or_else(|| {
            let label = match views {
                [View::Rw] => "RW ",
                [View::Async] => "async ",
                _ => "",
            };
            let known = keys(views).join(", ");
            format!("unknown {label}lock {name:?}; known {label}locks: {known}")
        })
}

/// Resolves a comma-separated selector list (the `--lock` argument) within
/// `views`, preserving order and rejecting empty, unknown or duplicate
/// names with a message that lists the valid keys.
pub fn resolve_list(list: &str, views: &[View]) -> Result<Vec<Selection>, String> {
    let mut out: Vec<Selection> = Vec::new();
    for name in list.split(',').map(str::trim) {
        if name.is_empty() {
            let known = keys(views).join(", ");
            return Err(format!(
                "empty lock name in {list:?}; expected a comma-separated subset of: {known}"
            ));
        }
        let picked = resolve(name, views)?;
        if out.iter().any(|s| s.key() == picked.key()) {
            return Err(format!("lock {name:?} selected twice in {list:?}"));
        }
        out.push(picked);
    }
    Ok(out)
}

/// Entries suited to *many-instance* deployments such as sharded tables,
/// judged from [`LockMeta`]: bodies ≤ 2 words and trivial construction
/// (not CLH's padded dummy element or Anderson's waiting array).
pub fn shard_friendly() -> Vec<&'static CatalogEntry> {
    ENTRIES
        .iter()
        .filter(|e| e.meta.lock_words <= 2 && !e.meta.nontrivial_init)
        .collect()
}

/// Entries supporting **abortable (timed) acquisition**, judged from
/// [`LockMeta`] — not CLH or Anderson, whose waiters cannot withdraw.
pub fn abortable() -> Vec<&'static CatalogEntry> {
    ENTRIES.iter().filter(|e| e.meta.abortable).collect()
}

/// Builds a runtime lock handle for `name`.
pub fn dyn_lock(name: &str) -> Result<Box<dyn DynLock>, String> {
    Ok((resolve(name, &[View::Exclusive])?.entry.make)())
}

/// Builds a [`DynMutex`] protecting `value` with the algorithm `name`.
pub fn dyn_mutex<T>(name: &str, value: T) -> Result<DynMutex<T>, String> {
    Ok(DynMutex::new(dyn_lock(name)?, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_by_key_alias_display_name_case_insensitively() {
        assert_eq!(find("hemlock").unwrap().entry.meta.name, "Hemlock");
        assert_eq!(find("hemlock.ctr").unwrap().key(), "hemlock");
        assert_eq!(find("Hemlock-").unwrap().key(), "hemlock.naive");
        assert_eq!(find("MCS").unwrap().key(), "mcs");
        assert_eq!(find("mCs").unwrap().key(), "mcs");
        assert!(find("nope").is_none());
    }

    #[test]
    fn resolve_list_preserves_order_and_reports_errors() {
        let ex = &[View::Exclusive];
        let picked = resolve_list("mcs, clh,hemlock", ex).unwrap();
        assert_eq!(
            picked.iter().map(|s| s.key()).collect::<Vec<_>>(),
            ["mcs", "clh", "hemlock"]
        );
        assert!(resolve_list("mcs,bogus", ex)
            .unwrap_err()
            .contains("known locks"));
        assert!(resolve_list("mcs,,clh", ex)
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list("mcs,MCS", ex).unwrap_err().contains("twice"));
    }

    #[test]
    fn prefixes_pick_views_and_views_filter_the_resolver() {
        let picked = resolve_list("hemlock,rw.hemlock,async.mcs", &View::ALL).unwrap();
        assert_eq!(
            picked.iter().map(|s| (s.view, s.key())).collect::<Vec<_>>(),
            [
                (View::Exclusive, "hemlock"),
                (View::Rw, "rw.hemlock"),
                (View::Async, "async.mcs")
            ]
        );
        assert!(resolve_list("rw.mcs,RW-MCS", &View::ALL)
            .unwrap_err()
            .contains("twice"));
        // Unwithdrawable rows have no async face.
        for name in ["async.clh", "async.anderson"] {
            assert!(find(name).is_none(), "{name}");
            assert!(resolve(name, &View::ALL).is_err(), "{name}");
        }
        // A view outside the caller's set is unknown to it.
        assert!(resolve("rw.mcs", &[View::Exclusive])
            .unwrap_err()
            .contains("unknown lock"));
        assert!(resolve("mcs", &[View::Async])
            .unwrap_err()
            .contains("known async locks"));
        assert!(resolve("bogus", &[View::Rw])
            .unwrap_err()
            .contains("known RW locks"));
    }

    #[test]
    fn every_entry_builds_a_working_dyn_lock() {
        for entry in ENTRIES {
            let lock = (entry.make)();
            assert_eq!(lock.meta(), entry.meta, "{}", entry.key);
            lock.lock();
            // Safety: acquired on this thread just above.
            unsafe { lock.unlock() };
        }
    }

    #[test]
    fn try_capability_agrees_between_meta_and_factory() {
        for entry in ENTRIES {
            let lock = (entry.make)();
            let outcome = lock.try_lock();
            if entry.meta.try_lock {
                assert_eq!(outcome, Ok(true), "{}", entry.key);
                // Safety: try_lock conferred ownership.
                unsafe { lock.unlock() };
            } else {
                assert!(outcome.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn abortable_capability_agrees_between_meta_and_dyn_handle() {
        use core::time::Duration;
        for entry in ENTRIES {
            let lock = (entry.make)();
            let outcome = lock.try_lock_for(Duration::from_millis(5));
            if entry.meta.abortable {
                assert_eq!(outcome, Ok(true), "{}: free timed acquire", entry.key);
                // Safety: the timed acquisition conferred ownership.
                unsafe { lock.unlock() };
            } else {
                assert!(outcome.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn abortable_is_the_withdrawable_subset() {
        let timed = abortable();
        for must in ["hemlock", "hemlock.naive", "tas", "ttas", "ticket", "mcs"] {
            assert!(
                timed.iter().any(|e| e.key == must),
                "{must} must be abortable"
            );
        }
        // CLH's tail link and Anderson's array slot are commitments.
        assert!(!timed.iter().any(|e| e.key == "clh"));
        assert!(!timed.iter().any(|e| e.key == "anderson"));
        // Abortable without a trylock path would be incoherent.
        assert!(timed.iter().all(|e| e.meta.try_lock));
    }

    #[test]
    fn timed_dispatch_covers_exactly_the_try_capable_entries() {
        struct TimedProbe;
        impl TryLockVisitor for TimedProbe {
            type Output = bool;
            fn visit<L: RawTryLock + 'static>(self, _meta: LockMeta) -> bool {
                let l = L::default();
                let got = l.try_lock_for(core::time::Duration::from_millis(5));
                if got {
                    // Safety: the timed acquisition conferred ownership.
                    unsafe { l.unlock() };
                }
                got
            }
        }
        for entry in ENTRIES {
            let hit = with_try_lock_type(entry, TimedProbe);
            assert_eq!(hit.is_some(), entry.meta.try_lock, "{}", entry.key);
            if let Some(acquired) = hit {
                assert!(acquired, "{}: free timed acquire must succeed", entry.key);
            }
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn dyn_mutex_by_name() {
        let m = dyn_mutex("ticket", 41u32).unwrap();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.meta().name, "Ticket");
        assert!(dyn_mutex("bogus", 0).is_err());
        assert!(dyn_mutex("rw.ticket", 0).is_err());
    }

    #[test]
    fn static_dispatch_reaches_the_right_type() {
        struct NameOf;
        impl LockVisitor for NameOf {
            type Output = (&'static str, usize);
            fn visit<L: RawLock + 'static>(self, meta: LockMeta) -> Self::Output {
                assert_eq!(meta, L::META);
                (L::META.name, core::mem::size_of::<L>())
            }
        }
        let (name, size) = with_lock_type(find("mcs").unwrap().entry, NameOf);
        assert_eq!(name, "MCS");
        assert_eq!(size, core::mem::size_of::<crate::McsLock>());
    }

    #[test]
    fn shard_friendly_is_the_compact_subset() {
        let friendly = shard_friendly();
        assert!(friendly.iter().any(|e| e.key == "hemlock"));
        assert!(friendly.iter().any(|e| e.key == "mcs"));
        assert!(friendly.iter().any(|e| e.key == "ticket"));
        // CLH pays a padded dummy element per lock; Anderson a waiting array.
        assert!(!friendly.iter().any(|e| e.key == "clh"));
        assert!(!friendly.iter().any(|e| e.key == "anderson"));
        for e in &friendly {
            assert!(e.meta.lock_bytes() <= 2 * core::mem::size_of::<usize>());
        }
    }

    #[test]
    fn locked_hint_agrees_with_lock_state() {
        for entry in ENTRIES {
            let lock = (entry.make)();
            if let Some(held) = lock.is_locked_hint() {
                assert!(!held, "{} hints held while unlocked", entry.key);
                lock.lock();
                assert_eq!(
                    lock.is_locked_hint(),
                    Some(true),
                    "{} hints free while held",
                    entry.key
                );
                // Safety: acquired on this thread just above.
                unsafe { lock.unlock() };
                assert_eq!(lock.is_locked_hint(), Some(false), "{}", entry.key);
            }
        }
    }

    #[test]
    fn keys_are_unique_and_nonempty() {
        let keys = keys(&View::ALL);
        assert!(keys.len() >= 15);
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
