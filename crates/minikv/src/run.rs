//! Immutable sorted runs — the in-memory analog of LevelDB's SSTables.
//!
//! A [`Run`] is a frozen memtable: sorted `(key, slot)` pairs searched by
//! binary search. Runs are shared via `Arc`, so readers can search them
//! *outside* the central mutex, exactly as LevelDB's `Get` drops
//! `DBImpl::Mutex` before touching table files.
//!
//! The layout is built for that search. Every key lives in one contiguous
//! byte block, delimited by a parallel array of end offsets, so a probe
//! compares bytes that sit next to each other instead of chasing one heap
//! pointer per comparison. The first and last keys act as fences, as
//! LevelDB's per-file smallest/largest check in `Version::Get`: a key
//! outside them is answered with two comparisons and no search.

use crate::memtable::Slot;
use core::cmp::Ordering;

/// Immutable sorted key-value run.
#[derive(Debug)]
pub struct Run {
    /// Every key, concatenated in ascending order.
    keys: Box<[u8]>,
    /// `ends[i]` is where key `i` ends in `keys`; it starts where key
    /// `i - 1` ends (key 0 at offset 0).
    ends: Box<[u32]>,
    /// `slots[i]` is key `i`'s value, or `None` for a tombstone.
    slots: Box<[Slot]>,
}

/// Accumulates a run in key order.
struct Builder {
    keys: Vec<u8>,
    ends: Vec<u32>,
    slots: Vec<Slot>,
}

impl Builder {
    fn with_capacity(entries: usize, key_bytes: usize) -> Self {
        Self {
            keys: Vec::with_capacity(key_bytes),
            ends: Vec::with_capacity(entries),
            slots: Vec::with_capacity(entries),
        }
    }

    fn push(&mut self, key: &[u8], slot: Slot) {
        self.keys.extend_from_slice(key);
        let end = u32::try_from(self.keys.len()).expect("run key block over 4 GiB");
        self.ends.push(end);
        self.slots.push(slot);
    }

    fn finish(self) -> Run {
        Run {
            keys: self.keys.into_boxed_slice(),
            ends: self.ends.into_boxed_slice(),
            slots: self.slots.into_boxed_slice(),
        }
    }
}

impl Run {
    /// Builds a run from sorted entries (as produced by
    /// [`crate::memtable::Memtable::into_sorted`]).
    pub fn from_sorted(entries: Vec<(Box<[u8]>, Slot)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "unsorted/dup run"
        );
        let key_bytes = entries.iter().map(|(k, _)| k.len()).sum();
        let mut b = Builder::with_capacity(entries.len(), key_bytes);
        for (key, slot) in entries {
            b.push(&key, slot);
        }
        b.finish()
    }

    /// Key `i`, borrowed from the block.
    fn key(&self, i: usize) -> &[u8] {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.keys[start..self.ends[i] as usize]
    }

    /// Point lookup: the fence check, then a binary search of the block.
    pub fn get(&self, key: &[u8]) -> Option<&Slot> {
        let last = self.len().checked_sub(1)?;
        if key < self.key(0) || key > self.key(last) {
            return None;
        }
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(&self.slots[mid]),
            }
        }
        None
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Merges `newer` over `older` (newer entries win; tombstones from the
    /// newer run suppress older values but are retained, since an even
    /// older run may still hold the key). Key bytes are appended straight
    /// into the merged block.
    pub fn merge(newer: &Run, older: &Run) -> Run {
        let mut b = Builder::with_capacity(
            newer.len() + older.len(),
            newer.keys.len() + older.keys.len(),
        );
        let (mut i, mut j) = (0, 0);
        while i < newer.len() && j < older.len() {
            let (nk, ok) = (newer.key(i), older.key(j));
            match nk.cmp(ok) {
                Ordering::Less => {
                    b.push(nk, newer.slots[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    b.push(ok, older.slots[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    b.push(nk, newer.slots[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        for i in i..newer.len() {
            b.push(newer.key(i), newer.slots[i].clone());
        }
        for j in j..older.len() {
            b.push(older.key(j), older.slots[j].clone());
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;

    fn run_of(pairs: &[(&[u8], Option<&[u8]>)]) -> Run {
        let m: Memtable = Memtable::new();
        for (k, v) in pairs {
            m.insert(k, v.map(|v| v.to_vec().into()));
        }
        Run::from_sorted(m.into_sorted())
    }

    fn slot(v: &[u8]) -> Slot {
        Some(v.into())
    }

    #[test]
    fn binary_search_lookup() {
        let r = run_of(&[(b"a", Some(b"1")), (b"c", Some(b"3")), (b"e", Some(b"5"))]);
        assert_eq!(r.get(b"c"), Some(&Some(b"3".to_vec().into())));
        assert_eq!(r.get(b"b"), None);
        assert_eq!(r.get(b"e"), Some(&Some(b"5".to_vec().into())));
    }

    #[test]
    fn keys_outside_the_fences_miss() {
        let r = run_of(&[(b"k1", Some(b"1")), (b"k5", Some(b"5"))]);
        assert_eq!(r.get(b"k0"), None, "below the first key");
        assert_eq!(
            r.get(b"k"),
            None,
            "a prefix of the first key sorts below it"
        );
        assert_eq!(r.get(b""), None);
        assert_eq!(r.get(b"k6"), None, "above the last key");
        assert_eq!(
            r.get(b"k50"),
            None,
            "an extension of the last key sorts above it"
        );
        assert_eq!(r.get(b"k1"), Some(&slot(b"1")));
        assert_eq!(r.get(b"k5"), Some(&slot(b"5")));
    }

    #[test]
    fn gaps_between_entries_miss() {
        let r = run_of(&[
            (b"", Some(b"empty")),
            (b"k1", Some(b"1")),
            (b"k100", Some(b"100")),
            (b"k2", None),
        ]);
        assert_eq!(r.len(), 4);
        assert_eq!(
            r.get(b""),
            Some(&slot(b"empty")),
            "the empty key is a real key"
        );
        assert_eq!(r.get(b"k1"), Some(&slot(b"1")));
        assert_eq!(r.get(b"k100"), Some(&slot(b"100")));
        assert_eq!(r.get(b"k2"), Some(&None), "tombstone");
        for gap in [b"a".as_slice(), b"k", b"k10", b"k1000", b"k11", b"k19"] {
            assert_eq!(r.get(gap), None, "{:?}", String::from_utf8_lossy(gap));
        }
    }

    #[test]
    fn single_entry_and_empty_runs() {
        let one = run_of(&[(b"only", Some(b"v"))]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(b"only"), Some(&slot(b"v")));
        for miss in [b"".as_slice(), b"onl", b"only\0", b"a", b"z"] {
            assert_eq!(one.get(miss), None);
        }
        let empty = Run::from_sorted(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.get(b""), None);
        assert_eq!(empty.get(b"k"), None);
        let merged = Run::merge(&empty, &one);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.get(b"only"), Some(&slot(b"v")));
        assert!(Run::merge(&empty, &empty).is_empty());
    }

    #[test]
    fn merge_newer_wins() {
        let newer = run_of(&[(b"a", Some(b"new")), (b"b", None)]);
        let older = run_of(&[
            (b"a", Some(b"old")),
            (b"b", Some(b"old")),
            (b"c", Some(b"keep")),
        ]);
        let merged = Run::merge(&newer, &older);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.get(b"a"), Some(&Some(b"new".to_vec().into())));
        assert_eq!(merged.get(b"b"), Some(&None), "tombstone retained");
        assert_eq!(merged.get(b"c"), Some(&Some(b"keep".to_vec().into())));
    }

    #[test]
    fn merge_disjoint_interleaves() {
        let a = run_of(&[(b"a", Some(b"1")), (b"c", Some(b"3"))]);
        let b = run_of(&[(b"b", Some(b"2")), (b"d", Some(b"4"))]);
        let merged = Run::merge(&a, &b);
        assert_eq!(merged.len(), 4);
        for k in [b"a".as_slice(), b"b", b"c", b"d"] {
            assert!(merged.get(k).is_some());
        }
    }

    #[test]
    fn merge_partly_overlapping_inputs() {
        // `newer` starts inside `older` and runs past its end, with key
        // lengths that differ, so both tails and the shared middle are hit.
        let newer = run_of(&[
            (b"k10", Some(b"n10")),
            (b"k2", None),
            (b"k3", Some(b"n3")),
            (b"k30", Some(b"n30")),
            (b"k9", Some(b"n9")),
        ]);
        let older = run_of(&[
            (b"", Some(b"o")),
            (b"k1", Some(b"o1")),
            (b"k10", Some(b"o10")),
            (b"k2", Some(b"o2")),
            (b"k25", Some(b"o25")),
        ]);
        let merged = Run::merge(&newer, &older);
        let want: [(&[u8], Option<&[u8]>); 8] = [
            (b"", Some(b"o")),
            (b"k1", Some(b"o1")),
            (b"k10", Some(b"n10")),
            (b"k2", None),
            (b"k25", Some(b"o25")),
            (b"k3", Some(b"n3")),
            (b"k30", Some(b"n30")),
            (b"k9", Some(b"n9")),
        ];
        assert_eq!(merged.len(), want.len());
        for (i, (k, v)) in want.iter().enumerate() {
            assert_eq!(merged.key(i), *k, "entry {i} out of order");
            assert_eq!(merged.get(k), Some(&v.map(|v| v.to_vec().into())));
        }
        for miss in [b"k".as_slice(), b"k0", b"k100", b"k4", b"z"] {
            assert_eq!(merged.get(miss), None);
        }
    }
}
