//! CLH lock (Craig; Landin & Hagersten), standard-interface formulation.
//!
//! Arriving threads swap their element onto the tail and spin on the
//! *predecessor's* element — the formulation Hemlock is "inspired by" (§1).
//! This is Scott's standard-interface variant (Figure 4.14 of
//! *Shared-Memory Synchronization*, cited by the paper for its CLH
//! implementation): the lock body carries `tail` plus a `head` field so the
//! interface stays context-free, and after acquiring, a thread *inherits its
//! predecessor's element* as its element for a future acquisition —
//! "elements migrate between locks and threads" (§2.3).
//!
//! CLH requires the lock to be born holding a **dummy element** and that
//! element's successor chain to be **recovered when the lock is destroyed**
//! (the `Init` column of Table 1) — implemented here as `ClhLock::new`
//! allocating the dummy and `Drop` reclaiming whatever element currently
//! rides in `tail`.

use core::cell::RefCell;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawLock;
use hemlock_core::spin::SpinWait;

/// A CLH queue element, padded to a cache line (§2.3). `locked == true`
/// means "my owner has not yet released the lock".
#[repr(align(128))]
pub(crate) struct ClhNode {
    locked: AtomicBool,
}

impl ClhNode {
    fn new(locked: bool) -> Self {
        Self {
            locked: AtomicBool::new(locked),
        }
    }
}

std::thread_local! {
    /// Per-thread stack of free elements. Unlike MCS, an element popped here
    /// may have been allocated by any thread (elements migrate); they are
    /// plain heap boxes so cross-thread reclamation is sound.
    // Boxed on purpose: node addresses are published through lock words,
    // so nodes must not move when the free stack grows.
    #[allow(clippy::vec_box)]
    static FREE_NODES: RefCell<Vec<Box<ClhNode>>> = const { RefCell::new(Vec::new()) };
}

fn alloc_node(locked: bool) -> usize {
    let node = FREE_NODES.with(|f| f.borrow_mut().pop());
    let node = match node {
        Some(n) => {
            n.locked.store(locked, Ordering::Relaxed);
            n
        }
        None => Box::new(ClhNode::new(locked)),
    };
    Box::into_raw(node) as usize
}

/// # Safety: `addr` must be a quiescent element no other thread references.
unsafe fn free_node(addr: usize) {
    let node = Box::from_raw(addr as *mut ClhNode);
    FREE_NODES.with(|f| f.borrow_mut().push(node));
}

/// CLH lock: 2-word body plus a pre-installed dummy element; local spinning
/// on the predecessor; FIFO; wait-free unlock; **no trylock** (§2: "MCS and
/// Hemlock allow trivial implementations of the TryLock operation [...]
/// whereas Ticket Locks and CLH do not").
pub struct ClhLock {
    /// Most recently arrived element. Never null: holds the dummy when free.
    tail: AtomicUsize,
    /// The owner's element (context passed from lock to unlock under the
    /// protection of the lock itself).
    head: AtomicUsize,
}

impl ClhLock {
    /// Creates an unlocked lock, pre-initialized with its dummy element.
    pub fn new() -> Self {
        Self {
            tail: AtomicUsize::new(alloc_node(false)),
            head: AtomicUsize::new(0),
        }
    }

    /// Size of one queue element in bytes (padded, per §2.3).
    pub const ELEMENT_BYTES: usize = core::mem::size_of::<ClhNode>();

    /// Raw view of the tail word (tests).
    #[doc(hidden)]
    pub fn tail_word(&self) -> usize {
        self.tail.load(Ordering::Relaxed)
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // Table 1's non-trivial destructor: recover the current dummy (the
        // element left in `tail` once the lock is idle). `&mut self`
        // guarantees no thread is engaged with the queue.
        let node = *self.tail.get_mut();
        debug_assert!(
            !unsafe { &*(node as *const ClhNode) }
                .locked
                .load(Ordering::Relaxed),
            "CLH lock dropped while held"
        );
        // Safety: idle lock, sole reference.
        unsafe { drop(Box::from_raw(node as *mut ClhNode)) };
    }
}

unsafe impl RawLock for ClhLock {
    const META: LockMeta = {
        let mut m = LockMeta::base("CLH", "§4, Table 1");
        m.lock_words = 2; // tail + head-of-queue pointer
        m.wait_elements = 1;
        m.fifo = true;
        m.nontrivial_init = true; // per-lock dummy element
        m
    };

    fn lock(&self) {
        let node = alloc_node(true);
        let pred = self.tail.swap(node, Ordering::AcqRel);
        debug_assert_ne!(pred, 0, "CLH tail always holds an element");
        // Safety: the predecessor element stays live until we inherit it.
        let pred_ref = unsafe { &*(pred as *const ClhNode) };
        let mut spin = SpinWait::new();
        while pred_ref.locked.load(Ordering::Acquire) {
            spin.wait();
        }
        // Acquired. Inherit the predecessor's element for future use and
        // remember our own element so unlock can find it.
        unsafe { free_node(pred) };
        self.head.store(node, Ordering::Relaxed);
    }

    unsafe fn unlock(&self) {
        let node = self.head.load(Ordering::Relaxed);
        debug_assert_ne!(node, 0, "unlock without a held lock");
        let node_ref = &*(node as *const ClhNode);
        // Wait-free release: a single store (§2, Table: "an uncontended
        // unlock requires [...] simple stores for CLH and Ticket Locks").
        node_ref.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    crate::baseline_tests!(super::ClhLock, arrival: |l| l.tail_word() as u64);

    #[test]
    fn lock_body_is_two_words() {
        assert_eq!(
            core::mem::size_of::<ClhLock>(),
            2 * core::mem::size_of::<usize>()
        );
    }

    #[test]
    fn element_is_cache_line_padded() {
        assert_eq!(ClhLock::ELEMENT_BYTES, 128);
    }

    #[test]
    fn dummy_element_installed_and_recovered() {
        let l = ClhLock::new();
        assert_ne!(l.tail_word(), 0, "lock is born with a dummy element");
        drop(l); // Drop must not leak or double-free (asan/miri would catch)
    }

    #[test]
    fn elements_migrate_between_threads() {
        // After a contended handover, the waiter inherits the element the
        // previous owner enqueued: tail after release differs from the
        // original dummy.
        use std::sync::Arc;
        let l = Arc::new(ClhLock::new());
        let dummy = l.tail_word();
        l.lock();
        let t = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.lock();
                unsafe { l.unlock() };
            })
        };
        while l.tail_word() == dummy {
            std::hint::spin_loop();
        }
        unsafe { l.unlock() };
        t.join().unwrap();
        assert_ne!(l.tail_word(), dummy, "dummy was inherited by an acquirer");
    }

    #[test]
    fn fifo_admission_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let l = Arc::new(ClhLock::new());
        let order = Arc::new(AtomicUsize::new(0));
        let finish: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(usize::MAX)).collect());

        l.lock();
        let mut handles = Vec::new();
        for i in 0..4 {
            let prev_tail = l.tail_word();
            let l2 = Arc::clone(&l);
            let order2 = Arc::clone(&order);
            let finish2 = Arc::clone(&finish);
            handles.push(std::thread::spawn(move || {
                l2.lock();
                finish2[i].store(order2.fetch_add(1, Ordering::AcqRel), Ordering::Release);
                unsafe { l2.unlock() };
            }));
            while l.tail_word() == prev_tail {
                std::hint::spin_loop();
            }
        }
        unsafe { l.unlock() };
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(finish[i].load(Ordering::Acquire), i);
        }
    }
}
