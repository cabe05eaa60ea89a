//! Classic MCS lock (Mellor-Crummey & Scott, 1991).
//!
//! Arriving threads append an explicit queue element to the tail and spin on
//! a `locked` flag in their *own* element; the releasing owner follows its
//! element's `next` link and clears the successor's flag.
//!
//! Fidelity notes matching the paper's evaluation setup (§5):
//!
//! - The lock body stores the **head** (owner's element) next to the tail,
//!   "allowing that value to be passed from the lock operation to the
//!   corresponding unlock operation" behind a context-free interface — so
//!   the body is 2 words (Table 1).
//! - Queue elements are padded to a cache line "to reduce false sharing and
//!   to provide a fair comparison" (§2.3).
//! - Elements come from a **thread-local stack of free queue elements**
//!   (footnote 5): allocate from the free list in `lock`, fall back to heap
//!   allocation as necessary, return elements in `unlock`, and reclaim the
//!   whole stack when the thread exits.

use core::cell::RefCell;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_core::spin::SpinWait;

/// An MCS queue element, padded to a cache line (§2.3). This is `E` in the
/// paper's Table 1 space accounting.
#[repr(align(128))]
pub(crate) struct McsNode {
    next: AtomicUsize,
    locked: AtomicBool,
}

impl McsNode {
    fn new() -> Self {
        Self {
            next: AtomicUsize::new(0),
            locked: AtomicBool::new(false),
        }
    }
}

std::thread_local! {
    /// Footnote 5: per-thread stack of free queue elements. "A stack is
    /// convenient for locality." The stack is trimmed only at thread exit.
    // Boxed on purpose: node addresses are published through lock words,
    // so nodes must not move when the free stack grows.
    #[allow(clippy::vec_box)]
    static FREE_NODES: RefCell<Vec<Box<McsNode>>> = const { RefCell::new(Vec::new()) };
}

/// Pops a recycled element or heap-allocates one, initialized for enqueue.
fn alloc_node() -> usize {
    let node = FREE_NODES
        .with(|f| f.borrow_mut().pop())
        .unwrap_or_else(|| Box::new(McsNode::new()));
    node.next.store(0, Ordering::Relaxed);
    node.locked.store(true, Ordering::Relaxed);
    Box::into_raw(node) as usize
}

/// Returns a quiescent element to the thread-local free stack.
///
/// # Safety
///
/// `addr` must come from [`alloc_node`] on this thread's lock path, and no
/// other thread may reference the element anymore.
unsafe fn free_node(addr: usize) {
    let node = Box::from_raw(addr as *mut McsNode);
    FREE_NODES.with(|f| f.borrow_mut().push(node));
}

/// Classic MCS lock: 2-word body, explicit padded queue elements, local
/// spinning, FIFO admission.
pub struct McsLock {
    /// Most recently arrived element; null when free.
    tail: AtomicUsize,
    /// The owner's element, written under the lock itself so that `unlock`
    /// can find it without any context from `lock`.
    head: AtomicUsize,
}

impl McsLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        Self {
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Size of one queue element in bytes (padded, per §2.3).
    pub const ELEMENT_BYTES: usize = core::mem::size_of::<McsNode>();

    /// Raw view of the tail word (tests).
    #[doc(hidden)]
    pub fn tail_word(&self) -> usize {
        self.tail.load(Ordering::Relaxed)
    }

    fn finish_acquire(&self, node: usize) {
        // Protected by the lock we now hold; Relaxed suffices because only
        // this thread reads it back (in its own unlock).
        self.head.store(node, Ordering::Relaxed);
    }
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl RawLock for McsLock {
    const META: LockMeta = {
        let mut m = LockMeta::base("MCS", "§2, Table 1");
        m.lock_words = 2; // tail + head (owner's element, for context-freedom)
        m.held_elements = 1;
        m.wait_elements = 1;
        m.fifo = true;
        m.try_lock = true;
        // The trylock CAS never publishes a queue element on failure, so
        // the provided deadline-bounded retry path aborts cleanly.
        m.abortable = true;
        m.asyncable = true; // free withdrawal => safe as the async queue guard
        m
    };

    fn is_locked_hint(&self) -> Option<bool> {
        // Tail is null exactly when the lock is unheld with no queue.
        Some(self.tail_word() != 0)
    }

    fn lock(&self) {
        let node = alloc_node();
        // Safety: `node` is live until this thread's unlock reclaims it.
        let node_ref = unsafe { &*(node as *const McsNode) };
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if pred != 0 {
            // Safety: the predecessor's element stays live until it observes
            // our link (its unlock waits for `next`).
            let pred_ref = unsafe { &*(pred as *const McsNode) };
            pred_ref.next.store(node, Ordering::Release);
            let mut spin = SpinWait::new();
            while node_ref.locked.load(Ordering::Acquire) {
                spin.wait();
            }
        }
        self.finish_acquire(node);
    }

    unsafe fn unlock(&self) {
        let node = self.head.load(Ordering::Relaxed);
        debug_assert_ne!(node, 0, "unlock without a held lock");
        let node_ref = &*(node as *const McsNode);
        if self
            .tail
            .compare_exchange(node, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // A successor swapped in behind us but may not have linked yet:
            // wait for the back-link (like Hemlock, MCS's contended unlock
            // is not wait-free — §2).
            let mut spin = SpinWait::new();
            let mut succ = node_ref.next.load(Ordering::Acquire);
            while succ == 0 {
                spin.wait();
                succ = node_ref.next.load(Ordering::Acquire);
            }
            let succ_ref = &*(succ as *const McsNode);
            succ_ref.locked.store(false, Ordering::Release);
        }
        // Our element is now unreachable from the queue: recycle it.
        free_node(node);
    }
}

unsafe impl RawTryLock for McsLock {
    fn try_lock(&self) -> bool {
        let node = alloc_node();
        if self
            .tail
            .compare_exchange(0, node, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.finish_acquire(node);
            true
        } else {
            // Never published: safe to reclaim immediately.
            unsafe { free_node(node) };
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    crate::baseline_tests!(super::McsLock, arrival: |l| l.tail_word() as u64);

    #[test]
    fn lock_body_is_two_words() {
        assert_eq!(
            core::mem::size_of::<McsLock>(),
            2 * core::mem::size_of::<usize>()
        );
    }

    #[test]
    fn element_is_cache_line_padded() {
        assert_eq!(McsLock::ELEMENT_BYTES, 128);
    }

    #[test]
    fn free_list_recycles_nodes() {
        let l = McsLock::new();
        // Warm up: one allocation.
        l.lock();
        unsafe { l.unlock() };
        let before = FREE_NODES.with(|f| f.borrow().len());
        assert!(before >= 1);
        // Subsequent acquisitions must reuse, not grow, the stack.
        for _ in 0..10 {
            l.lock();
            unsafe { l.unlock() };
        }
        let after = FREE_NODES.with(|f| f.borrow().len());
        assert_eq!(before, after);
    }

    #[test]
    fn free_list_grows_with_simultaneously_held_locks() {
        // Footnote 5: "the free stack will contain N elements where N is the
        // maximum number of locks concurrently held".
        let locks: Vec<McsLock> = (0..5).map(|_| McsLock::new()).collect();
        for l in &locks {
            l.lock();
        }
        for l in locks.iter().rev() {
            unsafe { l.unlock() };
        }
        assert!(FREE_NODES.with(|f| f.borrow().len()) >= 5);
    }

    #[test]
    fn try_lock_failure_does_not_leak() {
        let l = McsLock::new();
        // Warm the free stack with two nodes so both the hold below and the
        // failed try_lock draw from it.
        let l2 = McsLock::new();
        l.lock();
        l2.lock();
        unsafe { l2.unlock() };
        unsafe { l.unlock() };
        l.lock();
        let before = FREE_NODES.with(|f| f.borrow().len());
        assert!(!l.try_lock());
        let after = FREE_NODES.with(|f| f.borrow().len());
        assert_eq!(before, after, "failed try_lock must recycle its node");
        unsafe { l.unlock() };
    }

    #[test]
    fn fifo_admission_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let l = Arc::new(McsLock::new());
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
