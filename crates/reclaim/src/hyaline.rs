//! The Hyaline-style reclamation scheme ("last-leaver detaches" variant).
//!
//! Faithful to the published Hyaline in interface and character:
//! *snapshot-free* (no epoch scanning), *context-agnostic* (any number of
//! concurrent operations may share a slot; no thread registration), with
//! per-slot lock-free lists and reference-counted batches. Simplified in
//! one respect, documented in DESIGN.md: each batch takes **one**
//! reference per active slot it is pushed to, and the *last* operation to
//! leave a slot detaches and drains that slot's list. The published
//! algorithm distributes decrements across all leavers; ours concentrates
//! them in the last leaver, which is correct (never frees early — see the
//! invariant notes on [`Hyaline::retire`]) and slightly more
//! conservative.

use crate::{Deferred, Reclaimer, SmrStats};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Sentinel initial value for a batch's reference counter while the
/// dispatch loop is still counting how many slots it reaches.
const REFS_INIT: i64 = 1 << 40;

struct Batch {
    refs: AtomicI64,
    actions: Vec<Deferred>,
}

struct Node {
    next: *mut Node,
    batch: *mut Batch,
}

/// One per-slot head: packed `(list-head pointer << 16) | active-op count`.
struct Slot {
    head: AtomicU64,
}

const REF_BITS: u32 = 16;
const REF_MASK: u64 = (1 << REF_BITS) - 1;

fn pack(ptr: *mut Node, refs: u64) -> u64 {
    let p = ptr as u64;
    debug_assert!(p < (1 << (64 - REF_BITS)), "node pointer exceeds 48 bits");
    debug_assert!(refs <= REF_MASK);
    (p << REF_BITS) | refs
}

fn unpack(v: u64) -> (*mut Node, u64) {
    ((v >> REF_BITS) as *mut Node, v & REF_MASK)
}

/// The Hyaline reclamation domain (see module docs).
pub struct Hyaline {
    slots: Box<[Slot]>,
    retired: AtomicU64,
    freed: AtomicU64,
}

// SAFETY: the raw Node/Batch pointers are only ever owned by exactly one
// party (the slot lists via CAS hand-off, or the batch refcount), and all
// payloads are `Send`.
unsafe impl Send for Hyaline {}
// SAFETY: shared access goes through atomics only — slot heads and the
// batch refcounts are CAS/fetch-sub protocols, so no `&Hyaline` method
// touches a node without first winning its ownership.
unsafe impl Sync for Hyaline {}

impl Hyaline {
    /// Create a domain with `nslots` slots (Adelie: one per CPU).
    ///
    /// # Panics
    ///
    /// Panics if `nslots` is zero.
    pub fn new(nslots: usize) -> Hyaline {
        assert!(nslots > 0, "need at least one slot");
        Hyaline {
            slots: (0..nslots)
                .map(|_| Slot {
                    head: AtomicU64::new(0),
                })
                .collect(),
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// Decrement a batch's reference count by `delta` (negative adds),
    /// freeing it when the count reaches zero.
    ///
    /// # Safety
    ///
    /// `batch` must point to a live batch whose count cannot go below 0.
    unsafe fn adjust_batch(&self, batch: *mut Batch, delta: i64) {
        let prev = (*batch).refs.fetch_add(delta, Ordering::AcqRel);
        if prev + delta == 0 {
            let owned = Box::from_raw(batch);
            let n = owned.actions.len() as u64;
            for action in owned.actions {
                action();
            }
            self.freed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Drain a detached list: one reference per node's batch.
    ///
    /// # Safety
    ///
    /// `head` must be a detached (exclusively owned) list.
    unsafe fn traverse(&self, mut head: *mut Node) {
        while !head.is_null() {
            let node = Box::from_raw(head);
            head = node.next;
            self.adjust_batch(node.batch, -1);
        }
    }
}

impl Reclaimer for Hyaline {
    fn enter(&self, slot: usize) {
        let s = &self.slots[slot];
        let mut cur = s.head.load(Ordering::Acquire);
        loop {
            let (ptr, refs) = unpack(cur);
            assert!(refs < REF_MASK, "slot {slot} operation count overflow");
            match s.head.compare_exchange_weak(
                cur,
                pack(ptr, refs + 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn leave(&self, slot: usize) {
        let s = &self.slots[slot];
        let mut cur = s.head.load(Ordering::Acquire);
        loop {
            let (ptr, refs) = unpack(cur);
            assert!(refs >= 1, "leave({slot}) without matching enter");
            let (new, detach) = if refs == 1 {
                (pack(std::ptr::null_mut(), 0), true)
            } else {
                (pack(ptr, refs - 1), false)
            };
            match s
                .head
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    if detach {
                        // SAFETY: the CAS detached the list; we own it.
                        unsafe { self.traverse(ptr) };
                    }
                    return;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Retire an action.
    ///
    /// Invariant (why this never frees early): a reference is taken on
    /// every slot whose active count is non-zero *at dispatch time*. The
    /// batch is freed only after each such slot's count has since reached
    /// zero — i.e. after every operation that was active at retire time
    /// has left. Operations that enter later cannot hold references to
    /// the retired object because the caller made it unreachable before
    /// retiring (the standard SMR contract).
    fn retire(&self, action: Deferred) {
        self.retired.fetch_add(1, Ordering::Relaxed);
        let batch = Box::into_raw(Box::new(Batch {
            refs: AtomicI64::new(REFS_INIT),
            actions: vec![action],
        }));
        let mut pushed: i64 = 0;
        for s in self.slots.iter() {
            let mut cur = s.head.load(Ordering::Acquire);
            loop {
                let (ptr, refs) = unpack(cur);
                if refs == 0 {
                    break; // no pending operations on this slot
                }
                let node = Box::into_raw(Box::new(Node { next: ptr, batch }));
                match s.head.compare_exchange_weak(
                    cur,
                    pack(node, refs),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        pushed += 1;
                        break;
                    }
                    Err(now) => {
                        // SAFETY: the node never became visible.
                        drop(unsafe { Box::from_raw(node) });
                        cur = now;
                    }
                }
            }
        }
        // Swap the sentinel for the real push count. If every pushed slot
        // already drained (or none was active), this frees immediately.
        // SAFETY: batch is live; the sentinel keeps the count positive
        // until this adjustment.
        unsafe { self.adjust_batch(batch, pushed - REFS_INIT) };
    }

    fn flush(&self) {
        // Hyaline frees eagerly on the last leave; nothing to do.
    }

    fn slots(&self) -> usize {
        self.slots.len()
    }

    fn stats(&self) -> SmrStats {
        SmrStats {
            retired: self.retired.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Hyaline {
    fn drop(&mut self) {
        // Detach every slot list and drop the references. Any operation
        // still "active" at domain teardown is a bug in the embedding
        // kernel; batches it pins would leak rather than free unsafely.
        for s in self.slots.iter() {
            let (ptr, _refs) = unpack(s.head.swap(0, Ordering::AcqRel));
            // SAFETY: exclusive access in Drop.
            unsafe { self.traverse(ptr) };
        }
    }
}

impl std::fmt::Debug for Hyaline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hyaline")
            .field("slots", &self.slots.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn nested_ops_on_one_slot_context_agnostic() {
        // Two overlapping operations on the SAME slot — the situation
        // EBR's per-thread flag cannot express but Hyaline handles
        // (context-agnosticism is why the paper picked it).
        let dom = Hyaline::new(2);
        let freed = Arc::new(AtomicBool::new(false));
        dom.enter(0);
        dom.enter(0); // second op, same slot
        let f = freed.clone();
        dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
        dom.leave(0);
        assert!(!freed.load(Ordering::SeqCst), "one op still active");
        dom.leave(0);
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn many_batches_interleaved() {
        let dom = Hyaline::new(3);
        let count = Arc::new(AtomicU64::new(0));
        dom.enter(1);
        for _ in 0..100 {
            let c = count.clone();
            dom.retire(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(dom.stats().delta(), 100);
        dom.leave(1);
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(dom.stats().delta(), 0);
    }

    #[test]
    fn drop_runs_pending_actions() {
        let count = Arc::new(AtomicU64::new(0));
        {
            let dom = Hyaline::new(2);
            dom.enter(0);
            let c = count.clone();
            dom.retire(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            dom.leave(0);
            // freed on leave already
            assert_eq!(count.load(Ordering::SeqCst), 1);
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_stress_no_premature_free() {
        use std::sync::atomic::AtomicUsize;
        const THREADS: usize = 8;
        const OBJS: usize = 2000;
        let dom = Arc::new(Hyaline::new(THREADS));
        // A "version" cell readers dereference; retire invalidates it.
        let live = Arc::new((0..OBJS).map(|_| AtomicBool::new(true)).collect::<Vec<_>>());
        let current = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for t in 0..THREADS - 1 {
            let dom = dom.clone();
            let live = live.clone();
            let current = current.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    dom.enter(t);
                    let idx = current.load(Ordering::Acquire);
                    // While inside the critical section the object we
                    // observed must not have been freed.
                    std::hint::spin_loop();
                    assert!(
                        live[idx].load(Ordering::Acquire),
                        "object {idx} freed while reader inside critical section"
                    );
                    dom.leave(t);
                }
            }));
        }
        // Writer: publish next object, retire previous.
        for next in 1..OBJS {
            let prev = current.swap(next, Ordering::AcqRel);
            let live2 = live.clone();
            dom.retire(Box::new(move || {
                live2[prev].store(false, Ordering::Release);
            }));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(dom.stats().delta(), 0, "all retired objects freed");
    }
}
