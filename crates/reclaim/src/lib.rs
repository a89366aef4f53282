//! # adelie-reclaim — safe memory reclamation for delayed unmapping
//!
//! Adelie must not unmap a module's old address range while *pending
//! calls* still execute there (paper §3.4, "Controlling Address Space
//! Lifetime"). The paper uses the **Hyaline** reclamation scheme
//! (Nikolaev & Ravindran, PODC '19 / PLDI '21), chosen over epoch-based
//! reclamation because it is *context-agnostic*: it makes no assumption
//! about how threads are managed, which matters in a kernel where calls
//! arrive from arbitrary task, softirq, and interrupt contexts.
//!
//! This crate implements both schemes behind one trait:
//!
//! * [`Hyaline`] — a per-slot reference-counted batch hand-off scheme.
//!   Retired batches are pushed onto every *active* slot's lock-free
//!   list; the last operation to leave a slot detaches the list and drops
//!   its references; a batch is freed when all slots that were active at
//!   retire time have drained. This is a simplified ("last-leaver
//!   detaches") variant of Hyaline that preserves its interface, its
//!   snapshot-free operation, and its context-agnosticism (several
//!   concurrent operations may share one slot), documented in DESIGN.md.
//! * [`Ebr`] — classic three-epoch reclamation (Fraser), the baseline the
//!   paper compares Hyaline against.
//!
//! The kernel maps the paper's API onto this crate directly:
//! `mr_start` → [`Reclaimer::enter`], `mr_finish` → [`Reclaimer::leave`],
//! `mr_retire` → [`Reclaimer::retire`].
//!
//! # Example
//!
//! ```
//! use adelie_reclaim::{Hyaline, Reclaimer};
//! use std::sync::{Arc, atomic::{AtomicBool, Ordering}};
//!
//! let dom = Hyaline::new(4);
//! let freed = Arc::new(AtomicBool::new(false));
//!
//! dom.enter(0);                       // a pending call begins on CPU 0
//! let f = freed.clone();
//! dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
//! assert!(!freed.load(Ordering::SeqCst), "deferred while call pending");
//! dom.leave(0);                       // pending call completes
//! assert!(freed.load(Ordering::SeqCst), "freed as soon as calls drain");
//! ```

mod ebr;
mod hyaline;

pub use ebr::Ebr;
pub use hyaline::Hyaline;

/// A deferred reclamation action (an unmap, a free, …).
pub type Deferred = Box<dyn FnOnce() + Send>;

/// Retire/free counters — the numbers Adelie prints as
/// `SMR Retire` / `SMR Free` / `SMR Delta` in its dmesg output.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct SmrStats {
    /// Objects handed to [`Reclaimer::retire`].
    pub retired: u64,
    /// Deferred actions actually executed.
    pub freed: u64,
}

impl SmrStats {
    /// Outstanding (retired but not yet freed) objects.
    pub fn delta(&self) -> u64 {
        self.retired - self.freed
    }
}

/// The safe-memory-reclamation interface shared by [`Hyaline`] and
/// [`Ebr`].
///
/// A *slot* identifies an execution context — Adelie uses one slot per
/// simulated CPU. Operations bracket access to reclaimable memory with
/// [`enter`](Reclaimer::enter)/[`leave`](Reclaimer::leave) (the paper's
/// `mr_start`/`mr_finish`); [`retire`](Reclaimer::retire) defers an
/// action until every operation active at retire time has left.
pub trait Reclaimer: Send + Sync {
    /// Begin an operation on `slot` (`mr_start`).
    fn enter(&self, slot: usize);

    /// End an operation on `slot` (`mr_finish`). May run deferred
    /// actions synchronously.
    fn leave(&self, slot: usize);

    /// Defer `action` until all currently-active operations complete
    /// (`mr_retire`). If none are active, the action may run immediately
    /// on the calling thread.
    fn retire(&self, action: Deferred);

    /// Best-effort attempt to run ripe deferred actions (teardown aid;
    /// only meaningful for epoch-based schemes).
    fn flush(&self);

    /// Number of slots.
    fn slots(&self) -> usize;

    /// Counter snapshot.
    fn stats(&self) -> SmrStats;
}

/// RAII guard for [`Reclaimer::enter`]/[`Reclaimer::leave`].
pub struct Guard<'a> {
    dom: &'a dyn Reclaimer,
    slot: usize,
}

impl<'a> Guard<'a> {
    /// Enter `slot` on `dom`, leaving automatically on drop.
    pub fn new(dom: &'a dyn Reclaimer, slot: usize) -> Guard<'a> {
        dom.enter(slot);
        Guard { dom, slot }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.dom.leave(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    fn each_reclaimer(f: impl Fn(&dyn Reclaimer)) {
        f(&Hyaline::new(4));
        f(&Ebr::new(4));
    }

    #[test]
    fn immediate_free_when_idle() {
        each_reclaimer(|dom| {
            let freed = Arc::new(AtomicBool::new(false));
            let f = freed.clone();
            dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
            dom.flush();
            assert!(freed.load(Ordering::SeqCst));
            assert_eq!(dom.stats().delta(), 0);
        });
    }

    #[test]
    fn deferred_until_leave() {
        each_reclaimer(|dom| {
            let freed = Arc::new(AtomicBool::new(false));
            dom.enter(1);
            let f = freed.clone();
            dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
            dom.flush();
            assert!(!freed.load(Ordering::SeqCst), "pending call blocks free");
            assert_eq!(dom.stats().delta(), 1);
            dom.leave(1);
            dom.flush();
            assert!(freed.load(Ordering::SeqCst));
            assert_eq!(dom.stats().delta(), 0);
        });
    }

    #[test]
    fn multiple_pending_slots_all_block() {
        each_reclaimer(|dom| {
            let count = Arc::new(AtomicU64::new(0));
            dom.enter(0);
            dom.enter(2);
            let c = count.clone();
            dom.retire(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            dom.leave(0);
            dom.flush();
            assert_eq!(count.load(Ordering::SeqCst), 0, "slot 2 still pending");
            dom.leave(2);
            dom.flush();
            assert_eq!(count.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn guard_is_raii() {
        each_reclaimer(|dom| {
            let freed = Arc::new(AtomicBool::new(false));
            {
                let _g = Guard::new(dom, 3);
                let f = freed.clone();
                dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
                dom.flush();
                assert!(!freed.load(Ordering::SeqCst));
            }
            dom.flush();
            assert!(freed.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn late_entrants_on_other_slots_do_not_block_hyaline() {
        // An operation that starts *after* retire on a previously idle
        // slot must not delay the action: it cannot hold references to an
        // object that was already unreachable when it began. Hyaline
        // guarantees this; EBR does not (the late entrant pins the epoch,
        // see `ebr::tests::straggler_pins_everything`) — one of the
        // reasons the paper picked Hyaline.
        let dom = Hyaline::new(4);
        let freed = Arc::new(AtomicBool::new(false));
        dom.enter(0);
        let f = freed.clone();
        dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
        dom.enter(1); // late entrant on an idle slot
        dom.leave(0);
        assert!(
            freed.load(Ordering::SeqCst),
            "late entrant on another slot must not pin the batch"
        );
        dom.leave(1);
    }
}
