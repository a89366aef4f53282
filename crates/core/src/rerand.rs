//! One re-randomization cycle: the core move operation of paper §4.2.
//!
//! For the module being cycled:
//!
//! 1. pick a fresh random base for the movable part (a contention-safe
//!    [`VaAllocator`](crate::va) reservation, so independent modules can
//!    cycle concurrently under `adelie-sched`'s worker pool),
//! 2. alias every movable page (same frames) at the new base —
//!    *zero-copy* movement (Fig. 2a),
//! 3. build **new local GOTs** for both parts with entries rebased to
//!    the new addresses and a fresh encryption key; the new mapping's
//!    local-GOT pages point at the new frames, and the immovable part's
//!    local-GOT pages are swung onto their new frames,
//! 4. adjust absolute data slots that point into the movable part,
//! 5. invoke the module's `update_pointers` callback if it has one,
//! 6. `mr_retire` the old range: it is unmapped (and the old local-GOT
//!    frames freed) as soon as the last pending call drains,
//! 7. rotate the per-CPU stack pools.
//!
//! Pending calls keep executing at the old addresses with the old GOTs
//! and the old key until they return — consistency by construction.
//!
//! Steps 2–3 are **one** make-before-break page-table transaction: each
//! stage queues its ops (alias maps, the movable-GOT map, the
//! immovable-GOT frame swaps) into a single `adelie_vmem::Batch`, applied
//! once after the last stage gate. The new alias, the new movable GOT
//! and the swung immovable GOT therefore become visible at one root
//! store, with at most one range-tagged shootdown (the swap's), and a
//! cycle that stops before that store has published nothing — its only
//! cleanup is freeing the GOT frames it allocated. The retire unmap and
//! the stack rotation are the cycle's other two transactions, so TLBs
//! evict only the affected spans instead of flushing wholesale (§4.3).
//! [`rerandomize_module_epoch`] additionally tags the cycle's batches
//! with the scheduler's shared shootdown epoch.
//!
//! Scheduling cycles (the artifact's `randmod` kthread) is
//! `adelie-sched`'s job: a multi-worker scheduler with per-module
//! policies and a CPU budget.

use crate::hooks::{CycleCommit, CycleStage};
use crate::module::{write_local_got, LoadedModule, LocalGotEntry};
use crate::stacks::StackPool;
use crate::ModuleRegistry;
use adelie_kernel::{Kernel, VmError};
use adelie_vmem::{Batch, Fault, Pfn, PteFlags, PAGE_SIZE};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Why one re-randomization cycle could not complete.
///
/// Cycle failures are *recoverable* from the scheduler's point of view:
/// the module keeps running at its current base, and the failed cycle is
/// counted and retried at the next deadline rather than killing the
/// randomizer thread (the old stringly-typed path treated every error as
/// fatal).
#[derive(Debug)]
pub enum RerandError {
    /// The module was not built with `TransformOptions::rerandomizable`.
    NotRerandomizable {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
    },
    /// No free virtual range of the required size could be found.
    NoSpace {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// Pages requested.
        pages: usize,
    },
    /// The move's page-table transaction failed, or one of its stages
    /// was denied.
    Remap {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// The denied stage (alias, local GOT, immovable GOT swap,
        /// adjust-slots), or `move` for a fault applying the whole move.
        what: &'static str,
        /// The underlying page-table fault.
        fault: Fault,
    },
    /// The module's `update_pointers` callback raised an error. Unlike
    /// the other variants, the move itself *has* committed: the module
    /// runs correctly at its new base and the old range was retired —
    /// only the callback's own refresh work is in doubt.
    UpdatePointers {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// The interpreter error.
        source: VmError,
    },
}

impl fmt::Display for RerandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RerandError::NotRerandomizable { module } => {
                write!(f, "module {module} is not re-randomizable")
            }
            RerandError::NoSpace { module, pages } => {
                write!(f, "no free {pages}-page range to move {module} into")
            }
            RerandError::Remap {
                module,
                what,
                fault,
            } => write!(f, "{module}: {what} remap failed: {fault}"),
            RerandError::UpdatePointers { module, source } => {
                write!(f, "{module}: update_pointers failed: {source}")
            }
        }
    }
}

impl std::error::Error for RerandError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RerandError::Remap { fault, .. } => Some(fault),
            RerandError::UpdatePointers { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Re-randomize `module` once. Returns the new movable base.
///
/// Safe to call concurrently for *different* modules: placement is
/// reservation-based and each module's `move_lock` serializes cycles of
/// the same module.
///
/// # Errors
///
/// [`RerandError`] — the module is left fully functional on any error
/// and callers may simply retry later. Placement and mapping errors
/// publish nothing (the module has not moved, nothing is leaked); a
/// failing `update_pointers` callback is reported after the move has
/// committed and the old range been retired (see
/// [`RerandError::UpdatePointers`]).
pub fn rerandomize_module(
    kernel: &Arc<Kernel>,
    registry: &ModuleRegistry,
    module: &LoadedModule,
) -> Result<u64, RerandError> {
    rerandomize_module_epoch(kernel, registry, module, None)
}

/// [`rerandomize_module`] with an explicit shared shootdown-`epoch`
/// tag: every page-table batch the cycle issues (the move, the retire
/// unmap, the stack-pool rotation) carries the tag, so same-deadline
/// cycles of independent modules — which the scheduler hands the same
/// epoch — coalesce their invalidation sets into one merged log slot
/// and a lagging TLB pays a single partial invalidation pass for the
/// whole epoch.
///
/// # Errors
///
/// See [`rerandomize_module`].
pub fn rerandomize_module_epoch(
    kernel: &Arc<Kernel>,
    registry: &ModuleRegistry,
    module: &LoadedModule,
    epoch: Option<u64>,
) -> Result<u64, RerandError> {
    if !module.rerandomizable {
        return Err(RerandError::NotRerandomizable {
            module: module.name.clone(),
        });
    }
    let _move_guard = module.move_lock.lock();
    let pages = module.movable.total_pages;
    let old_base = module.movable_base.load(Ordering::Acquire);

    // Hook snapshot: one read per cycle; `None` (production) makes every
    // `allowed` check a constant.
    let hooks = registry.hooks();
    let allowed = |stage: CycleStage| hooks.as_ref().is_none_or(|h| h.allow(&module.name, stage));

    // (1) Fresh base + key. The reservation keeps concurrent cycles and
    // loads out of this range until the pages are actually mapped.
    if !allowed(CycleStage::Reserve) {
        return Err(RerandError::NoSpace {
            module: module.name.clone(),
            pages,
        });
    }
    let reservation = registry
        .reserve_va(pages)
        .ok_or_else(|| RerandError::NoSpace {
            module: module.name.clone(),
            pages,
        })?;
    let new_base = reservation.base();
    let new_key = kernel.rng_u64();
    // Error constructor: the module id is a pre-built `Arc<str>`, so
    // even the fault paths cost a refcount bump, never a string copy.
    let remap = |what: &'static str, fault: Fault| RerandError::Remap {
        module: module.name.clone(),
        what,
        fault,
    };
    // The one pre-publish cleanup: nothing is visible until the move's
    // single `apply`, so a cycle stopped before (or by) it only has to
    // free this cycle's fresh GOT frames. The reservation drops with
    // the return. After it, the module is untouched and the cycle can
    // simply be retried.
    let discard = |fresh: &[Pfn], err: RerandError| {
        for &pfn in fresh {
            kernel.phys.free(pfn);
        }
        Err(err)
    };
    // Fresh frames holding a rebuilt local GOT for the new base and key.
    let fresh_lgot = |entries: &[LocalGotEntry], lgot_pages: usize| -> Vec<Pfn> {
        let mut img = vec![0u8; lgot_pages * PAGE_SIZE];
        write_local_got(entries, new_base, new_key, &mut img);
        let pfns = kernel.phys.alloc_n(lgot_pages);
        for (&pfn, page) in pfns.iter().zip(img.chunks_exact(PAGE_SIZE)) {
            kernel.phys.write(pfn, 0, page);
        }
        pfns
    };
    // Steps (2)–(3) queue into this one batch: the move.
    let mut batch = Batch::with_epoch(epoch);

    // (2) Zero-copy alias of every movable page group, except the local
    // GOT pages which get fresh frames in step (3).
    if !allowed(CycleStage::AliasMap) {
        return Err(remap("alias", Fault::Injected { va: new_base }));
    }
    for g in &module.movable.groups {
        for page in g.page_start..g.page_start + g.pages {
            if !module.movable.is_lgot_page(page) {
                let va = new_base + (page * PAGE_SIZE) as u64;
                batch.map_page(va, module.movable.frames[page], g.flags);
            }
        }
    }

    // (3) New local GOTs: fresh movable-GOT frames mapped at the new
    // base (sealed from birth), then the immovable GOT's PTEs swung onto
    // fresh frames — pending calls read either the old or the new table,
    // never a hole (§4.2 "GOT pages in the new address space are
    // remapped to point to the new GOTs"). `fresh` holds the movable
    // frames first, then the immovable ones.
    let mut fresh: Vec<Pfn> = Vec::new();
    let lgot_pages = module.movable.lgot_pages();
    if lgot_pages > 0 {
        let va = new_base + module.movable.lgot_off;
        if !allowed(CycleStage::MovableGot) {
            return Err(remap("local GOT", Fault::Injected { va }));
        }
        fresh = fresh_lgot(&module.lgot_movable, lgot_pages);
        batch.map_range(va, &fresh, PteFlags::RO_DATA);
    }
    let movable_lgot_len = fresh.len();
    if let Some(imm) = module.immovable.as_ref().filter(|imm| imm.lgot_pages() > 0) {
        let va = imm.base + imm.lgot_off;
        if !allowed(CycleStage::ImmovableGotSwap) {
            return discard(&fresh, remap("immovable GOT swap", Fault::Injected { va }));
        }
        let imm_lgot = fresh_lgot(&module.lgot_immovable, imm.lgot_pages());
        for (i, &pfn) in imm_lgot.iter().enumerate() {
            batch.swap_frame(va + (i * PAGE_SIZE) as u64, pfn, PteFlags::RO_DATA);
        }
        fresh.extend(imm_lgot);
    }
    // Last pre-publish stage gate, then the move's one transaction.
    if !allowed(CycleStage::AdjustSlots) {
        return discard(
            &fresh,
            remap("adjust-slots", Fault::Injected { va: new_base }),
        );
    }
    if let Err(fault) = kernel.space.apply(batch) {
        return discard(&fresh, remap("move", fault));
    }

    // Published: hand the fresh GOT frames to the module and collect
    // the ones they replace.
    let new_imm_lgot = fresh.split_off(movable_lgot_len);
    let mut doomed_frames = Vec::new();
    for (new, cur) in [
        (fresh, &module.movable_lgot_frames),
        (new_imm_lgot, &module.immovable_lgot_frames),
    ] {
        if !new.is_empty() {
            doomed_frames.append(&mut std::mem::replace(&mut *cur.lock(), new));
        }
    }
    // The new range is fully mapped: the page tables now exclude it from
    // other placements, so the reservation can go. Debug builds prove
    // "fully mapped" with one batched walk (a single epoch pin and
    // snapshot-root load for the whole span) before releasing it.
    #[cfg(debug_assertions)]
    {
        let vas: Vec<u64> = (0..pages)
            .map(|i| new_base + (i * PAGE_SIZE) as u64)
            .collect();
        assert!(
            kernel
                .space
                .translate_batch(&vas, adelie_vmem::Access::Read)
                .iter()
                .all(|r| r.is_ok()),
            "rerand published a hole in {}'s new range at {new_base:#x}",
            module.name
        );
    }
    drop(reservation);

    // (4) Adjust movable pointers in data.
    module.rewrite_adjust_slots(kernel, new_base);

    // (5) Publish, then let the module refresh any run-time pointers.
    module.movable_base.store(new_base, Ordering::Release);
    module.current_key.store(new_key, Ordering::Release);
    module.generation.fetch_add(1, Ordering::Relaxed);
    // Re-swing bound lazy PLT slots against the published layout (the
    // MARDU hazard: a bound slot holds an absolute address, so leaving
    // it would let a first-call binding outlive the range it points
    // into). Runs before `update_pointers` so the callback itself calls
    // through correctly-bound stubs; a binder racing this re-resolves
    // under the same lock and reaches the same answer.
    module.reswing_bound_plt(kernel);
    let update_result = match module.update_pointers_va {
        Some(_) if !allowed(CycleStage::UpdatePointers) => Err(RerandError::UpdatePointers {
            module: module.name.clone(),
            source: VmError::Native("injected fault: update_pointers".into()),
        }),
        Some(up) => {
            let mut vm = kernel.vm();
            vm.call(up, &[new_base])
                .map(|_| ())
                .map_err(|source| RerandError::UpdatePointers {
                    module: module.name.clone(),
                    source,
                })
        }
        None => Ok(()),
    };
    if update_result.is_err() {
        // The move has committed and the old range is about to be
        // retired, but the module's own pointer refresh did not run to
        // completion: record it (the old silent-drop path) so the
        // scheduler's stats — and the testkit oracle — can see exactly
        // which modules may still hold references into retired layouts.
        module
            .pointer_refresh_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    // (6) Retire the old range — unmapped when pending calls drain.
    // This runs even when the update_pointers callback failed: the move
    // is already published at this point, and skipping retirement would
    // leak the old mapping and the replaced GOT frames on every retried
    // cycle.
    if allowed(CycleStage::Retire) {
        let kernel2 = kernel.clone();
        let total_pages = pages;
        kernel.reclaim.retire(Box::new(move || {
            // Batched unmap: one TLB shootdown for the whole stale
            // range, tagged with the cycle's shared epoch so retires of
            // same-deadline cycles coalesce their invalidation sets.
            let mut batch = Batch::with_epoch(epoch);
            batch.unmap_sparse(old_base, total_pages);
            let _ = kernel2.space.apply(batch);
            for pfn in doomed_frames {
                kernel2.phys.free(pfn);
            }
        }));
    } else {
        // Injected retirement drop: the old range stays mapped and the
        // replaced GOT frames leak — deliberately, so the testkit can
        // prove its layout oracle detects exactly this class of bug.
        kernel.printk.log(format!(
            "rerand: {} retire suppressed by injected fault (old range {old_base:#x} leaked)",
            module.name
        ));
    }

    // (7) Rotate the per-CPU randomized stack pools so stack addresses
    // go stale on the same cadence as code addresses (§3.4). The
    // rotation retires every pooled stack in one batch under the same
    // shared epoch.
    if allowed(CycleStage::StackRotate) {
        registry.stacks.rotate_epoch(kernel, epoch);
    }
    if let Some(h) = &hooks {
        h.committed(&CycleCommit {
            module: &module.name,
            old_base,
            new_base,
            span: (pages * PAGE_SIZE) as u64,
            generation: module.generation.load(Ordering::Relaxed),
        });
    }
    update_result.map(|()| new_base)
}

/// Print the artifact-style statistics block to the kernel log:
///
/// ```text
/// Randomized 53 times
/// SMR Retire: 106 / SMR Free: 106 / SMR Delta: 0
/// Stack Alloc: 530 / Stack Free: 530 / Stack Delta: 0
/// ```
pub fn log_stats(kernel: &Kernel, cycles: u64, stacks: &StackPool) {
    let smr = kernel.reclaim.stats();
    let st = stacks.stats();
    kernel.printk.log("-----".to_string());
    kernel.printk.log(format!("Randomized {cycles} times"));
    kernel.printk.log(format!("SMR Retire: {}", smr.retired));
    kernel.printk.log(format!("SMR Free: {}", smr.freed));
    kernel.printk.log(format!("SMR Delta: {}", smr.delta()));
    kernel.printk.log(format!("Stack Alloc: {}", st.allocated));
    kernel.printk.log(format!("Stack Free: {}", st.freed));
    kernel.printk.log(format!("Stack Delta: {}", st.delta()));
}
