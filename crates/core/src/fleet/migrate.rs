//! Live migration between shards, and the catalog-only retarget of a
//! cold module.

use super::repair::RepairTask;
use super::{Fleet, FleetError, Teardown};
use crate::{LoadedModule, PartImage};
use adelie_kernel::Kernel;
use adelie_vmem::{PteFlags, PAGE_SIZE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Fleet {
    /// Live-migrate `name` to shard `dst` (see module docs for the
    /// batch protocol). No-op if the module already lives there.
    /// Returns the destination-resident module.
    ///
    /// # Errors
    ///
    /// [`FleetError`] — on a load failure the source copy is untouched
    /// and still serving; on an unload failure the destination copy is
    /// live, the catalog points at it, and the orphaned source copy is
    /// queued for background repair (see [`Fleet::run_repairs`]).
    pub fn migrate(&self, name: &str, dst: usize) -> Result<Arc<LoadedModule>, FleetError> {
        if dst >= self.len() {
            return Err(FleetError::UnknownShard(dst));
        }
        let mut catalog = self.catalog.lock();
        let rec = catalog
            .get_mut(name)
            .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
        let src = rec.shard;
        let src_module = self
            .registry(src)
            .get(name)
            .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
        if src == dst {
            return Ok(src_module);
        }
        self.admit()?;
        self.check_occupancy(dst)?;

        // (1) Make: rebuild in the destination. Both parts install as
        // one map-only vmem batch inside the loader; GOTs resolve
        // against the destination kernel; init runs there (device
        // attach). The source copy keeps serving throughout.
        let dst_module = self.registry(dst).load(&rec.obj, &rec.opts)?;

        // (2) Copy live state: every writable data page travels frame-
        // to-frame, so counters, rings, and tables survive the move.
        let src_kernel = self.kernel(src);
        let dst_kernel = self.kernel(dst);
        copy_writable_state(src_kernel, &src_module, dst_kernel, &dst_module);

        // (3) Re-adjust movable pointers for the destination base (the
        // raw copy imported source-shard addresses) and let the module
        // refresh its own run-time pointers.
        let dst_base = dst_module.movable_base.load(Ordering::Acquire);
        dst_module.rewrite_adjust_slots(dst_kernel, dst_base);
        let update_result = match dst_module.update_pointers_va {
            Some(up) => {
                let mut vm = dst_kernel.vm();
                vm.call(up, &[dst_base]).map(|_| ()).map_err(|e| {
                    dst_module
                        .pointer_refresh_failures
                        .fetch_add(1, Ordering::Relaxed);
                    FleetError::UpdatePointers(e.to_string())
                })
            }
            None => Ok(()),
        };

        // (4) Break: retire the source copy — exit runs there (device
        // detach) and both parts unmap as one batched shootdown.
        rec.shard = dst;
        // The destination copy is live from here; the source copy stays
        // charged to its shard until the retire below (or the repair
        // queue) actually retires it — that residual charge is what
        // keeps a shard draining orphans from being over-admitted.
        self.residency.arrive(dst, &dst_module);
        drop(src_module);
        if let Err(e) = self.residency.retire(src, name, Teardown::Exit, false) {
            // Half-migrated: the destination copy serves and the
            // catalog points at it, but the source shard still holds an
            // orphaned copy. Queue it for background repair (retried
            // with backoff by `run_repairs`) instead of stranding it.
            self.repairs.lock().push(RepairTask {
                module: name.to_string(),
                shard: src,
                attempts: 0,
                next_ns: 0,
            });
            self.kernel(src).printk.log(format!(
                "fleet: {name} orphaned on shard {src} after migrate \
                 (unload failed: {e}); queued for repair"
            ));
            return Err(FleetError::Unload(e));
        }
        dst_kernel
            .printk
            .log(format!("fleet: {name} migrated shard {src} -> shard {dst}"));
        update_result.map(|()| dst_module)
    }

    /// Move a *cold* module's tenancy to shard `dst` — a catalog-only
    /// edit (no mapping exists to migrate). The autoscaler uses this to
    /// drain a shard it is deactivating: residents live-migrate, cold
    /// records retarget. The module's next fault-in lands in `dst`.
    ///
    /// # Errors
    ///
    /// [`FleetError::ResidentModule`] when the module is resident (use
    /// [`Fleet::migrate`]); the usual admission errors for `dst`.
    pub fn retarget(&self, name: &str, dst: usize) -> Result<(), FleetError> {
        if dst >= self.len() {
            return Err(FleetError::UnknownShard(dst));
        }
        let mut catalog = self.catalog.lock();
        let rec = catalog
            .get_mut(name)
            .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
        let src = rec.shard;
        if src == dst {
            return Ok(());
        }
        if self.registry(src).get(name).is_some() {
            return Err(FleetError::ResidentModule(name.to_string()));
        }
        self.admit()?;
        self.check_occupancy(dst)?;
        rec.shard = dst;
        self.residency.move_cold(Some(src), Some(dst));
        Ok(())
    }
}

/// Copy every writable (`PteFlags::DATA`) page of both parts from the
/// source module's frames to the destination's — the state-transfer
/// half of migration.
fn copy_writable_state(
    src_kernel: &Arc<Kernel>,
    src: &LoadedModule,
    dst_kernel: &Arc<Kernel>,
    dst: &LoadedModule,
) {
    let copy_part = |src_img: &PartImage, dst_img: &PartImage| {
        let mut buf = [0u8; PAGE_SIZE];
        for g in &src_img.groups {
            if g.flags != PteFlags::DATA {
                continue;
            }
            for p in g.page_start..g.page_start + g.pages {
                src_kernel.phys.read(src_img.frames[p], 0, &mut buf);
                dst_kernel.phys.write(dst_img.frames[p], 0, &buf);
            }
        }
    };
    copy_part(&src.movable, &dst.movable);
    if let (Some(s), Some(d)) = (&src.immovable, &dst.immovable) {
        copy_part(s, d);
    }
}
