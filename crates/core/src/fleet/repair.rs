//! The repair queue for half-migrated orphans, and crash recovery of a
//! whole shard from the install catalog.

use super::{Catalog, Fleet, FleetError, Residency, ShardCounter, Teardown};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Ceiling on the repair queue's exponential backoff (and on
/// [`FleetError::RetryAfter`] hints). Unclamped, sixteen doublings of
/// the default base stretch a retry to ~65536 s — far past any watchdog
/// scan horizon, parking the orphan effectively forever. One second
/// keeps the slowest repair inside every supervision loop's sight.
pub const MAX_REPAIR_BACKOFF_NS: u64 = 1_000_000_000;

/// The repair queue's backoff schedule: `base · 2^attempts`, clamped to
/// [`MAX_REPAIR_BACKOFF_NS`]. Returns `(backoff_ns, clamped)`.
pub(super) fn repair_backoff(base_ns: u64, attempts: u32) -> (u64, bool) {
    let raw = base_ns.saturating_mul(1u64 << attempts.min(16));
    if raw > MAX_REPAIR_BACKOFF_NS {
        (MAX_REPAIR_BACKOFF_NS, true)
    } else {
        (raw, false)
    }
}

/// Repair-queue health, for supervisors and dashboards.
#[derive(Copy, Clone, Debug, Default)]
pub struct RepairStats {
    /// Half-migrated orphans still queued.
    pub pending: usize,
    /// Times the exponential backoff hit [`MAX_REPAIR_BACKOFF_NS`] —
    /// a non-zero count means some orphan is pinned at the ceiling.
    pub backoff_clamps: u64,
}

/// One half-migrated module awaiting background repair: `migrate`'s
/// make-before-break committed the destination copy, but retiring the
/// source copy failed, leaving an orphan in the source shard.
pub(super) struct RepairTask {
    pub(super) module: String,
    /// The shard holding the orphaned copy.
    pub(super) shard: usize,
    /// Unload attempts so far (drives backoff and the force threshold).
    pub(super) attempts: u32,
    /// Not retried before this clock time (caller-supplied ns).
    pub(super) next_ns: u64,
}

/// Graceful repair attempts before [`ModuleRegistry::force_unload`]
/// (skipping the module's exit) becomes the last resort.
///
/// [`ModuleRegistry::force_unload`]: crate::ModuleRegistry::force_unload
pub(super) const REPAIR_FORCE_AFTER: u32 = 3;

/// What [`Fleet::recover_shard`] did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The recovered shard.
    pub shard: usize,
    /// Modules torn down and rebuilt from the install catalog, sorted.
    pub rebuilt: Vec<String>,
    /// Modules that could not be rebuilt, with the error — their
    /// catalog records are dropped (the fleet no longer serves them).
    pub failed: Vec<(String, String)>,
    /// Every `(base, span_bytes)` the rebuild unmapped — the oracle
    /// probes these to prove no stale mapping survived.
    pub vacated: Vec<(u64, u64)>,
}

impl Residency {
    /// Recompute `shard`'s occupancy counters and cold-tier span index
    /// from ground truth — the registry's residents and the catalog's
    /// records — after a crash recovery, whose teardown/rebuild
    /// interleavings are easier to recount than to track.
    fn recount(&self, shard: usize, catalog: &Catalog) {
        let registry = &self.registries[shard];
        let residents = registry.residents();
        self.counters.lock()[shard] = ShardCounter {
            resident: residents.len(),
            cold: catalog
                .iter()
                .filter(|(n, rec)| rec.shard == shard && registry.get(n).is_none())
                .count(),
            mapped_bytes: residents.iter().map(|m| m.mapped_bytes()).sum(),
        };
        if let Some(tier) = self.cold_tier() {
            tier.reindex(shard, &residents);
        }
    }
}

impl Fleet {
    /// Half-migrated orphans still awaiting background repair.
    pub fn pending_repairs(&self) -> usize {
        self.repairs.lock().len()
    }

    /// Repair-queue health (pending depth + backoff-clamp count).
    pub fn repair_stats(&self) -> RepairStats {
        RepairStats {
            pending: self.repairs.lock().len(),
            backoff_clamps: self.backoff_clamps.load(Ordering::Relaxed),
        }
    }

    /// Run the background repair queue at time `now_ns` (on whatever
    /// clock the caller drives — wall in production, virtual under the
    /// testkit): every due task retries its orphan unload, gracefully
    /// at first and via [`ModuleRegistry::force_unload`] once
    /// `REPAIR_FORCE_AFTER` graceful attempts failed; failures re-queue
    /// with exponential backoff. Returns the number of orphans
    /// repaired.
    ///
    /// [`ModuleRegistry::force_unload`]: crate::ModuleRegistry::force_unload
    pub fn run_repairs(&self, now_ns: u64) -> usize {
        // Lock order: catalog before repairs.
        let _catalog = self.catalog.lock();
        let mut repairs = self.repairs.lock();
        let mut repaired = 0;
        let mut keep = Vec::new();
        for mut task in repairs.drain(..) {
            if task.next_ns > now_ns {
                keep.push(task);
                continue;
            }
            if self.registry(task.shard).get(&task.module).is_none() {
                // Already gone (a shard rebuild swept it); done.
                repaired += 1;
                continue;
            }
            let force = task.attempts >= REPAIR_FORCE_AFTER;
            let how = if force {
                Teardown::Force
            } else {
                Teardown::Exit
            };
            match self.residency.retire(task.shard, &task.module, how, false) {
                Ok(_) => {
                    self.kernel(task.shard).printk.log(format!(
                        "fleet: repaired orphan {} on shard {} (attempt {}{})",
                        task.module,
                        task.shard,
                        task.attempts + 1,
                        if force { ", forced" } else { "" }
                    ));
                    repaired += 1;
                }
                Err(e) => {
                    task.attempts = task.attempts.saturating_add(1);
                    let (backoff, clamped) =
                        repair_backoff(self.admission.retry_after_ns, task.attempts);
                    if clamped {
                        self.backoff_clamps.fetch_add(1, Ordering::Relaxed);
                    }
                    task.next_ns = now_ns.saturating_add(backoff);
                    self.kernel(task.shard).printk.log_limited(
                        &format!("fleet-repair:{}", task.module),
                        format!(
                            "fleet: repair of {} on shard {} failed ({e}); \
                             retrying at +{backoff} ns",
                            task.module, task.shard
                        ),
                    );
                    keep.push(task);
                }
            }
        }
        *repairs = keep;
        repaired
    }

    /// Crash-recover shard `shard`: tear down every module it holds
    /// (forced — a crashed shard's exits don't get a vote) and rebuild
    /// each from the install catalog's stored object + options, in
    /// name order (deterministic). Teardown covers what the shard's
    /// registry *actually* holds, not just the catalog's records for
    /// it — a half-migrated orphan's record points at the migration
    /// destination, but its stale copy lives here and vanishes with
    /// the rebuild. A pending repair task is dropped only once its
    /// orphan is confirmed gone from the registry. Callers drive this
    /// from a [`ShardWatchdog`](crate::ShardWatchdog) verdict, then
    /// rebuild the shard's scheduler group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownShard`]. Per-module rebuild failures are
    /// reported in the [`RecoveryReport`], not as an error — recovery
    /// salvages what it can.
    pub fn recover_shard(&self, shard: usize) -> Result<RecoveryReport, FleetError> {
        if shard >= self.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        let mut catalog = self.catalog.lock();
        let registry = self.registry(shard);
        // Tear down the union of the catalog's records for this shard
        // and the registry's resident modules: a half-migrated orphan
        // is resident here while its catalog record points at the
        // migration destination, and a record whose module the
        // registry lost still deserves a rebuild.
        let mut names: Vec<Arc<str>> = catalog
            .iter()
            .filter(|(_, rec)| rec.shard == shard)
            .map(|(n, _)| n.clone())
            .collect();
        names.extend(registry.list().into_iter().map(Arc::<str>::from));
        names.sort();
        names.dedup();
        let kernel = self.kernel(shard);
        let mut report = RecoveryReport {
            shard,
            ..RecoveryReport::default()
        };
        let cold_enabled = self.cold_tier_enabled();
        for name in names {
            let owned_here = catalog.get(&name).is_some_and(|rec| rec.shard == shard);
            let resident = registry.get(&name).is_some();
            if cold_enabled && !resident {
                // Cold tier enabled: a catalog record without a
                // resident copy is cold *by design* — its spans are
                // already unmapped and its recipe intact, so recovery
                // leaves it to fault back in on first call instead of
                // materializing the whole catalog.
                continue;
            }
            if resident {
                match self.residency.retire(shard, &name, Teardown::Force, false) {
                    // Vacated only after the teardown actually unmapped
                    // the spans: the layout oracle probes them to prove
                    // no stale mapping survives rebuild.
                    Ok(spans) => report.vacated.extend(spans),
                    Err(e) => {
                        // Retire batch failed: the old mappings survive
                        // and their frames are withheld, so the spans
                        // are NOT vacated — the oracle must not probe
                        // them as reclaimed. Reloading on top would
                        // double-serve the name, so drop the module from
                        // the fleet entirely.
                        report.failed.push((name.to_string(), e));
                        if owned_here {
                            catalog.remove(&name);
                        }
                        continue;
                    }
                }
            }
            if !owned_here {
                // Half-migrated orphan: the live copy serves from its
                // destination shard, so sweeping the stale copy *is*
                // the repair — nothing to rebuild here.
                kernel.printk.log(format!(
                    "fleet: swept orphan {name} during shard {shard} recovery"
                ));
                continue;
            }
            let rec = catalog
                .get(&name)
                .expect("catalog record exists for its own shard listing");
            match registry.load(&rec.obj, &rec.opts) {
                Ok(_) => report.rebuilt.push(name.to_string()),
                Err(e) => {
                    report.failed.push((name.to_string(), e.to_string()));
                    catalog.remove(&name);
                }
            }
        }
        // Drop a repair task only once its orphan is confirmed gone
        // from the registry. (A retire-batch failure also removes the
        // registry record — the frames are deliberately withheld and no
        // retry can reclaim them, so dropping the task is right there
        // too.)
        self.repairs
            .lock()
            .retain(|t| t.shard != shard || registry.get(&t.module).is_some());
        self.residency.recount(shard, &catalog);
        kernel.printk.log(format!(
            "fleet: shard {shard} recovered ({} rebuilt, {} failed)",
            report.rebuilt.len(),
            report.failed.len()
        ));
        Ok(report)
    }
}
