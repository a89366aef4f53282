//! Fleet-level module management: placement across kernel shards and
//! live migration between them.
//!
//! [`ShardedKernel`] partitions the
//! machine into independent kernels over disjoint VA windows; this
//! module decides *which* shard a driver lives in and moves it when the
//! answer changes:
//!
//! * [`Fleet`] — one [`ModuleRegistry`] per shard plus the install
//!   catalog (object file + options per module) that makes migration a
//!   rebuild, not a guess;
//! * [`ShardPlacement`] — the pluggable placement policy:
//!   [`RoundRobin`] (uniform spread), [`LoadWeighted`] (lightest shard
//!   by mapped bytes), [`Pinned`] (explicit tenancy);
//! * [`Fleet::migrate`] — **live migration** as vmem batches: the
//!   module is rebuilt in the destination shard (both parts installed
//!   as one map-only batch, GOTs resolved against the destination
//!   kernel's symbol table), its writable data state is copied frame-
//!   to-frame, movable-pointer slots are re-adjusted for the new base,
//!   the `update_pointers` callback runs in the destination, and only
//!   then is the source copy retired — both parts in one batched
//!   shootdown. Make-before-break: traffic entering the destination
//!   shard is servable before the source layout disappears.
//!
//! Every teardown, and every load but crash recovery's rebuild (which
//! recounts from ground truth), goes through one owner, the private
//! `Residency` (`retire` / `arrive`). It keeps the occupancy counters
//! and the cold tier's indexes in step with the registries.
//! Split by concern: catalog and admission here, migration in
//! `migrate`, orphan repair and crash recovery in `repair`, the cold
//! tier in `cold`.
//!
//! Like [`ModuleRegistry::unload`], migration requires that no
//! scheduler is actively cycling the module (stop its group, migrate,
//! restart — the rolling-upgrade shape).

mod cold;
mod migrate;
mod repair;
#[cfg(test)]
mod tests;

pub use cold::{ColdTierConfig, ColdTierStats};
pub use repair::{RecoveryReport, RepairStats, MAX_REPAIR_BACKOFF_NS};

use crate::{LoadError, LoadedModule, ModuleRegistry};
use adelie_kernel::{Kernel, ShardedKernel};
use adelie_obj::ObjectFile;
use adelie_plugin::TransformOptions;
use cold::ColdTier;
use parking_lot::Mutex;
use repair::RepairTask;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// Loading into the target shard failed.
    Load(LoadError),
    /// No module of that name is installed anywhere in the fleet.
    UnknownModule(String),
    /// A module of that name is already installed — install it once,
    /// or unload/migrate the existing copy first (silently replacing
    /// the catalog record would orphan the old copy in its shard).
    DuplicateModule(String),
    /// Shard index out of range — from a caller, or from a placement
    /// policy returning an index the fleet does not have.
    UnknownShard(usize),
    /// Unloading the source copy failed (the destination copy is live;
    /// the module is *not* lost, but the source shard still holds it).
    Unload(String),
    /// The destination module's `update_pointers` callback failed after
    /// state copy (the migration is committed; pointer refresh is in
    /// doubt, mirroring `RerandError::UpdatePointers`).
    UpdatePointers(String),
    /// [`Fleet::retarget`] refused: the module is resident, and a
    /// catalog-only move would strand its live mappings in the old
    /// shard — use [`Fleet::migrate`] for resident modules.
    ResidentModule(String),
    /// Admission control refused the target shard: it is at its module
    /// cap. Pick another shard or unload something first.
    Overloaded {
        /// The refused shard.
        shard: usize,
        /// Modules it currently holds.
        modules: usize,
        /// The configured cap ([`AdmissionConfig::max_modules_per_shard`]).
        limit: usize,
    },
    /// Backpressure: the fleet's repair queue is saturated (it is busy
    /// re-converging after faults). Retry after draining — `after_ns`
    /// is the suggested wait on the caller's clock.
    RetryAfter {
        /// Suggested wait before retrying, in nanoseconds.
        after_ns: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Load(e) => write!(f, "fleet load failed: {e}"),
            FleetError::UnknownModule(m) => write!(f, "no module `{m}` in the fleet"),
            FleetError::DuplicateModule(m) => {
                write!(f, "module `{m}` is already installed in the fleet")
            }
            FleetError::UnknownShard(s) => write!(f, "no shard {s}"),
            FleetError::Unload(e) => write!(f, "source unload failed: {e}"),
            FleetError::UpdatePointers(e) => {
                write!(f, "destination update_pointers failed: {e}")
            }
            FleetError::ResidentModule(m) => {
                write!(f, "module `{m}` is resident; live-migrate it instead")
            }
            FleetError::Overloaded {
                shard,
                modules,
                limit,
            } => write!(
                f,
                "shard {shard} overloaded: {modules} modules at cap {limit}"
            ),
            FleetError::RetryAfter { after_ns } => {
                write!(f, "fleet busy repairing; retry after {after_ns} ns")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<LoadError> for FleetError {
    fn from(e: LoadError) -> FleetError {
        FleetError::Load(e)
    }
}

/// One shard's placement-relevant load, as seen by a policy.
#[derive(Copy, Clone, Debug)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Modules currently resident.
    pub modules: usize,
    /// Total bytes mapped by those modules (both parts).
    pub mapped_bytes: usize,
}

/// A pluggable shard-placement policy. Policies must be deterministic
/// for a given call sequence — fleet runs replay from a seed, and a
/// placement that consulted wall time or an unseeded RNG would break
/// the soak suite's byte-identical-replay gate.
pub trait ShardPlacement: Send + Sync {
    /// Choose the shard for `module` given the current per-shard loads
    /// (always non-empty, indexed by shard).
    fn place(&self, module: &str, loads: &[ShardLoad]) -> usize;

    /// Policy label (stats, bench output).
    fn name(&self) -> &'static str;
}

/// Uniform spread: shard `k`, `k+1`, … regardless of load.
#[derive(Default)]
pub struct RoundRobin {
    next: AtomicUsize,
}

impl RoundRobin {
    /// A round-robin policy starting at shard 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl ShardPlacement for RoundRobin {
    fn place(&self, _module: &str, loads: &[ShardLoad]) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % loads.len()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Lightest-shard placement: fewest mapped bytes, ties to the lowest
/// index (deterministic).
#[derive(Default)]
pub struct LoadWeighted;

impl LoadWeighted {
    /// A load-weighted policy.
    pub fn new() -> LoadWeighted {
        LoadWeighted
    }
}

impl ShardPlacement for LoadWeighted {
    fn place(&self, _module: &str, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.mapped_bytes, l.modules, l.shard))
            .map(|l| l.shard)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "load-weighted"
    }
}

/// Explicit tenancy: named modules go to their pinned shard, everything
/// else to `fallback`.
pub struct Pinned {
    assignments: HashMap<String, usize>,
    fallback: usize,
}

impl Pinned {
    /// Pin each `(module, shard)` pair; unknown modules land on
    /// `fallback`.
    pub fn new(assignments: HashMap<String, usize>, fallback: usize) -> Pinned {
        Pinned {
            assignments,
            fallback,
        }
    }
}

impl ShardPlacement for Pinned {
    fn place(&self, module: &str, _loads: &[ShardLoad]) -> usize {
        // No clamping: a pin outside the fleet is a misconfiguration,
        // and install() surfaces it as `FleetError::UnknownShard`
        // instead of silently relocating the tenant.
        self.assignments
            .get(module)
            .copied()
            .unwrap_or(self.fallback)
    }

    fn name(&self) -> &'static str {
        "pinned"
    }
}

/// What the catalog remembers about an installed module — enough to
/// rebuild it in any shard.
struct InstallRecord {
    shard: usize,
    obj: ObjectFile,
    opts: TransformOptions,
}

/// The install catalog: one record per module the fleet knows.
type Catalog = HashMap<Arc<str>, InstallRecord>;

/// `name`'s catalog record, or [`FleetError::UnknownModule`].
fn record<'c>(catalog: &'c Catalog, name: &str) -> Result<&'c InstallRecord, FleetError> {
    catalog
        .get(name)
        .ok_or_else(|| FleetError::UnknownModule(name.to_string()))
}

/// Admission-control limits on fleet mutations: a per-shard module cap
/// and backpressure from the repair queue.
#[derive(Copy, Clone, Debug)]
pub struct AdmissionConfig {
    /// Most modules one shard may hold; installs and migrations into a
    /// fuller shard fail with [`FleetError::Overloaded`].
    pub max_modules_per_shard: usize,
    /// Most half-repaired modules the repair queue may hold before
    /// install/migrate push back with [`FleetError::RetryAfter`] — a
    /// fleet drowning in fault recovery stops admitting new work.
    pub max_pending_repairs: usize,
    /// Base repair-retry delay, in ns (doubles per attempt), and the
    /// wait suggested by [`FleetError::RetryAfter`].
    pub retry_after_ns: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_modules_per_shard: 4096,
            max_pending_repairs: 64,
            retry_after_ns: 1_000_000,
        }
    }
}

/// One shard's occupancy, maintained incrementally so admission checks
/// are O(1) at 10^5+ catalog records (the old accounting walked the
/// whole catalog per install). `resident` counts registry residents —
/// including half-migrated orphans, whose catalog record points at the
/// migration destination — and `cold` counts catalog records without a
/// resident copy, so `resident + cold` is exactly the union of catalog
/// records and registry residents that `recover_shard` tears down.
#[derive(Copy, Clone, Debug, Default)]
struct ShardCounter {
    resident: usize,
    cold: usize,
    mapped_bytes: usize,
}

/// How [`Residency::retire`] tears a module down: through
/// [`ModuleRegistry::unload`] (the exit runs and may refuse) or
/// [`ModuleRegistry::force_unload`] (the exit is skipped).
#[derive(Copy, Clone, Debug)]
enum Teardown {
    Exit,
    Force,
}

/// The one owner of module residency: the registries, their occupancy
/// counters (written nowhere else but `recover_shard`'s recount) and
/// the cold tier. Shared with the demand loaders, which run inside
/// `Vm::call` with no `&Fleet` in reach.
struct Residency {
    sharded: Arc<ShardedKernel>,
    registries: Vec<Arc<ModuleRegistry>>,
    /// Per-shard occupancy (see [`ShardCounter`]).
    counters: Mutex<Vec<ShardCounter>>,
    /// The cold-module tier, once [`Fleet::enable_cold_tier`] ran.
    cold: Mutex<Option<Arc<ColdTier>>>,
}

impl Residency {
    /// The installed cold tier, if enabled.
    fn cold_tier(&self) -> Option<Arc<ColdTier>> {
        self.cold.lock().clone()
    }

    /// Book `module` as resident in `shard`: its count and bytes, its
    /// spans in the cold tier's index, a fresh last-call stamp (so it
    /// is not instantly idle-evicted), and no evicted record.
    fn arrive(&self, shard: usize, module: &LoadedModule) {
        let mut counters = self.counters.lock();
        counters[shard].resident += 1;
        counters[shard].mapped_bytes += module.mapped_bytes();
        drop(counters);
        if let Some(tier) = self.cold_tier() {
            tier.arrive(shard, module);
        }
    }

    /// Tear `name` down in `shard` and book the departure — only if the
    /// registry no longer holds the module, so a refused exit leaves it
    /// charged and indexed. With `keep_cold` the module turns cold and
    /// the cold tier keeps its vacated spans for the demand loader.
    /// Returns those spans, or the registry's teardown error.
    fn retire(
        &self,
        shard: usize,
        name: &str,
        how: Teardown,
        keep_cold: bool,
    ) -> Result<Vec<(u64, u64)>, String> {
        let registry = &self.registries[shard];
        let m = registry
            .get(name)
            .ok_or_else(|| format!("no module `{name}`"))?;
        let (key, spans, bytes) = (m.name.clone(), m.spans(), m.mapped_bytes());
        drop(m);
        let result = match how {
            Teardown::Exit => registry.unload(name),
            Teardown::Force => registry.force_unload(name),
        };
        if registry.get(name).is_none() {
            let mut counters = self.counters.lock();
            counters[shard].resident -= 1;
            counters[shard].mapped_bytes -= bytes;
            counters[shard].cold += usize::from(keep_cold);
            drop(counters);
            if let Some(tier) = self.cold_tier() {
                tier.depart(shard, key, keep_cold.then(|| spans.clone()));
            }
        }
        result.map(|()| spans)
    }

    /// Move one cold catalog record's charge from shard `from` to shard
    /// `to`; `None` is outside the fleet (a registration or a cold
    /// unload) or a resident copy (a fault-in).
    fn move_cold(&self, from: Option<usize>, to: Option<usize>) {
        let mut counters = self.counters.lock();
        if let Some(s) = from {
            counters[s].cold = counters[s].cold.saturating_sub(1);
        }
        if let Some(s) = to {
            counters[s].cold += 1;
        }
    }
}

/// The fleet: per-shard registries + placement + the install catalog.
pub struct Fleet {
    residency: Arc<Residency>,
    placement: Box<dyn ShardPlacement>,
    /// Serializes fleet-level mutations (install / migrate / unload) so
    /// placement decisions see a consistent view. Traffic and
    /// re-randomization never take it. `Arc` so the demand loader (which
    /// runs inside `Vm::call`) can consult the recipe without a
    /// back-reference to the fleet.
    catalog: Arc<Mutex<Catalog>>,
    /// Half-migrated orphans awaiting background unload retries. Lock
    /// order: `catalog` before `repairs` before any [`ColdTier`] lock,
    /// never the reverse.
    repairs: Mutex<Vec<RepairTask>>,
    backoff_clamps: AtomicU64,
    admission: AdmissionConfig,
}

impl Fleet {
    /// A fleet over `sharded` placing modules with `placement`, under
    /// default admission limits.
    pub fn new(sharded: Arc<ShardedKernel>, placement: Box<dyn ShardPlacement>) -> Fleet {
        Fleet::with_admission(sharded, placement, AdmissionConfig::default())
    }

    /// [`Fleet::new`] with explicit admission-control limits.
    pub fn with_admission(
        sharded: Arc<ShardedKernel>,
        placement: Box<dyn ShardPlacement>,
        admission: AdmissionConfig,
    ) -> Fleet {
        let registries: Vec<Arc<ModuleRegistry>> =
            sharded.shards().iter().map(ModuleRegistry::new).collect();
        let shards = registries.len();
        Fleet {
            residency: Arc::new(Residency {
                sharded,
                registries,
                counters: Mutex::new(vec![ShardCounter::default(); shards]),
                cold: Mutex::new(None),
            }),
            placement,
            catalog: Arc::new(Mutex::new(HashMap::new())),
            repairs: Mutex::new(Vec::new()),
            backoff_clamps: AtomicU64::new(0),
            admission,
        }
    }

    /// The underlying shard set.
    pub fn sharded(&self) -> &Arc<ShardedKernel> {
        &self.residency.sharded
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.residency.registries.len()
    }

    /// Never true (a fleet has ≥ 1 shard).
    pub fn is_empty(&self) -> bool {
        self.residency.registries.is_empty()
    }

    /// Shard `i`'s kernel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kernel(&self, i: usize) -> &Arc<Kernel> {
        self.residency.sharded.shard(i)
    }

    /// Shard `i`'s module registry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn registry(&self, i: usize) -> &Arc<ModuleRegistry> {
        &self.residency.registries[i]
    }

    /// Which shard currently owns `name`.
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        self.catalog.lock().get(name).map(|r| r.shard)
    }

    /// `(module, shard)` for everything installed, sorted by name
    /// (deterministic iteration for tests and dumps).
    pub fn modules(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .catalog
            .lock()
            .iter()
            .map(|(n, r)| (n.to_string(), r.shard))
            .collect();
        v.sort();
        v
    }

    /// Current per-shard loads (what placement policies consult).
    /// `modules` is the *union* occupancy — registry residents
    /// (including half-migrated orphans whose catalog record points at
    /// their migration destination) plus cold catalog records — so a
    /// shard draining orphans cannot be over-admitted past its cap.
    /// Read from incrementally maintained counters: O(shards), not
    /// O(catalog), which is what keeps admission cheap at 10^5+
    /// registered modules.
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.residency
            .counters
            .lock()
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardLoad {
                shard,
                modules: c.resident + c.cold,
                mapped_bytes: c.mapped_bytes,
            })
            .collect()
    }

    /// Admission check against the union occupancy of `shard`.
    fn check_occupancy(&self, shard: usize) -> Result<(), FleetError> {
        let c = self.residency.counters.lock()[shard];
        let (modules, limit) = (c.resident + c.cold, self.admission.max_modules_per_shard);
        if modules >= limit {
            return Err(FleetError::Overloaded {
                shard,
                modules,
                limit,
            });
        }
        Ok(())
    }

    /// Admission gate shared by install and migrate: a repair queue at
    /// capacity means the fleet is drowning in fault recovery — push
    /// back instead of admitting more work. The `RetryAfter` hint
    /// scales with the current queue depth (depth × base, clamped to
    /// [`MAX_REPAIR_BACKOFF_NS`]): the deeper the backlog, the longer
    /// a caller should stay away, so a storm of refused installs does
    /// not hammer the fleet at a fixed cadence.
    fn admit(&self) -> Result<(), FleetError> {
        let depth = self.repairs.lock().len();
        if depth >= self.admission.max_pending_repairs {
            let after_ns = self
                .admission
                .retry_after_ns
                .saturating_mul(depth as u64)
                .min(MAX_REPAIR_BACKOFF_NS);
            return Err(FleetError::RetryAfter { after_ns });
        }
        Ok(())
    }

    /// The opening shared by [`Fleet::install`] and [`Fleet::register`]:
    /// refuse a duplicate name, apply backpressure, let placement pick
    /// the shard, and check that shard exists and has room.
    fn place_new(&self, catalog: &Catalog, name: &str) -> Result<usize, FleetError> {
        if catalog.contains_key(name) {
            return Err(FleetError::DuplicateModule(name.to_string()));
        }
        self.admit()?;
        let loads = self.loads();
        let shard = self.placement.place(name, &loads);
        if shard >= loads.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        self.check_occupancy(shard)?;
        Ok(shard)
    }

    /// Every live VA span in the fleet:
    /// `(shard, module, base, span_bytes)` for both parts of every
    /// installed module — the ground truth the cross-shard overlap and
    /// window-confinement invariants are checked against.
    pub fn live_spans(&self) -> Vec<(usize, String, u64, u64)> {
        let catalog = self.catalog.lock();
        let mut spans = Vec::new();
        for (name, rec) in catalog.iter() {
            let Some(m) = self.residency.registries[rec.shard].get(name) else {
                continue;
            };
            spans.extend(
                m.spans()
                    .into_iter()
                    .map(|(base, len)| (rec.shard, name.to_string(), base, len)),
            );
        }
        spans.sort();
        spans
    }

    /// Audit the fleet's live layout: every span must sit wholly inside
    /// its owning shard's window, and all spans must be pairwise
    /// disjoint (within a shard *and* across shards — windows tile, so
    /// a cross-shard overlap is also a window escape, but both are
    /// reported by name). The single checker behind `FleetSim::verify`,
    /// the fleet bench, and the placement proptests, so the invariant
    /// cannot drift between its enforcers. Returns human-readable
    /// violations; empty = clean.
    pub fn verify_layout(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let spans = self.live_spans();
        for (i, &(shard_a, ref a, base_a, span_a)) in spans.iter().enumerate() {
            let (lo, hi) = self.residency.sharded.window(shard_a);
            if base_a < lo || base_a + span_a > hi {
                violations.push(format!(
                    "window escape: {a} (shard {shard_a}) spans \
                     {base_a:#x}+{span_a:#x} outside [{lo:#x}, {hi:#x})"
                ));
            }
            for &(shard_b, ref b, base_b, span_b) in spans.iter().skip(i + 1) {
                if base_a < base_b + span_b && base_b < base_a + span_a {
                    violations.push(format!(
                        "VA overlap: {a} (shard {shard_a}) {base_a:#x}+{span_a:#x} \
                         vs {b} (shard {shard_b}) {base_b:#x}+{span_b:#x}"
                    ));
                }
            }
        }
        violations
    }

    /// Install a module: placement picks the shard, the shard's
    /// registry loads it (init runs in that shard), the catalog records
    /// the recipe for future migration. Returns `(shard, module)`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Load`] when the shard's loader rejects the object;
    /// [`FleetError::DuplicateModule`] when the name is already
    /// installed (replacing the record would orphan the old copy);
    /// [`FleetError::UnknownShard`] when the placement policy names a
    /// shard the fleet does not have;
    /// [`FleetError::Overloaded`] when the chosen shard is at its
    /// module cap; [`FleetError::RetryAfter`] when the repair queue is
    /// saturated (admission control — see [`AdmissionConfig`]).
    pub fn install(
        &self,
        obj: &ObjectFile,
        opts: &TransformOptions,
    ) -> Result<(usize, Arc<LoadedModule>), FleetError> {
        let mut catalog = self.catalog.lock();
        let shard = self.place_new(&catalog, &obj.name)?;
        let module = self.residency.registries[shard].load(obj, opts)?;
        catalog.insert(
            module.name.clone(),
            InstallRecord {
                shard,
                obj: obj.clone(),
                opts: *opts,
            },
        );
        self.residency.arrive(shard, &module);
        self.kernel(shard).printk.log(format!(
            "fleet: {} placed on shard {shard} ({})",
            module.name,
            self.placement.name()
        ));
        Ok((shard, module))
    }

    /// Register a module in the catalog *cold*: placement picks the
    /// shard and the recipe is recorded, but nothing is loaded — the
    /// module materializes on first call (demand fault) or via
    /// [`Fleet::ensure_resident`]. This is how a 10^5–10^6-module
    /// catalog stays cheap: a registration is one hash insert, no
    /// mapping, no init. Counts toward the shard's union occupancy.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`Fleet::install`], minus `Load` (no
    /// load happens).
    pub fn register(&self, obj: &ObjectFile, opts: &TransformOptions) -> Result<usize, FleetError> {
        let mut catalog = self.catalog.lock();
        let shard = self.place_new(&catalog, &obj.name)?;
        catalog.insert(
            Arc::from(obj.name.as_str()),
            InstallRecord {
                shard,
                obj: obj.clone(),
                opts: *opts,
            },
        );
        self.residency.move_cold(None, Some(shard));
        self.kernel(shard).printk.log_limited(
            "fleet-register",
            format!(
                "fleet: {} registered cold on shard {shard} ({})",
                obj.name,
                self.placement.name()
            ),
        );
        Ok(shard)
    }

    /// Unload `name` from whichever shard owns it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Unload`].
    pub fn unload(&self, name: &str) -> Result<(), FleetError> {
        let mut catalog = self.catalog.lock();
        let shard = record(&catalog, name)?.shard;
        if self.residency.registries[shard].get(name).is_some() {
            // Registry unload first: if it fails (exit fault, withheld
            // retire), the catalog record survives, so the module stays
            // visible to every fleet audit and the unload is retryable.
            self.residency
                .retire(shard, name, Teardown::Exit, false)
                .map_err(FleetError::Unload)?;
        } else {
            // Cold: nothing is mapped — deregistering is a catalog edit.
            self.residency.move_cold(Some(shard), None);
        }
        catalog.remove(name);
        if let Some(tier) = self.residency.cold_tier() {
            tier.forget(name);
        }
        Ok(())
    }

    /// Audit every installed module's fixed GOTs against its owning
    /// shard's symbol table (and verify each module's exports resolve
    /// there). Returns human-readable violations; empty = clean.
    pub fn verify_symbol_integrity(&self) -> Vec<String> {
        let catalog = self.catalog.lock();
        let cold_enabled = self.cold_tier_enabled();
        let mut violations = Vec::new();
        for (name, rec) in catalog.iter() {
            let kernel = self.kernel(rec.shard);
            let Some(m) = self.residency.registries[rec.shard].get(name) else {
                if cold_enabled {
                    // Cold by design: a record without a resident copy
                    // is the tier working, not a lost module.
                    continue;
                }
                violations.push(format!(
                    "{name}: catalog says shard {} but the registry lost it",
                    rec.shard
                ));
                continue;
            };
            violations.extend(crate::verify_fixed_gots(kernel, &m));
            violations.extend(crate::verify_plt_bindings(kernel, &m));
            for (export, va) in &m.exports {
                match kernel.symbols.lookup(export) {
                    Some(published) if published == *va => {}
                    Some(published) => violations.push(format!(
                        "{name}: export {export} published at {published:#x} \
                         but the module says {va:#x}"
                    )),
                    None => violations.push(format!(
                        "{name}: export {export} unreachable from shard {}'s \
                         symbol table",
                        rec.shard
                    )),
                }
            }
        }
        violations
    }
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.len())
            .field("placement", &self.placement.name())
            .field("modules", &self.modules())
            .finish()
    }
}
