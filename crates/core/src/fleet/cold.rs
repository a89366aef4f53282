//! The cold-module tier: idle residents evict to catalog-only records
//! and fault back in on demand or on request.

use super::{record, Catalog, Fleet, FleetError, Residency, Teardown};
use crate::LoadedModule;
use adelie_obj::ObjectFile;
use adelie_plugin::TransformOptions;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cold-module tier limits: how long a resident may sit idle, and how
/// many modules the fleet keeps resident at most.
#[derive(Copy, Clone, Debug)]
pub struct ColdTierConfig {
    /// A resident module with no outermost call for this long is
    /// eligible for eviction at the next [`Fleet::cold_tick`].
    pub idle_ns: u64,
    /// Most modules the whole fleet keeps resident; `cold_tick` evicts
    /// least-recently-called modules beyond it even if not yet idle.
    pub max_resident: usize,
}

impl Default for ColdTierConfig {
    fn default() -> Self {
        ColdTierConfig {
            idle_ns: 10_000_000,
            max_resident: 1024,
        }
    }
}

/// Cold-tier counters (monotonic over the fleet's lifetime, except the
/// occupancy snapshots).
#[derive(Copy, Clone, Debug, Default)]
pub struct ColdTierStats {
    /// Modules evicted to the cold tier.
    pub evictions: u64,
    /// Modules faulted back in (demand or explicit `ensure_resident`).
    pub fault_ins: u64,
    /// Fault-ins that came through the VA demand path (a caller held a
    /// stale entry address into an evicted module).
    pub demand_redirects: u64,
    /// Modules currently resident, fleet-wide.
    pub resident: usize,
    /// Catalog records currently without a resident copy, fleet-wide.
    pub cold: usize,
}

/// Where an evicted module's parts used to be mapped — the demand
/// loader resolves stale entry VAs against these spans, and the layout
/// oracle probes them to prove the eviction really unmapped.
struct EvictedModule {
    shard: usize,
    /// [`LoadedModule::spans`] as of the eviction.
    spans: Vec<(u64, u64)>,
}

/// One shard's sorted span index: `(start, end, module)` for both
/// parts of every resident module, resolved by `partition_point`.
type SpanIndex = Vec<(u64, u64, Arc<str>)>;

/// The cold tier's bookkeeping: per-shard resident span indexes (for
/// resolving call VAs to module names), last-call stamps, per-module
/// call counts (autoscaler telemetry), and the evicted-span map the
/// demand loader consults. All its locks are leaves — never hold one
/// while taking the catalog.
#[derive(Default)]
pub(super) struct ColdTier {
    cfg: ColdTierConfig,
    /// The fleet clock as of the last `cold_tick` — what the call
    /// observer stamps last-call times with.
    now_ns: AtomicU64,
    /// Per shard: resident spans sorted by start (entry VAs resolve to
    /// names by `partition_point`, the scheduler's idiom).
    ranges: Mutex<Vec<SpanIndex>>,
    last_call: Mutex<HashMap<Arc<str>, u64>>,
    module_calls: Mutex<HashMap<Arc<str>, u64>>,
    shard_calls: Vec<AtomicU64>,
    evicted: Mutex<HashMap<Arc<str>, EvictedModule>>,
    evictions: AtomicU64,
    fault_ins: AtomicU64,
    demand_redirects: AtomicU64,
}

impl ColdTier {
    fn new(cfg: ColdTierConfig, shards: usize) -> ColdTier {
        ColdTier {
            cfg,
            ranges: Mutex::new(vec![Vec::new(); shards]),
            shard_calls: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ..ColdTier::default()
        }
    }

    /// The tier's half of [`Residency::arrive`]: index both parts of a
    /// freshly resident module, stamp its last-call time, and drop any
    /// evicted record it faulted in from.
    pub(super) fn arrive(&self, shard: usize, m: &LoadedModule) {
        self.evicted.lock().remove(&m.name);
        {
            let mut ranges = self.ranges.lock();
            let v = &mut ranges[shard];
            for (base, span) in m.spans() {
                let at = v.partition_point(|&(s, _, _)| s < base);
                v.insert(at, (base, base + span, m.name.clone()));
            }
        }
        self.last_call
            .lock()
            .insert(m.name.clone(), self.now_ns.load(Ordering::Relaxed));
    }

    /// The tier's half of [`Residency::retire`]: drop the module's span
    /// index entries for one shard (the other shard's copy, if any,
    /// keeps its own entries) and, for an eviction, remember the
    /// vacated `spans`.
    pub(super) fn depart(&self, shard: usize, name: Arc<str>, spans: Option<Vec<(u64, u64)>>) {
        self.ranges.lock()[shard].retain(|(_, _, n)| *n != name);
        if let Some(spans) = spans {
            self.evicted
                .lock()
                .insert(name, EvictedModule { shard, spans });
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop everything the tier remembers about a module that left the
    /// fleet.
    pub(super) fn forget(&self, name: &str) {
        self.evicted.lock().remove(name);
        self.last_call.lock().remove(name);
        self.module_calls.lock().remove(name);
    }

    /// Rebuild `shard`'s span index from its `residents`.
    pub(super) fn reindex(&self, shard: usize, residents: &[Arc<LoadedModule>]) {
        self.ranges.lock()[shard].clear();
        for m in residents {
            self.arrive(shard, m);
        }
    }

    /// Which resident module (in `shard`) covers `va`, if any.
    fn resolve(&self, shard: usize, va: u64) -> Option<Arc<str>> {
        let ranges = self.ranges.lock();
        let v = &ranges[shard];
        let at = v.partition_point(|&(s, _, _)| s <= va);
        at.checked_sub(1).and_then(|i| {
            let (start, end, ref name) = v[i];
            (va >= start && va < end).then(|| name.clone())
        })
    }
}

impl Residency {
    /// Load `obj` into `shard` as a fault-in: its cold record turns
    /// resident. Shared by [`Fleet::ensure_resident`] and the per-shard
    /// demand loaders.
    fn materialize(
        &self,
        shard: usize,
        obj: &ObjectFile,
        opts: &TransformOptions,
    ) -> Result<Arc<LoadedModule>, FleetError> {
        let registry = &self.registries[shard];
        let module = match registry.load(obj, opts) {
            Ok(m) => m,
            // Lost a fault-in race: another caller materialized it
            // between our catalog read and the load.
            Err(e) => return registry.get(&obj.name).ok_or(FleetError::Load(e)),
        };
        self.move_cold(Some(shard), None);
        self.arrive(shard, &module);
        if let Some(tier) = self.cold_tier() {
            tier.fault_ins.fetch_add(1, Ordering::Relaxed);
        }
        self.sharded.shard(shard).printk.log_limited(
            "fleet-faultin",
            format!("fleet: {} faulted in on shard {shard}", obj.name),
        );
        Ok(module)
    }

    /// The demand loader of `shard`: resolve the faulting VA against
    /// the evicted-span map, rebuild the module from its catalog
    /// record, and forward the VA to the rebuilt copy (part images keep
    /// their internal layout, so the entry's offset from its part base
    /// is invariant across the reload).
    fn fault_in(&self, shard: usize, va: u64, catalog: &Mutex<Catalog>) -> Option<u64> {
        let tier = self.cold_tier()?;
        let (name, part, old_base) = tier.evicted.lock().iter().find_map(|(n, r)| {
            if r.shard != shard {
                return None;
            }
            let part = r
                .spans
                .iter()
                .position(|&(base, span)| va >= base && va < base + span)?;
            Some((n.clone(), part, r.spans[part].0))
        })?;
        // try_lock: a migrate in flight holds the catalog across an
        // interpreted call; blocking here would deadlock, so the fault
        // stands and the caller retries.
        let (obj, opts) = {
            let catalog = catalog.try_lock()?;
            let rec = catalog.get(&name)?;
            if rec.shard != shard {
                // Retargeted while cold: its next home is another
                // shard, whose window this VA is not in.
                return None;
            }
            (rec.obj.clone(), rec.opts)
        };
        let module = self.materialize(shard, &obj, &opts).ok()?;
        let new_base = module.spans().get(part)?.0;
        tier.demand_redirects.fetch_add(1, Ordering::Relaxed);
        Some(new_base + (va - old_base))
    }
}

impl Fleet {
    /// Enable the cold-module tier: installs a per-shard call observer
    /// (last-call stamps + call-rate telemetry, alongside the
    /// scheduler's primary slot) and a per-shard demand loader (stale
    /// entry VAs into evicted modules fault the module back in from its
    /// catalog record). After this, [`Fleet::cold_tick`] evicts idle
    /// and over-cap residents, and [`Fleet::register`] +
    /// [`Fleet::ensure_resident`] give a 10^5–10^6-module catalog a
    /// bounded resident working set.
    pub fn enable_cold_tier(&self, cfg: ColdTierConfig) {
        let tier = Arc::new(ColdTier::new(cfg, self.len()));
        // Seed the span index with what is already resident.
        for (shard, registry) in self.residency.registries.iter().enumerate() {
            tier.reindex(shard, &registry.residents());
        }
        for (shard, kernel) in self.sharded().shards().iter().enumerate() {
            // Call observer: stamp last-call time and bump telemetry.
            // Leaf locks only — safe from inside any Vm::call.
            let t = tier.clone();
            kernel.add_call_observer(Arc::new(move |entry| {
                t.shard_calls[shard].fetch_add(1, Ordering::Relaxed);
                if let Some(name) = t.resolve(shard, entry) {
                    let now = t.now_ns.load(Ordering::Relaxed);
                    t.last_call.lock().insert(name.clone(), now);
                    *t.module_calls.lock().entry(name).or_insert(0) += 1;
                }
            }));
            let residency = Arc::clone(&self.residency);
            let catalog = Arc::clone(&self.catalog);
            kernel.set_demand_loader(Arc::new(move |va| residency.fault_in(shard, va, &catalog)));
        }
        *self.residency.cold.lock() = Some(tier);
    }

    /// Whether [`Fleet::enable_cold_tier`] has run.
    pub fn cold_tier_enabled(&self) -> bool {
        self.residency.cold.lock().is_some()
    }

    /// Make `name` resident (fault it in from its catalog record if it
    /// is cold). Returns `(shard, module)`. Cheap when already
    /// resident. Works with or without the cold tier enabled — this is
    /// also how a "lost" module (catalog record without a resident
    /// copy) self-heals.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Load`].
    pub fn ensure_resident(&self, name: &str) -> Result<(usize, Arc<LoadedModule>), FleetError> {
        let (shard, obj, opts) = {
            let catalog = self.catalog.lock();
            let rec = record(&catalog, name)?;
            if let Some(m) = self.registry(rec.shard).get(name) {
                return Ok((rec.shard, m));
            }
            (rec.shard, rec.obj.clone(), rec.opts)
        };
        // The catalog lock is dropped before loading: init runs
        // interpreted code, which must be able to demand-fault.
        Ok((shard, self.residency.materialize(shard, &obj, &opts)?))
    }

    /// Evict `name` to the cold tier: graceful unload (exit runs, both
    /// parts retire as one batched shootdown) with the catalog record
    /// kept as the fault-in recipe. Idempotent for already-cold
    /// modules. On an unload failure (trapping exit) the module stays
    /// resident and serving.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Unload`].
    pub fn evict(&self, name: &str) -> Result<(), FleetError> {
        let catalog = self.catalog.lock();
        let shard = record(&catalog, name)?.shard;
        if self.registry(shard).get(name).is_none() {
            return Ok(());
        }
        self.residency
            .retire(shard, name, Teardown::Exit, true)
            .map_err(FleetError::Unload)?;
        self.kernel(shard).printk.log_limited(
            "fleet-evict",
            format!("fleet: {name} evicted cold from shard {shard}"),
        );
        Ok(())
    }

    /// Advance the cold tier's clock to `now_ns` (whatever clock the
    /// caller drives — the stepped testkit clock in tests) and evict
    /// idle residents plus least-recently-called residents beyond
    /// `max_resident`. Eviction order is `(last_call, name)` —
    /// deterministic for a deterministic call history. Half-migrated
    /// orphans are skipped (the repair queue owns them); a module whose
    /// exit traps stays resident. Returns the evicted names. No-op
    /// until [`Fleet::enable_cold_tier`].
    pub fn cold_tick(&self, now_ns: u64) -> Vec<String> {
        let Some(tier) = self.residency.cold_tier() else {
            return Vec::new();
        };
        tier.now_ns.store(now_ns, Ordering::Relaxed);
        let mut candidates: Vec<(u64, String)> = Vec::new();
        {
            let catalog = self.catalog.lock();
            let last = tier.last_call.lock();
            for (shard, registry) in self.residency.registries.iter().enumerate() {
                for name in registry.list() {
                    if catalog.get(name.as_str()).is_none_or(|r| r.shard != shard) {
                        continue;
                    }
                    candidates.push((last.get(name.as_str()).copied().unwrap_or(0), name));
                }
            }
        }
        candidates.sort();
        let mut remaining = candidates.len();
        let mut evicted = Vec::new();
        for (stamp, name) in candidates {
            let idle = stamp.saturating_add(tier.cfg.idle_ns) <= now_ns;
            let over_cap = remaining > tier.cfg.max_resident;
            if !idle && !over_cap {
                break;
            }
            if self.evict(&name).is_ok() {
                remaining -= 1;
                evicted.push(name);
            }
        }
        evicted
    }

    /// Cold-tier counters plus a current fleet-wide occupancy snapshot
    /// (`resident` / `cold` are live whether or not the tier is on).
    pub fn cold_stats(&self) -> ColdTierStats {
        let mut stats = ColdTierStats::default();
        if let Some(t) = self.residency.cold_tier() {
            stats.evictions = t.evictions.load(Ordering::Relaxed);
            stats.fault_ins = t.fault_ins.load(Ordering::Relaxed);
            stats.demand_redirects = t.demand_redirects.load(Ordering::Relaxed);
        }
        for c in self.residency.counters.lock().iter() {
            stats.resident += c.resident;
            stats.cold += c.cold;
        }
        stats
    }

    /// Per-shard outermost-call counts since the last take — the
    /// autoscaler's busy signal. Zeros when the cold tier is off.
    pub fn take_shard_calls(&self) -> Vec<u64> {
        match self.residency.cold_tier() {
            Some(t) => t
                .shard_calls
                .iter()
                .map(|c| c.swap(0, Ordering::Relaxed))
                .collect(),
            None => vec![0; self.len()],
        }
    }

    /// Per-module call counts since the last take, sorted by name — how
    /// the autoscaler picks which residents to move off a hot shard.
    pub fn take_module_calls(&self) -> Vec<(String, u64)> {
        let Some(t) = self.residency.cold_tier() else {
            return Vec::new();
        };
        let mut counts: Vec<(String, u64)> = t
            .module_calls
            .lock()
            .drain()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        counts.sort();
        counts
    }

    /// An evicted module's former `(base, span_bytes)` spans — what the
    /// layout oracle probes to prove the eviction really unmapped, and
    /// `None` once the module is resident (or never evicted).
    pub fn evicted_spans(&self, name: &str) -> Option<Vec<(u64, u64)>> {
        let t = self.residency.cold_tier()?;
        let evicted = t.evicted.lock();
        evicted.get(name).map(|r| r.spans.clone())
    }
}
