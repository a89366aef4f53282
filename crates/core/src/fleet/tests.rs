use super::repair::{repair_backoff, REPAIR_FORCE_AFTER};
use super::*;
use adelie_isa::{AluOp, Insn, Mem, Reg};
use adelie_kernel::{layout, FleetConfig};
use adelie_plugin::{transform, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec};
use adelie_vmem::Access;

/// A stateful driver: `N_bump()` increments a `.bss` counter and
/// returns it; `N_ops` is a pointer table (adjust slots).
fn stateful_spec(name: &str) -> ModuleSpec {
    let mut spec = ModuleSpec::new(name);
    spec.funcs.push(FuncSpec::exported(
        &format!("{name}_bump"),
        vec![
            MOp::LoadLocalSym(Reg::Rcx, format!("{name}_counter")),
            MOp::Insn(Insn::MovLoad {
                dst: Reg::Rax,
                src: Mem::base(Reg::Rcx),
            }),
            MOp::Insn(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            }),
            MOp::Insn(Insn::MovStore {
                dst: Mem::base(Reg::Rcx),
                src: Reg::Rax,
            }),
            MOp::Ret,
        ],
    ));
    spec.data.push(DataSpec {
        name: format!("{name}_counter"),
        readonly: false,
        init: DataInit::Zero(8),
    });
    spec.data.push(DataSpec {
        name: format!("{name}_ops"),
        readonly: false,
        init: DataInit::PtrTable(vec![format!("{name}_bump")]),
    });
    spec
}

fn fleet(shards: usize, placement: Box<dyn ShardPlacement>) -> Fleet {
    Fleet::new(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(shards, 11)),
        placement,
    )
}

#[test]
fn round_robin_spreads_and_windows_confine() {
    let fleet = fleet(3, Box::new(RoundRobin::new()));
    let opts = TransformOptions::rerandomizable(true);
    for i in 0..6 {
        let obj = transform(&stateful_spec(&format!("m{i}")), &opts).unwrap();
        let (shard, module) = fleet.install(&obj, &opts).unwrap();
        assert_eq!(shard, i % 3, "round-robin placement");
        let (lo, hi) = fleet.sharded().window(shard);
        let base = module.movable_base.load(Ordering::Acquire);
        assert!(base >= lo && base < hi, "movable base outside window");
        if let Some(imm) = &module.immovable {
            assert!(imm.base >= lo && imm.base < hi, "immovable outside window");
        }
    }
    assert!(fleet.verify_symbol_integrity().is_empty());
}

#[test]
fn load_weighted_prefers_the_lightest_shard() {
    let fleet = fleet(3, Box::new(LoadWeighted::new()));
    let opts = TransformOptions::rerandomizable(true);
    for i in 0..6 {
        let obj = transform(&stateful_spec(&format!("w{i}")), &opts).unwrap();
        fleet.install(&obj, &opts).unwrap();
    }
    let loads = fleet.loads();
    let max = loads.iter().map(|l| l.modules).max().unwrap();
    let min = loads.iter().map(|l| l.modules).min().unwrap();
    assert!(max - min <= 1, "identical modules must balance: {loads:?}");
}

#[test]
fn pinned_placement_honors_assignments() {
    let mut pins = HashMap::new();
    pins.insert("p0".to_string(), 2);
    let fleet = fleet(3, Box::new(Pinned::new(pins, 1)));
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&stateful_spec("p0"), &opts).unwrap();
    assert_eq!(fleet.install(&obj, &opts).unwrap().0, 2);
    let obj = transform(&stateful_spec("p1"), &opts).unwrap();
    assert_eq!(fleet.install(&obj, &opts).unwrap().0, 1, "fallback shard");
}

/// Regression: a duplicate install used to silently replace the
/// catalog record, orphaning the old copy in its shard; and an
/// out-of-range pin used to be silently clamped onto the last
/// shard. Both are now hard errors, leaving the fleet untouched.
#[test]
fn install_rejects_duplicates_and_out_of_range_pins() {
    let mut pins = HashMap::new();
    pins.insert("lost".to_string(), 7);
    let fleet = fleet(3, Box::new(Pinned::new(pins, 0)));
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&stateful_spec("dup"), &opts).unwrap();
    let (shard, _) = fleet.install(&obj, &opts).unwrap();
    match fleet.install(&obj, &opts) {
        Err(FleetError::DuplicateModule(name)) => assert_eq!(name, "dup"),
        other => panic!("duplicate install must be rejected, got {other:?}"),
    }
    // Exactly one copy exists, where it was first placed.
    assert_eq!(fleet.shard_of("dup"), Some(shard));
    assert_eq!(fleet.live_spans().len(), 2, "one movable + one immovable");
    let obj = transform(&stateful_spec("lost"), &opts).unwrap();
    match fleet.install(&obj, &opts) {
        Err(FleetError::UnknownShard(7)) => {}
        other => panic!("out-of-range pin must be rejected, got {other:?}"),
    }
    assert_eq!(fleet.shard_of("lost"), None);
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

#[test]
fn migration_carries_state_and_retires_the_source() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&stateful_spec("mig"), &opts).unwrap();
    let (src, module) = fleet.install(&obj, &opts).unwrap();
    let entry = module.export("mig_bump").unwrap();
    let src_kernel = fleet.kernel(src).clone();
    let mut vm = src_kernel.vm();
    for expect in 1..=5u64 {
        assert_eq!(vm.call(entry, &[]).unwrap(), expect);
    }
    let old_mov = module.movable_base.load(Ordering::Acquire);
    let old_imm = module.immovable.as_ref().unwrap().base;
    drop(vm);
    drop(module);

    let dst = 1 - src;
    let moved = fleet.migrate("mig", dst).unwrap();
    assert_eq!(fleet.shard_of("mig"), Some(dst));
    // The counter survived the move: the next bump continues at 6.
    let dst_kernel = fleet.kernel(dst).clone();
    let mut vm = dst_kernel.vm();
    let entry = moved.export("mig_bump").unwrap();
    assert_eq!(vm.call(entry, &[]).unwrap(), 6, "state must travel");
    // Destination layout sits inside the destination window; the
    // source copy is gone (both parts) and its exports unpublished.
    let (lo, hi) = fleet.sharded().window(dst);
    let new_base = moved.movable_base.load(Ordering::Acquire);
    assert!(new_base >= lo && new_base < hi);
    assert!(src_kernel.space.translate(old_mov, Access::Read).is_err());
    assert!(src_kernel.space.translate(old_imm, Access::Read).is_err());
    assert!(src_kernel.symbols.lookup("mig_bump").is_none());
    assert!(dst_kernel.symbols.lookup("mig_bump").is_some());
    // No dangling GOT entries anywhere.
    assert_eq!(fleet.verify_symbol_integrity(), Vec::<String>::new());
    // Migrating to the same shard is a no-op.
    let again = fleet.migrate("mig", dst).unwrap();
    assert_eq!(
        again.movable_base.load(Ordering::Acquire),
        moved.movable_base.load(Ordering::Acquire)
    );
    // And the module can still be re-randomized in its new home.
    crate::rerandomize_module(&dst_kernel, fleet.registry(dst), &moved).unwrap();
    assert_eq!(vm.call(entry, &[]).unwrap(), 7);
}

/// Regression: a failed registry unload used to be preceded by the
/// catalog removal (and the registry removal by the exit call), so
/// the still-mapped module vanished from every fleet audit and the
/// unload could never be retried.
#[test]
fn failed_unload_keeps_the_module_visible_and_retryable() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("stuck");
    // An exit entry that traps: unload must fail closed.
    spec.funcs
        .push(FuncSpec::exported("stuck_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("stuck_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (shard, _) = fleet.install(&obj, &opts).unwrap();
    match fleet.unload("stuck") {
        Err(FleetError::Unload(e)) => assert!(e.contains("exit failed"), "{e}"),
        other => panic!("trapping exit must fail the unload, got {other:?}"),
    }
    // Still cataloged, still in the registry, still audited, still
    // serving — and the unload is retryable (same failure again).
    assert_eq!(fleet.shard_of("stuck"), Some(shard));
    assert!(fleet.registry(shard).get("stuck").is_some());
    assert_eq!(fleet.live_spans().len(), 2);
    assert!(fleet.verify_symbol_integrity().is_empty());
    let kernel = fleet.kernel(shard).clone();
    let mut vm = kernel.vm();
    let entry = fleet
        .registry(shard)
        .get("stuck")
        .unwrap()
        .export("stuck_bump")
        .unwrap();
    assert_eq!(vm.call(entry, &[]).unwrap(), 1);
    assert!(matches!(fleet.unload("stuck"), Err(FleetError::Unload(_))));
}

/// The half-migrated orphan (migrate committed the destination,
/// source unload failed) lands on the repair queue, backpressures
/// admission while queued, survives graceful retries against a
/// trapping exit, and is finally force-unloaded — source spans
/// vacated, queue drained.
#[test]
fn migrate_orphan_is_repaired_with_backoff_and_force() {
    let fleet = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(RoundRobin::new()),
        AdmissionConfig {
            max_pending_repairs: 1,
            retry_after_ns: 1_000,
            ..AdmissionConfig::default()
        },
    );
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("orph");
    spec.funcs
        .push(FuncSpec::exported("orph_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("orph_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (src, module) = fleet.install(&obj, &opts).unwrap();
    let old_mov = module.movable_base.load(Ordering::Acquire);
    let old_imm = module.immovable.as_ref().unwrap().base;
    drop(module);
    let dst = 1 - src;
    match fleet.migrate("orph", dst) {
        Err(FleetError::Unload(e)) => assert!(e.contains("exit failed"), "{e}"),
        other => panic!("trapping source exit must orphan, got {other:?}"),
    }
    // Catalog points at the live destination copy; the orphan is
    // queued and the queue (at its cap of 1) pushes back on new
    // installs with RetryAfter.
    assert_eq!(fleet.shard_of("orph"), Some(dst));
    assert_eq!(fleet.pending_repairs(), 1);
    let other_obj = transform(&stateful_spec("late"), &opts).unwrap();
    match fleet.install(&other_obj, &opts) {
        Err(FleetError::RetryAfter { after_ns }) => assert_eq!(after_ns, 1_000),
        other => panic!("saturated repair queue must backpressure, got {other:?}"),
    }
    // Graceful repair attempts keep hitting the trapping exit; each
    // failure re-queues with a bigger backoff, and a not-yet-due
    // task is left alone.
    let mut now = 0u64;
    for _ in 0..REPAIR_FORCE_AFTER {
        assert_eq!(fleet.run_repairs(now), 0);
        assert_eq!(fleet.pending_repairs(), 1);
        assert_eq!(fleet.run_repairs(now), 0, "backed off, not due yet");
        now += 1_000 * (1 << 17); // beyond any backoff in this test
    }
    // The next due attempt is forced (exit skipped): the orphan's
    // mappings vanish and the queue drains.
    assert_eq!(fleet.run_repairs(now), 1);
    assert_eq!(fleet.pending_repairs(), 0);
    let src_kernel = fleet.kernel(src);
    assert!(src_kernel.space.translate(old_mov, Access::Read).is_err());
    assert!(src_kernel.space.translate(old_imm, Access::Read).is_err());
    assert!(fleet.registry(src).get("orph").is_none());
    // Admission reopens once the queue drains.
    fleet.install(&other_obj, &opts).unwrap();
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// Regression: migrating a module back onto the shard that still holds
/// its half-migrated orphan used to map a second copy there and then
/// panic rebinding its exports. The source registry now refuses the
/// name before mapping anything: the destination copy keeps serving
/// and the orphan stays queued for repair.
#[test]
fn migrate_onto_its_own_orphan_is_refused() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("orph");
    spec.funcs
        .push(FuncSpec::exported("orph_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("orph_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (src, _) = fleet.install(&obj, &opts).unwrap();
    let dst = 1 - src;
    assert!(matches!(
        fleet.migrate("orph", dst),
        Err(FleetError::Unload(_))
    ));
    let frames_live = fleet.kernel(src).phys.stats().frames_live;
    match fleet.migrate("orph", src) {
        Err(FleetError::Load(LoadError::AlreadyLoaded(name))) => assert_eq!(name, "orph"),
        other => panic!("migrating onto the orphan must be refused, got {other:?}"),
    }
    assert_eq!(fleet.kernel(src).phys.stats().frames_live, frames_live);
    assert_eq!(fleet.shard_of("orph"), Some(dst));
    assert_eq!(fleet.pending_repairs(), 1);
    let entry = fleet
        .registry(dst)
        .get("orph")
        .unwrap()
        .export("orph_bump")
        .unwrap();
    let mut vm = fleet.kernel(dst).vm();
    assert_eq!(vm.call(entry, &[]).unwrap(), 1);
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// Regression: crash-recovering the shard that holds a
/// half-migrated orphan used to tear down only the modules the
/// catalog listed for that shard — the orphan's record points at
/// the migration destination, so its stale copy (and executable
/// mappings) survived the rebuild while its repair task was
/// dropped, leaking it permanently. Recovery must sweep what the
/// registry actually holds and drop the task only once the orphan
/// is confirmed gone.
#[test]
fn recover_shard_sweeps_migrate_orphans() {
    let mut pins = HashMap::new();
    pins.insert("orph".to_string(), 0);
    pins.insert("mate".to_string(), 0);
    let fleet = fleet(2, Box::new(Pinned::new(pins, 0)));
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("orph");
    spec.funcs
        .push(FuncSpec::exported("orph_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("orph_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (src, module) = fleet.install(&obj, &opts).unwrap();
    assert_eq!(src, 0);
    let mate = transform(&stateful_spec("mate"), &opts).unwrap();
    fleet.install(&mate, &opts).unwrap();
    let old_mov = module.movable_base.load(Ordering::Acquire);
    let old_imm = module.immovable.as_ref().unwrap().base;
    drop(module);
    assert!(matches!(
        fleet.migrate("orph", 1),
        Err(FleetError::Unload(_))
    ));
    assert_eq!(fleet.pending_repairs(), 1);

    let report = fleet.recover_shard(0).unwrap();
    // Only the shard's own tenant is rebuilt; the orphan is swept,
    // not reloaded (its live copy serves from shard 1).
    assert_eq!(report.rebuilt, vec!["mate".to_string()]);
    assert!(report.failed.is_empty());
    assert!(
        report.vacated.iter().any(|&(b, _)| b == old_mov)
            && report.vacated.iter().any(|&(b, _)| b == old_imm),
        "the orphan's spans must be vacated: {:?}",
        report.vacated
    );
    assert_eq!(report.vacated.len(), 4, "orphan + mate, both parts");
    let src_kernel = fleet.kernel(0);
    assert!(src_kernel.space.translate(old_mov, Access::Read).is_err());
    assert!(src_kernel.space.translate(old_imm, Access::Read).is_err());
    assert!(fleet.registry(0).get("orph").is_none());
    assert_eq!(
        fleet.pending_repairs(),
        0,
        "the swept orphan's repair task must be dropped"
    );
    // The destination copy is untouched and still serving.
    assert_eq!(fleet.shard_of("orph"), Some(1));
    let dst_kernel = fleet.kernel(1).clone();
    let mut vm = dst_kernel.vm();
    let entry = fleet
        .registry(1)
        .get("orph")
        .unwrap()
        .export("orph_bump")
        .unwrap();
    assert_eq!(vm.call(entry, &[]).unwrap(), 1);
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// Crash recovery rebuilds a shard's modules from the install
/// catalog: old spans are vacated, fresh copies serve, and the
/// catalog keeps its tenancy.
#[test]
fn recover_shard_rebuilds_from_the_catalog() {
    let mut pins = HashMap::new();
    pins.insert("ra".to_string(), 0);
    pins.insert("rb".to_string(), 0);
    pins.insert("rc".to_string(), 1);
    let fleet = fleet(2, Box::new(Pinned::new(pins, 0)));
    let opts = TransformOptions::rerandomizable(true);
    for name in ["ra", "rb", "rc"] {
        let obj = transform(&stateful_spec(name), &opts).unwrap();
        fleet.install(&obj, &opts).unwrap();
    }
    let kernel = fleet.kernel(0).clone();
    let bump = fleet
        .registry(0)
        .get("ra")
        .unwrap()
        .export("ra_bump")
        .unwrap();
    let mut vm = kernel.vm();
    assert_eq!(vm.call(bump, &[]).unwrap(), 1);
    drop(vm);
    let spans_before = fleet.live_spans();

    let report = fleet.recover_shard(0).unwrap();
    assert_eq!(report.rebuilt, vec!["ra".to_string(), "rb".to_string()]);
    assert!(report.failed.is_empty());
    // One movable + one immovable span per rebuilt module vacated,
    // and none of them still translate.
    assert_eq!(report.vacated.len(), 4);
    for &(base, _) in &report.vacated {
        assert!(
            kernel.space.translate(base, Access::Read).is_err(),
            "stale mapping survived rebuild at {base:#x}"
        );
    }
    // Tenancy unchanged; shard 1 untouched; fresh copies serve
    // (crash recovery rebuilds from the recipe — state restarts).
    assert_eq!(fleet.shard_of("ra"), Some(0));
    assert_eq!(fleet.shard_of("rc"), Some(1));
    let spans_after = fleet.live_spans();
    assert_eq!(spans_after.len(), spans_before.len());
    let bump = fleet
        .registry(0)
        .get("ra")
        .unwrap()
        .export("ra_bump")
        .unwrap();
    let mut vm = kernel.vm();
    assert_eq!(vm.call(bump, &[]).unwrap(), 1, "rebuilt state restarts");
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
    // Recovering an unknown shard is a typed error.
    assert!(matches!(
        fleet.recover_shard(9),
        Err(FleetError::UnknownShard(9))
    ));
}

/// Admission control: a shard at its module cap refuses installs
/// and inbound migrations with a typed `Overloaded`.
#[test]
fn admission_caps_shard_occupancy() {
    let fleet = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(RoundRobin::new()),
        AdmissionConfig {
            max_modules_per_shard: 1,
            ..AdmissionConfig::default()
        },
    );
    let opts = TransformOptions::rerandomizable(true);
    for name in ["a0", "a1"] {
        let obj = transform(&stateful_spec(name), &opts).unwrap();
        fleet.install(&obj, &opts).unwrap();
    }
    let obj = transform(&stateful_spec("a2"), &opts).unwrap();
    match fleet.install(&obj, &opts) {
        Err(FleetError::Overloaded {
            shard,
            modules: 1,
            limit: 1,
        }) => assert_eq!(shard, 0, "round-robin wraps to the full shard"),
        other => panic!("cap must refuse the install, got {other:?}"),
    }
    let dst = fleet.shard_of("a1").map(|s| 1 - s).unwrap();
    match fleet.migrate("a1", dst) {
        Err(FleetError::Overloaded { shard, .. }) => assert_eq!(shard, dst),
        other => panic!("cap must refuse the migration, got {other:?}"),
    }
    assert!(fleet.verify_layout().is_empty());
}

/// Regression (bug): admission used to charge occupancy from
/// catalog records only, so a half-migrated orphan — resident in
/// its source shard while its record points at the destination —
/// was invisible to the cap, and a shard draining orphans could be
/// over-admitted past `max_modules_per_shard`. Occupancy must be
/// the union of catalog records and registry residents (the same
/// union `recover_shard` tears down).
#[test]
fn occupancy_counts_migrate_orphans_against_the_source_shard() {
    let mut pins = HashMap::new();
    pins.insert("orph".to_string(), 0);
    pins.insert("late".to_string(), 0);
    let fleet = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(Pinned::new(pins, 1)),
        AdmissionConfig {
            max_modules_per_shard: 1,
            ..AdmissionConfig::default()
        },
    );
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("orph");
    spec.funcs
        .push(FuncSpec::exported("orph_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("orph_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (src, _) = fleet.install(&obj, &opts).unwrap();
    assert_eq!(src, 0);
    assert!(matches!(
        fleet.migrate("orph", 1),
        Err(FleetError::Unload(_))
    ));
    // The orphan's record points at shard 1, but its stale copy
    // still occupies shard 0's registry slot.
    assert_eq!(fleet.shard_of("orph"), Some(1));
    assert!(fleet.registry(0).get("orph").is_some());
    let late = transform(&stateful_spec("late"), &opts).unwrap();
    match fleet.install(&late, &opts) {
        Err(FleetError::Overloaded {
            shard: 0,
            modules: 1,
            limit: 1,
        }) => {}
        other => panic!("orphan must count against shard 0's cap, got {other:?}"),
    }
    // Once the repair queue retires the orphan, the slot reopens.
    let mut now = 0u64;
    while fleet.pending_repairs() > 0 {
        fleet.run_repairs(now);
        now += MAX_REPAIR_BACKOFF_NS;
    }
    assert_eq!(fleet.install(&late, &opts).unwrap().0, 0);
    assert!(fleet.verify_layout().is_empty());
}

/// Regression (bug): unclamped, the repair backoff stretched to
/// `base << 16` (~65536 s at the default base), parking an orphan
/// past every watchdog horizon. Mirrors
/// `degradation_stretch_is_bounded`: the schedule must be monotone,
/// bounded by `MAX_REPAIR_BACKOFF_NS`, and flag exactly the
/// clamped attempts.
#[test]
fn repair_backoff_is_bounded() {
    let base = AdmissionConfig::default().retry_after_ns;
    let mut prev = 0u64;
    for attempts in 0..48u32 {
        let (backoff, clamped) = repair_backoff(base, attempts);
        assert!(backoff <= MAX_REPAIR_BACKOFF_NS, "attempt {attempts}");
        assert!(backoff >= prev, "monotone schedule");
        let raw = base.saturating_mul(1u64 << attempts.min(16));
        assert_eq!(clamped, raw > MAX_REPAIR_BACKOFF_NS);
        prev = backoff;
    }
    assert_eq!(repair_backoff(base, 9), (base << 9, false));
    assert_eq!(repair_backoff(base, 10), (MAX_REPAIR_BACKOFF_NS, true));
    assert_eq!(repair_backoff(base, 40), (MAX_REPAIR_BACKOFF_NS, true));
}

/// The clamp is observable: an orphan whose retries back off at the
/// ceiling shows up in `repair_stats().backoff_clamps`.
#[test]
fn backoff_clamp_surfaces_in_repair_stats() {
    let fleet = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(RoundRobin::new()),
        AdmissionConfig {
            retry_after_ns: MAX_REPAIR_BACKOFF_NS,
            ..AdmissionConfig::default()
        },
    );
    let opts = TransformOptions::rerandomizable(true);
    let mut spec = stateful_spec("orph");
    spec.funcs
        .push(FuncSpec::exported("orph_exit", vec![MOp::Insn(Insn::Ud2)]));
    spec.exit = Some("orph_exit".into());
    let obj = transform(&spec, &opts).unwrap();
    let (src, _) = fleet.install(&obj, &opts).unwrap();
    assert!(matches!(
        fleet.migrate("orph", 1 - src),
        Err(FleetError::Unload(_))
    ));
    assert_eq!(fleet.repair_stats().backoff_clamps, 0);
    // Graceful attempt against the trapping exit fails; with the
    // base already at the ceiling, the doubled backoff clamps.
    assert_eq!(fleet.run_repairs(0), 0);
    let stats = fleet.repair_stats();
    assert_eq!(stats.pending, 1);
    assert_eq!(stats.backoff_clamps, 1);
}

/// Regression (bug): `RetryAfter` hints were static — a storm of
/// refused callers all retried at the same fixed cadence no matter
/// how deep the backlog. The hint must grow with the repair-queue
/// depth.
#[test]
fn retry_after_hint_grows_with_queue_depth() {
    let mut pins = HashMap::new();
    pins.insert("o1".to_string(), 0);
    pins.insert("o2".to_string(), 0);
    let fleet = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(Pinned::new(pins, 0)),
        AdmissionConfig {
            max_pending_repairs: 1,
            retry_after_ns: 1_000,
            ..AdmissionConfig::default()
        },
    );
    let opts = TransformOptions::rerandomizable(true);
    let orphan = |name: &str| {
        let mut spec = stateful_spec(name);
        spec.funcs.push(FuncSpec::exported(
            &format!("{name}_exit"),
            vec![MOp::Insn(Insn::Ud2)],
        ));
        spec.exit = Some(format!("{name}_exit"));
        transform(&spec, &opts).unwrap()
    };
    fleet.install(&orphan("o1"), &opts).unwrap();
    fleet.install(&orphan("o2"), &opts).unwrap();
    assert!(matches!(fleet.migrate("o1", 1), Err(FleetError::Unload(_))));
    let late = transform(&stateful_spec("late"), &opts).unwrap();
    let depth1 = match fleet.install(&late, &opts) {
        Err(FleetError::RetryAfter { after_ns }) => after_ns,
        other => panic!("saturated queue must push back, got {other:?}"),
    };
    assert_eq!(depth1, 1_000, "depth 1 × base");
    // Deepen the backlog: the second orphan bypasses admit only
    // because migrate is refused — force the queue deeper by
    // repairing nothing and re-checking after a second orphan.
    // (migrate's own admit() is the gate, so drain capacity first.)
    let report_depth = fleet.pending_repairs();
    assert_eq!(report_depth, 1);
    // Raise the cap so a second orphan can form, then re-check.
    let fleet2 = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(Pinned::new(
            HashMap::from([("o1".to_string(), 0), ("o2".to_string(), 0)]),
            0,
        )),
        AdmissionConfig {
            max_pending_repairs: 2,
            retry_after_ns: 1_000,
            ..AdmissionConfig::default()
        },
    );
    fleet2.install(&orphan("o1"), &opts).unwrap();
    fleet2.install(&orphan("o2"), &opts).unwrap();
    assert!(matches!(
        fleet2.migrate("o1", 1),
        Err(FleetError::Unload(_))
    ));
    assert!(matches!(
        fleet2.migrate("o2", 1),
        Err(FleetError::Unload(_))
    ));
    assert_eq!(fleet2.pending_repairs(), 2);
    match fleet2.install(&late, &opts) {
        Err(FleetError::RetryAfter { after_ns }) => {
            assert_eq!(after_ns, 2_000, "depth 2 × base: hint must grow")
        }
        other => panic!("saturated queue must push back, got {other:?}"),
    }
    // And the hint never exceeds the backoff ceiling.
    let fleet3 = Fleet::with_admission(
        adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
        Box::new(Pinned::new(HashMap::from([("o1".to_string(), 0)]), 0)),
        AdmissionConfig {
            max_pending_repairs: 1,
            retry_after_ns: MAX_REPAIR_BACKOFF_NS,
            ..AdmissionConfig::default()
        },
    );
    fleet3.install(&orphan("o1"), &opts).unwrap();
    assert!(matches!(
        fleet3.migrate("o1", 1),
        Err(FleetError::Unload(_))
    ));
    match fleet3.install(&late, &opts) {
        Err(FleetError::RetryAfter { after_ns }) => {
            assert_eq!(after_ns, MAX_REPAIR_BACKOFF_NS)
        }
        other => panic!("got {other:?}"),
    }
}

/// The cold tier end to end: an idle module is evicted (spans
/// unmapped, catalog record kept), a stale entry VA demand-faults
/// it back in through the kernel's demand loader, and the redirect
/// lands on the rebuilt copy.
#[test]
fn cold_tier_evicts_idle_and_demand_faults_back_in() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    fleet.enable_cold_tier(ColdTierConfig {
        idle_ns: 1_000,
        max_resident: 64,
    });
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&stateful_spec("cz"), &opts).unwrap();
    let (shard, module) = fleet.install(&obj, &opts).unwrap();
    let entry = module.export("cz_bump").unwrap();
    let old_mov = module.movable_base.load(Ordering::Acquire);
    let old_imm = module.immovable.as_ref().unwrap().base;
    drop(module);
    let kernel = fleet.kernel(shard).clone();
    {
        let mut vm = kernel.vm();
        assert_eq!(vm.call(entry, &[]).unwrap(), 1);
    }
    // Not yet idle: nothing to evict.
    assert!(fleet.cold_tick(500).is_empty());
    assert_eq!(fleet.cold_stats().resident, 1);
    // Idle past the window: evicted, spans unmapped, record kept.
    assert_eq!(fleet.cold_tick(2_000), vec!["cz".to_string()]);
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold, stats.evictions), (0, 1, 1));
    assert!(kernel.space.translate(old_mov, Access::Read).is_err());
    assert!(kernel.space.translate(old_imm, Access::Read).is_err());
    assert_eq!(fleet.shard_of("cz"), Some(shard), "recipe survives");
    let spans = fleet.evicted_spans("cz").unwrap();
    assert!(spans.iter().any(|&(b, _)| b == old_mov));
    assert!(spans.iter().any(|&(b, _)| b == old_imm));
    assert!(fleet.verify_symbol_integrity().is_empty());
    // First call against the stale entry VA demand-faults the
    // module back in; state restarts (rebuild from the recipe).
    {
        let mut vm = kernel.vm();
        assert_eq!(vm.call(entry, &[]).unwrap(), 1, "faulted-in restart");
    }
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold), (1, 0));
    assert_eq!(stats.fault_ins, 1);
    assert_eq!(stats.demand_redirects, 1);
    assert!(fleet.evicted_spans("cz").is_none());
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// `register` keeps a module cold (catalog-only) until first use;
/// `ensure_resident` materializes it; unloading a cold module is a
/// catalog edit.
#[test]
fn register_keeps_modules_cold_until_first_use() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    fleet.enable_cold_tier(ColdTierConfig::default());
    let opts = TransformOptions::rerandomizable(true);
    for i in 0..10 {
        let obj = transform(&stateful_spec(&format!("r{i}")), &opts).unwrap();
        fleet.register(&obj, &opts).unwrap();
    }
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold), (0, 10));
    assert!(fleet.live_spans().is_empty(), "nothing mapped yet");
    // Duplicate registration is refused like a duplicate install.
    let dup = transform(&stateful_spec("r3"), &opts).unwrap();
    assert!(matches!(
        fleet.register(&dup, &opts),
        Err(FleetError::DuplicateModule(_))
    ));
    let (shard, module) = fleet.ensure_resident("r3").unwrap();
    let entry = module.export("r3_bump").unwrap();
    let mut vm = fleet.kernel(shard).vm();
    assert_eq!(vm.call(entry, &[]).unwrap(), 1);
    drop(vm);
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold), (1, 9));
    // Repeated ensure_resident is cheap and idempotent.
    assert_eq!(fleet.ensure_resident("r3").unwrap().0, shard);
    assert_eq!(fleet.cold_stats().fault_ins, 1);
    // Cold unload: catalog-only.
    fleet.unload("r5").unwrap();
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold), (1, 8));
    assert_eq!(fleet.shard_of("r5"), None);
    assert!(matches!(
        fleet.ensure_resident("r5"),
        Err(FleetError::UnknownModule(_))
    ));
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// The resident cap: `cold_tick` evicts least-recently-called
/// residents beyond `max_resident`, deterministically.
#[test]
fn cold_tick_enforces_the_resident_cap() {
    let fleet = fleet(2, Box::new(RoundRobin::new()));
    fleet.enable_cold_tier(ColdTierConfig {
        idle_ns: u64::MAX,
        max_resident: 2,
    });
    let opts = TransformOptions::rerandomizable(true);
    for name in ["ca", "cb", "cc", "cd"] {
        let obj = transform(&stateful_spec(name), &opts).unwrap();
        fleet.install(&obj, &opts).unwrap();
    }
    // All four share last_call = 0, so LRU order falls back to
    // names: the two lexicographically smallest are evicted.
    let evicted = fleet.cold_tick(1);
    assert_eq!(evicted, vec!["ca".to_string(), "cb".to_string()]);
    let stats = fleet.cold_stats();
    assert_eq!((stats.resident, stats.cold), (2, 2));
    // Fault one back in: over cap again, next tick trims again.
    fleet.ensure_resident("ca").unwrap();
    assert_eq!(fleet.cold_stats().resident, 3);
    assert_eq!(fleet.cold_tick(2).len(), 1);
    assert_eq!(fleet.cold_stats().resident, 2);
    assert!(fleet.verify_layout().is_empty());
}

/// `retarget` moves a cold module's tenancy (catalog-only) and
/// refuses resident modules; the next fault-in lands in the new
/// shard's window.
#[test]
fn retarget_moves_cold_tenancy_and_refuses_residents() {
    let fleet = fleet(2, Box::new(Pinned::new(HashMap::new(), 0)));
    fleet.enable_cold_tier(ColdTierConfig::default());
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&stateful_spec("rt"), &opts).unwrap();
    assert_eq!(fleet.register(&obj, &opts).unwrap(), 0);
    fleet.retarget("rt", 1).unwrap();
    assert_eq!(fleet.shard_of("rt"), Some(1));
    let (shard, module) = fleet.ensure_resident("rt").unwrap();
    assert_eq!(shard, 1);
    let (lo, hi) = fleet.sharded().window(1);
    let base = module.movable_base.load(Ordering::Acquire);
    assert!(base >= lo && base < hi, "fault-in honors the retarget");
    drop(module);
    assert!(matches!(
        fleet.retarget("rt", 0),
        Err(FleetError::ResidentModule(_))
    ));
    assert!(matches!(
        fleet.retarget("rt", 9),
        Err(FleetError::UnknownShard(9))
    ));
    assert!(fleet.verify_layout().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

#[test]
fn live_spans_cover_every_part_and_stay_disjoint() {
    let fleet = fleet(4, Box::new(RoundRobin::new()));
    let opts = TransformOptions::rerandomizable(true);
    for i in 0..4 {
        let obj = transform(&stateful_spec(&format!("s{i}")), &opts).unwrap();
        fleet.install(&obj, &opts).unwrap();
    }
    let spans = fleet.live_spans();
    assert_eq!(spans.len(), 8, "movable + immovable per module");
    for (i, &(shard_a, _, base_a, span_a)) in spans.iter().enumerate() {
        assert_eq!(
            fleet.sharded().shard_of_va(base_a),
            Some(shard_a),
            "span owner must match its window"
        );
        assert!(base_a + span_a <= layout::MODULE_CEILING);
        for &(_, _, base_b, span_b) in spans.iter().skip(i + 1) {
            assert!(
                base_a + span_a <= base_b || base_b + span_b <= base_a,
                "cross-shard VA overlap: {base_a:#x}+{span_a:#x} vs {base_b:#x}"
            );
        }
    }
}
