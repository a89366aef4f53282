//! The cost of one full re-randomization cycle (what the randomizer
//! pool pays per deadline), by module size, by reclaimer, by policy,
//! and by worker count — including the headline comparison: a 4-worker
//! `Adaptive` scheduler vs the serial fixed-period scheduler (the
//! artifact's kthread shape) over the same fleet and wall-clock window.

use adelie_core::{rerandomize_module, LoadedModule, ModuleRegistry};
use adelie_gadget::synth_module;
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig, ReadPath, ReclaimerKind};
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_sched::{Policy, SchedConfig, Scheduler, SimClock};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fleet like [`fleet`], but on an explicitly configured kernel.
fn fleet_on(
    config: KernelConfig,
    count: usize,
) -> (
    Arc<Kernel>,
    Arc<ModuleRegistry>,
    Vec<Arc<LoadedModule>>,
    Vec<String>,
) {
    let opts = TransformOptions::rerandomizable(true);
    let kernel = Kernel::new(config);
    let registry = ModuleRegistry::new(&kernel);
    let mut modules = Vec::new();
    let mut names = Vec::new();
    for i in 0..count {
        let mut spec = ModuleSpec::new(&format!("mod{i}"));
        spec.funcs.push(FuncSpec::exported(
            &format!("mod{i}_calc"),
            vec![
                MOp::Insn(Insn::MovRR {
                    dst: Reg::Rax,
                    src: Reg::Rdi,
                }),
                MOp::Insn(Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    imm: 1,
                }),
                MOp::Ret,
            ],
        ));
        let obj = transform(&spec, &opts).unwrap();
        modules.push(registry.load(&obj, &opts).unwrap());
        names.push(format!("mod{i}"));
    }
    (kernel, registry, modules, names)
}

/// A fleet of distinct re-randomizable modules whose single export is
/// safe to hammer from a traffic thread (`modN_calc(x) = x + 1`).
fn fleet(
    count: usize,
) -> (
    Arc<Kernel>,
    Arc<ModuleRegistry>,
    Vec<Arc<LoadedModule>>,
    Vec<String>,
) {
    fleet_on(KernelConfig::default(), count)
}

fn bench_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("rerand_cycle");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let opts = TransformOptions::rerandomizable(true);
    for (label, bytes) in [("module_8k", 8 * 1024), ("module_64k", 64 * 1024)] {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let spec = synth_module("m", bytes, 5);
        let obj = transform(&spec, &opts).unwrap();
        let module = registry.load(&obj, &opts).unwrap();
        g.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    rerandomize_module(&kernel, &registry, &module).unwrap();
                }
                t0.elapsed()
            })
        });
    }
    g.finish();
}

fn bench_cycle_reclaimers(c: &mut Criterion) {
    let mut g = c.benchmark_group("rerand_cycle_reclaimer");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let opts = TransformOptions::rerandomizable(true);
    for (label, kind) in [
        ("hyaline", ReclaimerKind::Hyaline),
        ("ebr", ReclaimerKind::Ebr),
    ] {
        let kernel = Kernel::new(KernelConfig {
            reclaimer: kind,
            ..KernelConfig::default()
        });
        let registry = ModuleRegistry::new(&kernel);
        let spec = synth_module("m", 16 * 1024, 6);
        let obj = transform(&spec, &opts).unwrap();
        let module = registry.load(&obj, &opts).unwrap();
        g.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    rerandomize_module(&kernel, &registry, &module).unwrap();
                }
                t0.elapsed()
            })
        });
    }
    g.finish();
}

/// Policy axis: module-cycles completed over a 3-module fleet in a
/// fixed window, per policy (single worker so only the policy varies).
fn bench_policies(c: &mut Criterion) {
    const WINDOW: Duration = Duration::from_millis(300);
    let mut g = c.benchmark_group("rerand_policy_cycles_per_window");
    g.sample_size(1); // each sample is a full wall-clock window
    let policies: Vec<(&str, Policy)> = vec![
        ("fixed_5ms", Policy::FixedPeriod(Duration::from_millis(5))),
        (
            "jittered_5ms",
            Policy::Jittered {
                base: Duration::from_millis(5),
                jitter: 0.5,
            },
        ),
        (
            "adaptive_1_50ms",
            Policy::Adaptive {
                min: Duration::from_millis(1),
                max: Duration::from_millis(50),
                rate_scale: 100.0,
                exposure_scale: 20.0,
            },
        ),
    ];
    for (label, policy) in policies {
        g.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    let (kernel, registry, _modules, names) = fleet(3);
                    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                    let sched = Scheduler::spawn(
                        kernel.clone(),
                        registry,
                        &refs,
                        SchedConfig {
                            workers: 1,
                            policy: policy.clone(),
                            ..SchedConfig::default()
                        },
                    );
                    std::thread::sleep(WINDOW);
                    let stats = sched.stop();
                    println!("  {label}: {} cycles in {WINDOW:?}", stats.cycles);
                }
                t0.elapsed()
            })
        });
    }
    g.finish();
}

/// Worker axis + the acceptance comparison: the serial fixed-period
/// scheduler at the artifact's 20 ms default vs scheduler pools of width
/// 1/2/4 under the adaptive policy, all over the same 3-module fleet
/// with driver traffic, same wall window. Prints module-cycles and the
/// adaptive-4w : serial ratio, and asserts the ≥2× claim plus zero
/// SMR/stack deltas after drain.
fn bench_workers_vs_serial(c: &mut Criterion) {
    const WINDOW: Duration = Duration::from_millis(400);

    fn run(label: &str, width: Option<usize>) -> u64 {
        let (kernel, registry, modules, names) = fleet(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let config = match width {
            None => SchedConfig::serial(Duration::from_millis(20)),
            Some(workers) => SchedConfig {
                workers,
                policy: Policy::Adaptive {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(50),
                    rate_scale: 100.0,
                    exposure_scale: 20.0,
                },
                ..SchedConfig::default()
            },
        };
        let sched = Scheduler::spawn(kernel.clone(), registry.clone(), &refs, config);
        // Driver traffic so the adaptive policy sees a call rate.
        let stop = AtomicBool::new(false);
        let cycles = std::thread::scope(|s| {
            s.spawn(|| {
                let mut vm = kernel.vm();
                let entries: Vec<u64> = modules
                    .iter()
                    .filter_map(|m| m.exports.first().map(|(_, va)| *va))
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    for &e in &entries {
                        let _ = vm.call(e, &[1]);
                    }
                }
            });
            std::thread::sleep(WINDOW);
            stop.store(true, Ordering::Relaxed);
            sched.stop().cycles
        });
        registry.stacks.rotate(&kernel);
        kernel.reclaim.flush();
        assert_eq!(kernel.reclaim.stats().delta(), 0, "SMR delta after drain");
        assert_eq!(
            registry.stacks.stats().delta(),
            0,
            "stack delta after drain"
        );
        println!("  {label}: {cycles} module-cycles in {WINDOW:?}");
        cycles
    }

    let mut g = c.benchmark_group("rerand_workers_vs_serial");
    g.sample_size(1); // each sample sweeps four full windows
    g.bench_function("sweep", |b| {
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let serial = run("serial_20ms", None);
                let _w1 = run("adaptive_1_worker", Some(1));
                let _w2 = run("adaptive_2_workers", Some(2));
                let w4 = run("adaptive_4_workers", Some(4));
                println!(
                    "  adaptive_4w/serial ratio: {:.1}x",
                    w4 as f64 / serial.max(1) as f64
                );
                assert!(
                    w4 >= serial * 2,
                    "4-worker adaptive must double the serial pool: {w4} vs {serial}"
                );
            }
            t0.elapsed()
        })
    });
    g.finish();
}

/// Shootdown axis: the 4-worker adaptive pool over the same fleet,
/// traffic, and deterministic step schedule, under the legacy
/// whole-TLB regime (`tlb_inval_log: 0` — the unbatched publication
/// cost) vs range-based invalidation. Prints the traffic CPU's flush
/// counts and asserts the acceptance property: batching strictly cuts
/// whole-TLB flushes per cycle and the partial path is exercised.
fn bench_tlb_shootdown_regimes(c: &mut Criterion) {
    const STEPS: usize = 120;

    fn run(label: &str, inval_log: usize) -> (u64, u64, u64) {
        let (kernel, registry, modules, names) = fleet_on(
            KernelConfig {
                tlb_inval_log: inval_log,
                ..KernelConfig::default()
            },
            3,
        );
        let with_policies: Vec<(&str, Policy)> = names
            .iter()
            .map(|n| (n.as_str(), Policy::default_adaptive()))
            .collect();
        let clock = SimClock::new();
        let sched = Scheduler::spawn_stepped(
            kernel.clone(),
            registry.clone(),
            &with_policies,
            SchedConfig {
                workers: 4,
                policy: Policy::default_adaptive(),
                ..SchedConfig::default()
            },
            clock,
            Duration::from_micros(100),
        );
        let entries: Vec<u64> = modules
            .iter()
            .filter_map(|m| m.exports.first().map(|(_, va)| *va))
            .collect();
        let mut vm = kernel.vm();
        for _ in 0..STEPS {
            sched.step().expect("heap never empties");
            for &e in &entries {
                let _ = vm.call(e, &[1]).unwrap();
            }
        }
        let cycles = sched.cycles();
        drop(sched);
        let t = vm.tlb_stats();
        println!(
            "  {label}: {} full flushes, {} partial flushes, {} entries invalidated \
             over {cycles} cycles ({:.3} full/cycle)",
            t.flushes,
            t.partial_flushes,
            t.entries_invalidated,
            t.flushes as f64 / cycles.max(1) as f64
        );
        (t.flushes, t.partial_flushes, cycles)
    }

    let mut g = c.benchmark_group("rerand_tlb_shootdown");
    g.sample_size(1); // each sample is a full deterministic schedule
    g.bench_function("full_vs_range", |b| {
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let (full_flushes, _, full_cycles) = run("whole_tlb", 0);
                let (range_flushes, partials, range_cycles) =
                    run("range_based", adelie_vmem::DEFAULT_INVAL_LOG);
                assert!(partials > 0, "partial-flush path must be exercised");
                assert!(
                    (range_flushes as f64 / range_cycles.max(1) as f64)
                        < (full_flushes as f64 / full_cycles.max(1) as f64),
                    "range-based shootdown must strictly cut full flushes per cycle"
                );
            }
            t0.elapsed()
        })
    });
    g.finish();
}

/// Contention axis: total reader calls completed while a rerand writer
/// churns the fleet non-stop, under the `locked` (pre-snapshot
/// reader/writer-lock) vs `snapshot` (RCU snapshots + epoch pins) read
/// path, with 4 reader threads. The numbers are printed for comparison;
/// the hard cross-mode assertion lives in the `translate_throughput`
/// bin (CI artifact `BENCH_translate.json`), which also runs the
/// layout oracle across the same contention pattern.
fn bench_read_contention(c: &mut Criterion) {
    const WINDOW: Duration = Duration::from_millis(200);
    const READERS: usize = 4;

    fn run(label: &str, read_path: ReadPath) -> adelie_bench::contention::Outcome {
        let kernel = Kernel::new(KernelConfig {
            read_path,
            ..KernelConfig::default()
        });
        let registry = ModuleRegistry::new(&kernel);
        let modules = adelie_bench::contention::fleet(&registry, 3);
        let o = adelie_bench::contention::run(&kernel, &registry, &modules, READERS, WINDOW);
        println!(
            "  {label}: {} reader calls / {} cycles in {WINDOW:?}",
            o.calls, o.cycles
        );
        o
    }

    let mut g = c.benchmark_group("rerand_read_contention");
    g.sample_size(1); // each sample runs two full windows
    g.bench_function("locked_vs_snapshot_4_readers", |b| {
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let locked = run("locked_read_path", ReadPath::Locked);
                let snapshot = run("snapshot_read_path", ReadPath::Snapshot);
                assert_eq!(locked.reader_errors + snapshot.reader_errors, 0);
                assert_eq!(locked.failed_cycles + snapshot.failed_cycles, 0);
                println!(
                    "  snapshot/locked reader throughput: {:.2}x",
                    snapshot.calls as f64 / locked.calls.max(1) as f64
                );
            }
            t0.elapsed()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cycle,
    bench_cycle_reclaimers,
    bench_policies,
    bench_workers_vs_serial,
    bench_tlb_shootdown_regimes,
    bench_read_contention
);
criterion_main!(benches);
