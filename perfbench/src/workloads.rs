//! The three workloads, their measurement windows and the metrics
//! derived from them.
//!
//! Every workload is closed-loop: one caller thread issues a driver
//! call, waits for its reply, checks it, and issues the next. `ioctl`
//! adds one randomizer worker (`Scheduler`, `FixedPeriod` 1 ms);
//! `rerand` and `blk` drive `rerandomize_module` from the caller thread
//! itself. See `layers.json` for what each one loads and bypasses.

use crate::check::{Checks, DiskModel, Sector};
use crate::metrics::Report;
use crate::pin;
use crate::stats::{median, percentile_of, ratio, us, SplitMix64};
use crate::trace::{self_times, self_times_named, StageHooks, Tracer, SCHED_CYCLE, STAGES};
use adelie_core::{
    rerandomize_module, verify_fixed_gots, verify_plt_bindings, LoadedModule, ModuleRegistry,
    StackStats,
};
use adelie_drivers::specs::DUMMY_MINOR;
use adelie_kernel::{ArchKind, Kernel, KernelConfig, TlbStats, Vm, SECTOR_SIZE};
use adelie_plugin::TransformOptions;
use adelie_reclaim::SmrStats;
use adelie_sched::{Policy, SchedConfig, SchedStats, Scheduler};
use adelie_vmem::{PhysStats, SpaceStats};
use adelie_workloads::{DriverSet, Testbed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run: at least the minimum, and more until they took
/// [`SETUP_BUDGET`] (small set-ups are noisy); `setup_s` is their
/// median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Re-randomization period of the worker on `ioctl`.
const PERIOD: Duration = Duration::from_millis(1);
/// Null ioctls after each cycle on `rerand`.
const OPS_PER_CYCLE: usize = 8;
/// On `ioctl` the worker's cycles are not timed one by one;
/// instead the caller times one direct `rerandomize_module` of the next
/// module (round-robin) about this often, spread over the window.
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Window slices: rates and op percentiles are medians over slices, so
/// a burst of interference from outside the benchmark moves one slice,
/// not the result.
const SLICE: Duration = Duration::from_secs(1);
/// The `blk` file: 4 MiB of 512 B sectors.
const BLK_FILE: &str = "perfbench_blk.dat";
const BLK_SECTORS: u64 = 8192;
/// One `blk` block: 7 reads and 3 writes in a seeded order, so the mix
/// is exactly 70/30 over whole blocks.
const BLK_READS: usize = 7;
const BLK_BLOCK: usize = 10;
/// `blk` moves extfs and nvme in turn from the caller thread, one cycle
/// per this many ops: about the rate a 1 ms worker reached beside it.
/// A worker here made every `blk` metric drift with its phase against
/// the two modules' deadlines (quartile spreads up to 37% of the
/// median, against 5-15% with the caller moving the modules).
const BLK_OPS_PER_CYCLE: usize = 20;
/// Longest traced part of the traced run's window, which bounds the
/// spans kept in memory (about 90k per second on `ioctl`).
const TRACED_WINDOW_MAX: Duration = Duration::from_secs(3);
/// Window of each Fig. 9 reference pass in the traced run.
const FIG9_WINDOW: Duration = Duration::from_millis(500);

/// A benchmark workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fig. 9's null ioctl on the dummy driver under 1 ms moves.
    Ioctl,
    /// Back-to-back moves of all six drivers, 8 null ioctls between.
    Rerand,
    /// Random-sector 512 B `O_DIRECT` reads and writes through extfs
    /// and nvme, moving one of the two every 20 ops.
    Blk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ioctl, Workload::Rerand, Workload::Blk];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ioctl => "ioctl",
            Workload::Rerand => "rerand",
            Workload::Blk => "blk",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn drivers(self) -> DriverSet {
        match self {
            Workload::Ioctl => DriverSet::dummy_only(),
            Workload::Rerand => DriverSet::full(),
            Workload::Blk => DriverSet::storage(),
        }
    }

    /// Whether a randomizer worker moves the modules (else the caller
    /// thread does).
    fn scheduled(self) -> bool {
        self == Workload::Ioctl
    }
}

/// One run's parameters.
pub struct Params {
    /// What to run.
    pub workload: Workload,
    /// Seeds placement, keys and every generated input.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Outcome of a run: the report and, for the traced run, its spans.
pub struct Outcome {
    /// Metrics and verdict.
    pub report: Report,
    /// Descriptions of the first failed checks.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty otherwise).
    pub spans: Vec<crate::trace::Span>,
}

fn kernel_config(seed: u64, opts: &TransformOptions) -> KernelConfig {
    KernelConfig {
        seed,
        retpoline: opts.retpoline,
        // Pinned, so no environment knob can change what is measured.
        arch: ArchKind::X86_64,
        ..KernelConfig::default()
    }
}

/// Boot and install once; returns the testbed and (boot, install)
/// seconds.
fn provision(
    drivers: DriverSet,
    opts: TransformOptions,
    seed: u64,
    blk_file: bool,
    tracer: Option<&Tracer>,
) -> (Testbed, f64, f64) {
    let t0 = Instant::now();
    let kernel = Kernel::new(kernel_config(seed, &opts));
    let t1 = Instant::now();
    let tb = Testbed::with_kernel(kernel, opts, drivers);
    if blk_file {
        tb.kernel
            .vfs
            .create(BLK_FILE, BLK_SECTORS * SECTOR_SIZE as u64);
    }
    let t2 = Instant::now();
    if let Some(tr) = tracer {
        let req = tr.next_id();
        let root = tr.span("setup", 0, req, t0, t2);
        tr.span("setup.boot", root, req, t0, t1);
        tr.span("setup.install", root, req, t1, t2);
    }
    (tb, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// Counters of every layer at one instant.
struct Snap {
    at: Instant,
    tlb: TlbStats,
    space: SpaceStats,
    phys: PhysStats,
    smr: SmrStats,
    stacks: StackStats,
    insns: u64,
    nvme: u64,
    sched: Option<SchedStats>,
}

/// What one window measured.
#[derive(Default)]
struct Samples {
    op_ns: Vec<u64>,
    op_insns: Vec<u64>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    first_after_ns: Vec<u64>,
    steady_ns: Vec<u64>,
    cycle_ns: Vec<u64>,
    cycles: u64,
    backlog_max: u64,
    snapshot_backlog_max: u64,
    slices: Vec<SliceEnd>,
}

/// Where one slice of a window ended.
#[derive(Copy, Clone)]
struct SliceEnd {
    at: Instant,
    /// `op_ns.len()` at the end.
    ops: usize,
    worker_cycles: u64,
    caller_cycles: u64,
}

/// The end-to-end metrics one window gives.
struct EndToEnd {
    ops_per_s: f64,
    op_p50_us: f64,
    op_p99_us: f64,
    cycles_per_s: f64,
    cycle_p50_us: f64,
    cycle_p90_us: f64,
}

/// A window: its samples and the counters at both ends.
struct Window {
    s: Samples,
    a: Snap,
    b: Snap,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.b.at - self.a.at).as_secs_f64()
    }

    fn sched_delta(&self, f: impl Fn(&SchedStats) -> u64) -> u64 {
        match (&self.a.sched, &self.b.sched) {
            (Some(a), Some(b)) => f(b) - f(a),
            _ => 0,
        }
    }

    /// Cycles completed in the window, by the worker or the caller.
    fn cycles(&self) -> u64 {
        self.s.cycles + self.sched_delta(|s| s.cycles)
    }

    fn ops(&self) -> u64 {
        self.s.op_ns.len() as u64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.secs()
    }

    /// Medians over slices of each slice's op rate, op p50 and p99 and
    /// cycle rate (the worker's cycles where a worker paces them, the
    /// caller's otherwise); p50 and p90 over round-robin rounds of the
    /// caller's cycles (one cycle of each of the `modules`) of a round's
    /// mean cycle time. Per cycle, modules of different sizes form
    /// separate clusters and the median fell in a gap between two of
    /// them, jumping by a third between runs. The tail is read at p90:
    /// on a 2-CPU host, one to three in a hundred of the cycles timed
    /// beside a running worker stalled for milliseconds, so a p99 landed
    /// in that stall mass or below it depending on the run.
    fn end_to_end(&self, worker_paced: bool, modules: usize) -> EndToEnd {
        let mut prev = SliceEnd {
            at: self.a.at,
            ops: 0,
            worker_cycles: self.a.sched.as_ref().map_or(0, |s| s.cycles),
            caller_cycles: 0,
        };
        let mut per_slice: [Vec<f64>; 4] = Default::default();
        for end in &self.s.slices {
            let secs = (end.at - prev.at).as_secs_f64();
            let mut ops = self.s.op_ns[prev.ops..end.ops].to_vec();
            let done = if worker_paced {
                end.worker_cycles - prev.worker_cycles
            } else {
                end.caller_cycles - prev.caller_cycles
            };
            let values = [
                ops.len() as f64 / secs,
                p50_us(&mut ops),
                p99_us(&mut ops),
                done as f64 / secs,
            ];
            for (all, v) in per_slice.iter_mut().zip(values) {
                all.push(v);
            }
            prev = *end;
        }
        let [rate, op50, op99, cps] = per_slice.map(|v| median(&v));
        let mut rounds: Vec<u64> = self
            .s
            .cycle_ns
            .chunks_exact(modules)
            .map(|round| round.iter().sum::<u64>() / modules as u64)
            .collect();
        EndToEnd {
            ops_per_s: rate,
            op_p50_us: op50,
            op_p99_us: op99,
            cycles_per_s: cps,
            cycle_p50_us: p50_us(&mut rounds),
            cycle_p90_us: us(percentile_of(&mut rounds, 0.90)),
        }
    }
}

/// The caller: one simulated CPU issuing the workload's driver calls
/// and checking each reply.
struct Caller<'k> {
    workload: Workload,
    kernel: &'k Arc<Kernel>,
    registry: &'k Arc<ModuleRegistry>,
    vm: Vm<'k>,
    rng: SplitMix64,
    modules: Vec<Arc<LoadedModule>>,
    next_module: usize,
    blk: Option<Blk>,
    nvme: Option<Arc<adelie_drivers::NvmeDevice>>,
    ops: Checks,
    cycles: Checks,
}

/// A top-level driver call.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Op {
    Ioctl,
    Read,
    Write,
}

struct Blk {
    fd: u64,
    buf: u64,
    model: DiskModel,
}

impl<'k> Caller<'k> {
    fn new(workload: Workload, tb: &'k Testbed, seed: u64) -> Caller<'k> {
        let kernel = &tb.kernel;
        let mut names = tb.module_names.clone();
        names.sort();
        let modules = names
            .iter()
            .map(|n| tb.registry.get(n).expect("installed module"))
            .collect();
        let blk = (workload == Workload::Blk).then(|| {
            let file = kernel.vfs.stat(BLK_FILE).expect("blk file provisioned");
            Blk {
                fd: kernel.vfs.open(BLK_FILE, true).expect("open blk file"),
                buf: kernel
                    .heap
                    .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE),
                model: DiskModel::new(file.first_lba, BLK_SECTORS),
            }
        });
        Caller {
            workload,
            kernel,
            registry: &tb.registry,
            vm: kernel.vm(),
            rng: SplitMix64::new(seed, workload as u64 + 1),
            modules,
            next_module: 0,
            blk,
            nvme: tb.nvme.clone(),
            ops: Checks::default(),
            cycles: Checks::default(),
        }
    }

    fn snap(&self, sched: Option<&Scheduler>) -> Snap {
        Snap {
            at: Instant::now(),
            tlb: self.kernel.tlb_totals(),
            space: self.kernel.space.stats(),
            phys: self.kernel.phys.stats(),
            smr: self.kernel.reclaim.stats(),
            stacks: self.registry.stacks.stats(),
            insns: self.vm.insns_retired(),
            nvme: self.nvme.as_ref().map_or(0, |d| d.completed()),
            sched: sched.map(Scheduler::stats),
        }
    }

    /// Run whole units, slice by slice, until `window` has passed.
    /// With a worker, probe the cycle latency every [`PROBE_EVERY`].
    fn window(
        &mut self,
        window: Duration,
        sched: Option<&Scheduler>,
        tracer: Option<&Tracer>,
        hooks: Option<&StageHooks>,
    ) -> Window {
        let mut s = Samples::default();
        let a = self.snap(sched);
        let slices = (window.as_secs_f64() / SLICE.as_secs_f64())
            .round()
            .max(1.0) as u32;
        let mut next_probe = a.at + PROBE_EVERY;
        // Worker cycles seen after the last two units.
        let mut seen = [sched.map_or(0, Scheduler::cycles); 2];
        for i in 1..=slices {
            let until = a.at + window * i / slices;
            loop {
                let end = self.unit(&mut s, tracer, hooks);
                if let Some(sc) = sched {
                    // Probe once the worker has finished a deadline's
                    // cycles (one completed two units ago, none since),
                    // so the probe does not queue behind one on the
                    // module lock.
                    let done = sc.cycles();
                    if end >= next_probe && seen[0] != seen[1] && seen[1] == done {
                        s.cycle_ns.push(self.cycle(tracer, hooks));
                        s.cycles += 1;
                        next_probe = end + PROBE_EVERY;
                    }
                    seen = [seen[1], done];
                }
                if end >= until {
                    s.slices.push(SliceEnd {
                        at: end,
                        ops: s.op_ns.len(),
                        worker_cycles: sched.map_or(0, Scheduler::cycles),
                        caller_cycles: s.cycles,
                    });
                    break;
                }
            }
        }
        let b = self.snap(sched);
        Window { s, a, b }
    }

    /// One unit of the workload; returns when it ended.
    fn unit(
        &mut self,
        s: &mut Samples,
        tracer: Option<&Tracer>,
        hooks: Option<&StageHooks>,
    ) -> Instant {
        let end = match self.workload {
            Workload::Ioctl => self.op(Op::Ioctl, s, tracer).1,
            Workload::Rerand => {
                s.cycle_ns.push(self.cycle(tracer, hooks));
                s.cycles += 1;
                let mut end = Instant::now();
                for i in 0..OPS_PER_CYCLE {
                    let (ns, t) = self.op(Op::Ioctl, s, tracer);
                    if i == 0 {
                        &mut s.first_after_ns
                    } else {
                        &mut s.steady_ns
                    }
                    .push(ns);
                    end = t;
                }
                end
            }
            Workload::Blk => {
                let mut order = [Op::Write; BLK_BLOCK];
                order[..BLK_READS].fill(Op::Read);
                for i in (1..BLK_BLOCK).rev() {
                    order.swap(i, self.rng.below(i as u64 + 1) as usize);
                }
                let mut end = Instant::now();
                for op in order {
                    let (ns, t) = self.op(op, s, tracer);
                    if op == Op::Read {
                        &mut s.read_ns
                    } else {
                        &mut s.write_ns
                    }
                    .push(ns);
                    end = t;
                }
                if s.op_ns.len().is_multiple_of(BLK_OPS_PER_CYCLE) {
                    s.cycle_ns.push(self.cycle(tracer, hooks));
                    s.cycles += 1;
                    end = Instant::now();
                }
                end
            }
        };
        if tracer.is_some() {
            s.backlog_max = s.backlog_max.max(self.kernel.reclaim.stats().delta());
            s.snapshot_backlog_max = s
                .snapshot_backlog_max
                .max(self.kernel.space.snapshot_smr().delta());
        }
        end
    }

    /// One top-level driver call: its wall time and instruction count
    /// go into `s`. Returns the wall time and when the call returned.
    fn op(&mut self, op: Op, s: &mut Samples, tracer: Option<&Tracer>) -> (u64, Instant) {
        let insns = self.vm.insns_retired();
        let (ns, end) = match op {
            Op::Ioctl => self.ioctl(tracer),
            Op::Read => self.read(tracer),
            Op::Write => self.write(tracer),
        };
        s.op_ns.push(ns);
        s.op_insns.push(self.vm.insns_retired() - insns);
        (ns, end)
    }

    fn span(tracer: Option<&Tracer>, name: &'static str, t0: Instant, t1: Instant) {
        if let Some(tr) = tracer {
            let req = tr.next_id();
            tr.span(name, 0, req, t0, t1);
        }
    }

    /// One null ioctl; its argument must come back.
    fn ioctl(&mut self, tracer: Option<&Tracer>) -> (u64, Instant) {
        let arg = self.rng.next_u64();
        let t0 = Instant::now();
        let got = self.kernel.ioctl(&mut self.vm, DUMMY_MINOR, 0, arg);
        let t1 = Instant::now();
        Self::span(tracer, "op.ioctl", t0, t1);
        self.ops.expect(matches!(got, Ok(v) if v == arg), || {
            format!("ioctl({arg:#x}) returned {got:?}")
        });
        ((t1 - t0).as_nanos() as u64, t1)
    }

    /// One `O_DIRECT` sector read at a seeded sector, checked against
    /// the disk model.
    fn read(&mut self, tracer: Option<&Tracer>) -> (u64, Instant) {
        let sector = self.rng.below(BLK_SECTORS);
        self.read_sector(sector, tracer)
    }

    fn read_sector(&mut self, sector: u64, tracer: Option<&Tracer>) -> (u64, Instant) {
        let blk = self.blk.as_ref().expect("blk workload");
        let t0 = Instant::now();
        let got = self.kernel.vfs.pread(
            &mut self.vm,
            blk.fd,
            blk.buf,
            SECTOR_SIZE,
            sector * SECTOR_SIZE as u64,
        );
        let t1 = Instant::now();
        Self::span(tracer, "op.pread", t0, t1);
        let mut bytes: Sector = [0; SECTOR_SIZE];
        let copied = self
            .kernel
            .space
            .read_bytes(&self.kernel.phys, blk.buf, &mut bytes);
        let ok =
            matches!(got, Ok(SECTOR_SIZE)) && copied.is_ok() && blk.model.matches(sector, &bytes);
        self.ops.expect(ok, || {
            format!("pread(sector {sector}) returned {got:?} or wrong bytes")
        });
        ((t1 - t0).as_nanos() as u64, t1)
    }

    /// One `O_DIRECT` sector write of seeded bytes at a seeded sector.
    fn write(&mut self, tracer: Option<&Tracer>) -> (u64, Instant) {
        let sector = self.rng.below(BLK_SECTORS);
        let mut data: Sector = [0; SECTOR_SIZE];
        for chunk in data.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        let blk = self.blk.as_mut().expect("blk workload");
        let staged = self
            .kernel
            .space
            .write_bytes(&self.kernel.phys, blk.buf, &data);
        let t0 = Instant::now();
        let got = self.kernel.vfs.pwrite(
            &mut self.vm,
            blk.fd,
            blk.buf,
            SECTOR_SIZE,
            sector * SECTOR_SIZE as u64,
        );
        let t1 = Instant::now();
        Self::span(tracer, "op.pwrite", t0, t1);
        let ok = staged.is_ok() && matches!(got, Ok(SECTOR_SIZE));
        if ok {
            blk.model.wrote(sector, &data);
        }
        self.ops
            .expect(ok, || format!("pwrite(sector {sector}) returned {got:?}"));
        ((t1 - t0).as_nanos() as u64, t1)
    }

    /// One `rerandomize_module` of the next module, round-robin.
    fn cycle(&mut self, tracer: Option<&Tracer>, hooks: Option<&StageHooks>) -> u64 {
        let module = self.modules[self.next_module % self.modules.len()].clone();
        self.next_module += 1;
        let (kernel, registry) = (self.kernel, self.registry);
        let run = || rerandomize_module(kernel, registry, &module);
        let t0 = Instant::now();
        let (got, t1) = match (tracer, hooks) {
            (Some(tr), Some(h)) => {
                let (id, req) = (tr.next_id(), tr.next_id());
                let got = h.bench_cycle(id, req, run);
                let t1 = Instant::now();
                tr.push(crate::trace::Span {
                    id,
                    parent: 0,
                    name: "cycle.rerandomize_module",
                    start_ns: tr.ns_of(t0),
                    end_ns: tr.ns_of(t1),
                    req,
                });
                (got, t1)
            }
            _ => {
                let got = run();
                (got, Instant::now())
            }
        };
        self.cycles.expect(got.is_ok(), || {
            format!("rerandomize_module({}) failed: {got:?}", module.name)
        });
        (t1 - t0).as_nanos() as u64
    }

    /// After the window: every module's GOTs and PLT bindings audit
    /// clean, every written `blk` sector reads back, and the reclaimer
    /// drains to zero.
    fn audit(&mut self) -> Checks {
        let mut audit = Checks::default();
        for m in &self.modules {
            let gots = verify_fixed_gots(self.kernel, m);
            let plt = verify_plt_bindings(self.kernel, m);
            audit.expect(gots.is_empty() && plt.is_empty(), || {
                format!("{}: GOT audit {gots:?}, PLT audit {plt:?}", m.name)
            });
        }
        if let Some(blk) = &self.blk {
            let written: Vec<u64> = blk.model.written().collect();
            for sector in written {
                self.read_sector(sector, None);
            }
        }
        self.kernel.reclaim.flush();
        let smr = self.kernel.reclaim.stats();
        audit.expect(smr.delta() == 0, || {
            format!("SMR backlog {} at quiescence", smr.delta())
        });
        audit
    }
}

fn sched_config() -> SchedConfig {
    SchedConfig {
        workers: 1,
        policy: Policy::FixedPeriod(PERIOD),
        ..SchedConfig::default()
    }
}

/// Null-ioctl rate of the dummy driver built under `opts`, with no
/// re-randomization: one Fig. 9 reference point.
fn fig9_rate(seed: u64, opts: TransformOptions, checks: &mut Checks) -> f64 {
    let (tb, _, _) = provision(DriverSet::dummy_only(), opts, seed, false, None);
    let mut caller = Caller::new(Workload::Ioctl, &tb, seed);
    let w = caller.window(FIG9_WINDOW, None, None, None);
    checks.attempted += caller.ops.attempted;
    checks.failed += caller.ops.failed;
    checks.notes.append(&mut caller.ops.notes);
    w.ops_per_s()
}

fn p50_us(samples: &mut [u64]) -> f64 {
    us(percentile_of(samples, 0.50))
}

fn p99_us(samples: &mut [u64]) -> f64 {
    us(percentile_of(samples, 0.99))
}

/// Run one workload and derive its metrics.
pub fn run(p: &Params) -> Outcome {
    let w = p.workload;
    let tracer = p.trace.then(Tracer::new);
    let opts = TransformOptions::rerandomizable(true);
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut tb: Option<Testbed> = None;
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX
            && setups.iter().map(|(b, i)| b + i).sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // Drop the previous testbed before timing the next set-up.
        drop(tb.take());
        let (t, boot, install) = provision(
            w.drivers(),
            opts,
            p.seed,
            w == Workload::Blk,
            tracer.as_deref(),
        );
        setups.push((boot, install));
        tb = Some(t);
    }
    let tb = tb.expect("at least one set-up");
    let mut report = Report::default();
    // The worker inherits the CPU it is spawned on; the caller then
    // moves to another one.
    let cpus = pin::allowed_cpus();
    let pinned = cpus.len() >= 2 && pin::pin_to(cpus[1]);
    let sched = w.scheduled().then(|| {
        let names: Vec<&str> = tb.module_names.iter().map(String::as_str).collect();
        Scheduler::spawn(
            tb.kernel.clone(),
            tb.registry.clone(),
            &names,
            sched_config(),
        )
    });
    if pinned {
        pin::pin_to(cpus[0]);
    }
    let mut caller = Caller::new(w, &tb, p.seed);
    let mut extra = Checks::default();
    let mut spans = Vec::new();

    if let Some(tr) = &tracer {
        // An untraced part, then a traced one: their difference is the
        // tracing overhead.
        let traced_part = (p.window / 2).min(TRACED_WINDOW_MAX);
        let plain = caller
            .window(p.window - traced_part, sched.as_ref(), None, None)
            .end_to_end(w.scheduled(), caller.modules.len());
        let hooks = StageHooks::new(tr.clone());
        tb.registry.set_cycle_hooks(hooks.clone());
        let mut t = caller.window(traced_part, sched.as_ref(), Some(tr), Some(&hooks));
        tb.registry.clear_cycle_hooks();
        let traced = t.end_to_end(w.scheduled(), caller.modules.len());
        let sched_stats = sched.map(Scheduler::stop);
        let vanilla = fig9_rate(p.seed, TransformOptions::vanilla(true), &mut extra);
        let mut wrappers_only = TransformOptions::rerandomizable(true);
        wrappers_only.stack_rerand = false;
        wrappers_only.encrypt_ret = false;
        let wrappers = fig9_rate(p.seed, wrappers_only, &mut extra);
        let full = fig9_rate(p.seed, TransformOptions::rerandomizable(true), &mut extra);
        spans = tr.spans();
        per_layer(&mut report, &mut t, &spans, &setups);
        report.set(
            "fig9.overhead_vs_vanilla_pct",
            (vanilla - full) / vanilla * 100.0,
        );
        report.set(
            "fig9.wrappers_overhead_pct",
            (vanilla - wrappers) / vanilla * 100.0,
        );
        report.set(
            "trace.overhead.ops_per_s",
            plain.ops_per_s - traced.ops_per_s,
        );
        report.set(
            "trace.overhead.op_p50_us",
            traced.op_p50_us - plain.op_p50_us,
        );
        report.set(
            "trace.overhead.op_p99_us",
            traced.op_p99_us - plain.op_p99_us,
        );
        report.set(
            "trace.overhead.cycles_per_s",
            plain.cycles_per_s - traced.cycles_per_s,
        );
        finish_cycle_checks(&mut caller, sched_stats);
    } else {
        let m = caller.window(p.window, sched.as_ref(), None, None);
        let e = m.end_to_end(w.scheduled(), caller.modules.len());
        report.set("ops_per_s", e.ops_per_s);
        report.set("op_p50_us", e.op_p50_us);
        report.set("op_p99_us", e.op_p99_us);
        report.set("cycles_per_s", e.cycles_per_s);
        report.set("cycle_p50_us", e.cycle_p50_us);
        report.set("cycle_p90_us", e.cycle_p90_us);
        let sched_stats = sched.map(Scheduler::stop);
        let totals: Vec<f64> = setups.iter().map(|(b, i)| b + i).collect();
        report.set("setup_s", median(&totals));
        finish_cycle_checks(&mut caller, sched_stats);
    }

    let audit = caller.audit();
    if p.trace {
        report.set(
            "op_fail_frac",
            ratio(caller.ops.failed, caller.ops.attempted),
        );
        report.set(
            "cycle_fail_frac",
            ratio(caller.cycles.failed, caller.cycles.attempted),
        );
    }
    let all = [&caller.ops, &caller.cycles, &audit, &extra];
    report.attempted = all.iter().map(|c| c.attempted).sum();
    report.failed = all.iter().map(|c| c.failed).sum();
    report.correct = report.failed == 0;
    let notes = all.iter().flat_map(|c| c.notes.iter().cloned()).collect();
    Outcome {
        report,
        notes,
        spans,
    }
}

/// Count the worker's cycles (and failures) with the caller's own.
fn finish_cycle_checks(caller: &mut Caller<'_>, sched: Option<SchedStats>) {
    if let Some(s) = sched {
        caller.cycles.attempted += s.cycles + s.failures;
        caller.cycles.failed += s.failures;
        if s.failures > 0 && caller.cycles.notes.len() < Checks::KEEP {
            caller
                .cycles
                .notes
                .push(format!("{} scheduled cycles failed", s.failures));
        }
    }
}

/// Per-layer metrics of the traced window `t`.
fn per_layer(r: &mut Report, t: &mut Window, spans: &[crate::trace::Span], setups: &[(f64, f64)]) {
    let ops = t.ops();
    let cycles = t.cycles();
    let (a, b) = (&t.a, &t.b);
    let insns = b.insns - a.insns;
    let tlb = b.tlb.delta_since(&a.tlb);
    let op_ns: u64 = t.s.op_ns.iter().sum();
    // The median op's count: exact, where the mean would move with how
    // many ops happened to follow a move.
    r.set(
        "kernel.insns_per_op",
        percentile_of(&mut t.s.op_insns, 0.5) as f64,
    );
    r.set("kernel.ns_per_insn", ratio(op_ns, insns));
    r.set(
        "vmem.tlb.micro_hit_frac",
        ratio(tlb.micro_hits, tlb.hits + tlb.misses),
    );
    r.set("vmem.tlb.misses_per_op", ratio(tlb.misses, ops));
    r.set(
        "vmem.tlb.partial_flushes_per_cycle",
        ratio(tlb.partial_flushes, cycles),
    );
    r.set(
        "vmem.tlb.entries_invalidated_per_cycle",
        ratio(tlb.entries_invalidated, cycles),
    );
    r.set(
        "vmem.walks_per_op",
        ratio(b.space.walks - a.space.walks, ops),
    );
    r.set(
        "vmem.publishes_per_cycle",
        ratio(
            b.space.snapshot_publishes - a.space.snapshot_publishes,
            cycles,
        ),
    );
    r.set(
        "vmem.shootdowns_per_cycle",
        ratio(b.space.shootdowns - a.space.shootdowns, cycles),
    );
    r.set(
        "vmem.batches_per_cycle",
        ratio(b.space.batches - a.space.batches, cycles),
    );
    r.set(
        "vmem.phys.frames_alloc_per_cycle",
        ratio(b.phys.frames_allocated - a.phys.frames_allocated, cycles),
    );
    r.set("vmem.snapshot_backlog_max", t.s.snapshot_backlog_max as f64);

    let selfs = self_times(spans);
    for (_, span, metric) in STAGES {
        r.set(metric, p50_us(&mut self_times_named(spans, &selfs, span)));
    }
    let mut cycle_self = self_times_named(spans, &selfs, SCHED_CYCLE);
    cycle_self.extend(self_times_named(spans, &selfs, "cycle.rerandomize_module"));
    r.set("core.cycle.self_us", p50_us(&mut cycle_self));
    r.set("core.cycle.p99_us", p99_us(&mut t.s.cycle_ns));
    r.set(
        "core.stacks.allocs_per_cycle",
        ratio(b.stacks.allocated - a.stacks.allocated, cycles),
    );
    r.set(
        "rerand.first_op_after_cycle_us",
        p50_us(&mut t.s.first_after_ns),
    );
    r.set("rerand.steady_op_us", p50_us(&mut t.s.steady_ns));
    r.set(
        "reclaim.retired_per_cycle",
        ratio(b.smr.retired - a.smr.retired, cycles),
    );
    r.set("reclaim.backlog_max", t.s.backlog_max as f64);
    let sched_cycles = t.sched_delta(|s| s.cycles);
    r.set(
        "sched.missed_deadline_frac",
        ratio(t.sched_delta(|s| s.missed_deadlines), sched_cycles),
    );
    r.set(
        "sched.busy_frac",
        t.sched_delta(|s| s.busy.as_nanos() as u64) as f64 / 1e9 / t.secs(),
    );
    r.set(
        "sched.exposure_scan_hits",
        t.sched_delta(|s| s.exposure_scan_hits) as f64,
    );
    r.set(
        "sched.exposure_scan_misses",
        t.sched_delta(|s| s.exposure_scan_misses) as f64,
    );
    r.set("kernel.vfs.read_p50_us", p50_us(&mut t.s.read_ns));
    r.set("kernel.vfs.write_p50_us", p50_us(&mut t.s.write_ns));
    r.set(
        "drivers.nvme.completions_per_op",
        ratio(b.nvme - a.nvme, ops),
    );
    let boots: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let installs: Vec<f64> = setups.iter().map(|s| s.1).collect();
    r.set("setup.boot_s", median(&boots));
    r.set("setup.install_s", median(&installs));
}
