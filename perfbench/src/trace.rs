//! Spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (set-up steps, every driver op, every `rerandomize_module`), and a
//! [`StageHooks`] installed with `ModuleRegistry::set_cycle_hooks`
//! splits each re-randomization cycle into its `CycleStage` spans. A
//! stage lasts from its `allow` to the next stage's `allow`; the last
//! one ends at `committed`. Spans stay in memory and are written once,
//! at exit.

use adelie_core::{CycleCommit, CycleHooks, CycleStage};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `parent` 0 marks a root span; spans of one
/// request (an op, a cycle, a set-up) share `req`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Layer call or stage name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Request identifier.
    pub req: u64,
}

/// Span store shared by the bench thread and the randomizer worker.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `t` on the tracer's clock.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Now on the tracer's clock.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Record a root or child span over `[start, end]`; returns its id.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            req,
        });
        id
    }

    /// Store one span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover (children
/// clipped to the parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Self times of the spans named `name`.
pub fn self_times_named(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect()
}

/// Write spans as JSON lines.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

/// Each cycle stage in execution order, with its span name and the
/// per-layer metric that reports its p50 self time.
pub const STAGES: [(CycleStage, &str, &str); 8] = [
    (
        CycleStage::Reserve,
        "stage.reserve",
        "core.stage.reserve_us",
    ),
    (CycleStage::AliasMap, "stage.alias", "core.stage.alias_us"),
    (
        CycleStage::MovableGot,
        "stage.movable-got",
        "core.stage.movable-got_us",
    ),
    (
        CycleStage::ImmovableGotSwap,
        "stage.immovable-got-swap",
        "core.stage.immovable-got-swap_us",
    ),
    (
        CycleStage::AdjustSlots,
        "stage.adjust-slots",
        "core.stage.adjust-slots_us",
    ),
    (
        CycleStage::UpdatePointers,
        "stage.update-pointers",
        "core.stage.update-pointers_us",
    ),
    (CycleStage::Retire, "stage.retire", "core.stage.retire_us"),
    (
        CycleStage::StackRotate,
        "stage.stack-rotate",
        "core.stage.stack-rotate_us",
    ),
];

/// Span name of a cycle the randomizer worker ran (the bench's own
/// cycles are `cycle.rerandomize_module` spans it records itself).
pub const SCHED_CYCLE: &str = "cycle.sched";

fn stage_name(stage: CycleStage) -> &'static str {
    STAGES
        .iter()
        .find(|(s, _, _)| *s == stage)
        .map(|(_, name, _)| name)
        .expect("every CycleStage has a span name")
}

struct InFlight {
    cycle: u64,
    req: u64,
    start_ns: u64,
    /// Whether the hooks opened the cycle span (a worker-run cycle)
    /// rather than the bench.
    owned: bool,
    stage: Option<(&'static str, u64)>,
}

thread_local! {
    static IN_FLIGHT: RefCell<Option<InFlight>> = const { RefCell::new(None) };
    /// `(span id, request id)` of the bench's open cycle on this thread.
    static BENCH_CYCLE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Cycle-stage spans from the `CycleHooks` seam. Installed in the
/// traced run only; it never denies a stage.
pub struct StageHooks {
    tracer: Arc<Tracer>,
}

impl StageHooks {
    /// Hooks recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> Arc<StageHooks> {
        Arc::new(StageHooks { tracer })
    }

    /// Run `cycle` (one `rerandomize_module` call) under the bench's
    /// span `span_id`, so its stages become that span's children. A
    /// cycle that failed before `committed` has its open stage closed
    /// here.
    pub fn bench_cycle<T>(&self, span_id: u64, req: u64, cycle: impl FnOnce() -> T) -> T {
        BENCH_CYCLE.with(|c| c.set((span_id, req)));
        let out = cycle();
        BENCH_CYCLE.with(|c| c.set((0, 0)));
        if let Some(open) = IN_FLIGHT.with(|f| f.borrow_mut().take()) {
            self.close(open, self.tracer.now_ns());
        }
        out
    }

    fn close(&self, open: InFlight, now: u64) {
        if let Some((name, start)) = open.stage {
            self.tracer.push(Span {
                id: self.tracer.next_id(),
                parent: open.cycle,
                name,
                start_ns: start,
                end_ns: now,
                req: open.req,
            });
        }
        if open.owned {
            self.tracer.push(Span {
                id: open.cycle,
                parent: 0,
                name: SCHED_CYCLE,
                start_ns: open.start_ns,
                end_ns: now,
                req: open.req,
            });
        }
    }
}

impl CycleHooks for StageHooks {
    fn allow(&self, _module: &str, stage: CycleStage) -> bool {
        let now = self.tracer.now_ns();
        IN_FLIGHT.with(|f| {
            let mut f = f.borrow_mut();
            let fresh = stage == CycleStage::Reserve || f.is_none();
            if fresh {
                // A worker cycle that failed left its state behind:
                // drop it, so it gets no root span.
                let (bench, req) = BENCH_CYCLE.with(Cell::get);
                let (cycle, req, owned) = if bench != 0 {
                    (bench, req, false)
                } else {
                    let id = self.tracer.next_id();
                    (id, id, true)
                };
                *f = Some(InFlight {
                    cycle,
                    req,
                    start_ns: now,
                    owned,
                    stage: None,
                });
            }
            let open = f.as_mut().expect("in-flight cycle");
            if let Some((name, start)) = open.stage.take() {
                self.tracer.push(Span {
                    id: self.tracer.next_id(),
                    parent: open.cycle,
                    name,
                    start_ns: start,
                    end_ns: now,
                    req: open.req,
                });
            }
            open.stage = Some((stage_name(stage), now));
        });
        true
    }

    fn committed(&self, _commit: &CycleCommit<'_>) {
        let now = self.tracer.now_ns();
        if let Some(open) = IN_FLIGHT.with(|f| f.borrow_mut().take()) {
            self.close(open, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 90)];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Children [10,50) and [30,60) cover [10,60); a child running past
        // the parent's end counts only up to it.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_count_against_their_parent_only() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 0, 40)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn hooks_split_a_bench_cycle_into_stages() {
        let tracer = Tracer::new();
        let hooks = StageHooks::new(tracer.clone());
        hooks.bench_cycle(77, 5, || {
            hooks.allow("m", CycleStage::Reserve);
            hooks.allow("m", CycleStage::AliasMap);
            hooks.committed(&CycleCommit {
                module: "m",
                old_base: 0,
                new_base: 0,
                span: 0,
                generation: 1,
            });
        });
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["stage.reserve", "stage.alias"]);
        assert!(spans.iter().all(|s| s.parent == 77 && s.req == 5));
        assert!(spans[0].end_ns <= spans[1].start_ns);
    }

    #[test]
    fn a_worker_cycle_gets_its_own_root_span() {
        let tracer = Tracer::new();
        let hooks = StageHooks::new(tracer.clone());
        for stage in [CycleStage::Reserve, CycleStage::Retire] {
            hooks.allow("m", stage);
        }
        // A cycle that failed before committing gets no root span when
        // the next one starts.
        hooks.allow("m", CycleStage::Reserve);
        hooks.committed(&CycleCommit {
            module: "m",
            old_base: 0,
            new_base: 0,
            span: 0,
            generation: 1,
        });
        let spans = tracer.spans();
        let root: Vec<_> = spans.iter().filter(|s| s.name == SCHED_CYCLE).collect();
        assert_eq!(root.len(), 1);
        let kids = spans.iter().filter(|s| s.parent == root[0].id).count();
        assert_eq!(kids, 1, "only the committed cycle's stage is its child");
    }
}
