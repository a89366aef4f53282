//! Every metric the benchmark prints, by name and unit, and the result
//! line that carries them. `BENCHMARK.json` declares the same lists; a
//! test keeps the two equal.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Copy, Clone, Debug)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "ops/s", Higher),
    m("op_p50_us", "us", Lower),
    m("op_p99_us", "us", Lower),
    m("cycles_per_s", "cycles/s", Higher),
    m("cycle_p50_us", "us", Lower),
    m("cycle_p90_us", "us", Lower),
    m("setup_s", "s", Lower),
];

/// Printed by the traced run, on every workload (0 where the workload
/// does not exercise the layer).
pub const PER_LAYER: &[Metric] = &[
    m("kernel.insns_per_op", "insns/op", Lower),
    m("kernel.ns_per_insn", "ns", Lower),
    m("vmem.tlb.micro_hit_frac", "ratio", Higher),
    m("vmem.tlb.misses_per_op", "misses/op", Lower),
    m("vmem.tlb.partial_flushes_per_cycle", "flushes/cycle", Lower),
    m(
        "vmem.tlb.entries_invalidated_per_cycle",
        "entries/cycle",
        Lower,
    ),
    m("vmem.walks_per_op", "walks/op", Lower),
    m("vmem.publishes_per_cycle", "publishes/cycle", Lower),
    m("vmem.shootdowns_per_cycle", "shootdowns/cycle", Lower),
    m("vmem.batches_per_cycle", "batches/cycle", Lower),
    m("vmem.phys.frames_alloc_per_cycle", "frames/cycle", Lower),
    m("vmem.snapshot_backlog_max", "count", Lower),
    m("core.stage.reserve_us", "us", Lower),
    m("core.stage.alias_us", "us", Lower),
    m("core.stage.movable-got_us", "us", Lower),
    m("core.stage.immovable-got-swap_us", "us", Lower),
    m("core.stage.adjust-slots_us", "us", Lower),
    m("core.stage.update-pointers_us", "us", Lower),
    m("core.stage.retire_us", "us", Lower),
    m("core.stage.stack-rotate_us", "us", Lower),
    m("core.cycle.self_us", "us", Lower),
    m("core.cycle.p99_us", "us", Lower),
    m("core.stacks.allocs_per_cycle", "stacks/cycle", Lower),
    m("rerand.first_op_after_cycle_us", "us", Lower),
    m("rerand.steady_op_us", "us", Lower),
    m("reclaim.retired_per_cycle", "retires/cycle", Lower),
    m("reclaim.backlog_max", "count", Lower),
    m("sched.missed_deadline_frac", "ratio", Lower),
    m("sched.busy_frac", "ratio", Lower),
    m("sched.exposure_scan_hits", "count", Higher),
    m("sched.exposure_scan_misses", "count", Lower),
    m("kernel.vfs.read_p50_us", "us", Lower),
    m("kernel.vfs.write_p50_us", "us", Lower),
    m("drivers.nvme.completions_per_op", "cmds/op", Lower),
    m("setup.boot_s", "s", Lower),
    m("setup.install_s", "s", Lower),
    m("fig9.overhead_vs_vanilla_pct", "%", Lower),
    m("fig9.wrappers_overhead_pct", "%", Lower),
    m("op_fail_frac", "ratio", Lower),
    m("cycle_fail_frac", "ratio", Lower),
    m("trace.overhead.ops_per_s", "ops/s", Lower),
    m("trace.overhead.op_p50_us", "us", Lower),
    m("trace.overhead.op_p99_us", "us", Lower),
    m("trace.overhead.cycles_per_s", "cycles/s", Lower),
];

/// The benchmark's verdict and the values of one metric list.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops, cycles and audits attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set one metric's value (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value set for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: one JSON object whose `metrics` hold exactly
    /// the metrics of `list`, in its order.
    ///
    /// # Errors
    ///
    /// A metric of `list` that was never set, a value set that `list`
    /// does not declare, or a value that is not a finite number.
    pub fn render(&self, list: &[Metric]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !list.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{extra}` is not declared in this list"));
        }
        let mut body = Vec::with_capacity(list.len());
        for d in list {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is {v}", d.name));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(list: &Json) -> Vec<(String, String, String)> {
        list.as_array()
            .iter()
            .map(|d| {
                (
                    d.get("name").as_str().to_string(),
                    d.get("unit").as_str().to_string(),
                    d.get("better").as_str().to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.word().into()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let bench = benchmark_json();
        assert_eq!(declared(bench.get("end_to_end")), ours(END_TO_END));
        assert_eq!(declared(bench.get("per_layer")), ours(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn every_per_layer_metric_is_mapped_in_layers_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let layers = parse(&std::fs::read_to_string(path).expect("layers.json")).expect("parses");
        let mapped: Vec<&str> = layers
            .get("layer_map")
            .as_array()
            .iter()
            .map(|e| e.get("metric").as_str())
            .collect();
        for d in PER_LAYER {
            assert!(
                mapped.contains(&d.name),
                "{} has no entry in layers.json",
                d.name
            );
        }
        let bench = benchmark_json();
        let workloads = layers.get("workloads");
        for w in bench.get("workloads").as_array() {
            let w = workloads.get(w.get("name").as_str());
            for key in ["loop", "threads", "loads", "bypasses"] {
                let _ = w.get(key);
            }
        }
    }

    #[test]
    fn rendered_line_carries_exactly_the_list() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        for d in END_TO_END {
            r.set(d.name, 1.25);
        }
        let line = r.render(END_TO_END).expect("complete");
        let parsed = parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").as_object();
        assert_eq!(metrics.len(), END_TO_END.len());
        for d in END_TO_END {
            let v = parsed.get("metrics").get(d.name);
            assert_eq!(v.get("unit").as_str(), d.unit);
            assert_eq!(v.get("value").as_f64(), 1.25);
        }
        assert!(
            r.render(PER_LAYER).is_err(),
            "end-to-end values are not per-layer ones"
        );
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_refused() {
        let mut r = Report::default();
        for d in &END_TO_END[1..] {
            r.set(d.name, 2.0);
        }
        assert!(r
            .render(END_TO_END)
            .unwrap_err()
            .contains(END_TO_END[0].name));
        r.set(END_TO_END[0].name, f64::NAN);
        assert!(r.render(END_TO_END).is_err());
    }
}
