//! Fig. 9 — the CPU-bound null-ioctl benchmark: wrapper cost (~4%) and
//! stack re-randomization cost (~6% more) isolated.

use adelie_bench::{overhead_pct, point_duration, print_header, print_row, Unit};
use adelie_plugin::TransformOptions;
use adelie_sched::SchedConfig;
use adelie_workloads::{run_ioctl, DriverSet, Testbed};
use std::time::Duration;

fn main() {
    print_header("Fig. 9", "null-ioctl throughput (Mops/s scale-model)");
    let dur = point_duration();
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut run = |label: &str, opts: TransformOptions, period: Option<u64>| {
        let mut tb = Testbed::new(opts, DriverSet::dummy_only());
        let sched = period.map(|ms| {
            tb.sched = SchedConfig::serial(Duration::from_millis(ms));
            tb.start_scheduler()
        });
        let m = run_ioctl(&tb, dur);
        if let Some(sched) = sched {
            sched.stop();
        }
        print_row(label, &m, Unit::MopsPerSec);
        results.push((label.to_string(), m.ops_per_sec()));
    };
    run("linux (vanilla)", TransformOptions::vanilla(true), None);
    let mut wrappers_only = TransformOptions::rerandomizable(true);
    wrappers_only.stack_rerand = false;
    wrappers_only.encrypt_ret = false;
    run("wrappers only", wrappers_only, None);
    run(
        "wrappers + stack rerand + encryption",
        TransformOptions::rerandomizable(true),
        None,
    );
    run(
        "  + continuous rerand 5 ms",
        TransformOptions::rerandomizable(true),
        Some(5),
    );
    run(
        "  + continuous rerand 1 ms",
        TransformOptions::rerandomizable(true),
        Some(1),
    );
    let base = results[0].1;
    println!("\noverheads vs vanilla:");
    for (label, ops) in &results[1..] {
        println!("  {label:<40} {:>5.1}%", overhead_pct(base, *ops));
    }
    println!("paper: wrappers ≈4%, +stack randomization ≈6% more");
}
