//! Fig. 6 — NVMe 512-byte O_DIRECT read throughput under
//! re-randomization at 1 ms and 5 ms periods.

use adelie_bench::{point_duration, print_header, print_row, Unit};
use adelie_plugin::TransformOptions;
use adelie_sched::SchedConfig;
use adelie_workloads::{run_nvme_direct, DriverSet, Testbed};
use std::time::Duration;

fn main() {
    print_header("Fig. 6", "NVMe O_DIRECT 512B read throughput + CPU");
    let dur = point_duration();
    // Vanilla Linux.
    let tb = Testbed::new(TransformOptions::vanilla(true), DriverSet::storage());
    let base = run_nvme_direct(&tb, dur);
    print_row("linux (vanilla)", &base, Unit::OpsPerSec);
    // Re-randomizable modules, rerand off / 5 ms / 1 ms.
    let opts = TransformOptions::rerandomizable(true);
    let tb = Testbed::new(opts, DriverSet::storage());
    let m = run_nvme_direct(&tb, dur);
    print_row("adelie, no re-randomization", &m, Unit::OpsPerSec);
    for period_ms in [5u64, 1] {
        let tb = Testbed::new(opts, DriverSet::storage())
            .with_sched(SchedConfig::serial(Duration::from_millis(period_ms)));
        let sched = tb.start_scheduler();
        let m = run_nvme_direct(&tb, dur);
        let stats = sched.stop();
        print_row(
            &format!("adelie, {period_ms} ms period"),
            &m,
            Unit::OpsPerSec,
        );
        println!(
            "    cycles: {}  SMR delta: {}",
            stats.cycles,
            tb.kernel.reclaim.stats().delta()
        );
    }
    println!("\npaper shape: throughput unaffected; slight CPU increase at short periods");
}
