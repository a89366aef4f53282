//! Fig. 7 — mySQL/OLTP transactions per second and CPU usage vs
//! concurrency, with E1000E + NVMe re-randomizing at 1/5 ms.

use adelie_bench::{concurrency_levels, point_duration, print_header, print_row, Unit};
use adelie_plugin::TransformOptions;
use adelie_sched::SchedConfig;
use adelie_workloads::{run_oltp, DriverSet, Testbed};
use std::time::Duration;

fn main() {
    print_header("Fig. 7", "OLTP transactions/s and CPU vs concurrency");
    let dur = point_duration();
    for conc in concurrency_levels() {
        println!("\nconcurrency {conc}:");
        let tb = Testbed::new(TransformOptions::vanilla(true), DriverSet::full());
        let m = run_oltp(&tb, conc, 2, dur);
        print_row("  linux", &m, Unit::OpsPerSec);
        for period_ms in [5u64, 1] {
            let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full())
                .with_sched(SchedConfig::serial(Duration::from_millis(period_ms)));
            let sched = tb.start_scheduler();
            let m = run_oltp(&tb, conc, 2, dur);
            sched.stop();
            print_row(&format!("  adelie {period_ms} ms"), &m, Unit::OpsPerSec);
        }
    }
    println!("\npaper shape: identical txn rate; <2% CPU increase before saturation");
}
