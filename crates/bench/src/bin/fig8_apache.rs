//! Fig. 8 — ApacheBench throughput/CPU at four block sizes, five
//! modules re-randomizing at 1/5/20 ms.

use adelie_bench::{concurrency_levels, point_duration, print_header, print_row, Unit};
use adelie_plugin::TransformOptions;
use adelie_sched::SchedConfig;
use adelie_workloads::{run_apache, DriverSet, Testbed};
use std::time::Duration;

fn main() {
    print_header(
        "Fig. 8",
        "ApacheBench MB/s and CPU, 5 modules re-randomizing",
    );
    let dur = point_duration();
    let conc = *concurrency_levels().last().unwrap();
    for bs in [512usize, 1024, 4096, 8192] {
        println!("\nblock {bs} B, concurrency {conc}:");
        let tb = Testbed::new(TransformOptions::vanilla(true), DriverSet::full());
        let m = run_apache(&tb, bs, conc, 2, dur);
        print_row("  linux", &m, Unit::MbPerSec);
        for period_ms in [20u64, 5, 1] {
            let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full())
                .with_sched(SchedConfig::serial(Duration::from_millis(period_ms)));
            let sched = tb.start_scheduler();
            let m = run_apache(&tb, bs, conc, 2, dur);
            sched.stop();
            print_row(&format!("  adelie {period_ms:>2} ms"), &m, Unit::MbPerSec);
        }
    }
    println!("\npaper shape: throughput unaffected; ≈2% CPU at small blocks, less at 20 ms");
}
