//! Driver-VM scenario (paper §2.8 / the SAVIOR deployment): a guest OS
//! whose whole job is running a network driver, with the driver
//! re-randomized continuously while serving traffic.
//!
//! Boots the kernel, installs the E1000E-analog NIC plus the NVMe and
//! extfs modules, starts an Apache-like file server behind the NIC, and
//! measures throughput with and without 5 ms re-randomization.
//!
//! ```sh
//! cargo run --release --example driver_vm
//! ```

use adelie::plugin::TransformOptions;
use adelie::sched::SchedConfig;
use adelie::workloads::{run_apache, DriverSet, Testbed};
use std::time::Duration;

fn main() {
    let window = Duration::from_millis(700);
    println!("driver VM: E1000E + NVMe + extfs + xHCI + FUSE, Apache-like serving\n");

    // Baseline: vanilla (non-PIC) modules.
    let tb = Testbed::new(TransformOptions::vanilla(true), DriverSet::full());
    let base = run_apache(&tb, 4096, 4, 2, window);
    println!(
        "vanilla linux      : {:>8.2} MB/s  {:>7.0} req/s  cpu {:>5.1}%",
        base.mb_per_sec(),
        base.ops_per_sec(),
        base.cpu_percent()
    );

    // Adelie, re-randomizing all five modules at 5 ms.
    let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full())
        .with_sched(SchedConfig::serial(Duration::from_millis(5)));
    let sched = tb.start_scheduler();
    let m = run_apache(&tb, 4096, 4, 2, window);
    let stats = sched.stop();
    println!(
        "adelie @ 5 ms      : {:>8.2} MB/s  {:>7.0} req/s  cpu {:>5.1}%",
        m.mb_per_sec(),
        m.ops_per_sec(),
        m.cpu_percent()
    );
    println!(
        "\nmodules re-randomized {} times during the run; SMR delta {} (all old ranges unmapped)",
        stats.cycles,
        tb.kernel.reclaim.stats().delta()
    );
    let delta = (base.mb_per_sec() - m.mb_per_sec()) / base.mb_per_sec() * 100.0;
    println!("throughput delta vs vanilla: {delta:+.1}% (paper: re-randomization does not impact throughput)");
    for name in &tb.module_names {
        let module = tb.registry.get(name).unwrap();
        println!(
            "  {:<8} generation {:>4}, movable base now {:#x}",
            name,
            module.times_randomized(),
            module
                .movable_base
                .load(std::sync::atomic::Ordering::Relaxed)
        );
    }
}
