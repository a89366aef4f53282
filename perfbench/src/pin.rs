//! Thread placement. The caller and the randomizer worker each get a
//! CPU of their own: left to the OS, the two sometimes share one CPU
//! for part of a run, and every op then waits behind cycles.

use std::mem::size_of;

/// Linux's `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `set` is a writable
    // buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Run the calling thread on `cpu` only (threads it spawns later
/// inherit this). Returns whether the OS accepted it.
pub fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    if cpu >= set.len() * 64 {
        return false;
    }
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `set` is an
    // initialized buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_an_allowed_cpu_sticks() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let all = cpus.clone();
        std::thread::spawn(move || {
            assert!(pin_to(all[all.len() - 1]));
            assert_eq!(allowed_cpus(), [all[all.len() - 1]]);
        })
        .join()
        .expect("pinned thread");
        assert_eq!(allowed_cpus(), cpus, "other threads keep their placement");
        assert!(!pin_to(1 << 20));
    }
}
