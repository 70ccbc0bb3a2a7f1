//! Pins the benchmark, and every thread it later starts, to one core.
//!
//! On a shared 2-vCPU VM, figures of threads spread across the two
//! cores followed the host's load rather than the program, likely
//! because a thread that wakes another on the other, idle vCPU waits
//! for the host to schedule that vCPU again. On one core a wire client and its server handler
//! hand over to each other without waking an idle vCPU.
//! `perfbench/RESULTS.md` has the runs behind this choice.

/// Restricts the calling thread (and the threads it spawns afterwards)
/// to the highest-numbered core it may run on, and returns that core.
/// `Err` names why the process keeps its affinity.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Result<usize, String> {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of
    // glibc's `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let core = (0..WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("sched_getaffinity returned an empty set")?;
    let mut one = [0u64; WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(core)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Result<usize, String> {
    Err("pinning is implemented for Linux only".to_string())
}
