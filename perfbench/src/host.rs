//! Host-side clocks: on-CPU time of the calling thread and peak RSS.
//!
//! The benchmark runs every simulation on one thread, so the thread's
//! on-CPU time is exactly what the Rust code cost; time spent waiting
//! for a CPU on a shared machine is not counted.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds the calling thread has spent on a CPU.
///
/// This is the scheduler's runtime counter, the first field of
/// `/proc/thread-self/schedstat`. Read through that file it is only as
/// fresh as the last scheduler tick (4 ms at HZ=250), which is coarser
/// than a whole testbed build; `CLOCK_THREAD_CPUTIME_ID` brings it up to
/// date first, so short phases are timed to the nanosecond.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // and `Timespec` matches the C layout on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status")
        .expect("the benchmark needs /proc/self/status for peak RSS");
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}
