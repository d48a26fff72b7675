//! CPU time of this process.
//!
//! The end-to-end timings are CPU time, not wall time. On a shared
//! virtual machine the wall time of an operation also counts the moments
//! the hypervisor ran another guest on our core, and the wake-up delay of
//! an idle core; both moved throughput by a factor of two between runs of
//! one seed. The kernel's per-process CPU clock leaves out time stolen by
//! the hypervisor (paravirtual steal accounting) and time spent waiting on
//! a run queue, so it measures the program's own work.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds used so far by every thread of this process, user and
/// system time together.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
