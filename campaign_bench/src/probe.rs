//! Process resource probes: CPU time and peak resident set size, and the
//! CPU affinity of the calling thread.
//!
//! CPU time and peak RSS come from one `getrusage(RUSAGE_SELF)` call,
//! which counts every thread the process ever ran (parallel and fleet
//! workers included, even after they exit) at microsecond resolution.

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

const RUSAGE_SELF: i32 = 0;

/// 64-bit words in glibc's default `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A snapshot of the process's resource counters.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU seconds consumed so far.
    pub cpu_s: f64,
    /// Peak resident set size so far, in MiB.
    pub peak_rss_mb: f64,
}

/// Reads the current process's resource counters.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the exact layout of the
    // 64-bit Linux `struct rusage` (size checked above); `getrusage` only
    // writes into it, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    }
}

/// The CPUs the calling thread may run on, ascending; empty if the kernel
/// does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is writable and exactly as large as the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// `cpu`. If the kernel refuses the mask, the affinity stays as it was.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly as large as the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
