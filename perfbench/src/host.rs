//! Host facts and process counters: hypervisor steal, CPU time, peak RSS.

use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of `/proc/stat` tick counters on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Machine-wide stolen ticks so far: column 8 of the aggregate `cpu` line
/// of `/proc/stat` (0 where the file or the column is missing).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_ascii_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Stolen ticks as milliseconds.
pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / TICKS_PER_SECOND
}

/// Whether `ticks` stolen over `wall` exceed `share` of the machine's CPU
/// time (all cores) in that interval. One tick is within the counter's
/// resolution and never counts.
pub fn steal_exceeds(ticks: u64, wall: Duration, share: f64) -> bool {
    ticks > 1 && ticks as f64 > share * wall.as_secs_f64() * TICKS_PER_SECOND * nproc() as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process, all threads, in nanoseconds.
/// `/proc/<pid>/stat` only counts 10 ms ticks and per-thread `schedstat` is
/// not enabled on every kernel, so the nanosecond process clock is read
/// directly.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64` fields
    // on 64-bit Linux) that lives across the call; the clock id is a
    // constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds a fixed integer loop takes on this thread: a gauge of the
/// core speed the machine gives right now, recorded with every slice.
pub fn calibrate_ns() -> u64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as u64
}
