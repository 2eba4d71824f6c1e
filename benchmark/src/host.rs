//! Host-side process measurements, read from `/proc` (Linux only; the
//! build environment has no `libc` crate to ask `getrusage`).

use std::fs;

/// `/proc` reports CPU time in clock ticks; Linux fixes `USER_HZ` at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process, every thread included
/// (threads that already exited too), at 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat
        .rfind(')')
        .expect("stat names the command in parentheses")
        + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
