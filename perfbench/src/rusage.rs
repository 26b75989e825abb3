//! Process resource counters (`getrusage(RUSAGE_SELF)`), summed over every
//! thread of the process, including threads that have already exited.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

/// A snapshot of the process's resource counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Peak resident set size in KiB over the process's lifetime.
    pub maxrss_kib: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Involuntary context switches (preemptions).
    pub nivcsw: u64,
}

impl Usage {
    /// Reads the calling process's counters.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a live, writable `RawUsage` whose layout matches
        // the kernel's `struct rusage` on 64-bit Linux (the only platform
        // this benchmark builds for), and `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail for a valid buffer"
        );
        let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
        Usage {
            user: tv(raw.utime),
            sys: tv(raw.stime),
            maxrss_kib: raw.maxrss as u64,
            minflt: raw.minflt as u64,
            nivcsw: raw.nivcsw as u64,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.user + self.sys).as_secs_f64()
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let a = Usage::now();
        let v: Vec<u64> = (0..200_000u64).map(|i| i * i).collect();
        std::hint::black_box(&v);
        let b = Usage::now();
        assert!(b.cpu_s() >= a.cpu_s());
        assert!(b.minflt >= a.minflt);
        assert!(b.maxrss_kib > 0);
    }
}
