//! Host-side meters: process CPU-seconds and peak resident memory.
//!
//! Wall time on a shared two-core host does not repeat within a tenth;
//! CPU-seconds of the whole process do, so host cost is reported in them.

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds (user + system, all threads) this process has consumed.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux (two 64-bit fields), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("reading /proc/self/status (the benchmark needs Linux procfs)");
    let kib = parse_vm_hwm_kib(&status).expect("no VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\targobench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123456));
    }

    #[test]
    fn rejects_missing_or_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tmany kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\n"), None);
    }

    #[test]
    fn live_meters_read_and_advance() {
        assert!(peak_rss_mb() > 0.0);
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i) * 3);
        }
        std::hint::black_box(x);
        let b = process_cpu_ns();
        assert!(b > a, "CPU clock did not advance: {a} -> {b}");
    }
}
