//! Process accounting on Linux: CPU time and peak memory of the daemon
//! from `/proc`, and of short-lived children from `/proc` and `wait4`.

use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Nanoseconds on CPU from the text of `/proc/<pid>/task/<tid>/schedstat`
/// (its first field).
pub fn schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// (steal, total) clock ticks of all CPUs from the text of `/proc/stat`:
/// the time the hypervisor ran something else while this machine had
/// work, and all accounted time.
pub fn stat_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The current (steal, total) CPU ticks of the host, see
/// [`stat_steal_ticks`].
pub fn steal_ticks() -> std::io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    stat_steal_ticks(&stat)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed /proc/stat"))
}

/// Share of the CPU time between two [`steal_ticks`] readings that the
/// hypervisor took away.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

extern "C" {
    fn waitid(idtype: i32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;
const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

/// Storage for the `siginfo_t` that `waitid` fills in (128 bytes on Linux).
#[repr(C)]
struct SigInfo([u64; 16]);

/// `struct timeval` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// CPU seconds the live threads of process `pid` have used so far, to
/// the nanosecond: the sum of their scheduler run times. A thread that
/// exits while it is being read is skipped, and exited threads are not
/// counted, so take differences only across a span in which no busy
/// thread exits.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let Ok(text) = std::fs::read_to_string(task?.path().join("schedstat")) else {
            continue; // the thread has exited
        };
        ns += schedstat_ns(&text).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed /proc schedstat")
        })?;
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of the live process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status_kb(&status, "VmHWM").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM in /proc status")
    })?;
    Ok(kb as f64 / 1024.0)
}

/// What a child used over its whole life.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// When the child was seen to exit.
    pub exited_at: Instant,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MiB, as last read while it ran.
    pub peak_rss_mb: f64,
}

/// How often a running child's `VmHWM` is read.
const HWM_POLL: Duration = Duration::from_millis(10);

/// Retries a wait call interrupted by a signal.
fn retry_wait(mut call: impl FnMut() -> i32) -> std::io::Result<i32> {
    loop {
        let got = call();
        if got >= 0 {
            return Ok(got);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Blocks until `child` exits, then reaps it with `wait4`, which reports
/// its CPU time. The `Child` must not be waited on again.
///
/// The peak memory is the child's own `VmHWM`, read every [`HWM_POLL`]
/// by a watcher thread until the child exits. `wait4`'s `ru_maxrss` would
/// not do: a child started with `posix_spawn` carries the peak of this
/// process's address space, which it runs in until its `exec`, into its
/// own. The child is reaped only after the watcher stops, so its pid
/// cannot be reused while the watcher reads it.
pub fn wait_with_usage(child: &Child) -> std::io::Result<ChildUsage> {
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let (exited_at, peak_kb) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut peak_kb = 0;
            while !exited.load(Ordering::Acquire) {
                let status = std::fs::read_to_string(format!("/proc/{pid}/status"));
                if let Some(kb) = status.ok().as_deref().and_then(|s| status_kb(s, "VmHWM")) {
                    peak_kb = peak_kb.max(kb);
                }
                std::thread::sleep(HWM_POLL);
            }
            peak_kb
        });
        let mut info = SigInfo([0; 16]);
        // SAFETY: `info` is a live, writable buffer of siginfo_t's size;
        // WNOWAIT leaves the child to be reaped below.
        let waited = retry_wait(|| unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) });
        let exited_at = Instant::now();
        exited.store(true, Ordering::Release);
        let peak_kb = watcher.join().expect("memory watcher panicked");
        waited.map(|_| (exited_at, peak_kb))
    })?;
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: both pointers refer to live, writable locals of the exact C
    // layouts wait4 fills in.
    retry_wait(|| unsafe { wait4(pid, &mut status, 0, &mut usage) })?;
    let normal_exit = status & 0x7f == 0;
    let seconds = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildUsage {
        code: normal_exit.then_some((status >> 8) & 0xff),
        exited_at,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: peak_kb as f64 / 1024.0,
    })
}

/// Asks the kernel to wake this thread's timed sleeps within 1 µs of
/// their deadline instead of the default 50 µs slack, so the open-loop
/// generator sends close to each event's due time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and only affects
    // the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_reads_the_run_time() {
        assert_eq!(schedstat_ns("352025665 6535180 17\n"), Some(352_025_665));
        assert_eq!(schedstat_ns(""), None);
        assert_eq!(schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn stat_steal_reads_the_first_line() {
        let stat = "cpu  100 5 20 800 10 0 5 60 7 0\ncpu0 50 2 10 400 5 0 2 30 3 0\n";
        assert_eq!(stat_steal_ticks(stat), Some((60, 1000)));
        assert_eq!(stat_steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(stat_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(steal_share((60, 1000), (70, 1100)), 0.1);
        assert!(steal_ticks().is_ok());
    }

    #[test]
    fn status_kb_reads_the_named_field() {
        let status = "Name:\tleaps\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nThreads:\t3\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(12288));
        assert_eq!(status_kb(status, "VmPeak"), Some(20000));
        assert_eq!(status_kb(status, "VmRSS"), None);
        assert_eq!(status_kb(status, "Threads"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        let busy = std::time::Instant::now();
        while busy.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds(pid).unwrap() >= 0.02);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }

    #[test]
    fn wait4_reports_exit_code_and_usage() {
        let started = Instant::now();
        // Reaped by wait_with_usage, not Child::wait.
        #[allow(clippy::zombie_processes)]
        let child =
            std::process::Command::new("sh").args(["-c", "sleep 0.05; exit 3"]).spawn().unwrap();
        let usage = wait_with_usage(&child).unwrap();
        assert_eq!(usage.code, Some(3));
        assert!(usage.exited_at - started >= Duration::from_millis(50));
        assert!(usage.peak_rss_mb > 0.0);
    }

    #[test]
    fn child_peak_memory_is_its_own() {
        // Grow this process well past what a shell needs: the child's
        // figure must not carry it over.
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        #[allow(clippy::zombie_processes)]
        let child = std::process::Command::new("sh").args(["-c", "sleep 0.05"]).spawn().unwrap();
        let usage = wait_with_usage(&child).unwrap();
        assert!(usage.peak_rss_mb > 0.0 && usage.peak_rss_mb < 32.0, "{usage:?}");
    }
}
