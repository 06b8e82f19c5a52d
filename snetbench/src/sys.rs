//! What the benchmark reads from the operating system: process and
//! thread CPU time and context switches (`getrusage`), and memory and
//! thread counts (`/proc/self/status`).

use std::time::Duration;

/// CPU time and context switches of the process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu: Duration,
    pub ctx_switches: u64,
}

impl Usage {
    /// The usage accrued between `earlier` and `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux's `struct rusage` on 64-bit targets: two timevals and
/// fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
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

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

const RUSAGE_SELF: i32 = 0;

/// Usage of the whole process, threads that already exited included.
pub fn process() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` for
    // 64-bit Linux, and RUSAGE_SELF is a value the kernel accepts;
    // getrusage writes only into that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
    Usage {
        cpu: tv(&ru.utime) + tv(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

/// CPU time the calling thread has used, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a properly aligned, writable `struct timespec`
    // for 64-bit Linux, and the thread CPU clock always exists.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Cuts the calling thread's timer slack from the default 50 µs to
/// 1 ns, so its sleeps end when asked rather than up to 50 µs late.
pub fn precise_sleep() {
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and changes only
    // the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
}

/// Name prefix of sacarray's pool worker threads (`sacarray-worker-N`,
/// cut to the kernel's 15-byte thread names).
pub const SAC_POOL_THREAD: &str = "sacarray-worker";

/// CPU time used so far by the live threads whose name starts with
/// `prefix`, from `/proc/self/task/*/stat` (clock-tick resolution).
pub fn named_threads_cpu(prefix: &str) -> Duration {
    // SAFETY: sysconf reads a constant of the C library; no memory is
    // passed.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue; // the thread exited meanwhile
        };
        // `pid (comm) state ...`: comm may hold spaces, so split at
        // the last parenthesis; utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(11) + field(12);
    }
    Duration::from_secs_f64(ticks as f64 / ticks_per_s)
}

/// One `kB` or plain-number field of `/proc/self/status`.
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {name} field"))
}

/// Peak resident set size of the process, MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Current resident set size of the process, MB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS") as f64 / 1024.0
}

/// Live threads of the process.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work_and_status_parses() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_cpu_ns() - before >= 10_000_000);
        std::thread::Builder::new()
            .name("snetbench-probe".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                while t.elapsed() < Duration::from_millis(50) {
                    std::hint::spin_loop();
                }
                assert!(named_threads_cpu("snetbench-pro") >= Duration::from_millis(20));
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(named_threads_cpu("no-such-thread"), Duration::ZERO);
        assert!(process().cpu.as_nanos() as u64 >= thread_cpu_ns());
        assert!(peak_rss_mb() >= rss_mb() && rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
