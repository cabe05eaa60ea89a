//! The few Linux calls the standard library does not expose: waiting on
//! several sockets with a sub-millisecond timeout, tightening the timer
//! slack so the open-loop pacer wakes on time, and the process's peak
//! resident memory.

use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;

pub const POLLIN: c_short = 0x1;
pub const POLLOUT: c_short = 0x4;

#[repr(C)]
pub struct PollFd {
    fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    pub fn new(sock: &impl AsRawFd) -> Self {
        Self {
            fd: sock.as_raw_fd(),
            events: 0,
            revents: 0,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        tmo: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Waits until a socket in `fds` is ready or `timeout_ns` passes
/// (`None` waits indefinitely). Interrupted waits return early; callers
/// loop on their own clock.
pub fn wait(fds: &mut [PollFd], timeout_ns: Option<u64>) {
    let ts = timeout_ns.map(|ns| Timespec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    });
    let tmo = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and its length is passed with it; `tmo` is null or
    // points at `ts`, which outlives the call; a null sigmask keeps the
    // thread's mask.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            tmo,
            std::ptr::null(),
        )
    };
}

/// Asks the kernel to fire this thread's timers without the default
/// 50 µs slack, so a pacer sleeping until a due time wakes on it. Best
/// effort: a refusal only shows up as generator lag, which is reported.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// Restarts the peak resident set size count at the current size, so
/// `peak_rss_mib` covers what follows. Best effort: where the kernel
/// refuses, the peak stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
