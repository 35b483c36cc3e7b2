//! Resident-set readings of this process, from `/proc/self/status`.
//!
//! The peak (`VmHWM`) can be reset to the current resident size through
//! `/proc/self/clear_refs`, so the growth of the peak during one operation
//! is measured on its own.  Before each reading the allocator returns its
//! free pages to the kernel, so memory freed by an earlier operation does
//! not hide the next operation's growth.

use std::fs;

/// The value of a `kB` line such as `VmRSS:  1300 kB` in a status text,
/// in bytes.
pub fn status_bytes(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

fn read(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_bytes(&status, key).unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}

/// Current resident set size, bytes.
pub fn rss() -> u64 {
    read("VmRSS")
}

/// Peak resident set size since start or the last [`reset_peak`], bytes.
pub fn peak() -> u64 {
    read("VmHWM")
}

/// Returns free heap pages to the kernel, then resets the peak to the
/// current resident size.  Returns that resident size.
pub fn reset_peak() -> u64 {
    trim_heap();
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
    rss()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point; it takes no pointers
    // and only releases free pages of the allocator this process links.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_lines_into_bytes() {
        let status = "Name:\tperfbench\nVmHWM:\t    2048 kB\nVmRSS:\t    1300 kB\nThreads:\t1\n";
        assert_eq!(status_bytes(status, "VmRSS"), Some(1300 * 1024));
        assert_eq!(status_bytes(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(status_bytes(status, "VmSwap"), None);
        assert_eq!(status_bytes(status, "Threads"), None, "not a kB line");
        assert_eq!(
            status_bytes("VmRSSX: 1 kB", "VmRSS"),
            None,
            "prefix of another key"
        );
    }

    #[test]
    fn peak_tracks_growth_after_a_reset() {
        let before = reset_peak();
        assert!(before > 0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let grown = peak().saturating_sub(before);
        drop(block);
        assert!(grown >= 60 << 20, "peak grew by only {grown} bytes");
        assert!(peak() >= rss());
    }
}
