//! Resident-set readings from `/proc/self`.
//!
//! A path's memory is its peak RSS growth from the start of its set-up to
//! the end of its timed phase. Inputs are generated before any set-up
//! starts, so they sit in the baseline and are excluded.

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set, KiB.
fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set since the last [`reset_peak`], KiB.
fn peak_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Resets the peak to the current resident set, so input generation before
/// set-up does not count. Without `/proc/self/clear_refs` the peak stays
/// process-wide, which can only overstate the growth.
fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One path's peak RSS growth, measured from its creation.
pub struct Growth {
    before_kb: u64,
}

impl Growth {
    pub fn start() -> Self {
        reset_peak();
        Growth {
            before_kb: rss_kb(),
        }
    }

    pub fn mb(&self) -> f64 {
        peak_kb().saturating_sub(self.before_kb) as f64 / 1024.0
    }
}
