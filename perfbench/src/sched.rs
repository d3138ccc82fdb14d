//! Open-loop schedules and the sustainable-rate ladder.
//!
//! An open-loop generator sends command `i` at its due time
//! `start + i / rate`, whether or not earlier commands were answered, and
//! times each command from that due time — so a stall is charged to every
//! command queued behind it, not only to the one that hit it. How late the
//! generator itself ran is reported separately as a validity check.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of due times.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "schedule rate must be positive");
        Schedule {
            start,
            period_ns: 1e9 / rate_per_s,
        }
    }

    /// Offset of the `i`-th due time from the start.
    pub fn offset(&self, i: u64) -> Duration {
        Duration::from_nanos((i as f64 * self.period_ns) as u64)
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset(i)
    }

    /// Number of commands due strictly before `start + elapsed`.
    pub fn due_by(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() as f64 / self.period_ns).ceil() as u64
    }
}

/// Latency charged to a command: from its due time to its completion.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Lateness of the generator: how far after its due time a command left.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Sleeps until shortly before `due`, then spins to it, so a due time is
/// met to within a few microseconds without burning a core between due
/// times. Returns the moment the caller may act. Call
/// [`tighten_timer_slack`] once on the thread first.
pub fn wait_until(due: Instant) -> Instant {
    const SPIN: Duration = Duration::from_micros(20);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Asks Linux to wake this thread from sleeps within a microsecond instead
/// of the default 50 us timer slack, so a schedule's wake-ups are not
/// coarsened. Without it the reader's wake-ups run late by the slack.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2 and ignores the
    // rest; it changes only the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate over all connections, commands per second.
    pub offered_cps: f64,
    /// Tail latency from due time, microseconds.
    pub p99_us: f64,
    /// Commands due but not yet answered at the rung's midpoint.
    pub backlog_mid: u64,
    /// Commands due but not yet answered at the rung's end.
    pub backlog_end: u64,
}

impl Rung {
    /// The backlog grows when the second half of the rung ends with more
    /// than twice the midpoint's outstanding work plus what a system
    /// meeting the latency limit may legitimately hold in flight.
    pub fn backlog_grows(&self, p99_limit_us: f64) -> bool {
        let in_limit = (self.offered_cps * p99_limit_us / 1e6).ceil() as u64;
        self.backlog_end > 2 * self.backlog_mid + in_limit
    }

    pub fn sustainable(&self, p99_limit_us: f64) -> bool {
        self.p99_us < p99_limit_us && !self.backlog_grows(p99_limit_us)
    }
}

/// The highest offered rate of the ladder whose tail latency stays under
/// the limit and whose backlog does not grow; `None` when no rung passes.
pub fn max_sustainable(rungs: &[Rung], p99_limit_us: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|rung| rung.sustainable(p99_limit_us))
        .map(|rung| rung.offered_cps)
        .fold(None, |best: Option<f64>, cps| {
            Some(best.map_or(cps, |b| b.max(cps)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_start() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 2_000.0);
        assert_eq!(schedule.offset(0), Duration::ZERO);
        assert_eq!(schedule.offset(1), Duration::from_micros(500));
        assert_eq!(schedule.offset(2_000), Duration::from_secs(1));
        assert_eq!(schedule.due(4), start + Duration::from_millis(2));
        assert_eq!(schedule.due_by(Duration::from_millis(1)), 2);
        assert_eq!(schedule.due_by(Duration::from_micros(1_001)), 3);
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3);
        let done = sent + Duration::from_millis(1);
        // A command sent 3 ms late and answered 1 ms later waited 4 ms.
        assert_eq!(latency_from_due(due, done), Duration::from_millis(4));
        assert_eq!(lateness(due, sent), Duration::from_millis(3));
        // Early completions (clock granularity) never go negative.
        assert_eq!(latency_from_due(done, due), Duration::ZERO);
    }

    #[test]
    fn wait_until_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(2);
        assert!(wait_until(due) >= due);
    }

    fn rung(cps: f64, p99_us: f64, mid: u64, end: u64) -> Rung {
        Rung {
            offered_cps: cps,
            p99_us,
            backlog_mid: mid,
            backlog_end: end,
        }
    }

    #[test]
    fn growing_backlog_fails_a_rung_even_with_low_latency() {
        // 10k cmd/s with a 1 ms limit may hold 10 commands in flight.
        assert!(!rung(10_000.0, 500.0, 4, 18).backlog_grows(1_000.0));
        assert!(rung(10_000.0, 500.0, 4, 19).backlog_grows(1_000.0));
        assert!(!rung(10_000.0, 500.0, 4, 19).sustainable(1_000.0));
    }

    #[test]
    fn ladder_takes_the_highest_passing_rung() {
        let ladder = [
            rung(1_000.0, 800.0, 1, 1),
            rung(2_000.0, 900.0, 1, 2),
            rung(4_000.0, 5_000.0, 1, 2),  // too slow
            rung(8_000.0, 700.0, 10, 900), // backlog grows
        ];
        assert_eq!(max_sustainable(&ladder, 1_000.0), Some(2_000.0));
        assert_eq!(max_sustainable(&ladder[2..], 1_000.0), None);
        assert_eq!(max_sustainable(&[], 1_000.0), None);
    }
}
