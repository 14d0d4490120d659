//! The experiment watchdog: stall detection and hard deadlines.
//!
//! A chaos experiment deliberately breaks the system mid-run — and a
//! broken platform must not be able to hang the harness. The `Watchdog`
//! watches *ingress progress* (graph events delivered by the replayer)
//! and the run clock; the run's observer loop checks it every
//! [`WatchdogConfig::poll_interval`] and raises a shared abort flag when
//! either
//!
//! * no progress has been made for [`WatchdogConfig::stall_timeout`], or
//! * the run has exceeded its hard [`WatchdogConfig::deadline`].
//!
//! The replayer polls that flag between entries (and inside scripted
//! pauses), stops early, and reports `aborted = true`; the run loop then
//! salvages everything sampled so far into the merged [`ResultLog`] and
//! surfaces a typed [`RunStatus`] instead of hanging forever.
//!
//! The abort is *cooperative*: it interrupts a replay that is slow or
//! paused, not a sink thread blocked forever inside a single `send`.
//! That second failure mode is prevented one layer down — the platform
//! channels fail fast when their consumer dies (crash containment), so a
//! killed worker surfaces as lost events, never as a wedged sender. The
//! watchdog is the defense-in-depth layer above it.
//!
//! [`ResultLog`]: gt_metrics::ResultLog

use std::time::Duration;

/// When the watchdog pulls the plug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Abort when the ingress counter has not moved for this long.
    /// Scripted pauses count as stalls too — raise this above the longest
    /// expected pause when replaying streams with `PAUSE` phases.
    pub stall_timeout: Duration,
    /// Hard bound on the whole replay, on the run clock; `None` means
    /// stall detection only.
    pub deadline: Option<Duration>,
    /// How often the observer loop checks the watchdog. Detection latency
    /// is at most one interval past the configured bounds.
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout: Duration::from_secs(10),
            deadline: None,
            poll_interval: Duration::from_millis(20),
        }
    }
}

impl WatchdogConfig {
    /// Stall detection with the given timeout, no deadline.
    pub fn stall_after(timeout: Duration) -> Self {
        WatchdogConfig {
            stall_timeout: timeout,
            ..Default::default()
        }
    }

    /// Adds a hard deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the poll interval (builder style).
    #[must_use]
    pub fn polling_every(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }
}

/// Why the watchdog aborted a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// Ingress made no progress for longer than the stall timeout.
    Stalled {
        /// How long the ingress counter sat still before the abort.
        stalled_for: Duration,
        /// Graph events delivered up to the stall.
        events_delivered: u64,
    },
    /// The run exceeded its hard deadline.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Graph events delivered when the deadline hit.
        events_delivered: u64,
    },
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Stalled {
                stalled_for,
                events_delivered,
            } => write!(
                f,
                "stalled: no ingress progress for {} ms ({} events delivered)",
                stalled_for.as_millis(),
                events_delivered
            ),
            AbortReason::DeadlineExceeded {
                deadline,
                events_delivered,
            } => write!(
                f,
                "deadline exceeded: {} ms elapsed ({} events delivered)",
                deadline.as_millis(),
                events_delivered
            ),
        }
    }
}

/// How a run ended: to completion, or cut short by the watchdog. Either
/// way the outcome carries a (possibly partial) report and merged log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The stream ran to its end.
    Completed,
    /// The watchdog aborted the run for the given reason.
    Aborted(AbortReason),
}

impl RunStatus {
    /// Whether the watchdog cut the run short.
    pub fn is_aborted(&self) -> bool {
        matches!(self, RunStatus::Aborted(_))
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStatus::Completed => write!(f, "completed"),
            RunStatus::Aborted(reason) => write!(f, "aborted ({reason})"),
        }
    }
}

/// The watchdog's state between checks: its bounds, when the run
/// started, and the last ingress progress it saw. It owns no thread: the
/// run's observer loop calls [`Watchdog::check`] every
/// [`WatchdogConfig::poll_interval`] of the run clock.
#[derive(Debug, Clone)]
pub(crate) struct Watchdog {
    config: WatchdogConfig,
    started_micros: u64,
    delivered: u64,
    last_change_micros: u64,
}

impl Watchdog {
    /// A watchdog over a run that started at `started_micros` with no
    /// event delivered yet.
    pub(crate) fn new(config: WatchdogConfig, started_micros: u64) -> Self {
        Watchdog {
            config,
            started_micros,
            delivered: 0,
            last_change_micros: started_micros,
        }
    }

    /// Looks at the run at `now_micros`, with `delivered` graph events
    /// delivered so far. Returns why the run must stop — no progress for
    /// [`WatchdogConfig::stall_timeout`], or the
    /// [`WatchdogConfig::deadline`] reached — or `None` to let it go on.
    pub(crate) fn check(&mut self, now_micros: u64, delivered: u64) -> Option<AbortReason> {
        if delivered != self.delivered {
            self.delivered = delivered;
            self.last_change_micros = now_micros;
        } else {
            let stalled_for = micros_between(self.last_change_micros, now_micros);
            if stalled_for >= self.config.stall_timeout {
                return Some(AbortReason::Stalled {
                    stalled_for,
                    events_delivered: delivered,
                });
            }
        }
        let deadline = self.config.deadline?;
        (micros_between(self.started_micros, now_micros) >= deadline).then_some(
            AbortReason::DeadlineExceeded {
                deadline,
                events_delivered: delivered,
            },
        )
    }
}

fn micros_between(from: u64, to: u64) -> Duration {
    Duration::from_micros(to.saturating_sub(from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::{Clock, ManualClock};

    const POLL: Duration = Duration::from_millis(20);

    /// Checks `watchdog` every poll interval of `clock` until it fires or
    /// `until` passes, with `delivered(now)` events delivered at each
    /// check. Returns the verdict and when it came.
    fn poll(
        watchdog: &mut Watchdog,
        clock: &ManualClock,
        until: Duration,
        delivered: impl Fn(u64) -> u64,
    ) -> Option<(u64, AbortReason)> {
        while clock.now_micros() < until.as_micros() as u64 {
            clock.advance_micros(POLL.as_micros() as u64);
            let now = clock.now_micros();
            if let Some(reason) = watchdog.check(now, delivered(now)) {
                return Some((now, reason));
            }
        }
        None
    }

    #[test]
    fn a_stall_fires_at_exactly_the_stall_timeout() {
        let clock = ManualClock::new();
        let config = WatchdogConfig::stall_after(Duration::from_millis(200)).polling_every(POLL);
        let mut watchdog = Watchdog::new(config, clock.now_micros());
        // One event per check up to 100 ms, then nothing: the stall is
        // counted from the last check that saw progress.
        let fired = poll(&mut watchdog, &clock, Duration::from_secs(5), |now| {
            (now / 20_000).min(5)
        });
        let (at, reason) = fired.expect("stall never detected");
        assert_eq!(at, 300_000, "200 ms after the last progress, at 100 ms");
        assert_eq!(
            reason,
            AbortReason::Stalled {
                stalled_for: Duration::from_millis(200),
                events_delivered: 5,
            }
        );
    }

    #[test]
    fn the_deadline_fires_at_exactly_the_deadline_while_progress_continues() {
        let clock = ManualClock::new();
        let config = WatchdogConfig::stall_after(Duration::from_millis(40))
            .with_deadline(Duration::from_millis(300))
            .polling_every(POLL);
        let mut watchdog = Watchdog::new(config, clock.now_micros());
        let fired = poll(&mut watchdog, &clock, Duration::from_secs(5), |now| {
            now / 1_000
        });
        let (at, reason) = fired.expect("deadline never fired");
        assert_eq!(at, 300_000);
        assert_eq!(
            reason,
            AbortReason::DeadlineExceeded {
                deadline: Duration::from_millis(300),
                events_delivered: 300,
            }
        );
    }

    #[test]
    fn steady_progress_never_fires() {
        let clock = ManualClock::new();
        let config = WatchdogConfig::stall_after(Duration::from_millis(40)).polling_every(POLL);
        let mut watchdog = Watchdog::new(config, clock.now_micros());
        // One event per check for a minute of run time.
        let fired = poll(&mut watchdog, &clock, Duration::from_secs(60), |now| {
            now / 20_000
        });
        assert_eq!(fired, None);
    }

    #[test]
    fn status_display_is_reportable() {
        let status = RunStatus::Aborted(AbortReason::Stalled {
            stalled_for: Duration::from_millis(1500),
            events_delivered: 42,
        });
        assert!(status.is_aborted());
        assert_eq!(
            status.to_string(),
            "aborted (stalled: no ingress progress for 1500 ms (42 events delivered))"
        );
        assert_eq!(RunStatus::Completed.to_string(), "completed");
    }
}
