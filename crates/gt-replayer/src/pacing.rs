//! Deadline-based rate control.
//!
//! "Emitting stream events is handled by a dedicated thread that uses high
//! precision timestamps and busy-waiting for timeliness" (§5.1). A plain
//! `sleep` per event caps out far below the paper's 320k events/s targets
//! (timer granularity) and drifts; [`PacerCore`] instead tracks an
//! absolute next-emission deadline, so a late wake-up shortens the next
//! wait instead of shifting every later event.
//!
//! [`PacerCore`] is pure over replay-relative nanoseconds — no clock
//! reads, no sleeping — so SPEED / PAUSE / stall scenarios are testable
//! deterministically. The emitter of a [`crate::ReplaySession`] reads
//! "now" from the run's [`gt_metrics::Clock`] and blocks with
//! [`gt_metrics::Clock::wait_until`]
//! (sleep on a 1 ns-slack timer until the thread's learned spin margin —
//! the timer's measured wake-up error — is left, then spin for that
//! margin only): one time base and one wait for the whole instrument, and
//! virtual time on a `ManualClock`.

use crate::pattern::CompiledPattern;

/// How far behind schedule the pacer may fall before it re-anchors the
/// deadline to "now" instead of bursting to catch up.
const RE_ANCHOR_NANOS: u64 = 100_000_000; // 100 ms

/// One scheduling decision from [`PacerCore::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// How long to wait before emitting (0 when already at/past the
    /// deadline).
    pub wait_nanos: u64,
    /// How far past its deadline this emission is (0 when on time).
    pub lateness_nanos: u64,
}

/// Pure deadline arithmetic over replay-relative nanoseconds.
///
/// Holds the base interval, the current `SPEED` factor, and the absolute
/// next-emission deadline; [`Self::schedule`] takes "now" as a plain
/// number and never blocks, so every pacing policy — mid-stream speed
/// changes, bounded catch-up after a stall, `PAUSE` re-anchoring — is a
/// deterministic function of its inputs.
#[derive(Debug, Clone)]
pub(crate) struct PacerCore {
    /// Nanoseconds between events at speed factor 1.
    base_interval_nanos: f64,
    /// Current speed multiplier (from `SPEED` control events).
    speed: f64,
    next_deadline_nanos: u64,
    /// Optional rate-variability shape (§4.4): a time-varying multiplier
    /// on top of base rate × SPEED. `None` is the paper's uniform pacing.
    pattern: Option<CompiledPattern>,
}

impl PacerCore {
    /// A core targeting `rate` events per second, first deadline at 0.
    ///
    /// # Panics
    /// If `rate` is not positive and finite.
    pub(crate) fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        PacerCore {
            base_interval_nanos: 1e9 / rate,
            speed: 1.0,
            next_deadline_nanos: 0,
            pattern: None,
        }
    }

    /// Attaches a compiled rate pattern: every scheduled interval is
    /// divided by the pattern's multiplier at the slot's deadline, so the
    /// emitted rate follows the shape (diurnal wave, burst train, flash
    /// crowd) while SPEED control events still scale on top.
    pub(crate) fn with_pattern(mut self, pattern: CompiledPattern) -> Self {
        self.pattern = if pattern.is_uniform() {
            None
        } else {
            Some(pattern)
        };
        self
    }

    /// Applies a `SPEED` control factor (1.0 restores the base rate).
    ///
    /// Invalid factors — zero, negative, NaN, infinite — are ignored and
    /// the previous speed is kept. The pacer is the last line of defense
    /// behind parse-time and replay-time validation, and a bad factor
    /// must degrade to "unchanged", never to the `u64::MAX`-nanosecond
    /// interval the old saturating cast produced (a permanent stall).
    pub(crate) fn set_speed(&mut self, factor: f64) {
        if factor.is_finite() && factor > 0.0 {
            self.speed = factor;
        }
    }

    /// The current inter-event interval in nanoseconds, clamped to a
    /// finite, representable value. `set_speed` already rejects invalid
    /// factors, so the clamp only matters as defense in depth — a
    /// non-finite quotient must not saturate the `as u64` cast into a
    /// ~585-year interval.
    fn interval_nanos(&self) -> u64 {
        self.interval_nanos_at(self.next_deadline_nanos)
    }

    /// The inter-event interval in force at run-relative time `t_nanos`:
    /// base interval ÷ (speed × pattern multiplier), clamped to a finite,
    /// representable value.
    fn interval_nanos_at(&self, t_nanos: u64) -> u64 {
        let multiplier = self
            .pattern
            .as_ref()
            .map_or(1.0, |p| p.multiplier_at_micros(t_nanos / 1_000));
        let interval = self.base_interval_nanos / (self.speed * multiplier);
        if interval.is_finite() && interval >= 0.0 {
            interval as u64
        } else {
            1
        }
    }

    /// Decides the wait for the next emission given the current
    /// run-relative time, and advances the deadline by one interval.
    ///
    /// Behind schedule (deadline in the past) the wait is zero and the
    /// lateness positive, letting the caller catch up in a burst; more
    /// than `RE_ANCHOR_NANOS` (100 ms) behind, the deadline snaps to `now` so
    /// the burst stays bounded (a 20 s `PAUSE` must not be followed by
    /// 20 s × rate instantaneous events).
    pub(crate) fn schedule(&mut self, now_nanos: u64) -> Schedule {
        let decision = if self.next_deadline_nanos > now_nanos {
            Schedule {
                wait_nanos: self.next_deadline_nanos - now_nanos,
                lateness_nanos: 0,
            }
        } else {
            let behind = now_nanos - self.next_deadline_nanos;
            if behind > RE_ANCHOR_NANOS {
                self.next_deadline_nanos = now_nanos;
            }
            Schedule {
                wait_nanos: 0,
                lateness_nanos: behind,
            }
        };
        self.next_deadline_nanos += self.interval_nanos();
        decision
    }

    /// Re-anchors the deadline to `now` + one interval (used after
    /// `PAUSE`).
    pub(crate) fn reset(&mut self, now_nanos: u64) {
        self.next_deadline_nanos = now_nanos + self.interval_nanos_at(now_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- Deterministic core tests: no clocks, no sleeping. ----

    /// Helper: one event per `schedule` call at the given synthetic time.
    fn sched(core: &mut PacerCore, now_nanos: u64) -> Schedule {
        core.schedule(now_nanos)
    }

    #[test]
    fn deadlines_advance_by_exact_intervals() {
        // 1 kHz → 1 ms interval. An ideal emitter that always arrives
        // exactly on its deadline sees a full-interval wait for event 1
        // onward and zero lateness throughout.
        let mut core = PacerCore::new(1_000.0);
        core.reset(0);
        let mut t = 0u64;
        for i in 1..=5u64 {
            let s = sched(&mut core, t);
            assert_eq!(s.lateness_nanos, 0, "event {i}");
            assert_eq!(s.wait_nanos, i * 1_000_000 - t, "event {i}");
            t += s.wait_nanos; // arrive exactly on the deadline
        }
        assert_eq!(t, 5_000_000, "5 events at 1 kHz take exactly 5 ms");
    }

    #[test]
    fn mid_stream_speed_change_rescales_later_deadlines() {
        // SPEED control event arriving mid-stream: deadlines already
        // issued keep their spacing; subsequent ones use the new interval.
        let mut core = PacerCore::new(1_000.0); // 1 ms
        core.reset(0);
        let s1 = sched(&mut core, 0);
        assert_eq!(s1.wait_nanos, 1_000_000);

        core.set_speed(2.0); // SPEED,,2 → 0.5 ms interval
        assert_eq!(core.speed, 2.0);
        // The slot at 2 ms was issued before the speed change and keeps
        // its old spacing; the one scheduled now uses the new interval.
        let s2 = sched(&mut core, 1_000_000);
        assert_eq!(s2.wait_nanos, 1_000_000, "pre-change slot unchanged");
        let s3 = sched(&mut core, 2_000_000);
        assert_eq!(s3.wait_nanos, 500_000, "first doubled-rate gap");
        let s4 = sched(&mut core, 2_500_000);
        assert_eq!(s4.wait_nanos, 500_000, "steady doubled-rate gap");

        core.set_speed(1.0); // SPEED,,1 → back to 1 ms
        let s5 = sched(&mut core, 3_000_000);
        assert_eq!(s5.wait_nanos, 500_000, "pre-change slot unchanged");
        let s6 = sched(&mut core, 3_500_000);
        assert_eq!(s6.wait_nanos, 1_000_000, "base-rate gap restored");
    }

    #[test]
    fn pause_resets_instead_of_bursting() {
        // PAUSE,,20000 semantics: the replayer waits, then calls reset.
        // The next deadline is one interval after the pause end — no
        // catch-up burst for the paused span.
        let mut core = PacerCore::new(1_000.0);
        core.reset(0);
        sched(&mut core, 0);
        // 20 ms pause ends at t = 21 ms (one emission happened at 1 ms).
        core.reset(21_000_000);
        let s = sched(&mut core, 21_000_000);
        assert_eq!(s.wait_nanos, 1_000_000);
        assert_eq!(s.lateness_nanos, 0);
    }

    #[test]
    fn short_stall_catches_up_with_full_burst() {
        // A sink stall shorter than the re-anchor threshold: every missed
        // slot is emitted immediately (wait 0) with growing-then-shrinking
        // lateness until the schedule is caught up.
        let mut core = PacerCore::new(1_000.0);
        core.reset(0);
        sched(&mut core, 0); // deadline 1 ms scheduled
                             // The emitter stalls 50 ms: next call happens at t = 51 ms, with
                             // deadlines 2, 3, 4, … ms long past.
        let s = sched(&mut core, 51_000_000);
        assert_eq!(s.wait_nanos, 0);
        assert_eq!(s.lateness_nanos, 49_000_000, "49 ms late vs 2 ms slot");
        // Burst: catch-up events fire back-to-back, each one interval
        // less late, until the deadline passes "now".
        let mut t = 51_000_000u64;
        let mut last_lateness = s.lateness_nanos;
        let mut burst = 0;
        loop {
            let s = sched(&mut core, t);
            if s.wait_nanos > 0 {
                break;
            }
            assert!(s.lateness_nanos < last_lateness, "lateness must shrink");
            last_lateness = s.lateness_nanos;
            t += 1_000; // 1 µs per emission while bursting
            burst += 1;
        }
        // ~49 missed slots replayed in the burst.
        assert!((45..=55).contains(&burst), "burst of {burst} events");
    }

    #[test]
    fn long_stall_re_anchors_and_bounds_the_burst() {
        // Behind by more than RE_ANCHOR_NANOS: the core snaps the
        // schedule to "now" — a 1 MHz pacer stalled for 1 s must NOT burst
        // a million events.
        let mut core = PacerCore::new(1_000_000.0);
        core.reset(0);
        sched(&mut core, 0);
        let s = sched(&mut core, 1_000_000_000); // 1 s stall
        assert_eq!(s.wait_nanos, 0);
        assert!(s.lateness_nanos > 999_000_000, "reported the full stall");
        // Immediately after: the deadline is now + 1 µs, so the next event
        // waits — no second free slot.
        let s = sched(&mut core, 1_000_000_001);
        assert_eq!(s.wait_nanos, 999);
        assert_eq!(s.lateness_nanos, 0);
    }

    #[test]
    fn speed_change_during_catch_up_applies_to_new_slots() {
        // Mid-burst SPEED change: already-missed slots still fire
        // immediately, and the schedule continues at the new interval.
        let mut core = PacerCore::new(1_000.0);
        core.reset(0);
        sched(&mut core, 0);
        let s = sched(&mut core, 6_000_000); // 4 ms behind, below threshold
        assert_eq!(s.wait_nanos, 0);
        assert_eq!(s.lateness_nanos, 4_000_000);
        core.set_speed(4.0); // 0.25 ms interval from here on
        let mut t = 6_000_000u64;
        let mut free = 0;
        loop {
            let s = sched(&mut core, t);
            if s.wait_nanos > 0 {
                // Caught up: gaps now follow the 4x interval.
                assert!(s.wait_nanos <= 250_000, "wait {}", s.wait_nanos);
                break;
            }
            t += 1_000;
            free += 1;
        }
        // The 3 ms deficit (deadline was at 3 ms when the speed changed)
        // at 0.25 ms/slot yields ~13 catch-up slots — more than the ~3
        // the base interval would have produced.
        assert!((11..=15).contains(&free), "caught up in {free} slots");
    }

    #[test]
    fn speed_factor_scales_rate() {
        let mut pacer = PacerCore::new(1_000.0);
        assert_eq!(pacer.speed, 1.0);
        pacer.set_speed(2.0);
        assert_eq!(pacer.speed, 2.0);
        pacer.set_speed(0.5);
        assert_eq!(pacer.speed, 0.5);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        PacerCore::new(0.0);
    }

    #[test]
    fn invalid_speed_factors_are_ignored() {
        // Regression: `set_speed` used to panic on these, and before that
        // a zero/negative/NaN factor flowed into `interval_nanos` where
        // the saturating `as u64` cast produced a u64::MAX-nanosecond
        // interval — a replay stalled for ~585 years.
        let mut core = PacerCore::new(1_000.0);
        core.set_speed(2.0);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            core.set_speed(bad);
            assert_eq!(core.speed, 2.0, "factor {bad} must be ignored");
        }
        // The schedule keeps advancing at the last valid speed: the next
        // slot is half a base interval away, not u64::MAX nanoseconds.
        core.reset(0);
        let s = core.schedule(0);
        assert_eq!(s.wait_nanos, 500_000);
    }

    #[test]
    fn flash_crowd_pattern_compresses_intervals_during_the_surge() {
        // 1 kHz base rate with a 4x flash crowd from t=10ms for 10ms
        // (scaled-down pattern): slots before the surge are 1 ms apart,
        // slots inside it 0.25 ms apart, slots after it 1 ms again.
        use crate::pattern::RatePattern;
        let pattern = RatePattern::FlashCrowd {
            at_secs: 0.010,
            factor: 4.0,
            hold_secs: 0.010,
        }
        .compile(0);
        let mut core = PacerCore::new(1_000.0).with_pattern(pattern);
        core.reset(0);
        let mut t = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..60 {
            let s = sched(&mut core, t);
            gaps.push(s.wait_nanos);
            t += s.wait_nanos; // ideal emitter: arrive exactly on deadline
        }
        assert_eq!(gaps[0], 1_000_000, "base-rate gap before the surge");
        assert!(
            gaps.iter().filter(|&&g| g == 250_000).count() >= 30,
            "surge slots at the 4x interval: {gaps:?}"
        );
        assert_eq!(
            *gaps.last().unwrap(),
            1_000_000,
            "base-rate gap restored after the surge: {gaps:?}"
        );
    }

    #[test]
    fn uniform_pattern_changes_nothing() {
        use crate::pattern::RatePattern;
        let mut plain = PacerCore::new(1_000.0);
        let mut shaped = PacerCore::new(1_000.0).with_pattern(RatePattern::Uniform.compile(9));
        plain.reset(0);
        shaped.reset(0);
        let mut t = 0u64;
        for _ in 0..10 {
            let a = sched(&mut plain, t);
            let b = sched(&mut shaped, t);
            assert_eq!(a, b);
            t += a.wait_nanos;
        }
    }

    #[test]
    fn speed_control_scales_on_top_of_the_pattern() {
        // SPEED,,2 during a 4x surge: the interval is base / (2 × 4).
        use crate::pattern::RatePattern;
        let pattern = RatePattern::FlashCrowd {
            at_secs: 0.0,
            factor: 4.0,
            hold_secs: 1_000.0,
        }
        .compile(0);
        let mut core = PacerCore::new(1_000.0).with_pattern(pattern);
        core.set_speed(2.0);
        core.reset(0);
        let s = sched(&mut core, 0);
        assert_eq!(s.wait_nanos, 125_000);
    }

    #[test]
    fn interval_clamp_survives_non_finite_quotients() {
        // Defense in depth: even with the speed forced into an invalid
        // state (bypassing set_speed), the interval must stay finite.
        let mut core = PacerCore::new(1_000.0);
        core.speed = 0.0; // quotient = +inf
        assert_eq!(core.interval_nanos(), 1);
        core.speed = f64::NAN;
        assert_eq!(core.interval_nanos(), 1);
        core.speed = -1.0; // quotient negative
        assert_eq!(core.interval_nanos(), 1);
    }
}
