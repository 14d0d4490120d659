//! Run-relative clocks.
//!
//! All timestamps in the framework are microseconds since run start. The
//! paper requires synchronized clocks across components (§4.1, PTP); in
//! this single-process reproduction every component shares one [`Clock`]
//! handle, which is the strongest possible synchronization. [`ManualClock`]
//! makes simulated experiments fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Below this remaining wait [`Clock::wait_until`] spins instead of
/// sleeping, for microsecond-accurate wake-ups (the replayer's hybrid
/// pacing idiom).
const SPIN_THRESHOLD_MICROS: u64 = 1_000;

/// A source of run-relative time.
pub trait Clock: Send + Sync {
    /// Microseconds since run start.
    fn now_micros(&self) -> u64;

    /// Seconds since run start.
    fn now_secs(&self) -> f64 {
        self.now_micros() as f64 / 1e6
    }

    /// Blocks until the clock reads at least `target_micros`: sleeps while
    /// the remaining wait is long, then spins. Simulated clocks override
    /// this to advance themselves instead of waiting.
    fn wait_until(&self, target_micros: u64) {
        loop {
            let now = self.now_micros();
            if now >= target_micros {
                return;
            }
            let remaining = target_micros - now;
            if remaining > SPIN_THRESHOLD_MICROS {
                thread::sleep(Duration::from_micros(remaining - SPIN_THRESHOLD_MICROS / 2));
            } else {
                std::hint::spin_loop();
                thread::yield_now();
            }
        }
    }
}

/// Wall-clock time anchored at construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts a new run clock at the current instant.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A manually advanced clock for deterministic simulations and tests.
/// Cloning shares the underlying time.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances by the given number of microseconds.
    pub fn advance_micros(&self, delta: u64) {
        self.micros.fetch_add(delta, Ordering::SeqCst);
    }

    /// Advances by (fractional) seconds.
    pub fn advance_secs(&self, secs: f64) {
        self.advance_micros((secs * 1e6) as u64);
    }

    /// Sets the absolute time in microseconds.
    pub fn set_micros(&self, micros: u64) {
        self.micros.store(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }

    /// Jumps to `target_micros` (never backwards): in virtual time a wait
    /// costs nothing but the time itself.
    fn wait_until(&self, target_micros: u64) {
        self.micros.fetch_max(target_micros, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::start();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_controlled() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_micros(), 0);
        clock.advance_micros(500);
        assert_eq!(clock.now_micros(), 500);
        clock.advance_secs(1.5);
        assert_eq!(clock.now_micros(), 1_500_500);
        assert!((clock.now_secs() - 1.5005).abs() < 1e-9);
        clock.set_micros(10);
        assert_eq!(clock.now_micros(), 10);
    }

    #[test]
    fn manual_clock_wait_jumps_forward_only() {
        let clock = ManualClock::new();
        clock.wait_until(700);
        assert_eq!(clock.now_micros(), 700);
        clock.wait_until(300);
        assert_eq!(clock.now_micros(), 700, "a wait never rewinds the clock");
    }

    #[test]
    fn wall_clock_wait_reaches_the_target() {
        let clock = WallClock::start();
        let target = clock.now_micros() + 1_500;
        clock.wait_until(target);
        assert!(clock.now_micros() >= target);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let clock = ManualClock::new();
        let other = clock.clone();
        clock.advance_micros(42);
        assert_eq!(other.now_micros(), 42);
    }
}
