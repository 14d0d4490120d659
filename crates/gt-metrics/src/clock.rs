//! Run-relative clocks.
//!
//! All timestamps in the framework are microseconds since run start. The
//! paper requires synchronized clocks across components (§4.1, PTP); in
//! this single-process reproduction every component shares one [`Clock`]
//! handle, which is the strongest possible synchronization. [`ManualClock`]
//! makes simulated experiments fully deterministic.
//!
//! A real-time wait ([`Clock::wait_until`]) sleeps on a fine-grained
//! timer until it is within the thread's *spin margin* of the deadline,
//! then spins out the rest. The margin is learned: it tracks how late
//! this thread's sleeps actually wake (the timer's wake-up error), so
//! the spin costs only what the timer cannot deliver.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The spin margin of a thread's first wait, nanoseconds: Linux's default
/// timer slack, which a thread not allowed a finer slack oversleeps by.
const INITIAL_MARGIN_NANOS: u64 = 50_000;
/// Bounds of the spin margin, nanoseconds.
const MIN_MARGIN_NANOS: u64 = 2_000;
const MAX_MARGIN_NANOS: u64 = 1_000_000;

thread_local! {
    /// This thread's spin margin, nanoseconds; 0 before its first
    /// real-time wait (which also tightens its timer slack).
    static SPIN_MARGIN_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// The spin margin after one wait: `margin` decayed by 1/64, raised to
/// the oversleep that wait observed (0 if it did not sleep), and clamped
/// to [2 µs, 1 ms]. The decay is what lets a margin that one slow wake
/// raised come back down when every later wait is too short to sleep in,
/// and so observes nothing.
fn next_spin_margin(margin_nanos: u64, oversleep_nanos: u64) -> u64 {
    (margin_nanos - margin_nanos / 64)
        .max(oversleep_nanos)
        .clamp(MIN_MARGIN_NANOS, MAX_MARGIN_NANOS)
}

/// Sets the calling thread's timer slack to 1 ns, so a sleep wakes when
/// it asked to rather than up to 50 µs (the default slack) later. Other
/// targets keep their default; the learned margin absorbs it.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, arg2: c_ulong, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack; a failure leaves the
    // default slack, which the learned margin absorbs.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// A source of run-relative time.
pub trait Clock: Send + Sync {
    /// Microseconds since run start.
    fn now_micros(&self) -> u64;

    /// Seconds since run start.
    fn now_secs(&self) -> f64 {
        self.now_micros() as f64 / 1e6
    }

    /// Blocks until the clock reads at least `target_micros`: sleeps until
    /// the thread's spin margin (the timer's measured wake-up error) is
    /// left, then spins. Simulated clocks override this to advance
    /// themselves instead of waiting.
    fn wait_until(&self, target_micros: u64) {
        SPIN_MARGIN_NANOS.with(|cell| {
            let margin = match cell.get() {
                0 => {
                    tighten_timer_slack();
                    INITIAL_MARGIN_NANOS
                }
                margin => margin,
            };
            let mut oversleep = 0;
            loop {
                let now = self.now_micros();
                if now >= target_micros {
                    break;
                }
                let remaining = (target_micros - now).saturating_mul(1_000);
                if remaining > margin {
                    let nap = Duration::from_nanos(remaining - margin);
                    let asleep = Instant::now();
                    thread::sleep(nap);
                    let late = asleep.elapsed().saturating_sub(nap).as_nanos() as u64;
                    oversleep = oversleep.max(late);
                } else {
                    std::hint::spin_loop();
                    thread::yield_now();
                }
            }
            cell.set(next_spin_margin(margin, oversleep));
        });
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

    #[test]
    fn spin_margin_rises_to_an_observed_oversleep() {
        assert_eq!(next_spin_margin(10_000, 37_000), 37_000);
        // A wake within the margin only decays it.
        assert_eq!(next_spin_margin(64_000, 5_000), 63_000);
    }

    #[test]
    fn spin_margin_decays_under_20us_within_a_few_hundred_waits_of_a_spike() {
        let mut margin = next_spin_margin(INITIAL_MARGIN_NANOS, 1_500_000);
        assert_eq!(margin, MAX_MARGIN_NANOS, "a 1.5 ms spike clamps at 1 ms");
        let mut waits = 0;
        while margin >= 20_000 {
            // Sleeps that wake 5 µs late keep happening meanwhile.
            margin = next_spin_margin(margin, 5_000);
            waits += 1;
        }
        assert!(waits <= 300, "{waits} waits to decay");
    }

    #[test]
    fn spin_margin_stays_within_its_bounds() {
        let mut margin = INITIAL_MARGIN_NANOS;
        let oversleeps = [0, 1, 999, 2_000, 40_000, 999_999, 1_000_001, u64::MAX];
        for i in 0..10_000 {
            // Every third wait did not sleep.
            let oversleep = if i % 3 == 0 {
                0
            } else {
                oversleeps[i % oversleeps.len()]
            };
            margin = next_spin_margin(margin, oversleep);
            assert!((MIN_MARGIN_NANOS..=MAX_MARGIN_NANOS).contains(&margin));
        }
        for _ in 0..10_000 {
            margin = next_spin_margin(margin, 0);
        }
        assert_eq!(margin, MIN_MARGIN_NANOS, "no oversleep decays to the floor");
    }

    /// At 1 ms every wait shorter than the margin spins and observes no
    /// oversleep; the decay alone must bring the margin back under such
    /// a wait so sleeping (and observing) resumes.
    #[test]
    fn spin_margin_cannot_stick_at_the_ceiling_when_every_wait_is_shorter() {
        const GAP_NANOS: u64 = 13_000;
        let mut margin = MAX_MARGIN_NANOS;
        let mut waits = 0;
        while margin >= GAP_NANOS {
            margin = next_spin_margin(margin, 0);
            waits += 1;
            assert!(waits < 1_000, "margin stuck at {margin} ns");
        }
    }

    /// CPU time the calling thread has used, nanoseconds.
    #[cfg(target_os = "linux")]
    fn thread_cpu_nanos() -> u64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) and the clock id is a kernel constant.
        assert_eq!(
            unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) },
            0
        );
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    /// Waits on 13 µs-mean Poisson gaps — one client of a 150k events/s
    /// run — must be on time without spinning through the whole gap.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "wall-clock wait precision and CPU; run via the CI timing job"]
    fn wall_clock_waits_are_punctual_without_spinning_through_the_gap() {
        const WAITS: usize = 2_000;
        const MEAN_GAP_MICROS: f64 = 13.0;
        let clock = WallClock::start();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut lateness = Vec::with_capacity(WAITS);
        let cpu_start = thread_cpu_nanos();
        let wall_start = Instant::now();
        let mut target = clock.now_micros();
        for _ in 0..WAITS {
            // xorshift64 → uniform (0, 1] → exponential gap.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let uniform = ((rng >> 11) + 1) as f64 / (1u64 << 53) as f64;
            target += (-uniform.ln() * MEAN_GAP_MICROS).round() as u64;
            clock.wait_until(target);
            let now = clock.now_micros();
            assert!(now >= target, "woke at {now} before {target}");
            lateness.push(now - target);
        }
        let cpu = thread_cpu_nanos() - cpu_start;
        let wall = wall_start.elapsed().as_nanos() as u64;
        lateness.sort_unstable();
        let p99 = lateness[WAITS * 99 / 100];
        let cpu_frac = cpu as f64 / wall as f64;
        println!(
            "p99 lateness {p99} us, thread CPU {:.0} % of wall",
            cpu_frac * 100.0
        );
        assert!(p99 <= 50, "p99 lateness {p99} us");
        assert!(
            cpu_frac <= 0.7,
            "thread CPU {:.0} % of wall",
            cpu_frac * 100.0
        );
    }
}
