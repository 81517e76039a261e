//! The benchmark's stopwatch, in *reference-clock* time.
//!
//! On the sandbox this benchmark runs in, the core clock flips between
//! two speeds a quarter apart, every few seconds to tens of seconds, for
//! reasons outside the guest. Everything measured here is cache-resident
//! compute, so a wall-clock timing is the work times whichever speed the
//! host happened to grant, and ten runs of unchanged code spread by 15
//! to 20 % (README.md has the measurements). A fixed, dependent
//! arithmetic loop tracks the speed to about one percent, so the
//! stopwatch times that loop beside the work and reports
//! `wall time x (reference loop time / loop time now)`: what the work
//! would have taken with the clock at the reference speed. The loop is
//! a chain of one-cycle operations, so this is a count of core cycles
//! written as time at `REFERENCE_GHZ`, the sandbox's highest turbo
//! step: at that step a reference second is a wall second, and on
//! another machine the two differ by a constant, which two commits
//! measured on it share.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SPIN_STEPS: u32 = 16 * 1024;
/// Three shifts and three xors, each waiting for the one before.
const CYCLES_PER_STEP: f64 = 6.0;
const REFERENCE_GHZ: f64 = 4.2;
/// What `spin` takes at the reference clock: 23.4 us. (The baseline
/// sandbox measures 23.42 us at its top step and 28 to 30 us, 3.3 to
/// 3.5 GHz, in its slow state.)
const REFERENCE_SPIN_NS: f64 = SPIN_STEPS as f64 * CYCLES_PER_STEP / REFERENCE_GHZ;
/// A speed reading older than this is taken again before it is used.
const MAX_AGE: Duration = Duration::from_millis(5);

/// A dependent shift-xor chain: no memory, nothing to vectorize or fold,
/// so its duration is a fixed number of core cycles. Returns wall ns.
fn spin() -> u64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_nanos() as u64
}

thread_local! {
    /// This thread's last speed reading and when it was taken.
    static SPEED: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

static READINGS: AtomicU64 = AtomicU64::new(0);
static SPEED_PPM_SUM: AtomicU64 = AtomicU64::new(0);

/// Reference nanoseconds per wall nanosecond, right now. The shortest
/// of three loops: an interrupt can only lengthen one.
fn read_speed() -> f64 {
    let shortest = (0..3).map(|_| spin()).min().expect("three loops").max(1);
    let speed = REFERENCE_SPIN_NS / shortest as f64;
    SPEED.set(Some((Instant::now(), speed)));
    READINGS.fetch_add(1, Ordering::Relaxed);
    SPEED_PPM_SUM.fetch_add((speed * 1e6) as u64, Ordering::Relaxed);
    speed
}

/// Mean of every speed reading any thread has taken: 1 when the whole
/// run had the reference clock, about 0.8 in the sandbox's slow state.
pub fn mean_speed() -> f64 {
    SPEED_PPM_SUM.load(Ordering::Relaxed) as f64
        / 1e6
        / READINGS.load(Ordering::Relaxed).max(1) as f64
}

thread_local! {
    /// The open segment of this thread's outermost running stopwatch:
    /// when it began, the speed then, and the reference nanoseconds of
    /// the segments already closed.
    static OUTERMOST: Cell<Option<(Instant, f64, f64)>> = const { Cell::new(None) };
}

pub struct Stopwatch {
    speed: f64,
    started: Instant,
    outermost: bool,
}

/// Starts timing; takes a fresh speed reading first if the last is stale.
pub fn start() -> Stopwatch {
    let speed = match SPEED.get() {
        Some((at, speed)) if at.elapsed() < MAX_AGE => speed,
        _ => read_speed(),
    };
    let started = Instant::now();
    let outermost = OUTERMOST.get().is_none();
    if outermost {
        OUTERMOST.set(Some((started, speed, 0.0)));
    }
    Stopwatch { speed, started, outermost }
}

/// Reference nanoseconds of `wall` that began at `speed_then`. Work that
/// outlasted its reading gets a second one, and their mean.
fn scaled(wall: Duration, speed_then: f64) -> (f64, f64) {
    let speed_now = if wall > MAX_AGE { read_speed() } else { speed_then };
    (wall.as_nanos() as f64 * (speed_then + speed_now) / 2.0, speed_now)
}

/// A good moment to read the speed again. Calls that run for a second
/// (building a table) place these between their steps, so the outermost
/// stopwatch follows a clock that changes under it; the readings
/// themselves stay outside what it measures.
pub fn checkpoint() {
    if let Some((began, speed, closed)) = OUTERMOST.get() {
        let wall = began.elapsed();
        if wall > MAX_AGE {
            let (ns, speed_now) = scaled(wall, speed);
            OUTERMOST.set(Some((Instant::now(), speed_now, closed + ns)));
        }
    }
}

impl Stopwatch {
    /// Reference nanoseconds since `start`.
    pub fn stop(self) -> u64 {
        match OUTERMOST.get() {
            Some((began, speed, closed)) if self.outermost => {
                (closed + scaled(began.elapsed(), speed).0) as u64
            }
            _ => scaled(self.started.elapsed(), self.speed).0 as u64,
        }
    }

    pub fn stop_seconds(self) -> f64 {
        self.stop() as f64 * 1e-9
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        if self.outermost {
            OUTERMOST.set(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stopwatch_reads_wall_time_scaled_by_a_plausible_speed() {
        let stopwatch = start();
        std::thread::sleep(Duration::from_millis(10));
        let ns = stopwatch.stop() as f64;
        let speed = mean_speed();
        // Two readings were taken (the sleep outlasts `MAX_AGE`); any
        // machine this runs on clocks between 0.4 and 8 GHz.
        assert!((0.1..2.0).contains(&speed), "speed {speed}");
        assert!(ns > 10e6 * 0.1 && ns < 100e6 * 2.0, "{ns} ns for a 10 ms sleep");
    }

    #[test]
    fn checkpoints_feed_the_outermost_stopwatch_only() {
        let outer = start();
        let inner = start();
        std::thread::sleep(Duration::from_millis(6));
        checkpoint();
        let (began, _, closed) = OUTERMOST.get().expect("the outer stopwatch is running");
        assert!(closed > 0.0 && began > outer.started);
        std::thread::sleep(Duration::from_millis(1));
        let (inner_ns, outer_ns) = (inner.stop(), outer.stop());
        assert!(OUTERMOST.get().is_none());
        // Both timed the same 7 ms; the outer one left its reading out.
        assert!(inner_ns > 0 && outer_ns > 0 && outer_ns < inner_ns * 2);
        drop(start());
        assert!(OUTERMOST.get().is_none(), "a dropped stopwatch lets go");
    }
}
