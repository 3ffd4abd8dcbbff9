//! The benchmark's one wall clock. Every timing in the benchmark goes
//! through [`Stopwatch`], so the host clock is read in exactly one place.

// The repository's clippy.toml bans the wall clock from the virtual-time
// simulator; the benchmark measures that simulator from outside.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`start`](Self::start), saturating at `u64::MAX`.
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.secs())
}
