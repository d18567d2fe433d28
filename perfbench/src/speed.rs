//! The host-speed probe that the end-to-end host times of single-threaded
//! operations are scaled by.
//!
//! A shared host runs this benchmark in fast and slow spells that last from
//! seconds to minutes: on a 2-vCPU Xeon VM the same `report` join took
//! 70–80 ms in one spell and 100–110 ms in the next, with no steal time and
//! no other process in the guest. A fixed probe — sorting the same 131,072
//! pseudo-random `u32`s, code that is not the engine's — slows down in the
//! same spells by about the same factor. So the benchmark runs the probe
//! between operations (at most every [`PERIOD`]) and reports each operation's
//! host time at a fixed reference speed: its measured time times
//! [`REF_PROBE_MS`] over the median of the probes taken around it. A change
//! to the engine moves the operation and not the probe, so it shows in full;
//! a spell of the host moves both, so it cancels out. The multi-threaded
//! `run_oltp` calls are not scaled: they do not slow down with the probe.

use std::time::{Duration, Instant};

use crate::stats::median;

/// The probe's time at the reference speed, ms: about its time in the fast
/// spells of a 2-vCPU Xeon VM. It only sets the scale.
pub const REF_PROBE_MS: f64 = 2.5;
/// Elements the probe sorts (512 KB).
const PROBE_LEN: usize = 131_072;
/// Shortest time between two probes, so they cost about 5% of a run.
const PERIOD: Duration = Duration::from_millis(50);
/// Probes on either side of an operation that set its local speed.
const WINDOW: usize = 7;

/// Host seconds of one operation, with the probes taken before it
/// (`..from`) and after it (`to..`).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub secs: f64,
    from: usize,
    to: usize,
}

/// The probe's samples over one run.
pub struct Speed {
    on: bool,
    samples: Vec<f64>,
    last: Instant,
    buf: Vec<u32>,
}

impl Speed {
    /// A probing clock, started with a window of probes.
    pub fn new() -> Speed {
        let mut s = Speed {
            on: true,
            samples: Vec::new(),
            last: Instant::now(),
            buf: Vec::with_capacity(PROBE_LEN),
        };
        for _ in 0..WINDOW {
            s.probe();
        }
        s
    }

    /// A clock that never probes and scales nothing, for phases compared
    /// with traced ones.
    pub fn off() -> Speed {
        Speed {
            on: false,
            samples: Vec::new(),
            last: Instant::now(),
            buf: Vec::new(),
        }
    }

    /// Times one probe: refill the buffer from a fixed xorshift stream, then
    /// sort it.
    fn probe(&mut self) {
        let mut x = 0x9E37_79B9u32;
        self.buf.clear();
        self.buf.extend((0..PROBE_LEN).map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        }));
        let t = Instant::now();
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Instant::now();
    }

    /// Probes if [`PERIOD`] has passed since the last probe.
    pub fn tick(&mut self) {
        if self.on && self.last.elapsed() >= PERIOD {
            self.probe();
        }
    }

    /// Runs `op`, timing it on the host, then ticks.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed) {
        let from = self.samples.len();
        let t = Instant::now();
        let out = op();
        let secs = t.elapsed().as_secs_f64();
        self.tick();
        let to = self.samples.len();
        (out, Timed { secs, from, to })
    }

    /// Ends a run with a window of probes, so its last operations have
    /// probes after them.
    pub fn finish(&mut self) {
        if self.on {
            for _ in 0..WINDOW {
                self.probe();
            }
        }
    }

    /// `t`'s host seconds at the reference speed; unscaled when off.
    pub fn scaled(&self, t: &Timed) -> f64 {
        if !self.on {
            return t.secs;
        }
        let lo = t.from.saturating_sub(WINDOW);
        let hi = (t.to + WINDOW).min(self.samples.len());
        t.secs * REF_PROBE_MS / median(&self.samples[lo..hi])
    }

    /// Median probe time over the run, ms; 0 when off.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }
}
