//! Corrections for the machine: its single-thread speed, which app
//! timings are scaled by, and CPU steal, which every timing is
//! corrected for.
//!
//! On the shared VM this benchmark was sized on, single-thread speed
//! moves by up to 1.5x for stretches of minutes, with no CPU steal to
//! show for it. App times move with it, so raw medians of runs minutes
//! apart differ by more than any bound. A fixed kernel of plain Rust —
//! a level-by-level BFS over a 96 x 96 grid and a sort of 32 768
//! integers, nothing from the library — is timed on the app thread
//! between calls, and each call's wall time is scaled by
//! [`NOMINAL_PROBE_MS`] over the median probe time of its segment of
//! the run (a few seconds; the machine's speed holds for minutes, a
//! single probe is noisier than that). A library change cannot move
//! the probe, so it shows in full; drift of the machine moves both and
//! cancels. Calls that spend much of their time on memory move less
//! than the probe, so for them the scaling overcorrects; `README.md`
//! gives the figures.
//!
//! In other stretches the hypervisor takes 5-30% of the busy CPU time
//! ([`Stolen`]); the probe keeps its fastest pass and does not see it,
//! so timings are also multiplied by the share that was not stolen.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{cpu_steal, process_cpu_ticks, Samples};

/// The probe time the scaled app timings refer to.
pub const NOMINAL_PROBE_MS: f64 = 1.0;

/// How old the latest probe may be before the next call re-probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Timings of one probe; its minimum drops interrupts.
const REPS: usize = 3;

const SIDE: usize = 96;
const SORTED: usize = 1 << 15;

/// The fixed kernel: grid adjacency in CSR form and the keys to sort.
pub struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    keys: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    pub fn new() -> Probe {
        let mut offsets = vec![0u32];
        let mut targets = Vec::with_capacity(4 * SIDE * SIDE);
        for v in 0..SIDE * SIDE {
            let (r, c) = (v / SIDE, v % SIDE);
            if r > 0 {
                targets.push((v - SIDE) as u32);
            }
            if c > 0 {
                targets.push((v - 1) as u32);
            }
            if c + 1 < SIDE {
                targets.push((v + 1) as u32);
            }
            if r + 1 < SIDE {
                targets.push((v + SIDE) as u32);
            }
            offsets.push(targets.len() as u32);
        }
        // xorshift64: the same keys on every run
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..SORTED)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe {
            offsets,
            targets,
            keys,
        }
    }

    /// One pass of the kernel; the result keeps the work from being
    /// optimised away.
    fn pass(&self) -> u64 {
        let n = self.offsets.len() - 1;
        let mut level = vec![u32::MAX; n];
        level[0] = 0;
        let mut frontier = vec![0u32];
        let mut depth = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
                for &v in &self.targets[lo as usize..hi as usize] {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = depth + 1;
                        next.push(v);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys[SORTED / 2] ^ u64::from(depth)
    }

    /// The kernel's time in milliseconds: the fastest of [`REPS`] passes.
    pub fn time_ms(&self) -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(self.pass());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The share of the busy CPUs' time the hypervisor took away between
/// [`Stolen::start`] and [`Stolen::share`]. A vCPU accrues steal only
/// while it has work, and while the benchmark runs only the benchmark
/// has work, so `steal / (steal + process CPU)` is the share of its
/// threads' time that was taken.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stolen {
    steal: u64,
    used: u64,
}

impl Stolen {
    pub fn start() -> Stolen {
        Stolen {
            steal: cpu_steal().0,
            used: process_cpu_ticks(),
        }
    }

    /// `(steal, used)` ticks since [`Stolen::start`].
    pub fn ticks(&self) -> (u64, u64) {
        (
            cpu_steal().0.saturating_sub(self.steal),
            process_cpu_ticks().saturating_sub(self.used),
        )
    }

    pub fn share(&self) -> f64 {
        share(self.ticks())
    }
}

/// `steal / (steal + used)`, 0 when both are.
pub fn share((steal, used): (u64, u64)) -> f64 {
    if steal + used == 0 {
        0.0
    } else {
        steal as f64 / (steal + used) as f64
    }
}

/// Tracks the machine's speed over one app segment of a run: a probe
/// at the segment's start and then before any call that comes
/// [`PROBE_EVERY`] after the last probe, and the share of the busy
/// CPUs' time the hypervisor took away.
#[derive(Default)]
pub struct Speed {
    probe: Probe,
    last: Option<Instant>,
    segment: Samples,
    clock: Stolen,
    /// Every probe time of the run, in milliseconds.
    pub probes: Samples,
    /// The stolen share of each segment so far.
    pub stolen: Samples,
}

impl Speed {
    fn measure(&mut self) {
        let ms = self.probe.time_ms();
        self.probes.push(ms);
        self.segment.push(ms);
        self.last = Some(Instant::now());
    }

    /// Start a segment with a probe.
    pub fn begin(&mut self) {
        self.segment = Samples::default();
        self.clock = Stolen::start();
        self.measure();
    }

    /// Probe if the last probe is [`PROBE_EVERY`] old.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.measure();
        }
    }

    /// End the segment; returns the factor that turns its wall times
    /// into times at [`NOMINAL_PROBE_MS`] with no time stolen: nominal
    /// over the segment's median probe, times the share of the app's
    /// time that was not stolen ([`Stolen`]). The probe keeps the
    /// fastest of its passes, so it leaves steal out.
    pub fn end(&mut self) -> f64 {
        let stolen = self.clock.share();
        self.stolen.push(stolen);
        NOMINAL_PROBE_MS / self.segment.median() * (1.0 - stolen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reaches_the_far_corner() {
        let p = Probe::new();
        let mut keys = p.keys.clone();
        keys.sort_unstable();
        // the last, empty frontier is one level past the grid's diameter
        let depth = (keys[SORTED / 2] ^ p.pass()) as usize;
        assert_eq!(depth, 2 * (SIDE - 1) + 1);
        assert!(p.time_ms() > 0.0);
    }

    #[test]
    fn stolen_share() {
        assert_eq!(share((0, 0)), 0.0);
        assert_eq!(share((1, 3)), 0.25);
        assert!(Stolen::start().share() < 1.0);
    }
}
