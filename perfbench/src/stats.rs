//! Sample summaries and the machine-readable result line.

use std::fmt::Write as _;

/// Raw timing samples of one metric, in the metric's own unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile by nearest rank (`q = 0.5` is the median).
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "quantile of no samples");
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let m = v.len() / 2;
        if v.len() % 2 == 1 {
            v[m]
        } else {
            0.5 * (v[m - 1] + v[m])
        }
    }

    /// The highest of p50/p90/p99/p99.9 that still has at least ten
    /// samples beyond it, as `(label, value)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.len();
        let v = self.sorted();
        // nearest rank in integer per-mille, so 90% of 100 is rank 90
        [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)]
            .into_iter()
            .map(|(label, pm)| (label, (n * pm).div_ceil(1000).max(1)))
            .find(|&(_, rank)| n - rank >= 10)
            .map(|(label, rank)| (label, v[rank - 1]))
    }

    /// Quantiles from the median to p99.9, for reading a distribution's
    /// shape in the detail lines.
    pub fn ladder(&self, name: &str) -> String {
        if self.is_empty() {
            return format!("{name}: no samples");
        }
        let qs = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999];
        let parts: Vec<String> = qs
            .iter()
            .map(|&q| format!("p{}={:.4}", q * 100.0, self.quantile(q)))
            .collect();
        format!("{name} ladder: {} (n={})", parts.join(" "), self.len())
    }

    /// One human-readable line: median, tail percentile and count.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        if self.is_empty() {
            return format!("{name}: no samples");
        }
        let tail = match self.tail() {
            Some((label, v)) => format!(" {label}={v:.4}"),
            None => String::new(),
        };
        format!(
            "{name}: median={:.4}{tail} {unit} (n={})",
            self.median(),
            self.len()
        )
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation reports: the correctness tally, the
/// metrics, and free-form detail lines printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(kind, attempted, failed)` per kind of operation: each app, the
    /// service window, the check phase, the layer probes.
    pub kinds: Vec<(&'static str, u64, u64)>,
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation of `kind`; `Err` carries the mismatch.
    pub fn tally(&mut self, kind: &'static str, outcome: Result<(), String>) {
        self.attempted += 1;
        let at = match self.kinds.iter().position(|k| k.0 == kind) {
            Some(at) => at,
            None => {
                self.kinds.push((kind, 0, 0));
                self.kinds.len() - 1
            }
        };
        self.kinds[at].1 += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.kinds[at].2 += 1;
            // keep the log short: the count says how many
            if self.mismatches.len() < 20 {
                self.mismatches.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The lowest share of correct operations over the kinds: an app
    /// that is wrong on every call brings it to 0 however few calls it
    /// makes next to the thousands of service requests.
    pub fn ok_frac(&self) -> f64 {
        self.kinds
            .iter()
            .map(|&(_, attempted, failed)| 1.0 - failed as f64 / attempted as f64)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU time of the machine from `/proc/stat`;
/// the difference of two readings gives the share of CPU time the
/// hypervisor took away, which the detail lines report next to timings.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Cumulative user plus system CPU time of this process, in the clock
/// ticks of `/proc/stat`; with paravirtual steal accounting it leaves
/// out the time the hypervisor took away.
pub fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name start at `state`
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum()
}

/// Small deterministic PRNG (an LCG) for request mixes and source picks.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        let mut r = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.tail(), Some(("p90", 90.0)));
    }

    #[test]
    fn ok_frac_is_the_worst_kind() {
        let mut r = Report::default();
        for _ in 0..1000 {
            r.tally("serve", Ok(()));
        }
        r.tally("bc", Err("wrong".into()));
        r.tally("bc", Ok(()));
        assert_eq!(r.ok_frac(), 0.5);
        assert!(!r.correct());
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.tally("x", Ok(()));
        r.metric("x_ms", "ms", 1.25);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
