//! In-memory spans for the traced run. Each span records its name, an
//! id shared by every span of one app call or request, its parent, and
//! its start and end. Spans are taken in the benchmark's own code around
//! calls into each layer; they are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per span name: how many spans, their total time, and their self time
/// (each span's duration minus the part its children cover), in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it is closed are its children.
    pub fn open(&mut self, name: &str, id: u64) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        // the clock starts after the bookkeeping, so it is not measured
        self.spans[idx].start_ns = self.now();
        idx
    }

    /// Close the innermost open span, `idx`; returns its duration in
    /// microseconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// Run `f` inside a span. Returns `f`'s result and the span's
    /// duration in microseconds.
    pub fn span<R>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.open(name, id);
        let out = f(self);
        (out, self.close(idx))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
            t.self_ms += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        r.span("parent", 1, |r| {
            r.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = r.totals();
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(t["parent"].total_ms >= t["child"].total_ms);
        assert!(t["parent"].self_ms < t["child"].total_ms);
        assert!((t["child"].self_ms - t["child"].total_ms).abs() < 1e-9);
    }
}
