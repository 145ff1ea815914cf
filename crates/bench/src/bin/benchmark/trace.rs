//! Spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, op id). Spans live in a buffer
//! allocated before the timed loop and are written out when the run
//! ends. A disabled tracer records nothing, so the untraced run pays one
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span (an index into the buffer).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// An enabled tracer with room for `capacity` spans, measuring time
    /// from `epoch` (share one epoch between threads of a run).
    pub fn on(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_at(name, Instant::now())
    }

    /// Open a span that started at `start` (an open-loop request starts
    /// at its due time, before the generator reaches it).
    pub fn begin_at(&mut self, name: &'static str, start: Instant) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans[idx as usize].end_ns = end_ns;
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Close `open` and rename it: the layer that answered is often
    /// known only once the call returns.
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        if let Open(Some(idx)) = open {
            self.spans[idx as usize].name = name;
        }
        self.end(open);
    }

    /// Time `f` under a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Record a span whose interval was measured elsewhere (the server
    /// reports its service time; the span closes at `end` and is a
    /// child of the innermost open span).
    pub fn record(&mut self, name: &'static str, end: Instant, length: Duration) {
        if !self.enabled {
            return;
        }
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(length.as_nanos() as u64),
            end_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
    }

    /// Move another thread's spans into this buffer, re-pointing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Per span name: (count, total ns, self ns), where self time is the
    /// span's duration minus the time its children cover.
    pub fn table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += s.ns().saturating_sub(kids);
        }
        rows
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now(), 8);
        let outer = t.begin("outer");
        t.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        t.end(outer);
        let rows = t.table();
        let (n, total, own) = rows["outer"];
        let (_, inner_total, _) = rows["inner"];
        assert_eq!(n, 1);
        assert!(inner_total >= 5_000_000);
        assert_eq!(own, total - inner_total);
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.time("x", || ());
        assert!(t.spans.is_empty());
    }
}
