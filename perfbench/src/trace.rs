//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Each span has a
//! name (the layer), start and end, the span that caused it, and the id of
//! the pass, round or query it belongs to. Work counts (rows, edges decoded,
//! bytes parsed, written or read) are attached at the same boundaries. A
//! layer's self time is its span's duration minus the part its child spans
//! cover. When the recorder is off, `begin` and `end` only test a flag.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Id of a span, or [`NONE`] when nothing was recorded.
pub type SpanId = u32;

/// The id `begin` returns while the recorder is off.
pub const NONE: SpanId = u32::MAX;

/// Counts a span can carry.
const MAX_COUNTS: usize = 2;

/// Spans kept at most, so a long traced run cannot exhaust memory; later
/// spans are dropped and counted.
const MAX_SPANS: usize = 4_000_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `graph.io.read`.
    pub name: &'static str,
    /// Pass, round or query id the span belongs to.
    pub pass: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: SpanId,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    counts: [(&'static str, u64); MAX_COUNTS],
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The count recorded under `key`, if any.
    pub fn count(&self, key: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(k, _)| !k.is_empty() && *k == key)
            .map(|&(_, n)| n)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    dropped: u64,
}

impl Tracer {
    /// A recorder, initially recording iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Switches recording on or off (the traced run alternates between
    /// recorded and unrecorded operations to measure the overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, pass: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: [("", 0); MAX_COUNTS],
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it by a panic).
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Attaches a work count to span `id`.
    pub fn count(&mut self, id: SpanId, key: &'static str, n: u64) {
        if id == NONE {
            return;
        }
        let counts = &mut self.spans[id as usize].counts;
        if let Some(slot) = counts.iter_mut().find(|(k, _)| k.is_empty() || *k == key) {
            *slot = (key, n);
        }
    }

    /// Records an already-measured child of `parent`: a stage whose time a
    /// public call returned (such as `BuildTimings`) rather than one the
    /// benchmark could wrap. It starts `offset_ns` after the parent.
    pub fn child(&mut self, parent: SpanId, name: &'static str, offset_ns: u64, dur_ns: u64) {
        if parent == NONE || self.spans.len() >= MAX_SPANS {
            return;
        }
        let p = &self.spans[parent as usize];
        let start_ns = p.start_ns + offset_ns;
        let pass = p.pass;
        self.spans.push(Span {
            name,
            pass,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
            counts: [("", 0); MAX_COUNTS],
        });
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto),
    /// at most `limit` of them; returns how many were written.
    pub fn write_chrome(&self, path: &Path, limit: usize, meta: &str) -> io::Result<usize> {
        let self_ns = self.self_ns();
        let mut w = BufWriter::new(File::create(path)?);
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{meta},\"traceEvents\":["
        )?;
        let n = self.spans.len().min(limit);
        let mut line = String::new();
        for (i, s) in self.spans[..n].iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"pass\":{},\"self_ns\":{}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                if s.parent == NONE { -1 } else { i64::from(s.parent) },
                s.pass,
                self_ns[i],
            );
            for (k, v) in s.counts.iter().filter(|(k, _)| !k.is_empty()) {
                let _ = write!(line, ",\"{k}\":{v}");
            }
            line.push_str("}}");
            w.write_all(line.as_bytes())?;
        }
        write!(w, "]}}")?;
        w.flush()?;
        Ok(n)
    }

    /// Spans dropped because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-layer aggregates over a recorder's spans.
pub struct Layers<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl<'a> Layers<'a> {
    /// Computes self times once for the queries below.
    pub fn new(tracer: &'a Tracer) -> Self {
        Layers {
            spans: tracer.spans(),
            self_ns: tracer.self_ns(),
        }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = (&'a Span, u64)> + '_ {
        self.spans
            .iter()
            .zip(self.self_ns.iter().copied())
            .filter(move |(s, _)| s.name == name)
    }

    /// Self times of the spans named `name`, in nanoseconds.
    pub fn self_times(&self, name: &'a str) -> Vec<f64> {
        self.named(name).map(|(_, ns)| ns as f64).collect()
    }

    /// Self time divided by the count `key`, per span named `name` that
    /// has a non-zero count.
    pub fn self_per(&self, name: &'a str, key: &str) -> Vec<f64> {
        self.named(name)
            .filter_map(|(s, ns)| match s.count(key) {
                Some(n) if n > 0 => Some(ns as f64 / n as f64),
                _ => None,
            })
            .collect()
    }

    /// `key` per second of self time, per span named `name`.
    pub fn rate(&self, name: &'a str, key: &str) -> Vec<f64> {
        self.named(name)
            .filter_map(|(s, ns)| Some(s.count(key)? as f64 / (ns.max(1) as f64 / 1e9)))
            .collect()
    }

    /// Values of the count `key` over spans named `name`.
    pub fn counts(&self, name: &'a str, key: &str) -> Vec<f64> {
        self.named(name)
            .filter_map(|(s, _)| s.count(key).map(|n| n as f64))
            .collect()
    }

    /// Sum of the count `key` over spans whose name starts with `prefix`.
    pub fn total(&self, prefix: &str, key: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter_map(|s| s.count(key))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7);
        t.child(root, "a", 0, 100);
        t.child(root, "b", 100, 50);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(root);
        let self_ns = t.self_ns();
        assert_eq!(self_ns[0], t.spans()[0].dur_ns() - 150);
        assert_eq!(self_ns[1], 100);
        assert!(t.spans().iter().all(|s| s.pass == 7));
        assert_eq!(t.spans()[2].parent, root);
    }

    #[test]
    fn off_records_nothing_and_end_closes_abandoned_children() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        assert_eq!(id, NONE);
        t.count(id, "rows", 1);
        t.end(id);
        assert!(t.spans().is_empty());

        t.set_on(true);
        let outer = t.begin("outer", 1);
        let _inner = t.begin("inner", 1); // never ended, as after a panic
        t.count(outer, "rows", 3);
        t.end(outer);
        let next = t.begin("next", 2);
        assert_eq!(t.spans()[next as usize].parent, NONE);
        assert_eq!(t.spans()[outer as usize].count("rows"), Some(3));
    }
}
