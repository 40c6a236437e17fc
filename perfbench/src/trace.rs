//! In-memory spans and counts recorded around calls into the layers'
//! public functions, written out when the benchmark ends.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! frame or one trial shares a group id. A layer's self time is its
//! span's duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `session.prepare`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The frame or trial this span belongs to.
    pub group: u64,
}

/// Spans and counts of one traced leg.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` as span `name` under `parent`; returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        group: u64,
    ) -> usize {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            group,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Adds `n` to count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns, by span index: its duration minus
    /// the union of its children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<f64> {
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
                let mut kids: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let k = &self.spans[c];
                        (k.start.max(s.start), k.end.min(s.end))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end - s.start - covered) as f64
            })
            .collect()
    }

    /// Renders every span (one line each: id, parent, group, name, start,
    /// end) and every count, for the trace file.
    pub fn dump(&self, leg: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "span\t{leg}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.group, s.name, s.start, s.end
            );
        }
        for (name, n) in &self.counts {
            let _ = writeln!(out, "count\t{leg}\t{name}\t{n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new();
        let o = t.origin;
        let ms = |n| o + Duration::from_millis(n);
        let root = t.span("frame", ms(0), ms(10), None, 1);
        let a = t.span("on_bytes", ms(1), ms(5), Some(root), 1);
        t.span("prepare", ms(2), ms(4), Some(a), 1);
        t.span("absorb", ms(4), ms(7), Some(root), 1);
        // frame: 10 − [1, 7]; on_bytes: 4 − 2; prepare: 2; absorb: 3.
        assert_eq!(t.self_times(), vec![4e6, 2e6, 2e6, 3e6]);
    }
}
