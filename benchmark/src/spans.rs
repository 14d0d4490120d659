//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory while the run lasts and written out at the end. A
//! disabled recorder stores nothing, so the untraced passes that give the
//! end-to-end metrics pay only a branch per scope.

use std::time::Instant;

use crate::json::Json;
use crate::sys::process_cpu_ns;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The pass the span belongs to (spans of one pass share it).
    pub pass: u32,
    /// Process CPU time consumed between start and end, where it was
    /// read. Unlike wall time it adds up across stages that overlap.
    pub cpu_ns: Option<u64>,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn scope<T>(&mut self, name: &str, pass: u32, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        let start_cpu = process_cpu_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass,
            cpu_ns: None,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        self.spans[index].cpu_ns = Some(process_cpu_ns().saturating_sub(start_cpu));
        out
    }

    /// Records a finished interval measured elsewhere (the window probe
    /// stamps on SUT threads) as a child of `parent`, or of the innermost
    /// open span when `parent` is `None`. Returns the new span's index for
    /// use as a later `parent`.
    pub fn record(
        &mut self,
        name: &str,
        pass: u32,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        cpu_ns: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            parent: parent.or(self.open.last().copied()),
            pass,
            cpu_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// One row per span in recording order: `(depth, name, wall ms, self
    /// ms, cpu ms)`.
    pub fn summary(&self) -> Vec<(usize, &str, f64, f64, Option<f64>)> {
        let self_ns = self_times(&self.spans);
        let mut depth = vec![0usize; self.spans.len()];
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                depth[i] = span.parent.map_or(0, |p| depth[p] + 1);
                (
                    depth[i],
                    span.name.as_str(),
                    (span.end_ns - span.start_ns) as f64 / 1e6,
                    self_ns[i] as f64 / 1e6,
                    span.cpu_ns.map(|ns| ns as f64 / 1e6),
                )
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(span, self_ns)| {
                    Json::obj([
                        ("name", Json::str(&span.name)),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("pass", Json::Num(f64::from(span.pass))),
                        ("self_ns", Json::Num(self_ns as f64)),
                        (
                            "cpu_ns",
                            span.cpu_ns.map_or(Json::Null, |ns| Json::Num(ns as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            pass: 0,
            cpu_ns: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("setup", 0, 30, Some(0)),
            span("send", 30, 80, Some(0)),
            // Overlaps `send`: the overlap is covered once, not twice.
            span("drain", 70, 90, Some(0)),
            span("write-file", 5, 15, Some(1)),
            // Sticks out of its parent: only the part inside counts.
            span("late", 95, 140, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5, 20, 50, 20, 10, 45]);
    }

    #[test]
    fn scopes_nest_and_disabled_recorders_store_nothing() {
        let mut spans = Spans::new(true);
        let value = spans.scope("outer", 3, |s| s.scope("inner", 3, |_| 7));
        assert_eq!(value, 7);
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.spans[0].start_ns <= spans.spans[1].start_ns);
        assert!(spans.spans[1].end_ns <= spans.spans[0].end_ns);
        assert_eq!(spans.spans[1].pass, 3);

        let mut off = Spans::new(false);
        assert_eq!(off.scope("outer", 0, |s| s.scope("inner", 0, |_| 1)), 1);
        let now = Instant::now();
        assert_eq!(off.record("x", 0, None, (now, now), None), None);
        assert!(off.spans.is_empty());

        let window = spans.scope("call", 3, |s| {
            s.record("window", 3, None, (now, now), Some(9))
        });
        let send = spans.record("send", 3, window, (now, now), None);
        assert_eq!(spans.spans[window.unwrap()].parent, Some(2));
        assert_eq!(spans.spans[send.unwrap()].parent, window);
    }
}
