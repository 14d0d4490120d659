#![warn(missing_docs)]

//! # gt-faults
//!
//! Deterministic, a-priori fault injection on graph streams (paper §3.2,
//! "Streaming Properties").
//!
//! GraphTides requires the replayer itself to provide ordered, reliable,
//! exactly-once delivery — but lets the analyst *derive* weaker streams
//! ahead of a run: "it is straightforward to modify a reliable, ordered
//! stream into an unreliable, unordered stream (e.g., by dropping or
//! duplicating arbitrary events or by shuffling partial streams)". Keeping
//! the transformation outside the replayer keeps every run deterministic
//! and exactly repeatable.
//!
//! All injectors:
//!
//! * act only on **graph events** — markers and control events stay in
//!   their relative positions so experiment phase structure survives,
//! * are **seeded** — the same `(stream, seed)` always yields the same
//!   faulty stream,
//! * compose via [`FaultPipeline`].
//!
//! ```
//! use gt_faults::{DropFaults, FaultInjector};
//! use gt_core::prelude::*;
//!
//! let stream: GraphStream = (0..100u64)
//!     .map(|i| StreamEntry::graph(GraphEvent::AddVertex {
//!         id: VertexId(i),
//!         state: State::empty(),
//!     }))
//!     .collect();
//! let faulty = DropFaults { probability: 0.2 }.inject(stream.clone(), 7);
//! assert!(faulty.len() < stream.len());
//! ```

use gt_core::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A deterministic stream transformation.
pub trait FaultInjector {
    /// Applies the fault model. Same `(stream, seed)` in, same stream out.
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream;

    /// A short human-readable description for logs.
    fn describe(&self) -> String;
}

/// Drops each graph event independently with the given probability
/// (models a lossy transport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropFaults {
    /// Per-event drop probability in `[0, 1]`.
    pub probability: f64,
}

impl FaultInjector for DropFaults {
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream {
        assert!((0.0..=1.0).contains(&self.probability));
        let mut rng = StdRng::seed_from_u64(seed);
        stream
            .into_entries()
            .into_iter()
            .filter(|entry| !(entry.is_graph() && rng.random_bool(self.probability)))
            .collect()
    }

    fn describe(&self) -> String {
        format!("drop(p={})", self.probability)
    }
}

/// Duplicates each graph event independently with the given probability;
/// the duplicate immediately follows the original (models at-least-once
/// delivery with redelivery).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateFaults {
    /// Per-event duplication probability in `[0, 1]`.
    pub probability: f64,
}

impl FaultInjector for DuplicateFaults {
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream {
        assert!((0.0..=1.0).contains(&self.probability));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(stream.len());
        for entry in stream.into_entries() {
            let dup = entry.is_graph() && rng.random_bool(self.probability);
            if dup {
                out.push(entry.clone());
            }
            out.push(entry);
        }
        GraphStream::from_entries(out)
    }

    fn describe(&self) -> String {
        format!("duplicate(p={})", self.probability)
    }
}

/// Shuffles graph events within consecutive windows of the given size
/// ("shuffling partial streams"): ordering violations stay bounded by the
/// window, like a transport that reorders within a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleWindows {
    /// Window length in graph events; must be ≥ 2 to have any effect.
    pub window: usize,
}

impl FaultInjector for ShuffleWindows {
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream {
        assert!(self.window >= 1, "window must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = stream.into_entries();

        // Positions of graph events; shuffle their *contents* window-wise,
        // leaving markers/control events pinned.
        let graph_positions: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_graph().then_some(i))
            .collect();

        let mut out = entries.clone();
        for chunk in graph_positions.chunks(self.window) {
            let mut window_entries: Vec<StreamEntry> =
                chunk.iter().map(|&i| entries[i].clone()).collect();
            window_entries.shuffle(&mut rng);
            for (&pos, entry) in chunk.iter().zip(window_entries) {
                out[pos] = entry;
            }
        }
        GraphStream::from_entries(out)
    }

    fn describe(&self) -> String {
        format!("shuffle(window={})", self.window)
    }
}

/// Delays individual graph events by a bounded number of positions: each
/// selected event swaps forward past up to `max_displacement` later graph
/// events (models per-message jitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayFaults {
    /// Per-event delay probability in `[0, 1]`.
    pub probability: f64,
    /// Maximum forward displacement in graph-event positions (≥ 1).
    pub max_displacement: usize,
}

impl FaultInjector for DelayFaults {
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream {
        assert!((0.0..=1.0).contains(&self.probability));
        assert!(self.max_displacement >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = stream.into_entries();
        let graph_positions: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_graph().then_some(i))
            .collect();

        let mut out = entries;
        let mut k = 0usize;
        while k < graph_positions.len() {
            if rng.random_bool(self.probability) {
                let displacement = rng.random_range(1..=self.max_displacement);
                let target = (k + displacement).min(graph_positions.len().saturating_sub(1));
                // Bubble the event forward through later graph slots.
                for j in k..target {
                    out.swap(graph_positions[j], graph_positions[j + 1]);
                }
            }
            k += 1;
        }
        GraphStream::from_entries(out)
    }

    fn describe(&self) -> String {
        format!(
            "delay(p={}, max={})",
            self.probability, self.max_displacement
        )
    }
}

/// A sequence of injectors applied left to right, each with a seed derived
/// from the pipeline seed.
#[derive(Default)]
pub struct FaultPipeline {
    stages: Vec<Box<dyn FaultInjector>>,
}

impl FaultPipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    #[must_use]
    pub fn then(mut self, stage: impl FaultInjector + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Parses a compact CLI fault-pipeline spec into a [`FaultPipeline`].
///
/// The spec is a comma-separated list of stages applied left to right:
///
/// * `drop:P` — [`DropFaults`] with probability `P`,
/// * `dup:P` — [`DuplicateFaults`] with probability `P`,
/// * `shuffle:W` — [`ShuffleWindows`] with window `W`,
/// * `delay:P:N` — [`DelayFaults`] with probability `P` and maximum
///   displacement `N`.
///
/// `parse_pipeline("drop:0.01,dup:0.005,shuffle:64")` builds the §3.2
/// "unreliable, unordered" derivation of a reliable stream. Whitespace
/// around stages is ignored; an empty spec is an error (use no flag at
/// all for the identity pipeline).
pub fn parse_pipeline(spec: &str) -> Result<FaultPipeline, String> {
    let mut pipeline = FaultPipeline::new();
    for stage in spec.split(',') {
        let stage = stage.trim();
        if stage.is_empty() {
            return Err(format!("empty stage in fault spec {spec:?}"));
        }
        let mut parts = stage.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let prob = |s: &str| -> Result<f64, String> {
            let p: f64 = s
                .parse()
                .map_err(|_| format!("{stage:?}: {s:?} is not a probability"))?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("{stage:?}: probability {p} outside [0, 1]"))
            }
        };
        match (kind, args.as_slice()) {
            ("drop", [p]) => {
                pipeline = pipeline.then(DropFaults {
                    probability: prob(p)?,
                });
            }
            ("dup", [p]) | ("duplicate", [p]) => {
                pipeline = pipeline.then(DuplicateFaults {
                    probability: prob(p)?,
                });
            }
            ("shuffle", [w]) => {
                let window: usize = w
                    .parse()
                    .map_err(|_| format!("{stage:?}: {w:?} is not a window size"))?;
                if window < 1 {
                    return Err(format!("{stage:?}: window must be at least 1"));
                }
                pipeline = pipeline.then(ShuffleWindows { window });
            }
            ("delay", [p, n]) => {
                let max_displacement: usize = n
                    .parse()
                    .map_err(|_| format!("{stage:?}: {n:?} is not a displacement"))?;
                if max_displacement < 1 {
                    return Err(format!("{stage:?}: displacement must be at least 1"));
                }
                pipeline = pipeline.then(DelayFaults {
                    probability: prob(p)?,
                    max_displacement,
                });
            }
            _ => {
                return Err(format!(
                    "unknown fault stage {stage:?} (expected drop:P, dup:P, \
                     shuffle:W, or delay:P:N)"
                ));
            }
        }
    }
    if pipeline.is_empty() {
        return Err("fault spec has no stages".to_owned());
    }
    Ok(pipeline)
}

impl FaultInjector for FaultPipeline {
    fn inject(&self, stream: GraphStream, seed: u64) -> GraphStream {
        let mut current = stream;
        for (i, stage) in self.stages.iter().enumerate() {
            // Distinct, deterministic per-stage seeds.
            current = stage.inject(
                current,
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64)),
            );
        }
        current
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.stages.iter().map(|s| s.describe()).collect();
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex_stream(n: u64) -> GraphStream {
        (0..n)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect()
    }

    fn stream_with_marker(n: u64) -> GraphStream {
        let mut entries = vertex_stream(n).into_entries();
        entries.insert(n as usize / 2, StreamEntry::marker("mid"));
        GraphStream::from_entries(entries)
    }

    #[test]
    fn drop_is_deterministic_and_lossy() {
        let stream = vertex_stream(1_000);
        let inj = DropFaults { probability: 0.3 };
        let a = inj.inject(stream.clone(), 42);
        let b = inj.inject(stream.clone(), 42);
        assert_eq!(a, b);
        let frac = a.len() as f64 / stream.len() as f64;
        assert!((0.6..0.8).contains(&frac), "kept fraction {frac}");
        let c = inj.inject(stream, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn drop_extremes() {
        let stream = vertex_stream(50);
        assert_eq!(
            DropFaults { probability: 0.0 }.inject(stream.clone(), 1),
            stream
        );
        assert!(DropFaults { probability: 1.0 }.inject(stream, 1).is_empty());
    }

    #[test]
    fn drop_never_touches_markers() {
        let stream = stream_with_marker(100);
        let out = DropFaults { probability: 1.0 }.inject(stream, 5);
        assert_eq!(out.len(), 1);
        assert!(out.entries()[0].is_marker());
    }

    #[test]
    fn duplicate_places_copies_adjacent() {
        let stream = vertex_stream(200);
        let out = DuplicateFaults { probability: 1.0 }.inject(stream.clone(), 9);
        assert_eq!(out.len(), 400);
        for pair in out.entries().chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
        // p=0 is identity.
        assert_eq!(
            DuplicateFaults { probability: 0.0 }.inject(stream.clone(), 9),
            stream
        );
    }

    #[test]
    fn shuffle_preserves_multiset_and_markers() {
        let stream = stream_with_marker(101);
        let out = ShuffleWindows { window: 10 }.inject(stream.clone(), 3);
        assert_eq!(out.len(), stream.len());
        // Marker stays at its absolute position.
        assert!(out.entries()[50].is_marker());
        // Multiset of graph events preserved.
        let mut orig: Vec<String> = stream.graph_events().map(|e| format!("{e:?}")).collect();
        let mut shuf: Vec<String> = out.graph_events().map(|e| format!("{e:?}")).collect();
        orig.sort();
        shuf.sort();
        assert_eq!(orig, shuf);
        // And it actually reordered something.
        assert_ne!(out, stream);
    }

    #[test]
    fn shuffle_window_one_is_identity() {
        let stream = vertex_stream(20);
        assert_eq!(
            ShuffleWindows { window: 1 }.inject(stream.clone(), 0),
            stream
        );
    }

    #[test]
    fn delay_bounds_displacement() {
        let stream = vertex_stream(100);
        let out = DelayFaults {
            probability: 0.5,
            max_displacement: 3,
        }
        .inject(stream.clone(), 11);
        assert_eq!(out.len(), stream.len());
        // Every vertex id must appear within 3 + accumulated drift of its
        // original slot; conservatively check multiset equality and bounded
        // per-event displacement for the *first* event.
        let ids: Vec<u64> = out
            .graph_events()
            .filter_map(|e| e.vertex().map(|v| v.0))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_composes_deterministically() {
        let stream = vertex_stream(500);
        let make = || {
            FaultPipeline::new()
                .then(DuplicateFaults { probability: 0.1 })
                .then(ShuffleWindows { window: 8 })
                .then(DropFaults { probability: 0.1 })
        };
        let a = make().inject(stream.clone(), 1234);
        let b = make().inject(stream, 1234);
        assert_eq!(a, b);
        assert_eq!(
            make().describe(),
            "duplicate(p=0.1) -> shuffle(window=8) -> drop(p=0.1)"
        );
        assert_eq!(make().len(), 3);
        assert!(!make().is_empty());
    }

    #[test]
    fn parse_pipeline_builds_the_documented_stages() {
        let p = parse_pipeline("drop:0.01, dup:0.005, shuffle:64, delay:0.1:4").unwrap();
        assert_eq!(
            p.describe(),
            "drop(p=0.01) -> duplicate(p=0.005) -> shuffle(window=64) -> delay(p=0.1, max=4)"
        );
        // Parsed and hand-built pipelines agree event for event.
        let hand = FaultPipeline::new()
            .then(DropFaults { probability: 0.01 })
            .then(DuplicateFaults { probability: 0.005 })
            .then(ShuffleWindows { window: 64 })
            .then(DelayFaults {
                probability: 0.1,
                max_displacement: 4,
            });
        let stream = vertex_stream(300);
        assert_eq!(p.inject(stream.clone(), 7), hand.inject(stream, 7));
    }

    #[test]
    fn parse_pipeline_rejects_malformed_specs() {
        for bad in [
            "",
            "drop",
            "drop:1.5",
            "drop:x",
            "shuffle:0",
            "shuffle:ten",
            "delay:0.1",
            "delay:0.1:0",
            "teleport:0.5",
            "drop:0.1,,dup:0.1",
        ] {
            assert!(parse_pipeline(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let stream = vertex_stream(10);
        assert_eq!(FaultPipeline::new().inject(stream.clone(), 0), stream);
    }

    #[test]
    fn faulty_streams_apply_leniently() {
        use gt_graph::{ApplyPolicy, EvolvingGraph};
        // Build a valid stream with edges, inject heavy faults, and check a
        // lenient consumer survives with invariants intact.
        let mut stream = gt_graph::builders::ring(50);
        stream.extend(vertex_stream(20));
        let faulty = FaultPipeline::new()
            .then(DropFaults { probability: 0.3 })
            .then(DuplicateFaults { probability: 0.3 })
            .then(ShuffleWindows { window: 16 })
            .inject(stream, 99);
        let mut g = EvolvingGraph::new();
        for event in faulty.graph_events() {
            let _ = g.apply_with(event, ApplyPolicy::Lenient);
        }
        g.check_invariants().unwrap();
    }
}
