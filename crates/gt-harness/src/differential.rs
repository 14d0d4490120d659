//! The serial-vs-sharded differential harness: replay the **same** seeded
//! stream through a serial baseline and a sharded candidate, and assert
//! that their final graph state and per-marker-window computation results
//! are bit-identical.
//!
//! Sharding must be a pure performance transform: hash-partitioned
//! workers with per-partition ordering and marker barriers may reorder
//! *independent* events across shards, but every observable the paper's
//! methodology compares — topology at each marker cut, topology at the
//! end of the stream, and the graph computations derived from them — must
//! not change. This module mechanizes that claim:
//!
//! 1. both platforms are started with their `digest=1` option, so their
//!    [`SystemUnderTest::shutdown_digest`] returns a [`StateDigest`]:
//!    canonicalized adjacency at every marker cut plus the final state;
//! 2. the adjacencies are compared byte-for-byte
//!    ([`StateDigest::diff`] — degradation counters are deliberately
//!    excluded, a chaos run *should* differ there);
//! 3. each window's adjacency is lifted into an offline
//!    [`gt_graph::EvolvingGraph`] and the reference computations run on
//!    the canonical CSR snapshot — weakly connected components,
//!    single-source shortest distances (Bellman–Ford from the smallest
//!    vertex id), and PageRank — and those results are compared with
//!    exact `f64::to_bits` equality.
//!
//! Step 3 matters because two adjacencies can only differ when step 2
//! already fails — but computations computed *online* by a platform
//! (e.g. the engine's residual forward-push) are order-sensitive, so the
//! differential contract is stated over offline computations on the
//! digested topology, which depend on nothing but the adjacency bytes.
//!
//! [`SystemUnderTest::shutdown_digest`]: gt_sut::SystemUnderTest::shutdown_digest

use gt_algorithms::components::weakly_connected_components;
use gt_algorithms::pagerank::{pagerank, PageRankConfig};
use gt_algorithms::shortest::bellman_ford;
use gt_core::prelude::*;
use gt_graph::{ApplyPolicy, CsrSnapshot, EvolvingGraph};
use gt_sut::{Adjacency, StateDigest, SutOptions, SutRegistry, SutReport};

use crate::levels::EvaluationLevel;
use crate::run::{run, RunError, RunPlan, Target};

/// The reference computations over one digested window (or the final
/// state), with float results serialized to bits for exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowComputation {
    /// The marker that cut this window; `None` for the final state.
    pub marker: Option<String>,
    /// Vertices in the digested adjacency.
    pub vertices: usize,
    /// Edges in the digested adjacency.
    pub edges: usize,
    /// Weakly-connected-component label per vertex: `(vertex id,
    /// smallest vertex id of its component)`, sorted by vertex id.
    pub wcc: Vec<(u64, u64)>,
    /// Shortest distance from the smallest vertex id: `(vertex id,
    /// f64::to_bits(distance))`, sorted by vertex id.
    pub sssp: Vec<(u64, u64)>,
    /// PageRank (damping 0.85): `(vertex id, f64::to_bits(rank))`,
    /// sorted by vertex id.
    pub rank: Vec<(u64, u64)>,
}

/// Lifts a digested adjacency back into an [`EvolvingGraph`]: a vertex for
/// every id that appears on either side of an edge, then the edges with
/// their digested weights, leniently (the adjacency is already a
/// consistent snapshot, so nothing should be rejected).
pub fn graph_from_adjacency(adjacency: &Adjacency) -> EvolvingGraph {
    let mut graph = EvolvingGraph::new();
    for (src, out) in adjacency {
        let _ = graph.apply_with(
            &GraphEvent::AddVertex {
                id: VertexId(*src),
                state: State::empty(),
            },
            ApplyPolicy::Lenient,
        );
        for (dst, _) in out {
            let _ = graph.apply_with(
                &GraphEvent::AddVertex {
                    id: VertexId(*dst),
                    state: State::empty(),
                },
                ApplyPolicy::Lenient,
            );
        }
    }
    for (src, out) in adjacency {
        for (dst, weight_bits) in out {
            let _ = graph.apply_with(
                &GraphEvent::AddEdge {
                    id: EdgeId::from((*src, *dst)),
                    state: State::weight(f64::from_bits(*weight_bits)),
                },
                ApplyPolicy::Lenient,
            );
        }
    }
    graph
}

fn compute_window(marker: Option<String>, adjacency: &Adjacency) -> WindowComputation {
    let graph = graph_from_adjacency(adjacency);
    let csr = CsrSnapshot::from_graph(&graph);
    let n = csr.vertex_count();
    let wcc_result = weakly_connected_components(&csr);
    let wcc = csr
        .indices()
        .map(|i| (csr.id_of(i).0, csr.id_of(wcc_result.labels[i as usize]).0))
        .collect();
    // The CSR orders vertices by id, so dense index 0 is the smallest id:
    // a deterministic source both sides agree on without coordination.
    let sssp = if n == 0 {
        Vec::new()
    } else {
        let paths = bellman_ford(&csr, 0).expect("digested weights are non-negative");
        csr.indices()
            .map(|i| (csr.id_of(i).0, paths.dist[i as usize].to_bits()))
            .collect()
    };
    let ranks = pagerank(&csr, &PageRankConfig::default()).ranks;
    let rank = csr
        .indices()
        .map(|i| (csr.id_of(i).0, ranks[i as usize].to_bits()))
        .collect();
    WindowComputation {
        marker,
        vertices: n,
        edges: graph.edge_count(),
        wcc,
        sssp,
        rank,
    }
}

/// Runs the reference computations over every digested marker window and
/// the final state (last element, `marker == None`).
pub fn window_computations(digest: &StateDigest) -> Vec<WindowComputation> {
    let mut out: Vec<WindowComputation> = digest
        .windows
        .iter()
        .map(|w| compute_window(Some(w.marker.clone()), &w.adjacency))
        .collect();
    out.push(compute_window(None, &digest.final_adjacency));
    out
}

/// The outputs of one differential run.
#[derive(Debug)]
pub struct DifferentialOutcome {
    /// The baseline platform's final report.
    pub baseline_report: SutReport,
    /// The candidate platform's final report.
    pub candidate_report: SutReport,
    /// The baseline's digest.
    pub baseline_digest: StateDigest,
    /// The candidate's digest.
    pub candidate_digest: StateDigest,
    /// The baseline's per-window reference computations.
    pub baseline_computations: Vec<WindowComputation>,
    /// The candidate's per-window reference computations.
    pub candidate_computations: Vec<WindowComputation>,
    /// The first divergence found, human-readable; `None` means the
    /// candidate is observably equivalent to the baseline.
    pub mismatch: Option<String>,
}

impl DifferentialOutcome {
    /// Whether the candidate matched the baseline bit-for-bit.
    pub fn matches(&self) -> bool {
        self.mismatch.is_none()
    }
}

fn diff_computations(
    baseline: &[WindowComputation],
    candidate: &[WindowComputation],
) -> Option<String> {
    if baseline.len() != candidate.len() {
        return Some(format!(
            "window count: baseline {} vs candidate {}",
            baseline.len(),
            candidate.len()
        ));
    }
    for (b, c) in baseline.iter().zip(candidate) {
        let window = b.marker.clone().unwrap_or_else(|| "<final>".to_owned());
        if b.marker != c.marker {
            return Some(format!(
                "window order: baseline {window:?} vs candidate {:?}",
                c.marker
            ));
        }
        for (name, bv, cv) in [
            ("wcc", &b.wcc, &c.wcc),
            ("sssp", &b.sssp, &c.sssp),
            ("rank", &b.rank, &c.rank),
        ] {
            if bv != cv {
                return Some(format!("window {window:?}: {name} results differ"));
            }
        }
    }
    None
}

/// Replays `stream` at `target_rate` through the `baseline` platform and
/// again through the `candidate` platform (both forced to `digest=1`),
/// then compares digests and per-window reference computations.
///
/// The stream is fed through a **single** connector on each side, so the
/// submission order the digests are defined over is identical. This is
/// the clean A/B; a caller that wants chaos or custom loggers along
/// builds its own [`RunPlan`]s with `digest=1` and compares the digests.
pub fn run_differential(
    stream: &GraphStream,
    target_rate: f64,
    registry: &SutRegistry,
    baseline: (&str, &SutOptions),
    candidate: (&str, &SutOptions),
) -> Result<DifferentialOutcome, RunError> {
    let run = |name: &str, options: &SutOptions| -> Result<(SutReport, StateDigest), RunError> {
        let options = options.clone().set("digest", 1);
        let mut plan = RunPlan::new(stream.clone(), target_rate).at_level(EvaluationLevel::Level0);
        plan.sysmon = None; // black-box resource samples are noise here
        let outcome = run(plan, Target::Sut(registry, name, &options))?;
        let digest = outcome.digest.ok_or_else(|| {
            RunError::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("platform {name:?} returned no digest despite digest=1"),
            ))
        })?;
        Ok((outcome.report.expect("a registry target reports"), digest))
    };
    let (baseline_report, baseline_digest) = run(baseline.0, baseline.1)?;
    let (candidate_report, candidate_digest) = run(candidate.0, candidate.1)?;

    let baseline_computations = window_computations(&baseline_digest);
    let candidate_computations = window_computations(&candidate_digest);
    let mismatch = baseline_digest
        .diff(&candidate_digest)
        .or_else(|| diff_computations(&baseline_computations, &candidate_computations));
    Ok(DifferentialOutcome {
        baseline_report,
        candidate_report,
        baseline_digest,
        candidate_digest,
        baseline_computations,
        candidate_computations,
        mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(edges: &[(u64, &[(u64, f64)])]) -> Adjacency {
        edges
            .iter()
            .map(|(src, out)| (*src, out.iter().map(|(d, w)| (*d, w.to_bits())).collect()))
            .collect()
    }

    #[test]
    fn computations_are_deterministic_per_adjacency() {
        let adj = adjacency(&[
            (0, &[(1, 1.0), (2, 4.0)]),
            (1, &[(2, 1.0)]),
            (2, &[]),
            (7, &[(8, 2.0)]),
            (8, &[]),
        ]);
        let a = compute_window(None, &adj);
        let b = compute_window(None, &adj);
        assert_eq!(a, b);
        assert_eq!(a.vertices, 5);
        assert_eq!(a.edges, 4);
        // Two weak components, labeled by their smallest vertex id.
        assert_eq!(a.wcc, vec![(0, 0), (1, 0), (2, 0), (7, 7), (8, 7)]);
        // Distances from vertex 0: the 7-component is unreachable.
        let dist: Vec<(u64, f64)> = a
            .sssp
            .iter()
            .map(|&(id, bits)| (id, f64::from_bits(bits)))
            .collect();
        assert_eq!(dist[0], (0, 0.0));
        assert_eq!(dist[1], (1, 1.0));
        assert_eq!(dist[2], (2, 2.0)); // via vertex 1, not the 4.0 edge
        assert!(dist[3].1.is_infinite() && dist[4].1.is_infinite());
    }

    #[test]
    fn adjacency_round_trips_through_the_graph() {
        let adj = adjacency(&[(3, &[(1, 2.5)]), (1, &[])]);
        let graph = graph_from_adjacency(&adj);
        assert_eq!(graph.vertex_count(), 2);
        assert_eq!(graph.edge_count(), 1);
        let out: Vec<(u64, f64)> = graph
            .out_edges(VertexId(3))
            .map(|(dst, state)| (dst.0, state.as_weight().unwrap()))
            .collect();
        assert_eq!(out, vec![(1, 2.5)]);
    }

    #[test]
    fn dst_only_vertices_are_materialized() {
        // Vertex 9 never appears as a source row; it must still exist.
        let adj = adjacency(&[(0, &[(9, 1.0)])]);
        let graph = graph_from_adjacency(&adj);
        assert_eq!(graph.vertex_count(), 2);
        let w = compute_window(None, &adj);
        assert_eq!(w.wcc, vec![(0, 0), (9, 0)]);
    }

    #[test]
    fn computation_diff_pinpoints_the_window() {
        let a = window_computations(&StateDigest {
            final_adjacency: adjacency(&[(0, &[(1, 1.0)]), (1, &[])]),
            windows: Vec::new(),
            degradation: Vec::new(),
        });
        let b = window_computations(&StateDigest {
            final_adjacency: adjacency(&[(0, &[(1, 2.0)]), (1, &[])]),
            windows: Vec::new(),
            degradation: Vec::new(),
        });
        let msg = diff_computations(&a, &b).unwrap();
        assert!(msg.contains("<final>"), "{msg}");
        assert!(diff_computations(&a, &a).is_none());
    }
}
