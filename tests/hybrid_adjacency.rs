//! Property tests for [`HybridAdjacency`] — the type-switching per-vertex
//! storage every layer of the stack now sits on — against a naive
//! `BTreeMap` reference model, plus the end-to-end check that matters
//! most: the serial-vs-sharded differential oracle stays bit-identical
//! over the hybrid build with hub-heavy streams.
//!
//! The adjacency has three tiers: inline up to `INLINE_CAP` = 8 entries,
//! a sorted array up to `SORTED_CAP` = 1 024, a tree above, demoting at
//! `DEMOTE_AT` = 4 and `TREE_DEMOTE_AT` = 512. One op generator hovers
//! around the inline boundary (keys from a small universe, so lists cross
//! it in both directions many times in one run); another grows lists of a
//! ~3 000-key universe into the tree and drains them back to inline.
//! After every op, [`assert_tier_band`] checks the adjacency's tier
//! against its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use graphtides::graph::hybrid::Tier;
use graphtides::graph::HybridAdjacency;
use graphtides::harness::run_differential;
use graphtides::prelude::*;
use proptest::prelude::*;

/// The system allocator, counting the bytes each thread holds, so a test
/// can see what one structure keeps on the heap while other tests run.
struct PerThreadBytes;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

// SAFETY: defers entirely to `System`; the counter is a thread-local cell
// that allocates nothing.
unsafe impl GlobalAlloc for PerThreadBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PerThreadBytes = PerThreadBytes;

/// The tier probe: each tier holds only lengths inside its band (the
/// hysteresis bands overlap, so a length alone does not fix the tier).
fn assert_tier_band<T>(adj: &HybridAdjacency<T>) {
    type H = HybridAdjacency<()>;
    let len = adj.len();
    let band = match adj.tier() {
        Tier::Inline => 0..=H::INLINE_CAP,
        Tier::Sorted => H::DEMOTE_AT + 1..=H::SORTED_CAP,
        Tier::Tree => H::TREE_DEMOTE_AT + 1..=usize::MAX,
    };
    assert!(band.contains(&len), "{:?} holding {len}", adj.tier());
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    InsertIfAbsent(u64, u32),
    Remove(u64),
    /// Removes the first present key at or after this one (wrapping), so
    /// a drain hits on every op however wide the universe.
    RemoveFrom(u64),
}

/// Ops over a key universe of `universe` vertex ids: small universes
/// keep the list crossing the inline/sorted boundary in both directions.
fn ops(universe: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..universe, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => (0..universe).prop_map(Op::Remove),
        ],
        0..len,
    )
}

/// Keys of the universe [`tier_crossing_ops`] draws from.
const WIDE_UNIVERSE: u64 = 3_000;

/// Grow phases that push a list past `SORTED_CAP` into the tree (about
/// 1 200 distinct keys after 2 000 mostly-insert ops), shrink phases of
/// removals that hit, and a final drain to empty: every run crosses both
/// tier boundaries in both directions.
fn tier_crossing_ops() -> impl Strategy<Value = Vec<Op>> {
    let key = || 0..WIDE_UNIVERSE;
    let grow = proptest::collection::vec(
        prop_oneof![
            3 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            1 => (key(), any::<u32>()).prop_map(|(k, v)| Op::InsertIfAbsent(k, v)),
            1 => key().prop_map(Op::Remove),
        ],
        2_000..2_600,
    );
    let shrink = proptest::collection::vec(
        prop_oneof![
            4 => key().prop_map(Op::RemoveFrom),
            1 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        ],
        0..2_500,
    );
    proptest::collection::vec((grow, shrink), 1..3).prop_map(|phases| {
        let mut ops: Vec<Op> = phases
            .into_iter()
            .flat_map(|(g, s)| g.into_iter().chain(s))
            .collect();
        ops.extend((0..WIDE_UNIVERSE).map(Op::RemoveFrom));
        ops
    })
}

/// The tier changes a run of ops went through, as `(from, to)` pairs.
type Crossings = Vec<(Tier, Tier)>;

/// Applies `ops` to a hybrid adjacency and to the model, checking after
/// every op the result, the touched key, the length and the tier band,
/// and the whole contents whenever the tier changed. Returns both, and
/// the tier changes seen as `(from, to)` pairs.
fn apply_both(ops: &[Op]) -> (HybridAdjacency<u32>, BTreeMap<VertexId, u32>, Crossings) {
    let mut hybrid = HybridAdjacency::new();
    let mut reference = BTreeMap::new();
    let mut crossings = Vec::new();
    for op in ops {
        let before = hybrid.tier();
        let key = match *op {
            Op::Insert(k, v) => {
                let expected = reference.insert(VertexId(k), v);
                prop_assert_eq_unwrapped(hybrid.insert(VertexId(k), v), expected);
                k
            }
            Op::InsertIfAbsent(k, v) => {
                let absent = !reference.contains_key(&VertexId(k));
                if absent {
                    reference.insert(VertexId(k), v);
                }
                prop_assert_eq_unwrapped(hybrid.insert_if_absent(VertexId(k), || v), absent);
                k
            }
            Op::Remove(k) => {
                let expected = reference.remove(&VertexId(k));
                prop_assert_eq_unwrapped(hybrid.remove(VertexId(k)), expected);
                k
            }
            Op::RemoveFrom(from) => {
                let present = reference
                    .range(VertexId(from)..)
                    .next()
                    .or(reference.first_key_value());
                let Some((&k, _)) = present else {
                    prop_assert_eq_unwrapped(hybrid.len(), 0);
                    continue;
                };
                let expected = reference.remove(&k);
                prop_assert_eq_unwrapped(hybrid.remove(k), expected);
                k.0
            }
        };
        prop_assert_eq_unwrapped(hybrid.get(VertexId(key)), reference.get(&VertexId(key)));
        prop_assert_eq_unwrapped(hybrid.len(), reference.len());
        assert_tier_band(&hybrid);
        let after = hybrid.tier();
        if after != before {
            assert!(hybrid.iter().eq(reference.iter().map(|(k, v)| (*k, v))));
            if !crossings.contains(&(before, after)) {
                crossings.push((before, after));
            }
        }
    }
    (hybrid, reference, crossings)
}

// proptest's prop_assert_eq! only works inside the macro body; the
// helper keeps `apply_both` usable from plain #[test] fns too.
fn prop_assert_eq_unwrapped<T: PartialEq + std::fmt::Debug>(got: T, want: T) {
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Around the promotion boundary: a 12-key universe guarantees lists
    /// that grow through INLINE_CAP and shrink back through DEMOTE_AT.
    #[test]
    fn matches_btreemap_reference_at_the_boundary(ops in ops(12, 120)) {
        let (hybrid, reference, _) = apply_both(&ops);
        prop_assert_eq!(hybrid.len(), reference.len());
        // Iteration: ascending id order, identical contents.
        let got: Vec<(VertexId, u32)> = hybrid.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(VertexId, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        // Point lookups agree everywhere in the universe.
        for k in 0..12 {
            prop_assert_eq!(hybrid.get(VertexId(k)), reference.get(&VertexId(k)));
            prop_assert_eq!(hybrid.contains(VertexId(k)), reference.contains_key(&VertexId(k)));
        }
        // Representation invariants: inline lists fit the inline array;
        // sorted lists only exist above the demotion threshold.
        assert_tier_band(&hybrid);
    }

    /// Far above the inline boundary: sorted-tier lists over a wide
    /// universe.
    #[test]
    fn matches_btreemap_reference_for_hubs(ops in ops(400, 300)) {
        let (hybrid, reference, _) = apply_both(&ops);
        prop_assert_eq!(hybrid.len(), reference.len());
        let got: Vec<(VertexId, u32)> = hybrid.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(VertexId, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Between the tiers: lists over a ~3 000-key universe grow through
    /// `INLINE_CAP` and `SORTED_CAP` and shrink back through
    /// `TREE_DEMOTE_AT` and `DEMOTE_AT`, and agree with the model all the
    /// way.
    #[test]
    fn matches_btreemap_reference_across_all_three_tiers(ops in tier_crossing_ops()) {
        let (hybrid, reference, crossings) = apply_both(&ops);
        prop_assert!(hybrid.is_empty() && reference.is_empty());
        prop_assert_eq!(hybrid.tier(), Tier::Inline);
        for crossing in [
            (Tier::Inline, Tier::Sorted),
            (Tier::Sorted, Tier::Tree),
            (Tier::Tree, Tier::Sorted),
            (Tier::Sorted, Tier::Inline),
        ] {
            prop_assert!(crossings.contains(&crossing), "never crossed {:?}: {:?}", crossing, crossings);
        }
    }

    /// Logical equality is representation-independent: the same contents
    /// reached along different op orders (one path promoted and demoted,
    /// the other stayed inline) compare equal.
    #[test]
    fn equality_ignores_representation_history(raw in proptest::collection::vec(0u64..64, 1..=8)) {
        let keys: std::collections::BTreeSet<u64> = raw.into_iter().collect();
        // Path A: plain inserts — stays inline (<= 8 distinct keys).
        let direct: HybridAdjacency<u32> =
            keys.iter().map(|&k| (VertexId(k), k as u32)).collect();
        prop_assert_eq!(direct.tier(), Tier::Inline);

        // Path B: overfill past INLINE_CAP to force promotion, then
        // remove the scaffolding again.
        let mut via_hub = HybridAdjacency::new();
        for extra in 1000..1016 {
            via_hub.insert(VertexId(extra), 0);
        }
        for &k in &keys {
            via_hub.insert(VertexId(k), k as u32);
        }
        for extra in 1000..1016 {
            via_hub.remove(VertexId(extra));
        }

        prop_assert_eq!(&direct, &via_hub);
    }
}

/// A list grown into the tree and shrunk to empty, whatever the removal
/// order, is back in the inline tier and holds no heap — what lets a
/// spent store entry hold none either.
#[test]
fn an_adjacency_shrunk_to_empty_holds_no_heap() {
    for stride in [1u64, 7, 2_999] {
        let mut adj: HybridAdjacency<()> = HybridAdjacency::new();
        let empty = live_bytes();
        for k in 0..WIDE_UNIVERSE {
            adj.insert(VertexId(k), ());
        }
        assert_eq!(adj.tier(), Tier::Tree);
        assert!(live_bytes() > empty);
        for i in 0..WIDE_UNIVERSE {
            // `stride` is coprime to the universe: each key once.
            assert_eq!(adj.remove(VertexId(i * stride % WIDE_UNIVERSE)), Some(()));
        }
        assert!(adj.is_empty());
        assert_eq!(adj.tier(), Tier::Inline);
        assert_eq!(live_bytes(), empty, "stride {stride}");
    }
}

/// A stream that manufactures hubs: `hubs` sources fan out to `fanout`
/// targets (far past `INLINE_CAP`), the rest stay low-degree, and
/// removals drag some hubs back down through the demotion threshold.
fn hub_heavy_stream(hubs: u64, fanout: u64, leaves: u64, markers: usize) -> GraphStream {
    let vertices = hubs + leaves.max(fanout);
    let mut entries: Vec<StreamEntry> = (0..vertices)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect();
    for h in 0..hubs {
        for t in 0..fanout {
            let dst = hubs + t;
            if h != dst {
                entries.push(StreamEntry::graph(GraphEvent::AddEdge {
                    id: EdgeId::from((h, dst)),
                    state: State::weight(((h + t) % 9 + 1) as f64),
                }));
            }
        }
    }
    let mut x = 0x5EED_CAFEu64;
    for _ in 0..leaves * 2 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = hubs + (x >> 33) % leaves;
        let dst = hubs + (x >> 13) % leaves;
        if src != dst {
            entries.push(StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((src, dst)),
                state: State::weight(((x >> 7) % 9 + 1) as f64),
            }));
        }
    }
    // Demote every even hub back through DEMOTE_AT: remove all but 3 of
    // its fan-out edges.
    for h in (0..hubs).step_by(2) {
        for t in 3..fanout {
            entries.push(StreamEntry::graph(GraphEvent::RemoveEdge {
                id: EdgeId::from((h, hubs + t)),
            }));
        }
    }
    let step = entries.len() / (markers + 1);
    for m in (1..=markers).rev() {
        entries.insert(m * step, StreamEntry::marker(format!("window-{m}")));
    }
    entries.into_iter().collect()
}

fn store_options() -> SutOptions {
    SutOptions::new()
        .set("timestamper_cost_us", 0)
        .set("shard_cost_us", 0)
        .set("batch_size", 8)
}

/// The PR's end-to-end acceptance check: with every layer on hybrid
/// storage, the serial (`shards=1`) and sharded (`shards=4`) builds must
/// still digest bit-identically over a stream engineered to exercise
/// promotion *and* demotion inside the run.
#[test]
fn differential_oracle_passes_over_the_hybrid_build() {
    let stream = hub_heavy_stream(8, 24, 60, 3);
    let registry = graphtides::builtin_registry();
    for serial in ["tide-store", "tide-graph"] {
        let sharded = format!("{serial}-sharded");
        let outcome = run_differential(
            &stream,
            400_000.0,
            &registry,
            (serial, &store_options().set("shards", 1)),
            (&sharded, &store_options().set("shards", 4)),
        )
        .unwrap();
        assert!(
            outcome.matches(),
            "{serial}: {}",
            outcome.mismatch.as_deref().unwrap_or_default()
        );
        assert_eq!(outcome.baseline_digest.windows.len(), 3, "{serial}");
        assert!(
            !outcome.baseline_digest.final_adjacency.is_empty(),
            "{serial}"
        );
    }
}

/// What makes hybrid adoption invisible to the oracle: the canonical
/// adjacency dump of a hub-heavy replay is stable across repeated
/// replays — promotion order, demotion timing, and representation never
/// leak into the digested state.
#[test]
fn hybrid_adjacency_dumps_are_replay_stable() {
    let stream = hub_heavy_stream(4, 16, 30, 2);
    let dump = || {
        let mut graph = EvolvingGraph::new();
        for entry in stream.entries() {
            if let StreamEntry::Graph(event) = entry {
                let _ = graph.apply(event);
            }
        }
        let mut adj: Vec<(u64, Vec<(u64, u64)>)> = graph
            .vertices()
            .map(|v| {
                let mut out: Vec<(u64, u64)> = graph
                    .out_edges(v)
                    .map(|(dst, state)| (dst.0, state.as_weight().unwrap_or(1.0).to_bits()))
                    .collect();
                out.sort_unstable();
                (v.0, out)
            })
            .collect();
        adj.sort_unstable_by_key(|(v, _)| *v);
        adj
    };
    let first = dump();
    assert!(!first.is_empty());
    assert_eq!(first, dump());
}
