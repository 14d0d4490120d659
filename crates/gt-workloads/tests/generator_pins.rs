//! Same seed, same bytes: the built-in workloads' generated text is pinned
//! by hash. The generator keeps a shadow [`gt_graph::EvolvingGraph`] and
//! hashed position maps; neither may leak an iteration order into the
//! stream, so a storage change underneath must leave these values alone.
//! They were produced at the commit before `EvolvingGraph` moved off its
//! `BTreeMap` (PR 19's parent).

use gt_workloads::{SnbWorkload, Table3Workload};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snb_50k_events_seed_2018() {
    let full = SnbWorkload::table4().total_events() as f64;
    let stream = SnbWorkload::scaled(50_000.0 / full, 2018).generate();
    assert_eq!(stream.stats().graph_events, 49_999);
    assert_eq!(fnv1a(&stream.to_csv_string()), 5_017_254_054_049_811_971);
}

#[test]
fn table3_small_40k_events_seed_2018() {
    let stream = Table3Workload::small(40_000, 2018).generate();
    assert_eq!(fnv1a(&stream.to_csv_string()), 12_275_850_074_987_947_061);
}
