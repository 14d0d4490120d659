//! Every committed `BENCH_*.json` survives `from_json` → `to_json`
//! byte-identical: the reader loses nothing the writer wrote.

use gt_bench::trajectory::{from_json, to_json};

#[test]
fn committed_trajectory_files_round_trip_byte_identical() {
    for area in ["parse", "ingest", "load"] {
        let path = format!("{}/../../BENCH_{area}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let records = from_json(&text);
        assert!(!records.is_empty(), "{path}: no suites read");
        assert_eq!(to_json(area, &records), text, "{path}");
    }
}
