//! The matrix journal's bytes, golden-pinned: the fingerprint header, a
//! `completed` record, both `aborted-*` encodings, and integral and
//! non-integral floats. `matrix_resume.rs` checks what resume *does*; this
//! checks what the writer *writes* and that the reader gives it back.

use std::time::Duration;

use gt_harness::{
    aggregate_records, render_matrix_table, run_matrix, AbortReason, Assignment, CellRunResult,
    JournalRecord, MatrixJournal, RunStatus, ScenarioMatrix,
};

const SPEC: &str = "\
matrix = golden
repetitions = 3
seed = 5
factor sut = tide-store
factor chaos = none | crash@1+stall@2
";

const GOLDEN: &str = r#"{"matrix":"golden;reps=3;seed=5;design=full;sut=tide-store;chaos=none|crash@1+stall@2"}
{"cell":"sut=tide-store;chaos=none","rep":0,"seed":10685402346083540263,"status":"completed","metrics":[["achieved_rate",19876.54321],["events",500.0],["p99_micros",0.30000000000000004],["neg",-2.5],["tiny",0.0000001],["huge",100000000000000000000]]}
{"cell":"sut=tide-store;chaos=none","rep":1,"seed":10685402346083540264,"status":"aborted-stalled:1500:42","metrics":[["achieved_rate",0.0]]}
{"cell":"sut=tide-store;chaos=none","rep":2,"seed":10685402346083540265,"status":"aborted-deadline:30000:9001","metrics":[]}
{"cell":"sut=tide-store;chaos=crash@1+stall@2","rep":0,"seed":14040279713657581860,"status":"completed","metrics":[["achieved_rate",19876.54321],["events",500.0],["p99_micros",0.30000000000000004],["neg",-2.5],["tiny",0.0000001],["huge",100000000000000000000]]}
{"cell":"sut=tide-store;chaos=crash@1+stall@2","rep":1,"seed":14040279713657581861,"status":"aborted-stalled:1500:42","metrics":[["achieved_rate",0.0]]}
{"cell":"sut=tide-store;chaos=crash@1+stall@2","rep":2,"seed":14040279713657581862,"status":"aborted-deadline:30000:9001","metrics":[]}
"#;

/// One record per status encoding, seeds at most 2^53 (the largest a
/// reader going through `f64` still returns exactly).
const READ_BACK: &str = r#"{"cell":"a=b;c=d@1,e=2","rep":0,"seed":12345,"status":"completed","metrics":[["achieved_rate",19876.54321],["events",500.0],["p99_micros",0.30000000000000004],["neg",-2.5],["tiny",0.0000001],["huge",100000000000000000000]]}
{"cell":"a=b","rep":1,"seed":9007199254740992,"status":"aborted-stalled:1500:42","metrics":[["achieved_rate",0.0]]}
{"cell":"a=b","rep":2,"seed":0,"status":"aborted-deadline:30000:9001","metrics":[]}
"#;

/// Rep 0 completes with awkward floats, rep 1 stalls, rep 2 overruns.
fn runner(_: &Assignment, rep: u32, _: u64) -> CellRunResult {
    match rep {
        0 => CellRunResult {
            status: RunStatus::Completed,
            metrics: vec![
                ("achieved_rate".into(), 19876.54321),
                ("events".into(), 500.0),
                ("p99_micros".into(), 0.1 + 0.2),
                ("neg".into(), -2.5),
                ("tiny".into(), 1e-7),
                ("huge".into(), 1e20),
            ],
        },
        1 => CellRunResult {
            status: RunStatus::Aborted(AbortReason::Stalled {
                stalled_for: Duration::from_millis(1500),
                events_delivered: 42,
            }),
            metrics: vec![("achieved_rate".into(), 0.0)],
        },
        _ => CellRunResult {
            status: RunStatus::Aborted(AbortReason::DeadlineExceeded {
                deadline: Duration::from_secs(30),
                events_delivered: 9001,
            }),
            metrics: vec![],
        },
    }
}

#[test]
fn journal_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("gt-matrix-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    std::fs::remove_file(&path).ok();
    let matrix = ScenarioMatrix::parse(SPEC).unwrap();
    run_matrix(&matrix, &path, &mut runner).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);
    // The header matches the spec and every record reads back: a rerun
    // resumes all six and rewrites nothing.
    let rerun = run_matrix(&matrix, &path, &mut runner).unwrap();
    assert_eq!((rerun.progress.resumed, rerun.progress.executed), (6, 0));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_status_encoding_reads_back_to_its_own_bytes() {
    for line in READ_BACK.lines() {
        let record = JournalRecord::parse_json_line(line).unwrap();
        assert_eq!(record.to_json_line(), line);
    }
}

/// `gt-report --matrix` on a damaged journal renders exactly the records a
/// resume keeps: a last record without its newline is cut, and so is
/// everything from a corrupt line on.
#[test]
fn offline_render_reads_the_records_a_resume_keeps() {
    let dir = std::env::temp_dir().join(format!("gt-matrix-render-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let matrix = ScenarioMatrix::parse(SPEC).unwrap();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let unterminated = GOLDEN.trim_end_matches('\n').to_owned();
    let corrupt_middle = [&lines[..2], &["{\"cell\":garbage}"], &lines[3..]]
        .concat()
        .join("\n")
        + "\n";
    for (name, text, kept, ignored) in [
        ("unterminated", unterminated, 5, 1),
        ("corrupt-middle", corrupt_middle, 1, 5),
    ] {
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, &text).unwrap();
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gt-report"))
            .arg("--matrix")
            .arg(&path)
            .output()
            .unwrap();
        assert!(output.status.success(), "{name}: {output:?}");
        let rendered = String::from_utf8(output.stdout).unwrap();

        let (_, records) = MatrixJournal::open(&path, &matrix).unwrap();
        assert_eq!(records.len(), kept, "{name}");
        let aborted = records
            .iter()
            .filter(|r| r.status != RunStatus::Completed)
            .count();
        let want = format!(
            "matrix: {}\njournal: {kept} cell-repetitions ({aborted} aborted, \
             {ignored} line(s) past the valid prefix ignored)\n{}",
            matrix.fingerprint(),
            render_matrix_table(&aggregate_records(&records))
        );
        assert_eq!(rendered, want, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
