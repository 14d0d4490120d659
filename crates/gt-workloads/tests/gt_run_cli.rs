//! Drives the built `gt-run` binary in every mode and pins what a user
//! sees: the exit code and the label column of stdout, numbers masked.
//! The CI smoke jobs only look at the exit status; this fences the
//! printed report against changes to the run path underneath it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use gt_graph::builders::BarabasiAlbert;
use gt_workloads::Table3Workload;

/// Writes a ~2k-event seeded Table 3 stream (bootstrap, marker, pause,
/// evolution, marker) to a file of its own under the temp dir.
fn stream_file(test: &str) -> PathBuf {
    let workload = Table3Workload {
        bootstrap: BarabasiAlbert {
            n: 200,
            m0: 10,
            m: 5,
            seed: 7,
        },
        evolution_events: 900,
        warmup_pause: Duration::from_millis(10),
        seed: 7,
    };
    let stream = workload.generate();
    let events = stream.stats().graph_events;
    assert!((1_800..2_400).contains(&events), "{events} graph events");
    let dir = std::env::temp_dir().join(format!("gt-run-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{test}.csv"));
    stream.write_to_file(&path).unwrap();
    path
}

/// The label column of a report: each non-empty line cut at its first
/// run of two spaces (where the right-aligned values begin), every run
/// of digits replaced by `N`.
fn labels(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(|line| {
            let label = line.split("  ").next().unwrap_or(line);
            let mut masked = String::new();
            for c in label.chars() {
                if !c.is_ascii_digit() {
                    masked.push(c);
                } else if !masked.ends_with('N') {
                    masked.push('N');
                }
            }
            masked
        })
        .collect()
}

struct Run {
    code: Option<i32>,
    labels: Vec<String>,
    stdout: String,
    stderr: String,
}

fn gt_run(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_gt-run"))
        .args(args)
        .output()
        .expect("spawn gt-run");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    // A run without `--journal` names the fresh journal it wrote.
    for line in stderr.lines() {
        if let Some(journal) = line.strip_prefix("gt-run: journal ") {
            remove_artifacts(Path::new(journal));
        }
    }
    Run {
        code: output.status.code(),
        labels: labels(&stdout),
        stdout,
        stderr,
    }
}

/// `gt-run <stream> --sut tide-store <cost-free options> <extra>`.
fn store_run(test: &str, extra: &[&str]) -> Run {
    let path = stream_file(test);
    let mut args = vec![path.to_str().unwrap(), "--sut", "tide-store"];
    args.extend(["--opt", "timestamper_cost_us=0", "--opt", "shard_cost_us=0"]);
    args.extend(extra);
    let run = gt_run(&args);
    std::fs::remove_file(path).ok();
    run
}

const REPLAY_LABELS: [&str; 7] = [
    "run status",
    "entries read",
    "graph events",
    "replay duration [s]",
    "achieved rate [e/s]",
    "emit latency pN [us]",
    "quiesced",
];

const STORE_REPORT_LABELS: [&str; 10] = [
    "events",
    "transactions",
    "vertices",
    "edges",
    "dangling_edges_dropped",
    "crashes",
    "restarts",
    "events_lost",
    "events_discarded",
    "events_replayed",
];

const STAGE_LABELS: [&str; 5] = [
    "# sampled stage latencies [us] (median / pN, n)",
    "reader_to_emit_micros",
    "emit_to_sink_micros",
    "emit_to_connector_micros",
    "connector_to_apply_micros",
];

fn expect(run: &Run, sections: &[&[&str]]) {
    let expected: Vec<&str> = sections.iter().flat_map(|s| s.iter().copied()).collect();
    assert_eq!(run.labels, expected, "stderr: {}", run.stderr);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
}

#[test]
fn single_sink_run_prints_replay_report_and_stage_latencies() {
    let run = store_run("single", &["--rate", "100000"]);
    expect(
        &run,
        &[
            &["# gt-run: tide-store @ N events/s"],
            &REPLAY_LABELS,
            &["# tide-store final report"],
            &STORE_REPORT_LABELS,
            &STAGE_LABELS,
            &["# merged result log: N records"],
        ],
    );
}

#[test]
fn clients_run_prints_load_report_and_sojourn_tail() {
    let run = store_run(
        "clients",
        &[
            "--rate",
            "50000",
            "--clients",
            "4",
            "--assert-achieved",
            "0.5",
        ],
    );
    expect(
        &run,
        &[
            &[
                "# gt-run load: tide-store with N clients, open loop @ N e/s offered (seed N)",
                "run status",
                "offered events",
                "sent events",
                "offered rate [e/s]",
                "achieved rate [e/s]",
                "achieved/offered",
                "marker violations",
                "parse errors",
                "connections lost",
                "clients failed",
                "quiesced",
                "# sojourn latency [us] per class (completion - scheduled arrival)",
                "class",
                "main",
                "# tide-store final report",
            ],
            &STORE_REPORT_LABELS,
            &["# merged result log: N records"],
        ],
    );
}

#[test]
fn chaos_run_prints_the_schedule_and_the_recovery_table() {
    let run = store_run(
        "chaos",
        &[
            "--rate",
            "100000",
            "--opt",
            "supervised=1",
            "--chaos",
            "crash@600,worker=0,restart=400; stall@1500,ms=20",
            "--fault-seed",
            "7",
        ],
    );
    expect(
        &run,
        &[
            &[
                "# gt-run: tide-store @ N events/s",
                "# chaos schedule: crash(worker=N, restart=+N)@N; stall(ms=N)@N (seed N)",
            ],
            &REPLAY_LABELS,
            &["# tide-store final report"],
            &STORE_REPORT_LABELS,
            &STAGE_LABELS,
            &[
                "# chaos recovery (recovered = N% of pre-fault rate)",
                "fault",
                "crash(worker=N, restart=+N) ok",
                "└ restart(worker=N) ok at t=N.Ns",
                "stall(ms=N)",
                "└ stall ended after N ms at t=N.Ns",
                "# merged result log: N records",
            ],
        ],
    );
}

#[test]
fn netem_run_prints_the_schedule_and_the_recovery_table() {
    let run = store_run(
        "netem",
        &[
            "--rate",
            "10000",
            "--netem",
            "kill@60ms,mode=fin",
            "--fault-seed",
            "9",
        ],
    );
    expect(
        &run,
        &[
            &[
                "# gt-run: tide-store @ N events/s",
                "# netem schedule: kill@Nms,mode=fin (seed N)",
            ],
            &REPLAY_LABELS,
            &["# tide-store final report"],
            &STORE_REPORT_LABELS,
            &STAGE_LABELS,
            &[
                "# netem recovery vs ingress_rate (recovered = N% of pre-fault rate)",
                "fault",
                "kill(mode=fin)@Nms",
                "# merged result log: N records",
            ],
        ],
    );
}

#[test]
fn shards_n_reroutes_to_the_sharded_variant() {
    let run = store_run("shards", &["--rate", "100000", "--shards", "2"]);
    expect(
        &run,
        &[
            &["# gt-run: tide-store-sharded @ N events/s"],
            &REPLAY_LABELS,
            &["# tide-store-sharded final report"],
            &STORE_REPORT_LABELS,
            &["shards", "marker_skips"],
            &STAGE_LABELS,
            &["# merged result log: N records"],
        ],
    );
}

#[test]
fn scale_grid_runs_one_load_cell_per_clients_and_rate() {
    let run = store_run("scale", &["--clients", "2", "--scale", "1,2x50000,100000"]);
    expect(
        &run,
        &[&[
            "# gt-run ingress scaling curve: tide-store open loop, seed N",
            "clients",
            "N",
            "N",
            "N",
            "N",
        ]],
    );
}

#[test]
fn shard_list_runs_the_throughput_vs_shards_curve() {
    let run = store_run(
        "shard-curve",
        &["--rate", "50000", "--clients", "2", "--shards", "1,2"],
    );
    expect(
        &run,
        &[&[
            "# gt-run throughput-vs-shards: tide-store-sharded, N clients, open loop @ N e/s, seed N",
            "shards",
            "N",
            "N",
        ]],
    );
}

#[test]
fn differential_run_prints_an_identical_verdict() {
    let run = store_run("differential", &["--rate", "100000", "--differential", "3"]);
    expect(
        &run,
        &[&[
            "# gt-run differential: tide-store (shards=N) vs tide-store-sharded (shards=N) @ N e/s",
            "baseline events",
            "candidate events",
            "marker windows",
            "final vertices",
            "verdict",
        ]],
    );
}

#[test]
fn matrix_runs_single_sink_and_load_cells_and_prints_the_table() {
    let stream = stream_file("matrix");
    let dir = stream.parent().unwrap();
    let spec = dir.join("matrix.spec");
    let journal = dir.join("matrix.journal.jsonl");
    std::fs::write(
        &spec,
        "matrix = cli\nrepetitions = 1\nseed = 42\ndesign = full\n\
         factor sut = tide-store | tide-graph\nfactor clients = 0 | 2\nfactor rate = 100000\n",
    )
    .unwrap();
    std::fs::remove_file(&journal).ok();
    let run = gt_run(&[
        "matrix",
        spec.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    let journal_line = labels(&format!("journal: {}", journal.display())).remove(0);
    let single = ["achieved_rate", "events", "duration_s"];
    let load = [
        "offered_rate",
        "achieved_rate",
        "achieved_ratio",
        "marker_violations",
        "pN_sojourn_us",
    ];
    expect(
        &run,
        &[
            &[
                "matrix cli: N cells x N reps = N runs (full design, seed N)",
                "factor sut = tide-store | tide-graph",
                "factor clients = N | N",
                "factor rate = N",
                journal_line.as_str(),
                "ran",
                "ran",
                "ran",
                "ran",
                "cell sut=tide-store;clients=N;rate=N (n=N, excluded=N, below n>=N — provisional)",
            ],
            &single,
            &["cell sut=tide-store;clients=N;rate=N (n=N, excluded=N, below n>=N — provisional)"],
            &load,
            &["cell sut=tide-graph;clients=N;rate=N (n=N, excluded=N, below n>=N — provisional)"],
            &single,
            &["cell sut=tide-graph;clients=N;rate=N (n=N, excluded=N, below n>=N — provisional)"],
            &load,
            &["matrix complete: N runs total, N executed, N resumed from journal"],
        ],
    );
    for path in [stream, spec, journal] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn chaos_on_a_load_front_is_refused_before_anything_runs() {
    let run = store_run(
        "chaos-load",
        &["--clients", "2", "--chaos", "stall@10,ms=1"],
    );
    assert_eq!(run.code, Some(1));
    assert!(run.labels.is_empty(), "{:?}", run.labels);
    assert!(run.stderr.contains("chaos"), "{}", run.stderr);

    let stream = stream_file("chaos-load-matrix");
    let spec = stream.with_extension("spec");
    std::fs::write(
        &spec,
        "matrix = bad\nrepetitions = 1\nseed = 1\n\
         factor sut = tide-store\nfactor clients = 2\nfactor chaos = stall@10,ms=1\n",
    )
    .unwrap();
    let run = gt_run(&[
        "matrix",
        spec.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
        "--journal",
        stream.with_extension("journal").to_str().unwrap(),
    ]);
    assert_eq!(run.code, Some(1));
    assert!(run.labels.is_empty(), "{:?}", run.labels);
    assert!(run.stderr.contains("chaos"), "{}", run.stderr);
    for path in [stream, spec] {
        std::fs::remove_file(path).ok();
    }
}

/// What `gt-report --matrix <journal>` prints: the text
/// `gt_harness::render_journal` rebuilds from the journal and the result
/// logs beside it.
fn report(journal: &Path) -> String {
    let journal = journal.to_str().unwrap();
    gt_harness::render_journal(journal, None, None).unwrap().0
}

/// A journal path of its own for `test`, with nothing at it yet.
fn journal_file(test: &str) -> PathBuf {
    let path = stream_file(test).with_extension("journal.jsonl");
    remove_artifacts(&path);
    path
}

/// Removes a journal and the result logs beside it.
fn remove_artifacts(journal: &Path) {
    let name = journal.file_name().unwrap().to_str().unwrap();
    for entry in std::fs::read_dir(journal.parent().unwrap()).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with(name)
        {
            std::fs::remove_file(path).ok();
        }
    }
}

/// Runs `store_run(test, extra)` into a journal, and checks that the
/// journal renders as exactly what `gt-run` printed.
fn renders_as_printed(test: &str, extra: &[&str]) -> Run {
    let journal = journal_file(test);
    let mut args = extra.to_vec();
    args.extend(["--journal", journal.to_str().unwrap()]);
    let run = store_run(test, &args);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert!(!run.stdout.is_empty());
    assert_eq!(report(&journal), run.stdout);
    remove_artifacts(&journal);
    run
}

#[test]
fn a_single_sink_journal_renders_as_printed_and_reruns_as_printed() {
    let journal = journal_file("single-journal");
    let args = ["--rate", "100000", "--journal", journal.to_str().unwrap()];
    let first = store_run("single-journal", &args);
    assert_eq!(first.code, Some(0), "stderr: {}", first.stderr);
    assert_eq!(report(&journal), first.stdout);
    // The same flags into the same journal resume it: nothing runs again,
    // and the same report comes back from the files.
    let again = store_run("single-journal", &args);
    assert_eq!(again.stdout, first.stdout);
    remove_artifacts(&journal);
}

#[test]
fn a_clients_journal_renders_as_printed() {
    let args = [
        "--rate",
        "50000",
        "--clients",
        "4",
        "--assert-achieved",
        "0.5",
    ];
    renders_as_printed("clients-journal", &args);
}

#[test]
fn a_chaos_journal_renders_as_printed() {
    let chaos = "crash@600,worker=0,restart=400; stall@1500,ms=20";
    let args = [
        "--rate",
        "100000",
        "--opt",
        "supervised=1",
        "--chaos",
        chaos,
    ];
    renders_as_printed(
        "chaos-journal",
        &[&args[..], &["--fault-seed", "7"]].concat(),
    );
}

#[test]
fn a_netem_journal_renders_as_printed() {
    let args = ["--rate", "10000", "--netem", "kill@60ms,mode=fin"];
    renders_as_printed(
        "netem-journal",
        &[&args[..], &["--fault-seed", "9"]].concat(),
    );
}

#[test]
fn a_shards_journal_renders_as_printed() {
    renders_as_printed("shards-journal", &["--rate", "100000", "--shards", "2"]);
}

#[test]
fn a_scale_journal_renders_as_printed() {
    let args = ["--clients", "2", "--scale", "1,2x50000,100000"];
    renders_as_printed("scale-journal", &args);
}

#[test]
fn a_shard_list_journal_renders_as_printed() {
    let args = ["--rate", "50000", "--clients", "2", "--shards", "1,2"];
    renders_as_printed("shard-curve-journal", &args);
}

/// Writes a one-cell campaign spec beside `stream`.
fn one_cell_spec(stream: &Path) -> PathBuf {
    let spec = stream.with_extension("spec");
    std::fs::write(
        &spec,
        "matrix = cli-one\nrepetitions = 2\nseed = 3\n\
         factor sut = tide-store\nfactor rate = 100000 | 200000\n",
    )
    .unwrap();
    spec
}

#[test]
fn a_matrix_journal_renders_as_printed_but_for_its_progress_lines() {
    let stream = stream_file("matrix-journal");
    let spec = one_cell_spec(&stream);
    let journal = journal_file("matrix-journal");
    let run = gt_run(&[
        "matrix",
        spec.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    let printed: String = run
        .stdout
        .lines()
        .filter(|line| !line.starts_with("  ran ") && !line.starts_with("  skip "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(report(&journal), printed);
    remove_artifacts(&journal);
    for path in [stream, spec] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn a_journal_is_not_resumed_under_another_stream() {
    let (stream, other) = (stream_file("inputs-a"), stream_file("inputs-b"));
    let spec = one_cell_spec(&stream);
    let journal = journal_file("inputs");
    let matrix = |stream: &Path| {
        gt_run(&[
            "matrix",
            spec.to_str().unwrap(),
            "--stream",
            stream.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
    };
    assert_eq!(matrix(&stream).code, Some(0));
    let refused = matrix(&other);
    assert_eq!(refused.code, Some(1));
    assert!(
        refused.stderr.contains("different inputs"),
        "{}",
        refused.stderr
    );
    // A flag run records its options, seeds and `--faults` as well.
    let flags = |seed: &str| {
        let args = ["--rate", "100000", "--fault-seed", seed];
        store_run(
            "inputs-flags",
            &[&args[..], &["--journal", journal.to_str().unwrap()]].concat(),
        )
    };
    remove_artifacts(&journal);
    assert_eq!(flags("1").code, Some(0));
    let refused = flags("2");
    assert_eq!(refused.code, Some(1));
    assert!(
        refused.stderr.contains("different inputs"),
        "{}",
        refused.stderr
    );
    remove_artifacts(&journal);
    for path in [stream, other, spec] {
        std::fs::remove_file(path).ok();
    }
}
