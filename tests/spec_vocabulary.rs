//! The spec vocabulary's agreement corpus: every rate pattern, loop model,
//! fault pipeline, `--scale` grid and matrix spec written in `crates/`,
//! `tests/`, CI and the docs, pinned to the value it parses to (its
//! `Debug` form; a fault pipeline, which has none, by its `describe()`),
//! plus the specs that must stay rejected, read through the one tokenizer
//! (`gt_core::spec`). The chaos and netem clause specs have their own
//! corpora (`crates/gt-{chaos,netem}/tests/spec_corpus.rs`).
//!
//! `one_whitespace_rule_for_every_grammar` holds the specs on which the
//! parsers used to disagree: whitespace around `:` read by the rate
//! patterns but refused by the loop models and the fault pipelines, and
//! empty list items skipped by the clause and matrix lists but refused by
//! the pipelines and `--scale`. Each now reads as the clean spec beside
//! it, the clause grammar's rule.

use graphtides::core::spec::SpecError;
use graphtides::faults::{parse_pipeline, FaultInjector};
use graphtides::harness::{FactorSpace, LoopModel, RatePattern, ScenarioMatrix};

/// `(spec, Debug of the parsed pattern)`.
const PATTERNS: &[(&str, &str)] = &[
    ("uniform", "Uniform"),
    (
        "diurnal:60:0.5",
        "Diurnal { period_secs: 60.0, amplitude: 0.5 }",
    ),
    (
        "pareto:1.5:0.2:4",
        "ParetoBursts { alpha: 1.5, burst_secs: 0.2, peak: 4.0 }",
    ),
    (
        "flash:5:4:2",
        "FlashCrowd { at_secs: 5.0, factor: 4.0, hold_secs: 2.0 }",
    ),
    (
        "flash:0.05:4:0.2",
        "FlashCrowd { at_secs: 0.05, factor: 4.0, hold_secs: 0.2 }",
    ),
    (
        "diurnal:0.5:0.6",
        "Diurnal { period_secs: 0.5, amplitude: 0.6 }",
    ),
    (
        "diurnal:10:0.4",
        "Diurnal { period_secs: 10.0, amplitude: 0.4 }",
    ),
    (
        "flash:2:4:1",
        "FlashCrowd { at_secs: 2.0, factor: 4.0, hold_secs: 1.0 }",
    ),
    (
        "flash:1:4:2",
        "FlashCrowd { at_secs: 1.0, factor: 4.0, hold_secs: 2.0 }",
    ),
    // Whitespace the parent already read.
    (" uniform ", "Uniform"),
    (
        "diurnal: 10: 0.4",
        "Diurnal { period_secs: 10.0, amplitude: 0.4 }",
    ),
    (
        "diurnal : 10 : 0.4",
        "Diurnal { period_secs: 10.0, amplitude: 0.4 }",
    ),
    (
        " flash:1: 4 :2 ",
        "FlashCrowd { at_secs: 1.0, factor: 4.0, hold_secs: 2.0 }",
    ),
];

const PATTERNS_REJECTED: &[&str] = &[
    "",
    "sawtooth",
    "Uniform",
    "uniform:",
    "uniform:1",
    "diurnal:60",
    "diurnal::0.5",
    "diurnal:60:1.5",
    "diurnal:0:0.5",
    "diurnal:nan:0.5",
    "diurnal:60:0.5:",
    "diurnal:60:0.5:9",
    "pareto:1.5:0.2:0.5",
    "pareto:0:1:2",
    "pareto:1.5:abc:4",
    "pareto:1.5:0.2:inf",
    "flash:5:4",
    "flash:5:0.5:2",
    "flash:-1:4:2",
    "flash:5:4:0",
];

/// `(spec, Debug of the parsed model)`.
const LOOPS: &[(&str, &str)] = &[
    ("open", "Open"),
    ("closed", "Closed"),
    ("partial:128", "PartialOpen { window: 128 }"),
    ("partial:64", "PartialOpen { window: 64 }"),
    ("partial:7", "PartialOpen { window: 7 }"),
    (" open ", "Open"),
];

const LOOPS_REJECTED: &[&str] = &[
    "",
    "halfopen",
    "Open",
    "open:",
    "partial",
    "partial:",
    "partial:0",
    "partial:x",
    "partial:-1",
    "partial:1.5",
    "partial:5:6",
];

/// `(spec, describe() of the parsed pipeline)`.
const PIPELINES: &[(&str, &str)] = &[
    (
        "drop:0.01,dup:0.005,shuffle:64",
        "drop(p=0.01) -> duplicate(p=0.005) -> shuffle(window=64)",
    ),
    (
        "drop:0.01, dup:0.005, shuffle:64, delay:0.1:4",
        "drop(p=0.01) -> duplicate(p=0.005) -> shuffle(window=64) -> delay(p=0.1, max=4)",
    ),
    ("drop:0.05,dup:0.02", "drop(p=0.05) -> duplicate(p=0.02)"),
    ("duplicate:0.1", "duplicate(p=0.1)"),
    (" drop:0.1 , dup:0.1 ", "drop(p=0.1) -> duplicate(p=0.1)"),
];

const PIPELINES_REJECTED: &[&str] = &[
    "",
    " , ",
    "drop",
    "DROP:0.1",
    "drop:1.5",
    "drop:-0.1",
    "drop:x",
    "drop:0.1:2",
    "shuffle:0",
    "shuffle:ten",
    "shuffle:1.5",
    "delay:0.1",
    "delay:0.1:0",
    "delay:0.1:4:1",
    "teleport:0.5",
];

/// `(grid, Debug of the two factors it reads as)`.
const SCALES: &[(&str, &str)] = &[
    (
        "1,8,64x10000,40000",
        r#"FactorSpace { factors: [Factor { name: "clients", levels: ["1", "8", "64"] }, Factor { name: "rate", levels: ["10000", "40000"] }] }"#,
    ),
    (
        "1,2x50000,100000",
        r#"FactorSpace { factors: [Factor { name: "clients", levels: ["1", "2"] }, Factor { name: "rate", levels: ["50000", "100000"] }] }"#,
    ),
    (
        "1,4,16x10000,40000",
        r#"FactorSpace { factors: [Factor { name: "clients", levels: ["1", "4", "16"] }, Factor { name: "rate", levels: ["10000", "40000"] }] }"#,
    ),
    (
        " 1, 2 x 50000 ",
        r#"FactorSpace { factors: [Factor { name: "clients", levels: ["1", "2"] }, Factor { name: "rate", levels: ["50000"] }] }"#,
    ),
];

/// Grids without the shape of one. A level that is no count or rate
/// (`0x100`, `ax100`, `1x2x3`) is `gt-run`'s to refuse, as a factor
/// level; its unit tests pin those.
const SCALES_REJECTED: &[&str] = &["", "100", "1,2", "x", "1x", "x100", " ,x1"];

/// `(spec, Debug of the parsed matrix)`.
const MATRICES: &[(&str, &str)] = &[
    (
        "# comment\nmatrix = smoke\nrepetitions = 3\nseed = 7\ndesign = full\nfactor sut = tide-store | tide-graph\nfactor pattern = uniform | flash:1:4:2\n",
        r#"ScenarioMatrix { name: "smoke", repetitions: 3, seed: 7, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "pattern", levels: ["uniform", "flash:1:4:2"] }] } }"#,
    ),
    (
        "# 2 SUT x 3 rate-pattern smoke matrix\nmatrix = pattern-smoke\nrepetitions = 3\nseed = 42\ndesign = full\nfactor sut = tide-store | tide-graph\nfactor pattern = uniform | diurnal:10:0.4 | flash:2:4:1\nfactor rate = 20000\n",
        r#"ScenarioMatrix { name: "pattern-smoke", repetitions: 3, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "pattern", levels: ["uniform", "diurnal:10:0.4", "flash:2:4:1"] }, Factor { name: "rate", levels: ["20000"] }] } }"#,
    ),
    (
        "matrix = resume-prop\nrepetitions = 3\nseed = 99\nfactor sut = a | b\nfactor rate = 1 | 2\n",
        r#"ScenarioMatrix { name: "resume-prop", repetitions: 3, seed: 99, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["a", "b"] }, Factor { name: "rate", levels: ["1", "2"] }] } }"#,
    ),
    (
        "matrix = golden\nrepetitions = 3\nseed = 5\nfactor sut = tide-store\nfactor chaos = none | crash@1+stall@2\n",
        r#"ScenarioMatrix { name: "golden", repetitions: 3, seed: 5, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store"] }, Factor { name: "chaos", levels: ["none", "crash@1+stall@2"] }] } }"#,
    ),
    (
        "matrix = cli\nrepetitions = 1\nseed = 42\ndesign = full\nfactor sut = tide-store | tide-graph\nfactor clients = 0 | 2\nfactor rate = 100000\n",
        r#"ScenarioMatrix { name: "cli", repetitions: 1, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "clients", levels: ["0", "2"] }, Factor { name: "rate", levels: ["100000"] }] } }"#,
    ),
    (
        "matrix = bad\nrepetitions = 1\nseed = 1\nfactor sut = tide-store\nfactor clients = 2\nfactor chaos = stall@10,ms=1\n",
        r#"ScenarioMatrix { name: "bad", repetitions: 1, seed: 1, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store"] }, Factor { name: "clients", levels: ["2"] }, Factor { name: "chaos", levels: ["stall@10,ms=1"] }] } }"#,
    ),
    (
        "matrix = ci-smoke\nrepetitions = 3\nseed = 42\ndesign = full\nfactor sut = tide-store | tide-graph\nfactor pattern = uniform | flash:0.05:4:0.2\nfactor rate = 50000\n",
        r#"ScenarioMatrix { name: "ci-smoke", repetitions: 3, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "pattern", levels: ["uniform", "flash:0.05:4:0.2"] }, Factor { name: "rate", levels: ["50000"] }] } }"#,
    ),
    (
        "matrix = store-vs-graph\nrepetitions = 30\nseed = 42\ndesign = full            # or `ofat` (one factor at a time)\nfactor sut = tide-store | tide-graph\nfactor pattern = uniform | diurnal:0.5:0.6 | flash:0.05:4:0.2\nfactor rate = 50000\n",
        r#"ScenarioMatrix { name: "store-vs-graph", repetitions: 30, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "pattern", levels: ["uniform", "diurnal:0.5:0.6", "flash:0.05:4:0.2"] }, Factor { name: "rate", levels: ["50000"] }] } }"#,
    ),
    (
        "# store-vs-graph.matrix\nmatrix = store-vs-graph\nrepetitions = 30\nseed = 42\ndesign = full\nfactor sut = tide-store | tide-graph\nfactor pattern = uniform | diurnal:0.5:0.6 | flash:0.05:4:0.2\nfactor rate = 50000\n",
        r#"ScenarioMatrix { name: "store-vs-graph", repetitions: 30, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["tide-store", "tide-graph"] }, Factor { name: "pattern", levels: ["uniform", "diurnal:0.5:0.6", "flash:0.05:4:0.2"] }, Factor { name: "rate", levels: ["50000"] }] } }"#,
    ),
    (
        "matrix = ab\nrepetitions = 4\nfactor sut = only",
        r#"ScenarioMatrix { name: "ab", repetitions: 4, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "sut", levels: ["only"] }] } }"#,
    ),
    (
        "matrix = o\nrepetitions = 2\ndesign = ofat\nfactor sut = a | b\nfactor rate = 1 | 2 | 3",
        r#"ScenarioMatrix { name: "o", repetitions: 2, seed: 42, design: OneFactorAtATime, space: FactorSpace { factors: [Factor { name: "sut", levels: ["a", "b"] }, Factor { name: "rate", levels: ["1", "2", "3"] }] } }"#,
    ),
    // Whitespace and an empty level the parent already read.
    (
        "  matrix=m  \nrepetitions=3\nfactor  a=x| y |",
        r#"ScenarioMatrix { name: "m", repetitions: 3, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "a", levels: ["x", "y"] }] } }"#,
    ),
    (
        "matrix = m\nrepetitions = 3\nfactor a=b = x",
        r#"ScenarioMatrix { name: "m", repetitions: 3, seed: 42, design: FullFactorial, space: FactorSpace { factors: [Factor { name: "a", levels: ["b = x"] }] } }"#,
    ),
];

const MATRICES_REJECTED: &[&str] = &[
    "",
    "repetitions = 3\nfactor a = x",
    "matrix = m\nfactor a = x",
    "matrix = m\nrepetitions = 0\nfactor a = x",
    "matrix = m\nrepetitions = x\nfactor a = x",
    "matrix = m\nrepetitions = 3",
    "matrix = m\nrepetitions = 3\nseed = -1\nfactor a = x",
    "matrix = m\nrepetitions = 3\nfactor a = x\nfactor a = y",
    "matrix = m\nrepetitions = 3\nfactor a; = x",
    "matrix = m\nrepetitions = 3\nfactor = x",
    "matrix = m\nrepetitions = 3\nfactor a = |",
    "matrix = m\nrepetitions = 3\nfactor a = x;y",
    "matrix = m\nrepetitions = 3\nfactor a = \"x\"",
    "matrix = m\nrepetitions = 3\nbogus a = x",
    "matrix = m\nrepetitions = 3\ndesign = fractional\nfactor a = x",
    "matrix = m;x\nrepetitions = 3\nfactor a = x",
    "matrix m\nrepetitions = 3\nfactor a = x",
];

/// `(spec, the clean spec it must read as)`: the disagreements the
/// parent's parsers had, resolved to the clause grammar's rule.
const LOOSE_LOOPS: &[(&str, &str)] = &[
    ("partial: 5", "partial:5"),
    ("partial :5", "partial:5"),
    (" partial : 5 ", "partial:5"),
];
const LOOSE_PIPELINES: &[(&str, &str)] = &[
    ("drop: 0.1", "drop:0.1"),
    ("drop :0.1", "drop:0.1"),
    (" delay : 0.1 : 4 ", "delay:0.1:4"),
    ("drop:0.1,,dup:0.1", "drop:0.1,dup:0.1"),
    ("drop:0.1,", "drop:0.1"),
    (",drop:0.1", "drop:0.1"),
];
const LOOSE_SCALES: &[(&str, &str)] = &[("1,,2x5", "1,2x5"), ("1,2,x5", "1,2x5")];
const LOOSE_MATRICES: &[(&str, &str)] = &[(
    "matrix = m\nrepetitions = 3\nfactor\ta = x",
    "matrix = m\nrepetitions = 3\nfactor a = x",
)];

fn scale(spec: &str) -> Result<FactorSpace, SpecError> {
    FactorSpace::grid(spec, "clients", "rate")
}

fn pipeline(spec: &str) -> Result<String, SpecError> {
    parse_pipeline(spec).map(|pipeline| pipeline.describe())
}

/// Checks that every accepted spec reads as its pin, and that every
/// rejected one fails with an error naming the spec (for a matrix, the
/// offending line, or the whole text) and a part of it.
fn check<T: std::fmt::Debug>(
    parse: impl Fn(&str) -> Result<T, SpecError>,
    accepted: &[(&str, &str)],
    rejected: &[&str],
    debug: impl Fn(&T) -> String,
) {
    for (spec, pinned) in accepted {
        let value = parse(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(debug(&value), *pinned, "{spec:?}");
    }
    for spec in rejected {
        let error = match parse(spec) {
            Ok(value) => panic!("accepted {spec:?} as {value:?}"),
            Err(error) => error,
        };
        assert!(spec.contains(error.spec.as_str()), "{spec:?}: {error:?}");
        assert!(
            error.spec.contains(error.part.as_str()),
            "{spec:?}: {error:?}"
        );
    }
}

#[test]
fn rate_patterns_read_as_pinned() {
    check(
        |s| s.parse::<RatePattern>(),
        PATTERNS,
        PATTERNS_REJECTED,
        |v| format!("{v:?}"),
    );
}

#[test]
fn loop_models_read_as_pinned() {
    check(
        |s| s.parse::<LoopModel>(),
        LOOPS,
        LOOPS_REJECTED,
        |v| format!("{v:?}"),
    );
}

#[test]
fn fault_pipelines_read_as_pinned() {
    check(pipeline, PIPELINES, PIPELINES_REJECTED, String::clone);
}

#[test]
fn scale_grids_read_as_pinned() {
    check(scale, SCALES, SCALES_REJECTED, |v| format!("{v:?}"));
}

#[test]
fn matrix_specs_read_as_pinned() {
    check(ScenarioMatrix::parse, MATRICES, MATRICES_REJECTED, |v| {
        format!("{v:?}")
    });
}

#[test]
fn one_whitespace_rule_for_every_grammar() {
    fn same<T: std::fmt::Debug>(
        parse: impl Fn(&str) -> Result<T, SpecError>,
        pairs: &[(&str, &str)],
    ) {
        for (loose, clean) in pairs {
            let loose_value = parse(loose).unwrap_or_else(|e| panic!("{loose:?}: {e}"));
            let clean_value = parse(clean).unwrap();
            assert_eq!(
                format!("{loose_value:?}"),
                format!("{clean_value:?}"),
                "{loose:?}"
            );
        }
    }
    same(|s| s.parse::<LoopModel>(), LOOSE_LOOPS);
    same(pipeline, LOOSE_PIPELINES);
    same(scale, LOOSE_SCALES);
    same(ScenarioMatrix::parse, LOOSE_MATRICES);
}
