//! The `gt-run --chaos` spec corpus: every chaos spec written in
//! `crates/`, `tests/`, CI and the docs, pinned to the value it parses to
//! (its `Debug` form) and its `describe()` bytes, plus every malformed
//! spec that must stay rejected. A grammar refactor must keep all of it.

use gt_chaos::FaultSchedule;

/// `(spec, Debug of the parsed schedule at seed 7, describe())`.
const ACCEPTED: &[(&str, &str, &str)] = &[
    ("disconnect@3,lose=2; partial@7,keep=1; crash@9,worker=0", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(3), kind: Disconnect { lose: 2 } }, ScheduledFault { trigger: AtSeq(7), kind: PartialBatch { keep: 1 } }, ScheduledFault { trigger: AtSeq(9), kind: CrashWorker { worker: 0, restart_after: None } }], seed: 7 }", "disconnect(lose=2)@3; partial(keep=1)@7; crash(worker=0)@9"),
    ("stall@1,ms=1", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(1), kind: Stall { duration: 1ms } }], seed: 7 }", "stall(ms=1)@1"),
    ("disconnect@10,lose=5; stall@30,ms=1", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(10), kind: Disconnect { lose: 5 } }, ScheduledFault { trigger: AtSeq(30), kind: Stall { duration: 1ms } }], seed: 7 }", "disconnect(lose=5)@10; stall(ms=1)@30"),
    ("disconnect@100,lose=50", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(100), kind: Disconnect { lose: 50 } }], seed: 7 }", "disconnect(lose=50)@100"),
    ("crash@100,worker=1,restart=200", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(100), kind: CrashWorker { worker: 1, restart_after: Some(200) } }], seed: 7 }", "crash(worker=1, restart=+200)@100"),
    ("crash@200,worker=0,restart=300", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(200), kind: CrashWorker { worker: 0, restart_after: Some(300) } }], seed: 7 }", "crash(worker=0, restart=+300)@200"),
    ("crash@150,worker=1,restart=100; disconnect@400,lose=50; stall@700,ms=5", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(150), kind: CrashWorker { worker: 1, restart_after: Some(100) } }, ScheduledFault { trigger: AtSeq(400), kind: Disconnect { lose: 50 } }, ScheduledFault { trigger: AtSeq(700), kind: Stall { duration: 5ms } }], seed: 7 }", "crash(worker=1, restart=+100)@150; disconnect(lose=50)@400; stall(ms=5)@700"),
    ("crash@100,worker=0", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(100), kind: CrashWorker { worker: 0, restart_after: None } }], seed: 7 }", "crash(worker=0)@100"),
    ("crash@600,worker=0,restart=400; stall@1500,ms=20", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(600), kind: CrashWorker { worker: 0, restart_after: Some(400) } }, ScheduledFault { trigger: AtSeq(1500), kind: Stall { duration: 20ms } }], seed: 7 }", "crash(worker=0, restart=+400)@600; stall(ms=20)@1500"),
    ("stall@10,ms=1", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(10), kind: Stall { duration: 1ms } }], seed: 7 }", "stall(ms=1)@10"),
    ("stall@40,ms=50", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(40), kind: Stall { duration: 50ms } }], seed: 7 }", "stall(ms=50)@40"),
    ("crash@300,worker=1,restart=400", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(300), kind: CrashWorker { worker: 1, restart_after: Some(400) } }], seed: 7 }", "crash(worker=1, restart=+400)@300"),
    ("crash@1000,worker=0,restart=800; stall@3000,ms=100", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(1000), kind: CrashWorker { worker: 0, restart_after: Some(800) } }, ScheduledFault { trigger: AtSeq(3000), kind: Stall { duration: 100ms } }], seed: 7 }", "crash(worker=0, restart=+800)@1000; stall(ms=100)@3000"),
    ("crash@1000,worker=0,restart=800", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(1000), kind: CrashWorker { worker: 0, restart_after: Some(800) } }], seed: 7 }", "crash(worker=0, restart=+800)@1000"),
    ("crash@200,worker=0,restart=300; stall@500,ms=50", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(200), kind: CrashWorker { worker: 0, restart_after: Some(300) } }, ScheduledFault { trigger: AtSeq(500), kind: Stall { duration: 50ms } }], seed: 7 }", "crash(worker=0, restart=+300)@200; stall(ms=50)@500"),
    ("crash@5000,worker=1,restart=2000; crash@marker:phase-2,worker=0; disconnect@8000,lose=300; stall@4000,ms=50; partial@6000,keep=10", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(5000), kind: CrashWorker { worker: 1, restart_after: Some(2000) } }, ScheduledFault { trigger: AtMarker(\"phase-2\"), kind: CrashWorker { worker: 0, restart_after: None } }, ScheduledFault { trigger: AtSeq(8000), kind: Disconnect { lose: 300 } }, ScheduledFault { trigger: AtSeq(4000), kind: Stall { duration: 50ms } }, ScheduledFault { trigger: AtSeq(6000), kind: PartialBatch { keep: 10 } }], seed: 7 }", "crash(worker=1, restart=+2000)@5000; crash(worker=0)@marker:phase-2; disconnect(lose=300)@8000; stall(ms=50)@4000; partial(keep=10)@6000"),
    ("crash@100,worker=0,restart=50; stall@marker:mid,ms=5", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(100), kind: CrashWorker { worker: 0, restart_after: Some(50) } }, ScheduledFault { trigger: AtMarker(\"mid\"), kind: Stall { duration: 5ms } }], seed: 7 }", "crash(worker=0, restart=+50)@100; stall(ms=5)@marker:mid"),
    ("disconnect@10,lose=5; partial@marker:mid,keep=2", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(10), kind: Disconnect { lose: 5 } }, ScheduledFault { trigger: AtMarker(\"mid\"), kind: PartialBatch { keep: 2 } }], seed: 7 }", "disconnect(lose=5)@10; partial(keep=2)@marker:mid"),
    ("stall@12000,ms=1500; crash@24000,worker=0,restart=4000", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(12000), kind: Stall { duration: 1.5s } }, ScheduledFault { trigger: AtSeq(24000), kind: CrashWorker { worker: 0, restart_after: Some(4000) } }], seed: 7 }", "stall(ms=1500)@12000; crash(worker=0, restart=+4000)@24000"),
    ("crash@marker:phase-2,worker=0", "FaultSchedule { faults: [ScheduledFault { trigger: AtMarker(\"phase-2\"), kind: CrashWorker { worker: 0, restart_after: None } }], seed: 7 }", "crash(worker=0)@marker:phase-2"),
    ("partial@6000,keep=10", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(6000), kind: PartialBatch { keep: 10 } }], seed: 7 }", "partial(keep=10)@6000"),
    // Edges of the grammar the parent already accepted.
    (" crash@1,worker=0 ; ; stall@2,ms=3 ; ", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(1), kind: CrashWorker { worker: 0, restart_after: None } }, ScheduledFault { trigger: AtSeq(2), kind: Stall { duration: 3ms } }], seed: 7 }", "crash(worker=0)@1; stall(ms=3)@2"),
    ("crash@marker: mid,worker=0", "FaultSchedule { faults: [ScheduledFault { trigger: AtMarker(\" mid\"), kind: CrashWorker { worker: 0, restart_after: None } }], seed: 7 }", "crash(worker=0)@marker: mid"),
    ("crash@marker:a@b,worker=0", "FaultSchedule { faults: [ScheduledFault { trigger: AtMarker(\"a@b\"), kind: CrashWorker { worker: 0, restart_after: None } }], seed: 7 }", "crash(worker=0)@marker:a@b"),
    ("crash@7,restart=0,worker=3", "FaultSchedule { faults: [ScheduledFault { trigger: AtSeq(7), kind: CrashWorker { worker: 3, restart_after: Some(0) } }], seed: 7 }", "crash(worker=3, restart=+0)@7"),
];

/// Specs the parent rejected and every later grammar must reject too.
const REJECTED: &[&str] = &[
    "",
    "   ",
    " ; ; ",
    "crash",
    "crash@",
    "@100,worker=0",
    "crash@100",
    "warp@100,worker=0",
    "CRASH@100,worker=0",
    "crash@100,worker=x",
    "crash@100,worker=-1",
    "crash@100,worker=1.5",
    "crash@100,worker=",
    "crash@100,worker=0,x",
    "crash@100,worker=0,=1",
    "crash@-1,worker=0",
    "crash@1.5,worker=0",
    "crash@1 00,worker=0",
    "crash@marker:,worker=0",
    "crash@mark:x,worker=0",
    "disconnect@100",
    "disconnect@100,lose=1,keep=2",
    "stall@100",
    "stall@100,ms=1s",
    "partial@100",
    "crash@100,worker=0,worker=1",
    "crash@100,worker=0,frob=1",
    "crash@100,worker=0,restart=x",
    "crash@100,worker=0; bogus",
    "crash@100,worker=0; stall@5",
];

/// The only intended widening: specs whose sole defect is whitespace
/// around `@`/`=` or an empty `,,` part. The parent rejected them; the
/// shared clause grammar (netem's permissive rule) reads them as the
/// clean spec beside them. Either way they never parse to anything else.
const WIDENED: &[(&str, &str)] = &[
    ("crash @100,worker=0", "crash@100,worker=0"),
    ("crash@ 100,worker=0", "crash@100,worker=0"),
    ("crash@100,worker = 0", "crash@100,worker=0"),
    ("crash@100,,worker=0", "crash@100,worker=0"),
    ("crash@100,worker=0,", "crash@100,worker=0"),
    ("stall @ marker:mid , ms= 5", "stall@marker:mid,ms=5"),
];

#[test]
fn every_spec_in_the_repo_parses_to_its_pinned_value_and_description() {
    for (spec, value, describe) in ACCEPTED {
        let schedule = FaultSchedule::parse(spec, 7).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(format!("{schedule:?}"), *value, "{spec:?}");
        assert_eq!(schedule.describe(), *describe, "{spec:?}");
    }
}

#[test]
fn malformed_specs_stay_rejected() {
    for spec in REJECTED {
        assert!(FaultSchedule::parse(spec, 7).is_err(), "accepted {spec:?}");
    }
}

#[test]
fn the_widening_never_changes_what_a_spec_means() {
    for (loose, clean) in WIDENED {
        if let Ok(schedule) = FaultSchedule::parse(loose, 7) {
            assert_eq!(
                schedule,
                FaultSchedule::parse(clean, 7).unwrap(),
                "{loose:?}"
            );
        }
    }
}
