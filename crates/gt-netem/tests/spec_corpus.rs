//! The `gt-run --netem` spec corpus: every netem spec written in
//! `crates/`, `tests/`, CI and the docs, pinned to the value it parses to
//! (its `Debug` form) and its `describe()` bytes, plus every malformed
//! spec that must stay rejected. A grammar refactor must keep all of it.

use gt_netem::NetemSchedule;

/// `(spec, Debug of the parsed schedule at seed 7, describe())`.
const ACCEPTED: &[(&str, &str, &str)] = &[
    ("delay@0ms,ms=1", "NetemSchedule { faults: [NetemFault { at: 0ns, kind: Delay { delay: 1ms, jitter: 0ns, duration: None }, conns: All }], seed: 7 }", "delay(ms=1)@0ms"),
    ("partition@200ms,dur=300ms,conns=0-1", "NetemSchedule { faults: [NetemFault { at: 200ms, kind: Partition { duration: 300ms }, conns: Range { first: 0, last: 1 } }], seed: 7 }", "partition(dur=300ms, conns=0-1)@200ms"),
    ("partition@100ms,dur=200ms", "NetemSchedule { faults: [NetemFault { at: 100ms, kind: Partition { duration: 200ms }, conns: All }], seed: 7 }", "partition(dur=200ms)@100ms"),
    ("kill@150ms,mode=fin", "NetemSchedule { faults: [NetemFault { at: 150ms, kind: Kill { mode: Fin }, conns: All }], seed: 7 }", "kill(mode=fin)@150ms"),
    ("partition@50ms,dur=150ms", "NetemSchedule { faults: [NetemFault { at: 50ms, kind: Partition { duration: 150ms }, conns: All }], seed: 7 }", "partition(dur=150ms)@50ms"),
    ("kill@50ms,mode=rst,conns=0", "NetemSchedule { faults: [NetemFault { at: 50ms, kind: Kill { mode: Rst }, conns: Range { first: 0, last: 0 } }], seed: 7 }", "kill(mode=rst, conns=0)@50ms"),
    ("truncate@100ms,bytes=8; corrupt@100ms,bytes=4", "NetemSchedule { faults: [NetemFault { at: 100ms, kind: Truncate { bytes: 8 }, conns: All }, NetemFault { at: 100ms, kind: Corrupt { bytes: 4 }, conns: All }], seed: 7 }", "truncate(bytes=8)@100ms; corrupt(bytes=4)@100ms"),
    ("partition@60s,dur=1s", "NetemSchedule { faults: [NetemFault { at: 60s, kind: Partition { duration: 1s }, conns: All }], seed: 7 }", "partition(dur=1s)@60s"),
    ("kill@300ms,mode=rst,conns=0", "NetemSchedule { faults: [NetemFault { at: 300ms, kind: Kill { mode: Rst }, conns: Range { first: 0, last: 0 } }], seed: 7 }", "kill(mode=rst, conns=0)@300ms"),
    ("partition@150ms,dur=200ms,conns=0-1; delay@100ms,ms=3,jitter=2; kill@400ms,mode=rst,conns=2", "NetemSchedule { faults: [NetemFault { at: 150ms, kind: Partition { duration: 200ms }, conns: Range { first: 0, last: 1 } }, NetemFault { at: 100ms, kind: Delay { delay: 3ms, jitter: 2ms, duration: None }, conns: All }, NetemFault { at: 400ms, kind: Kill { mode: Rst }, conns: Range { first: 2, last: 2 } }], seed: 7 }", "partition(dur=200ms, conns=0-1)@150ms; delay(ms=3, jitter=2)@100ms; kill(mode=rst, conns=2)@400ms"),
    ("kill@250ms,mode=rst,conns=0", "NetemSchedule { faults: [NetemFault { at: 250ms, kind: Kill { mode: Rst }, conns: Range { first: 0, last: 0 } }], seed: 7 }", "kill(mode=rst, conns=0)@250ms"),
    ("kill@100ms,mode=rst,conns=0", "NetemSchedule { faults: [NetemFault { at: 100ms, kind: Kill { mode: Rst }, conns: Range { first: 0, last: 0 } }], seed: 7 }", "kill(mode=rst, conns=0)@100ms"),
    ("kill@60ms,mode=fin", "NetemSchedule { faults: [NetemFault { at: 60ms, kind: Kill { mode: Fin }, conns: All }], seed: 7 }", "kill(mode=fin)@60ms"),
    ("partition@500ms,dur=400ms,conns=0-1", "NetemSchedule { faults: [NetemFault { at: 500ms, kind: Partition { duration: 400ms }, conns: Range { first: 0, last: 1 } }], seed: 7 }", "partition(dur=400ms, conns=0-1)@500ms"),
    ("kill@300ms,mode=fin", "NetemSchedule { faults: [NetemFault { at: 300ms, kind: Kill { mode: Fin }, conns: All }], seed: 7 }", "kill(mode=fin)@300ms"),
    ("partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5; kill@6s,mode=rst,conns=2", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Delay { delay: 20ms, jitter: 5ms, duration: None }, conns: All }, NetemFault { at: 6s, kind: Kill { mode: Rst }, conns: Range { first: 2, last: 2 } }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; delay(ms=20, jitter=5)@4s; kill(mode=rst, conns=2)@6s"),
    ("partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Delay { delay: 20ms, jitter: 0ns, duration: None }, conns: All }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; delay(ms=20)@4s"),
    ("partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Delay { delay: 20ms, jitter: 5ms, duration: None }, conns: All }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; delay(ms=20, jitter=5)@4s"),
    ("partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5; throttle@1000,kbps=64,dur=2s; kill@1500ms,mode=rst,conns=2; corrupt@3s,bytes=16; truncate@5s,bytes=8,conns=1-1", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Delay { delay: 20ms, jitter: 5ms, duration: None }, conns: All }, NetemFault { at: 1s, kind: Throttle { kbps: 64, duration: Some(2s) }, conns: All }, NetemFault { at: 1.5s, kind: Kill { mode: Rst }, conns: Range { first: 2, last: 2 } }, NetemFault { at: 3s, kind: Corrupt { bytes: 16 }, conns: All }, NetemFault { at: 5s, kind: Truncate { bytes: 8 }, conns: Range { first: 1, last: 1 } }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; delay(ms=20, jitter=5)@4s; throttle(kbps=64, dur=2s)@1s; kill(mode=rst, conns=2)@1500ms; corrupt(bytes=16)@3s; truncate(bytes=8, conns=1)@5s"),
    ("partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5; kill@1s,mode=fin", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Delay { delay: 20ms, jitter: 5ms, duration: None }, conns: All }, NetemFault { at: 1s, kind: Kill { mode: Fin }, conns: All }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; delay(ms=20, jitter=5)@4s; kill(mode=fin)@1s"),
    ("partition@2s,dur=500ms,conns=0-3; kill@4s,mode=fin", "NetemSchedule { faults: [NetemFault { at: 2s, kind: Partition { duration: 500ms }, conns: Range { first: 0, last: 3 } }, NetemFault { at: 4s, kind: Kill { mode: Fin }, conns: All }], seed: 7 }", "partition(dur=500ms, conns=0-3)@2s; kill(mode=fin)@4s"),
    ("kill@1s,mode=rst", "NetemSchedule { faults: [NetemFault { at: 1s, kind: Kill { mode: Rst }, conns: All }], seed: 7 }", "kill(mode=rst)@1s"),
    // Netem's permissive rule, which the shared clause grammar keeps:
    // whitespace around `@`, `=` and `,`, and empty parts, are ignored.
    ("delay @ 1s , ms = 20 ,, jitter=5 ,", "NetemSchedule { faults: [NetemFault { at: 1s, kind: Delay { delay: 20ms, jitter: 5ms, duration: None }, conns: All }], seed: 7 }", "delay(ms=20, jitter=5)@1s"),
    (" throttle@ 3 s,kbps= 8 ; ; delay@250,ms=0,dur=1000 ;", "NetemSchedule { faults: [NetemFault { at: 3s, kind: Throttle { kbps: 8, duration: None }, conns: All }, NetemFault { at: 250ms, kind: Delay { delay: 0ns, jitter: 0ns, duration: Some(1s) }, conns: All }], seed: 7 }", "throttle(kbps=8)@3s; delay(ms=0, dur=1s)@250ms"),
    ("partition@0,dur=1ms,conns= 2 - 4", "NetemSchedule { faults: [NetemFault { at: 0ns, kind: Partition { duration: 1ms }, conns: Range { first: 2, last: 4 } }], seed: 7 }", "partition(dur=1ms, conns=2-4)@0ms"),
    ("delay@1s,ms=20,jitter=0", "NetemSchedule { faults: [NetemFault { at: 1s, kind: Delay { delay: 20ms, jitter: 0ns, duration: None }, conns: All }], seed: 7 }", "delay(ms=20)@1s"),
];

/// Specs the parent rejected and every later grammar must reject too.
const REJECTED: &[&str] = &[
    "",
    "  ;  ",
    "partition,dur=1s",
    "@1s,dur=1s",
    "partition@",
    "partition@2s",
    "partition@2s,dur=oops",
    "partition@nope,dur=1s",
    "partition@-1s,dur=1s",
    "partition@1.5s,dur=1s",
    "partition@1m,dur=1s",
    "delay@1s",
    "delay@1s,ms=20,ms=30",
    "delay@1s,ms=20,bogus=1",
    "delay@1s,ms=1.5",
    "delay@1s,ms=20,jitter=x",
    "delay@1s,ms=20,dur=",
    "delay@1s,ms=20,mode=rst",
    "delay@1s,ms=20,x",
    "throttle@1s,kbps=0",
    "throttle@1s,kbps=-1",
    "throttle@1s",
    "kill@1s",
    "kill@1s,mode=hup",
    "kill@1s,mode=rst,mode=fin",
    "kill@1s,mode=",
    "corrupt@1s",
    "truncate@1s",
    "truncate@1s,bytes=8,mode=fin",
    "frobnicate@1s,x=2",
    "Partition@1s,dur=1s",
    "partition@1s,dur=1s,conns=3-1",
    "partition@1s,dur=1s,conns=x",
    "partition@1s,dur=1s,conns=",
    "partition@1s,dur=1s,conns=1-",
    "partition@1s,dur=1s,conns=0,conns=1",
    "partition@1s,dur=1s; bogus",
];

#[test]
fn every_spec_in_the_repo_parses_to_its_pinned_value_and_description() {
    for (spec, value, describe) in ACCEPTED {
        let schedule = NetemSchedule::parse(spec, 7).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(format!("{schedule:?}"), *value, "{spec:?}");
        assert_eq!(schedule.describe(), *describe, "{spec:?}");
    }
}

#[test]
fn malformed_specs_stay_rejected() {
    for spec in REJECTED {
        assert!(NetemSchedule::parse(spec, 7).is_err(), "accepted {spec:?}");
    }
}
