//! Network fault schedules.
//!
//! A schedule is written in the shared clause form
//! ([`gt_chaos::clause`], the workspace's one spec tokenizer):
//! `;`-separated clauses, each naming a fault kind, an at-time trigger
//! after `@`, and comma-separated parameters:
//!
//! ```text
//! partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5
//! ```
//!
//! Triggers and durations accept `Nms`, `Ns`, or a bare integer (milliseconds).
//! `conns=A-B` (or `conns=A`) restricts a fault to a contiguous range of
//! connection indices in accept order; omitting it applies the fault to every
//! connection, including ones accepted later while the fault is active.

use std::fmt;
use std::time::Duration;

use gt_chaos::clause::{parse_clauses, SpecError};

/// Which proxied connections a fault applies to, by accept order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnRange {
    /// Every connection, including ones accepted while the fault is active.
    All,
    /// The inclusive range of connection indices `first..=last`.
    Range {
        /// First connection index covered.
        first: u32,
        /// Last connection index covered (inclusive).
        last: u32,
    },
}

impl ConnRange {
    /// Whether connection index `conn` falls inside this range.
    pub fn contains(&self, conn: u32) -> bool {
        match self {
            ConnRange::All => true,
            ConnRange::Range { first, last } => (*first..=*last).contains(&conn),
        }
    }
}

impl fmt::Display for ConnRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnRange::All => write!(f, "all"),
            ConnRange::Range { first, last } if first == last => write!(f, "{first}"),
            ConnRange::Range { first, last } => write!(f, "{first}-{last}"),
        }
    }
}

/// How a connection kill is delivered to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Abrupt reset: the proxy drops the client socket with unread data
    /// queued, which elicits a kernel RST segment.
    Rst,
    /// Graceful close: the proxy drains in-flight data upstream, then sends a
    /// FIN via `shutdown(Write)` and stops reading.
    Fin,
}

impl KillMode {
    fn label(&self) -> &'static str {
        match self {
            KillMode::Rst => "rst",
            KillMode::Fin => "fin",
        }
    }
}

/// The fault kinds the proxy can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetemFaultKind {
    /// Blackhole: the proxy stops reading from matching connections, letting
    /// TCP backpressure stall the client, then heals after `duration`.
    Partition {
        /// How long the blackhole lasts before healing.
        duration: Duration,
    },
    /// Added per-read latency with optional uniform jitter, for an optional
    /// window (unbounded if `duration` is `None`).
    Delay {
        /// Base delay added before forwarding each read.
        delay: Duration,
        /// Uniform jitter half-width around the base delay.
        jitter: Duration,
        /// Window length; `None` means until the run ends.
        duration: Option<Duration>,
    },
    /// Bandwidth cap in kilobytes per second, for an optional window.
    Throttle {
        /// Cap in kilobytes (1024 bytes) per second.
        kbps: u64,
        /// Window length; `None` means until the run ends.
        duration: Option<Duration>,
    },
    /// One-shot connection kill.
    Kill {
        /// Abrupt RST or graceful FIN.
        mode: KillMode,
    },
    /// Corrupt the next `bytes` forwarded bytes by XOR with a seeded nonzero
    /// mask.
    Corrupt {
        /// Number of bytes to corrupt.
        bytes: u64,
    },
    /// Silently drop the next `bytes` forwarded bytes.
    Truncate {
        /// Number of bytes to drop.
        bytes: u64,
    },
}

impl NetemFaultKind {
    /// Short kind name used in journal descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            NetemFaultKind::Partition { .. } => "partition",
            NetemFaultKind::Delay { .. } => "delay",
            NetemFaultKind::Throttle { .. } => "throttle",
            NetemFaultKind::Kill { .. } => "kill",
            NetemFaultKind::Corrupt { .. } => "corrupt",
            NetemFaultKind::Truncate { .. } => "truncate",
        }
    }

    /// The window after which the fault clears, if it is a windowed kind.
    pub(crate) fn clear_after(&self) -> Option<Duration> {
        match self {
            NetemFaultKind::Partition { duration } => Some(*duration),
            NetemFaultKind::Delay { duration, .. } | NetemFaultKind::Throttle { duration, .. } => {
                *duration
            }
            _ => None,
        }
    }
}

/// A single scheduled network fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetemFault {
    /// When the fault fires, measured from proxy start.
    pub at: Duration,
    /// What the fault does.
    pub kind: NetemFaultKind,
    /// Which connections it applies to.
    pub conns: ConnRange,
}

impl NetemFault {
    /// Human-readable clause used in journal descriptions; round-trips the
    /// shape of the spec grammar, e.g. `partition(dur=500ms, conns=0-3)@2s`.
    pub fn describe(&self) -> String {
        let mut params = Vec::new();
        match &self.kind {
            NetemFaultKind::Partition { duration } => {
                params.push(format!("dur={}", fmt_duration(*duration)));
            }
            NetemFaultKind::Delay {
                delay,
                jitter,
                duration,
            } => {
                params.push(format!("ms={}", delay.as_millis()));
                if !jitter.is_zero() {
                    params.push(format!("jitter={}", jitter.as_millis()));
                }
                if let Some(d) = duration {
                    params.push(format!("dur={}", fmt_duration(*d)));
                }
            }
            NetemFaultKind::Throttle { kbps, duration } => {
                params.push(format!("kbps={kbps}"));
                if let Some(d) = duration {
                    params.push(format!("dur={}", fmt_duration(*d)));
                }
            }
            NetemFaultKind::Kill { mode } => {
                params.push(format!("mode={}", mode.label()));
            }
            NetemFaultKind::Corrupt { bytes } | NetemFaultKind::Truncate { bytes } => {
                params.push(format!("bytes={bytes}"));
            }
        }
        if self.conns != ConnRange::All {
            params.push(format!("conns={}", self.conns));
        }
        format!(
            "{}({})@{}",
            self.kind.name(),
            params.join(", "),
            fmt_duration(self.at)
        )
    }
}

/// A parsed, seeded network fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetemSchedule {
    /// Scheduled faults, in spec order.
    pub faults: Vec<NetemFault>,
    /// Seed driving jitter and corruption masks.
    pub seed: u64,
}

impl NetemSchedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        NetemSchedule {
            faults: Vec::new(),
            seed,
        }
    }

    /// Whether the schedule has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Round-trips the parsed schedule back into clause shape for display.
    pub fn describe(&self) -> String {
        self.faults
            .iter()
            .map(NetemFault::describe)
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Parses a `;`-separated spec like
    /// `partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5` — the
    /// shared clause form ([`gt_chaos::clause`]) with an at-time trigger.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, SpecError> {
        let faults = parse_clauses(spec, |clause| {
            let at = parse_duration(clause.trigger)
                .ok_or_else(|| clause.error("expected a trigger Nms, Ns or N"))?;
            let conns = clause
                .take_with("conns", parse_conns)?
                .unwrap_or(ConnRange::All);
            let kind = match clause.kind {
                "partition" => NetemFaultKind::Partition {
                    duration: clause.require_with("dur", parse_duration)?,
                },
                "delay" => NetemFaultKind::Delay {
                    delay: Duration::from_millis(clause.require("ms")?),
                    jitter: Duration::from_millis(clause.take("jitter")?.unwrap_or(0)),
                    duration: clause.take_with("dur", parse_duration)?,
                },
                "throttle" => match clause.require("kbps")? {
                    0 => {
                        return Err(
                            clause.error("throttle needs kbps > 0 (use partition for a blackhole)")
                        )
                    }
                    kbps => NetemFaultKind::Throttle {
                        kbps,
                        duration: clause.take_with("dur", parse_duration)?,
                    },
                },
                "kill" => NetemFaultKind::Kill {
                    mode: clause.require_with("mode", |mode| match mode {
                        "rst" => Some(KillMode::Rst),
                        "fin" => Some(KillMode::Fin),
                        _ => None,
                    })?,
                },
                "corrupt" => NetemFaultKind::Corrupt {
                    bytes: clause.require("bytes")?,
                },
                "truncate" => NetemFaultKind::Truncate {
                    bytes: clause.require("bytes")?,
                },
                _ => {
                    return Err(clause.error(
                        "unknown netem fault kind \
                         (expected partition|delay|throttle|kill|corrupt|truncate)",
                    ))
                }
            };
            Ok(NetemFault { at, kind, conns })
        })?;
        Ok(NetemSchedule { faults, seed })
    }
}

fn parse_conns(value: &str) -> Option<ConnRange> {
    let (first, last) = value.split_once('-').unwrap_or((value, value));
    let (first, last) = (first.trim().parse().ok()?, last.trim().parse().ok()?);
    (first <= last).then_some(ConnRange::Range { first, last })
}

fn parse_duration(value: &str) -> Option<Duration> {
    if let Some(ms) = value.strip_suffix("ms") {
        return ms.trim().parse().ok().map(Duration::from_millis);
    }
    if let Some(s) = value.strip_suffix('s') {
        return s.trim().parse().ok().map(Duration::from_secs);
    }
    value.parse().ok().map(Duration::from_millis)
}

fn fmt_duration(d: Duration) -> String {
    let ms = d.as_millis();
    if ms > 0 && ms % 1000 == 0 {
        format!("{}s", ms / 1000)
    } else {
        format!("{ms}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_trigger() {
        let spec = "partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5; \
                    throttle@1000,kbps=64,dur=2s; kill@1500ms,mode=rst,conns=2; \
                    corrupt@3s,bytes=16; truncate@5s,bytes=8,conns=1-1";
        let schedule = NetemSchedule::parse(spec, 9).unwrap();
        assert_eq!(schedule.seed, 9);
        assert_eq!(schedule.faults.len(), 6);
        assert_eq!(
            schedule.faults[0],
            NetemFault {
                at: Duration::from_secs(2),
                kind: NetemFaultKind::Partition {
                    duration: Duration::from_millis(500)
                },
                conns: ConnRange::Range { first: 0, last: 3 },
            }
        );
        assert_eq!(
            schedule.faults[1].kind,
            NetemFaultKind::Delay {
                delay: Duration::from_millis(20),
                jitter: Duration::from_millis(5),
                duration: None,
            }
        );
        assert_eq!(schedule.faults[2].at, Duration::from_millis(1000));
        assert_eq!(
            schedule.faults[3].kind,
            NetemFaultKind::Kill {
                mode: KillMode::Rst
            }
        );
        assert!(schedule.faults[3].conns.contains(2));
        assert!(!schedule.faults[3].conns.contains(3));
        assert_eq!(
            schedule.faults[5].conns,
            ConnRange::Range { first: 1, last: 1 }
        );
    }

    #[test]
    fn describe_round_trips_the_spec_shape() {
        let spec = "partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20,jitter=5; kill@1s,mode=fin";
        let schedule = NetemSchedule::parse(spec, 0).unwrap();
        assert_eq!(
            schedule.describe(),
            "partition(dur=500ms, conns=0-3)@2s; delay(ms=20, jitter=5)@4s; kill(mode=fin)@1s"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases = [
            "",
            "  ;  ",
            "partition,dur=1s",
            "partition@2s",
            "partition@2s,dur=oops",
            "partition@nope,dur=1s",
            "delay@1s",
            "delay@1s,ms=20,ms=30",
            "delay@1s,ms=20,bogus=1",
            "throttle@1s,kbps=0",
            "kill@1s",
            "kill@1s,mode=hup",
            "corrupt@1s",
            "frobnicate@1s,x=2",
            "partition@1s,dur=1s,conns=3-1",
            "partition@1s,dur=1s,conns=x",
        ];
        for case in cases {
            assert!(
                NetemSchedule::parse(case, 0).is_err(),
                "expected parse error for {case:?}"
            );
        }
    }

    #[test]
    fn parser_builds_the_schedule() {
        let parsed =
            NetemSchedule::parse("partition@2s,dur=500ms,conns=0-3; kill@4s,mode=fin", 7).unwrap();
        let built = NetemSchedule {
            faults: vec![
                NetemFault {
                    at: Duration::from_secs(2),
                    kind: NetemFaultKind::Partition {
                        duration: Duration::from_millis(500),
                    },
                    conns: ConnRange::Range { first: 0, last: 3 },
                },
                NetemFault {
                    at: Duration::from_secs(4),
                    kind: NetemFaultKind::Kill {
                        mode: KillMode::Fin,
                    },
                    conns: ConnRange::All,
                },
            ],
            seed: 7,
        };
        assert_eq!(parsed, built);
    }

    #[test]
    fn bare_integers_and_units_parse_as_durations() {
        assert_eq!(parse_duration("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("250ms"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("3s"), Some(Duration::from_secs(3)));
        assert_eq!(parse_duration("3 s"), Some(Duration::from_secs(3)));
        assert_eq!(parse_duration("x"), None);
        assert_eq!(fmt_duration(Duration::from_millis(2000)), "2s");
        assert_eq!(fmt_duration(Duration::from_millis(500)), "500ms");
        assert_eq!(fmt_duration(Duration::ZERO), "0ms");
    }
}
