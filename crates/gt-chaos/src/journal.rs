//! The chaos journal: what actually happened, when.
//!
//! Every fault the [`crate::ChaosSink`] fires — and every recovery it
//! observes — is appended to a shared journal. The harness folds the
//! journal into the merged `ResultLog` under the `chaos` source so fault
//! and recovery markers sit chronologically next to the stream metrics
//! they perturbed, ready for `gt_analysis::recovery_windows`.

use std::sync::{Arc, Mutex};

use gt_metrics::MetricRecord;

/// The metric source label chaos records are folded under.
pub const CHAOS_SOURCE: &str = "chaos";

/// Whether a journal entry marks a fault striking or the system's path
/// back to normal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// A scheduled fault fired.
    Fault,
    /// The corresponding recovery action completed (reconnect, stall end,
    /// worker restart).
    Recovery,
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Run-relative time, microseconds.
    pub t_micros: u64,
    /// Graph-event sequence number at which it happened (events handed to
    /// the sink so far).
    pub seq: u64,
    /// Fault or recovery.
    pub kind: ChaosEventKind,
    /// Human-readable description (`disconnect(lose=300)`,
    /// `restart(worker=1) ok`).
    pub description: String,
    /// Graph events lost to this fault (0 for stalls and recoveries).
    pub events_lost: u64,
}

/// A shared, append-only record of chaos activity. Clones share the log.
#[derive(Debug, Clone, Default)]
pub struct ChaosJournal {
    events: Arc<Mutex<Vec<ChaosEvent>>>,
}

impl ChaosJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry.
    pub fn push(&self, event: ChaosEvent) {
        self.events.lock().expect("chaos journal lock").push(event);
    }

    /// A snapshot of everything journaled so far, in order.
    pub fn events(&self) -> Vec<ChaosEvent> {
        self.events.lock().expect("chaos journal lock").clone()
    }

    /// The deterministic signature of a run: `(seq, description)` pairs.
    /// Identical `(schedule, seed)` against the same stream must produce
    /// identical signatures — timestamps are excluded because wall time
    /// varies between runs.
    pub fn signature(&self) -> Vec<(u64, String)> {
        self.events()
            .into_iter()
            .map(|e| (e.seq, e.description))
            .collect()
    }

    /// Renders the journal as metric records under `source` — a text
    /// record per entry (`fault` / `recovery` metric, the description as
    /// value) plus an `events_lost` int record for lossy faults. Chaos
    /// folds under [`CHAOS_SOURCE`], gt-netem under its own label.
    pub fn records(&self, source: &str) -> Vec<MetricRecord> {
        let mut out = Vec::new();
        for event in self.events() {
            let metric = match event.kind {
                ChaosEventKind::Fault => "fault",
                ChaosEventKind::Recovery => "recovery",
            };
            out.push(MetricRecord::text(
                event.t_micros,
                source,
                metric,
                event.description.clone(),
            ));
            if event.events_lost > 0 {
                out.push(MetricRecord::int(
                    event.t_micros,
                    source,
                    "events_lost",
                    event.events_lost as i64,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, kind: ChaosEventKind, description: &str, lost: u64) -> ChaosEvent {
        ChaosEvent {
            t_micros: seq * 10,
            seq,
            kind,
            description: description.to_owned(),
            events_lost: lost,
        }
    }

    #[test]
    fn journal_is_shared_and_ordered() {
        let journal = ChaosJournal::new();
        let clone = journal.clone();
        journal.push(entry(5, ChaosEventKind::Fault, "disconnect(lose=2)", 2));
        clone.push(entry(7, ChaosEventKind::Recovery, "reconnected", 0));
        assert_eq!(journal.events().len(), 2);
        assert_eq!(
            journal.signature(),
            vec![
                (5, "disconnect(lose=2)".to_owned()),
                (7, "reconnected".to_owned()),
            ]
        );
    }

    #[test]
    fn records_carry_loss_counts() {
        let journal = ChaosJournal::new();
        journal.push(entry(5, ChaosEventKind::Fault, "disconnect(lose=2)", 2));
        journal.push(entry(7, ChaosEventKind::Recovery, "reconnected", 0));
        let records = journal.records(CHAOS_SOURCE);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].source, CHAOS_SOURCE);
        assert_eq!(records[0].metric, "fault");
        assert_eq!(records[1].metric, "events_lost");
        assert_eq!(records[2].metric, "recovery");
    }
}
