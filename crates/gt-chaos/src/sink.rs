//! The chaos middleware sink.
//!
//! [`ChaosSink`] wraps any [`EventSink`] and injects the faults of a
//! [`FaultSchedule`] while a run is live: forced disconnects that lose
//! events, consumer stalls that backpressure the replayer, truncated batch
//! writes, and scheduled worker crashes delivered through the platform's
//! [`WorkerSupervisor`]. Everything it does is journaled with the stream
//! position it happened at, so runs are replayable and analyzable.

use std::io;
use std::sync::Arc;

use gt_core::prelude::*;
use gt_metrics::Clock;
use gt_replayer::{EventSink, SinkEvent};
use gt_sut::WorkerSupervisor;

use crate::journal::{ChaosEvent, ChaosEventKind, ChaosJournal};
use crate::schedule::{FaultKind, FaultSchedule, FaultTrigger};

/// An [`EventSink`] middleware that injects scheduled transport faults and
/// worker crashes into a live replay.
///
/// Sequence numbering counts *graph events handed to this sink*, 1-based;
/// a fault at `AtSeq(n)` fires when event `n` arrives and applies to that
/// event onward. Markers and control entries are never dropped (phase
/// structure survives, as with `gt-faults`), and marker-triggered faults
/// fire after the marker itself has been delivered. A stall waits on, and
/// every journal entry is stamped with, the sink's clock.
pub struct ChaosSink<S> {
    inner: S,
    pending: Vec<Option<crate::schedule::ScheduledFault>>,
    journal: ChaosJournal,
    supervisor: Option<Arc<dyn WorkerSupervisor>>,
    clock: Arc<dyn Clock>,
    seq: u64,
    /// Graph events still to drop for an active disconnect.
    blackout: u64,
    /// Events dropped by the active disconnect so far.
    blackout_lost: u64,
    /// A fired-but-unapplied partial-batch fault.
    partial_keep: Option<usize>,
    /// `(due_seq, worker)` restarts scheduled by crash faults.
    restarts: Vec<(u64, usize)>,
}

impl<S: EventSink> ChaosSink<S> {
    /// Wraps `inner`, arming every fault of the schedule.
    pub fn new(
        inner: S,
        schedule: &FaultSchedule,
        journal: ChaosJournal,
        clock: Arc<dyn Clock>,
    ) -> Self {
        ChaosSink {
            inner,
            pending: schedule.faults.iter().cloned().map(Some).collect(),
            journal,
            supervisor: None,
            clock,
            seq: 0,
            blackout: 0,
            blackout_lost: 0,
            partial_keep: None,
            restarts: Vec::new(),
        }
    }

    /// Attaches the platform's crash/restart surface. Without one, crash
    /// faults are journaled as undeliverable instead of firing.
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Arc<dyn WorkerSupervisor>) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    fn note(&self, kind: ChaosEventKind, description: String, events_lost: u64) {
        self.journal.push(ChaosEvent {
            t_micros: self.clock.now_micros(),
            seq: self.seq,
            kind,
            description,
            events_lost,
        });
    }

    fn fire(&mut self, index: usize) {
        let fault = self.pending[index].take().expect("fault fired twice");
        match fault.kind {
            FaultKind::Disconnect { lose } => {
                self.note(
                    ChaosEventKind::Fault,
                    fault.kind.describe(),
                    0, // actual losses land on the recovery entry
                );
                self.blackout = lose;
                self.blackout_lost = 0;
            }
            FaultKind::Stall { duration } => {
                self.note(ChaosEventKind::Fault, fault.kind.describe(), 0);
                self.clock
                    .wait_until(self.clock.now_micros() + duration.as_micros() as u64);
                self.note(
                    ChaosEventKind::Recovery,
                    format!("stall ended after {} ms", duration.as_millis()),
                    0,
                );
            }
            FaultKind::PartialBatch { keep } => {
                self.note(ChaosEventKind::Fault, fault.kind.describe(), 0);
                self.partial_keep = Some(keep);
            }
            FaultKind::CrashWorker {
                worker,
                restart_after,
            } => {
                let delivered = match &self.supervisor {
                    Some(supervisor) => supervisor.inject_crash(worker),
                    None => false,
                };
                let outcome = if delivered {
                    "ok"
                } else if self.supervisor.is_none() {
                    "no supervisor"
                } else {
                    "refused"
                };
                self.note(
                    ChaosEventKind::Fault,
                    format!("{} {outcome}", fault.kind.describe()),
                    0,
                );
                if delivered {
                    if let Some(after) = restart_after {
                        self.restarts.push((self.seq.saturating_add(after), worker));
                    }
                }
            }
        }
    }

    /// Fires every armed fault whose sequence trigger is due.
    fn fire_due_seq(&mut self) {
        for i in 0..self.pending.len() {
            let due = matches!(
                &self.pending[i],
                Some(f) if matches!(f.trigger, FaultTrigger::AtSeq(at) if at <= self.seq)
            );
            if due {
                self.fire(i);
            }
        }
    }

    /// Fires every armed fault waiting on this marker label.
    fn fire_due_marker(&mut self, name: &str) {
        for i in 0..self.pending.len() {
            let due = matches!(
                &self.pending[i],
                Some(f) if matches!(&f.trigger, FaultTrigger::AtMarker(m) if m == name)
            );
            if due {
                self.fire(i);
            }
        }
    }

    /// Performs restarts that have come due.
    fn run_due_restarts(&mut self) {
        while let Some(pos) = self.restarts.iter().position(|&(due, _)| due <= self.seq) {
            let (_, worker) = self.restarts.remove(pos);
            let ok = self
                .supervisor
                .as_ref()
                .map(|s| s.restart_worker(worker))
                .unwrap_or(false);
            self.note(
                ChaosEventKind::Recovery,
                format!(
                    "restart(worker={worker}) {}",
                    if ok { "ok" } else { "failed" }
                ),
                0,
            );
        }
    }

    /// Advances the stream position for one graph event and returns
    /// whether it should be delivered (false = lost to a blackout).
    fn admit_graph_event(&mut self) -> bool {
        self.seq += 1;
        self.fire_due_seq();
        self.run_due_restarts();
        if self.blackout > 0 {
            self.blackout -= 1;
            self.blackout_lost += 1;
            if self.blackout == 0 {
                self.note(
                    ChaosEventKind::Recovery,
                    format!("reconnected after {} lost events", self.blackout_lost),
                    self.blackout_lost,
                );
                self.blackout_lost = 0;
            }
            return false;
        }
        true
    }
}

impl<S: EventSink> EventSink for ChaosSink<S> {
    fn open(&mut self) -> io::Result<()> {
        self.inner.open()
    }

    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        match entry {
            StreamEntry::Graph(_) => {
                if self.admit_graph_event() {
                    self.inner.send(entry)?;
                }
                Ok(())
            }
            StreamEntry::Marker(name) => {
                self.inner.send(entry)?;
                let name = name.clone();
                self.fire_due_marker(&name);
                Ok(())
            }
            StreamEntry::Control(_) => self.inner.send(entry),
        }
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        let mut surviving: Vec<SharedEntry> = Vec::with_capacity(batch.len());
        let mut markers: Vec<String> = Vec::new();
        for entry in batch {
            match entry.as_ref() {
                StreamEntry::Graph(_) => {
                    if self.admit_graph_event() {
                        surviving.push(entry.clone());
                    }
                }
                StreamEntry::Marker(name) => {
                    surviving.push(entry.clone());
                    markers.push(name.clone());
                }
                StreamEntry::Control(_) => surviving.push(entry.clone()),
            }
        }
        if let Some(keep) = self.partial_keep.take() {
            if surviving.len() > keep {
                let dropped = (surviving.len() - keep) as u64;
                surviving.truncate(keep);
                self.note(
                    ChaosEventKind::Recovery,
                    format!("partial batch applied, dropped {dropped}"),
                    dropped,
                );
            } else {
                // Batch was already short enough; nothing lost.
                self.note(
                    ChaosEventKind::Recovery,
                    "partial batch applied, dropped 0".to_owned(),
                    0,
                );
            }
        }
        if !surviving.is_empty() {
            self.inner.send_batch(&surviving)?;
        }
        // Marker-triggered faults fire after their marker is delivered.
        for name in markers {
            self.fire_due_marker(&name);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn close(&mut self) -> io::Result<()> {
        if self.blackout > 0 && self.blackout_lost > 0 {
            self.note(
                ChaosEventKind::Recovery,
                format!(
                    "stream ended mid-disconnect, {} events lost",
                    self.blackout_lost
                ),
                self.blackout_lost,
            );
            self.blackout = 0;
            self.blackout_lost = 0;
        }
        self.inner.close()
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        self.inner.drain_events()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use gt_metrics::ManualClock;
    use gt_replayer::CollectSink;

    use super::*;

    fn vertex(i: u64) -> StreamEntry {
        StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        })
    }

    fn schedule(spec: &str) -> FaultSchedule {
        FaultSchedule::parse(spec, 0).unwrap()
    }

    fn chaos(schedule: FaultSchedule) -> (ChaosSink<CollectSink>, ChaosJournal) {
        let journal = ChaosJournal::new();
        let sink = ChaosSink::new(
            CollectSink::new(),
            &schedule,
            journal.clone(),
            Arc::new(ManualClock::new()),
        );
        (sink, journal)
    }

    #[test]
    fn disconnect_loses_exactly_lose_events() {
        let schedule = schedule("disconnect@3,lose=4");
        let (mut sink, journal) = chaos(schedule);
        for i in 0..10 {
            sink.send(&vertex(i)).unwrap();
        }
        sink.close().unwrap();
        // Events 3..=6 (1-based seq) are lost: 10 in, 6 delivered.
        assert_eq!(sink.inner.entries.len(), 6);
        let signature = journal.signature();
        assert_eq!(signature.len(), 2);
        assert_eq!(signature[0], (3, "disconnect(lose=4)".to_owned()));
        assert_eq!(
            signature[1],
            (6, "reconnected after 4 lost events".to_owned())
        );
        let lost: u64 = journal.events().iter().map(|e| e.events_lost).sum();
        assert_eq!(lost, 4);
    }

    #[test]
    fn disconnect_truncated_by_stream_end_still_reports_loss() {
        let schedule = schedule("disconnect@4,lose=100");
        let (mut sink, journal) = chaos(schedule);
        for i in 0..6 {
            sink.send(&vertex(i)).unwrap();
        }
        sink.close().unwrap();
        assert_eq!(sink.inner.entries.len(), 3);
        let lost: u64 = journal.events().iter().map(|e| e.events_lost).sum();
        assert_eq!(lost, 3);
    }

    #[test]
    fn markers_survive_blackouts_and_trigger_faults() {
        let schedule = schedule("disconnect@1,lose=100; stall@marker:mid,ms=1");
        let (mut sink, journal) = chaos(schedule);
        sink.send(&vertex(0)).unwrap();
        sink.send(&StreamEntry::marker("mid")).unwrap();
        sink.send(&vertex(1)).unwrap();
        sink.close().unwrap();
        // Both graph events lost, marker delivered.
        assert_eq!(sink.inner.entries.len(), 1);
        assert!(sink.inner.entries[0].is_marker());
        let descriptions: Vec<String> = journal
            .events()
            .iter()
            .map(|e| e.description.clone())
            .collect();
        assert!(descriptions.iter().any(|d| d == "stall(ms=1)"));
        assert!(descriptions.iter().any(|d| d.starts_with("stall ended")));
    }

    #[test]
    fn partial_batch_truncates_next_batch_only() {
        let schedule = schedule("partial@2,keep=1");
        let (mut sink, journal) = chaos(schedule);
        let batch: Vec<SharedEntry> = (0..4).map(|i| SharedEntry::new(vertex(i))).collect();
        sink.send_batch(&batch).unwrap();
        let batch2: Vec<SharedEntry> = (4..8).map(|i| SharedEntry::new(vertex(i))).collect();
        sink.send_batch(&batch2).unwrap();
        sink.close().unwrap();
        // First batch truncated to 1, second untouched.
        assert_eq!(sink.inner.entries.len(), 1 + 4);
        let lost: u64 = journal.events().iter().map(|e| e.events_lost).sum();
        assert_eq!(lost, 3);
    }

    #[test]
    fn crash_without_supervisor_is_journaled_not_fatal() {
        let schedule = schedule("crash@2,worker=0,restart=1");
        let (mut sink, journal) = chaos(schedule);
        for i in 0..5 {
            sink.send(&vertex(i)).unwrap();
        }
        sink.close().unwrap();
        assert_eq!(sink.inner.entries.len(), 5);
        assert_eq!(
            journal.signature(),
            vec![(2, "crash(worker=0, restart=+1) no supervisor".to_owned())]
        );
    }

    struct FakeSupervisor {
        crashes: AtomicUsize,
        restarts: AtomicUsize,
    }

    impl WorkerSupervisor for FakeSupervisor {
        fn worker_count(&self) -> usize {
            2
        }
        fn inject_crash(&self, worker: usize) -> bool {
            self.crashes.fetch_add(1, Ordering::SeqCst);
            worker < 2
        }
        fn restart_worker(&self, worker: usize) -> bool {
            self.restarts.fetch_add(1, Ordering::SeqCst);
            worker < 2
        }
    }

    #[test]
    fn crash_and_scheduled_restart_reach_the_supervisor() {
        let supervisor = Arc::new(FakeSupervisor {
            crashes: AtomicUsize::new(0),
            restarts: AtomicUsize::new(0),
        });
        let schedule = schedule("crash@2,worker=1,restart=3");
        let journal = ChaosJournal::new();
        let mut sink = ChaosSink::new(
            CollectSink::new(),
            &schedule,
            journal.clone(),
            Arc::new(ManualClock::new()),
        )
        .with_supervisor(supervisor.clone());
        for i in 0..8 {
            sink.send(&vertex(i)).unwrap();
        }
        sink.close().unwrap();
        assert_eq!(supervisor.crashes.load(Ordering::SeqCst), 1);
        assert_eq!(supervisor.restarts.load(Ordering::SeqCst), 1);
        assert_eq!(
            journal.signature(),
            vec![
                (2, "crash(worker=1, restart=+3) ok".to_owned()),
                (5, "restart(worker=1) ok".to_owned()),
            ]
        );
        // No events were lost by the crash fault itself.
        assert_eq!(sink.inner.entries.len(), 8);
    }

    #[test]
    fn identical_schedule_yields_identical_signature() {
        let spec = "disconnect@3,lose=2; partial@7,keep=1; crash@9,worker=0";
        let run = || {
            let schedule = FaultSchedule::parse(spec, 42).unwrap();
            let (mut sink, journal) = chaos(schedule);
            for i in 0..6 {
                sink.send(&vertex(i)).unwrap();
            }
            let batch: Vec<SharedEntry> = (6..12).map(|i| SharedEntry::new(vertex(i))).collect();
            sink.send_batch(&batch).unwrap();
            sink.close().unwrap();
            journal.signature()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }

    #[test]
    fn mixed_batch_counts_only_graph_events() {
        let schedule = schedule("disconnect@marker:mid,lose=1");
        let (mut sink, journal) = chaos(schedule);
        let batch: Vec<SharedEntry> = vec![
            SharedEntry::new(vertex(0)),
            SharedEntry::new(StreamEntry::marker("mid")),
            SharedEntry::new(vertex(1)),
        ];
        sink.send_batch(&batch).unwrap();
        sink.close().unwrap();
        // The marker fires *after* batch delivery, so both graph events of
        // this batch got through; the blackout applies to later events.
        assert_eq!(sink.inner.entries.len(), 3);
        sink.send(&vertex(2)).unwrap();
        assert_eq!(sink.inner.entries.len(), 3);
        assert_eq!(journal.events().last().unwrap().events_lost, 1);
    }
}
