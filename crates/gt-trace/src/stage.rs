//! The pipeline stage taxonomy.

/// Number of distinct tracepoint stages.
pub(crate) const STAGE_COUNT: usize = 5;

/// Where in the pipeline a tracepoint sits, in stream order.
///
/// The first three stages live in the replayer process (`gt-replayer`),
/// the last two inside the system under test behind its connector. Not
/// every pipeline has every stage: an in-memory replay has no
/// [`Stage::ReaderDequeue`], a file-to-socket replay has no
/// [`Stage::EngineApply`]. The collector only reports stage pairs whose
/// both ends actually stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The reader thread's entry dequeued from the bounded file-pipeline
    /// channel, just before the paced emitter sees it.
    ReaderDequeue = 0,
    /// The replayer released the event to the sink according to its
    /// pacing schedule.
    PacedEmit = 1,
    /// The session's sink wrapper accepted the event for dispatch
    /// (socket write, connector hand-off).
    SinkWrite = 2,
    /// The platform connector received the event inside the system under
    /// test.
    ConnectorRecv = 3,
    /// A platform worker/shard applied the event to its graph state.
    EngineApply = 4,
}

impl Stage {
    /// Stable dense index for per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ReaderDequeue => "reader_dequeue",
            Stage::PacedEmit => "paced_emit",
            Stage::SinkWrite => "sink_write",
            Stage::ConnectorRecv => "connector_recv",
            Stage::EngineApply => "engine_apply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All stages, in pipeline order.
    const ALL: [Stage; STAGE_COUNT] = [
        Stage::ReaderDequeue,
        Stage::PacedEmit,
        Stage::SinkWrite,
        Stage::ConnectorRecv,
        Stage::EngineApply,
    ];

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, stage) in ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(ALL.len(), STAGE_COUNT);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<&str> = ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}
