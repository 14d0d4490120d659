//! The log collector (§4.1, §5.1): "once a test run is finished, the log
//! collector script gathers the remote log files of all logger instances
//! and merges them into a single, chronologically sorted result log file."

use crate::record::{MetricRecord, ResultLog};

/// Merges per-logger logs into one chronologically sorted result log.
#[derive(Debug, Default)]
pub struct LogCollector {
    merged: Vec<MetricRecord>,
}

impl LogCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds all records of a log.
    pub fn add_log(&mut self, log: ResultLog) -> &mut Self {
        self.merged.extend(log.into_records());
        self
    }

    /// Adds raw records.
    pub fn add_records(&mut self, records: Vec<MetricRecord>) -> &mut Self {
        self.merged.extend(records);
        self
    }

    /// Produces the merged, chronologically sorted result log.
    pub fn collect(self) -> ResultLog {
        ResultLog::from_records(self.merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_and_sorts() {
        let a = ResultLog::from_records(vec![
            MetricRecord::int(300, "w1", "ops", 3),
            MetricRecord::int(100, "w1", "ops", 1),
        ]);
        let b = ResultLog::from_records(vec![MetricRecord::int(200, "w2", "ops", 2)]);
        let mut collector = LogCollector::new();
        collector.add_log(a).add_log(b);
        let merged = collector.collect();
        let ts: Vec<u64> = merged.records().iter().map(|r| r.t_micros).collect();
        assert_eq!(ts, [100, 200, 300]);
        assert_eq!(merged.sources(), ["w1", "w2"]);
    }

    #[test]
    fn empty_collector_yields_empty_log() {
        assert!(LogCollector::new().collect().is_empty());
    }
}
