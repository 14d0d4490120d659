//! Metric records and the result log.
//!
//! Every measurement in the framework is a timestamped record
//! `(t_micros, source, metric, value)`. The on-disk result log is one
//! record per line: `T_MICROS,SOURCE,METRIC,VALUE` — deliberately the same
//! comma-separated, stream-friendly shape as the graph stream format.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use crate::name::{Name, NameTable};

/// A metric value: numeric or free text (e.g. a marker name).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A floating-point measurement.
    Float(f64),
    /// An integer measurement (kept distinct for exact counters).
    Int(i64),
    /// Free-form text (marker names, status strings).
    Text(String),
}

impl MetricValue {
    /// Numeric view (integers widen; text is `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Float(v) => Some(*v),
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Text(_) => None,
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Float(v) => write!(f, "{v}"),
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Text(s) => f.write_str(s),
        }
    }
}

/// One timestamped measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Microseconds since run start.
    pub t_micros: u64,
    /// Which logger/component produced the record (e.g. `worker-2`).
    pub source: Name,
    /// Metric name (e.g. `queue_length`).
    pub metric: Name,
    /// The measured value.
    pub value: MetricValue,
}

impl MetricRecord {
    /// Builds a record from names the caller already holds — the
    /// constructor for anything that emits a series: build the two
    /// [`Name`]s once, clone them per sample.
    pub fn new(t_micros: u64, source: Name, metric: Name, value: MetricValue) -> Self {
        MetricRecord {
            t_micros,
            source,
            metric,
            value,
        }
    }

    /// Builds a float record (allocates both names; see [`Self::new`]).
    pub fn float(t_micros: u64, source: &str, metric: &str, value: f64) -> Self {
        Self::new(
            t_micros,
            source.into(),
            metric.into(),
            MetricValue::Float(value),
        )
    }

    /// Builds an integer record (allocates both names; see [`Self::new`]).
    pub fn int(t_micros: u64, source: &str, metric: &str, value: i64) -> Self {
        Self::new(
            t_micros,
            source.into(),
            metric.into(),
            MetricValue::Int(value),
        )
    }

    /// Builds a text record (markers, statuses).
    pub fn text(t_micros: u64, source: &str, metric: &str, value: impl Into<String>) -> Self {
        Self::new(
            t_micros,
            source.into(),
            metric.into(),
            MetricValue::Text(value.into()),
        )
    }

    /// Timestamp in seconds.
    pub fn t_secs(&self) -> f64 {
        self.t_micros as f64 / 1e6
    }

    /// Serializes as one log line (no newline).
    pub(crate) fn to_line(&self) -> String {
        format!(
            "{},{},{},{}",
            self.t_micros, self.source, self.metric, self.value
        )
    }
}

impl FromStr for MetricRecord {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        parse_record(line, &NameTable::default())
    }
}

/// Parses one log line, taking its names from `names` so that a whole
/// log's records share one allocation per distinct source and metric.
fn parse_record(line: &str, names: &NameTable) -> Result<MetricRecord, String> {
    let mut parts = line.splitn(4, ',');
    let t = parts
        .next()
        .ok_or("missing timestamp")?
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad timestamp: {e}"))?;
    let source = names.get(parts.next().ok_or("missing source")?);
    let metric = names.get(parts.next().ok_or("missing metric")?);
    let raw = parts.next().ok_or("missing value")?;
    // Integers parse as Int, other numerics as Float, rest as Text.
    let value = if let Ok(i) = raw.trim().parse::<i64>() {
        MetricValue::Int(i)
    } else if let Ok(f) = raw.trim().parse::<f64>() {
        MetricValue::Float(f)
    } else {
        MetricValue::Text(raw.to_owned())
    };
    Ok(MetricRecord::new(t, source, metric, value))
}

/// A chronologically sorted sequence of metric records — the output of an
/// experiment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultLog {
    records: Vec<MetricRecord>,
}

impl ResultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log, sorting by timestamp in place. Equal timestamps
    /// keep their input order (see [`Self::sort`]). This is the log
    /// collector of §4.1 and §5.1, which "gathers the remote log files of
    /// all logger instances and merges them into a single, chronologically
    /// sorted result log file".
    pub fn from_records(records: Vec<MetricRecord>) -> Self {
        let mut log = ResultLog { records };
        log.sort();
        log
    }

    /// The records in chronological order.
    pub fn records(&self) -> &[MetricRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record (timestamps may arrive out of order; call
    /// [`Self::sort`] before analysis or use [`Self::from_records`]).
    pub fn push(&mut self, record: MetricRecord) {
        self.records.push(record);
    }

    /// Restores chronological order after out-of-order pushes.
    ///
    /// Records sharing a microsecond timestamp — routine when a sampler
    /// emits a whole batch per tick, or when merged logger threads race —
    /// keep their current relative order. That is the contract of the
    /// stable sort used here (`sort_by_key`), which moves records in place
    /// and copies none; it makes the exported series order an invariant
    /// of the format: serialize → parse → serialize is byte-identical.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| r.t_micros);
    }

    /// All records for one `(source, metric)` pair as a time series of
    /// `(seconds, value)`, skipping text records.
    pub fn series(&self, source: &str, metric: &str) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter(|r| r.source == source && r.metric == metric)
            .filter_map(|r| r.value.as_f64().map(|v| (r.t_secs(), v)))
            .collect()
    }

    /// All records for a metric across sources: `(seconds, source, value)`.
    pub fn metric_records(&self, metric: &str) -> Vec<&MetricRecord> {
        self.records.iter().filter(|r| r.metric == metric).collect()
    }

    /// The distinct sources in the log, sorted.
    pub fn sources(&self) -> Vec<String> {
        let distinct: BTreeSet<&str> = self.records.iter().map(|r| r.source.as_str()).collect();
        distinct.into_iter().map(str::to_owned).collect()
    }

    /// The first marker record with the given name, if any (markers are
    /// text records with metric `marker`).
    pub fn marker(&self, name: &str) -> Option<&MetricRecord> {
        self.records
            .iter()
            .find(|r| r.metric == "marker" && matches!(&r.value, MetricValue::Text(t) if t == name))
    }

    /// Serializes the log, one record per line.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 32);
        for r in &self.records {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a log from text, sorting chronologically.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        let names = NameTable::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            records.push(parse_record(line, &names).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(ResultLog::from_records(records))
    }

    /// Writes the log to a file.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a log from a file.
    pub fn read_from_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl FromIterator<MetricRecord> for ResultLog {
    fn from_iter<T: IntoIterator<Item = MetricRecord>>(iter: T) -> Self {
        ResultLog::from_records(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_roundtrip() {
        let records = [
            MetricRecord::float(1_500_000, "worker-1", "cpu", 42.5),
            MetricRecord::int(2_000_000, "replayer", "events", 1000),
            MetricRecord::text(3_000_000, "replayer", "marker", "phase-2"),
        ];
        for r in &records {
            let parsed: MetricRecord = r.to_line().parse().unwrap();
            assert_eq!(&parsed, r);
        }
    }

    #[test]
    fn text_values_may_contain_commas() {
        let r = MetricRecord::text(1, "s", "m", "a,b,c");
        let parsed: MetricRecord = r.to_line().parse().unwrap();
        assert_eq!(parsed.value, MetricValue::Text("a,b,c".to_owned()));
    }

    #[test]
    fn value_casting() {
        assert_eq!(MetricValue::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(MetricValue::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(MetricValue::Text("x".into()).as_f64(), None);
    }

    #[test]
    fn log_sorts_chronologically() {
        let log = ResultLog::from_records(vec![
            MetricRecord::int(300, "a", "m", 3),
            MetricRecord::int(100, "a", "m", 1),
            MetricRecord::int(200, "b", "m", 2),
        ]);
        let ts: Vec<u64> = log.records().iter().map(|r| r.t_micros).collect();
        assert_eq!(ts, [100, 200, 300]);
    }

    #[test]
    fn series_extraction() {
        let log = ResultLog::from_records(vec![
            MetricRecord::float(1_000_000, "w1", "queue", 5.0),
            MetricRecord::float(2_000_000, "w1", "queue", 7.0),
            MetricRecord::float(1_500_000, "w2", "queue", 9.0),
            MetricRecord::text(1_200_000, "w1", "queue", "n/a"),
        ]);
        assert_eq!(log.series("w1", "queue"), [(1.0, 5.0), (2.0, 7.0)]);
        assert_eq!(log.sources(), ["w1", "w2"]);
        assert_eq!(log.metric_records("queue").len(), 4);
    }

    #[test]
    fn marker_lookup() {
        let log = ResultLog::from_records(vec![
            MetricRecord::text(5_000_000, "replayer", "marker", "bootstrap-done"),
            MetricRecord::text(9_000_000, "replayer", "marker", "stream-end"),
        ]);
        assert_eq!(log.marker("stream-end").unwrap().t_micros, 9_000_000);
        assert!(log.marker("nope").is_none());
    }

    #[test]
    fn text_log_roundtrip() {
        let log = ResultLog::from_records(vec![
            MetricRecord::float(1, "a", "x", 0.5),
            MetricRecord::int(2, "b", "y", 7),
            MetricRecord::text(3, "c", "marker", "end"),
        ]);
        let parsed = ResultLog::parse(&log.to_text()).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        // A sampler emits whole batches with one timestamp; merged logs
        // must preserve batch-internal order deterministically.
        let batch = vec![
            MetricRecord::float(1_000, "sysmon", "cpu_percent", 40.0),
            MetricRecord::float(1_000, "sysmon", "cpu_user_percent", 30.0),
            MetricRecord::float(1_000, "sysmon", "cpu_sys_percent", 10.0),
            MetricRecord::int(1_000, "sysmon", "rss_bytes", 4096),
            MetricRecord::int(500, "pipeline", "queue_depth", 3),
            MetricRecord::text(1_000, "replayer", "marker", "tied"),
        ];
        let log = ResultLog::from_records(batch.clone());
        let expected: Vec<&MetricRecord> = std::iter::once(&batch[4])
            .chain(&batch[..4])
            .chain(std::iter::once(&batch[5]))
            .collect();
        let got: Vec<&MetricRecord> = log.records().iter().collect();
        assert_eq!(got, expected);
        // Re-sorting an already sorted log is a no-op.
        let mut resorted = log.clone();
        resorted.sort();
        assert_eq!(resorted, log);
        // The order survives the text round trip byte-for-byte.
        let parsed = ResultLog::parse(&log.to_text()).unwrap();
        assert_eq!(parsed.to_text(), log.to_text());
    }

    #[test]
    fn parse_skips_comments_and_rejects_garbage() {
        let ok = ResultLog::parse("# header\n\n100,a,m,1\n").unwrap();
        assert_eq!(ok.len(), 1);
        assert!(ResultLog::parse("not-a-timestamp,a,m,1").is_err());
        assert!(ResultLog::parse("100,only-two-fields").is_err());
    }
}
