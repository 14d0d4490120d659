//! Runtime metrics loggers (§4.3, §5.1).
//!
//! The paper's prototype ran "small Python and Node.js scripts" that
//! periodically executed an operation and appended timestamped outcomes to
//! a local log. A [`MetricsLogger`] is the same idea in-process: the
//! harness calls [`sample`](MetricsLogger::sample) on a schedule and feeds
//! the records to a [`crate::ResultLog`].

use std::sync::Arc;

use crate::clock::Clock;
use crate::hub::MetricsHub;
use crate::name::{Name, NameTable};
use crate::record::{MetricRecord, MetricValue};

/// A periodic metric probe.
pub trait MetricsLogger: Send {
    /// Collects the current records.
    fn sample(&mut self) -> Vec<MetricRecord>;

    /// The logger's source label.
    fn source(&self) -> &str;
}

/// Snapshots every counter and gauge of a [`MetricsHub`] — the Level-1
/// native-metrics logger.
pub struct HubSampler {
    hub: MetricsHub,
    clock: Arc<dyn Clock>,
    source: Name,
    /// One shared name per series sampled so far.
    names: NameTable,
    /// Previous counter values, for emitting per-interval deltas alongside
    /// totals.
    last_counters: Vec<(String, u64)>,
}

impl HubSampler {
    /// Creates a sampler over `hub`, labeling records with `source`.
    pub fn new(hub: MetricsHub, clock: Arc<dyn Clock>, source: &str) -> Self {
        HubSampler {
            hub,
            clock,
            source: source.into(),
            names: NameTable::default(),
            last_counters: Vec::new(),
        }
    }
}

impl MetricsLogger for HubSampler {
    fn sample(&mut self) -> Vec<MetricRecord> {
        let now = self.clock.now_micros();
        let (source, names) = (&self.source, &self.names);
        let mut records = Vec::new();
        let mut push = |metric: &str, value: MetricValue| {
            records.push(MetricRecord::new(
                now,
                source.clone(),
                names.get(metric),
                value,
            ));
        };
        let counters = self.hub.counter_values();
        for (name, value) in &counters {
            push(name, MetricValue::Int(*value as i64));
            // Delta since last sample, for rate-style analysis.
            if let Some((_, prev)) = self.last_counters.iter().find(|(n, _)| n == name) {
                let delta = value.saturating_sub(*prev) as i64;
                push(&format!("{name}.delta"), MetricValue::Int(delta));
            }
        }
        for (name, value) in self.hub.gauge_values() {
            push(&name, MetricValue::Int(value));
        }
        for (name, snap) in self.hub.histogram_values() {
            if snap.count == 0 {
                continue;
            }
            let p99 = snap.quantile_upper_bound(0.99) as i64;
            push(
                &format!("{name}.count"),
                MetricValue::Int(snap.count as i64),
            );
            push(&format!("{name}.mean"), MetricValue::Float(snap.mean()));
            push(&format!("{name}.p99"), MetricValue::Int(p99));
            push(&format!("{name}.max"), MetricValue::Int(snap.max as i64));
        }
        self.last_counters = counters;
        records
    }

    fn source(&self) -> &str {
        &self.source
    }
}

/// A closure-based gauge probe — the generic "submit a query, log the
/// outcome" logger (used e.g. for periodically querying computation
/// results from a system under test).
pub struct GaugeSampler<F> {
    probe: F,
    metric: String,
    source: String,
    clock: Arc<dyn Clock>,
}

impl<F: FnMut() -> Option<f64> + Send> GaugeSampler<F> {
    /// Creates a sampler that records `probe()` under `metric`.
    pub fn new(clock: Arc<dyn Clock>, source: &str, metric: &str, probe: F) -> Self {
        GaugeSampler {
            probe,
            metric: metric.to_owned(),
            source: source.to_owned(),
            clock,
        }
    }
}

impl<F: FnMut() -> Option<f64> + Send> MetricsLogger for GaugeSampler<F> {
    fn sample(&mut self) -> Vec<MetricRecord> {
        match (self.probe)() {
            Some(v) => vec![MetricRecord::float(
                self.clock.now_micros(),
                &self.source,
                &self.metric,
                v,
            )],
            None => Vec::new(),
        }
    }

    fn source(&self) -> &str {
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::record::MetricValue;

    fn manual() -> (Arc<dyn Clock>, ManualClock) {
        let clock = ManualClock::new();
        (Arc::new(clock.clone()), clock)
    }

    #[test]
    fn hub_sampler_reports_counters_gauges_and_deltas() {
        let (clock, manual) = manual();
        let hub = MetricsHub::new();
        hub.counter("ops").add(10);
        hub.gauge("queue").set(4);
        let mut sampler = HubSampler::new(hub.clone(), clock, "worker-1");

        manual.advance_secs(1.0);
        let first = sampler.sample();
        assert!(first
            .iter()
            .any(|r| r.metric == "ops" && r.value == MetricValue::Int(10)));
        assert!(first
            .iter()
            .any(|r| r.metric == "queue" && r.value == MetricValue::Int(4)));
        // No delta on the first sample.
        assert!(!first.iter().any(|r| r.metric == "ops.delta"));

        hub.counter("ops").add(5);
        manual.advance_secs(1.0);
        let second = sampler.sample();
        assert!(second
            .iter()
            .any(|r| r.metric == "ops.delta" && r.value == MetricValue::Int(5)));
        assert_eq!(second[0].t_micros, 2_000_000);
        assert_eq!(sampler.source(), "worker-1");
    }

    #[test]
    fn gauge_sampler_records_probe_values() {
        let (clock, manual) = manual();
        let mut value = 0.0;
        let mut sampler = GaugeSampler::new(clock, "probe", "latency_ms", move || {
            value += 1.5;
            Some(value)
        });
        manual.advance_secs(0.5);
        let r1 = sampler.sample();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].value, MetricValue::Float(1.5));
        let r2 = sampler.sample();
        assert_eq!(r2[0].value, MetricValue::Float(3.0));
    }

    #[test]
    fn gauge_sampler_skips_none() {
        let (clock, _) = manual();
        let mut sampler = GaugeSampler::new(clock, "probe", "x", || None);
        assert!(sampler.sample().is_empty());
    }
}
