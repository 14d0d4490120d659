//! The sampling engine: per-tick derivation and the dedicated monitor
//! thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gt_metrics::hub::Gauge;
use gt_metrics::{Clock, MetricRecord, MetricValue, MetricsHub, Name, NameTable};

use crate::parse::{
    derive, parse_host_stat, parse_pid_io, parse_pid_stat, parse_pid_status, Sample,
};
use crate::source::{LiveProc, ProcFile, ProcSource};
use crate::SysmonError;

/// Configuration of the Level-0 monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Sampling cadence. The paper's "agnostic profiling tools" sampled
    /// at 1 s; the default here is 50 ms so short scaled-down runs still
    /// get a usable curve. See EXPERIMENTS.md for the overhead trade-off.
    pub cadence: Duration,
    /// Process to watch: `None` = this process (`/proc/self`), `Some` =
    /// an external system under test by pid.
    pub pid: Option<u32>,
    /// Source label on the emitted records (`sysmon` by default).
    pub source: String,
    /// Clock ticks per second for jiffy→seconds conversion (`USER_HZ`,
    /// 100 on every mainstream Linux).
    pub ticks_per_sec: f64,
    /// Page size for the `stat` RSS fallback, bytes.
    pub page_size: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            cadence: Duration::from_millis(50),
            pid: None,
            source: "sysmon".to_owned(),
            ticks_per_sec: 100.0,
            page_size: 4096,
        }
    }
}

impl SamplerConfig {
    /// Watches an external process instead of `/proc/self` (builder
    /// style).
    #[must_use]
    pub fn watching_pid(mut self, pid: u32) -> Self {
        self.pid = Some(pid);
        self
    }

    /// Sets the cadence (builder style).
    #[must_use]
    pub fn every(mut self, cadence: Duration) -> Self {
        self.cadence = cadence;
        self
    }
}

/// Hub gauges mirroring the latest derived values, for live observation
/// by other logger threads. Gauges are integers, so CPU percentages are
/// published rounded.
struct HubGauges {
    cpu_percent: Gauge,
    rss_bytes: Gauge,
    threads: Gauge,
}

impl HubGauges {
    fn register(hub: &MetricsHub, source: &str) -> Self {
        HubGauges {
            cpu_percent: hub.gauge(&format!("{source}.cpu_percent")),
            rss_bytes: hub.gauge(&format!("{source}.rss_bytes")),
            threads: hub.gauge(&format!("{source}.threads")),
        }
    }
}

/// One-process sampling state machine: reads through a [`ProcSource`],
/// keeps the previous raw sample, and turns each tick into metric
/// records. Separate from the thread driver so tests can drive ticks with
/// a manual clock and a fake `/proc`.
pub struct SysmonSampler {
    config: SamplerConfig,
    series: Series,
    source: Box<dyn ProcSource>,
    clock: Arc<dyn Clock>,
    prev: Option<Sample>,
    gauges: Option<HubGauges>,
}

impl SysmonSampler {
    /// A sampler reading the live `/proc` per `config`.
    pub fn new(config: SamplerConfig, clock: Arc<dyn Clock>) -> Self {
        let live = match config.pid {
            Some(pid) => LiveProc::pid(pid),
            None => LiveProc::current(),
        };
        Self::with_source(config, Box::new(live), clock)
    }

    /// A sampler reading through an injected source (tests, simulations).
    pub fn with_source(
        config: SamplerConfig,
        source: Box<dyn ProcSource>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        SysmonSampler {
            series: Series {
                source: config.source.as_str().into(),
                metrics: NameTable::default(),
            },
            config,
            source,
            clock,
            prev: None,
            gauges: None,
        }
    }

    /// Mirrors the latest values into `hub` gauges named
    /// `{source}.cpu_percent` / `.rss_bytes` / `.threads` (builder
    /// style).
    #[must_use]
    pub fn with_hub(mut self, hub: &MetricsHub) -> Self {
        self.gauges = Some(HubGauges::register(hub, &self.config.source));
        self
    }

    /// Takes one raw sample. `stat` is required — a failure there means
    /// the target is unobservable (non-Linux host, pid gone) and the
    /// monitor should stop. `status`, `io`, and the host stat degrade
    /// independently.
    fn read_sample(&self) -> Result<Sample, SysmonError> {
        let stat_text =
            self.source
                .read(ProcFile::PidStat)
                .map_err(|e| SysmonError::Unavailable {
                    target: self.source.describe(),
                    reason: e.to_string(),
                })?;
        Ok(Sample {
            t_micros: self.clock.now_micros(),
            stat: parse_pid_stat(&stat_text)?,
            status: self
                .source
                .read(ProcFile::PidStatus)
                .ok()
                .and_then(|t| parse_pid_status(&t).ok()),
            io: self
                .source
                .read(ProcFile::PidIo)
                .ok()
                .and_then(|t| parse_pid_io(&t).ok()),
            host: self
                .source
                .read(ProcFile::HostStat)
                .ok()
                .and_then(|t| parse_host_stat(&t).ok()),
        })
    }

    /// Samples once and returns the records for this tick.
    ///
    /// The first tick yields only instantaneous series (RSS, threads,
    /// cumulative counters); rate series (CPU%) start with the second
    /// tick, once a delta exists.
    pub fn tick(&mut self) -> Result<Vec<MetricRecord>, SysmonError> {
        let curr = self.read_sample()?;
        let series = &self.series;
        let mut records = Vec::with_capacity(10);

        match self.prev {
            Some(prev) => {
                if let Some(d) = derive(
                    &prev,
                    &curr,
                    self.config.ticks_per_sec,
                    self.config.page_size,
                ) {
                    let t = d.t_micros;
                    if d.counter_reset {
                        // A cumulative counter went backwards (pid reuse,
                        // proc restart): this instant's rates are clamped
                        // to zero, so mark the series as degraded instead
                        // of letting the zeros masquerade as idleness.
                        let reset = MetricValue::Text("counter_reset".into());
                        records.push(series.record(t, "degradation", reset));
                    }
                    records.push(series.float(t, "cpu_percent", d.cpu_percent));
                    records.push(series.float(t, "cpu_user_percent", d.cpu_user_percent));
                    records.push(series.float(t, "cpu_sys_percent", d.cpu_sys_percent));
                    if let Some(host) = d.host_cpu_percent {
                        records.push(series.float(t, "host_cpu_percent", host));
                    }
                    records.push(series.int(t, "rss_bytes", d.rss_bytes));
                    records.push(series.int(t, "threads", d.threads));
                    for (metric, value) in [
                        ("io_read_bytes", d.read_bytes),
                        ("io_write_bytes", d.write_bytes),
                        ("ctx_voluntary", d.voluntary_ctxt_switches),
                        ("ctx_involuntary", d.nonvoluntary_ctxt_switches),
                    ] {
                        if let Some(value) = value {
                            records.push(series.int(t, metric, value));
                        }
                    }
                    if let Some(g) = &self.gauges {
                        g.cpu_percent.set(d.cpu_percent.round() as i64);
                        g.rss_bytes.set(d.rss_bytes as i64);
                        g.threads.set(d.threads as i64);
                    }
                }
            }
            None => {
                // No delta yet: emit what needs no previous sample.
                let page = self.config.page_size;
                let rss = curr
                    .status
                    .and_then(|s| s.vm_rss_bytes)
                    .unwrap_or(curr.stat.rss_pages * page);
                let threads = curr
                    .status
                    .and_then(|s| s.threads)
                    .unwrap_or(curr.stat.num_threads);
                records.push(series.int(curr.t_micros, "rss_bytes", rss));
                records.push(series.int(curr.t_micros, "threads", threads));
                if let Some(g) = &self.gauges {
                    g.rss_bytes.set(rss as i64);
                    g.threads.set(threads as i64);
                }
            }
        }
        self.prev = Some(curr);
        Ok(records)
    }
}

/// The monitor's record builder: its source and one shared name per
/// metric, so a tick allocates no names after the first.
struct Series {
    source: Name,
    metrics: NameTable,
}

impl Series {
    fn record(&self, t: u64, metric: &str, value: MetricValue) -> MetricRecord {
        MetricRecord::new(t, self.source.clone(), self.metrics.get(metric), value)
    }

    fn float(&self, t: u64, metric: &str, value: f64) -> MetricRecord {
        self.record(t, metric, MetricValue::Float(value))
    }

    fn int(&self, t: u64, metric: &str, value: u64) -> MetricRecord {
        self.record(t, metric, MetricValue::Int(value as i64))
    }
}

/// What a finished monitor hands back.
#[derive(Debug)]
pub struct SysmonOutcome {
    /// All records collected over the monitor's lifetime, in sample
    /// order.
    pub records: Vec<MetricRecord>,
    /// The error that stopped sampling early, if any. A monitor on a
    /// non-Linux host reports `Unavailable` here and an empty series —
    /// the run itself is unaffected.
    pub error: Option<SysmonError>,
    /// Number of successful sampling ticks.
    pub ticks: u64,
}

/// A running Level-0 monitor thread.
pub struct SysmonHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<SysmonOutcome>,
}

impl SysmonHandle {
    /// Signals the thread and collects its outcome (takes one final
    /// sample first so the series covers the run end).
    pub fn stop(self) -> SysmonOutcome {
        self.stop.store(true, Ordering::Relaxed);
        self.join.join().unwrap_or(SysmonOutcome {
            records: Vec::new(),
            error: Some(SysmonError::parse("sysmon", "monitor thread panicked")),
            ticks: 0,
        })
    }
}

/// Spawns the monitor on a dedicated thread sampling at
/// `config.cadence`. `hub` (optional) receives live gauge mirrors.
///
/// On hosts without `/proc` the first tick fails, the thread parks until
/// [`SysmonHandle::stop`], and the outcome carries the typed error with
/// an empty series — runs stay portable.
pub fn spawn(
    config: SamplerConfig,
    clock: Arc<dyn Clock>,
    hub: Option<&MetricsHub>,
) -> SysmonHandle {
    let sampler = SysmonSampler::new(config.clone(), clock);
    spawn_sampler(config, sampler, hub)
}

/// [`spawn`] reading through an injected [`ProcSource`] instead of the
/// live `/proc` — the monitor-thread counterpart of
/// [`SysmonSampler::with_source`], for tests and simulated targets.
pub fn spawn_with_source(
    config: SamplerConfig,
    source: Box<dyn ProcSource>,
    clock: Arc<dyn Clock>,
    hub: Option<&MetricsHub>,
) -> SysmonHandle {
    let sampler = SysmonSampler::with_source(config.clone(), source, clock);
    spawn_sampler(config, sampler, hub)
}

fn spawn_sampler(
    config: SamplerConfig,
    mut sampler: SysmonSampler,
    hub: Option<&MetricsHub>,
) -> SysmonHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    if let Some(hub) = hub {
        sampler = sampler.with_hub(hub);
    }
    let join = std::thread::Builder::new()
        .name("gt-sysmon".into())
        .spawn(move || {
            let mut outcome = SysmonOutcome {
                records: Vec::new(),
                error: None,
                ticks: 0,
            };
            loop {
                match sampler.tick() {
                    Ok(records) => {
                        outcome.records.extend(records);
                        outcome.ticks += 1;
                    }
                    Err(e) => {
                        outcome.error = Some(e);
                        break;
                    }
                }
                if stop_flag.load(Ordering::Relaxed) {
                    return outcome;
                }
                sleep_interruptible(config.cadence, &stop_flag);
                if stop_flag.load(Ordering::Relaxed) {
                    // One final tick so the series covers the run end.
                    if let Ok(records) = sampler.tick() {
                        outcome.records.extend(records);
                        outcome.ticks += 1;
                    }
                    return outcome;
                }
            }
            // Sampling failed; stay parked so `stop` has a thread to join.
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            outcome
        })
        .expect("spawn gt-sysmon thread");
    SysmonHandle { stop, join }
}

/// Sleeps `total` in short slices, returning early when `stop` is
/// raised, so large cadences don't delay run teardown.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO && !stop.load(Ordering::Relaxed) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FakeProc;
    use gt_metrics::ManualClock;
    use gt_metrics::MetricValue;

    fn stat_line(utime: u64, stime: u64, threads: u64, rss_pages: u64) -> String {
        format!(
            "1 (gt) S 0 1 1 0 -1 0 0 0 0 0 {utime} {stime} 0 0 20 0 {threads} 0 0 0 {rss_pages} \
             0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
        )
    }

    fn fake_with_stat() -> (FakeProc, Arc<ManualClock>) {
        let fake = FakeProc::new();
        fake.set(ProcFile::PidStat, stat_line(0, 0, 4, 1000));
        (fake, Arc::new(ManualClock::new()))
    }

    #[test]
    fn first_tick_emits_instantaneous_only() {
        let (fake, clock) = fake_with_stat();
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default(),
            Box::new(fake),
            clock as Arc<dyn Clock>,
        );
        let records = sampler.tick().unwrap();
        let metrics: Vec<&str> = records.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["rss_bytes", "threads"]);
        assert_eq!(records[0].value, MetricValue::Int(1000 * 4096));
    }

    #[test]
    fn second_tick_derives_cpu_split() {
        let (fake, clock) = fake_with_stat();
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default(),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        sampler.tick().unwrap();
        // 1 s later: 30 user + 10 sys ticks at 100 Hz = 30% + 10%.
        clock.advance_secs(1.0);
        fake.set(ProcFile::PidStat, stat_line(30, 10, 4, 1200));
        let records = sampler.tick().unwrap();
        let get = |name: &str| {
            records
                .iter()
                .find(|r| r.metric == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
                .as_f64()
                .unwrap()
        };
        assert!((get("cpu_percent") - 40.0).abs() < 1e-9);
        assert!((get("cpu_user_percent") - 30.0).abs() < 1e-9);
        assert!((get("cpu_sys_percent") - 10.0).abs() < 1e-9);
        assert_eq!(get("rss_bytes") as u64, 1200 * 4096);
        assert_eq!(records[0].t_micros, 1_000_000);
    }

    #[test]
    fn optional_files_extend_the_series() {
        let (fake, clock) = fake_with_stat();
        fake.set(ProcFile::PidIo, "read_bytes: 111\nwrite_bytes: 222\n");
        fake.set(
            ProcFile::PidStatus,
            "VmRSS:\t2048 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t5\n\
             nonvoluntary_ctxt_switches:\t2\n",
        );
        fake.set(
            ProcFile::HostStat,
            "cpu 100 0 0 900 0\ncpu0 100 0 0 900 0\n",
        );
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default(),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        sampler.tick().unwrap();
        clock.advance_secs(0.5);
        fake.set(ProcFile::PidStat, stat_line(5, 5, 4, 1000));
        fake.set(
            ProcFile::HostStat,
            "cpu 150 0 0 950 0\ncpu0 150 0 0 950 0\n",
        );
        let records = sampler.tick().unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.metric.as_str()).collect();
        for expected in [
            "cpu_percent",
            "host_cpu_percent",
            "rss_bytes",
            "io_read_bytes",
            "io_write_bytes",
            "ctx_voluntary",
            "ctx_involuntary",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // VmRSS wins over the stat fallback.
        let rss = records
            .iter()
            .find(|r| r.metric == "rss_bytes")
            .unwrap()
            .value
            .as_f64()
            .unwrap();
        assert_eq!(rss as u64, 2048 * 1024);
        // 100 busy of 200 total host ticks.
        let host = records
            .iter()
            .find(|r| r.metric == "host_cpu_percent")
            .unwrap()
            .value
            .as_f64()
            .unwrap();
        assert!((host - 50.0).abs() < 1e-9);
    }

    #[test]
    fn counter_reset_emits_degradation_marker() {
        // Regression: a /proc counter reset between ticks (pid reuse)
        // used to surface only as a silent 0% CPU sample. It must now be
        // accompanied by a typed "degradation" record.
        let (fake, clock) = fake_with_stat();
        fake.set(ProcFile::PidStat, stat_line(500, 500, 4, 1000));
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default(),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        sampler.tick().unwrap();
        // The counters collapse: a fresh process now owns the pid.
        clock.advance_secs(1.0);
        fake.set(ProcFile::PidStat, stat_line(3, 1, 2, 500));
        let records = sampler.tick().unwrap();
        let degradation = records
            .iter()
            .find(|r| r.metric == "degradation")
            .expect("reset must emit a degradation record");
        assert_eq!(
            degradation.value,
            MetricValue::Text("counter_reset".to_owned())
        );
        // The clamped rates still come through (as zeros), not garbage.
        let cpu = records
            .iter()
            .find(|r| r.metric == "cpu_percent")
            .unwrap()
            .value
            .as_f64()
            .unwrap();
        assert_eq!(cpu, 0.0);
        // A subsequent well-behaved tick emits no degradation record.
        clock.advance_secs(1.0);
        fake.set(ProcFile::PidStat, stat_line(10, 5, 2, 500));
        let records = sampler.tick().unwrap();
        assert!(records.iter().all(|r| r.metric != "degradation"));
    }

    #[test]
    fn missing_stat_is_typed_unavailable() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let mut sampler =
            SysmonSampler::with_source(SamplerConfig::default(), Box::new(FakeProc::new()), clock);
        match sampler.tick() {
            Err(SysmonError::Unavailable { target, .. }) => assert_eq!(target, "fake"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn hub_gauges_mirror_latest_values() {
        let (fake, clock) = fake_with_stat();
        let hub = MetricsHub::new();
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default(),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .with_hub(&hub);
        sampler.tick().unwrap();
        assert_eq!(hub.gauge("sysmon.rss_bytes").get(), 1000 * 4096);
        clock.advance_secs(1.0);
        fake.set(ProcFile::PidStat, stat_line(50, 25, 6, 2000));
        sampler.tick().unwrap();
        assert_eq!(hub.gauge("sysmon.cpu_percent").get(), 75);
        assert_eq!(hub.gauge("sysmon.threads").get(), 6);
        assert_eq!(hub.gauge("sysmon.rss_bytes").get(), 2000 * 4096);
    }

    #[test]
    fn spawned_monitor_collects_and_stops() {
        let (fake, clock) = fake_with_stat();
        // Live thread, fake files: drive via a sampler-level spawn.
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut sampler = SysmonSampler::with_source(
            SamplerConfig::default().every(Duration::from_millis(5)),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let join = std::thread::spawn(move || {
            let mut records = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                records.extend(sampler.tick().unwrap());
                std::thread::sleep(Duration::from_millis(2));
            }
            records
        });
        for i in 1..=5u64 {
            clock.advance_secs(0.01);
            fake.set(ProcFile::PidStat, stat_line(i, i, 4, 1000 + i));
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let records = join.join().unwrap();
        assert!(records.iter().any(|r| r.metric == "cpu_percent"));
        assert!(records.iter().filter(|r| r.metric == "rss_bytes").count() >= 2);
    }

    /// A source that panics on every read — the monitor thread dies
    /// mid-run, which must surface as a typed error, never as a
    /// propagated panic in the harness that joins it.
    #[derive(Clone)]
    struct PanickingProc;

    impl ProcSource for PanickingProc {
        fn read(&self, _file: ProcFile) -> std::io::Result<String> {
            panic!("deliberate test panic in proc source");
        }
        fn describe(&self) -> String {
            "panicking".to_owned()
        }
    }

    #[test]
    fn panicking_source_degrades_to_a_typed_error() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let handle = spawn_with_source(
            SamplerConfig::default().every(Duration::from_millis(5)),
            Box::new(PanickingProc),
            clock,
            None,
        );
        std::thread::sleep(Duration::from_millis(20));
        let outcome = handle.stop();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.ticks, 0);
        let error = outcome.error.expect("panic must become a typed error");
        assert!(
            error.to_string().contains("panicked"),
            "unexpected error: {error}"
        );
    }

    #[test]
    fn spawn_with_source_samples_injected_files() {
        let (fake, clock) = fake_with_stat();
        let hub = MetricsHub::new();
        let handle = spawn_with_source(
            SamplerConfig::default().every(Duration::from_millis(2)),
            Box::new(fake.clone()),
            Arc::clone(&clock) as Arc<dyn Clock>,
            Some(&hub),
        );
        std::thread::sleep(Duration::from_millis(15));
        clock.advance_secs(1.0);
        fake.set(ProcFile::PidStat, stat_line(25, 25, 4, 1500));
        std::thread::sleep(Duration::from_millis(15));
        let outcome = handle.stop();
        assert!(outcome.error.is_none());
        assert!(outcome.ticks >= 2);
        assert!(outcome.records.iter().any(|r| r.metric == "cpu_percent"));
        // The hub gauges mirror the injected values live.
        assert_eq!(hub.gauge("sysmon.rss_bytes").get(), 1500 * 4096);
    }

    #[test]
    fn spawn_degrades_gracefully_without_proc_stat() {
        // The public spawn() path reads the live /proc; on Linux it
        // samples, elsewhere it reports Unavailable with empty records.
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let handle = spawn(
            SamplerConfig::default().every(Duration::from_millis(5)),
            clock,
            None,
        );
        std::thread::sleep(Duration::from_millis(25));
        let outcome = handle.stop();
        if outcome.error.is_some() {
            assert!(outcome.records.is_empty());
        } else {
            assert!(outcome.ticks >= 1);
            assert!(outcome.records.iter().any(|r| r.metric == "rss_bytes"));
        }
    }
}
