//! Pure `/proc` text parsers and the derived-series arithmetic.
//!
//! Everything in this module is a `&str -> value` function with no I/O,
//! so every format corner (comm fields with spaces and parentheses,
//! missing optional files, kernel-version field drift) is unit-testable
//! on any OS. The live reader lives in [`crate::source`].

use crate::SysmonError;

/// Parsed subset of `/proc/<pid>/stat` (`man 5 proc`).
///
/// The `comm` field (field 2) is the executable name in parentheses and
/// may itself contain spaces and `)` characters; fields are therefore
/// counted from the *last* closing parenthesis, as every robust parser
/// must.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PidStat {
    /// CPU time spent in user mode, in clock ticks (field 14).
    pub utime_ticks: u64,
    /// CPU time spent in kernel mode, in clock ticks (field 15).
    pub stime_ticks: u64,
    /// Number of threads (field 20).
    pub num_threads: u64,
    /// Resident set size in pages (field 24).
    pub rss_pages: u64,
}

/// Parses the one-line `/proc/<pid>/stat` format.
pub(crate) fn parse_pid_stat(text: &str) -> Result<PidStat, SysmonError> {
    // comm is `(...)` and unescaped; split on the last ')'.
    let (_, rest) = text
        .rsplit_once(')')
        .ok_or_else(|| SysmonError::parse("pid stat", "no comm field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so overall field N is index N - 3.
    let field = |n: usize, name: &str| -> Result<u64, SysmonError> {
        fields
            .get(n - 3)
            .ok_or_else(|| SysmonError::parse("pid stat", format!("missing field {n} ({name})")))?
            .parse::<i64>()
            .map_err(|_| SysmonError::parse("pid stat", format!("non-numeric field {n} ({name})")))
            .map(|v| v.max(0) as u64)
    };
    Ok(PidStat {
        utime_ticks: field(14, "utime")?,
        stime_ticks: field(15, "stime")?,
        num_threads: field(20, "num_threads")?,
        rss_pages: field(24, "rss")?,
    })
}

/// Parsed subset of `/proc/<pid>/status` (key-value lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PidStatus {
    /// `VmRSS` in bytes (the file reports kB).
    pub vm_rss_bytes: Option<u64>,
    /// `Threads` count.
    pub threads: Option<u64>,
    /// `voluntary_ctxt_switches` cumulative count.
    pub voluntary_ctxt_switches: Option<u64>,
    /// `nonvoluntary_ctxt_switches` cumulative count.
    pub nonvoluntary_ctxt_switches: Option<u64>,
}

/// Parses `/proc/<pid>/status`. Unknown keys are skipped; the listed keys
/// are optional because kernels and sandboxes omit some of them.
pub(crate) fn parse_pid_status(text: &str) -> Result<PidStatus, SysmonError> {
    let mut out = PidStatus::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let number = || -> Option<u64> { value.split_whitespace().next()?.parse().ok() };
        match key.trim() {
            "VmRSS" => out.vm_rss_bytes = number().map(|kb| kb * 1024),
            "Threads" => out.threads = number(),
            "voluntary_ctxt_switches" => out.voluntary_ctxt_switches = number(),
            "nonvoluntary_ctxt_switches" => out.nonvoluntary_ctxt_switches = number(),
            _ => {}
        }
    }
    Ok(out)
}

/// Parsed subset of `/proc/<pid>/io` (key-value lines; requires no
/// elevated permissions for a process' own entry, but may be absent for
/// foreign pids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PidIo {
    /// Bytes actually fetched from the storage layer (`read_bytes`).
    pub read_bytes: u64,
    /// Bytes sent to the storage layer (`write_bytes`).
    pub write_bytes: u64,
}

/// Parses `/proc/<pid>/io`.
pub(crate) fn parse_pid_io(text: &str) -> Result<PidIo, SysmonError> {
    let mut out = PidIo::default();
    let mut seen = 0;
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let parse = |v: &str| -> Result<u64, SysmonError> {
            v.trim()
                .parse()
                .map_err(|_| SysmonError::parse("pid io", format!("non-numeric `{}`", v.trim())))
        };
        match key.trim() {
            "read_bytes" => {
                out.read_bytes = parse(value)?;
                seen += 1;
            }
            "write_bytes" => {
                out.write_bytes = parse(value)?;
                seen += 1;
            }
            _ => {}
        }
    }
    if seen < 2 {
        return Err(SysmonError::parse(
            "pid io",
            "missing read_bytes/write_bytes",
        ));
    }
    Ok(out)
}

/// Parsed subset of host-wide `/proc/stat`: the aggregate `cpu` line and
/// the number of per-CPU lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct HostStat {
    /// Sum of all jiffies on the aggregate `cpu` line (all CPUs, all
    /// states, including idle).
    pub total_ticks: u64,
    /// Idle + iowait jiffies on the aggregate line.
    pub idle_ticks: u64,
    /// Number of `cpuN` lines (logical CPUs).
    pub cpus: u32,
}

/// Parses host `/proc/stat`.
pub(crate) fn parse_host_stat(text: &str) -> Result<HostStat, SysmonError> {
    let mut out = HostStat::default();
    let mut found_aggregate = false;
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(label) = parts.next() else { continue };
        if label == "cpu" {
            let ticks: Vec<u64> = parts.map(|f| f.parse().unwrap_or(0)).collect();
            if ticks.len() < 4 {
                return Err(SysmonError::parse("host stat", "short aggregate cpu line"));
            }
            out.total_ticks = ticks.iter().sum();
            // Fields: user nice system idle iowait irq softirq steal ...
            out.idle_ticks = ticks[3] + ticks.get(4).copied().unwrap_or(0);
            found_aggregate = true;
        } else if label.starts_with("cpu") && label[3..].chars().all(|c| c.is_ascii_digit()) {
            out.cpus += 1;
        }
    }
    if !found_aggregate {
        return Err(SysmonError::parse("host stat", "no aggregate cpu line"));
    }
    Ok(out)
}

/// One raw sampling instant: everything read from `/proc` plus the run
/// clock. The optional parts degrade gracefully — `/proc/<pid>/io` is
/// unreadable for foreign pids without privileges, and `status` keys vary
/// by kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Sample {
    /// Run-relative timestamp, microseconds.
    pub t_micros: u64,
    /// Per-process scheduler stats (required).
    pub stat: PidStat,
    /// Per-process status keys (optional).
    pub status: Option<PidStatus>,
    /// Per-process I/O accounting (optional).
    pub io: Option<PidIo>,
    /// Host-wide CPU accounting (optional).
    pub host: Option<HostStat>,
}

/// Derived series for one instant, computed from a pair of consecutive
/// [`Sample`]s. Instantaneous values (RSS, threads) come from the current
/// sample; rates (CPU%) need the previous one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Derived {
    /// Run-relative timestamp, microseconds.
    pub t_micros: u64,
    /// Process CPU utilization since the previous sample, percent of one
    /// core (user + sys). 100.0 = one core fully busy.
    pub cpu_percent: f64,
    /// User-mode share of [`Self::cpu_percent`].
    pub cpu_user_percent: f64,
    /// Kernel-mode share of [`Self::cpu_percent`].
    pub cpu_sys_percent: f64,
    /// Host-wide non-idle CPU percent across all cores (0–100), when
    /// `/proc/stat` was readable in both samples.
    pub host_cpu_percent: Option<f64>,
    /// Resident set size, bytes (prefers `VmRSS` from `status`, falls
    /// back to `stat` pages × page size).
    pub rss_bytes: u64,
    /// Thread count.
    pub threads: u64,
    /// Cumulative storage-layer bytes read, when `/proc/<pid>/io` was
    /// readable.
    pub read_bytes: Option<u64>,
    /// Cumulative storage-layer bytes written.
    pub write_bytes: Option<u64>,
    /// Cumulative voluntary context switches.
    pub voluntary_ctxt_switches: Option<u64>,
    /// Cumulative involuntary context switches.
    pub nonvoluntary_ctxt_switches: Option<u64>,
    /// Whether any cumulative counter went *backwards* between the two
    /// samples (pid reuse after a restart, a proc snapshot reset, or
    /// kernel accounting wobble). The affected deltas are clamped to
    /// zero, so rates for this instant are degraded — consumers should
    /// treat them as a gap, not a measurement.
    pub counter_reset: bool,
}

/// Clock ticks per second for jiffy→seconds conversion (`USER_HZ`, 100 on
/// every mainstream Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// Page size for the `stat` RSS fallback, bytes.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// Converts a pair of consecutive samples into the derived series.
///
/// Returns `None` when the samples are not strictly ordered in time
/// (rates would divide by zero).
pub(crate) fn derive(prev: &Sample, curr: &Sample) -> Option<Derived> {
    if curr.t_micros <= prev.t_micros {
        return None;
    }
    let dt_secs = (curr.t_micros - prev.t_micros) as f64 / 1e6;
    let pct = |ticks: u64| 100.0 * (ticks as f64 / TICKS_PER_SEC) / dt_secs;
    // Cumulative counters only ever grow for a live process; a regression
    // means the pid was reused or the source restarted. The saturating
    // diffs clamp the rates to zero (instead of underflowing into
    // astronomical values), and the regression is flagged so the sampler
    // can emit a typed degradation marker.
    let mut counter_reset = curr.stat.utime_ticks < prev.stat.utime_ticks
        || curr.stat.stime_ticks < prev.stat.stime_ticks;
    let user = pct(curr.stat.utime_ticks.saturating_sub(prev.stat.utime_ticks));
    let sys = pct(curr.stat.stime_ticks.saturating_sub(prev.stat.stime_ticks));

    let host_cpu_percent = match (prev.host, curr.host) {
        (Some(a), Some(b)) if b.total_ticks > a.total_ticks => {
            let total = (b.total_ticks - a.total_ticks) as f64;
            let idle = b.idle_ticks.saturating_sub(a.idle_ticks) as f64;
            Some(100.0 * (total - idle).max(0.0) / total)
        }
        (Some(a), Some(b)) => {
            // Host jiffies cannot stand still across a strictly ordered
            // sample pair, let alone shrink: the host stat was reset.
            counter_reset |= b.total_ticks < a.total_ticks;
            None
        }
        _ => None,
    };
    if let (Some(a), Some(b)) = (prev.io, curr.io) {
        counter_reset |= b.read_bytes < a.read_bytes || b.write_bytes < a.write_bytes;
    }
    if let (Some(a), Some(b)) = (prev.status, curr.status) {
        let regressed =
            |x: Option<u64>, y: Option<u64>| matches!((x, y), (Some(x), Some(y)) if y < x);
        counter_reset |= regressed(a.voluntary_ctxt_switches, b.voluntary_ctxt_switches)
            || regressed(a.nonvoluntary_ctxt_switches, b.nonvoluntary_ctxt_switches);
    }

    let rss_bytes = curr
        .status
        .and_then(|s| s.vm_rss_bytes)
        .unwrap_or(curr.stat.rss_pages * PAGE_SIZE);
    let threads = curr
        .status
        .and_then(|s| s.threads)
        .unwrap_or(curr.stat.num_threads);

    Some(Derived {
        t_micros: curr.t_micros,
        cpu_percent: user + sys,
        cpu_user_percent: user,
        cpu_sys_percent: sys,
        host_cpu_percent,
        rss_bytes,
        threads,
        read_bytes: curr.io.map(|io| io.read_bytes),
        write_bytes: curr.io.map(|io| io.write_bytes),
        voluntary_ctxt_switches: curr.status.and_then(|s| s.voluntary_ctxt_switches),
        nonvoluntary_ctxt_switches: curr.status.and_then(|s| s.nonvoluntary_ctxt_switches),
        counter_reset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A realistic stat line whose comm contains spaces and parentheses.
    const STAT: &str = "12345 (tokio (rt) w-1) S 1 12345 12345 0 -1 4194304 9000 0 12 0 \
                        150 50 0 0 20 0 7 0 100000 210000000 2560 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0";

    #[test]
    fn pid_stat_counts_from_last_paren() {
        let s = parse_pid_stat(STAT).unwrap();
        assert_eq!(s.utime_ticks, 150);
        assert_eq!(s.stime_ticks, 50);
        assert_eq!(s.num_threads, 7);
        assert_eq!(s.rss_pages, 2560);
    }

    #[test]
    fn pid_stat_rejects_malformed() {
        assert!(parse_pid_stat("no comm here").is_err());
        assert!(parse_pid_stat("1 (x) S 2 3").is_err()); // too few fields
        let bad = STAT.replace(" 150 ", " nan ");
        assert!(parse_pid_stat(&bad).is_err());
    }

    #[test]
    fn pid_status_extracts_known_keys() {
        let text = "Name:\tgt-bench\nVmPeak:\t  20000 kB\nVmRSS:\t  10240 kB\n\
                    Threads:\t9\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        let s = parse_pid_status(text).unwrap();
        assert_eq!(s.vm_rss_bytes, Some(10240 * 1024));
        assert_eq!(s.threads, Some(9));
        assert_eq!(s.voluntary_ctxt_switches, Some(120));
        assert_eq!(s.nonvoluntary_ctxt_switches, Some(7));
    }

    #[test]
    fn pid_status_tolerates_missing_keys() {
        let s = parse_pid_status("Name:\tx\nState:\tS (sleeping)\n").unwrap();
        assert_eq!(s, PidStatus::default());
    }

    #[test]
    fn pid_io_requires_byte_counters() {
        let text = "rchar: 100\nwchar: 200\nread_bytes: 4096\nwrite_bytes: 8192\n";
        let io = parse_pid_io(text).unwrap();
        assert_eq!(io.read_bytes, 4096);
        assert_eq!(io.write_bytes, 8192);
        assert!(parse_pid_io("rchar: 100\n").is_err());
        assert!(parse_pid_io("read_bytes: x\nwrite_bytes: 1\n").is_err());
    }

    #[test]
    fn host_stat_totals_and_cpu_count() {
        let text = "cpu  100 0 50 800 50 0 0 0 0 0\n\
                    cpu0 50 0 25 400 25 0 0 0 0 0\n\
                    cpu1 50 0 25 400 25 0 0 0 0 0\n\
                    intr 12345\nctxt 999\n";
        let h = parse_host_stat(text).unwrap();
        assert_eq!(h.total_ticks, 1000);
        assert_eq!(h.idle_ticks, 850);
        assert_eq!(h.cpus, 2);
        assert!(parse_host_stat("intr 1\n").is_err());
        assert!(parse_host_stat("cpu 1 2\n").is_err());
    }

    fn sample(t: u64, utime: u64, stime: u64, rss_pages: u64) -> Sample {
        Sample {
            t_micros: t,
            stat: PidStat {
                utime_ticks: utime,
                stime_ticks: stime,
                num_threads: 4,
                rss_pages,
            },
            status: None,
            io: None,
            host: None,
        }
    }

    #[test]
    fn derive_splits_user_and_sys() {
        // 1 second apart at 100 ticks/s: 60 user + 20 sys ticks = 80% CPU.
        let a = sample(0, 100, 40, 1000);
        let b = sample(1_000_000, 160, 60, 1100);
        let d = derive(&a, &b).unwrap();
        assert!((d.cpu_user_percent - 60.0).abs() < 1e-9);
        assert!((d.cpu_sys_percent - 20.0).abs() < 1e-9);
        assert!((d.cpu_percent - 80.0).abs() < 1e-9);
        assert_eq!(d.rss_bytes, 1100 * 4096);
        assert_eq!(d.threads, 4);
        assert_eq!(d.host_cpu_percent, None);
        assert_eq!(d.read_bytes, None);
    }

    #[test]
    fn derive_prefers_status_rss_and_threads() {
        let a = sample(0, 0, 0, 1000);
        let mut b = sample(500_000, 10, 0, 1000);
        b.status = Some(PidStatus {
            vm_rss_bytes: Some(7_000_000),
            threads: Some(11),
            voluntary_ctxt_switches: Some(3),
            nonvoluntary_ctxt_switches: Some(1),
        });
        b.io = Some(PidIo {
            read_bytes: 42,
            write_bytes: 7,
        });
        let d = derive(&a, &b).unwrap();
        assert_eq!(d.rss_bytes, 7_000_000);
        assert_eq!(d.threads, 11);
        assert_eq!(d.read_bytes, Some(42));
        assert_eq!(d.write_bytes, Some(7));
        assert_eq!(d.voluntary_ctxt_switches, Some(3));
        assert_eq!(d.nonvoluntary_ctxt_switches, Some(1));
        // Half a second, 10 ticks at 100 Hz = 20% of a core.
        assert!((d.cpu_percent - 20.0).abs() < 1e-9);
    }

    #[test]
    fn derive_host_cpu_percent() {
        let mut a = sample(0, 0, 0, 1);
        let mut b = sample(1_000_000, 0, 0, 1);
        a.host = Some(HostStat {
            total_ticks: 1000,
            idle_ticks: 900,
            cpus: 2,
        });
        b.host = Some(HostStat {
            total_ticks: 1200,
            idle_ticks: 1050,
            cpus: 2,
        });
        let d = derive(&a, &b).unwrap();
        // 200 total ticks, 150 idle → 25% busy.
        assert_eq!(d.host_cpu_percent, Some(25.0));
    }

    #[test]
    fn derive_rejects_non_monotone_time() {
        let a = sample(1_000, 0, 0, 1);
        let b = sample(1_000, 1, 0, 1);
        assert!(derive(&a, &b).is_none());
        assert!(derive(&b, &a).is_none());
    }

    #[test]
    fn derive_clamps_counter_regressions() {
        // A pid reuse or counter wobble must not produce negative rates.
        let a = sample(0, 100, 100, 1);
        let b = sample(1_000_000, 50, 50, 1);
        let d = derive(&a, &b).unwrap();
        assert_eq!(d.cpu_percent, 0.0);
        // Regression: the clamp used to be silent — the reset must be
        // flagged so consumers can discard the degraded instant.
        assert!(d.counter_reset);
        // A well-behaved pair stays unflagged.
        let c = sample(2_000_000, 60, 60, 1);
        let d = derive(&b, &c).unwrap();
        assert!(!d.counter_reset);
        assert!(d.cpu_percent > 0.0);
    }

    #[test]
    fn derive_flags_host_and_io_counter_resets() {
        // Host jiffy total going backwards (e.g. a rebooted container's
        // /proc/stat) must flag a reset and withhold host CPU%.
        let mut a = sample(0, 0, 0, 1);
        let mut b = sample(1_000_000, 1, 0, 1);
        a.host = Some(HostStat {
            total_ticks: 5_000,
            idle_ticks: 4_000,
            cpus: 2,
        });
        b.host = Some(HostStat {
            total_ticks: 100,
            idle_ticks: 50,
            cpus: 2,
        });
        let d = derive(&a, &b).unwrap();
        assert!(d.counter_reset);
        assert_eq!(d.host_cpu_percent, None);

        // Cumulative io bytes shrinking (pid reuse) likewise.
        let mut a = sample(0, 0, 0, 1);
        let mut b = sample(1_000_000, 1, 0, 1);
        a.io = Some(PidIo {
            read_bytes: 9_000,
            write_bytes: 9_000,
        });
        b.io = Some(PidIo {
            read_bytes: 10,
            write_bytes: 10,
        });
        let d = derive(&a, &b).unwrap();
        assert!(d.counter_reset);
    }
}
