//! Live online characterization: per-host profiler banks on the
//! sampling tick.
//!
//! The batch characterization path waits for the run to finish, then
//! recomputes every statistic from the full stored series. The online
//! path characterizes *while the run executes*: each sampled host keeps
//! one incremental [`OnlineProfiler`] per figure resource (CPU cycles,
//! RAM MB, disk KB, network KB), fed straight from the freshly
//! synthesized sample row on every 2 s tick — before the row is routed
//! to the resident store or a streaming trace, so online profiling
//! composes with `--trace-out` and never perturbs what is recorded.
//!
//! An [`OnlineBank`] owns the profilers of one world (or one fleet
//! pod — pods run on the existing `--jobs` shard pool, so banks fan
//! across workers with no shared state). Every time a series completes
//! a full window the bank snapshots its [`OnlineProfile`] into an
//! [`OnlineReport`]; a final snapshot at run end covers the tail. The
//! report is what `repro run|fleet --online` prints and is the seam the
//! planned `repro serve` endpoint will poll.

use cloudchar_analysis::{OnlineProfile, OnlineProfiler};
use cloudchar_monitor::{ResourceTap, SampleRow, RESOURCE_NAMES};
use serde::{Deserialize, Serialize};

/// One live window snapshot of one `(host, resource)` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineSnapshot {
    /// Sampled host label (fleet merges prefix `podNN/`).
    pub host: String,
    /// Resource label (`cpu`, `ram`, `disk`, `net`).
    pub resource: String,
    /// Simulation time of the snapshot in seconds (tick × interval).
    pub t_s: f64,
    /// The incremental window profile at that instant.
    pub profile: OnlineProfile,
}

/// Every window snapshot an online-profiled run produced, in emission
/// order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Window length in samples shared by all profilers.
    pub window: usize,
    /// Snapshots in emission order (host-major per tick).
    pub snapshots: Vec<OnlineSnapshot>,
}

impl OnlineReport {
    /// Merge another report's snapshots, prefixing each host label —
    /// how per-pod fleet reports roll up (`pod00/web-vm`, ...).
    pub fn absorb_renamed(&mut self, other: OnlineReport, prefix: &str) {
        self.window = other.window;
        for mut s in other.snapshots {
            s.host = format!("{prefix}{}", s.host);
            self.snapshots.push(s);
        }
    }

    /// Render one snapshot as a compact single line.
    fn render_snapshot(s: &OnlineSnapshot, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "  {:<16} {:<4} @{:>7.0}s n={:<5}",
            s.host, s.resource, s.t_s, s.profile.window_len
        );
        match &s.profile.summary {
            None => {
                let _ = write!(out, " (window not summarizable)");
            }
            Some(sum) => {
                let _ = write!(out, " mean={:>11.4e} cv={:>5.2}", sum.mean, sum.cv);
                if let Some((k, r)) = s.profile.autocorr.first() {
                    match r {
                        Some(r) => {
                            let _ = write!(out, " ac{k}={r:+.2}");
                        }
                        None => {
                            let _ = write!(out, " ac{k}=n/a");
                        }
                    }
                }
                match &s.profile.dominant {
                    Some(p) => {
                        let _ = write!(
                            out,
                            " period={:.0} samples ({:.2})",
                            p.period_samples, p.power
                        );
                    }
                    None => {
                        let _ = write!(out, " period=none");
                    }
                }
                let _ = write!(out, " jumps={}", s.profile.jumps.len());
            }
        }
        out.push('\n');
    }
}

impl std::fmt::Display for OnlineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        for s in &self.snapshots {
            Self::render_snapshot(s, &mut out);
        }
        write!(f, "{out}")
    }
}

/// Per-host online profilers of one running world, fed from the
/// sampling tick.
///
/// Hosts are interned densely in first-sample order (a linear scan over
/// at most a handful of labels — no keyed maps on the sampling path);
/// each holds four profilers in [`RESOURCE_NAMES`] order.
#[derive(Debug)]
pub struct OnlineBank {
    window: usize,
    dt_s: f64,
    hosts: Vec<String>,
    taps: Vec<ResourceTap>,
    profilers: Vec<OnlineProfiler>,
    report: OnlineReport,
}

impl OnlineBank {
    /// A bank profiling over `window`-sample sliding windows at a
    /// `dt_s`-second sampling interval.
    pub fn new(window: usize, dt_s: f64) -> Self {
        assert!(window >= 1, "window must be >= 1");
        OnlineBank {
            window,
            dt_s,
            hosts: Vec::new(),
            taps: Vec::new(),
            profilers: Vec::new(),
            report: OnlineReport {
                window,
                snapshots: Vec::new(),
            },
        }
    }

    /// Window length in samples.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feed one host's freshly synthesized sample row into its four
    /// resource profilers, snapshotting each series whenever it
    /// completes a full window.
    pub fn record(&mut self, host: &str, row: &SampleRow) {
        let idx = match self.hosts.iter().position(|h| h == host) {
            Some(i) => i,
            None => {
                let Some(tap) = ResourceTap::new(host, self.dt_s) else {
                    // Unreachable with the pinned catalog; skip rather
                    // than poison the run if a metric ever disappears.
                    return;
                };
                self.hosts.push(host.to_string());
                self.taps.push(tap);
                for _ in 0..RESOURCE_NAMES.len() {
                    self.profilers.push(OnlineProfiler::new(self.window));
                }
                self.hosts.len() - 1
            }
        };
        let values = self.taps[idx].extract(row);
        let base = idx * RESOURCE_NAMES.len();
        for (r, &v) in values.iter().enumerate() {
            let p = &mut self.profilers[base + r];
            p.push(v);
            if p.samples_seen() % self.window as u64 == 0 {
                let t_s = p.samples_seen() as f64 * self.dt_s;
                let profile = p.profile();
                self.report.snapshots.push(OnlineSnapshot {
                    host: self.hosts[idx].clone(),
                    resource: RESOURCE_NAMES[r].to_string(),
                    t_s,
                    profile,
                });
            }
        }
    }

    /// Close the bank: snapshot every series whose tail was not already
    /// captured by a window boundary, and hand back the report.
    pub fn finish(mut self) -> OnlineReport {
        for (idx, host) in self.hosts.iter().enumerate() {
            let base = idx * RESOURCE_NAMES.len();
            for r in 0..RESOURCE_NAMES.len() {
                let p = &mut self.profilers[base + r];
                if p.samples_seen() == 0 || p.samples_seen() % self.window as u64 == 0 {
                    continue; // boundary snapshot already holds this state
                }
                let t_s = p.samples_seen() as f64 * self.dt_s;
                let profile = p.profile();
                self.report.snapshots.push(OnlineSnapshot {
                    host: host.clone(),
                    resource: RESOURCE_NAMES[r].to_string(),
                    t_s,
                    profile,
                });
            }
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_for(host: &str, cycles: f64, ram_kb: f64) -> SampleRow {
        let tap = ResourceTap::new(host, 2.0).expect("pinned catalog metrics");
        let mut row = SampleRow::new();
        row.push(tap.inputs(0).0, cycles);
        row.push(tap.inputs(1).0, ram_kb);
        row
    }

    #[test]
    fn snapshots_at_window_boundaries_and_tail() {
        let mut bank = OnlineBank::new(4, 2.0);
        for tick in 0..10 {
            let row = row_for("web-vm", 1e9 + tick as f64, 1024.0);
            bank.record("web-vm", &row);
        }
        let report = bank.finish();
        assert_eq!(report.window, 4);
        // 10 ticks: boundaries at 4 and 8 plus the tail at 10, ×4 series.
        assert_eq!(report.snapshots.len(), 3 * 4);
        let cpu: Vec<&OnlineSnapshot> = report
            .snapshots
            .iter()
            .filter(|s| s.resource == "cpu")
            .collect();
        assert_eq!(cpu.len(), 3);
        assert_eq!(cpu[0].t_s, 8.0); // tick 4 × 2 s
        assert_eq!(cpu[2].t_s, 20.0); // final tail at tick 10
        assert_eq!(cpu[2].profile.window_len, 4);
        assert_eq!(cpu[2].profile.samples_seen, 10);
        let s = cpu[2].profile.summary.as_ref().expect("clean window");
        assert_eq!(s.max, 1e9 + 9.0);
    }

    #[test]
    fn exact_boundary_end_takes_no_duplicate_tail() {
        let mut bank = OnlineBank::new(5, 2.0);
        for _ in 0..5 {
            bank.record("dom0", &row_for("dom0", 2e9, 4096.0));
        }
        let report = bank.finish();
        // One boundary snapshot per resource, no tail duplicate.
        assert_eq!(report.snapshots.len(), 4);
    }

    #[test]
    fn renamed_merge_prefixes_hosts() {
        let mut bank = OnlineBank::new(2, 2.0);
        bank.record("web-vm", &row_for("web-vm", 1.0, 0.0));
        bank.record("web-vm", &row_for("web-vm", 2.0, 0.0));
        let mut merged = OnlineReport::default();
        merged.absorb_renamed(bank.finish(), "pod03/");
        assert!(merged.snapshots.iter().all(|s| s.host == "pod03/web-vm"));
        assert_eq!(merged.window, 2);
    }

    #[test]
    fn report_renders_one_line_per_snapshot() {
        let mut bank = OnlineBank::new(2, 2.0);
        for tick in 0..4 {
            bank.record("web-vm", &row_for("web-vm", 1e9 + tick as f64, 2048.0));
        }
        let report = bank.finish();
        let text = report.to_string();
        assert_eq!(text.lines().count(), report.snapshots.len());
        assert!(text.contains("web-vm"));
        assert!(text.contains("cpu"));
        assert!(text.contains("mean="));
    }
}
