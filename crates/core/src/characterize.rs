//! Workload characterization reports — the paper's stated goal
//! ("extract the rules of thumb to aid cloud service providers") and
//! its future work ("design and apply formal methods to model the
//! workload dynamics at both resource level and transaction level"),
//! made executable.
//!
//! [`characterize`] condenses one experiment into:
//!
//! * **resource level** — per host × resource: summary statistics, the
//!   best-fitting distribution family (with KS distance), lag-1
//!   autocorrelation and detected level shifts;
//! * **transaction level** — per RUBiS interaction: completion counts
//!   and latency means;
//! * **structure** — the inter-tier lag.

use crate::experiment::ExperimentResult;
use crate::sweep::par_map_ordered_with;
use cloudchar_analysis::{find_lag, FitResult, LagResult, Resource, SeriesScratch, Summary};
use cloudchar_monitor::Source;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Characterization of one `(host, resource)` demand series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Host label.
    pub host: String,
    /// Resource dimension.
    pub resource: Resource,
    /// Descriptive statistics.
    pub summary: Summary,
    /// Best-fitting distribution family, if enough samples.
    pub fit: Option<FitResult>,
    /// Lag-1 autocorrelation (burst persistence).
    pub autocorr1: Option<f64>,
    /// Detected level shifts (window 15 samples, threshold 10% of the
    /// series mean).
    pub jumps: usize,
    /// Dominant periodic component, if any (period in seconds, power
    /// fraction).
    pub period: Option<(f64, f64)>,
}

/// Transaction-level statistics of one interaction class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransactionProfile {
    /// PHP script name.
    pub script: String,
    /// Completions over the run.
    pub completed: u64,
    /// Mean end-to-end latency in seconds.
    pub latency_mean_s: f64,
}

/// The full characterization of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Characterization {
    /// One profile per host × resource.
    pub resources: Vec<ResourceProfile>,
    /// One profile per interaction with at least one completion.
    pub transactions: Vec<TransactionProfile>,
    /// Lag of the DB tier behind the web tier (CPU series).
    pub tier_lag: Option<LagResult>,
    /// Total completed requests.
    pub completed: u64,
    /// Mean response time in seconds.
    pub response_time_mean_s: f64,
}

/// Profile one already-loaded series with the shared-pass workspace:
/// summary, best fit, lag-1 autocorrelation, jump count (window 15,
/// threshold 10% of the mean) and the dominant period in seconds.
/// Returns `None` when the series is empty or non-finite.
pub(crate) fn profile_loaded(
    scratch: &mut SeriesScratch,
    dt_s: f64,
) -> Option<(
    Summary,
    Option<FitResult>,
    Option<f64>,
    usize,
    Option<(f64, f64)>,
)> {
    let summary = scratch.summary()?;
    let threshold = (summary.mean.abs() * 0.10).max(1e-9);
    let fit = scratch.best_fit();
    let autocorr1 = scratch.autocorrelation(1);
    let jumps = scratch.detect_jumps(15, threshold).len();
    let period = scratch
        .dominant_periods(0.10, 1)
        .first()
        .map(|p| (p.period_samples * dt_s, p.power));
    Some((summary, fit, autocorr1, jumps, period))
}

/// Characterize an experiment result on the default-size worker pool
/// (one worker per available core).
pub fn characterize(result: &ExperimentResult) -> Characterization {
    characterize_jobs(result, crate::sweep::default_jobs())
}

/// Characterize an experiment result, fanning the per-`(host, resource)`
/// series profiles across at most `jobs` pooled worker threads. Each
/// worker reuses one [`SeriesScratch`]; profiles are merged back in
/// host-then-resource order, so the output is identical for every job
/// count.
pub fn characterize_jobs(result: &ExperimentResult, jobs: usize) -> Characterization {
    let dt_s = result.config.sample_interval.as_secs_f64();
    let mut tasks: Vec<(&str, Resource)> = Vec::new();
    for host in &result.hosts {
        for resource in Resource::ALL {
            tasks.push((host, resource));
        }
    }
    let resources = par_map_ordered_with(
        &tasks,
        jobs,
        SeriesScratch::new,
        |scratch, &(host, resource)| {
            let xs = result.resource_series(resource, host);
            scratch.load(&xs);
            let (summary, fit, autocorr1, jumps, period) = profile_loaded(scratch, dt_s)?;
            Some(ResourceProfile {
                host: host.to_string(),
                resource,
                summary,
                fit,
                autocorr1,
                jumps,
                period,
            })
        },
    )
    .into_iter()
    .flatten()
    .collect();
    let tier_lag = {
        let web = result.resource_series(Resource::Cpu, result.front_host());
        let db = result.resource_series(Resource::Cpu, result.back_host());
        find_lag(&web, &db, 10)
    };
    let transactions = result
        .transactions
        .iter()
        .filter(|(_, n, _)| *n > 0)
        .map(|(script, n, lat)| TransactionProfile {
            script: script.clone(),
            completed: *n,
            latency_mean_s: *lat,
        })
        .collect();
    Characterization {
        resources,
        transactions,
        tier_lag,
        completed: result.completed,
        response_time_mean_s: result.response_time_mean_s,
    }
}

/// Characterization of one raw catalog metric series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricProfile {
    /// Host label.
    pub host: String,
    /// Metric name (as in Table 1 of the paper).
    pub metric: String,
    /// Sampling source of the metric.
    pub source: Source,
    /// Descriptive statistics.
    pub summary: Summary,
    /// Best-fitting distribution family, if enough samples.
    pub fit: Option<FitResult>,
    /// Lag-1 autocorrelation.
    pub autocorr1: Option<f64>,
    /// Detected level shifts (window 15, threshold 10% of the mean).
    pub jumps: usize,
    /// Dominant periodic component (period seconds, power fraction).
    pub period: Option<(f64, f64)>,
}

/// Full-catalog characterization: every sampled metric of every host.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FullCharacterization {
    /// Hosts in presentation order.
    pub hosts: Vec<String>,
    /// Per host: number of catalog metrics present in the store.
    pub metrics_per_host: Vec<(String, usize)>,
    /// One profile per present `(host, metric)` series, in host-then-
    /// catalog order.
    pub profiles: Vec<MetricProfile>,
}

/// Profile the *entire* metric catalog — every sampled series of every
/// host, not just the per-resource rollups — on at most `jobs` pooled
/// worker threads: [`crate::Samples::full_characterize`] over the resident
/// store, the same body `full_characterize_trace` runs off disk. Output
/// order is host presentation order crossed with catalog order,
/// independent of the job count.
pub fn full_characterize(result: &ExperimentResult, jobs: usize) -> FullCharacterization {
    // Resident chunks are borrowed slices, so no read can fail.
    result.samples().full_characterize(jobs).unwrap_or_default()
}

impl fmt::Display for Characterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload characterization: {} requests, mean response {:.1} ms",
            self.completed,
            self.response_time_mean_s * 1e3
        )?;
        if let Some(lag) = self.tier_lag {
            writeln!(
                f,
                "tier structure: db trails web by {} sample(s) (r = {:.2})",
                lag.lag_samples, lag.correlation
            )?;
        }
        writeln!(f, "-- resource level --")?;
        for r in &self.resources {
            let fit = match &r.fit {
                Some(fr) => format!("{:?} (KS {:.3})", fr.dist, fr.ks),
                None => "(no fit)".to_string(),
            };
            writeln!(
                f,
                "{:>9} {:<5} mean {:>11.4e} cv {:>5.2} ac1 {:>5.2} jumps {} fit {}",
                r.host,
                format!("{:?}", r.resource),
                r.summary.mean,
                r.summary.cv,
                r.autocorr1.unwrap_or(0.0),
                r.jumps,
                fit
            )?;
        }
        writeln!(f, "-- transaction level --")?;
        let mut txns = self.transactions.clone();
        txns.sort_by_key(|t| std::cmp::Reverse(t.completed));
        for t in &txns {
            writeln!(
                f,
                "{:>32} {:>8} completions, {:>7.1} ms mean",
                t.script,
                t.completed,
                t.latency_mean_s * 1e3
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for FullCharacterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: usize = self.metrics_per_host.iter().map(|(_, n)| n).sum();
        writeln!(
            f,
            "full-catalog characterization: {} series over {} host(s)",
            total,
            self.hosts.len()
        )?;
        for (host, present) in &self.metrics_per_host {
            let rows: Vec<&MetricProfile> =
                self.profiles.iter().filter(|p| &p.host == host).collect();
            let fitted = rows.iter().filter(|p| p.fit.is_some()).count();
            let periodic = rows.iter().filter(|p| p.period.is_some()).count();
            let jumpy = rows.iter().filter(|p| p.jumps > 0).count();
            writeln!(
                f,
                "{:>12}: {} metrics sampled, {} profiled ({} fitted, {} periodic, {} with jumps)",
                host,
                present,
                rows.len(),
                fitted,
                periodic,
                jumpy
            )?;
            // The strongest periodic metrics, the signal the paper reads
            // off its workload curves (commit ticks, flush intervals).
            let mut periodic_rows: Vec<&&MetricProfile> =
                rows.iter().filter(|p| p.period.is_some()).collect();
            periodic_rows.sort_by(|a, b| {
                let pa = a.period.map(|(_, power)| power).unwrap_or(0.0);
                let pb = b.period.map(|(_, power)| power).unwrap_or(0.0);
                pb.total_cmp(&pa)
            });
            for p in periodic_rows.iter().take(3) {
                if let Some((period_s, power)) = p.period {
                    writeln!(
                        f,
                        "{:>16} {:<24} period {:>6.0} s (power {:.2})",
                        format!("[{:?}]", p.source),
                        p.metric,
                        period_s,
                        power
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Deployment, ExperimentConfig};
    use crate::experiment::run;
    use cloudchar_rubis::WorkloadMix;

    fn quick() -> Characterization {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        characterize(&run(cfg))
    }

    #[test]
    fn covers_all_host_resource_pairs() {
        let c = quick();
        // 3 hosts × 4 resources.
        assert_eq!(c.resources.len(), 12);
        for r in &c.resources {
            assert!(r.summary.n > 0);
            assert!(r.summary.mean.is_finite());
        }
    }

    #[test]
    fn transaction_level_reflects_the_mix() {
        let c = quick();
        assert!(!c.transactions.is_empty());
        let total: u64 = c.transactions.iter().map(|t| t.completed).sum();
        assert_eq!(total, c.completed);
        // A bidding run must complete StoreBid transactions.
        assert!(
            c.transactions.iter().any(|t| t.script == "StoreBid.php"),
            "no StoreBid transactions in a bidding run"
        );
        for t in &c.transactions {
            assert!(t.latency_mean_s > 0.0, "{} latency", t.script);
        }
    }

    #[test]
    fn browsing_has_no_write_transactions() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        let c = characterize(&run(cfg));
        for t in &c.transactions {
            assert!(
                !t.script.starts_with("Store") && t.script != "RegisterUser.php",
                "write transaction {} in browsing run",
                t.script
            );
        }
    }

    #[test]
    fn fits_are_reported_for_long_series() {
        let c = quick();
        let with_fit = c.resources.iter().filter(|r| r.fit.is_some()).count();
        assert!(with_fit >= 8, "only {with_fit} fits");
    }

    #[test]
    fn display_renders() {
        let c = quick();
        let s = c.to_string();
        assert!(s.contains("resource level"));
        assert!(s.contains("transaction level"));
        assert!(s.contains("web-vm"));
    }

    #[test]
    fn full_characterize_covers_the_catalog() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        let fc = full_characterize(&r, 4);
        assert_eq!(fc.hosts, r.hosts);
        // Each VM carries its guest sysstat block plus the shared
        // hypervisor-plane metrics; every present series is profiled.
        let total_present: usize = fc.metrics_per_host.iter().map(|(_, n)| n).sum();
        assert!(
            total_present >= cloudchar_monitor::SYSSTAT_METRICS,
            "only {total_present} series present"
        );
        assert_eq!(
            fc.profiles.len(),
            total_present,
            "every present series profiles"
        );
        for p in &fc.profiles {
            assert!(p.summary.n > 0);
            assert!(p.summary.mean.is_finite());
        }
        // Output order: host presentation order, catalog order within.
        let host_rank = |h: &str| fc.hosts.iter().position(|x| x == h).unwrap();
        for w in fc.profiles.windows(2) {
            assert!(host_rank(&w[0].host) <= host_rank(&w[1].host));
        }
        let s = fc.to_string();
        assert!(s.contains("full-catalog characterization"));
    }

    #[test]
    fn job_count_does_not_change_results() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        let serial = characterize_jobs(&r, 1);
        let pooled = characterize_jobs(&r, 8);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&pooled).unwrap()
        );
        let full_serial = full_characterize(&r, 1);
        let full_pooled = full_characterize(&r, 8);
        assert_eq!(
            serde_json::to_string(&full_serial).unwrap(),
            serde_json::to_string(&full_pooled).unwrap()
        );
    }
}
