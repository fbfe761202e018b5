//! Resource demand extraction: the figures' four units, defined once.
//!
//! The figures and ratio claims read four resources per host (CPU
//! cycles, RAM MB, disk KB, network KB), each derived from one or two
//! catalog metrics. [`ResourceTap`] resolves the contributing
//! [`MetricId`]s once per host and owns the unit formulas. Live
//! profiling extracts all four demands *during* the 2 s sampling tick,
//! straight from the freshly synthesized [`SampleRow`], in a single
//! allocation-free pass per row; post-hoc analysis applies the same
//! [`ResourceTap::derive`] to stored series (core's `ResourceCursor`),
//! so the online and post-hoc views of a run agree bit-for-bit.

use crate::catalog::catalog;
use crate::metric::{MetricId, Source};
use crate::store::SampleRow;

/// Display labels of the four extracted resources, in
/// [`ResourceTap::extract`] order.
pub const RESOURCE_NAMES: [&str; 4] = ["cpu", "ram", "disk", "net"];

/// Resolved metric handles for one host's resource demands: the one
/// place that names the contributing metrics, picks the sysstat plane
/// and applies the figures' unit formulas. The per-tick online tap
/// ([`ResourceTap::extract`]) and the post-hoc series derivation (core's
/// `ResourceCursor`, behind `ExperimentResult::resource_series`) both
/// go through [`ResourceTap::derive`], so the two views of a run agree
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct ResourceTap {
    /// Per resource, in [`RESOURCE_NAMES`] order: the metric read and,
    /// for disk and network, the second metric summed with it.
    inputs: [(MetricId, Option<MetricId>); 4],
    dt_s: f64,
}

impl ResourceTap {
    /// Resolve the tap for `host` (VM hosts report through the VM
    /// sysstat plane, everything else through the hypervisor plane)
    /// with sample interval `dt_s` seconds. Returns `None` only if the
    /// pinned catalog were to lose one of the six contributing metrics.
    pub fn new(host: &str, dt_s: f64) -> Option<Self> {
        let sys = if host.ends_with("-vm") {
            Source::VmSysstat
        } else {
            Source::HypervisorSysstat
        };
        let c = catalog();
        Some(ResourceTap {
            inputs: [
                (c.find("cycles", Source::PerfCounter)?, None),
                (c.find("kbmemused", sys)?, None),
                (c.find("bread/s", sys)?, Some(c.find("bwrtn/s", sys)?)),
                (
                    c.find("eth0-rxkB/s", sys)?,
                    Some(c.find("eth0-txkB/s", sys)?),
                ),
            ],
            dt_s,
        })
    }

    /// The metric resource `k` ([`RESOURCE_NAMES`] order) reads, and
    /// the second metric summed with it for disk and network.
    pub fn inputs(&self, k: usize) -> (MetricId, Option<MetricId>) {
        self.inputs[k]
    }

    /// Resource `k`'s demand in the figures' units from one sample of
    /// its inputs (`b` is ignored by the single-metric resources):
    /// cycles as-is, `kbmemused / 1024` MB, `(bread/s + bwrtn/s) · 512 ·
    /// dt / 1024` KB and `(rx + tx) · dt` KB per sample.
    #[inline]
    pub fn derive(&self, k: usize, a: f64, b: f64) -> f64 {
        match k {
            0 => a,
            1 => a / 1024.0,
            2 => (a + b) * 512.0 * self.dt_s / 1024.0,
            _ => (a + b) * self.dt_s,
        }
    }

    /// Extract `[cpu cycles, ram MB, disk KB, net KB]` from one
    /// synthesized sample row, in [`RESOURCE_NAMES`] order, through
    /// [`ResourceTap::derive`]. Metrics absent from the row — e.g. perf
    /// counters on a host without the perf plane — extract as 0.
    pub fn extract(&self, row: &SampleRow) -> [f64; 4] {
        let mut a = [0.0; 4];
        let mut b = [0.0; 4];
        for &(id, v) in row.entries() {
            for (k, &(ia, ib)) in self.inputs.iter().enumerate() {
                if id == ia {
                    a[k] = v;
                } else if ib == Some(id) {
                    b[k] = v;
                }
            }
        }
        std::array::from_fn(|k| self.derive(k, a[k], b[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_for_both_planes() {
        let vm = ResourceTap::new("web-vm", 2.0).expect("vm tap");
        let hv = ResourceTap::new("dom0", 2.0).expect("hypervisor tap");
        // Perf plane is shared; the sysstat plane differs per host kind.
        assert_eq!(vm.inputs(0), hv.inputs(0));
        assert_ne!(vm.inputs(1), hv.inputs(1));
    }

    #[test]
    fn extracts_with_batch_unit_conversions() {
        let tap = ResourceTap::new("web-vm", 2.0).expect("tap");
        let mut row = SampleRow::new();
        let [(cycles, _), (ram_kb, _), (read, Some(write)), (rx, Some(tx))] = tap.inputs else {
            panic!("disk and net read metric pairs");
        };
        row.push(cycles, 1.5e9);
        row.push(ram_kb, 2048.0);
        row.push(read, 100.0);
        row.push(write, 50.0);
        row.push(rx, 30.0);
        row.push(tx, 10.0);
        // An unrelated metric must not perturb the extraction.
        let other = catalog()
            .find("ldavg-1", Source::VmSysstat)
            .expect("ldavg-1");
        row.push(other, 9.9);
        let [cpu, ram, disk, net] = tap.extract(&row);
        assert_eq!(cpu, 1.5e9);
        assert_eq!(ram, 2.0);
        assert_eq!(disk, (100.0 + 50.0) * 512.0 * 2.0 / 1024.0);
        assert_eq!(net, (30.0 + 10.0) * 2.0);
    }

    #[test]
    fn missing_metrics_extract_as_zero() {
        let tap = ResourceTap::new("mysql-vm", 2.0).expect("tap");
        let row = SampleRow::new();
        assert_eq!(tap.extract(&row), [0.0; 4]);
    }
}
