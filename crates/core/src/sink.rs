//! The sampling sink: the one routine that turns a sampling tick's raw
//! host samples into catalog rows and routes them.
//!
//! Every world that profiles hosts — the single-host [`crate::World`],
//! each fleet pod (which *is* a `World`) and the batch job — hands its
//! tick's [`HostSample`]s to [`SampleSink::record`]. Each row is
//! synthesized once, observed by the online profilers when armed, and
//! then lands in exactly one place: the streaming trace writer when
//! armed, the resident [`SeriesStore`] otherwise.

use crate::online::OnlineBank;
use crate::platform::HostSample;
use cloudchar_monitor::{
    synthesize_perf_into, synthesize_sysstat_into, ChunkWriter, SampleRow, SeriesStore,
};
use cloudchar_simcore::{SimDuration, SimTime};

/// Row scratch plus the optional sinks and observers of one world.
pub(crate) struct SampleSink {
    row: SampleRow,
    /// Streaming trace writer: when armed, rows spill to disk chunk by
    /// chunk instead of accumulating in the store.
    trace: Option<ChunkWriter>,
    /// First I/O error hit by the trace writer, deferred because the
    /// sampling tick runs inside an engine callback that cannot return
    /// `Result`; surfaced by [`SampleSink::finish`].
    trace_err: Option<std::io::Error>,
    /// Live sliding-window profilers: when armed, every row also feeds
    /// the per-host online characterization.
    online: Option<OnlineBank>,
}

impl Default for SampleSink {
    fn default() -> Self {
        SampleSink::new(None, None)
    }
}

impl SampleSink {
    /// A sink routing to `trace` (or the store when `None`), observed by
    /// `online` when armed.
    pub(crate) fn new(trace: Option<ChunkWriter>, online: Option<OnlineBank>) -> Self {
        SampleSink {
            row: SampleRow::with_capacity(cloudchar_monitor::TOTAL_METRICS),
            trace,
            trace_err: None,
            online,
        }
    }

    /// Synthesize and route one tick's samples (interval `dt`).
    pub(crate) fn record(
        &mut self,
        store: &mut SeriesStore,
        dt: SimDuration,
        samples: Vec<HostSample>,
    ) {
        let start = SimTime::ZERO + dt;
        for s in samples {
            // One reusable row per host per tick: synthesis appends by
            // cached layout ids, then the whole row commits in one call —
            // no string keys, no map probes, no steady-state allocation.
            self.row.clear();
            synthesize_sysstat_into(&s.raw, s.sysstat_source, &mut self.row);
            if s.has_perf {
                synthesize_perf_into(&s.raw, &mut self.row);
            }
            if let Some(bank) = self.online.as_mut() {
                // Online profiling observes the row before it is routed, so
                // it composes with both sinks and perturbs neither.
                bank.record(s.host, &self.row);
            }
            if let Some(writer) = self.trace.as_mut() {
                let host = writer.host_id(s.host);
                if let Err(e) = writer.record_row(host, start, dt, &self.row) {
                    // Disarm so one bad disk reports one error.
                    self.trace_err.get_or_insert(e);
                    self.trace = None;
                }
            } else {
                let host = store.host_id(s.host);
                store.record_row(host, start, dt, &self.row);
            }
        }
    }

    /// Seal the trace file (surfacing any I/O error the ticks deferred)
    /// and hand back the online bank.
    pub(crate) fn finish(self) -> (std::io::Result<()>, Option<OnlineBank>) {
        let sealed = match (self.trace_err, self.trace) {
            (Some(e), _) => Err(e),
            (None, Some(mut writer)) => writer.finish().map(drop),
            (None, None) => Ok(()),
        };
        (sealed, self.online)
    }
}
