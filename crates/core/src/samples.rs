//! One read interface over a run's samples, resident or on disk.
//!
//! A run's samples live in a resident [`SeriesStore`] or in an on-disk
//! [`TraceDir`]. [`Samples`] exposes both through the same four reads —
//! hosts in presentation order, the sorted `(host, metric)` ids, a
//! presence test and a per-series chunk cursor ([`Chunks`]) — and every
//! sample consumer is written once over it:
//!
//! * [`ResourceCursor`] — the figures' resource units, derived chunk by
//!   chunk through [`ResourceTap::derive`];
//! * [`write_csv_streaming`] — the figure CSV rows;
//! * [`Samples::full_characterize`] — the full-catalog profile behind
//!   both `full_characterize` and `full_characterize_trace`;
//! * [`Samples::fold_values`] — the replay fingerprint's series fold.
//!
//! A resident series is one chunk (a borrowed slice, no copy); a trace
//! series decodes one chunk at a time, so memory on the trace side stays
//! bounded by the chunk size.

use crate::characterize::{profile_loaded, FullCharacterization, MetricProfile};
use crate::sweep::par_map_ordered_with;
use crate::trace::TraceDir;
use cloudchar_analysis::{Resource, SeriesScratch};
use cloudchar_monitor::{catalog, MetricId, ResourceTap, SeriesCursor, SeriesStore, TimeSeries};
use cloudchar_simcore::{SimDuration, SimTime};
use std::io;
use std::path::Path;

/// FNV-1a offset basis: the replay fingerprint's starting state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a 64-bit word.
pub(crate) fn fnv(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x100_0000_01b3)
}

/// Where a run's samples are read from.
#[derive(Debug, Clone, Copy)]
pub enum Samples<'a> {
    /// The resident store, with host labels in presentation order (a
    /// fleet's fingerprint fold reads only series ids and passes none).
    Resident {
        /// Host labels in presentation order.
        hosts: &'a [String],
        /// Every sampled series.
        store: &'a SeriesStore,
    },
    /// An on-disk trace; hosts in footer (first-touch) order.
    Trace(&'a TraceDir),
}

/// Per-series chunk cursor over a [`Samples`] backing.
#[derive(Debug)]
pub enum Chunks<'a> {
    /// A resident series (`None` when absent) and whether its whole
    /// sample vector, the one chunk, was handed out yet.
    Resident(Option<&'a TimeSeries>, bool),
    /// A trace series, decoded one chunk at a time.
    Trace(SeriesCursor),
}

impl Chunks<'_> {
    /// Start time and sampling interval; `None` for an absent series.
    pub fn timing(&self) -> Option<(SimTime, SimDuration)> {
        match self {
            Chunks::Resident(series, _) => series.map(|s| (s.start, s.interval)),
            Chunks::Trace(cur) => cur.timing(),
        }
    }

    /// The next chunk of samples; `None` after the last one.
    pub fn next_chunk(&mut self) -> io::Result<Option<&[f64]>> {
        match self {
            Chunks::Resident(series, read) => {
                if std::mem::replace(read, true) {
                    return Ok(None);
                }
                Ok(series.map(|s| s.values.as_slice()))
            }
            Chunks::Trace(cur) => cur.next_chunk(),
        }
    }
}

impl<'a> Samples<'a> {
    /// Host labels in presentation order.
    pub fn hosts(&self) -> Vec<String> {
        match *self {
            Samples::Resident { hosts, .. } => hosts.to_owned(),
            Samples::Trace(trace) => trace.hosts(),
        }
    }

    /// Every `(host, metric)` series present, sorted by `(host label,
    /// metric id)` — the order [`SeriesStore::iter`] yields.
    pub fn series_ids(&self) -> Vec<(String, MetricId)> {
        match self {
            Samples::Resident { store, .. } => {
                store.iter().map(|(h, m, _)| (h.to_string(), m)).collect()
            }
            Samples::Trace(trace) => trace.series_ids(),
        }
    }

    /// Does the run hold samples for `(host, metric)`?
    pub fn has_series(&self, host: &str, metric: MetricId) -> bool {
        match self {
            Samples::Resident { store, .. } => store.get(host, metric).is_some(),
            Samples::Trace(trace) => trace.has_series(host, metric),
        }
    }

    /// Open a chunk cursor over one series.
    pub fn cursor(&self, host: &str, metric: MetricId) -> io::Result<Chunks<'a>> {
        match *self {
            Samples::Resident { store, .. } => Ok(Chunks::Resident(store.get(host, metric), false)),
            Samples::Trace(trace) => Ok(Chunks::Trace(trace.cursor(host, metric)?)),
        }
    }

    /// FNV-1a fold of every series' value bits in [`SeriesStore::iter`]
    /// order, continuing from `h` — the series half of the replay
    /// fingerprint, identical for both backings.
    pub fn fold_values(&self, mut h: u64) -> io::Result<u64> {
        for (host, metric) in self.series_ids() {
            let mut cur = self.cursor(&host, metric)?;
            while let Some(chunk) = cur.next_chunk()? {
                for &v in chunk {
                    h = fnv(h, v.to_bits());
                }
            }
        }
        Ok(h)
    }

    /// Profile the entire metric catalog — every present series of
    /// every host — on at most `jobs` pooled worker threads. Output
    /// order is host presentation order crossed with catalog order,
    /// independent of the job count. Each worker loads one series
    /// chunk by chunk into its [`SeriesScratch`], so a trace is never
    /// resident beyond one series per worker.
    pub fn full_characterize(&self, jobs: usize) -> io::Result<FullCharacterization> {
        let c = catalog();
        let hosts = self.hosts();
        let mut tasks: Vec<(&str, MetricId)> = Vec::new();
        let mut metrics_per_host = Vec::with_capacity(hosts.len());
        for host in &hosts {
            let before = tasks.len();
            for id in c.ids() {
                if self.has_series(host, id) {
                    tasks.push((host, id));
                }
            }
            metrics_per_host.push((host.clone(), tasks.len() - before));
        }
        let outcomes = par_map_ordered_with(
            &tasks,
            jobs,
            SeriesScratch::new,
            |scratch, &(host, id)| -> io::Result<Option<MetricProfile>> {
                let mut cur = self.cursor(host, id)?;
                let Some((_, interval)) = cur.timing() else {
                    return Ok(None);
                };
                scratch.begin_load();
                while let Some(chunk) = cur.next_chunk()? {
                    scratch.extend_load(chunk);
                }
                scratch.finish_load();
                let Some((summary, fit, autocorr1, jumps, period)) =
                    profile_loaded(scratch, interval.as_secs_f64())
                else {
                    return Ok(None);
                };
                let def = c.def(id);
                Ok(Some(MetricProfile {
                    host: host.to_string(),
                    metric: def.name.clone(),
                    source: def.source,
                    summary,
                    fit,
                    autocorr1,
                    jumps,
                    period,
                }))
            },
        );
        let mut profiles = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            if let Some(p) = outcome? {
                profiles.push(p);
            }
        }
        Ok(FullCharacterization {
            hosts,
            metrics_per_host,
            profiles,
        })
    }
}

/// A resource's index in [`cloudchar_monitor::RESOURCE_NAMES`] order.
fn resource_index(resource: Resource) -> usize {
    match resource {
        Resource::Cpu => 0,
        Resource::Ram => 1,
        Resource::Disk => 2,
        Resource::Net => 3,
    }
}

/// One host's demand series of one resource, in the figures' units,
/// derived pointwise from one decoded chunk per contributing series at
/// a time. A missing contributing series gives an empty stream; paired
/// series (disk, net) zip to the shorter chunk — the writer seals both
/// on the same tick cadence, so their chunks align.
#[derive(Debug)]
pub struct ResourceCursor<'a> {
    tap: ResourceTap,
    k: usize,
    /// Cursors over the contributing series; `None` once the stream is
    /// exhausted (or a contributing series is absent).
    inputs: Option<(Chunks<'a>, Option<Chunks<'a>>)>,
    buf: Vec<f64>,
    idx: usize,
}

impl<'a> ResourceCursor<'a> {
    /// Open the `resource` stream of `host`; `dt_s` is the sampling
    /// interval in seconds.
    pub fn new(src: &Samples<'a>, resource: Resource, host: &str, dt_s: f64) -> io::Result<Self> {
        let tap = ResourceTap::new(host, dt_s)
            .ok_or_else(|| io::Error::other("resource metrics missing from the catalog"))?;
        let k = resource_index(resource);
        let (a, b) = tap.inputs(k);
        let present = src.has_series(host, a) && b.map_or(true, |b| src.has_series(host, b));
        let inputs = if present {
            Some((
                src.cursor(host, a)?,
                b.map(|b| src.cursor(host, b)).transpose()?,
            ))
        } else {
            None
        };
        Ok(ResourceCursor {
            tap,
            k,
            inputs,
            buf: Vec::new(),
            idx: 0,
        })
    }

    /// Derive the next chunk into the reused buffer; `false` once the
    /// stream is exhausted.
    fn refill(&mut self) -> io::Result<bool> {
        self.buf.clear();
        self.idx = 0;
        let Some((a, b)) = self.inputs.as_mut() else {
            return Ok(false);
        };
        let (tap, k) = (&self.tap, self.k);
        if let Some(av) = a.next_chunk()? {
            match b {
                None => self.buf.extend(av.iter().map(|&x| tap.derive(k, x, 0.0))),
                Some(b) => {
                    if let Some(bv) = b.next_chunk()? {
                        self.buf
                            .extend(av.iter().zip(bv).map(|(&x, &y)| tap.derive(k, x, y)));
                    }
                }
            }
        }
        if self.buf.is_empty() {
            self.inputs = None;
        }
        Ok(!self.buf.is_empty())
    }

    /// The next derived sample; `None` once the series is exhausted.
    pub fn next_value(&mut self) -> io::Result<Option<f64>> {
        if self.idx >= self.buf.len() && !self.refill()? {
            return Ok(None);
        }
        let v = self.buf.get(self.idx).copied();
        self.idx += 1;
        Ok(v)
    }
}

/// Write figure-CSV rows from derived-resource columns: a header line,
/// then one row per sample index with the time column `{:.1}` at
/// `(i + 1) · dt_s` and `,{:.3}` per column, exhausted columns padded
/// with `NaN` until the longest column ends. Only one chunk per column
/// is resident.
pub fn write_csv_streaming(
    path: &Path,
    header: &str,
    cols: &mut [ResourceCursor<'_>],
    dt_s: f64,
) -> io::Result<()> {
    use std::io::Write as _;
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for i in 1usize.. {
        let mut row = format!("{:.1}", i as f64 * dt_s);
        let mut live = false;
        for col in cols.iter_mut() {
            let v = col.next_value()?;
            live |= v.is_some();
            row.push_str(&format!(",{:.3}", v.unwrap_or(f64::NAN)));
        }
        if !live {
            break;
        }
        writeln!(f, "{row}")?;
    }
    f.flush()
}
