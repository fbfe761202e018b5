//! The on-disk trace backing of [`Samples`].
//!
//! The in-memory path keeps every sampled series in a [`SeriesStore`]
//! and analyzes it after the run; resident memory grows with the run
//! length. The streaming path persists samples during the run through
//! [`cloudchar_monitor::ChunkWriter`] (see
//! [`crate::experiment::RunOptions::trace_out`] and the `trace_dir` of
//! [`crate::fleet::run_fleet_opts`]) and analyzes the on-disk store
//! afterwards, one decoded chunk at a time:
//!
//! * [`TraceDir`] — a run's trace: one `.cctr` file, or a directory of
//!   them (a fleet writes one file per pod, host labels pre-prefixed
//!   `podNN/` so no renaming is needed on read). Every consumer reads it
//!   through [`Samples::Trace`], the same interface the resident store
//!   backs, so figures, characterization and the fingerprint fold are
//!   written once (see [`crate::samples`]);
//! * [`full_characterize_trace`] and [`TraceDir::fold_values`] — the
//!   trace entries of those shared consumers;
//! * [`TraceDir::read_store`] — the equivalence oracle: materialize the
//!   whole trace back into a [`SeriesStore`] (memory O(run length); the
//!   differential tests use it to pin both paths byte-identical).

use crate::characterize::FullCharacterization;
use crate::samples::Samples;
use cloudchar_monitor::{ChunkReader, MetricId, SeriesCursor, SeriesStore};
use std::io;
use std::path::{Path, PathBuf};

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A run's on-disk trace: one `.cctr` chunk file or a directory of them.
///
/// Only the footer indexes are resident (hosts + per-chunk entries);
/// sample payloads stay on disk until a [`SeriesCursor`] decodes them.
#[derive(Debug)]
pub struct TraceDir {
    readers: Vec<ChunkReader>,
}

impl TraceDir {
    /// Open a trace: a single `.cctr` file, or a directory whose
    /// `*.cctr` members (sorted by file name, so `pod00.cctr` before
    /// `pod01.cctr`) form one logical store.
    pub fn open(path: &Path) -> io::Result<TraceDir> {
        if path.is_file() {
            return Ok(TraceDir {
                readers: vec![ChunkReader::open(path)?],
            });
        }
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "cctr") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(bad(format!(
                "{}: no .cctr trace files found",
                path.display()
            )));
        }
        let mut readers = Vec::with_capacity(files.len());
        for f in &files {
            readers.push(ChunkReader::open(f)?);
        }
        Ok(TraceDir { readers })
    }

    /// Host labels in presentation order: each file's footer order
    /// (which is the writer's first-touch order, i.e. the platform's
    /// sampling order), files in name order.
    pub fn hosts(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.readers {
            for h in r.hosts() {
                if !out.iter().any(|x| x == h) {
                    out.push(h.clone());
                }
            }
        }
        out
    }

    fn reader_for(&self, host: &str) -> Option<&ChunkReader> {
        self.readers
            .iter()
            .find(|r| r.hosts().iter().any(|h| h == host))
    }

    /// Does the trace hold any samples for `(host, metric)`?
    pub fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.reader_for(host)
            .is_some_and(|r| r.has_series(host, metric))
    }

    /// Open a decoding cursor over one series.
    pub fn cursor(&self, host: &str, metric: MetricId) -> io::Result<SeriesCursor> {
        let r = self
            .reader_for(host)
            .ok_or_else(|| bad(format!("host {host:?} not present in trace")))?;
        r.cursor(host, metric)
    }

    /// Every `(host, metric)` series present, sorted by
    /// `(host label, metric id)` — the same order [`SeriesStore::iter`]
    /// yields.
    pub fn series_ids(&self) -> Vec<(String, MetricId)> {
        let mut ids: Vec<(String, MetricId)> =
            self.readers.iter().flat_map(|r| r.series_ids()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// FNV-1a fold of every series' value bits in [`SeriesStore::iter`]
    /// order, continuing from `h` — [`Samples::fold_values`] over this
    /// trace, identical to the fold of the resident store.
    pub fn fold_values(&self, h: u64) -> io::Result<u64> {
        Samples::Trace(self).fold_values(h)
    }

    /// Materialize the whole trace as an in-memory [`SeriesStore`] —
    /// the equivalence oracle. Resident memory is O(run length); the
    /// streaming analyses above exist so normal use never needs this.
    pub fn read_store(&self) -> io::Result<SeriesStore> {
        let mut store = SeriesStore::new();
        for (host, metric) in self.series_ids() {
            let mut cur = self.cursor(&host, metric)?;
            let Some((start, interval)) = cur.timing() else {
                continue;
            };
            let id = store.host_id(&host);
            while let Some(chunk) = cur.next_chunk()? {
                for &v in chunk {
                    store.record_by_id(id, metric, start, interval, v);
                }
            }
        }
        Ok(store)
    }
}

/// Profile the entire metric catalog straight off the on-disk trace —
/// [`Samples::full_characterize`] over it, the same body
/// [`crate::characterize::full_characterize`] runs on a resident store.
/// Each pooled worker holds exactly one series, loaded chunk by chunk,
/// instead of the whole run's store.
pub fn full_characterize_trace(trace: &TraceDir, jobs: usize) -> io::Result<FullCharacterization> {
    Samples::Trace(trace).full_characterize(jobs)
}
