//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each crate's public API; nothing inside the program is
//! instrumented. They stay in memory and are summarized once, at the
//! end of the run.

use std::io::Write;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

/// A tree of named wall-clock spans. A recorder made by [`Spans::off`]
/// records nothing, so untraced code paths can share the traced ones.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: None,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its length.
    pub fn exit(&mut self, id: usize) -> Duration {
        if !self.on {
            return Duration::ZERO;
        }
        let now = self.t0.elapsed();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = Some(now);
        now - span.start
    }

    fn duration(&self, i: usize) -> Duration {
        let s = &self.spans[i];
        s.end.map_or(Duration::ZERO, |end| end - s.start)
    }

    /// Durations of every closed span named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].end.is_some())
            .map(|i| self.duration(i))
            .collect()
    }

    /// Summed wall seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name)
            .iter()
            .fold(0.0, |acc, d| acc + d.as_secs_f64())
    }

    /// Per-span self time: its length minus the length of its children.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Write one line per span name: count, total and self seconds.
    pub fn write_summary(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_times();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        writeln!(
            out,
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        )?;
        for name in names {
            let ids: Vec<usize> = (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name)
                .collect();
            let total: f64 = ids.iter().map(|&i| self.duration(i).as_secs_f64()).sum();
            let self_s: f64 = ids.iter().map(|&i| own[i].as_secs_f64()).sum();
            writeln!(
                out,
                "{name:<32} {:>8} {total:>12.6} {self_s:>12.6}",
                ids.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(Duration::from_millis(5));
        s.exit(inner);
        s.exit(outer);
        let own = s.self_times();
        assert!(own[1] >= Duration::from_millis(5));
        assert!(own[0] < s.duration(0));
        assert_eq!(s.durations("inner").len(), 1);
    }
}
