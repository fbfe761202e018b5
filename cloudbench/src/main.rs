//! cloudbench — end-to-end and per-layer benchmark of cloudchar.
//!
//! ```text
//! cargo run --release --manifest-path cloudbench/Cargo.toml -- \
//!     --workload paper_browse --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the benchmark runs
//! closed-loop iterations of the workload for `--seconds` and reports
//! the end-to-end metrics; with `--trace 1` it runs one untraced and one
//! traced iteration and reports the per-layer metrics. Every iteration's
//! outputs are checked; the last line of standard output is one JSON
//! object. The end-to-end times are scaled to a reference host speed
//! measured by a probe between iterations (`hostspeed.rs`). Scratch
//! files live in a directory under the working directory that is removed
//! before exit. See `LAYERS.md` for the metric map.

mod hostspeed;
mod spans;
mod workloads;

use hostspeed::Probe;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Iteration, Layers, Outcome, Plan, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric a workload
/// does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.setup.db_generate_s", "s"),
    ("core.setup.prewarm_s", "s"),
    ("core.setup.cohort_s", "s"),
    ("core.setup.world_s", "s"),
    ("core.simulate_s", "s"),
    ("core.tick_ms_p50", "ms"),
    ("core.tick_ms_p98", "ms"),
    ("core.tick_ms_max", "ms"),
    ("core.compare_s", "s"),
    ("simcore.events", "count"),
    ("simcore.ns_per_event", "ns"),
    ("simcore.pending_max", "count"),
    ("simcore.shard.rounds", "count"),
    ("simcore.shard.units", "count"),
    ("simcore.shard.messages", "count"),
    ("simcore.shard.units_per_round", "count"),
    ("simcore.shard.jobs2_over_jobs1", "ratio"),
    ("rubis.completed", "count"),
    ("rubis.db.queries", "count"),
    ("rubis.db.pool_accesses", "count"),
    ("rubis.db.pool_hit_ratio", "ratio"),
    ("rubis.db.qcache_hit_ratio", "ratio"),
    ("rubis.inflight_max", "count"),
    ("rubis.web.queue_max", "count"),
    ("xen.hv_cycles", "count"),
    ("hw.disk_bytes", "B"),
    ("hw.nic_bytes", "B"),
    ("monitor.samples", "count"),
    ("monitor.trace.bytes", "B"),
    ("monitor.trace.compression", "ratio"),
    ("monitor.trace_online_s", "s"),
    ("analysis.characterize_s", "s"),
    ("analysis.profiles", "count"),
    ("analysis.characterize_trace_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.host_probe_ms", "ms"),
];

/// Host seconds of set-up builds before each iteration (at least one
/// build), so `setup_s`, their median, samples the whole run as the
/// iteration walls do.
const SETUP_BATCH_S: f64 = 0.2;

const USAGE: &str = "usage: cloudbench --workload <paper_browse|paper_bid|fleet100> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt-expected]";

struct Args {
    plan: Plan,
    seconds: f64,
    trace: bool,
    /// Flip one expected value, so every check must fail (self-test).
    corrupt: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut smoke = false;
    let mut corrupt = false;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--corrupt-expected" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        plan: Plan {
            workload,
            seed: seed.unwrap_or_else(|| workload.preset_seed()),
            smoke,
        },
        seconds,
        trace,
        corrupt,
    })
}

/// Compares every iteration's outcome with the reference: the outputs
/// recorded at the preset seed, or else the first iteration's.
struct Checker {
    reference: Option<Outcome>,
    corrupt: bool,
    /// Whether the first outcome was logged.
    printed: bool,
}

impl Checker {
    fn new(plan: &Plan, corrupt: bool) -> Checker {
        let mut checker = Checker {
            reference: None,
            corrupt,
            printed: false,
        };
        if let Some(outcome) = plan.recorded() {
            checker.set_reference(outcome);
        }
        checker
    }

    fn set_reference(&mut self, mut outcome: Outcome) {
        if self.corrupt {
            outcome[0].1 ^= 1;
        }
        self.reference = Some(outcome);
    }

    /// Whether `got` equals the reference; the first outcome becomes the
    /// reference when none was recorded.
    fn accept(&mut self, got: &Outcome) -> bool {
        if !self.printed {
            self.printed = true;
            let fields: Vec<String> = got.iter().map(|(k, v)| format!("{k}={v:#x}")).collect();
            eprintln!("[cloudbench] outcome {}", fields.join(" "));
        }
        if self.reference.is_none() {
            self.set_reference(got.clone());
        }
        let want = self.reference.as_ref().expect("reference set above");
        if want == got {
            return true;
        }
        eprintln!("[cloudbench] output check failed:");
        for ((wk, wv), (gk, gv)) in want.iter().zip(got) {
            if wk != gk || wv != gv {
                eprintln!("  expected {wk} = {wv:#x}, got {gk} = {gv:#x}");
            }
        }
        if want.len() != got.len() {
            eprintln!("  expected {} outputs, got {}", want.len(), got.len());
        }
        false
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Run one iteration, turning an error or a panic into a failure.
fn attempt(f: impl FnOnce() -> std::io::Result<Iteration>) -> Option<Iteration> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(it)) => Some(it),
        Ok(Err(e)) => {
            eprintln!("[cloudbench] iteration failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("[cloudbench] iteration panicked");
            None
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` (0 when empty).
fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 0`: set up and iterate, in turn, until `seconds` pass. Each
/// set-up batch and iteration is timed in host seconds and scaled by
/// `REFERENCE_S` over the mean of the probe samples taken just before
/// and just after it.
fn untraced(args: &Args, tmp: &Path) -> Report {
    let plan = &args.plan;
    let mut checker = Checker::new(plan, args.corrupt);
    let (mut attempted, mut failed) = (0, 0);
    let mut probe = Probe::new();
    let mut before = probe.sample();
    let mut probes = vec![before];
    // Host seconds as measured, then scaled to the reference speed.
    let (mut raw_walls, mut raw_rates, mut raw_setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    // Start another iteration only while it should end within `seconds`.
    let start = Instant::now();
    while attempted == 0 || start.elapsed().as_secs_f64() + median(raw_walls.clone()) < args.seconds
    {
        let batch = Instant::now();
        let mut batch_setups = Vec::new();
        loop {
            batch_setups.push(plan.setup(&mut Spans::off()).as_secs_f64());
            if batch.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break;
            }
        }
        attempted += 1;
        let t = Instant::now();
        let it = attempt(|| plan.iterate(tmp));
        let wall = t.elapsed().as_secs_f64();
        let after = probe.sample();
        probes.push(after);
        let scale = hostspeed::REFERENCE_S / ((before + after) / 2.0);
        before = after;
        setups.extend(batch_setups.iter().map(|s| s * scale));
        raw_setups.extend(batch_setups);
        match it {
            Some(it) if checker.accept(&it.outcome) => {
                raw_walls.push(wall);
                walls.push(wall * scale);
                raw_rates.push(it.events as f64 / it.sim_s);
                rates.push(it.events as f64 / (it.sim_s * scale));
            }
            _ => failed += 1,
        }
    }
    eprintln!("[cloudbench] {attempted} iterations, walls {raw_walls:.3?} s as measured");
    eprintln!(
        "[cloudbench] as measured: wall_s {:.4}, events_per_s {:.0}, setup_s {:.4}; probe median {:.4} s (reference {})",
        median(raw_walls),
        median(raw_rates),
        median(raw_setups),
        median(probes),
        hostspeed::REFERENCE_S
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip([median(walls), median(rates), median(setups), peak_rss_mb()])
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    }
}

/// `--trace 1`: one untraced and one traced iteration, both checked
/// against the same reference, then the per-layer metrics.
fn traced(args: &Args, tmp: &Path) -> Report {
    let plan = &args.plan;
    let mut checker = Checker::new(plan, args.corrupt);
    let mut failed = 0;
    let mut probe = Probe::new();
    let probe_before = probe.sample();

    let t = Instant::now();
    let untraced = attempt(|| plan.iterate(tmp));
    let untraced_wall = t.elapsed().as_secs_f64();
    if !untraced
        .as_ref()
        .is_some_and(|it| checker.accept(&it.outcome))
    {
        failed += 1;
    }

    let mut spans = Spans::new();
    let mut layers = Layers::new();
    let traced = attempt(|| plan.iterate_traced(tmp, &mut spans, &mut layers));
    let traced_wall = spans.total_s("bench.iteration");
    let probe_s = (probe_before + probe.sample()) / 2.0;
    let traced_ok = traced
        .as_ref()
        .is_some_and(|it| checker.accept(&it.outcome));
    if !traced_ok {
        failed += 1;
    }

    let mut summary = Vec::new();
    spans
        .write_summary(&mut summary)
        .expect("writing to memory cannot fail");
    eprint!("{}", String::from_utf8_lossy(&summary));

    let mut m = layers;
    for (name, span) in [
        ("core.setup.db_generate_s", "core.setup.db_generate"),
        ("core.setup.prewarm_s", "core.setup.prewarm"),
        ("core.setup.cohort_s", "core.setup.cohort"),
        ("core.setup.world_s", "core.setup.world"),
        ("core.compare_s", "core.compare"),
        ("analysis.characterize_s", "analysis.characterize"),
        (
            "analysis.characterize_trace_s",
            "analysis.characterize_trace",
        ),
    ] {
        m.insert(name, spans.total_s(span));
    }
    let simulate = spans.total_s("core.simulate") + spans.total_s("core.fleet_run");
    m.insert("core.simulate_s", simulate);
    let ticks: Vec<f64> = spans
        .durations("simcore.run_until")
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    m.insert(
        "core.tick_ms_max",
        ticks.iter().copied().fold(0.0, f64::max),
    );
    m.insert("core.tick_ms_p50", percentile(ticks.clone(), 50.0));
    m.insert("core.tick_ms_p98", percentile(ticks, 98.0));
    if let Some(it) = &traced {
        m.insert("simcore.events", it.events as f64);
        m.insert(
            "simcore.ns_per_event",
            simulate * 1e9 / it.events.max(1) as f64,
        );
        m.insert("analysis.profiles", it.profiles as f64);
    }
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let get = |m: &Layers, k: &str| m.get(k).copied().unwrap_or(0.0);
    let (ph, pm) = (get(&m, "pool.hits"), get(&m, "pool.misses"));
    let (qh, qm) = (get(&m, "qcache.hits"), get(&m, "qcache.misses"));
    m.insert("rubis.db.pool_accesses", ph + pm);
    m.insert("rubis.db.pool_hit_ratio", ratio(ph, pm));
    m.insert("rubis.db.qcache_hit_ratio", ratio(qh, qm));
    m.insert("bench.untraced_wall_s", untraced_wall);
    m.insert("bench.traced_wall_s", traced_wall);
    m.insert("bench.trace_overhead_s", traced_wall - untraced_wall);
    m.insert("bench.host_probe_ms", probe_s * 1e3);

    let unused: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(n, _)| !m.contains_key(n))
        .map(|(n, _)| *n)
        .collect();
    if !unused.is_empty() {
        eprintln!(
            "[cloudbench] not exercised by {}: {}",
            plan.workload.name(),
            unused.join(", ")
        );
    }
    Report {
        correct: failed == 0,
        attempted: 2,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, get(&m, name), unit))
            .collect(),
    }
}

fn to_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cloudbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(format!(".cloudbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cloudbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let scratch = Scratch(dir);
    eprintln!(
        "[cloudbench] {} seed {} ({} checks), trace {}",
        args.plan.workload.name(),
        args.plan.seed,
        if args.plan.recorded().is_some() {
            "recorded"
        } else {
            "cross-iteration"
        },
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args, &scratch.0)
    } else {
        untraced(&args, &scratch.0)
    };
    drop(scratch);
    println!("{}", to_json(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
