//! Sharded-engine benchmark: the conservative windowed scheduler
//! against the single-queue oracle.
//!
//! Two topologies are measured, both through `core::fleet`:
//!
//! * **paper13** — the paper's testbed scaled out: 4 serving pods
//!   (web VM + MySQL VM + dom0 each) plus the generator shard;
//! * **fleet100** — 33 pods (100 hosts) with a proportionally larger
//!   session population.
//!
//! Each topology runs under the single-queue oracle and under the
//! windowed runner, asserting the fingerprints are byte-identical
//! before any timing is reported. Besides the two wall times, the
//! **ideal (critical-path) speedup** is recorded: `units /
//! critical_units` from the runner's own counters, the speedup a
//! zero-overhead execution of the same round schedule with one worker
//! per shard would achieve. It is machine-independent and bounded by
//! the conservative lookahead (the 5 ms client↔server link); no
//! parallel executor realizes it.
//!
//! Run `cargo bench -p cloudchar-bench --bench shard` for the criterion
//! groups, `-- --record` to print the `results/BENCH_shard.json`
//! payload, or `-- --smoke` for the CI gate: the 100-host fleet
//! reproduces its golden fingerprint and counters, and its ideal
//! speedup clears 1.5x.

use cloudchar_core::{run_fleet, FleetConfig, FleetResult};
use cloudchar_simcore::RunMode;
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn topologies() -> [(&'static str, FleetConfig); 2] {
    [
        ("paper13", FleetConfig::paper13()),
        ("fleet100", FleetConfig::fleet100()),
    ]
}

/// Minimum wall time of `reps` runs, plus the last result.
fn time_fleet(cfg: &FleetConfig, mode: RunMode, reps: u32) -> (u128, FleetResult) {
    let mut best = u128::MAX;
    let mut last = run_fleet(cfg, mode); // warm: heap + page faults
    for _ in 0..reps {
        let t = Instant::now();
        last = black_box(run_fleet(cfg, mode));
        best = best.min(t.elapsed().as_nanos());
    }
    (best, last)
}

fn bench_fleet(c: &mut Criterion) {
    for (name, cfg) in topologies() {
        let group_name = format!("shard/{name}");
        let mut group = c.benchmark_group(group_name.as_str());
        group.sample_size(10);
        for (label, mode) in [
            ("single_queue", RunMode::SingleQueue),
            ("windowed", RunMode::Windowed),
        ] {
            group.bench_function(label, |b| {
                b.iter(|| black_box(run_fleet(&cfg, mode).completed))
            });
        }
        group.finish();
    }
}

fn record() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"cores\": {cores},");
    println!(
        "  \"note\": \"best-of-3 wall times on this machine ({cores} core(s)); both modes run on one thread. ideal_speedup = units/critical_units is the machine-independent ceiling of the round schedule with one worker per shard, limited by the 5 ms channel lookahead; no parallel executor realizes it.\","
    );
    let topos = topologies();
    for (k, (name, cfg)) in topos.iter().enumerate() {
        let reps = 3;
        let (oracle_ns, oracle) = time_fleet(cfg, RunMode::SingleQueue, reps);
        let (windowed_ns, r) = time_fleet(cfg, RunMode::Windowed, reps);
        let fp = oracle.fingerprint();
        assert_eq!(
            r.fingerprint(),
            fp,
            "{name}: windowed run diverged from the single-queue oracle"
        );
        let s = r.stats;
        let ideal = s.units as f64 / s.critical_units.max(1) as f64;
        let comma = if k + 1 < topos.len() { "," } else { "" };
        println!(
            "  \"{name}\": {{ \"hosts\": {}, \"shards\": {}, \"sessions\": {}, \"duration_s\": {:.0}, \"single_queue_ns\": {oracle_ns}, \"windowed_ns\": {windowed_ns}, \"fingerprint\": \"{fp:#018x}\", \"completed\": {}, \"rounds\": {}, \"units\": {}, \"critical_units\": {}, \"messages\": {}, \"ideal_speedup\": {ideal:.2} }}{comma}",
            cfg.hosts(),
            cfg.pods + 1,
            cfg.base.clients,
            cfg.base.duration.as_secs_f64(),
            oracle.completed,
            s.rounds,
            s.units,
            s.critical_units,
            s.messages,
        );
    }
    println!("}}");
}

fn smoke() {
    // The 100-host fleet reproduces its golden fingerprint and runner
    // counters, and the round schedule has enough slack for >1.5x
    // ideal parallelism.
    let r = run_fleet(&FleetConfig::fleet100(), RunMode::Windowed);
    assert_eq!(
        r.fingerprint(),
        0x65db_bc33_f17a_dc37,
        "fleet100: diverged from the golden fingerprint"
    );
    assert_eq!(r.completed, 14536, "fleet100: completions");
    assert_eq!(r.stats.units, 303_054, "fleet100: units");
    assert_eq!(r.stats.rounds, 10080, "fleet100: rounds");
    assert_eq!(r.stats.messages, 29081, "fleet100: messages");
    let s = &r.stats;
    let ideal = s.units as f64 / s.critical_units.max(1) as f64;
    println!(
        "shard smoke: fleet100 fingerprint {:#018x}, ideal speedup {ideal:.2}x",
        r.fingerprint()
    );
    assert!(
        ideal > 1.5,
        "100-host fleet must have >1.5x critical-path headroom, got {ideal:.2}x"
    );
    println!("shard smoke: PASS");
}

criterion_group!(shard_benches, bench_fleet);

fn main() {
    if std::env::args().any(|a| a == "--record") {
        record();
    } else if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        shard_benches();
    }
}
