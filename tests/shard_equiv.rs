//! Differential determinism harness for the run entries and the
//! sharded fleet.
//!
//! Single host: for every golden configuration the repo pins, `run` and
//! `run_opts` with live online profiling armed must produce
//! byte-identical sampled series — same fingerprints, same figure CSVs,
//! same completion and event counts. Observers never perturb a run.
//!
//! Fleet: the sharded multi-host runner must reproduce the pinned
//! fingerprints and runner counters, with and without a fault plan on
//! pod 0.

mod common;

use common::fingerprint;

use cloudchar_analysis::Resource;
use cloudchar_core::{
    run, run_fleet, run_opts, scenario, scenario_report, Deployment, ExperimentConfig,
    ExperimentResult, FleetConfig, RunOptions,
};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{RunMode, SimDuration};

/// Hash the bytes of every virtualized figure CSV (figs 1–4: one
/// resource each, three hosts per figure), rendered exactly as
/// `repro`'s `write_csv` renders them. Pinning the *formatted* output
/// catches divergence that survives f64 bit-equality checks upstream
/// (there is none — but the figure files are the paper's deliverable).
fn fig_csv_hash(r: &ExperimentResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for resource in [Resource::Cpu, Resource::Ram, Resource::Disk, Resource::Net] {
        for host in ["web-vm", "mysql-vm", "dom0"] {
            let series = r.resource_series(resource, host);
            for (i, v) in series.iter().enumerate() {
                fold(format!("{:.1},{v:.3}\n", (i + 1) as f64 * 2.0).as_bytes());
            }
        }
    }
    h
}

/// `run_opts` with a live online window armed.
fn run_observed(cfg: ExperimentConfig) -> ExperimentResult {
    let opts = RunOptions {
        online_window: Some(60),
        ..RunOptions::default()
    };
    let (r, report) = run_opts(cfg, &opts).expect("untraced run cannot fail");
    assert!(report.is_some(), "online window was armed");
    r
}

/// Run one golden configuration through `run` and through `run_opts`
/// with online profiling armed, and assert the results are
/// indistinguishable; returns the common fingerprint.
fn assert_equivalent(label: &str, mk: impl Fn() -> ExperimentConfig) -> u64 {
    let plain = run(mk());
    let observed = run_observed(mk());
    let fp = fingerprint(&plain.hosts, &plain.store);
    assert_eq!(
        fp,
        fingerprint(&observed.hosts, &observed.store),
        "{label}: online profiling perturbed the sampled series"
    );
    assert_eq!(
        fig_csv_hash(&plain),
        fig_csv_hash(&observed),
        "{label}: figure CSVs"
    );
    assert_eq!(plain.completed, observed.completed, "{label}: completions");
    assert_eq!(plain.events, observed.events, "{label}: event counts");
    fp
}

fn golden(clients: u32, duration_s: u64, rampup_s: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(70));
    c.seed = 777;
    c.clients = clients;
    c.duration = SimDuration::from_secs(duration_s);
    c.rampup = SimDuration::from_secs(rampup_s);
    c
}

#[test]
fn kilo_client_replay_is_observer_invariant() {
    // The paper-scale golden config: both entries must reproduce the
    // exact pinned hash of the 1000-client replay, not merely agree
    // with each other.
    let fp = assert_equivalent("1000-client replay", || golden(1000, 120, 10));
    assert_eq!(
        fp, 0xd483_243b_663e_e2ff,
        "1000-client replay diverged from the golden hash"
    );
}

#[test]
fn hundred_k_fleet_smoke_is_observer_invariant() {
    let fp = assert_equivalent("100k fleet smoke", || golden(100_000, 6, 2));
    assert_eq!(
        fp, 0xd433_8962_c34f_5961,
        "100k-client smoke diverged from the golden hash"
    );
}

#[test]
fn db_crash_scenario_is_observer_invariant() {
    // Fault injection exercises the cancel/timeout/retry machinery; the
    // scenario's availability envelope must not depend on the entry.
    let mk = || {
        let mut c = golden(1000, 60, 5);
        c.faults = scenario("db-crash", 60.0).expect("built-in scenario");
        c
    };
    assert_equivalent("db-crash scenario", mk);
    let plain = run(mk());
    let observed = run_observed(mk());
    let a = scenario_report(&plain).expect("fault windows inside the run");
    let b = scenario_report(&observed).expect("fault windows inside the run");
    assert_eq!(a.window, b.window, "availability window drifted");
    assert_eq!(
        a.availability_during.to_bits(),
        b.availability_during.to_bits(),
        "crash-window availability drifted"
    );
    assert_eq!(a.deltas.len(), b.deltas.len(), "phase-delta rows drifted");
}

/// The counters a fleet golden pins besides its fingerprint.
struct FleetGolden {
    fp: u64,
    completed: u64,
    units: u64,
    rounds: u64,
    serial_steps: u64,
    critical_units: u64,
    messages: u64,
}

/// Run a fleet windowed and assert it matches the pinned fingerprint
/// and runner counters.
fn assert_fleet_golden(label: &str, cfg: &FleetConfig, want: FleetGolden) {
    let r = run_fleet(cfg, RunMode::Windowed);
    assert_eq!(
        r.fingerprint(),
        want.fp,
        "{label}: fingerprint {:#018x} diverged from the golden",
        r.fingerprint()
    );
    assert_eq!(r.completed, want.completed, "{label}: completions");
    let s = r.stats;
    assert_eq!(s.units, want.units, "{label}: units");
    assert_eq!(s.rounds, want.rounds, "{label}: rounds");
    assert_eq!(s.serial_steps, want.serial_steps, "{label}: serial steps");
    assert_eq!(
        s.critical_units, want.critical_units,
        "{label}: critical units"
    );
    assert_eq!(s.messages, want.messages, "{label}: messages");
}

#[test]
fn paper13_fleet_golden_is_pinned() {
    let cfg = FleetConfig::paper13();
    let want = FleetGolden {
        fp: 0x5e2e_3f36_7b03_9350,
        completed: 4236,
        units: 79844,
        rounds: 13162,
        serial_steps: 0,
        critical_units: 32676,
        messages: 8475,
    };
    assert_fleet_golden("paper13", &cfg, want);
}

#[test]
fn fleet100_golden_is_pinned() {
    let cfg = FleetConfig::fleet100();
    let want = FleetGolden {
        fp: 0x65db_bc33_f17a_dc37,
        completed: 14536,
        units: 303_054,
        rounds: 10080,
        serial_steps: 0,
        critical_units: 47536,
        messages: 29081,
    };
    assert_fleet_golden("fleet100", &cfg, want);
}

#[test]
fn fault_pod_fingerprints_are_pinned() {
    // Each built-in scenario injected into pod 0 of the paper13 fleet.
    // Pods draw tier-error coin flips from their own `pod{i}-faults`
    // lane, as the single host does from `faults`, so the workload lane
    // never sees them; only web-throttle injects tier errors.
    for (name, want) in [
        ("db-crash", 0xba20_9300_c50d_216d_u64),
        ("noisy-neighbor", 0x86d7_590b_6b50_fbd5),
        ("web-throttle", 0x67ca_a71e_355a_7141),
    ] {
        let mut cfg = FleetConfig::paper13();
        cfg.base.faults =
            scenario(name, cfg.base.duration.as_secs_f64()).expect("built-in scenario");
        cfg.fault_pod = Some(0);
        let fp = run_fleet(&cfg, RunMode::Windowed).fingerprint();
        assert_eq!(fp, want, "{name}: pod-0 fleet fingerprint {fp:#018x}");
    }
}
