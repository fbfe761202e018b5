//! Failure-scenario integration tests.
//!
//! The fault subsystem's contract: a chaos schedule is part of the
//! deterministic event order, so the same plan under the same seed
//! replays **byte-identically** — run twice, or run across differently
//! sized worker pools, and every sampled series (and the fault summary
//! itself) comes out the same. On top of replay, the `db-crash` scenario
//! must show the paper-shaped story: availability dips while the MySQL
//! domain is down and recovers fully after reboot, without invalidating
//! the R-claim signs outside the fault window.

mod common;

use common::fingerprint;

use cloudchar_core::{
    run, run_fleet, run_opts, run_seeds_jobs, scenario, scenario_report, Deployment,
    ExperimentConfig, FleetConfig, RunOptions, SCENARIOS,
};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{FaultPlan, RunMode, SimDuration};

fn faulted_cfg(name: &str, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    c.seed = seed;
    c.faults = scenario(name, c.duration.as_secs_f64()).expect("built-in scenario");
    c.validate().expect("scenario config validates");
    c
}

#[test]
fn every_scenario_replays_byte_identically() {
    for name in SCENARIOS {
        let a = run(faulted_cfg(name, 4242));
        let b = run(faulted_cfg(name, 4242));
        assert_eq!(
            fingerprint(&a.hosts, &a.store),
            fingerprint(&b.hosts, &b.store),
            "{name}: replay fingerprints diverged"
        );
        let bytes_a = serde_json::to_vec(&a.store).expect("store serializes");
        let bytes_b = serde_json::to_vec(&b.store).expect("store serializes");
        assert_eq!(bytes_a, bytes_b, "{name}: serialized stores diverged");
        assert_eq!(a.faults, b.faults, "{name}: fault summaries diverged");
        assert!(a.faults.is_some(), "{name}: fault summary missing");
    }
}

#[test]
fn scenario_sweep_is_worker_pool_invariant() {
    // `--jobs 1` vs `--jobs 4`: the bounded pool must not perturb fault
    // delivery — per-seed results are bit-identical either way.
    let base = faulted_cfg("db-crash", 0); // seed overridden per sweep entry
    let seeds = [42, 43, 44, 45];
    let serial = run_seeds_jobs(&base, &seeds, 1);
    let pooled = run_seeds_jobs(&base, &seeds, 4);
    assert_eq!(serial.len(), pooled.len());
    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(
            fingerprint(&s.hosts, &s.store),
            fingerprint(&p.hosts, &p.store),
            "seed {}: jobs=1 vs jobs=4 diverged",
            seeds[i]
        );
        assert_eq!(
            s.faults, p.faults,
            "seed {}: fault summaries diverged",
            seeds[i]
        );
    }
}

#[test]
fn db_crash_dips_availability_and_recovers() {
    let r = run(faulted_cfg("db-crash", 42));
    let summary = r.faults.as_ref().expect("fault summary present");
    assert!(summary.errors > 0, "crash produced no request errors");
    assert!(summary.retries > 0, "clients never retried");
    assert!(
        summary.overall_availability() < 1.0,
        "availability never dipped"
    );
    let rep = scenario_report(&r).expect("phase report computable");
    assert!(
        rep.availability_before > 0.99,
        "pre-fault availability {}",
        rep.availability_before
    );
    assert!(
        rep.availability_during < 0.9,
        "availability inside the crash window {} is not a dip",
        rep.availability_during
    );
    assert!(
        rep.availability_after > 0.99,
        "availability after reboot {} did not recover",
        rep.availability_after
    );
}

#[test]
fn db_crash_preserves_r_claim_signs_outside_the_window() {
    // The paper's R1 (front-end dominates back-end) and R2 (VM sum
    // exceeds the dom0 view) signs must hold in the healthy phase of a
    // fault-injected run, and the crash must zero the DB tier's demand
    // while it is down.
    let r = run(faulted_cfg("db-crash", 42));
    let rep = scenario_report(&r).expect("phase report computable");
    let cpu_before = |host: &str| {
        rep.deltas
            .iter()
            .find(|d| d.host == host && format!("{:?}", d.resource) == "Cpu")
            .expect("delta row")
            .before
    };
    let (web, db, dom0) = (
        cpu_before("web-vm"),
        cpu_before("mysql-vm"),
        cpu_before("dom0"),
    );
    assert!(web > db, "R1 sign: web {web} vs db {db}");
    assert!(web + db > dom0, "R2 sign: vms {} vs dom0 {dom0}", web + db);
    let db_during = rep
        .deltas
        .iter()
        .find(|d| d.host == "mysql-vm" && format!("{:?}", d.resource) == "Cpu")
        .expect("delta row")
        .during;
    assert!(
        db_during < 0.5 * db,
        "crashed DB tier still drew {db_during} of {db} cycles"
    );
}

#[test]
fn scenarios_pin_identical_envelopes_across_run_entries() {
    // The availability envelope and per-host phase deltas of a chaos
    // scenario are part of the deterministic contract: `run_opts` with
    // live online profiling armed must pin the exact same windows and
    // the exact same numbers as plain `run`.
    let opts = RunOptions {
        online_window: Some(16),
        ..RunOptions::default()
    };
    for name in ["db-crash", "noisy-neighbor"] {
        let plain = run(faulted_cfg(name, 42));
        let (observed, _) = run_opts(faulted_cfg(name, 42), &opts).expect("untraced run");
        assert_eq!(
            fingerprint(&plain.hosts, &plain.store),
            fingerprint(&observed.hosts, &observed.store),
            "{name}: run_opts diverged from run"
        );
        assert_eq!(plain.faults, observed.faults, "{name}: fault summaries");
        let a = scenario_report(&plain).expect("phase report computable");
        let b = scenario_report(&observed).expect("phase report computable");
        assert_eq!(a.window, b.window, "{name}: availability window");
        for (x, y) in [
            (a.availability_before, b.availability_before),
            (a.availability_during, b.availability_during),
            (a.availability_after, b.availability_after),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: availability drifted");
        }
        assert_eq!(a.deltas.len(), b.deltas.len(), "{name}: delta rows");
        for (x, y) in a.deltas.iter().zip(&b.deltas) {
            assert_eq!(x.host, y.host, "{name}: delta host order");
            assert_eq!(
                x.during.to_bits(),
                y.during.to_bits(),
                "{name}: {} in-window delta drifted",
                x.host
            );
        }
    }
}

#[test]
fn fleet_db_crash_is_isolated_to_its_pod() {
    // Crash the MySQL domain of pod 0 only. The conservative protocol
    // must not let that stall the neighbor shards: every sampling
    // window inside the crash still completes requests on pods 1 and 2,
    // and pod 0 comes back after its clear event — exactly as under the
    // single-queue oracle.
    let mut cfg = FleetConfig::paper13();
    cfg.pods = 3;
    cfg.base.clients = 90;
    cfg.base.duration = SimDuration::from_secs(60);
    cfg.base.rampup = SimDuration::from_secs(5);
    cfg.base.faults = scenario("db-crash", 60.0).expect("built-in scenario");
    cfg.fault_pod = Some(0);
    let oracle = run_fleet(&cfg, RunMode::SingleQueue);
    let r = run_fleet(&cfg, RunMode::Windowed);
    assert_eq!(
        oracle.fingerprint(),
        r.fingerprint(),
        "windowed fleet diverged from the single-queue oracle under faults"
    );
    assert!(r.failed > 0, "crash produced no failures");
    // db-crash: MySQL domain down 24 s..33 s (+2 s reboot). Sample
    // window i covers (2i, 2i+2] seconds, so 13..16 sit fully inside.
    let during = 13..16usize;
    let dip = r.availability_over(during.start, during.end);
    assert!(dip < 0.95, "availability during the crash {dip}");
    let after = r.availability_over(19, r.availability.len());
    assert!(after > 0.99, "availability after reboot {after}");
    for i in during.clone() {
        for pod in 1..3 {
            assert!(
                r.ok_by_pod[i][pod] > 0,
                "pod {pod} stalled in crash window {i}: {:?}",
                r.ok_by_pod[i]
            );
        }
    }
    let pod0_during: u64 = during.clone().map(|i| r.ok_by_pod[i][0]).sum();
    let pod0_after: u64 = (19..r.ok_by_pod.len()).map(|i| r.ok_by_pod[i][0]).sum();
    assert!(
        pod0_after > pod0_during,
        "pod 0 never recovered: {pod0_during} during vs {pod0_after} after"
    );
}

#[test]
fn empty_plan_leaves_the_run_untouched() {
    // `FaultPlan::empty()` must be indistinguishable from no plan at
    // all: same bytes, no fault summary, no armed timeouts.
    let mut with_empty = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    with_empty.faults = FaultPlan::empty();
    let baseline = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    let a = run(with_empty);
    let b = run(baseline);
    assert_eq!(
        fingerprint(&a.hosts, &a.store),
        fingerprint(&b.hosts, &b.store)
    );
    assert_eq!(a.events, b.events, "empty plan scheduled extra events");
    assert!(a.faults.is_none(), "empty plan produced a fault summary");
}
