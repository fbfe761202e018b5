//! Self-tests of the benchmark: `BENCHMARK.json` against the naming and
//! size limits, every named metric emitted once per workload with its
//! unit, and the output checks failing when they should.
//!
//! The runs use `--smoke` (reduced-scale configurations), so the suite
//! takes seconds: `cargo test --release --manifest-path cloudbench/Cargo.toml`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["paper_browse", "paper_bid", "fleet100"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .field(section)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.field("name").as_str().expect("name").to_string();
            let unit = m.field("unit").as_str().expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cloudbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs")
}

/// The JSON object on the last line of standard output.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_and_counts_are_within_limits() {
    let e2e = metrics("end_to_end");
    let layers = metrics("per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| n.as_str()).collect();
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
    assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
}

#[test]
fn every_metric_is_emitted_once_per_workload() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = metrics(section);
        for workload in WORKLOADS {
            let out = smoke(workload, trace, &[]);
            assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
            let r = result(&out);
            assert_eq!(r.field("correct"), &Value::Bool(true));
            assert!(r.field("attempted").as_u64().expect("attempted") >= 1);
            assert_eq!(r.field("failed").as_u64().expect("failed"), 0);
            let got = r.field("metrics").as_map().expect("metrics object");
            let got: Vec<(String, String)> = got
                .iter()
                .map(|(name, m)| {
                    let v = m.field("value").as_f64().expect("numeric value");
                    assert!(v.is_finite(), "{workload}: {name} = {v}");
                    (
                        name.clone(),
                        m.field("unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_wrong_expected_value_fails_every_iteration() {
    for trace in ["0", "1"] {
        let out = smoke("paper_bid", trace, &["--corrupt-expected"]);
        assert!(!out.status.success(), "--trace {trace} must fail");
        let r = result(&out);
        assert_eq!(r.field("correct"), &Value::Bool(false));
        assert_eq!(r.field("failed"), r.field("attempted"));
    }
}

#[test]
fn held_out_seed_runs_agree() {
    let outcome = |out: &Output| {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find(|l| l.contains("outcome"))
            .expect("the run logs its outcome")
            .to_string()
    };
    for workload in WORKLOADS {
        let a = smoke(workload, "0", &["--seed", "7"]);
        let b = smoke(workload, "0", &["--seed", "7"]);
        assert!(a.status.success() && b.status.success());
        assert_eq!(outcome(&a), outcome(&b), "{workload}");
        let other = smoke(workload, "0", &["--seed", "8"]);
        assert_ne!(
            outcome(&a),
            outcome(&other),
            "{workload}: seeds must matter"
        );
    }
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_bid", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
