//! The benchmark against its contract in `BENCHMARK.json`: the file is
//! well formed, and every workload, traced and untraced, runs correctly
//! and prints exactly the metrics the file names, with their units.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`;
//! a debug build is correct but slow.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn contract() -> Value {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    serde_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn fields(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {}", other.kind()),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.field(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Num(x) => *x,
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        other => panic!("expected a number, found {}", other.kind()),
    }
}

/// `(name, unit)` of every entry of a metric list.
fn metrics(list: &str) -> Vec<(String, String)> {
    let c = contract();
    c.field(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|e| panic!("{list}: {e}"))
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn contract_is_well_formed() {
    let c = contract();
    assert_eq!(
        fields(&c),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = number(c.field("run_seconds").unwrap());
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = c.field("workloads").and_then(Value::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let e2e = c.field("end_to_end").and_then(Value::as_array).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    let layers = c.field("per_layer").and_then(Value::as_array).unwrap();
    assert!((1..=128).contains(&layers.len()));

    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(fields(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        names.push(str_of(w, "name"));
    }
    for m in e2e {
        assert_eq!(fields(m), ["name", "unit", "better", "bound"]);
        let bound = number(m.field("bound").unwrap());
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            str_of(m, "name")
        );
    }
    for m in layers {
        assert_eq!(fields(m), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(layers) {
        assert!(["higher", "lower"].contains(&str_of(m, "better")));
        let unit = str_of(m, "unit");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        names.push(str_of(m, "name"));
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = e2e
        .iter()
        .map(|m| number(m.field("bound").unwrap()))
        .fold(0.0, f64::max);
    assert_eq!(
        number(setup.field("bound").unwrap()),
        largest,
        "setup_s has the largest bound"
    );

    for name in &names {
        assert!(is_name(name), "bad name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "every name is used once");
}

/// Runs one workload briefly and returns its metrics as `(name, unit)`.
fn run(workload: &str, trace: u8) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last =
        serde_json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    assert_eq!(fields(&last), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.field("correct").unwrap(), &Value::Bool(true));
    assert!(number(last.field("attempted").unwrap()) >= 1.0);
    assert_eq!(number(last.field("failed").unwrap()), 0.0);
    let Value::Object(metrics) = last.field("metrics").unwrap() else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(number(m.field("value").unwrap()).is_finite());
            // Printed by name with its unit on a line of its own, too.
            let unit = str_of(m, "unit").to_string();
            assert!(stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name.as_str()) && l.ends_with(&unit)));
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_contract_metrics() {
    let c = contract();
    // One workload at a time: the open-loop generator's lateness check
    // must not compete with other workloads for the cores.
    for w in c.field("workloads").and_then(Value::as_array).unwrap() {
        let name = str_of(w, "name");
        assert_eq!(run(name, 0), metrics("end_to_end"), "{name} untraced");
        assert_eq!(run(name, 1), metrics("per_layer"), "{name} traced");
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--workload", "sweep-fig", "--trace", "2"],
        &[],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap()
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
