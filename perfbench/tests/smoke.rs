//! Smoke test: every workload at minimal size, untraced and traced. Checks
//! that the result line carries exactly the metric names and units that
//! `BENCHMARK.json` declares, that every dock passed its checks, and that
//! the traced run's counts repeat exactly for one seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use vstrace::json::{self, Value};

const WORKLOADS: [&str; 3] = ["dock_cold", "library_fused", "redock_grid"];

/// Metrics that must repeat bit for bit across traced runs of one seed.
const EXACT: [&str; 8] = [
    "vsscore.grid_builds",
    "vsscore.grid_cache_hits",
    "vsscore.grid_nodes",
    "vsscore.work_units",
    "metaheur.batches",
    "metaheur.evaluations",
    "metaheur.generations",
    "gpusim.virtual_makespan_s",
];

fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(section).and_then(Value::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark; returns the report text and the parsed result line.
fn run(workload: &str, seed: u64, trace: u8) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "smoke"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload} trace {trace} exited with {}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = text.lines().last().expect("a result line").to_string();
    (text, json::parse(&last).expect("result line is JSON"))
}

fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    let m = result.get("metrics").and_then(Value::as_obj).expect("metrics object");
    m.iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_num).expect("numeric value");
            let unit = v.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (k.clone(), (value, unit))
        })
        .collect()
}

fn assert_clean(text: &str, result: &Value, what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}:\n{text}");
    assert_eq!(result.get("failed").and_then(Value::as_num), Some(0.0), "{what}");
    assert!(result.get("attempted").and_then(Value::as_num).is_some_and(|n| n >= 1.0), "{what}");
    assert!(text.lines().any(|l| l.starts_with("failed_frac 0 ")), "{what}: no failed_frac line");
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let (text, result) = run(w, 7, trace);
            let what = format!("{w} trace {trace}");
            assert_clean(&text, &result, &what);
            let got: BTreeMap<String, String> =
                metrics(&result).into_iter().map(|(k, (_, unit))| (k, unit)).collect();
            assert_eq!(got, want, "{what}: metric names and units");
        }
    }
}

#[test]
fn traced_counts_repeat_for_a_seed() {
    for w in WORKLOADS {
        let (text_a, a) = run(w, 11, 1);
        let (text_b, b) = run(w, 11, 1);
        assert_clean(&text_a, &a, w);
        assert_clean(&text_b, &b, w);
        let (a, b) = (metrics(&a), metrics(&b));
        for k in EXACT {
            assert_eq!(a[k].0.to_bits(), b[k].0.to_bits(), "{w}: {k} differs between runs");
        }
    }
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "dock_cold", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "dock_cold", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "dock_cold", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a result");
    }
}
