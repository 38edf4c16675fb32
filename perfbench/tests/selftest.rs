//! Self-test of the benchmark binary: a tiny run of each workload emits
//! every metric `BENCHMARK.json` names and fails nothing, and two runs
//! at one seed repeat the virtual time, every counter and every
//! allocation count exactly.

use std::process::Command;

use sea_bench::json::{parse, Json};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// The `name` fields of the contract's list `key`.
fn names(key: &str) -> Vec<String> {
    contract()
        .get(key)
        .and_then(Json::as_array)
        .expect("the contract lists it")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// A tiny run's JSON result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0"])
        .args(["--size", "tiny", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} trace={trace}:\n{stdout}");
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn number(v: &Json) -> f64 {
    match v {
        Json::UInt(n) => *n as f64,
        Json::Num(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, value, unit)` of every metric in a result.
fn metrics(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = number(m.get("value").expect("value"));
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn assert_clean(workload: &str, result: &Json) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{workload}"
    );
}

#[test]
fn every_workload_emits_every_named_metric_without_failures() {
    for workload in names("workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&workload, trace);
            assert_clean(&workload, &result);
            let got: Vec<String> = metrics(&result).into_iter().map(|m| m.0).collect();
            assert_eq!(got, names(key), "{workload}: {key} metrics");
        }
        let e2e = metrics(&run(&workload, false));
        let ok = e2e.iter().find(|m| m.0 == "ok_ratio").expect("ok_ratio");
        assert_eq!(ok.1, 1.0, "{workload}: failed_ratio is 0");
    }
}

#[test]
fn one_seed_repeats_virtual_time_counters_and_allocations() {
    let exact = |m: &(String, f64, String)| {
        m.2 == "count" || m.0.ends_with("alloc_mb") || m.0.ends_with("virt_ms")
    };
    for workload in names("workloads") {
        for trace in [false, true] {
            let [a, b] = [run(&workload, trace), run(&workload, trace)].map(|r| metrics(&r));
            let a: Vec<_> = a.into_iter().filter(exact).collect();
            let b: Vec<_> = b.into_iter().filter(exact).collect();
            assert!(
                !a.is_empty(),
                "{workload} trace={trace}: nothing to compare"
            );
            assert_eq!(a, b, "{workload} trace={trace}");
        }
    }
}
