//! A short run (full-size inputs, a 1 s window) of every workload in
//! both modes must print exactly the metric names `BENCHMARK.json`
//! declares for that mode, and every name must be a plain identifier.

use mems_serve::Json;
use std::process::Command;

fn catalogue(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("no `{section}` list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Json::Arr(items)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    items
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn plain_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn smoke_runs_emit_every_declared_metric() {
    for workload in workloads() {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = catalogue(section);
            let out = Command::new(env!("CARGO_BIN_EXE_mems-e2e-bench"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let doc = Json::parse(last).expect("the result line is JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{last}");
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{last}");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics in {last}");
            };
            let mut got: Vec<String> = metrics.keys().cloned().collect();
            let mut sorted_want = want.clone();
            got.sort();
            sorted_want.sort();
            assert_eq!(got, sorted_want, "{workload} trace {trace}");
            for name in &want {
                assert!(plain_name(name), "metric name `{name}`");
                let value = metrics[name].get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn unusable_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "tran_grid2d",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["compare", "only-one-dir"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mems-e2e-bench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
