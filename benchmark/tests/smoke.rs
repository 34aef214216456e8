//! Runs every workload with `--smoke` (tiny inputs, short windows, every
//! check on), traced and untraced, and guards the schema: the metric names
//! and units each run prints must equal those `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["batch-table1", "serve-read", "serve-write", "dynamic-stream"];

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json at the repository root")
}

/// The text of the JSON array under `key` (arrays here hold no nested
/// arrays).
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at =
        json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let rest = &json[at..];
    &rest[rest.find('[').expect("array opens")..rest.find(']').expect("array closes")]
}

/// The string value following each `"field":` in `text`.
fn strings(text: &str, field: &str) -> Vec<String> {
    text.split(&format!("\"{field}\""))
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a string value").to_owned())
        .collect()
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> BTreeSet<(String, String)> {
    let entries = array(json, key);
    strings(entries, "name").into_iter().zip(strings(entries, "unit")).collect()
}

/// `(name, unit)` of every metric in a result line.
fn printed(line: &str) -> BTreeSet<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let segments: Vec<&str> = metrics.split(": {\"value\"").collect();
    segments
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("metric name");
            (name.to_owned(), strings(w[1], "unit").first().expect("metric unit").clone())
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let trace_file = format!("{}/smoke-{workload}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }, "--trace-file", &trace_file])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_owned();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
    if trace {
        let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
        for key in [
            "\"nproc\":",
            "\"observed_parallelism\":",
            "\"measurement_mode\":",
            "\"seeds\":",
            "\"commit\":",
        ] {
            assert!(spans.contains(key), "{workload}: trace lacks {key}");
        }
    }
    line
}

fn check(workload: &str) {
    let json = benchmark_json();
    assert_eq!(
        printed(&run(workload, false)),
        listed(&json, "end_to_end"),
        "{workload}: end-to-end schema drift"
    );
    assert_eq!(
        printed(&run(workload, true)),
        listed(&json, "per_layer"),
        "{workload}: per-layer schema drift"
    );
}

#[test]
fn workloads_match_the_file() {
    let listed: BTreeSet<String> =
        strings(array(&benchmark_json(), "workloads"), "name").into_iter().collect();
    assert_eq!(listed, WORKLOADS.iter().map(|w| w.to_string()).collect());
}

#[test]
fn batch_table1() {
    check("batch-table1");
}

#[test]
fn serve_read() {
    check("serve-read");
}

#[test]
fn serve_write() {
    check("serve-write");
}

#[test]
fn dynamic_stream() {
    check("dynamic-stream");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serve-read", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
