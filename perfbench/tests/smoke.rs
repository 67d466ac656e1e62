//! Smoke tests of the benchmark binary: every workload at quick shapes,
//! untraced and traced. The result line must parse with the serving
//! tier's JSON reader and carry exactly the metrics `BENCHMARK.json`
//! names, each with its unit.

use loas_serve::json::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fig13-cold", "headline-warm", "serve-mixed"];

/// The workspace default seed, at which report digests are recorded.
const DEFAULT_SEED: &str = "4261";

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect(key)
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect();
    metrics.sort();
    metrics
}

/// Runs the benchmark and returns its last stdout line, parsed, and the
/// whole stdout.
fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> (Json, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--quick",
        ])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (Json::parse(last).expect("the result line is JSON"), stdout)
}

/// `(name, unit)` of every metric in a result line.
fn reported(result: &Json) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has a finite value"
            );
            let unit = metric.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    metrics.sort();
    metrics
}

fn assert_correct(workload: &str, result: &Json) {
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
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_at_the_recorded_digest() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let (result, stdout) = run(workload, DEFAULT_SEED, "0", &[]);
        assert_correct(workload, &result);
        assert_eq!(reported(&result), expected, "{workload}");
        let provenance = Json::parse(stdout.lines().rev().nth(1).expect("provenance line"))
            .expect("the provenance line is JSON");
        let block = provenance.get("perfbench").expect("provenance block");
        for key in [
            "nproc",
            "cpu_model",
            "git_commit",
            "seed",
            "passes",
            "ops",
            "ops_failed",
        ] {
            assert!(
                block.get(key).is_some(),
                "{workload}: provenance lacks {key}"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_well_formed_spans() {
    let expected = declared("per_layer");
    for workload in WORKLOADS {
        let (result, stdout) = run(workload, "17", "1", &[]);
        assert_correct(workload, &result);
        assert_eq!(reported(&result), expected, "{workload}");
        let provenance = Json::parse(stdout.lines().rev().nth(1).expect("provenance line"))
            .expect("the provenance line is JSON");
        let file = provenance
            .get("perfbench")
            .and_then(|block| block.get("trace_file"))
            .and_then(Json::as_str)
            .expect("the trace file is named");
        let spans = std::fs::read_to_string(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file))
            .expect("the trace file exists");
        assert!(spans.lines().count() > 0);
        for line in spans.lines() {
            let span = Json::parse(line).expect("a span line is JSON");
            let start = span.get("start_s").and_then(Json::as_f64).expect("start");
            let end = span.get("end_s").and_then(Json::as_f64).expect("end");
            assert!(end >= start, "{line}");
        }
    }
}

#[test]
fn simulated_counts_repeat_exactly_across_traced_runs() {
    let sim = |result: &Json| -> Vec<(String, String)> {
        result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .filter(|(name, _)| name.starts_with("sim.") && !name.ends_with("ns_per_access"))
            .map(|(name, metric)| (name.clone(), format!("{:?}", metric.get("value"))))
            .collect()
    };
    let (first, _) = run("serve-mixed", "23", "1", &[]);
    let (second, _) = run("serve-mixed", "23", "1", &[]);
    assert!(!sim(&first).is_empty());
    assert_eq!(sim(&first), sim(&second));
}

#[test]
fn a_tampered_digest_fails_ops() {
    for workload in WORKLOADS {
        let (result, _) = run(workload, "31", "0", &["--expect-digest", "0"]);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(
            result.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{workload}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
