//! End-to-end benchmark of the LoAS simulation stack: the campaign engine
//! and the serving tier, driven through their public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig13-cold|headline-warm|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1> [--quick] [--expect-digest <hex>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run (and writes its spans as JSON lines). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! the line before it holds the host and provenance block. Metric
//! definitions live in `perfbench/METRICS.md`.

mod check;
mod inputs;
mod passes;
mod probes;
mod run;
mod stats;
mod trace;

use inputs::Workload;
use run::{Args, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig13-cold|headline-warm|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick] [--expect-digest <hex>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut expect_digest = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--expect-digest" => {
                expect_digest = Some(u64::from_str_radix(&value, 16).map_err(|_| bad())?)
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        expect_digest,
    })
}

/// The git commit of the working directory, when it is a checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match commit.trim() {
        "" => "unknown".to_owned(),
        commit => commit.to_owned(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The provenance line: host, build and run identity beside the counts
/// that are not metrics. Absolute numbers compare only within one host.
fn provenance(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let text = |s: &str| format!("\"{}\"", loas_serve::json::escape(s));
    let mut line = String::from("{\"perfbench\":{");
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), text(args.workload.name())),
        (
            "mode".into(),
            text(if args.trace { "traced" } else { "untraced" }),
        ),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), text(&cpu_model())),
        ("git_commit".into(), text(&git_commit())),
        ("seed".into(), args.seed.to_string()),
        ("quick".into(), args.quick.to_string()),
        ("passes".into(), outcome.passes.to_string()),
        ("engine_workers".into(), "1".into()),
        (
            "ops".into(),
            format!("{{\"value\":{},\"unit\":\"count\"}}", outcome.attempted),
        ),
        (
            "ops_failed".into(),
            format!("{{\"value\":{},\"unit\":\"count\"}}", outcome.failed),
        ),
        (
            "report_digest".into(),
            text(
                &outcome
                    .digest
                    .map_or("none".into(), |d| format!("{d:016x}")),
            ),
        ),
        (
            "first_failure".into(),
            outcome.first_failure.as_deref().map_or("null".into(), text),
        ),
    ];
    fields.extend(outcome.details.iter().cloned());
    for (index, (key, value)) in fields.iter().enumerate() {
        let comma = if index == 0 { "" } else { "," };
        let _ = write!(line, "{comma}\"{key}\":{value}");
    }
    line.push_str("}}");
    line
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its value and unit, as one JSON object.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (index, metric) in outcome.metrics.iter().enumerate() {
        let comma = if index == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{comma}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = run::scratch_dir(&args);
    if let Err(error) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {error}", scratch.display());
        return ExitCode::FAILURE;
    }
    let trace_file = scratch.with_file_name(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let result = if args.trace {
        run::traced(&args, &scratch, &trace_file)
    } else {
        run::untraced(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(outcome) => {
            if let Some(failure) = &outcome.first_failure {
                eprintln!(
                    "perfbench: {} of {} ops failed; first: {failure}",
                    outcome.failed, outcome.attempted
                );
            }
            println!("{}", provenance(&args, &outcome));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
