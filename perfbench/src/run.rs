//! The two run modes. An untraced run repeats passes for the requested
//! time, timing the workload's set-up several times along the way, and
//! reports the end-to-end metrics. A traced run alternates untraced and
//! traced passes, probes each layer's public functions on the same inputs,
//! and reports the per-layer metrics derived from the spans.

use crate::check::{self, PassChecker};
use crate::inputs::{self, ServePlan, Workload};
use crate::passes::{engine_pass, serve_pass, Pass, TraceCtx};
use crate::probes;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Span, Tracer};
use loas_engine::{Campaign, Engine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// How long the timed phase repeats passes.
    pub seconds: f64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// Quick-scale shapes, for smoke tests.
    pub quick: bool,
    /// Overrides the recorded report digest (tests tamper with it).
    pub expect_digest: Option<u64>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// Its value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (jobs on the engine workloads, campaigns when served).
    pub attempted: usize,
    /// Ops that failed a check or errored.
    pub failed: usize,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Passes timed.
    pub passes: usize,
    /// Digest of the first pass's outputs.
    pub digest: Option<u64>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra `(key, JSON value)` pairs for the provenance line.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub(crate) fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn absorb(&mut self, checker: &PassChecker) {
        self.attempted = checker.attempted;
        self.failed = checker.failed;
        self.first_failure = checker.first_failure.clone();
        self.digest = checker.digest;
    }
}

/// A workload after set-up: what every pass reuses.
pub enum Prepared {
    /// An engine campaign; `warm` holds the engine whose prepared cache
    /// set-up filled, `None` for a fresh engine per pass.
    Engine {
        /// The campaign every pass runs.
        campaign: Campaign,
        /// The warmed engine, for warm workloads.
        warm: Option<Engine>,
    },
    /// A served op sequence.
    Serve {
        /// The spec texts and op order.
        plan: ServePlan,
    },
}

/// How a run repeats set-up: `(rounds, repeats after every pass)`. The
/// timed phase is split into `rounds` equal slices, each starting from a
/// fresh set-up (the warm workload rebuilds its warm engine); cheap
/// set-ups also repeat, and are dropped, after every pass. Either way
/// `setup_s`, the median of all set-ups, samples the host over the whole
/// run rather than in one burst before it.
fn setup_plan(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::HeadlineWarm => (5, 0),
        Workload::Fig13Cold | Workload::ServeMixed => (1, 5),
    }
}

/// The fewest passes a run times, however short `--seconds` is.
const MIN_PASSES: usize = 3;

fn setup_once(args: &Args, scratch: &Path, rep: usize) -> Result<Prepared, String> {
    Ok(match args.workload {
        Workload::Fig13Cold => Prepared::Engine {
            campaign: inputs::fig13_campaign(args.seed, args.quick),
            warm: None,
        },
        Workload::HeadlineWarm => {
            let campaign = loas_serve::spec_io::headline_campaign(args.quick, args.seed);
            let engine = Engine::new(1);
            engine
                .prepare(&campaign.unique_workloads())
                .map_err(|e| format!("warming the prepared cache: {e}"))?;
            Prepared::Engine {
                campaign,
                warm: Some(engine),
            }
        }
        Workload::ServeMixed => {
            let plan = inputs::serve_plan(args.seed, args.quick);
            let dir = scratch.join(format!("setup-queue-{rep}"));
            loas_serve::Queue::init(&dir).map_err(|e| format!("creating the queue: {e}"))?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Prepared::Serve { plan }
        }
    })
}

/// Sets the workload up once, returning the result and its time.
fn setup(args: &Args, scratch: &Path, rep: usize) -> Result<(f64, Prepared), String> {
    let start = Instant::now();
    let prepared = setup_once(args, scratch, rep)?;
    Ok((start.elapsed().as_secs_f64(), prepared))
}

/// Runs one pass of the prepared workload.
pub fn run_pass(
    prepared: &Prepared,
    scratch: &Path,
    index: usize,
    keep_reports: bool,
    trace: Option<&TraceCtx>,
) -> Pass {
    match prepared {
        Prepared::Engine {
            campaign,
            warm: None,
        } => {
            let start = Instant::now();
            let engine = Engine::new(1);
            engine_pass(&engine, campaign, start, keep_reports, trace)
        }
        Prepared::Engine {
            campaign,
            warm: Some(engine),
        } => engine_pass(engine, campaign, Instant::now(), keep_reports, trace),
        Prepared::Serve { plan } => {
            let dir = scratch.join(format!("queue-{index}"));
            let pass = serve_pass(&dir, plan, trace);
            let _ = std::fs::remove_dir_all(&dir);
            pass
        }
    }
}

fn expected_digest(args: &Args) -> Option<u64> {
    args.expect_digest
        .or_else(|| check::expected_digest(args.workload.name(), args.quick, args.seed))
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let (rounds, per_pass) = setup_plan(args.workload);
    let (first_setup, mut prepared) = setup(args, scratch, 0)?;
    let mut setup_times = vec![first_setup];
    let mut checker = PassChecker::new(expected_digest(args));
    let mut walls = Vec::new();
    let mut firsts = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    let round_seconds = args.seconds / rounds as f64;
    let mut round = 0;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&prepared, scratch, walls.len(), false, None);
        checker.check(&pass.outputs, &pass.errors);
        walls.push(pass.wall);
        firsts.push(pass.first_record);
        latencies.extend(pass.latencies.iter().map(|s| s * 1e3));
        drop(pass);
        for _ in 0..per_pass {
            let (seconds, repeat) = setup(args, scratch, setup_times.len())?;
            drop(repeat);
            setup_times.push(seconds);
        }
        let next_round = (start.elapsed().as_secs_f64() / round_seconds) as usize;
        if next_round > round && next_round < rounds {
            round = next_round;
            drop(prepared);
            release_free_memory();
            let (seconds, fresh) = setup(args, scratch, setup_times.len())?;
            setup_times.push(seconds);
            prepared = fresh;
        }
        release_free_memory();
    }
    let peak_rss = peak_rss_mb()?;
    let mut outcome = Outcome {
        passes: walls.len(),
        ..Outcome::default()
    };
    outcome.absorb(&checker);
    let tail = tail_percentile(latencies.len());
    outcome.push("setup_s", median(&setup_times), "s");
    outcome.push("wall_s", median(&walls), "s");
    outcome.push("first_record_s", median(&firsts), "s");
    outcome.push("latency_p50_ms", percentile(&latencies, 50.0), "ms");
    outcome.push("latency_p90_ms", percentile(&latencies, tail), "ms");
    outcome.push("peak_rss_mb", peak_rss, "MB");
    outcome
        .details
        .push(("latency_samples".into(), latencies.len().to_string()));
    outcome
        .details
        .push(("latency_tail_percentile".into(), tail.to_string()));
    outcome
        .details
        .push(("setup_repeats".into(), setup_times.len().to_string()));
    outcome
        .details
        .push(("pass_walls_s".into(), format!("{walls:?}")));
    Ok(outcome)
}

/// The traced run: the per-layer metrics.
pub fn traced(args: &Args, scratch: &Path, trace_file: &Path) -> Result<Outcome, String> {
    let (_, mut prepared) = setup(args, scratch, 0)?;
    let tracer = Tracer::new();
    let mut checker = PassChecker::new(expected_digest(args));
    let mut untraced_walls = Vec::new();
    let mut traced_passes = Vec::new();
    let mut next_op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut index = 0;
    while untraced_walls.is_empty() || traced_passes.is_empty() || Instant::now() < deadline {
        let traced = index % 2 == 1;
        let ctx = TraceCtx {
            tracer: tracer.clone(),
            pass: index,
            first_op: next_op,
        };
        let keep = traced && traced_passes.is_empty();
        let pass = run_pass(&prepared, scratch, index, keep, traced.then_some(&ctx));
        checker.check(&pass.outputs, &pass.errors);
        next_op += pass.outputs.len() as u64 + 1;
        if traced {
            traced_passes.push((index, pass));
        } else {
            untraced_walls.push(pass.wall);
        }
        index += 1;
    }
    let mut outcome = Outcome {
        passes: index,
        ..Outcome::default()
    };
    let probe_pass = index;
    probes::per_layer(
        &mut prepared,
        scratch,
        &tracer,
        &traced_passes,
        &untraced_walls,
        probe_pass,
        &mut checker,
        &mut outcome,
    )?;
    outcome.absorb(&checker);
    std::fs::write(trace_file, tracer.jsonl())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    outcome.details.push((
        "trace_file".into(),
        format!(
            "\"{}\"",
            loas_serve::json::escape(&trace_file.display().to_string())
        ),
    ));
    let spans = tracer.spans();
    outcome
        .details
        .push(("spans".into(), spans.len().to_string()));
    outcome
        .details
        .push(("self_time_s".into(), self_time_by_name(&spans)));
    Ok(outcome)
}

/// Σ self time per span name, as a JSON object: where a traced run's
/// host time went once each span's children are taken out.
fn self_time_by_name(spans: &[Span]) -> String {
    let self_times = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name.as_str()).or_insert(0.0) += self_times[&span.id];
    }
    let fields: Vec<String> = by_name
        .iter()
        .map(|(name, seconds)| format!("\"{}\":{seconds}", loas_serve::json::escape(name)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Peak resident memory of this process (one workload per process), in
/// MiB, from the kernel's `VmHWM` counter.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the memory a finished pass freed back to the kernel, so every
/// pass starts from the same resident set and the peak measures one pass,
/// not how much of the previous ones the allocator happened to keep.
fn release_free_memory() {
    // SAFETY: `malloc_trim` has no preconditions; it only releases free
    // pages of the allocator's own heaps.
    unsafe {
        malloc_trim(0);
    }
}

/// The scratch directory of one run, inside the working directory.
pub fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}
