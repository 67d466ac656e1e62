//! One pass of each workload, traced or not. A pass is one closed-loop
//! round of the workload's ops: one campaign's jobs on the engine, or one
//! served op sequence on a fresh queue.

use crate::check;
use crate::inputs::ServePlan;
use crate::trace::{self, Tracer};
use loas_core::LayerReport;
use loas_engine::{Campaign, Engine, MemoStore};
use loas_serve::{drain, Queue, RunOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall: f64,
    /// Seconds until a first result: from the pass start to the first
    /// streamed record on the engine; served, the mean time from
    /// submitting a novel campaign to its report (results only become
    /// visible once `drain` writes the report). A mean, not a median: the
    /// novel campaigns alternate between two sizes, and a median of an
    /// even split lands in the gap between them.
    pub first_record: f64,
    /// Per op, seconds from its start (the pass start for engine jobs)
    /// until its result was available.
    pub latencies: Vec<f64>,
    /// Per op, its serialized result (a `JobRecord` line or a report).
    pub outputs: Vec<String>,
    /// Per op, the error or invariant violation found, if any.
    pub errors: Vec<Option<String>>,
    /// The simulated reports in job order (engine passes that keep them).
    pub reports: Vec<LayerReport>,
    /// Prepared layers the engine generated during the pass.
    pub generated: usize,
    /// Per served op, `(memo replays, jobs)`.
    pub memo: Vec<(usize, usize)>,
    /// Memo-store entries when a served pass ends.
    pub memo_entries: usize,
}

/// Where a traced pass records its spans.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// The span store.
    pub tracer: Arc<Tracer>,
    /// The pass index spans are tagged with.
    pub pass: usize,
    /// The op id of the pass's first op.
    pub first_op: u64,
}

/// Runs `campaign` once on `engine`, one record per op. `start` is when
/// the pass began (before the engine was built, for cold passes). Traced
/// passes prepare explicitly through `Engine::prepare` before running, so
/// preparation and simulation get spans of their own.
pub fn engine_pass(
    engine: &Engine,
    campaign: &Campaign,
    start: Instant,
    keep_reports: bool,
    trace: Option<&TraceCtx>,
) -> Pass {
    let mut pass = Pass::default();
    let stats_before = engine.cache_stats();
    let run = |campaign: &Campaign, pass: &mut Pass| {
        engine.run_streaming(campaign, |record| {
            let at = start.elapsed().as_secs_f64();
            if pass.latencies.is_empty() {
                pass.first_record = at;
            }
            pass.latencies.push(at);
            pass.outputs.push(record.to_json());
            pass.errors
                .push(check::report_invariants(&record.report).err());
            if keep_reports {
                pass.reports.push(record.report.clone());
            }
        })
    };
    let outcome = match trace {
        None => run(campaign, &mut pass),
        Some(ctx) => {
            let tracer = &ctx.tracer;
            let root = tracer.open(None, ctx.first_op, ctx.pass);
            let op = ctx.first_op;
            let prepared = tracer.span("engine.prepare", Some(root.id()), op, ctx.pass, || {
                engine.prepare(&campaign.unique_workloads())
            });
            let run_id = tracer.reserve();
            let traced =
                trace::traced_campaign(campaign, tracer, run_id, ctx.first_op + 1, ctx.pass);
            let open = tracer.open_reserved(run_id, Some(root.id()), op, ctx.pass);
            let outcome = prepared.and_then(|_| run(&traced, &mut pass));
            tracer.close(open, "engine.run", None);
            tracer.close(root, "pass", None);
            outcome
        }
    };
    pass.wall = start.elapsed().as_secs_f64();
    let stats_after = engine.cache_stats();
    pass.generated = stats_after.generated - stats_before.generated;
    if let Err(error) = outcome {
        // Every job of a failed campaign counts as failed.
        pass.outputs.resize(campaign.len(), String::new());
        pass.errors = vec![Some(format!("engine error: {error}")); campaign.len()];
    }
    pass
}

/// Runs the serve plan once against a fresh queue under `dir`: each op
/// enqueues its spec and drains the queue with one worker; its latency
/// runs from the enqueue until the drain returns with the report written.
/// A resubmitted spec must replay the novel run's report byte for byte.
pub fn serve_pass(dir: &Path, plan: &ServePlan, trace: Option<&TraceCtx>) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let queue = match Queue::init(dir) {
        Ok(queue) => queue,
        Err(error) => {
            pass.outputs = vec![String::new(); plan.ops.len()];
            pass.errors = vec![Some(format!("queue init: {error}")); plan.ops.len()];
            return pass;
        }
    };
    let options = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let mut novel_reports: Vec<Option<String>> = vec![None; plan.specs.len()];
    let mut novel_latencies = Vec::with_capacity(plan.specs.len());
    for (op, &spec) in plan.ops.iter().enumerate() {
        let novel = plan.is_novel(op);
        let op_id = trace.map_or(0, |ctx| ctx.first_op + op as u64);
        let timed = |name: &str, f: &mut dyn FnMut()| match trace {
            Some(ctx) => ctx.tracer.span(name, None, op_id, ctx.pass, f),
            None => f(),
        };
        let op_start = Instant::now();
        let mut submitted = None;
        timed("serve.enqueue", &mut || {
            submitted = Some(queue.enqueue(&plan.specs[spec]));
        });
        let mut progress = Vec::new();
        let mut drained = None;
        let drain_name = if novel {
            "serve.drain_novel"
        } else {
            "serve.drain_replay"
        };
        timed(drain_name, &mut || {
            drained = Some(drain(&queue, &options, |p| {
                progress.push((p.memo_hits, p.jobs))
            }));
        });
        let latency = op_start.elapsed().as_secs_f64();
        if novel {
            novel_latencies.push(latency);
        }
        pass.latencies.push(latency);
        pass.memo.extend(progress);

        let result = (|| -> Result<String, String> {
            let id = submitted
                .expect("enqueue ran")
                .map_err(|e| format!("enqueue: {e}"))?
                .id;
            let summary = drained
                .expect("drain ran")
                .map_err(|e| format!("drain: {e}"))?;
            if summary.failed > 0 || summary.campaigns != 1 {
                return Err(format!(
                    "drain ran {} campaigns, {} failed",
                    summary.campaigns, summary.failed
                ));
            }
            let path = queue.report_dir(id).join("report.jsonl");
            let report =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            for line in report.lines() {
                check::record_line_invariants(line)?;
            }
            Ok(report)
        })();
        match result {
            Ok(report) => {
                let error = match &novel_reports[spec] {
                    Some(first) if *first != report => {
                        Some("replayed report differs from the novel run".to_owned())
                    }
                    Some(_) => None,
                    None if novel => {
                        novel_reports[spec] = Some(report.clone());
                        None
                    }
                    None => Some("replay of a spec never run".to_owned()),
                };
                pass.outputs.push(report);
                pass.errors.push(error);
            }
            Err(error) => {
                pass.outputs.push(String::new());
                pass.errors.push(Some(error));
            }
        }
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass.first_record = novel_latencies.iter().sum::<f64>() / novel_latencies.len() as f64;
    pass.memo_entries = MemoStore::open(queue.memo_dir()).map_or(0, |store| store.len());
    pass
}
