//! Per-layer metrics of a traced run. The traced passes give spans around
//! the engine (and the `run_layer` of every job) or around each served
//! op; probes then call each layer's public functions on the same inputs,
//! so every layer is timed on every workload:
//!
//! * preparation — generation, FT masking, `PreparedLayer::new` and its
//!   component views, and the pair-sweep kernel, over the workload's
//!   unique layers;
//! * models the workload does not run — simulated on its base layers;
//! * the engine, for the served workload — its campaigns on a fresh
//!   engine each, as `drain` runs them;
//! * the serving tier, for the engine workloads — the campaign enqueued,
//!   drained, then resubmitted and replayed;
//! * the memo store — every report stored and loaded back;
//! * scaling — one untraced pass at one worker per hardware thread.

use crate::check::PassChecker;
use crate::passes::{engine_pass, Pass, TraceCtx};
use crate::run::{Outcome, Prepared};
use crate::stats::median;
use crate::trace::{self, model_key, model_layer, Span, Tracer};
use loas_core::kernel::{PairSweepKernel, SweepMode};
use loas_core::{
    LayerReport, PreparedLayer, TrafficSpans, DEFAULT_LINE_BYTES, DEFAULT_WEIGHT_BITS,
};
use loas_engine::{AcceleratorSpec, Campaign, Engine, MemoKey, MemoStore, ResultStore};
use loas_serve::spec_io;
use loas_serve::{drain, Queue, RunOptions};
use loas_sparse::{CsrMatrix, WeightFiber};
use loas_workloads::{LayerWorkload, WorkloadGenerator};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The model keys every traced run reports, in report order.
pub const MODELS: [&str; 7] = [
    "loas", "loas_ft", "sparten", "gospa", "gamma", "ptb", "stellar",
];

/// The models with a tagged cache, whose simulated cache counts exist
/// (PTB and Stellar stream through untagged buffers).
const CACHED_MODELS: [&str; 5] = ["loas", "loas_ft", "sparten", "gospa", "gamma"];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("workloads.generate_s", "s"),
        ("workloads.generated", "count"),
        ("workloads.ft_mask_s", "s"),
        ("core.prepare_s", "s"),
        ("snn.to_row_fibers_s", "s"),
        ("sparse.csr_per_t_s", "s"),
        ("sparse.b_fibers_s", "s"),
        ("core.row_blocks_s", "s"),
        ("core.traffic_spans_s", "s"),
        ("engine.prepare_s", "s"),
        ("engine.prepare_self_s", "s"),
        ("engine.run_s", "s"),
        ("engine.self_s", "s"),
        ("engine.prepared_cache.hit_ratio", "ratio"),
        ("engine.scaling_2w", "x"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_owned(), unit))
    .collect();
    for key in MODELS {
        names.push((format!("{}.{key}.run_s", model_layer(key)), "s"));
    }
    names.push(("core.kernel.pairs_per_s".to_owned(), "1/s"));
    for key in CACHED_MODELS {
        names.push((format!("sim.{key}.cache_accesses"), "sim-count"));
        names.push((format!("sim.{key}.cache_hit_ratio"), "sim-ratio"));
        names.push((format!("sim.{key}.ns_per_access"), "ns/access"));
    }
    for (name, unit) in [
        ("sim.cycles_total", "sim-cycles"),
        ("sim.dram_bytes_total", "sim-bytes"),
        ("engine.memo.load_ms", "ms"),
        ("engine.memo.store_ms", "ms"),
        ("engine.memo.hit_ratio", "ratio"),
        ("serve.enqueue_ms", "ms"),
        ("serve.spec_parse_ms", "ms"),
        ("serve.submissions_ms", "ms"),
        ("serve.drain_novel_ms", "ms"),
        ("serve.drain_replay_ms", "ms"),
        ("serve.memo_entries", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names
}

/// Span sums per pass, over the spans `keep` selects.
fn per_pass(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<usize, f64> {
    let mut sums = BTreeMap::new();
    for span in spans.iter().filter(|span| keep(span)) {
        *sums.entry(span.pass).or_insert(0.0) += span.seconds();
    }
    sums
}

/// The median duration of single spans named `name`, in milliseconds.
fn median_call_ms(spans: &[Span], name: &str) -> f64 {
    let calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds() * 1e3)
        .collect();
    median(&calls)
}

/// The total duration of spans named `name`.
fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// One engine pass's bookkeeping for the engine metrics.
struct EngineRun {
    pass: usize,
    jobs: usize,
    generated: usize,
}

/// A job's simulated report with its memo key and model key.
type Reported = (MemoKey, &'static str, LayerReport);

/// The reports a pass kept, paired with the jobs of `campaign`.
fn reported(campaign: &Campaign, pass: &Pass) -> Vec<Reported> {
    campaign
        .jobs()
        .iter()
        .zip(&pass.reports)
        .map(|(job, report)| (job.memo_key(), model_key(&job.accelerator), report.clone()))
        .collect()
}

/// Runs the probes and fills `outcome` with every per-layer metric.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    prepared: &mut Prepared,
    scratch: &Path,
    tracer: &Arc<Tracer>,
    traced_passes: &[(usize, Pass)],
    untraced_walls: &[f64],
    probe_pass: usize,
    checker: &mut PassChecker,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut values: HashMap<String, f64> = HashMap::new();
    let ctx = |pass: usize| TraceCtx {
        tracer: Arc::clone(tracer),
        pass,
        first_op: 1_000_000 * (pass as u64 + 1),
    };
    let traced_wall = median(
        &traced_passes
            .iter()
            .map(|(_, p)| p.wall)
            .collect::<Vec<_>>(),
    );
    values.insert(
        "trace.overhead_ratio".into(),
        traced_wall / median(untraced_walls),
    );
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    // The engine side: the traced passes themselves, or for the served
    // workload its campaigns on a fresh engine each.
    let mut engine_runs = Vec::new();
    let mut own: Vec<Reported> = Vec::new();
    let campaigns: Vec<Campaign> = match prepared {
        Prepared::Engine { campaign, .. } => {
            for (pass, run) in traced_passes {
                engine_runs.push(EngineRun {
                    pass: *pass,
                    jobs: run.outputs.len(),
                    generated: run.generated,
                });
            }
            own = reported(campaign, &traced_passes[0].1);
            vec![campaign.clone()]
        }
        Prepared::Serve { plan } => {
            let campaigns = plan
                .specs
                .iter()
                .map(|spec| spec_io::campaign_from_json(spec).map_err(|e| format!("spec: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            let served = &traced_passes[0].1;
            for (index, campaign) in campaigns.iter().enumerate() {
                let run = engine_pass(
                    &Engine::new(1),
                    campaign,
                    Instant::now(),
                    true,
                    Some(&ctx(probe_pass)),
                );
                // The engine's stream must be the report the queue served.
                let stream: String = run.outputs.iter().map(|line| format!("{line}\n")).collect();
                if served.outputs.get(2 * index) != Some(&stream) {
                    checker.fail_ops(
                        1,
                        format!("engine stream of spec {index} differs from its served report"),
                    );
                }
                engine_runs.push(EngineRun {
                    pass: probe_pass,
                    jobs: run.outputs.len(),
                    generated: run.generated,
                });
                own.extend(reported(campaign, &run));
            }
            campaigns
        }
    };
    let spans = tracer.spans();
    let self_times = trace::self_times(&spans);
    let engine_passes: Vec<usize> = engine_runs.iter().map(|r| r.pass).collect();
    let in_engine = |span: &Span| engine_passes.contains(&span.pass);
    let prepare = per_pass(&spans, |s| in_engine(s) && s.name == "engine.prepare");
    let run = per_pass(&spans, |s| in_engine(s) && s.name == "engine.run");
    let mut engine_self: BTreeMap<usize, f64> = BTreeMap::new();
    for span in spans
        .iter()
        .filter(|s| in_engine(s) && s.name == "engine.run")
    {
        *engine_self.entry(span.pass).or_insert(0.0) += self_times[&span.id];
    }
    let mut jobs_generated: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for run in &engine_runs {
        let entry = jobs_generated.entry(run.pass).or_insert((0, 0));
        entry.0 += run.jobs;
        entry.1 += run.generated;
    }
    let run_totals: Vec<f64> = prepare
        .iter()
        .map(|(pass, p)| p + run.get(pass).copied().unwrap_or(0.0))
        .collect();
    values.insert(
        "engine.prepare_s".into(),
        median(&prepare.values().copied().collect::<Vec<_>>()),
    );
    values.insert("engine.run_s".into(), median(&run_totals));
    values.insert(
        "engine.self_s".into(),
        median(&engine_self.into_values().collect::<Vec<_>>()),
    );
    let hit_ratios: Vec<f64> = jobs_generated
        .values()
        .map(|&(jobs, generated)| jobs.saturating_sub(generated) as f64 / jobs.max(1) as f64)
        .collect();
    values.insert(
        "engine.prepared_cache.hit_ratio".into(),
        median(&hit_ratios),
    );

    // Models the workload does not run, on its base layers.
    let present: Vec<&str> = own.iter().map(|(_, key, _)| *key).collect();
    let fleet = AcceleratorSpec::headline_fleet();
    let missing: Vec<&AcceleratorSpec> = fleet
        .iter()
        .filter(|spec| !present.contains(&model_key(spec)))
        .collect();
    let unique = unique_workloads(&campaigns);
    let mut model_reports = Vec::new();
    if !missing.is_empty() {
        let mut campaign = Campaign::new("missing-models");
        for workload in unique.iter().filter(|w| !w.fine_tuned) {
            for spec in &missing {
                let workload = if spec.wants_fine_tuned_workload() {
                    workload.clone().fine_tuned()
                } else {
                    workload.clone()
                };
                campaign.push_layer(workload, (*spec).clone());
            }
        }
        let run = engine_pass(
            &Engine::new(1),
            &campaign,
            Instant::now(),
            true,
            Some(&ctx(probe_pass + 1)),
        );
        if let Some(error) = run.errors.iter().flatten().next() {
            checker.fail_ops(run.errors.iter().flatten().count(), error.clone());
        }
        model_reports = reported(&campaign, &run);
    }
    let spans = tracer.spans();
    for key in MODELS {
        let name = format!("{}.{key}.run_layer", model_layer(key));
        let sums: Vec<f64> = per_pass(&spans, |s| s.name == name).into_values().collect();
        values.insert(format!("{}.{key}.run_s", model_layer(key)), median(&sums));
        if !CACHED_MODELS.contains(&key) {
            continue;
        }
        let (seconds, accesses) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0u64), |(t, a), s| {
                (t + s.seconds(), a + s.count.unwrap_or(0))
            });
        values.insert(
            format!("sim.{key}.ns_per_access"),
            seconds * 1e9 / accesses as f64,
        );
        let (mut hits, mut all) = (0u64, 0u64);
        for (_, _, report) in own
            .iter()
            .chain(&model_reports)
            .filter(|(_, k, _)| *k == key)
        {
            hits += report.stats.cache.hits;
            all += report.stats.cache.accesses();
        }
        values.insert(format!("sim.{key}.cache_accesses"), all as f64);
        values.insert(
            format!("sim.{key}.cache_hit_ratio"),
            hits as f64 / all as f64,
        );
    }
    let cycles: u64 = own.iter().map(|(_, _, r)| r.stats.cycles.get()).sum();
    let dram: u64 = own.iter().map(|(_, _, r)| r.stats.dram.total()).sum();
    values.insert("sim.cycles_total".into(), cycles as f64);
    values.insert("sim.dram_bytes_total".into(), dram as f64);

    // Preparation, its component views and the kernel, on the same inputs.
    prepare_probe(tracer, &unique, probe_pass + 2)?;
    let spans = tracer.spans();
    let probe_prep = ["workloads.generate", "workloads.ft_mask", "core.prepare"]
        .iter()
        .map(|name| total(&spans, name))
        .sum::<f64>();
    for (metric, span) in [
        ("workloads.generate_s", "workloads.generate"),
        ("workloads.ft_mask_s", "workloads.ft_mask"),
        ("core.prepare_s", "core.prepare"),
        ("snn.to_row_fibers_s", "snn.to_row_fibers"),
        ("sparse.csr_per_t_s", "sparse.csr_per_t"),
        ("sparse.b_fibers_s", "sparse.b_fibers"),
        ("core.row_blocks_s", "core.row_blocks"),
        ("core.traffic_spans_s", "core.traffic_spans"),
    ] {
        values.insert(metric.into(), total(&spans, span));
    }
    let generated = spans
        .iter()
        .filter(|s| s.name == "workloads.generate")
        .count();
    values.insert("workloads.generated".into(), generated as f64);
    let (sweep_s, pairs) = spans
        .iter()
        .filter(|s| s.name == "core.kernel.sweep_layer")
        .fold((0.0, 0u64), |(t, p), s| {
            (t + s.seconds(), p + s.count.unwrap_or(0))
        });
    values.insert("core.kernel.pairs_per_s".into(), pairs as f64 / sweep_s);
    // The engine's own share of preparation: its prepare span minus the
    // probe's cost of the same generation work, in passes that generated.
    let prepare_self: Vec<f64> = prepare
        .iter()
        .map(|(pass, seconds)| {
            let generated = jobs_generated.get(pass).map_or(0, |&(_, g)| g);
            if generated > 0 {
                seconds - probe_prep
            } else {
                *seconds
            }
        })
        .collect();
    values.insert("engine.prepare_self_s".into(), median(&prepare_self));

    // Scaling: one untraced pass at one worker per hardware thread.
    values.insert(
        "engine.scaling_2w".into(),
        scaling(prepared, &campaigns, untraced_walls, workers, checker),
    );

    // The memo store: every report stored, then loaded back.
    memo_probe(
        tracer,
        &own,
        &scratch.join("memo-probe"),
        probe_pass + 3,
        checker,
    )?;

    // The serving tier.
    match prepared {
        Prepared::Engine { campaign, .. } => {
            let expected: String = traced_passes[0]
                .1
                .outputs
                .iter()
                .map(|l| format!("{l}\n"))
                .collect();
            let served = serve_probe(
                tracer,
                campaign,
                &expected,
                &scratch.join("serve-probe"),
                probe_pass + 4,
                checker,
            )?;
            values.insert("engine.memo.hit_ratio".into(), served.0);
            values.insert("serve.memo_entries".into(), served.1 as f64);
        }
        Prepared::Serve { plan } => {
            let (mut hits, mut jobs) = (0, 0);
            for (_, pass) in traced_passes {
                for &(h, j) in &pass.memo {
                    hits += h;
                    jobs += j;
                }
            }
            values.insert("engine.memo.hit_ratio".into(), hits as f64 / jobs as f64);
            values.insert(
                "serve.memo_entries".into(),
                traced_passes[0].1.memo_entries as f64,
            );
            let dir = scratch.join("serve-probe");
            let queue = Queue::init(&dir).map_err(|e| format!("probe queue: {e}"))?;
            let pass = probe_pass + 4;
            for &spec in &plan.ops {
                let text = &plan.specs[spec];
                tracer
                    .span("serve.spec_parse", None, 0, pass, || {
                        spec_io::campaign_from_json(text)
                    })
                    .map_err(|e| format!("spec: {e}"))?;
                queue.enqueue(text).map_err(|e| format!("enqueue: {e}"))?;
            }
            submissions_probe(tracer, &queue, pass)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let spans = tracer.spans();
    for (metric, span) in [
        ("serve.enqueue_ms", "serve.enqueue"),
        ("serve.spec_parse_ms", "serve.spec_parse"),
        ("serve.submissions_ms", "serve.submissions"),
        ("serve.drain_novel_ms", "serve.drain_novel"),
        ("serve.drain_replay_ms", "serve.drain_replay"),
        ("engine.memo.load_ms", "engine.memo.load"),
        ("engine.memo.store_ms", "engine.memo.store"),
    ] {
        values.insert(metric.into(), median_call_ms(&spans, span));
    }

    for (name, unit) in per_layer_names() {
        let value = values
            .remove(&name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("per-layer metric `{name}` is not finite ({value})"));
        }
        outcome.push(name, value, unit);
    }
    debug_assert!(values.is_empty(), "unlisted metrics: {:?}", values.keys());
    Ok(())
}

/// The distinct workload specs over several campaigns, in first-use order.
fn unique_workloads(campaigns: &[Campaign]) -> Vec<loas_engine::WorkloadSpec> {
    let mut seen = std::collections::HashSet::new();
    campaigns
        .iter()
        .flat_map(Campaign::unique_workloads)
        .filter(|spec| seen.insert(spec.key()))
        .collect()
}

/// Times generation, FT masking and preparation of every unique layer,
/// each component view `PreparedLayer::new` builds, and the pair sweep.
fn prepare_probe(
    tracer: &Tracer,
    unique: &[loas_engine::WorkloadSpec],
    pass: usize,
) -> Result<(), String> {
    let mut bases: HashMap<loas_engine::WorkloadKey, LayerWorkload> = HashMap::new();
    let generate = |spec: &loas_engine::WorkloadSpec| {
        tracer
            .span("workloads.generate", None, 0, pass, || {
                WorkloadGenerator::new(spec.seed).generate(&spec.name, spec.shape, &spec.profile)
            })
            .map_err(|e| format!("generating {}: {e}", spec.name))
    };
    for spec in unique.iter().filter(|s| !s.fine_tuned) {
        let workload = generate(spec)?;
        let layer = tracer.span("core.prepare", None, 0, pass, || {
            PreparedLayer::new(&workload)
        });
        let fibers = tracer.span("snn.to_row_fibers", None, 0, pass, || {
            workload.spikes.to_row_fibers()
        });
        tracer.span("sparse.csr_per_t", None, 0, pass, || {
            let csr: Vec<CsrMatrix<()>> = workload
                .spikes
                .planes()
                .iter()
                .map(CsrMatrix::from_bit_matrix)
                .collect();
            std::hint::black_box(csr);
        });
        tracer.span("sparse.b_fibers", None, 0, pass, || {
            let fibers: Vec<WeightFiber> = (0..workload.shape.n)
                .map(|n| WeightFiber::from_weights(&workload.weights.column(n)))
                .collect();
            std::hint::black_box(fibers);
        });
        tracer.span("core.row_blocks", None, 0, pass, || {
            std::hint::black_box(loas_core::kernel::RowBlocks::from_spike_fibers(
                &fibers,
                workload.shape.t,
            ));
        });
        tracer.span("core.traffic_spans", None, 0, pass, || {
            std::hint::black_box(TrafficSpans::build(
                &layer,
                DEFAULT_WEIGHT_BITS,
                DEFAULT_LINE_BYTES,
            ));
        });
        let b_words: Vec<&[u64]> = layer.b_fibers.iter().map(|f| f.bitmask().words()).collect();
        let kernel = PairSweepKernel::new(128, Some(8));
        let open = tracer.open(None, 0, pass);
        std::hint::black_box(kernel.sweep_layer(
            &layer.row_blocks,
            &b_words,
            16,
            SweepMode::TemporalParallel,
            1,
        ));
        tracer.close(
            open,
            "core.kernel.sweep_layer",
            Some((layer.shape.m * layer.shape.n) as u64),
        );
        bases.insert(spec.key(), workload);
    }
    for spec in unique.iter().filter(|s| s.fine_tuned) {
        let base_key = spec.base().key();
        if !bases.contains_key(&base_key) {
            let workload = generate(&spec.base())?;
            bases.insert(base_key.clone(), workload);
        }
        let base = &bases[&base_key];
        let masked = tracer.span("workloads.ft_mask", None, 0, pass, || {
            base.with_preprocessing()
        });
        std::hint::black_box(tracer.span("core.prepare", None, 0, pass, || {
            PreparedLayer::new(&masked)
        }));
    }
    Ok(())
}

/// One untraced pass at `workers` workers; the one-worker median over it.
/// Its output must match every other pass byte for byte.
fn scaling(
    prepared: &mut Prepared,
    campaigns: &[Campaign],
    untraced_walls: &[f64],
    workers: usize,
    checker: &mut PassChecker,
) -> f64 {
    match prepared {
        Prepared::Engine { campaign, warm } => {
            let start = Instant::now();
            let pass = match warm {
                None => engine_pass(&Engine::new(workers), campaign, start, false, None),
                Some(engine) => {
                    engine.set_workers(workers);
                    let pass = engine_pass(engine, campaign, start, false, None);
                    engine.set_workers(1);
                    pass
                }
            };
            checker.check(&pass.outputs, &pass.errors);
            median(untraced_walls) / pass.wall
        }
        Prepared::Serve { .. } => {
            let wall = |workers: usize| {
                let start = Instant::now();
                for campaign in campaigns {
                    let _ = Engine::new(workers).run(campaign);
                }
                start.elapsed().as_secs_f64()
            };
            let one = wall(1);
            one / wall(workers)
        }
    }
}

/// Stores every report in a fresh memo store, then loads each back.
fn memo_probe(
    tracer: &Tracer,
    reports: &[Reported],
    dir: &Path,
    pass: usize,
    checker: &mut PassChecker,
) -> Result<(), String> {
    let store = MemoStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (key, _, report) in reports {
        tracer.span("engine.memo.store", None, 0, pass, || {
            store.store(*key, report)
        });
    }
    let mut missing = 0;
    for (key, _, _) in reports {
        if tracer
            .span("engine.memo.load", None, 0, pass, || store.load(*key))
            .is_none()
        {
            missing += 1;
        }
    }
    if missing > 0 {
        checker.fail_ops(
            missing,
            format!("{missing} stored memo entries did not load"),
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Times `Queue::submissions` on a populated queue.
fn submissions_probe(tracer: &Tracer, queue: &Queue, pass: usize) -> Result<(), String> {
    for _ in 0..5 {
        tracer
            .span("serve.submissions", None, 0, pass, || queue.submissions())
            .map_err(|e| format!("submissions: {e}"))?;
    }
    Ok(())
}

/// Serves an engine workload's campaign: enqueue, drain (novel), then
/// resubmit and drain again (replay). Both reports must equal the engine's
/// stream. Returns the memo hit ratio and the memo entries.
fn serve_probe(
    tracer: &Tracer,
    campaign: &Campaign,
    expected: &str,
    dir: &Path,
    pass: usize,
    checker: &mut PassChecker,
) -> Result<(f64, usize), String> {
    let text = spec_io::campaign_to_json(campaign);
    tracer
        .span("serve.spec_parse", None, 0, pass, || {
            spec_io::campaign_from_json(&text)
        })
        .map_err(|e| format!("spec: {e}"))?;
    let queue = Queue::init(dir).map_err(|e| format!("probe queue: {e}"))?;
    let options = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let (mut hits, mut jobs) = (0, 0);
    for name in ["serve.drain_novel", "serve.drain_replay"] {
        let id = tracer
            .span("serve.enqueue", None, 0, pass, || queue.enqueue(&text))
            .map_err(|e| format!("enqueue: {e}"))?
            .id;
        tracer
            .span(name, None, 0, pass, || {
                drain(&queue, &options, |p| {
                    hits += p.memo_hits;
                    jobs += p.jobs;
                })
            })
            .map_err(|e| format!("drain: {e}"))?;
        let path = queue.report_dir(id).join("report.jsonl");
        let report =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if report != expected {
            checker.fail_ops(
                campaign.len(),
                format!("{name}: served report differs from the engine stream"),
            );
        }
    }
    submissions_probe(tracer, &queue, pass)?;
    let entries = MemoStore::open(queue.memo_dir()).map_or(0, |store| store.len());
    let _ = std::fs::remove_dir_all(dir);
    Ok((hits as f64 / jobs.max(1) as f64, entries))
}
