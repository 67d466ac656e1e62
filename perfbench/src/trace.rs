//! Traced mode: spans kept in memory around every call the benchmark
//! makes into a layer, plus a catalog wrapper that times each
//! `Accelerator::run_layer` the engine makes on the benchmark's behalf.
//!
//! A span has a name, start, end, parent span, the op it belongs to (one
//! job or one campaign) and the pass it ran in. Spans are written out as
//! JSON lines when the run ends.

use loas_core::{catalog, Accelerator, CatalogError, ConfigValue, LayerReport, ModelConfig};
use loas_core::{ModelEntry, PreparedLayer};
use loas_engine::{AcceleratorSpec, Campaign, JobSpec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (job or campaign) the span belongs to.
    pub op: u64,
    /// The pass the span ran in.
    pub pass: usize,
    /// Layer-qualified name, e.g. `core.loas.run_layer`.
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// A count measured at the same boundary (pairs swept, simulated
    /// cache accesses), when the span has one.
    pub count: Option<u64>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: usize,
    parent: Option<usize>,
    op: u64,
    pass: usize,
    start: f64,
}

impl Open {
    /// The span's id, to parent child spans on.
    pub fn id(&self) -> usize {
        self.id
    }
}

#[derive(Debug, Default)]
struct Spans {
    next_id: usize,
    done: Vec<Span>,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Spans>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Spans::default()),
        })
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Reserves a span id ahead of [`Tracer::open_reserved`], for children
    /// that must be set up before their parent starts.
    pub fn reserve(&self) -> usize {
        let mut spans = self.spans.lock().expect("span store lock");
        spans.next_id += 1;
        spans.next_id - 1
    }

    /// Starts a span.
    pub fn open(&self, parent: Option<usize>, op: u64, pass: usize) -> Open {
        self.open_reserved(self.reserve(), parent, op, pass)
    }

    /// Starts a span under an id from [`Tracer::reserve`].
    pub fn open_reserved(&self, id: usize, parent: Option<usize>, op: u64, pass: usize) -> Open {
        Open {
            id,
            parent,
            op,
            pass,
            start: self.now(),
        }
    }

    /// Ends a span under `name`, with an optional boundary count.
    pub fn close(&self, open: Open, name: impl Into<String>, count: Option<u64>) {
        let end = self.now();
        self.spans.lock().expect("span store lock").done.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            pass: open.pass,
            name: name.into(),
            start: open.start,
            end,
            count,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        pass: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(parent, op, pass);
        let result = f();
        self.close(open, name, None);
        result
    }

    /// Every finished span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store lock").done.clone();
        spans.sort_by_key(|span| span.id);
        spans
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let count = span.count.map_or("null".to_owned(), |c| c.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"pass\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"count\":{count}}}",
                span.id,
                span.op,
                span.pass,
                loas_serve::json::escape(&span.name),
                span.start,
                span.end,
            );
        }
        out
    }
}

/// Self time per span: its duration minus the part of it that its child
/// spans cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> HashMap<usize, f64> {
    let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cursor = span.start;
                for &(start, end) in intervals.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.id, span.seconds() - covered)
        })
        .collect()
}

/// The metric key of a model spec: its catalog name, with LoAS in
/// fine-tuned mode as `loas_ft`.
pub fn model_key(spec: &AcceleratorSpec) -> &'static str {
    match spec.model() {
        "loas" if spec.wants_fine_tuned_workload() => "loas_ft",
        "loas" => "loas",
        "sparten" => "sparten",
        "gospa" => "gospa",
        "gamma" => "gamma",
        "ptb" => "ptb",
        "stellar" => "stellar",
        _ => "other",
    }
}

/// The crate a model lives in, as its per-layer metric prefix.
pub fn model_layer(key: &str) -> &'static str {
    if key.starts_with("loas") {
        "core"
    } else {
        "baselines"
    }
}

/// The catalog name the traced wrapper registers under.
const TRACED_MODEL: &str = "perfbench.traced";

/// The wrapper's configuration: the wrapped spec plus where its spans go.
/// Fields, validation and the fine-tuned choice all forward to the inner
/// spec, so a wrapped job simulates, labels and reports exactly as the
/// plain job does. The inner catalog entry is resolved up front because
/// factories run while the catalog is locked.
#[derive(Debug, Clone)]
struct TracedConfig {
    inner: AcceleratorSpec,
    entry: ModelEntry,
    span_name: String,
    tracer: Arc<Tracer>,
    parent: Option<usize>,
    op: u64,
    pass: usize,
}

impl TracedConfig {
    fn wrap(
        inner: AcceleratorSpec,
        tracer: Arc<Tracer>,
        parent: Option<usize>,
        op: u64,
        pass: usize,
    ) -> Self {
        let entry = catalog::with(|catalog| catalog.get(inner.model()).copied())
            .expect("wrapped specs come from the catalog");
        let key = model_key(&inner);
        TracedConfig {
            span_name: format!("{}.{key}.run_layer", model_layer(key)),
            inner,
            entry,
            tracer,
            parent,
            op,
            pass,
        }
    }
}

impl ModelConfig for TracedConfig {
    fn model(&self) -> &'static str {
        TRACED_MODEL
    }

    fn fields(&self) -> Vec<(&'static str, ConfigValue)> {
        self.inner.config().fields()
    }

    fn set(&mut self, field: &str, value: ConfigValue) -> Result<(), CatalogError> {
        self.inner.config_mut().set(field, value)
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.config().validate()
    }

    fn clone_box(&self) -> Box<dyn ModelConfig> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn traced_config(config: &dyn ModelConfig) -> &TracedConfig {
    config
        .as_any()
        .downcast_ref::<TracedConfig>()
        .expect("the traced entry is only built from a TracedConfig")
}

/// A model that times each `run_layer` of the model it wraps.
struct TracedModel {
    inner: Box<dyn Accelerator + Send>,
    config: TracedConfig,
}

impl Accelerator for TracedModel {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn set_intra_workers(&mut self, workers: usize) {
        self.inner.set_intra_workers(workers);
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let config = &self.config;
        let open = config.tracer.open(config.parent, config.op, config.pass);
        let report = self.inner.run_layer(layer);
        let accesses = report.stats.cache.accesses();
        config
            .tracer
            .close(open, config.span_name.clone(), Some(accesses));
        report
    }
}

/// Registers the traced wrapper in the process-global catalog (once).
fn register_traced_model() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // Resolve the builtin names first: the default-config factory
        // below looks LoAS up from inside a catalog read.
        let _ = AcceleratorSpec::known_models();
        let entry = ModelEntry::new(
            TRACED_MODEL,
            "times run_layer of the wrapped model",
            0x7ace,
            || {
                Box::new(TracedConfig::wrap(
                    AcceleratorSpec::loas(),
                    Tracer::new(),
                    None,
                    0,
                    0,
                ))
            },
            |config| {
                let config = traced_config(config).clone();
                Box::new(TracedModel {
                    inner: config.entry.build(config.inner.config()),
                    config,
                })
            },
        )
        .hash_config_always()
        .wants_fine_tuned(|config| {
            let config = traced_config(config);
            config.entry.config_wants_fine_tuned(config.inner.config())
        });
        catalog::register(entry).expect("the traced wrapper registers once");
    });
}

/// The campaign with every job's model wrapped: job `j` records its
/// `run_layer` span under op `first_op + j`, parented on `parent`.
pub fn traced_campaign(
    campaign: &Campaign,
    tracer: &Arc<Tracer>,
    parent: usize,
    first_op: u64,
    pass: usize,
) -> Campaign {
    register_traced_model();
    let mut traced = Campaign::new(campaign.name.clone());
    for (index, job) in campaign.jobs().iter().enumerate() {
        let config = TracedConfig::wrap(
            job.accelerator.clone(),
            Arc::clone(tracer),
            Some(parent),
            first_op + index as u64,
            pass,
        );
        traced.push(JobSpec {
            accelerator: AcceleratorSpec::from_config(config),
            ..job.clone()
        });
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            pass: 0,
            name: String::new(),
            start,
            end,
            count: None,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 5.0),
            span(3, Some(0), 8.0, 12.0),
        ];
        let times = self_times(&spans);
        assert!((times[&0] - 4.0).abs() < 1e-12, "{}", times[&0]);
        assert!((times[&1] - 3.0).abs() < 1e-12);
    }
}
