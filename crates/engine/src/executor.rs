//! The campaign executor: a shard-per-worker thread pool over `std::thread`
//! and channels, with deterministic ordered result streaming.
//!
//! Scheduling is dynamic (workers claim the next job off a shared atomic
//! counter, so long jobs never serialize behind short ones) but results are
//! emitted to the sink in job-submission order, which makes campaign output
//! — including the serialized report stream — byte-identical for any worker
//! count.
//!
//! There is no separate preparation phase: each job resolves its own
//! prepared layer through the engine's [`PreparedCache`] just before it
//! builds its model, so the first job of a layer prepares it and a job
//! whose layer is ready starts at once. A worker whose layer another
//! worker is preparing does not wait idle: it prepares the next base
//! layer a later job needs and then goes back to its own, so the pool
//! still prepares different layers at once when consecutive jobs share
//! one. A fine-tuned layer is derived from its
//! base ([`PreparedLayer::fine_tuned`]), which resolves through the cache
//! the same way.

use crate::cache::{PreparedCache, PreparedCacheStats};
use crate::memo::ResultStore;
use crate::report::{CampaignOutcome, JobRecord};
use crate::spec::{Campaign, WorkloadSpec};
use loas_core::{LayerReport, PreparedLayer};
use loas_workloads::WorkloadError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

/// Errors surfaced while executing a campaign.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A workload spec could not be generated (infeasible profile).
    Workload {
        /// Name of the failing workload spec.
        workload: String,
        /// The underlying generator error.
        source: WorkloadError,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Workload { workload, source } => {
                write!(f, "cannot generate workload `{workload}`: {source}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Workload { source, .. } => Some(source),
        }
    }
}

/// The deterministic multi-threaded campaign runner.
///
/// An engine owns a [`PreparedCache`] that persists across campaigns, so a
/// sequence of campaigns sharing workloads (the typical figure-regeneration
/// session) generates each unique workload once.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    cache: PreparedCache,
}

impl Default for Engine {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Engine::new(default_workers())
    }
}

/// The number of worker threads [`Engine::default`] uses: the
/// `LOAS_WORKERS` environment variable when set to a positive integer
/// (letting daemons and CI pin parallelism without plumbing flags),
/// otherwise one per available hardware thread.
pub fn default_workers() -> usize {
    if let Some(pinned) = pinned_workers(std::env::var("LOAS_WORKERS").ok().as_deref()) {
        return pinned;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Interprets a `LOAS_WORKERS` value: positive integers pin the worker
/// count, anything else (absent, unparsable, zero) falls through to the
/// hardware default.
fn pinned_workers(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|value| value.parse::<usize>().ok())
        .filter(|&workers| workers >= 1)
}

/// Intra-layer worker share per job: the engine budget divided by the
/// job-level threads actually spawned, at least 1. With more jobs than
/// budget every job runs its pure phase inline; a 1-job campaign on an
/// 8-worker engine sweeps its row tiles on all 8.
fn intra_share(budget: usize, job_workers: usize) -> usize {
    (budget / job_workers.max(1)).max(1)
}

impl Engine {
    /// An engine with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            cache: PreparedCache::new(),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reconfigures the worker count (clamped to at least 1). The cache is
    /// unaffected.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Lifetime cache counters.
    pub fn cache_stats(&self) -> PreparedCacheStats {
        self.cache.stats()
    }

    /// Rebounds the prepared-layer cache to at most `capacity` entries
    /// (LRU eviction; clamped to at least 1), evicting immediately if the
    /// cache is over the new bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Prepares (generating in parallel where missing) the given workload
    /// specs and returns their shared layers in input order.
    ///
    /// # Errors
    ///
    /// Returns the first (by spec order) generation failure.
    pub fn prepare(&self, specs: &[WorkloadSpec]) -> Result<Vec<Arc<PreparedLayer>>, EngineError> {
        let next = AtomicUsize::new(0);
        let resolved: Vec<OnceLock<Result<Arc<PreparedLayer>, EngineError>>> =
            specs.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(specs.len()) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(index) else {
                        break;
                    };
                    let _ = resolved[index].set(self.layer(spec));
                });
            }
        });
        resolved
            .into_iter()
            .map(|layer| layer.into_inner().expect("every spec resolved"))
            .collect()
    }

    /// The prepared layer of one spec, through the cache: generated on the
    /// first use of its key, shared afterwards. A fine-tuned spec derives
    /// from its base's layer, which resolves (and is cached) the same way.
    fn layer(&self, spec: &WorkloadSpec) -> Result<Arc<PreparedLayer>, EngineError> {
        self.cache
            .get_or_prepare(&spec.key(), || self.prepare_layer(spec))
    }

    fn prepare_layer(&self, spec: &WorkloadSpec) -> Result<PreparedLayer, EngineError> {
        if spec.fine_tuned {
            Ok(self.layer(&spec.base())?.fine_tuned())
        } else {
            spec.prepare().map_err(|source| EngineError::Workload {
                workload: spec.name.clone(),
                source,
            })
        }
    }

    /// Runs a campaign to completion.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-id job whose workload cannot be
    /// generated.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignOutcome, EngineError> {
        self.run_streaming(campaign, |_| {})
    }

    /// Runs a campaign, invoking `sink` with each completed [`JobRecord`]
    /// **in job-submission order** as soon as that prefix of the campaign
    /// has finished. This is the streaming serialization hook: writing
    /// `record.to_json()` lines from the sink yields an incrementally
    /// flushed yet fully deterministic report stream.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-id job whose workload cannot be
    /// generated; the sink has then seen exactly the records before that
    /// job, at any worker count.
    pub fn run_streaming(
        &self,
        campaign: &Campaign,
        sink: impl FnMut(&JobRecord),
    ) -> Result<CampaignOutcome, EngineError> {
        self.run_where(campaign, None, None, sink)
    }

    /// The fully general campaign entry point: runs an optional **subset**
    /// of the campaign's jobs against an optional **result store**.
    ///
    /// * `selection` — job ids to execute (`None` = all). Ids are
    ///   deduplicated and sorted; records stream and aggregate in ascending
    ///   **original** job-id order, so shard reports from disjoint
    ///   selections merge by id into the exact single-process report.
    /// * `store` — a [`ResultStore`] consulted per job before scheduling:
    ///   hits replay the memoized [`LayerReport`] without preparing the
    ///   workload or simulating, and every freshly simulated result is
    ///   written back. [`CampaignOutcome::memo_hits`] /
    ///   [`CampaignOutcome::simulated`] report the split.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-id selected job whose workload
    /// cannot be generated. The sink has then seen exactly the records
    /// before that job, at any worker count; jobs after it that are not
    /// yet claimed never run.
    pub fn run_where(
        &self,
        campaign: &Campaign,
        selection: Option<&[usize]>,
        store: Option<&dyn ResultStore>,
        mut sink: impl FnMut(&JobRecord),
    ) -> Result<CampaignOutcome, EngineError> {
        let start = Instant::now();
        let stats_before = self.cache.stats();
        let jobs = campaign.jobs();
        let selected: Vec<usize> = match selection {
            Some(ids) => {
                let mut ids: Vec<usize> =
                    ids.iter().copied().filter(|&id| id < jobs.len()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            None => (0..jobs.len()).collect(),
        };

        // Memo resolution: replayed jobs skip workload preparation and
        // simulation entirely.
        let mut replayed: Vec<(usize, LayerReport)> = Vec::new();
        let mut to_run: Vec<usize> = Vec::new();
        for &index in &selected {
            let job = &jobs[index];
            match store.and_then(|s| s.load(job.memo_key())) {
                // Cross-check the stored identity against the job: a
                // 64-bit digest collision (or a store populated under a
                // different naming scheme) must read as a miss, never
                // silently substitute another job's metrics.
                Some(report)
                    if report.workload == job.workload.reported_name()
                        && report.accelerator == job.accelerator.display_name() =>
                {
                    replayed.push((index, report));
                }
                _ => to_run.push(index),
            }
        }
        let memo_hits = replayed.len();

        // The first use of each key not cached yet, in job order. A job
        // resolution counts as a cache hit only when its key did not have
        // to be generated for this campaign: jobs beyond the first use of a
        // fresh key, plus every use of keys cached by earlier campaigns.
        let mut seen = std::collections::HashSet::new();
        let fresh: Vec<&WorkloadSpec> = to_run
            .iter()
            .map(|&index| &jobs[index].workload)
            .filter(|spec| {
                let key = spec.key();
                !self.cache.contains(&key) && seen.insert(key)
            })
            .collect();
        // Their base layers, the costly part, which a worker prepares ahead
        // of its job while another worker prepares the job's layer.
        let bases: Vec<WorkloadSpec> = fresh.iter().map(|spec| spec.base()).collect();
        let ahead = AtomicUsize::new(0);

        let next = AtomicUsize::new(0);
        // The lowest position whose layer failed: jobs after it are not
        // started, since their records could never be emitted (every job
        // before it was claimed earlier and still runs).
        let failed_at = AtomicUsize::new(usize::MAX);
        let (sender, receiver) = mpsc::channel::<(usize, JobResult)>();
        let workers = self.workers.min(to_run.len().max(1));
        // Split the engine's worker budget between job-level and
        // intra-layer parallelism: campaigns with fewer jobs than budget
        // (the tail of a sharded sweep, or one huge layer) hand the spare
        // workers to each model's pure compute phase. Reports are
        // byte-identical for any split (models guarantee it).
        let intra_workers = intra_share(self.workers, workers);
        let mut prepare_seconds = 0.0;
        let mut failure: Option<(usize, EngineError)> = None;
        let records = std::thread::scope(|scope| {
            for _ in 0..workers {
                let sender = sender.clone();
                let (next, failed_at, to_run) = (&next, &failed_at, &to_run);
                let (ahead, bases) = (&ahead, &bases);
                scope.spawn(move || loop {
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = to_run.get(position) else {
                        break;
                    };
                    if position > failed_at.load(Ordering::Relaxed) {
                        break;
                    }
                    let job_start = Instant::now();
                    let spec = &jobs[index].workload;
                    let key = spec.key();
                    while self.cache.is_preparing(&key) {
                        match bases.get(ahead.fetch_add(1, Ordering::Relaxed)) {
                            Some(base) => self
                                .cache
                                .prepare_if_absent(&base.key(), || self.prepare_layer(base)),
                            None => break,
                        }
                    }
                    let result = self.layer(spec).map(|layer| {
                        let prepare_seconds = job_start.elapsed().as_secs_f64();
                        let sim_start = Instant::now();
                        let mut model = jobs[index].accelerator.build();
                        model.set_intra_workers(intra_workers);
                        let report = model.run_layer(&layer);
                        (report, prepare_seconds, sim_start.elapsed().as_secs_f64())
                    });
                    if result.is_err() {
                        failed_at.fetch_min(position, Ordering::Relaxed);
                    }
                    if sender.send((index, result)).is_err() {
                        break;
                    }
                });
            }
            drop(sender);

            // Ordered streaming over the selected sequence: memoized
            // results seed the reorder buffer, fresh completions join as
            // they arrive, and the ready prefix is emitted in ascending
            // original-job-id order. A failed job never enters the buffer,
            // so emission stops right before it.
            let make_record = |index: usize, report: LayerReport, sim_seconds: f64| {
                let job = &jobs[index];
                JobRecord {
                    job: index,
                    label: job.label.clone(),
                    network: job.network.clone(),
                    layer_index: job.layer_index,
                    report,
                    sim_seconds,
                }
            };
            let mut pending: BTreeMap<usize, JobRecord> = std::mem::take(&mut replayed)
                .into_iter()
                .map(|(index, report)| (index, make_record(index, report, 0.0)))
                .collect();
            let mut records: Vec<JobRecord> = Vec::with_capacity(selected.len());
            let mut emit_ready = |pending: &mut BTreeMap<usize, JobRecord>,
                                  records: &mut Vec<JobRecord>| {
                while let Some(record) = selected
                    .get(records.len())
                    .and_then(|index| pending.remove(index))
                {
                    sink(&record);
                    records.push(record);
                }
            };
            emit_ready(&mut pending, &mut records);
            for (index, result) in receiver {
                match result {
                    Ok((report, job_prepare_seconds, sim_seconds)) => {
                        prepare_seconds += job_prepare_seconds;
                        if let Some(store) = store {
                            store.store(jobs[index].memo_key(), &report);
                        }
                        pending.insert(index, make_record(index, report, sim_seconds));
                        emit_ready(&mut pending, &mut records);
                    }
                    Err(error) => {
                        if failure.as_ref().is_none_or(|(first, _)| index < *first) {
                            failure = Some((index, error));
                        }
                    }
                }
            }
            records
        });
        if let Some((_, error)) = failure {
            return Err(error);
        }
        debug_assert_eq!(records.len(), selected.len());

        let stats_after = self.cache.stats();
        Ok(CampaignOutcome {
            campaign: campaign.name.clone(),
            workers: self.workers,
            records,
            wall_seconds: start.elapsed().as_secs_f64(),
            prepare_seconds,
            workloads_generated: stats_after.generated - stats_before.generated,
            cache_hits: to_run.len().saturating_sub(fresh.len()),
            memo_hits,
            simulated: to_run.len(),
        })
    }
}

/// What a worker reports for one job: the simulated report with its
/// layer-resolution and simulation seconds, or the layer's error.
type JobResult = Result<(LayerReport, f64, f64), EngineError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AcceleratorSpec;
    use loas_workloads::{LayerShape, SparsityProfile};

    fn small(name: &str) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            LayerShape::new(4, 6, 8, 96),
            SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap(),
        )
    }

    #[test]
    fn streaming_sink_sees_jobs_in_submission_order() {
        let engine = Engine::new(4);
        let mut campaign = Campaign::new("order");
        for accelerator in AcceleratorSpec::headline_fleet() {
            campaign.push_layer(small("order-w"), accelerator);
        }
        let mut seen = Vec::new();
        let outcome = engine
            .run_streaming(&campaign, |record| seen.push(record.job))
            .unwrap();
        assert_eq!(seen, (0..campaign.len()).collect::<Vec<_>>());
        assert_eq!(outcome.records.len(), campaign.len());
        assert!(outcome.wall_seconds > 0.0);
    }

    #[test]
    fn infeasible_profile_surfaces_as_error() {
        let engine = Engine::new(2);
        let mut campaign = Campaign::new("bad");
        // silent+FT below silent-only is inconsistent in any firing model
        // with these densities; profile construction succeeds but the
        // firing-model solve at T=1 cannot (density too high for 1 step).
        let profile = SparsityProfile::from_percentages(1.0, 50.0, 55.0, 98.0);
        if let Ok(profile) = profile {
            let spec = WorkloadSpec::new("bad", LayerShape::new(1, 4, 4, 16), profile);
            if spec.prepare().is_err() {
                campaign.push_layer(spec, AcceleratorSpec::loas());
                let error = engine.run(&campaign).unwrap_err();
                assert!(error.to_string().contains("bad"));
            }
        }
    }

    #[test]
    fn loas_workers_override_parsing() {
        // The env read itself is a one-liner; the interpretation rules are
        // what need pinning (and testing them via set_var would race the
        // parallel test harness).
        assert_eq!(pinned_workers(Some("3")), Some(3));
        assert_eq!(pinned_workers(Some("1")), Some(1));
        assert_eq!(pinned_workers(Some("0")), None, "zero is rejected");
        assert_eq!(pinned_workers(Some("not-a-number")), None);
        assert_eq!(pinned_workers(Some("")), None);
        assert_eq!(pinned_workers(None), None);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn intra_share_splits_the_budget() {
        assert_eq!(intra_share(8, 8), 1, "budget fully spent on jobs");
        assert_eq!(intra_share(8, 2), 4, "spare budget goes intra-layer");
        assert_eq!(intra_share(8, 1), 8, "single job gets everything");
        assert_eq!(intra_share(1, 1), 1);
        assert_eq!(intra_share(0, 0), 1, "degenerate inputs clamp to 1");
    }

    #[test]
    fn intra_worker_budgets_leave_campaign_output_byte_identical() {
        // The same campaign with wildly different worker budgets (and
        // therefore different intra-layer shares) must serialize
        // identically — the engine's determinism contract extended to the
        // two-phase kernels.
        let mut campaign = Campaign::new("intra-det");
        for accelerator in AcceleratorSpec::headline_fleet() {
            campaign.push_layer(small("intra-w"), accelerator);
        }
        let golden = Engine::new(1).run(&campaign).unwrap().jsonl();
        for workers in [2usize, 5] {
            let outcome = Engine::new(workers).run(&campaign).unwrap();
            assert_eq!(outcome.jsonl(), golden, "workers={workers}");
        }
    }

    #[test]
    fn empty_campaign_completes_trivially() {
        let engine = Engine::new(3);
        let outcome = engine.run(&Campaign::new("empty")).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.jsonl(), "");
    }
}
