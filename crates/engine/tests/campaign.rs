//! Engine acceptance tests: campaign determinism across worker counts,
//! exactly-once workload preparation, and network-level aggregation
//! equivalence with direct accelerator runs.

use loas_core::Accelerator;
use loas_engine::{AcceleratorSpec, Campaign, Engine, WorkloadSpec};
use loas_workloads::networks;
use loas_workloads::{LayerShape, SparsityProfile};

fn profile() -> SparsityProfile {
    SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap()
}

fn small_layer(name: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(name, LayerShape::new(4, 8, 16, 192), profile()).with_seed(seed)
}

/// A small but heterogeneous campaign: 3 workloads x the full 7-model
/// fleet, with distinct seeds on two of the workloads.
fn mixed_campaign() -> Campaign {
    let mut campaign = Campaign::new("mixed");
    let layers = [
        small_layer("det-a", 1),
        small_layer("det-b", 2),
        small_layer("det-c", loas_engine::DEFAULT_SEED),
    ];
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    campaign
}

/// The acceptance gate of the two-phase kernel PR: the full headline
/// campaign — 7 accelerators x the 4 selected Table II layers — produces
/// byte-identical portable `LayerReport`s for intra-layer worker counts
/// {1, 2, 4}, job by job.
#[test]
fn headline_campaign_is_byte_identical_across_intra_worker_counts() {
    let mut campaign = Campaign::new("headline-intra");
    let layers: Vec<WorkloadSpec> = networks::selected_layers()
        .iter()
        .map(WorkloadSpec::from_layer)
        .collect();
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    assert_eq!(campaign.len(), 7 * 4);

    let engine = Engine::new(2);
    let prepared: Vec<_> = campaign
        .jobs()
        .iter()
        .map(|job| {
            engine
                .prepare(std::slice::from_ref(&job.workload))
                .unwrap()
                .remove(0)
        })
        .collect();
    for (job, layer) in campaign.jobs().iter().zip(&prepared) {
        let golden = {
            let mut model = job.accelerator.build();
            model.set_intra_workers(1);
            model.run_layer(layer).to_portable()
        };
        for intra in [2usize, 4] {
            let mut model = job.accelerator.build();
            model.set_intra_workers(intra);
            assert_eq!(
                model.run_layer(layer).to_portable(),
                golden,
                "{} diverges at {intra} intra workers",
                job.label
            );
        }
    }
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let campaign = mixed_campaign();
    let serial = Engine::new(1).run(&campaign).unwrap();
    let parallel = Engine::new(4).run(&campaign).unwrap();
    let wide = Engine::new(13).run(&campaign).unwrap();
    assert_eq!(serial.records.len(), campaign.len());
    let reference = serial.jsonl();
    assert!(!reference.is_empty());
    assert_eq!(reference, parallel.jsonl(), "1 vs 4 workers diverged");
    assert_eq!(reference, wide.jsonl(), "1 vs 13 workers diverged");
    for record in &serial.records {
        if let Err(violation) = record.report.check_invariants() {
            panic!("job {} (`{}`): {violation}", record.job, record.label);
        }
    }
    // Network grouping and summaries derive from the same records; spot
    // check cycles line up job by job.
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.job, b.job);
        assert_eq!(a.report.stats.cycles, b.report.stats.cycles);
        assert_eq!(a.report.energy.total_pj(), b.report.energy.total_pj());
    }
}

#[test]
fn each_unique_workload_key_is_generated_exactly_once() {
    let campaign = mixed_campaign();
    // 3 plain + 3 fine-tuned variants (LoAS-FT asks for masked workloads).
    let unique = campaign.unique_workloads().len();
    assert_eq!(unique, 6);

    let engine = Engine::new(4);
    let outcome = engine.run(&campaign).unwrap();
    assert_eq!(outcome.workloads_generated, unique);
    assert_eq!(engine.cache_stats().generated, unique);
    assert_eq!(engine.cache_stats().entries, unique);
    // Each fresh key is "missed" once; all other jobs share a preparation.
    assert_eq!(outcome.cache_hits, campaign.len() - unique);

    // Re-running the same campaign on the same engine generates nothing:
    // every job is a cache hit.
    let again = engine.run(&campaign).unwrap();
    assert_eq!(again.workloads_generated, 0);
    assert_eq!(again.cache_hits, campaign.len());
    assert_eq!(engine.cache_stats().generated, unique);
    assert_eq!(again.jsonl(), outcome.jsonl());
}

#[test]
fn network_aggregation_matches_direct_run() {
    let mut spec = networks::alexnet();
    for layer in &mut spec.layers {
        layer.shape.m = layer.shape.m.clamp(1, 8);
        layer.shape.n = layer.shape.n.min(16);
        layer.shape.k = layer.shape.k.min(256);
    }
    let mut campaign = Campaign::new("network");
    campaign.push_network(&spec, AcceleratorSpec::loas(), loas_engine::DEFAULT_SEED);
    let outcome = Engine::new(4).run(&campaign).unwrap();

    let reports = outcome.network_reports();
    assert_eq!(reports.len(), 1);
    let engine_report = &reports[0];
    assert_eq!(engine_report.network, spec.name);
    assert_eq!(engine_report.layers.len(), spec.depth());

    // Direct reference: generate + prepare + run the same layers inline.
    let generator = loas_workloads::WorkloadGenerator::default();
    let layers: Vec<loas_core::PreparedLayer> = spec
        .generate(&generator)
        .unwrap()
        .iter()
        .map(loas_core::PreparedLayer::new)
        .collect();
    let direct = loas_core::Loas::default().run_network(&spec.name, &layers);
    assert_eq!(engine_report.total_cycles(), direct.total_cycles());
    assert_eq!(
        engine_report.total_energy().total_pj(),
        direct.total_energy().total_pj()
    );
}

#[test]
fn boxed_fleet_runs_through_the_accelerator_trait() {
    // The enum dispatcher builds boxed trait objects usable wherever the
    // trait is expected — the seam heterogeneous fleets rely on.
    let layer = small_layer("boxed", 3).prepare().unwrap();
    let mut fleet: Vec<Box<dyn Accelerator + Send>> = AcceleratorSpec::headline_fleet()
        .iter()
        .map(AcceleratorSpec::build)
        .collect();
    let mut names = Vec::new();
    for model in &mut fleet {
        let report = model.run_layer(&layer);
        assert!(report.stats.cycles.get() > 0);
        names.push(model.name());
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 7, "each fleet member reports a distinct name");
}

#[test]
fn subset_runs_partition_and_merge_byte_identically() {
    let campaign = mixed_campaign();
    let full = Engine::new(3).run(&campaign).unwrap();
    let reference = full.jsonl();

    // Round-robin shards: job i belongs to shard (i % n). Each shard runs
    // on its own engine (separate caches, like separate processes); lines
    // keep original job ids, so interleaving by id rebuilds the reference.
    for shards in [1usize, 2, 3, 5] {
        let mut lines: Vec<Option<String>> = vec![None; campaign.len()];
        for rank in 0..shards {
            let ids: Vec<usize> = (0..campaign.len()).filter(|i| i % shards == rank).collect();
            let engine = Engine::new(2);
            let outcome = engine
                .run_where(&campaign, Some(&ids), None, |_| {})
                .unwrap();
            assert_eq!(outcome.records.len(), ids.len());
            assert_eq!(outcome.simulated, ids.len());
            for record in &outcome.records {
                assert!(lines[record.job].replace(record.to_json()).is_none());
            }
        }
        let merged: String = lines
            .into_iter()
            .map(|line| line.expect("every job covered by exactly one shard") + "\n")
            .collect();
        assert_eq!(merged, reference, "{shards}-way shard merge diverged");
    }
}

#[test]
fn memo_store_replays_warm_campaigns_without_simulating() {
    let dir = std::env::temp_dir().join(format!("loas-engine-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = loas_engine::MemoStore::open(&dir).unwrap();
    let campaign = mixed_campaign();

    let cold_engine = Engine::new(4);
    let cold = cold_engine
        .run_where(&campaign, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(cold.memo_hits, 0);
    assert_eq!(cold.simulated, campaign.len());
    assert_eq!(store.len(), campaign.len(), "every result persisted");

    // A fresh engine (fresh prepared cache — a new process in miniature)
    // replays everything from the store: zero generations, zero jobs
    // simulated, byte-identical report.
    let warm_engine = Engine::new(4);
    let warm = warm_engine
        .run_where(&campaign, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(warm.memo_hits, campaign.len());
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.workloads_generated, 0);
    assert_eq!(warm_engine.cache_stats().generated, 0);
    assert_eq!(warm.jsonl(), cold.jsonl());

    // Overlapping campaign: half the jobs known, half novel.
    let mut extended = mixed_campaign();
    extended.push_layer(small_layer("novel", 9), AcceleratorSpec::loas());
    let mixed = Engine::new(4)
        .run_where(&extended, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(mixed.memo_hits, campaign.len());
    assert_eq!(mixed.simulated, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// The `LOAS_WORKERS` override rules are unit-tested against the pure
// parser in `executor.rs` (`loas_workers_override_parsing`); mutating the
// process environment here would race the parallel test harness.

#[test]
fn tiny_cache_capacity_still_completes_and_matches() {
    // Regression: a cache cap below the campaign's unique-workload count
    // (including the FT-derived second wave) must degrade to regeneration,
    // not panic, and must not change the report bytes.
    let campaign = mixed_campaign();
    let reference = Engine::new(2).run(&campaign).unwrap().jsonl();
    let tiny = Engine::new(2);
    tiny.set_cache_capacity(1);
    let outcome = tiny.run(&campaign).unwrap();
    assert_eq!(outcome.jsonl(), reference);
    assert!(tiny.cache_stats().evictions > 0, "the cap actually engaged");
    // The standalone prepare path survives a tiny cache too.
    let specs: Vec<loas_engine::WorkloadSpec> = campaign.unique_workloads();
    let layers = tiny.prepare(&specs).unwrap();
    assert_eq!(layers.len(), specs.len());
}

#[test]
fn first_record_streams_before_the_campaign_is_prepared() {
    // Each job prepares its own layer, so on one worker job 0 reaches the
    // sink while later layers are still ungenerated.
    let mut campaign = Campaign::new("streaming");
    for seed in 0..12 {
        campaign.push_layer(
            WorkloadSpec::new(
                format!("stream-{seed}"),
                LayerShape::new(4, 16, 32, 768),
                profile(),
            )
            .with_seed(seed),
            AcceleratorSpec::loas(),
        );
    }
    let unique = campaign.unique_workloads().len();
    assert_eq!(unique, 12);
    let engine = Engine::new(1);
    let mut generated_at_first = None;
    engine
        .run_streaming(&campaign, |record| {
            if record.job == 0 {
                generated_at_first = Some(engine.cache_stats().generated);
            }
        })
        .unwrap();
    let generated_at_first = generated_at_first.expect("job 0 streamed");
    assert!(
        generated_at_first < unique,
        "job 0 waited for {generated_at_first} of {unique} preparations"
    );
    assert_eq!(engine.cache_stats().generated, unique);
}

#[test]
fn a_failing_job_stops_the_stream_right_before_it() {
    // Dense spikes with mostly silent neurons cannot be realised at T=2.
    let infeasible = WorkloadSpec::new(
        "infeasible",
        LayerShape::new(2, 4, 4, 16),
        SparsityProfile::from_percentages(1.0, 50.0, 55.0, 98.0).unwrap(),
    );
    assert!(infeasible.prepare().is_err());
    let mut campaign = Campaign::new("good-bad-good");
    campaign.push_layer(small_layer("good-a", 1), AcceleratorSpec::loas());
    campaign.push_layer(infeasible, AcceleratorSpec::loas());
    campaign.push_layer(small_layer("good-b", 2), AcceleratorSpec::loas());
    for workers in [1usize, 3] {
        let engine = Engine::new(workers);
        let mut seen = Vec::new();
        let error = engine
            .run_streaming(&campaign, |record| seen.push(record.job))
            .unwrap_err();
        assert_eq!(seen, vec![0], "workers={workers}");
        assert!(
            error.to_string().contains("`infeasible`"),
            "workers={workers}: {error}"
        );
        if workers == 1 {
            // The job after the failure is never started, so its layer is
            // never prepared.
            assert_eq!(engine.cache_stats().generated, 1);
        }
    }
}

#[test]
fn fine_tuned_jobs_prepare_their_base_once() {
    let mut campaign = Campaign::new("ft-only");
    let layers = [
        small_layer("ft-a", 1),
        small_layer("ft-b", 2),
        small_layer("ft-c", 3),
    ];
    campaign.push_product(&layers, &[AcceleratorSpec::loas_ft()]);
    let engine = Engine::new(4);
    let outcome = engine.run(&campaign).unwrap();
    // Each layer's base is generated once and its FT variant derived once.
    assert_eq!(engine.cache_stats().generated, 2 * layers.len());
    assert_eq!(outcome.workloads_generated, 2 * layers.len());
    assert_eq!(outcome.records.len(), layers.len());
}
