//! Serving acceptance tests: shard/merge determinism across shard counts,
//! warm-store replay fidelity, and queue lifecycle end to end.

use loas_engine::{AcceleratorSpec, Campaign, Engine, WorkloadSpec};
use loas_serve::spec_io::campaign_to_json;
use loas_serve::{drain, merge, CampaignState, Queue, RunOptions, ShardSpec};
use loas_workloads::{LayerShape, SparsityProfile};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "loas-serve-acceptance-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A mixed-fleet campaign: 3 distinct small workloads (two seeds) x the
/// full 7-model fleet, 21 jobs.
fn mixed_fleet_campaign() -> Campaign {
    let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
    let mut campaign = Campaign::new("mixed-fleet");
    let layers = [
        WorkloadSpec::new("serve-a", LayerShape::new(4, 6, 8, 96), profile).with_seed(1),
        WorkloadSpec::new("serve-b", LayerShape::new(4, 8, 8, 64), profile).with_seed(2),
        WorkloadSpec::new("serve-c", LayerShape::new(4, 4, 8, 96), profile).with_seed(1),
    ];
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    campaign
}

fn options(shard: ShardSpec, use_store: bool) -> RunOptions {
    RunOptions {
        shard,
        workers: 2,
        use_store,
        cache_capacity: None,
    }
}

#[test]
fn any_sharding_merges_byte_identical_to_unsharded_run() {
    let campaign = mixed_fleet_campaign();
    let spec = campaign_to_json(&campaign);
    // The memoless engine reference: what one process computes directly.
    let reference = Engine::new(2).run(&campaign).unwrap().jsonl();

    for shards in [1usize, 2, 3, 5] {
        let root = temp_root(&format!("shards-{shards}"));
        let queue = Queue::init(&root).unwrap();
        let id = queue.enqueue(&spec).unwrap().id;
        // Each rank drains with its own engine and memo store view — the
        // in-process analogue of N separate runner processes (the ci.sh
        // smoke test covers genuinely separate processes).
        for rank in 0..shards {
            let summary = drain(
                &queue,
                &options(
                    ShardSpec {
                        rank,
                        count: shards,
                    },
                    true,
                ),
                |_| {},
            )
            .unwrap();
            assert_eq!(summary.campaigns, 1, "{shards}-way rank {rank}");
        }
        if shards == 1 {
            assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        } else {
            assert_eq!(
                queue.state(id).unwrap(),
                CampaignState::Queued,
                "sharded campaigns stay queued until merged"
            );
            let merged_jobs = merge(&queue, id, shards).unwrap();
            assert_eq!(merged_jobs, campaign.len());
        }
        let report = std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
        assert_eq!(report, reference, "{shards}-way merge diverged");
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn warm_memo_store_yields_full_hits_and_identical_report() {
    let root = temp_root("warm-memo");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());

    let cold_id = queue.enqueue(&spec).unwrap().id;
    let cold = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(cold.memo_hits, 0);
    assert_eq!(cold.simulated, 21);

    // Resubmission against the warm store: 100% hits, zero simulations,
    // zero workload generations, byte-identical report.
    let warm_id = queue.enqueue(&spec).unwrap().id;
    let warm = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(warm.memo_hits, 21, "every job replayed from the store");
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.generated, 0);
    let read =
        |id: u64| std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
    assert_eq!(read(cold_id), read(warm_id));

    // An overlapping campaign (one novel job appended) only simulates the
    // novelty.
    let mut extended = mixed_fleet_campaign();
    let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
    extended.push_layer(
        WorkloadSpec::new("serve-novel", LayerShape::new(4, 4, 8, 64), profile).with_seed(3),
        AcceleratorSpec::loas(),
    );
    queue.enqueue(&campaign_to_json(&extended)).unwrap();
    let overlap = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(overlap.memo_hits, 21);
    assert_eq!(overlap.simulated, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_runs_share_the_memo_store_with_unsharded_runs() {
    let root = temp_root("shared-store");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());

    // Warm the store with a 2-way sharded run...
    let first = queue.enqueue(&spec).unwrap().id;
    for rank in 0..2 {
        drain(&queue, &options(ShardSpec { rank, count: 2 }, true), |_| {}).unwrap();
    }
    merge(&queue, first, 2).unwrap();

    // ...then a single-process resubmission replays everything.
    let second = queue.enqueue(&spec).unwrap().id;
    let warm = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(warm.memo_hits, 21);
    assert_eq!(warm.simulated, 0);
    let read =
        |id: u64| std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
    assert_eq!(read(first), read(second));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn campaigns_enqueued_mid_pass_are_picked_up_by_the_same_drain() {
    let root = temp_root("mid-pass");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());
    queue.enqueue(&spec).unwrap();
    // Enqueue a second campaign from inside the progress callback of the
    // first — i.e. while the runner is mid-pass.
    let queue_again = queue.clone();
    let spec_again = spec.clone();
    let mut enqueued = false;
    let summary = drain(&queue, &options(ShardSpec::default(), true), |_| {
        if !enqueued {
            queue_again.enqueue(&spec_again).unwrap();
            enqueued = true;
        }
    })
    .unwrap();
    assert_eq!(
        summary.campaigns, 2,
        "the drain pass picked up the mid-pass submission"
    );
    assert_eq!(queue.state(2).unwrap(), CampaignState::Done);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn merge_refuses_incomplete_shard_sets() {
    let root = temp_root("incomplete");
    let queue = Queue::init(&root).unwrap();
    let id = queue
        .enqueue(&campaign_to_json(&mixed_fleet_campaign()))
        .unwrap()
        .id;
    drain(
        &queue,
        &options(ShardSpec { rank: 0, count: 2 }, true),
        |_| {},
    )
    .unwrap();
    let error = merge(&queue, id, 2).unwrap_err().to_string();
    assert!(error.contains("shard 1/2"), "{error}");
    assert_eq!(queue.state(id).unwrap(), CampaignState::Queued);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_enqueues_get_distinct_ids() {
    let root = temp_root("concurrent-enqueue");
    Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());
    let barrier = std::sync::Barrier::new(8);
    let mut ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    Queue::open(&root).unwrap().enqueue(&spec).unwrap().id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8, "ids collided: {ids:?}");

    let queue = Queue::open(&root).unwrap();
    let specs = std::fs::read_dir(root.join("specs")).unwrap().count();
    assert_eq!(specs, 8, "one spec file per submission");
    let logged: Vec<u64> = queue.submissions().unwrap().iter().map(|s| s.id).collect();
    assert_eq!(logged, ids, "one log line per submission, read in id order");
    for id in ids {
        assert_eq!(queue.spec_text(id).unwrap(), spec);
    }
    let _ = std::fs::remove_dir_all(&root);
}
