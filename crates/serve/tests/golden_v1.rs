//! Golden v1 compatibility gate: the committed pre-redesign spec must
//! keep parsing under the catalog-based API with byte-identical memo
//! keys and a byte-identical campaign report.
//!
//! The three fixtures under `tests/golden/` were captured from the
//! pre-catalog build (PR 3): the spec is the exact output of
//! `loas-serve spec --headline --quick`, the memo keys are each job's
//! `JobSpec::memo_key()` hex digest, and the report is the
//! `report.jsonl` a single-process `loas-serve run` produced. None of
//! the three may ever change — a diff here means warm memo stores and
//! archived reports break.

use loas_core::{Accelerator, PreparedLayer};
use loas_engine::{JobRecord, WorkloadKey};
use loas_serve::spec_io::{campaign_from_json, campaign_to_json};
use std::collections::HashMap;

const GOLDEN_SPEC: &str = include_str!("golden/headline-v1.spec.json");
const GOLDEN_MEMO_KEYS: &str = include_str!("golden/headline-v1.memo-keys.txt");
const GOLDEN_REPORT: &str = include_str!("golden/headline-v1.report.jsonl");

#[test]
fn golden_v1_spec_parses_with_pre_redesign_memo_keys() {
    let campaign = campaign_from_json(GOLDEN_SPEC).expect("v1 schema parses forever");
    assert_eq!(campaign.len(), 28, "7-model fleet x 4 selected layers");
    let keys: Vec<String> = campaign
        .jobs()
        .iter()
        .map(|job| job.memo_key().to_string())
        .collect();
    let golden: Vec<&str> = GOLDEN_MEMO_KEYS.lines().collect();
    assert_eq!(golden.len(), campaign.len());
    for (index, (key, golden)) in keys.iter().zip(&golden).enumerate() {
        assert_eq!(
            key,
            golden,
            "job {index} (`{}`) no longer hashes to its pre-redesign memo key",
            campaign.jobs()[index].label
        );
    }
}

#[test]
fn golden_v1_spec_migrates_to_v2_preserving_identity() {
    // Re-serializing a v1 campaign writes the v2 schema; the migration
    // must preserve every job identity bit for bit.
    let v1 = campaign_from_json(GOLDEN_SPEC).unwrap();
    let v2_text = campaign_to_json(&v1);
    assert!(v2_text.contains("\"version\": 2"));
    let v2 = campaign_from_json(&v2_text).unwrap();
    assert_eq!(v1.name, v2.name);
    assert_eq!(v1.len(), v2.len());
    for (a, b) in v1.jobs().iter().zip(v2.jobs()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.workload.key(), b.workload.key());
        assert_eq!(a.accelerator, b.accelerator);
        assert_eq!(a.memo_key(), b.memo_key());
    }
    // And v2 serialization is already a fixed point.
    assert_eq!(campaign_to_json(&v2), v2_text);
}

#[test]
fn golden_v1_campaign_replays_byte_identically() {
    // The catalog-dispatched models must reproduce the pre-redesign
    // report stream exactly — same cycles, traffic, energy, labels.
    let campaign = campaign_from_json(GOLDEN_SPEC).unwrap();
    let outcome = loas_engine::Engine::new(2)
        .run(&campaign)
        .expect("golden campaign is feasible");
    assert_eq!(
        outcome.jsonl(),
        GOLDEN_REPORT,
        "catalog dispatch diverged from the pre-redesign report"
    );
}

#[test]
fn golden_v1_campaign_replays_byte_identically_on_the_oracle_walks() {
    // Every model's kept oracle walk (pre-kernel scalar sweeps, per-access
    // traffic arithmetic, pre-span cache walks) must reproduce the
    // committed report too, so each fast walk is pinned to the fixture
    // through an independent path.
    let campaign = campaign_from_json(GOLDEN_SPEC).unwrap();
    let mut bases: HashMap<WorkloadKey, PreparedLayer> = HashMap::new();
    let mut lines = String::new();
    for (index, job) in campaign.jobs().iter().enumerate() {
        let base_spec = job.workload.base();
        let base = bases
            .entry(base_spec.key())
            .or_insert_with(|| base_spec.prepare().expect("golden profiles are feasible"));
        let fine_tuned;
        let layer = if job.workload.fine_tuned {
            fine_tuned = base.fine_tuned();
            &fine_tuned
        } else {
            &*base
        };
        let report = job.accelerator.build().run_layer_reference(layer);
        if let Err(violation) = report.check_invariants() {
            panic!("job {index} (`{}`): {violation}", job.label);
        }
        let record = JobRecord {
            job: index,
            label: job.label.clone(),
            network: job.network.clone(),
            layer_index: job.layer_index,
            report,
            sim_seconds: 0.0,
        };
        lines.push_str(&record.to_json());
        lines.push('\n');
    }
    assert_eq!(
        lines, GOLDEN_REPORT,
        "an oracle walk diverged from the committed report"
    );
}
