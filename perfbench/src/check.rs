//! Correctness checks applied to every pass: a digest of the report
//! stream against the one recorded for the default seed, byte identity
//! across passes (traced and untraced alike), and cheap per-record
//! invariants.

use loas_core::{ContentHasher, LayerReport};
use loas_serve::json::Json;
use loas_sim::TrafficClass;

/// Report-stream digests recorded at the default seed
/// ([`loas_workloads::DEFAULT_SEED`]): `(workload, quick, digest)`.
const EXPECTED: &[(&str, bool, u64)] = &[
    ("fig13-cold", false, 0x6c45_287b_c0cf_66b7),
    ("fig13-cold", true, 0x98b6_2d38_aeba_521e),
    ("headline-warm", false, 0xb4a4_6dff_da1f_410b),
    ("headline-warm", true, 0x2c03_b6d8_587f_01c0),
    ("serve-mixed", false, 0xc5cf_a744_dc27_5731),
    ("serve-mixed", true, 0xcf95_256a_6a48_8cd9),
];

/// The recorded digest for a workload at `seed`, if one exists.
pub fn expected_digest(workload: &str, quick: bool, seed: u64) -> Option<u64> {
    if seed != loas_workloads::DEFAULT_SEED {
        return None;
    }
    EXPECTED
        .iter()
        .find(|(name, q, _)| *name == workload && *q == quick)
        .map(|&(_, _, digest)| digest)
}

/// The digest of one pass's outputs (one string per op, in op order).
pub fn digest(outputs: &[String]) -> u64 {
    let mut hasher = ContentHasher::new();
    for output in outputs {
        hasher.write_str(output);
    }
    hasher.finish()
}

/// Invariants of a simulated report: cache hits plus misses equal the
/// accesses, stalls fit inside the cycle count, and the DRAM total is the
/// sum of its traffic classes.
pub fn report_invariants(report: &LayerReport) -> Result<(), String> {
    let stats = &report.stats;
    let cache = &stats.cache;
    if cache.hits.checked_add(cache.misses) != Some(cache.accesses()) {
        return Err(format!(
            "{}: cache hits + misses != accesses",
            report.accelerator
        ));
    }
    if stats.cycles.get() < stats.stall_cycles.get() {
        return Err(format!(
            "{}: stall cycles exceed cycles",
            report.accelerator
        ));
    }
    let classes = [
        TrafficClass::Weight,
        TrafficClass::Input,
        TrafficClass::Psum,
        TrafficClass::Output,
        TrafficClass::Format,
    ];
    let by_class: u64 = classes.iter().map(|&class| stats.dram.get(class)).sum();
    if by_class != stats.dram.total() {
        return Err(format!(
            "{}: DRAM classes do not sum to the total",
            report.accelerator
        ));
    }
    Ok(())
}

/// The same invariants on one serialized `JobRecord` line (what a served
/// report exposes): stalls within cycles, DRAM classes summing to the
/// total, a miss rate in `[0, 1]`.
pub fn record_line_invariants(line: &str) -> Result<(), String> {
    let record = Json::parse(line).map_err(|error| format!("unparsable record: {error}"))?;
    let field = |key: &str| {
        record
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record lacks `{key}`"))
    };
    if field("cycles")? < field("stall_cycles")? {
        return Err("stall cycles exceed cycles".to_owned());
    }
    let classes = record
        .get("dram_by_class")
        .and_then(Json::as_obj)
        .ok_or("record lacks `dram_by_class`")?;
    let mut by_class = 0u64;
    for (_, bytes) in classes {
        by_class += bytes.as_u64().ok_or("non-integer DRAM class")?;
    }
    if by_class != field("dram_bytes")? {
        return Err("DRAM classes do not sum to the total".to_owned());
    }
    let miss_rate = record
        .get("cache_miss_rate")
        .and_then(Json::as_f64)
        .ok_or("record lacks `cache_miss_rate`")?;
    if !(0.0..=1.0).contains(&miss_rate) {
        return Err(format!("miss rate {miss_rate} outside [0, 1]"));
    }
    Ok(())
}

/// Tracks every pass of a run: the first pass's outputs become the
/// reference the later passes must reproduce byte for byte.
#[derive(Debug)]
pub struct PassChecker {
    expected: Option<u64>,
    reference: Option<Vec<String>>,
    /// The digest of the first pass.
    pub digest: Option<u64>,
    /// Ops checked so far.
    pub attempted: usize,
    /// Ops that failed so far.
    pub failed: usize,
    /// The first failure seen, for the log.
    pub first_failure: Option<String>,
}

impl PassChecker {
    /// A checker comparing every pass to `expected` when given.
    pub fn new(expected: Option<u64>) -> Self {
        PassChecker {
            expected,
            reference: None,
            digest: None,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Checks one pass. `outputs` holds one entry per op; `errors` the
    /// ops the pass itself already found broken (engine or serve errors,
    /// invariant violations). A digest mismatch fails every op of the
    /// pass; otherwise each op fails on its own error or on differing
    /// from the reference pass.
    pub fn check(&mut self, outputs: &[String], errors: &[Option<String>]) {
        debug_assert_eq!(outputs.len(), errors.len());
        let digest = digest(outputs);
        self.digest.get_or_insert(digest);
        self.attempted += outputs.len();
        if let Some(expected) = self.expected.filter(|&expected| expected != digest) {
            self.fail(
                outputs.len(),
                format!("report digest {digest:016x} != recorded {expected:016x}"),
            );
            return;
        }
        let reference = self.reference.get_or_insert_with(|| outputs.to_vec());
        let mut failures = Vec::new();
        for (op, (output, error)) in outputs.iter().zip(errors).enumerate() {
            if let Some(error) = error {
                failures.push(format!("op {op}: {error}"));
            } else if reference.get(op) != Some(output) {
                failures.push(format!("op {op}: output differs from the first pass"));
            }
        }
        if let Some(first) = failures.first().cloned() {
            self.fail(failures.len(), first);
        }
    }

    /// Counts `ops` failed ops found outside a pass (probe cross-checks).
    pub fn fail_ops(&mut self, ops: usize, reason: String) {
        self.attempted += ops;
        self.fail(ops, reason);
    }

    fn fail(&mut self, ops: usize, reason: String) {
        self.failed += ops;
        self.first_failure.get_or_insert(reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn later_passes_must_match_the_first() {
        let mut checker = PassChecker::new(None);
        checker.check(&outputs(&["a", "b"]), &[None, None]);
        checker.check(&outputs(&["a", "c"]), &[None, None]);
        assert_eq!((checker.attempted, checker.failed), (4, 1));
    }

    #[test]
    fn a_wrong_digest_fails_the_whole_pass() {
        let good = outputs(&["a", "b"]);
        let mut checker = PassChecker::new(Some(digest(&good)));
        checker.check(&good, &[None, None]);
        assert_eq!(checker.failed, 0);
        let mut tampered = PassChecker::new(Some(digest(&good) ^ 1));
        tampered.check(&good, &[None, None]);
        assert_eq!(tampered.failed, 2);
    }

    #[test]
    fn record_line_invariants_catch_broken_lines() {
        let good = r#"{"cycles":10,"stall_cycles":4,"dram_bytes":3,"cache_miss_rate":0.5,"dram_by_class":{"weight":1,"input":2}}"#;
        assert!(record_line_invariants(good).is_ok());
        let stalls = good.replace("\"stall_cycles\":4", "\"stall_cycles\":11");
        assert!(record_line_invariants(&stalls).is_err());
        let dram = good.replace("\"dram_bytes\":3", "\"dram_bytes\":4");
        assert!(record_line_invariants(&dram).is_err());
    }
}
