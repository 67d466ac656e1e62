//! The three workloads and the inputs each generates from its seed. The
//! program only ever sees the generated campaigns and spec texts.

use loas_engine::{AcceleratorSpec, Campaign};
use loas_serve::spec_io;
use loas_workloads::networks::{self, NetworkSpec};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 13 grid on a fresh engine per pass (preparation-bound).
    Fig13Cold,
    /// The headline fleet on a warm prepared cache (simulation-bound).
    HeadlineWarm,
    /// Quick campaigns through the durable queue and memo store.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig13Cold,
        Workload::HeadlineWarm,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13Cold => "fig13-cold",
            Workload::HeadlineWarm => "headline-warm",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The five spMspM designs of Fig. 13, in the figure's column order.
fn fig13_designs() -> [AcceleratorSpec; 5] {
    [
        AcceleratorSpec::sparten(),
        AcceleratorSpec::gospa(),
        AcceleratorSpec::gamma(),
        AcceleratorSpec::loas(),
        AcceleratorSpec::loas_ft(),
    ]
}

/// AlexNet, VGG16 and ResNet19 (40 layers), optionally at quick shapes.
pub fn fig13_networks(quick: bool) -> Vec<NetworkSpec> {
    [networks::alexnet(), networks::vgg16(), networks::resnet19()]
        .into_iter()
        .map(|network| {
            if quick {
                NetworkSpec {
                    name: network.name.clone(),
                    layers: network
                        .layers
                        .iter()
                        .map(|l| l.shrunk_for_quick())
                        .collect(),
                }
            } else {
                network
            }
        })
        .collect()
}

/// The Fig. 13 grid: three networks x five designs, 200 jobs.
pub fn fig13_campaign(seed: u64, quick: bool) -> Campaign {
    let mut campaign = Campaign::new("fig13-grid");
    for network in fig13_networks(quick) {
        for design in fig13_designs() {
            campaign.push_network(&network, design, seed);
        }
    }
    campaign
}

/// The served traffic of one serve-mixed pass: the spec texts and the op
/// sequence over them. Even ops submit the next novel spec; odd ops
/// resubmit one of the specs submitted before.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Spec texts, in first-submission order.
    pub specs: Vec<String>,
    /// Per op, the index of the submitted spec.
    pub ops: Vec<usize>,
}

impl ServePlan {
    /// Whether op `op` submits its spec for the first time.
    pub fn is_novel(&self, op: usize) -> bool {
        op.is_multiple_of(2)
    }
}

/// Novel campaigns per serve-mixed pass (each followed by a replay).
fn serve_novel_count(quick: bool) -> usize {
    if quick {
        3
    } else {
        24
    }
}

/// Builds the serve-mixed plan: quick-scale headline and Gamma-cache
/// campaigns alternate, each at its own seed derived from `seed`, and
/// every novel submission is followed by a resubmission of a spec of the
/// same kind drawn from those submitted so far, so every seed replays the
/// same number of jobs.
pub fn serve_plan(seed: u64, quick: bool) -> ServePlan {
    let mut rng = SplitMix64(seed);
    let count = serve_novel_count(quick);
    let mut specs = Vec::with_capacity(count);
    let mut ops = Vec::with_capacity(2 * count);
    for index in 0..count {
        let spec_seed = rng.next();
        let campaign = if index % 2 == 0 {
            spec_io::headline_campaign(true, spec_seed)
        } else {
            spec_io::gamma_cache_campaign(true, spec_seed)
        };
        specs.push(spec_io::campaign_to_json(&campaign));
        ops.push(index);
        let same_kind = (index / 2 + 1) as u64;
        ops.push(index % 2 + 2 * (rng.next() % same_kind) as usize);
    }
    ServePlan { specs, ops }
}

/// SplitMix64: the small deterministic stream the serve plan draws from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_grid_has_200_jobs_over_80_workloads() {
        let campaign = fig13_campaign(7, true);
        assert_eq!(campaign.len(), 200);
        assert_eq!(campaign.unique_workloads().len(), 80);
    }

    #[test]
    fn serve_plan_is_seeded_and_replays_only_earlier_specs() {
        let plan = serve_plan(11, true);
        assert_eq!(plan.ops.len(), 2 * plan.specs.len());
        for (op, &spec) in plan.ops.iter().enumerate() {
            if plan.is_novel(op) {
                assert_eq!(spec, op / 2);
            } else {
                assert!(spec <= op / 2);
                assert_eq!(spec % 2, (op / 2) % 2, "replays keep the campaign kind");
            }
        }
        assert_eq!(plan.specs, serve_plan(11, true).specs);
        assert_ne!(plan.specs, serve_plan(12, true).specs);
    }
}
