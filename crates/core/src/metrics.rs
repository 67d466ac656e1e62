//! Reports produced by accelerator models and the common `Accelerator`
//! interface.

use crate::prepared::PreparedLayer;
use loas_sim::{Cycle, EnergyBreakdown, SimStats, TrafficClass};
use loas_snn::SpikeTensor;

/// The result of simulating one layer on one accelerator.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Workload name.
    pub workload: String,
    /// Accelerator name.
    pub accelerator: String,
    /// Cycles, traffic, cache, and op counts.
    pub stats: SimStats,
    /// Energy rollup.
    pub energy: EnergyBreakdown,
    /// Functional output spikes (present when the model computes them, for
    /// verification against the golden layer).
    pub output: Option<SpikeTensor>,
}

impl LayerReport {
    /// End-to-end latency.
    pub fn cycles(&self) -> Cycle {
        self.stats.cycles
    }

    /// Speedup of this report relative to a baseline report on the same
    /// workload (`baseline_cycles / self_cycles`).
    pub fn speedup_over(&self, baseline: &LayerReport) -> f64 {
        let own = self.stats.cycles.get().max(1);
        baseline.stats.cycles.get() as f64 / own as f64
    }

    /// Energy-efficiency gain relative to a baseline (`baseline_energy /
    /// self_energy`).
    pub fn energy_gain_over(&self, baseline: &LayerReport) -> f64 {
        let own = self.energy.total_pj().max(1e-12);
        baseline.energy.total_pj() / own
    }

    /// Cheap physical sanity checks every simulated report must pass:
    /// cache hits plus misses equal the accesses, stall cycles fit inside
    /// the cycle count, the reported DRAM classes (weight, input, psum,
    /// output, format) sum to the DRAM total, and the cache miss rate lies
    /// in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant, naming the accelerator.
    pub fn check_invariants(&self) -> Result<(), String> {
        let stats = &self.stats;
        let cache = &stats.cache;
        let counted =
            matches!(cache.hits.checked_add(cache.misses), Some(sum) if sum == cache.accesses());
        let violation = if !counted {
            "cache hits + misses != accesses".to_owned()
        } else if stats.cycles.get() < stats.stall_cycles.get() {
            "stall cycles exceed cycles".to_owned()
        } else if stats.dram.get(TrafficClass::Other) != 0 {
            // The total sums every class, so the reported ones sum to it
            // exactly when no bytes fall outside them.
            "DRAM classes do not sum to the total".to_owned()
        } else if !(0.0..=1.0).contains(&cache.miss_rate()) {
            format!("miss rate {} outside [0, 1]", cache.miss_rate())
        } else {
            return Ok(());
        };
        Err(format!("{}: {violation}", self.accelerator))
    }
}

/// Aggregated results over a whole network (layers run back to back).
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// Accelerator name.
    pub accelerator: String,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Builds a network report from layer reports.
    pub fn new(network: &str, accelerator: &str, layers: Vec<LayerReport>) -> Self {
        NetworkReport {
            network: network.to_owned(),
            accelerator: accelerator.to_owned(),
            layers,
        }
    }

    /// Summed statistics across layers (sequential execution).
    pub fn total_stats(&self) -> SimStats {
        let mut total = SimStats::new();
        for l in &self.layers {
            total.merge_sequential(&l.stats);
        }
        total
    }

    /// Summed energy across layers.
    pub fn total_energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for l in &self.layers {
            total.dram_pj += l.energy.dram_pj;
            total.sram_pj += l.energy.sram_pj;
            total.compute_pj += l.energy.compute_pj;
            total.sparsity_pj += l.energy.sparsity_pj;
            total.static_pj += l.energy.static_pj;
        }
        total
    }

    /// Total cycles across layers.
    pub fn total_cycles(&self) -> Cycle {
        self.total_stats().cycles
    }

    /// Network-level speedup over a baseline.
    pub fn speedup_over(&self, baseline: &NetworkReport) -> f64 {
        baseline.total_cycles().get() as f64 / self.total_cycles().get().max(1) as f64
    }

    /// Network-level energy-efficiency gain over a baseline.
    pub fn energy_gain_over(&self, baseline: &NetworkReport) -> f64 {
        baseline.total_energy().total_pj() / self.total_energy().total_pj().max(1e-12)
    }
}

/// The interface every accelerator model implements. Models are stateful
/// (they own cache state) but `run_layer` resets per-layer state, so calls
/// are independent.
pub trait Accelerator {
    /// Human-readable accelerator name (e.g. `"SparTen-SNN"`).
    fn name(&self) -> String;

    /// Simulates one prepared layer end to end.
    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport;

    /// The model's kept oracle walk; tests compare `run_layer` against it.
    ///
    /// Models whose `run_layer` is an optimized walk (kernel sweeps,
    /// precomputed traffic spans, residency tokens) override this with
    /// their original straightforward walk, and the two must produce
    /// byte-identical reports. Models with a single walk keep this
    /// default, which is `run_layer` itself.
    fn run_layer_reference(&mut self, layer: &PreparedLayer) -> LayerReport {
        self.run_layer(layer)
    }

    /// Grants the model an intra-layer worker budget for its pure compute
    /// phase (see [`crate::kernel`]). Models without a parallel phase
    /// ignore it; implementations must produce byte-identical reports for
    /// every budget. The campaign engine splits its total worker budget
    /// between job-level and intra-layer parallelism through this hook.
    fn set_intra_workers(&mut self, _workers: usize) {}

    /// Simulates a sequence of layers as one network.
    fn run_network(&mut self, network: &str, layers: &[PreparedLayer]) -> NetworkReport {
        let reports = layers.iter().map(|l| self.run_layer(l)).collect();
        NetworkReport::new(network, &self.name(), reports)
    }
}

/// Boxed accelerators forward to their inner model, so heterogeneous
/// fleets (`Vec<Box<dyn Accelerator + Send>>`) can be used anywhere a
/// concrete model is expected.
impl<A: Accelerator + ?Sized> Accelerator for Box<A> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        (**self).run_layer(layer)
    }

    fn run_layer_reference(&mut self, layer: &PreparedLayer) -> LayerReport {
        (**self).run_layer_reference(layer)
    }

    fn set_intra_workers(&mut self, workers: usize) {
        (**self).set_intra_workers(workers)
    }

    fn run_network(&mut self, network: &str, layers: &[PreparedLayer]) -> NetworkReport {
        (**self).run_network(network, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, dram_pj: f64) -> LayerReport {
        let mut stats = SimStats::new();
        stats.cycles = Cycle(cycles);
        LayerReport {
            workload: "w".to_owned(),
            accelerator: "a".to_owned(),
            stats,
            energy: EnergyBreakdown {
                dram_pj,
                ..Default::default()
            },
            output: None,
        }
    }

    #[test]
    fn speedup_and_energy_gain() {
        let fast = report(100, 10.0);
        let slow = report(400, 35.0);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((fast.energy_gain_over(&slow) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn check_invariants_flags_each_violation() {
        let mut ok = report(100, 1.0);
        ok.stats.stall_cycles = Cycle(100);
        ok.stats.dram.record(TrafficClass::Weight, 64);
        ok.stats.cache.hits = 3;
        ok.stats.cache.misses = 1;
        assert_eq!(ok.check_invariants(), Ok(()));

        let mut stalled = ok.clone();
        stalled.stats.stall_cycles = Cycle(101);
        let error = stalled.check_invariants().unwrap_err();
        assert!(error.starts_with("a: stall cycles"), "{error}");

        let mut unclassified = ok.clone();
        unclassified.stats.dram.record(TrafficClass::Other, 8);
        assert!(unclassified.check_invariants().is_err());

        let mut overflowing = ok;
        overflowing.stats.cache.hits = u64::MAX;
        assert!(overflowing.check_invariants().is_err());
    }

    #[test]
    fn network_totals() {
        let net = NetworkReport::new("n", "a", vec![report(100, 1.0), report(50, 2.0)]);
        assert_eq!(net.total_cycles(), Cycle(150));
        assert!((net.total_energy().total_pj() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn network_speedup() {
        let a = NetworkReport::new("n", "a", vec![report(100, 1.0)]);
        let b = NetworkReport::new("n", "b", vec![report(300, 1.0)]);
        assert!((a.speedup_over(&b) - 3.0).abs() < 1e-12);
    }

    /// A model whose oracle walk is distinguishable from its fast walk.
    struct TwoWalks;

    impl Accelerator for TwoWalks {
        fn name(&self) -> String {
            "two-walks".to_owned()
        }

        fn run_layer(&mut self, _layer: &PreparedLayer) -> LayerReport {
            report(1, 0.0)
        }

        fn run_layer_reference(&mut self, _layer: &PreparedLayer) -> LayerReport {
            report(2, 0.0)
        }
    }

    #[test]
    fn boxed_models_forward_the_oracle_walk() {
        // Catalog models arrive boxed; without the forward every A/B of a
        // boxed model would silently compare the fast walk with itself.
        use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 68.0, 90.0).unwrap();
        let workload = WorkloadGenerator::default()
            .generate("box", LayerShape::new(4, 2, 2, 64), &profile)
            .unwrap();
        let layer = PreparedLayer::new(&workload);
        let mut boxed: Box<dyn Accelerator + Send> = Box::new(TwoWalks);
        assert_eq!(boxed.run_layer(&layer).stats.cycles, Cycle(1));
        assert_eq!(boxed.run_layer_reference(&layer).stats.cycles, Cycle(2));
    }
}
