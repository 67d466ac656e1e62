//! Property-based tests of the workload calibration machinery: for *any*
//! feasible sparsity profile, the generator must realise the requested
//! statistics, and the whole stack must stay bit-exact.

use loas::workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
use loas::{Accelerator, Loas, PreparedLayer};
use proptest::prelude::*;

/// Strategy over *feasible* profiles: built from (silent, fire-once mass,
/// active mean-fires) so the three-category model always solves.
fn feasible_profile() -> impl Strategy<Value = SparsityProfile> {
    (
        0.30f64..0.80, // silent fraction
        0.0f64..0.12,  // fire-once mass
        2.05f64..3.9,  // mean fires of active neurons (T = 4)
        0.80f64..0.99, // weight sparsity
    )
        .prop_map(|(silent, once, e2, weight)| {
            let active = (1.0 - silent - once).max(0.0);
            let density = (once + active * e2) / 4.0;
            SparsityProfile::from_percentages(
                (1.0 - density) * 100.0,
                silent * 100.0,
                (silent + once) * 100.0,
                weight * 100.0,
            )
            .expect("constructed profiles are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generator_realises_any_feasible_profile(profile in feasible_profile(), seed in 0u64..1000) {
        let generator = WorkloadGenerator::new(seed);
        // Large enough population for tight sampling bounds.
        let shape = LayerShape::new(4, 48, 8, 512);
        let w = generator.generate("prop", shape, &profile).unwrap();
        let stats = w.stats();
        prop_assert!(
            (stats.spike_origin_pct / 100.0 - profile.spike_origin).abs() < 0.02,
            "origin {} vs {}", stats.spike_origin_pct / 100.0, profile.spike_origin
        );
        prop_assert!(
            (stats.silent_pct / 100.0 - profile.silent).abs() < 0.02,
            "silent {} vs {}", stats.silent_pct / 100.0, profile.silent
        );
        prop_assert!(
            (stats.silent_ft_pct / 100.0 - profile.silent_ft).abs() < 0.02,
            "silent+FT {} vs {}", stats.silent_ft_pct / 100.0, profile.silent_ft
        );
        prop_assert!(
            (stats.weight_pct / 100.0 - profile.weight).abs() < 0.02,
            "weight {} vs {}", stats.weight_pct / 100.0, profile.weight
        );
    }

    #[test]
    fn loas_stays_bit_exact_on_any_feasible_profile(profile in feasible_profile(), seed in 0u64..1000) {
        let generator = WorkloadGenerator::new(seed);
        let shape = LayerShape::new(4, 12, 8, 96);
        let w = generator.generate("prop-exact", shape, &profile).unwrap();
        let golden = w.golden_layer().forward(&w.spikes).unwrap();
        let report = Loas::default()
            .with_verification(true)
            .run_layer(&PreparedLayer::new(&w));
        prop_assert_eq!(report.output.as_ref().unwrap(), &golden.spikes);
    }

    #[test]
    fn preprocessing_monotonically_reduces_loas_work(profile in feasible_profile(), seed in 0u64..1000) {
        let generator = WorkloadGenerator::new(seed);
        let shape = LayerShape::new(4, 16, 8, 128);
        let w = generator.generate("prop-ft", shape, &profile).unwrap();
        let layer = PreparedLayer::new(&w);
        let base = Loas::default().run_layer(&layer);
        let ft = Loas::default().run_layer(&layer.fine_tuned());
        // Work is strictly monotone; traffic and cycles are monotone up to
        // cache-line alignment noise (masking shifts the fiber address map
        // by a few lines).
        prop_assert!(ft.stats.ops.accumulates <= base.stats.ops.accumulates);
        let slack = 4 * 64; // four cache lines
        prop_assert!(
            ft.stats.dram.total() <= base.stats.dram.total() + slack,
            "ft dram {} vs base {}", ft.stats.dram.total(), base.stats.dram.total()
        );
        prop_assert!(
            ft.stats.cycles.get() <= base.stats.cycles.get() + slack,
            "ft cycles {} vs base {}", ft.stats.cycles.get(), base.stats.cycles.get()
        );
    }
}
