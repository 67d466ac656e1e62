//! One module per regenerated table/figure of the paper's evaluation.

use crate::context::Context;
use crate::report::Table;

pub mod ablations;
pub mod bench;
pub mod fig05;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod reference;
pub mod sweeps;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// An experiment entry point: consumes the shared context, returns tables.
pub type ExperimentFn = fn(&mut Context) -> Vec<Table>;

/// Experiment registry: name → runner (used by the `repro` binary). Order
/// follows the paper's evaluation section; `fig15` is produced together
/// with `table4` (same underlying breakdown).
pub const ALL_EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig5", fig05::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("table4", table4::run),
    ("fig15", table4::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("ablations", ablations::run),
    ("sweeps", sweeps::run),
    // Simulator-performance baseline, not a paper figure: excluded from
    // `repro all` (it re-times the fig13 grid on both walks of every model);
    // run explicitly with `repro bench`.
    ("bench", bench::run),
];

/// Experiments excluded when `all` is requested (run them by name).
pub const EXCLUDED_FROM_ALL: &[&str] = &["bench"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_except_table4_alias() {
        let mut names: Vec<&str> = ALL_EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_EXPERIMENTS.len());
    }
}
