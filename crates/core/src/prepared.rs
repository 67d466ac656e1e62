//! Pre-compressed layer workloads shared by all accelerator models.
//!
//! Building fibers and bitmasks is workload preparation, not accelerator
//! work; every model (LoAS and baselines) consumes the same
//! [`PreparedLayer`] so that cross-accelerator comparisons see identical
//! inputs.
//!
//! The `A` side is stored compressed exactly once, as [`RowBlocks`] (the
//! LoAS format of Sec. IV-A: per row, the non-silent bitmask plus the
//! packed spike words as `T` contiguous plane rows), built from the spike
//! planes in one pass. Every other `A`-side fact (non-zero counts,
//! compressed sizes, the traffic address map) is derived from it or from
//! `workload.spikes`. The oracle walks read the spike tensor directly, so
//! they stay independent of the `RowBlocks` transpose they check.

use crate::kernel::RowBlocks;
use loas_sim::LineSpan;
use loas_snn::LifParams;
use loas_sparse::{coordinate_bits, WeightFiber, POINTER_BITS};
use loas_workloads::{LayerShape, LayerWorkload};

/// The Table III weight precision every model defaults to (the default
/// [`TrafficSpans`] geometry).
pub const DEFAULT_WEIGHT_BITS: usize = 8;

/// The shared 64-byte FiberCache line of Table III (the default
/// [`TrafficSpans`] geometry).
pub const DEFAULT_LINE_BYTES: usize = 64;

/// Precomputed cache-line spans of every traffic object the LoAS replay
/// touches, for one `(weight_bits, line_bytes)` geometry.
///
/// The tag-accurate traffic phase used to re-derive line numbers from
/// abstract byte addresses on every probe. The address map is a pure
/// function of the prepared fibers, so LoAS's replay builds the spans once
/// per run (for its configured geometry) and does zero address arithmetic
/// per pair: row/column objects are fixed
/// [`LineSpan`]s, and the per-pair payload probe only varies in length
/// from a precomputed `(first_line, intra-line offset)` base
/// ([`TrafficSpans::a_payload_span`]).
///
/// The address map matches the original replay exactly: `A` rows laid
/// out back to back (bitmask + pointer bytes, then packed payload), then
/// `B` fibers (bitmask + pointer bytes, then weight payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSpans {
    /// Weight precision the `B` payload spans assume.
    pub weight_bits: usize,
    /// Cache-line size all spans assume.
    pub line_bytes: usize,
    /// Per-row span of the `bm-A` (+ pointer) load.
    pub a_bm_span: Vec<LineSpan>,
    /// Per-row first line of the packed payload region.
    pub a_payload_line: Vec<u64>,
    /// Per-row byte offset of the payload start within its first line.
    pub a_payload_intra: Vec<u64>,
    /// Per-column span of the `bm-B` (+ pointer) broadcast.
    pub b_bm_span: Vec<LineSpan>,
    /// Per-column span of the non-zero weight payload.
    pub b_payload_span: Vec<LineSpan>,
    /// Compressed output bytes written per output row.
    pub out_row_bytes: u64,
}

impl TrafficSpans {
    /// Builds the span table for a prepared layer under the given
    /// geometry, replicating the replay's original address map byte for
    /// byte (asserted against the address-arithmetic formulas by the
    /// equivalence property tests).
    pub fn build(layer: &PreparedLayer, weight_bits: usize, line_bytes: usize) -> Self {
        let shape = layer.shape;
        let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
        let line = line_bytes as u64;
        let mut a_bm_span = Vec::with_capacity(shape.m);
        let mut a_payload_line = Vec::with_capacity(shape.m);
        let mut a_payload_intra = Vec::with_capacity(shape.m);
        let mut addr = 0u64;
        for m in 0..shape.m {
            a_bm_span.push(LineSpan::of_range(addr, bm_bytes, line_bytes));
            let payload = addr + bm_bytes;
            a_payload_line.push(payload / line);
            a_payload_intra.push(payload % line);
            // A row fiber's storage: bitmask + pointer + T bits per word.
            let row_bits = shape.k + POINTER_BITS + layer.row_blocks.row_nnz(m) * shape.t;
            addr += row_bits.div_ceil(8) as u64;
        }
        let mut b_bm_span = Vec::with_capacity(shape.n);
        let mut b_payload_span = Vec::with_capacity(shape.n);
        for fiber in &layer.b_fibers {
            b_bm_span.push(LineSpan::of_range(addr, bm_bytes, line_bytes));
            let payload_bytes = (fiber.nnz() * weight_bits).div_ceil(8) as u64;
            b_payload_span.push(LineSpan::of_range(
                addr + bm_bytes,
                payload_bytes,
                line_bytes,
            ));
            addr += fiber.storage_bits(weight_bits).div_ceil(8) as u64;
        }
        let out_row_bits = (shape.n + POINTER_BITS) as u64 + (shape.n as u64 / 10) * shape.t as u64;
        TrafficSpans {
            weight_bits,
            line_bytes,
            a_bm_span,
            a_payload_line,
            a_payload_intra,
            b_bm_span,
            b_payload_span,
            out_row_bytes: out_row_bits.div_ceil(8),
        }
    }

    /// The span of the first `payload_bytes` bytes of row `m`'s packed
    /// payload — the only per-pair varying probe of the replay.
    #[inline]
    pub fn a_payload_span(&self, m: usize, payload_bytes: u64) -> LineSpan {
        LineSpan::tail(
            self.a_payload_line[m],
            self.a_payload_intra[m],
            payload_bytes,
            self.line_bytes,
        )
    }
}

/// A layer workload with every compressed view precomputed.
#[derive(Debug, Clone)]
pub struct PreparedLayer {
    /// Workload name.
    pub name: String,
    /// The `(T, M, N, K)` shape.
    pub shape: LayerShape,
    /// The original workload (spike planes + dense weights + LIF).
    pub workload: LayerWorkload,
    /// Per-column compressed weight fibers.
    pub b_fibers: Vec<WeightFiber>,
    /// Per-row non-zero weight counts of `B` viewed row-wise (for OP/Gust
    /// models: `B`'s row `k`).
    pub b_row_nnz: Vec<usize>,
    /// The compressed `A` side (LoAS format) as a structure-of-arrays
    /// sweep layout: per row, the non-silent bitmask words followed by the
    /// `T` plane-row words, contiguous (consumed by
    /// [`crate::kernel::PairSweepKernel`]).
    pub row_blocks: RowBlocks,
    /// Per-column total spike counts (`Σ_{m,t} A[m, k, t]`), the `A` half
    /// of the `O(K)` fired-count aggregate
    /// ([`crate::kernel::fired_grand_total`]).
    pub col_spikes: Vec<u32>,
}

impl PreparedLayer {
    /// Prepares all compressed views of a workload.
    pub fn new(workload: &LayerWorkload) -> Self {
        let b_row_nnz = (0..workload.shape.k)
            .map(|k| workload.weights.row(k).iter().filter(|&&w| w != 0).count())
            .collect();
        PreparedLayer::with_weight_views(
            workload.clone(),
            WeightFiber::columns(&workload.weights),
            b_row_nnz,
        )
    }

    /// The fine-tuned variant of this layer (Section V): the workload with
    /// every neuron firing at most once masked silent
    /// ([`LayerWorkload::with_preprocessing`]). Masking leaves the weights
    /// unchanged, so the `B` views are this layer's, cloned; only the
    /// spike-dependent views are rebuilt. Equal, view for view, to
    /// `PreparedLayer::new(&self.workload.with_preprocessing())`.
    pub fn fine_tuned(&self) -> PreparedLayer {
        PreparedLayer::with_weight_views(
            self.workload.with_preprocessing(),
            self.b_fibers.clone(),
            self.b_row_nnz.clone(),
        )
    }

    /// Assembles a prepared layer from its workload and already built `B`
    /// views, building the spike-dependent views (`row_blocks`,
    /// `col_spikes`).
    fn with_weight_views(
        workload: LayerWorkload,
        b_fibers: Vec<WeightFiber>,
        b_row_nnz: Vec<usize>,
    ) -> Self {
        let shape = workload.shape;
        let row_blocks = RowBlocks::from_spike_tensor(&workload.spikes);
        let mut col_spikes = vec![0u32; shape.k];
        for plane in workload.spikes.planes() {
            for row in plane.iter_rows() {
                for k in row.iter_ones() {
                    col_spikes[k] += 1;
                }
            }
        }
        PreparedLayer {
            name: workload.name.clone(),
            shape,
            workload,
            b_fibers,
            b_row_nnz,
            row_blocks,
            col_spikes,
        }
    }

    /// LIF parameters of the output stage.
    pub fn lif(&self) -> LifParams {
        self.workload.lif
    }

    /// Total non-silent neurons across all rows.
    pub fn a_nnz(&self) -> usize {
        (0..self.shape.m).map(|m| self.row_blocks.row_nnz(m)).sum()
    }

    /// Total non-zero weights.
    pub fn b_nnz(&self) -> usize {
        self.b_fibers.iter().map(WeightFiber::nnz).sum()
    }

    /// Compressed size of `A` in LoAS format, split as
    /// `(payload_bits, format_bits)`: packed words vs bitmasks + pointers.
    pub fn a_compressed_bits(&self) -> (u64, u64) {
        let payload = (self.a_nnz() * self.shape.t) as u64;
        let format = (self.shape.m * (self.shape.k + POINTER_BITS)) as u64;
        (payload, format)
    }

    /// Compressed size of `B` in fiber format, split as
    /// `(payload_bits, format_bits)`.
    pub fn b_compressed_bits(&self, weight_bits: usize) -> (u64, u64) {
        let payload = (self.b_nnz() * weight_bits) as u64;
        let format = (self.shape.n * (self.shape.k + POINTER_BITS)) as u64;
        (payload, format)
    }

    /// Size of `A` fetched densely as raw spike trains (SparTen-SNN: every
    /// spike bit crosses the memory boundary, Section II-D).
    pub fn a_dense_bits(&self) -> u64 {
        (self.shape.m * self.shape.k * self.shape.t) as u64
    }

    /// Size of `A` in per-timestep CSR (GoSPA-SNN), split as
    /// `(payload_bits, format_bits)`; spike CSR stores only coordinates, so
    /// payload is zero and everything is format overhead. Computed from
    /// per-plane spike counts with the formula of
    /// [`loas_sparse::CsrMatrix::storage_bits`] (`bits_per_value = 0`):
    /// a column coordinate per spike plus an `M + 1` row-pointer array.
    pub fn a_csr_bits(&self) -> (u64, u64) {
        let (m, k) = (self.shape.m, self.shape.k);
        let format = self
            .workload
            .spikes
            .planes()
            .iter()
            .map(|plane| {
                let nnz = plane.popcount();
                (nnz * coordinate_bits(k) + coordinate_bits(nnz.max(1)) * (m + 1)) as u64
            })
            .sum();
        (0, format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::{SparsityProfile, WorkloadGenerator};
    use proptest::prelude::*;

    fn prepared() -> PreparedLayer {
        let generator = WorkloadGenerator::default();
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 70.0, 90.0).unwrap();
        let w = generator
            .generate("prep-test", LayerShape::new(4, 8, 6, 64), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn fiber_counts_match_shape() {
        let p = prepared();
        assert_eq!(p.row_blocks.rows(), 8);
        assert_eq!(p.b_fibers.len(), 6);
        assert_eq!(p.b_row_nnz.len(), 64);
    }

    proptest! {
        #[test]
        fn fine_tuned_matches_preparing_the_masked_workload(
            dims in (1usize..=9, 1usize..=6, 1usize..=200),
            t_index in 0usize..2,
            seed in any::<u64>(),
        ) {
            let (m, n, k) = dims;
            let t = [4, 8][t_index];
            let profile = SparsityProfile::from_percentages(75.0, 60.0, 70.0, 90.0).unwrap();
            let w = WorkloadGenerator::new(seed)
                .generate("ft", LayerShape::new(t, m, n, k), &profile)
                .unwrap();
            let derived = PreparedLayer::new(&w).fine_tuned();
            let prepared = PreparedLayer::new(&w.with_preprocessing());
            prop_assert_eq!(&derived.name, &prepared.name);
            prop_assert_eq!(derived.shape, prepared.shape);
            prop_assert_eq!(&derived.workload, &prepared.workload);
            prop_assert_eq!(&derived.b_fibers, &prepared.b_fibers);
            prop_assert_eq!(&derived.b_row_nnz, &prepared.b_row_nnz);
            prop_assert_eq!(&derived.row_blocks, &prepared.row_blocks);
            prop_assert_eq!(&derived.col_spikes, &prepared.col_spikes);
        }
    }

    #[test]
    fn nnz_consistency() {
        let p = prepared();
        let total_row_nnz: usize = p.b_row_nnz.iter().sum();
        assert_eq!(
            total_row_nnz,
            p.b_nnz(),
            "row-wise and column-wise B nnz agree"
        );
    }

    #[test]
    fn compressed_sizes_positive_and_ordered() {
        let p = prepared();
        let (a_payload, a_format) = p.a_compressed_bits();
        assert_eq!(a_payload, (p.a_nnz() * 4) as u64);
        assert!(a_format >= (p.shape.m * p.shape.k) as u64);
        // LoAS packed A must be far smaller than dense A at this sparsity.
        assert!(
            a_payload + a_format
                < p.a_dense_bits() + (p.shape.m as u64 * POINTER_BITS as u64) + p.a_dense_bits()
        );
        let (_, csr_format) = p.a_csr_bits();
        assert!(csr_format > 0);
    }

    #[test]
    fn a_csr_bits_match_the_materialized_csr() {
        let generator = WorkloadGenerator::default();
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 70.0, 90.0).unwrap();
        for (t, m, n, k) in [
            (4, 8, 6, 64),
            (4, 1, 3, 16),
            (4, 33, 5, 130),
            (8, 17, 4, 200),
        ] {
            let w = generator
                .generate("csr-bits", LayerShape::new(t, m, n, k), &profile)
                .unwrap();
            let p = PreparedLayer::new(&w);
            let materialized: u64 = w
                .spikes
                .planes()
                .iter()
                .map(|plane| loas_sparse::CsrMatrix::from_bit_matrix(plane).storage_bits(0) as u64)
                .sum();
            assert_eq!(
                p.a_csr_bits(),
                (0, materialized),
                "shape ({t}, {m}, {n}, {k})"
            );
        }
        // An all-silent plane still stores its row-pointer array.
        let silent = loas_workloads::LayerWorkload {
            spikes: loas_snn::SpikeTensor::zeros(5, 16, 4),
            ..generator
                .generate("silent", LayerShape::new(4, 5, 3, 16), &profile)
                .unwrap()
        };
        let p = PreparedLayer::new(&silent);
        let empty = loas_sparse::CsrMatrix::from_bit_matrix(silent.spikes.plane(0));
        assert_eq!(p.a_csr_bits().1, 4 * empty.storage_bits(0) as u64);
    }

    #[test]
    fn row_blocks_and_col_spikes_mirror_the_tensor() {
        let p = prepared();
        assert_eq!(p.row_blocks.rows(), p.shape.m);
        assert_eq!(p.row_blocks.planes(), p.shape.t);
        let spikes = &p.workload.spikes;
        for m in 0..p.shape.m {
            assert_eq!(p.row_blocks.mask(m), spikes.row_nonsilent_mask(m).words());
            for t in 0..p.shape.t {
                assert_eq!(
                    p.row_blocks.plane(m, t),
                    spikes.plane(t).row(m).words(),
                    "plane ({m}, {t})"
                );
            }
        }
        for k in 0..p.shape.k {
            let column: usize = (0..p.shape.m)
                .map(|m| spikes.packed_word(m, k).fire_count())
                .sum();
            assert_eq!(p.col_spikes[k] as usize, column, "column {k}");
        }
    }

    #[test]
    fn a_word_matches_fiber_payload() {
        // The packed words a LoAS row fiber stores, read back out of the
        // plane rows of `RowBlocks`, and the derived A-side sizes.
        let p = prepared();
        let mut format_bits = 0u64;
        for m in 0..p.shape.m {
            let fiber = p.workload.spikes.row_fiber(m);
            assert_eq!(p.row_blocks.row_nnz(m), fiber.nnz());
            for (k, word) in fiber.iter() {
                assert!(!word.is_silent());
                for t in 0..p.shape.t {
                    let bit = p.row_blocks.plane(m, t)[k / 64] >> (k % 64) & 1;
                    assert_eq!(bit == 1, word.fires_at(t), "word ({m}, {k}) at t={t}");
                }
            }
            format_bits += (fiber.bitmask().storage_bits() + POINTER_BITS) as u64;
        }
        let nnz: usize = p
            .workload
            .spikes
            .to_row_fibers()
            .iter()
            .map(|f| f.nnz())
            .sum();
        assert_eq!(p.a_nnz(), nnz);
        assert_eq!(
            p.a_compressed_bits(),
            ((nnz * p.shape.t) as u64, format_bits)
        );
    }
}
