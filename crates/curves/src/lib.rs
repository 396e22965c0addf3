//! # snakes-curves
//!
//! Linearization curves over multidimensional grids, and the measurement
//! tools to price them: row/column-major nested loops, boustrophedon snakes,
//! Z-order (bit interleaving), the Gray-code curve, the Hilbert curve (2-D
//! and k-D via Skilling's algorithm), and — the paper's contribution — the
//! clusterings induced by monotone lattice paths over hierarchical grids,
//! with or without snaking.
//!
//! Every curve implements [`Linearization`] (a bijection between cell
//! coordinates and visit ranks). [`fragments`] counts the contiguous
//! fragments a query needs under a curve — the paper's cost surrogate — and
//! extracts characteristic vectors for the exact analytic cost of
//! `snakes-core`. [`analysis`] certifies the §8 Hilbert-sandwich claim with
//! an exact every-workload check, [`peano`] adds the classic 1890 curve,
//! and [`search`] runs a 2-opt adversary over arbitrary strategies to
//! attack Theorem 2 empirically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod analysis;
pub mod fragments;
pub mod gray;
pub mod hilbert;
pub mod lattice_path;
pub mod nested;
pub mod peano;
pub mod runs;
pub mod search;
pub mod zorder;

pub use aggregate::{
    aggregate_class_costs, aggregate_class_costs_reference, aggregate_class_costs_with,
    AggregateOptions, SignatureCache, StrategyId, WholeLatticeCosts, SIGNATURE_CACHE_BUDGET_BYTES,
};
pub use analysis::{
    alternating_paths, hilbert_sandwich_certificate, hilbert_sandwich_pair,
    hilbert_sandwich_pair_with, sandwich_certificate, SandwichCertificate,
};
pub use fragments::{class_average_cost, class_costs, cv_of, expected_cost, query_fragments};
pub use gray::GrayCurve;
pub use hilbert::{CompactHilbert, HilbertCurve, HilbertError};
pub use lattice_path::{path_curve, snaked_path_curve};
pub use nested::{Loop, NestedLoops};
pub use peano::PeanoCurve;
pub use search::{
    multistart_two_opt, two_opt_search, EdgeWeights, ExplicitStrategy, MultistartResult,
};
pub use zorder::{ZOrderCurve, ZOrderError};

/// A struct-of-arrays coordinate buffer for [`Linearization::coords_block`]:
/// one contiguous column of `capacity` slots per dimension, so a decoded
/// block exposes each dimension's coordinates as a dense `&[u64]` the
/// aggregation kernels can stream with unit stride.
///
/// The columns live in one flat allocation (`data[d * capacity + i]` is
/// rank `start + i`'s coordinate in dimension `d`); `len` tracks how many
/// rows the last decode filled.
#[derive(Debug, Clone)]
pub struct CoordsBlock {
    k: usize,
    capacity: usize,
    len: usize,
    data: Vec<u64>,
}

impl CoordsBlock {
    /// An empty buffer for `k`-dimensional blocks of up to `capacity` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `capacity` is zero.
    pub fn new(k: usize, capacity: usize) -> Self {
        assert!(k > 0, "need at least one dimension");
        assert!(capacity > 0, "need a nonzero block capacity");
        Self {
            k,
            capacity,
            len: 0,
            data: vec![0; k * capacity],
        }
    }

    /// Number of dimensions per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum rows a decode may fill.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows filled by the last decode.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last decode filled zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks `len` rows as filled (decoder side).
    ///
    /// # Panics
    ///
    /// Panics if `len > capacity`.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity, "len exceeds block capacity");
        self.len = len;
    }

    /// Dimension `d`'s coordinates for the filled rows.
    ///
    /// # Panics
    ///
    /// Panics if `d >= k`.
    pub fn col(&self, d: usize) -> &[u64] {
        &self.data[d * self.capacity..d * self.capacity + self.len]
    }

    /// Dimension `d`'s full column (all `capacity` slots, for decoders).
    ///
    /// # Panics
    ///
    /// Panics if `d >= k`.
    pub fn col_mut(&mut self, d: usize) -> &mut [u64] {
        &mut self.data[d * self.capacity..(d + 1) * self.capacity]
    }
}

/// A bijection between the cells of a k-dimensional grid and visit ranks
/// `0..num_cells`. Rank order is the clustering order on disk.
///
/// ```
/// use snakes_curves::{HilbertCurve, Linearization, NestedLoops, ZOrderCurve};
///
/// let curves: Vec<Box<dyn Linearization>> = vec![
///     Box::new(NestedLoops::row_major(vec![4, 4], &[0, 1])),
///     Box::new(ZOrderCurve::square(2)),
///     Box::new(HilbertCurve::square(2)),
/// ];
/// for curve in &curves {
///     // Every curve is a bijection with rank inverting coords.
///     for rank in 0..curve.num_cells() {
///         let cell = curve.coords_vec(rank);
///         assert_eq!(curve.rank(&cell), rank);
///     }
/// }
/// ```
pub trait Linearization {
    /// Per-dimension extents of the grid.
    fn extents(&self) -> &[u64];

    /// Total number of cells.
    fn num_cells(&self) -> u64 {
        self.extents().iter().product()
    }

    /// The visit rank of a cell.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `coords` is out of range.
    fn rank(&self, coords: &[u64]) -> u64;

    /// The cell visited at `rank`, written into `out`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `rank >= num_cells()` or `out` has the
    /// wrong arity.
    fn coords(&self, rank: u64, out: &mut [u64]);

    /// Convenience allocating variant of [`Linearization::coords`].
    fn coords_vec(&self, rank: u64) -> Vec<u64> {
        let mut out = vec![0; self.extents().len()];
        self.coords(rank, &mut out);
        out
    }

    /// Decodes the `len` consecutive ranks `start..start + len` into `out`
    /// (struct-of-arrays: `out.col(d)[i]` is rank `start + i`'s coordinate
    /// in dimension `d`), leaving `out.len() == len`.
    ///
    /// The default implementation calls [`Linearization::coords`] once per
    /// rank. Curves whose next cell is cheap to derive from the current one
    /// (nested loops and snakes via an odometer, Z-order via rank-bit
    /// flips) override it to decode whole blocks incrementally — the hot
    /// path of `aggregate::aggregate_class_costs`, which would otherwise
    /// pay a virtual call and a full mixed-radix decode per rank.
    ///
    /// # Panics
    ///
    /// Panics if `out.k()` differs from the grid arity, `len` exceeds
    /// `out.capacity()`, or `start + len` exceeds `num_cells()`.
    fn coords_block(&self, start: u64, len: usize, out: &mut CoordsBlock) {
        let k = self.extents().len();
        assert_eq!(out.k(), k, "block arity must match the grid");
        assert!(len <= out.capacity(), "len exceeds block capacity");
        assert!(
            start + len as u64 <= self.num_cells(),
            "block exceeds num_cells"
        );
        let mut row = vec![0u64; k];
        for i in 0..len {
            self.coords(start + i as u64, &mut row);
            for (d, &c) in row.iter().enumerate() {
                out.col_mut(d)[i] = c;
            }
        }
        out.set_len(len);
    }

    /// Enumerates the maximal runs of consecutive ranks covering the
    /// subgrid `ranges\[0\] × ranges\[1\] × ...`, in increasing rank order.
    /// `sink` receives each run as `(start, len)`; runs never touch
    /// (adjacent ranks are always merged into one run), so the number of
    /// sink calls *is* the query's fragment count.
    ///
    /// The default implementation enumerates every selected cell and
    /// sorts — `O(C·k + C log C)` in the number of selected cells.
    /// Structured curves override it with closed-form decompositions
    /// (see [`runs`]) and advertise that via
    /// [`Linearization::has_structural_runs`].
    ///
    /// # Panics
    ///
    /// Panics unless there is one range per dimension and every range is
    /// non-empty and within its extent.
    fn rank_runs(&self, ranges: &[std::ops::Range<u64>], sink: &mut dyn FnMut(u64, u64)) {
        runs::brute_force_runs(self, ranges, sink)
    }

    /// Whether [`Linearization::rank_runs`] is a structural (closed-form)
    /// implementation rather than the brute-force default — the signal the
    /// storage engine's `auto` mode keys on.
    fn has_structural_runs(&self) -> bool {
        false
    }
}

impl<T: Linearization + ?Sized> Linearization for &T {
    fn extents(&self) -> &[u64] {
        (**self).extents()
    }
    fn rank(&self, coords: &[u64]) -> u64 {
        (**self).rank(coords)
    }
    fn coords(&self, rank: u64, out: &mut [u64]) {
        (**self).coords(rank, out)
    }
    fn coords_block(&self, start: u64, len: usize, out: &mut CoordsBlock) {
        (**self).coords_block(start, len, out)
    }
    fn rank_runs(&self, ranges: &[std::ops::Range<u64>], sink: &mut dyn FnMut(u64, u64)) {
        (**self).rank_runs(ranges, sink)
    }
    fn has_structural_runs(&self) -> bool {
        (**self).has_structural_runs()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::{CoordsBlock, Linearization};
    use std::collections::HashSet;

    /// Checks that `coords_block` agrees with per-rank `coords` for a
    /// hostile set of block boundaries (tiny blocks, odd offsets, a block
    /// spanning the whole grid).
    pub fn assert_blocked_decode_matches(lin: &impl Linearization) {
        let n = lin.num_cells();
        assert!(n <= 1 << 20, "test grid too large");
        let k = lin.extents().len();
        for cap in [1usize, 3, 7, n as usize] {
            let mut block = CoordsBlock::new(k, cap);
            let mut start = 0u64;
            while start < n {
                let len = (cap as u64).min(n - start) as usize;
                lin.coords_block(start, len, &mut block);
                assert_eq!(block.len(), len);
                for i in 0..len {
                    let want = lin.coords_vec(start + i as u64);
                    for (d, &w) in want.iter().enumerate() {
                        assert_eq!(
                            block.col(d)[i],
                            w,
                            "rank {} dim {d} (cap {cap})",
                            start + i as u64
                        );
                    }
                }
                start += len as u64;
            }
            // An unaligned restart: decode a block starting mid-grid.
            if n > 2 {
                let start = n / 3;
                let len = (cap as u64).min(n - start) as usize;
                lin.coords_block(start, len, &mut block);
                for i in 0..len {
                    let want = lin.coords_vec(start + i as u64);
                    for (d, &w) in want.iter().enumerate() {
                        assert_eq!(block.col(d)[i], w, "mid-grid rank {}", start + i as u64);
                    }
                }
            }
        }
    }

    /// Checks that `lin` is a bijection and that `rank` inverts `coords`.
    pub fn assert_bijection(lin: &impl Linearization) {
        let n = lin.num_cells();
        assert!(n <= 1 << 20, "test grid too large");
        let mut seen = HashSet::with_capacity(n as usize);
        let mut buf = vec![0u64; lin.extents().len()];
        for r in 0..n {
            lin.coords(r, &mut buf);
            for (d, (&c, &e)) in buf.iter().zip(lin.extents()).enumerate() {
                assert!(c < e, "rank {r}: coord {c} out of range in dim {d}");
            }
            assert!(seen.insert(buf.clone()), "rank {r}: duplicate cell {buf:?}");
            assert_eq!(lin.rank(&buf), r, "rank() does not invert coords()");
        }
    }

    /// Checks that consecutive ranks are grid neighbours (differ by 1 in
    /// exactly one dimension) — the defining property of Hilbert-style
    /// curves and snakes over plain grids.
    pub fn assert_grid_adjacent(lin: &impl Linearization) {
        let n = lin.num_cells();
        let mut prev = lin.coords_vec(0);
        for r in 1..n {
            let cur = lin.coords_vec(r);
            let mut diffs = 0;
            for (a, b) in prev.iter().zip(&cur) {
                if a != b {
                    diffs += 1;
                    assert!(a.abs_diff(*b) == 1, "rank {r}: jump {prev:?} -> {cur:?}");
                }
            }
            assert_eq!(diffs, 1, "rank {r}: moved in {diffs} dims");
            prev = cur;
        }
    }
}
