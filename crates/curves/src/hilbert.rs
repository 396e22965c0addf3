//! The Hilbert curve (Faloutsos & Roseman \[6\], Jagadish \[12\]) in any number
//! of dimensions, via John Skilling's transpose algorithm
//! ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004).
//!
//! The curve covers a `2^bits` hypercube in `k` dimensions; consecutive
//! ranks are always grid neighbours (verified by property tests). The
//! paper's `H_d^2` baseline is `HilbertCurve::new(2, n)` on the `2^n × 2^n`
//! toy grid.

use crate::{CoordsBlock, Linearization};
use std::fmt;

/// Why a Hilbert curve cannot be built over a requested grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HilbertError {
    /// The grid has no dimensions.
    NoDimensions,
    /// An extent (or the bits per side) is zero.
    EmptyExtent,
    /// The (padded) cube needs more than the 63 rank bits a `u64` rank
    /// can address: `k` dimensions of `bits` bits each.
    TooLarge {
        /// Number of dimensions.
        k: usize,
        /// Bits per side of the (padded) cube.
        bits: u32,
    },
}

impl fmt::Display for HilbertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HilbertError::NoDimensions => write!(f, "need at least one dimension"),
            HilbertError::EmptyExtent => write!(f, "extents must be positive"),
            HilbertError::TooLarge { k, bits } => write!(
                f,
                "grid too large: {k} dimensions of 2^{bits} cells need more than 63 rank bits"
            ),
        }
    }
}

impl std::error::Error for HilbertError {}

/// A k-dimensional Hilbert curve over a `2^bits`-per-side hypercube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HilbertCurve {
    k: usize,
    bits: u32,
    extents: Vec<u64>,
}

impl HilbertCurve {
    /// Builds a `k`-dimensional Hilbert curve with `2^bits` cells per side.
    ///
    /// # Panics
    ///
    /// Panics where [`HilbertCurve::try_new`] returns an error.
    pub fn new(k: usize, bits: u32) -> Self {
        Self::try_new(k, bits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`HilbertCurve::new`], but reports an invalid shape instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`HilbertError::NoDimensions`] if `k == 0`,
    /// [`HilbertError::EmptyExtent`] if `bits == 0`, and
    /// [`HilbertError::TooLarge`] if the grid exceeds `2^63` cells.
    pub fn try_new(k: usize, bits: u32) -> Result<Self, HilbertError> {
        if k == 0 {
            return Err(HilbertError::NoDimensions);
        }
        if bits == 0 {
            return Err(HilbertError::EmptyExtent);
        }
        if (k as u64) * u64::from(bits) > 63 {
            return Err(HilbertError::TooLarge { k, bits });
        }
        Ok(Self {
            k,
            bits,
            extents: vec![1u64 << bits; k],
        })
    }

    /// The 2-D `2^n × 2^n` curve used throughout the paper's examples.
    pub fn square(n: u32) -> Self {
        Self::new(2, n)
    }

    /// Skilling: Hilbert transpose → axes, in place. Reads the arity off
    /// `x`, so inlined into a fixed-size caller its loops unroll.
    #[inline(always)]
    fn transpose_to_axes(&self, x: &mut [u64]) {
        let n = x.len();
        let big = 2u64 << (self.bits - 1);
        // Gray decode by H ^ (H/2).
        let mut t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != big {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Skilling: axes → Hilbert transpose, in place.
    fn axes_to_transpose(&self, x: &mut [u64]) {
        let n = self.k;
        let m = 1u64 << (self.bits - 1);
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u64;
        q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Packs the transposed form into a rank: bit `b` of `x[i]` becomes bit
    /// `b * k + (k - 1 - i)` of the rank (most significant dimensions
    /// first within each bit plane, matching Skilling's convention).
    fn pack(&self, x: &[u64]) -> u64 {
        let mut r = 0u64;
        for b in 0..self.bits {
            for (i, &xi) in x.iter().enumerate() {
                let bit = (xi >> b) & 1;
                let pos = b as usize * self.k + (self.k - 1 - i);
                r |= bit << pos;
            }
        }
        r
    }

    #[inline(always)]
    fn unpack(&self, r: u64, x: &mut [u64]) {
        let k = x.len();
        x.fill(0);
        for b in 0..self.bits {
            for (i, xi) in x.iter_mut().enumerate() {
                let pos = b as usize * k + (k - 1 - i);
                *xi |= ((r >> pos) & 1) << b;
            }
        }
    }

    /// Decodes `ranks` into consecutive rows of `out` (the caller sets its
    /// length). Arities up to 6 run a copy of the decode with `k` fixed at
    /// compile time, whose loops unroll into registers: about 2.5× faster
    /// than the same code with a runtime `k` on 3-D grids.
    fn decode_block(&self, ranks: impl Iterator<Item = u64>, out: &mut CoordsBlock) {
        match self.k {
            1 => self.decode_rows(&mut [0; 1], ranks, out),
            2 => self.decode_rows(&mut [0; 2], ranks, out),
            3 => self.decode_rows(&mut [0; 3], ranks, out),
            4 => self.decode_rows(&mut [0; 4], ranks, out),
            5 => self.decode_rows(&mut [0; 5], ranks, out),
            6 => self.decode_rows(&mut [0; 6], ranks, out),
            // `k <= 63`: every dimension takes at least one rank bit.
            k => self.decode_rows(&mut [0; 63][..k], ranks, out),
        }
    }

    #[inline(always)]
    fn decode_rows(
        &self,
        row: &mut [u64],
        ranks: impl Iterator<Item = u64>,
        out: &mut CoordsBlock,
    ) {
        for (i, rank) in ranks.enumerate() {
            self.unpack(rank, row);
            self.transpose_to_axes(row);
            for (d, &c) in row.iter().enumerate() {
                out.col_mut(d)[i] = c;
            }
        }
    }
}

impl Linearization for HilbertCurve {
    fn extents(&self) -> &[u64] {
        &self.extents
    }

    fn rank(&self, coords: &[u64]) -> u64 {
        debug_assert_eq!(coords.len(), self.k);
        let mut x = coords.to_vec();
        self.axes_to_transpose(&mut x);
        self.pack(&x)
    }

    fn coords(&self, rank: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.k);
        self.unpack(rank, out);
        self.transpose_to_axes(out);
    }

    fn coords_block(&self, start: u64, len: usize, out: &mut CoordsBlock) {
        check_block(self, start, len, out);
        self.decode_block(start..start + len as u64, out);
        out.set_len(len);
    }
}

/// The `coords_block` preconditions of [`Linearization`].
fn check_block(lin: &impl Linearization, start: u64, len: usize, out: &CoordsBlock) {
    assert_eq!(
        out.k(),
        lin.extents().len(),
        "block arity must match the grid"
    );
    assert!(len <= out.capacity(), "len exceeds block capacity");
    assert!(
        start + len as u64 <= lin.num_cells(),
        "block exceeds num_cells"
    );
}

/// A Hilbert curve over an *arbitrary* grid: the grid is embedded in the
/// smallest power-of-two hypercube, traversed by [`HilbertCurve`], and
/// out-of-range cells are skipped, preserving the Hilbert visit order of
/// the real cells. Ranks stay dense (`0..num_cells`) via a sorted index of
/// the occupied padded ranks (`O(N)` memory).
///
/// The index is built by a pruned descent of the Hilbert tree rather than
/// a sweep of the padded cube: the ranks sharing their top `l·k` bits fill
/// one aligned sub-cube of side `2^(bits − l)`, so a sub-cube inside the
/// grid contributes its whole rank range at once, and only the sub-cubes
/// the grid boundary cuts are split further. The cost is
/// `O(N + 2^k·B·k·bits)` for `B` boundary sub-cubes, not
/// `O(side^k·k·bits)`.
///
/// This is what lets the Hilbert baseline run on the paper's TPC-D grid
/// (200 × 10 × 84), which is far from a power-of-two cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactHilbert {
    inner: HilbertCurve,
    extents: Vec<u64>,
    /// Sorted padded ranks of in-range cells; index = compact rank.
    occupied: Vec<u64>,
}

impl CompactHilbert {
    /// Builds the compacted curve. The padded cube has
    /// `next_power_of_two(max extent)` cells per side; building visits the
    /// grid's cells and the padded sub-cubes its boundary cuts.
    ///
    /// # Panics
    ///
    /// Panics where [`CompactHilbert::try_new`] returns an error.
    pub fn new(extents: Vec<u64>) -> Self {
        Self::try_new(extents).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`CompactHilbert::new`], but reports an invalid grid instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`HilbertError::NoDimensions`] if `extents` is empty,
    /// [`HilbertError::EmptyExtent`] if it contains a zero, and
    /// [`HilbertError::TooLarge`] if the padded cube exceeds the 63-bit
    /// rank space.
    pub fn try_new(extents: Vec<u64>) -> Result<Self, HilbertError> {
        let (inner, occupied) = Self::build(&extents, &mut DescentStats::default())?;
        Ok(Self {
            inner,
            extents,
            occupied,
        })
    }

    /// Checks, without building anything, that [`CompactHilbert::try_new`]
    /// would accept `extents`.
    ///
    /// # Errors
    ///
    /// As [`CompactHilbert::try_new`].
    pub fn check_extents(extents: &[u64]) -> Result<(), HilbertError> {
        Self::padded_curve(extents).map(|_| ())
    }

    /// The power-of-two curve `extents` is embedded in.
    fn padded_curve(extents: &[u64]) -> Result<HilbertCurve, HilbertError> {
        let k = extents.len();
        let max = *extents.iter().max().ok_or(HilbertError::NoDimensions)?;
        if extents.contains(&0) {
            return Err(HilbertError::EmptyExtent);
        }
        let side = max
            .checked_next_power_of_two()
            .ok_or(HilbertError::TooLarge { k, bits: 64 })?
            .max(2);
        HilbertCurve::try_new(k, side.trailing_zeros())
    }

    /// The padded curve and the sorted in-range padded ranks of `extents`,
    /// counting the descent's work into `stats`.
    fn build(
        extents: &[u64],
        stats: &mut DescentStats,
    ) -> Result<(HilbertCurve, Vec<u64>), HilbertError> {
        let inner = Self::padded_curve(extents)?;
        let k = extents.len();
        // The product fits: it is at most side^k <= 2^63.
        let mut occupied = Vec::with_capacity(extents.iter().product::<u64>() as usize);
        let mut descent = Descent {
            curve: &inner,
            extents,
            corner: vec![0; k],
            scratch: vec![0; k],
            out: &mut occupied,
            stats,
        };
        descent.visit(inner.bits, 0);
        Ok((inner, occupied))
    }
}

/// Work counters of one [`CompactHilbert`] build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DescentStats {
    /// Sub-cubes visited (each intersects the grid), the root included.
    nodes: u64,
    /// Visited sub-cubes the grid boundary cuts (split further).
    boundary: u64,
}

/// The pruned descent behind [`CompactHilbert::build`]. A node is an
/// aligned sub-cube of side `2^j` with corner `corner`; its ranks are
/// `first..first + 2^(j·k)`.
struct Descent<'a> {
    curve: &'a HilbertCurve,
    extents: &'a [u64],
    corner: Vec<u64>,
    scratch: Vec<u64>,
    out: &'a mut Vec<u64>,
    stats: &'a mut DescentStats,
}

impl Descent<'_> {
    fn visit(&mut self, j: u32, first: u64) {
        self.stats.nodes += 1;
        let side = 1u64 << j;
        if self
            .corner
            .iter()
            .zip(self.extents)
            .all(|(&c, &e)| c + side <= e)
        {
            // Wholly inside: the whole rank range, in order.
            self.out
                .extend(first..first + (1u64 << (j as usize * self.curve.k)));
            return;
        }
        // Cut by the boundary (so j >= 1: a single cell is never cut).
        // The children meeting the grid are the upper/lower-half choices
        // in each dimension, where the upper half is taken only if it
        // starts inside the extent.
        self.stats.boundary += 1;
        let half = side >> 1;
        let free = self
            .corner
            .iter()
            .zip(self.extents)
            .enumerate()
            .filter(|(_, (&c, &e))| c + half < e)
            .fold(0u64, |m, (d, _)| m | (1 << d));
        let shift = (j - 1) as usize * self.curve.k;
        let mut children = Vec::with_capacity(1 << free.count_ones());
        let mut upper = 0u64;
        loop {
            // A child's corner rank, with its low `shift` bits masked,
            // is the first rank of the child's range.
            child_corner(&mut self.scratch, &self.corner, upper, half);
            let rank = self.curve.rank(&self.scratch);
            children.push(((rank >> shift) << shift, upper));
            // Next submask of `free`.
            upper = upper.wrapping_sub(free) & free;
            if upper == 0 {
                break;
            }
        }
        children.sort_unstable();
        let parent = self.corner.clone();
        for (child_first, upper) in children {
            child_corner(&mut self.corner, &parent, upper, half);
            self.visit(j - 1, child_first);
        }
        self.corner = parent;
    }
}

/// Writes into `child` the corner of the child of `parent` that takes the
/// upper half (offset `half`) in the dimensions set in `upper`.
fn child_corner(child: &mut [u64], parent: &[u64], upper: u64, half: u64) {
    for (d, (x, &c)) in child.iter_mut().zip(parent).enumerate() {
        *x = if (upper >> d) & 1 == 1 { c + half } else { c };
    }
}

impl Linearization for CompactHilbert {
    fn extents(&self) -> &[u64] {
        &self.extents
    }

    fn rank(&self, coords: &[u64]) -> u64 {
        let padded = self.inner.rank(coords);
        self.occupied
            .binary_search(&padded)
            .expect("in-range cells are always occupied") as u64
    }

    fn coords(&self, rank: u64, out: &mut [u64]) {
        self.inner.coords(self.occupied[rank as usize], out);
    }

    /// Decodes the block's padded ranks straight out of the occupied index
    /// in one pass: no per-rank dispatch, no allocation.
    fn coords_block(&self, start: u64, len: usize, out: &mut CoordsBlock) {
        check_block(self, start, len, out);
        let start = start as usize;
        let ranks = self.occupied[start..start + len].iter().copied();
        self.inner.decode_block(ranks, out);
        out.set_len(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{assert_bijection, assert_blocked_decode_matches, assert_grid_adjacent};
    use proptest::prelude::*;

    /// The original construction, kept as the descent's oracle: decode
    /// every rank of the padded cube and keep the in-range ones.
    fn padded_sweep(extents: &[u64]) -> Vec<u64> {
        let side = extents.iter().max().unwrap().next_power_of_two().max(2);
        let inner = HilbertCurve::new(extents.len(), side.trailing_zeros());
        let mut buf = vec![0u64; extents.len()];
        (0..side.pow(extents.len() as u32))
            .filter(|&r| {
                inner.coords(r, &mut buf);
                buf.iter().zip(extents).all(|(&c, &e)| c < e)
            })
            .collect()
    }

    /// Aligned sub-cubes of the padded cube, over every level, that the
    /// grid boundary cuts (they meet the grid without lying inside it):
    /// `Π ceil(e/s) − Π floor(e/s)` at each side `s`.
    fn boundary_subcubes(extents: &[u64]) -> u64 {
        let side = extents.iter().max().unwrap().next_power_of_two().max(2);
        let mut total = 0;
        let mut s = side;
        while s >= 1 {
            let meeting: u64 = extents.iter().map(|&e| e.div_ceil(s)).product();
            let inside: u64 = extents.iter().map(|&e| e / s).product();
            total += meeting - inside;
            s /= 2;
        }
        total
    }

    fn descent_stats(extents: &[u64]) -> (Vec<u64>, DescentStats) {
        let mut stats = DescentStats::default();
        let (_, occupied) = CompactHilbert::build(extents, &mut stats).expect("valid grid");
        (occupied, stats)
    }

    /// The descent's work is linear in the boundary: it splits exactly the
    /// sub-cubes the boundary cuts, and each split visits at most `2^k`
    /// children, so `nodes <= 1 + 2^k · boundary`.
    fn assert_descent_is_pruned(extents: &[u64]) -> Vec<u64> {
        let (occupied, stats) = descent_stats(extents);
        let boundary = boundary_subcubes(extents);
        assert_eq!(stats.boundary, boundary, "{extents:?}");
        let fanout = 1u64 << extents.len();
        assert!(
            stats.nodes <= 1 + fanout * boundary,
            "{extents:?}: {} nodes for {boundary} boundary sub-cubes",
            stats.nodes
        );
        assert_eq!(occupied.len() as u64, extents.iter().product::<u64>());
        occupied
    }

    proptest! {
        // A 4-D case sweeps up to 64^4 padded ranks (~2 s in release,
        // ~20 s unoptimized), so unoptimized builds run a smoke-sized
        // sample; CI runs this property in release.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 2 } else { 24 }))]

        #[test]
        fn descent_matches_the_padded_sweep(
            extents in (1usize..=4).prop_flat_map(|k| collection::vec(1u64..=64, k..=k))
        ) {
            let (occupied, _) = descent_stats(&extents);
            prop_assert_eq!(occupied, padded_sweep(&extents));
        }
    }

    #[test]
    fn descent_matches_the_padded_sweep_on_fixed_grids() {
        for extents in [
            vec![1],
            vec![2],
            vec![7],
            vec![3, 5],
            vec![6, 2, 3],
            vec![8, 8],
            vec![33, 17, 9, 5],
            vec![1, 1, 40],
        ] {
            assert_eq!(
                descent_stats(&extents).0,
                padded_sweep(&extents),
                "{extents:?}"
            );
        }
    }

    #[test]
    fn descent_work_is_bounded_by_the_boundary() {
        for extents in [vec![3, 5], vec![33, 17, 9, 5], vec![200, 10, 84]] {
            assert_descent_is_pruned(&extents);
        }
    }

    #[test]
    fn hilbert_build_on_a_1200x10x84_grid_is_pruned() {
        // Padded to 2048^3 ≈ 8.6·10^9 ranks; a sweep of that cube took
        // minutes, the descent visits only the boundary.
        let occupied = assert_descent_is_pruned(&[1200, 10, 84]);
        assert_eq!(occupied.len(), 1_008_000);
        assert!(occupied.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hilbert_blocked_decode_matches_per_rank() {
        // k = 1..=6 take the fixed-arity decoders, k = 7 the generic one.
        for (k, bits) in [(1, 5), (2, 4), (3, 3), (4, 2), (5, 2), (6, 2), (7, 2)] {
            assert_blocked_decode_matches(&HilbertCurve::new(k, bits));
        }
    }

    #[test]
    fn compact_hilbert_blocked_decode_matches_per_rank() {
        for extents in [vec![3, 5], vec![6, 2, 3], vec![7], vec![33, 17, 9, 5]] {
            assert_blocked_decode_matches(&CompactHilbert::new(extents));
        }
    }

    #[test]
    fn constructors_report_invalid_shapes() {
        assert_eq!(HilbertCurve::try_new(0, 3), Err(HilbertError::NoDimensions));
        assert_eq!(HilbertCurve::try_new(2, 0), Err(HilbertError::EmptyExtent));
        assert_eq!(
            HilbertCurve::try_new(8, 8),
            Err(HilbertError::TooLarge { k: 8, bits: 8 })
        );
        assert!(HilbertCurve::try_new(7, 9).is_ok());
        assert_eq!(
            CompactHilbert::try_new(vec![]),
            Err(HilbertError::NoDimensions)
        );
        assert_eq!(
            CompactHilbert::try_new(vec![4, 0]),
            Err(HilbertError::EmptyExtent)
        );
        // 4096 pads to 2^12 per side; six dimensions need 72 rank bits
        // although the grid has only 2^17 cells.
        assert_eq!(
            CompactHilbert::try_new(vec![4096, 2, 2, 2, 2, 2]),
            Err(HilbertError::TooLarge { k: 6, bits: 12 })
        );
        assert_eq!(
            CompactHilbert::try_new(vec![u64::MAX]),
            Err(HilbertError::TooLarge { k: 1, bits: 64 })
        );
    }

    #[test]
    fn hilbert_2d_is_bijective_and_adjacent() {
        for n in 1..=5 {
            let h = HilbertCurve::square(n);
            assert_bijection(&h);
            assert_grid_adjacent(&h);
        }
    }

    #[test]
    fn hilbert_3d_and_4d_adjacent() {
        let h3 = HilbertCurve::new(3, 3);
        assert_bijection(&h3);
        assert_grid_adjacent(&h3);
        let h4 = HilbertCurve::new(4, 2);
        assert_bijection(&h4);
        assert_grid_adjacent(&h4);
    }

    #[test]
    fn hilbert_starts_at_origin() {
        for k in 1..=4 {
            let h = HilbertCurve::new(k, 2);
            assert_eq!(h.coords_vec(0), vec![0; k]);
        }
    }

    #[test]
    fn hilbert_ends_adjacent_to_start_axis() {
        // The 2-D Hilbert curve famously ends one step away from the origin
        // along one axis at (2^n - 1, 0) or (0, 2^n - 1).
        for n in 1..=5 {
            let h = HilbertCurve::square(n);
            let last = h.coords_vec(h.num_cells() - 1);
            let side = (1u64 << n) - 1;
            assert!(
                last == vec![side, 0] || last == vec![0, side],
                "n={n}: last cell {last:?}"
            );
        }
    }

    #[test]
    fn hilbert_2x2_order() {
        let h = HilbertCurve::square(1);
        let cells: Vec<Vec<u64>> = (0..4).map(|r| h.coords_vec(r)).collect();
        // One of the two 2x2 Hilbert orientations.
        assert_eq!(cells[0], vec![0, 0]);
        assert!(cells[3] == vec![1, 0] || cells[3] == vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "grid too large")]
    fn rejects_oversized_grids() {
        HilbertCurve::new(8, 8);
    }

    #[test]
    fn compact_hilbert_bijective_on_odd_grids() {
        for extents in [vec![3, 5], vec![6, 2, 3], vec![7], vec![4, 4]] {
            let c = CompactHilbert::new(extents);
            assert_bijection(&c);
        }
    }

    #[test]
    fn compact_hilbert_on_square_pow2_equals_plain_hilbert() {
        let c = CompactHilbert::new(vec![8, 8]);
        let h = HilbertCurve::square(3);
        for r in 0..64 {
            assert_eq!(c.coords_vec(r), h.coords_vec(r));
        }
    }

    #[test]
    fn compact_hilbert_preserves_hilbert_order() {
        // The relative visit order of any two in-range cells matches the
        // padded Hilbert order.
        let c = CompactHilbert::new(vec![5, 3]);
        let h = HilbertCurve::new(2, 3); // padded to 8x8
        let mut cells = Vec::new();
        for x in 0..5u64 {
            for y in 0..3u64 {
                cells.push(vec![x, y]);
            }
        }
        cells.sort_by_key(|cell| c.rank(cell));
        let padded: Vec<u64> = cells.iter().map(|cell| h.rank(cell)).collect();
        assert!(padded.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn compact_hilbert_locality_beats_row_major_on_squares() {
        // Locality sanity: square queries need fewer fragments under
        // (compacted) Hilbert than under row-major on a tallish grid.
        use crate::fragments::query_fragments;
        use crate::nested::NestedLoops;
        let extents = vec![12, 20];
        let ch = CompactHilbert::new(extents.clone());
        let rm = NestedLoops::row_major(extents, &[0, 1]);
        let mut h_total = 0;
        let mut r_total = 0;
        for x in (0..8).step_by(4) {
            for y in (0..16).step_by(4) {
                let q = [x..x + 4, y..y + 4];
                h_total += query_fragments(&ch, &q);
                r_total += query_fragments(&rm, &q);
            }
        }
        assert!(
            h_total < r_total,
            "hilbert {h_total} vs row-major {r_total}"
        );
    }
}
