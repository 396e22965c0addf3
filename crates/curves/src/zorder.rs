//! The Z-curve (bit interleaving / Morton order) — Orenstein & Merrett
//! \[17\], the quadrant-based strategy of the paper's Figure 2(a) family.

use crate::nested::{Loop, NestedLoops};
use crate::{CoordsBlock, Linearization};
use std::fmt;

/// Why a Z-order curve cannot be built over a requested grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZOrderError {
    /// The grid has no dimensions.
    NoDimensions,
    /// An extent is not a power of two (zero included).
    NotPowerOfTwo {
        /// The offending extent.
        extent: u64,
    },
    /// The grid has more than `2^63` cells, beyond a `u64` rank.
    TooLarge {
        /// Total bits of the Morton code.
        bits: u32,
    },
}

impl fmt::Display for ZOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZOrderError::NoDimensions => write!(f, "need at least one dimension"),
            ZOrderError::NotPowerOfTwo { extent } => {
                write!(f, "extent {extent} is not a power of two")
            }
            ZOrderError::TooLarge { bits } => {
                write!(f, "grid too large: {bits} Morton bits exceed 63")
            }
        }
    }
}

impl std::error::Error for ZOrderError {}

/// Morton / Z-order over a grid whose extents are powers of two (dimensions
/// may have different sizes; bits are interleaved round-robin starting from
/// the least significant, skipping exhausted dimensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZOrderCurve {
    extents: Vec<u64>,
    bits: Vec<u32>,
    /// The equivalent radix-2 loop nest: bit interleaving *is* a nested
    /// loop per coordinate bit, innermost first. Only used for structural
    /// run enumeration, where the generic prefix decomposition over this
    /// nest is exactly litmax/bigmin range splitting on the Morton code.
    nest: NestedLoops,
}

impl ZOrderCurve {
    /// Builds a Z-order curve.
    ///
    /// # Panics
    ///
    /// Panics where [`ZOrderCurve::try_new`] returns an error.
    pub fn new(extents: Vec<u64>) -> Self {
        Self::try_new(extents).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a Z-order curve, or says why the grid has none.
    ///
    /// # Errors
    ///
    /// [`ZOrderError::NoDimensions`] if `extents` is empty,
    /// [`ZOrderError::NotPowerOfTwo`] if an extent is not a power of two,
    /// and [`ZOrderError::TooLarge`] if the grid exceeds `2^63` cells.
    pub fn try_new(extents: Vec<u64>) -> Result<Self, ZOrderError> {
        if extents.is_empty() {
            return Err(ZOrderError::NoDimensions);
        }
        let bits = extents
            .iter()
            .map(|&extent| {
                if extent.is_power_of_two() {
                    Ok(extent.trailing_zeros())
                } else {
                    Err(ZOrderError::NotPowerOfTwo { extent })
                }
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let total: u32 = bits.iter().sum();
        if total > 63 {
            return Err(ZOrderError::TooLarge { bits: total });
        }
        let max_bits = bits.iter().copied().max().unwrap_or(0);
        let mut loops = Vec::new();
        for level in 0..max_bits {
            for (d, &b) in bits.iter().enumerate() {
                if level < b {
                    loops.push(Loop { dim: d, radix: 2 });
                }
            }
        }
        let nest = NestedLoops::new(extents.clone(), loops, false);
        Ok(Self {
            extents,
            bits,
            nest,
        })
    }

    /// A square 2-D curve of side `2^n` — the paper's toy setting.
    pub fn square(n: u32) -> Self {
        Self::new(vec![1 << n, 1 << n])
    }
}

impl Linearization for ZOrderCurve {
    fn extents(&self) -> &[u64] {
        &self.extents
    }

    fn rank(&self, coords: &[u64]) -> u64 {
        debug_assert_eq!(coords.len(), self.extents.len());
        let mut r = 0u64;
        let mut out_bit = 0u32;
        let max_bits = self.bits.iter().copied().max().unwrap_or(0);
        for level in 0..max_bits {
            for (d, &b) in self.bits.iter().enumerate() {
                if level < b {
                    r |= ((coords[d] >> level) & 1) << out_bit;
                    out_bit += 1;
                }
            }
        }
        r
    }

    fn coords(&self, rank: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.extents.len());
        out.fill(0);
        let mut in_bit = 0u32;
        let max_bits = self.bits.iter().copied().max().unwrap_or(0);
        for level in 0..max_bits {
            for (d, &b) in self.bits.iter().enumerate() {
                if level < b {
                    out[d] |= ((rank >> in_bit) & 1) << level;
                    in_bit += 1;
                }
            }
        }
    }

    /// Incremental decode: `rank ^ (rank + 1)` names exactly the Morton
    /// bits that flip on a step, and each rank bit toggles one coordinate
    /// bit — amortized two bit flips per rank instead of a full
    /// de-interleave.
    fn coords_block(&self, start: u64, len: usize, out: &mut CoordsBlock) {
        assert_eq!(out.k(), self.extents.len(), "block arity must match");
        assert!(len <= out.capacity(), "len exceeds block capacity");
        assert!(
            start + len as u64 <= self.num_cells(),
            "block exceeds num_cells"
        );
        if len == 0 {
            out.set_len(0);
            return;
        }
        // Rank bit -> (dimension, coordinate bit) of the interleave.
        let max_bits = self.bits.iter().copied().max().unwrap_or(0);
        let mut bit_map = Vec::with_capacity(self.bits.iter().map(|&b| b as usize).sum());
        for level in 0..max_bits {
            for (d, &b) in self.bits.iter().enumerate() {
                if level < b {
                    bit_map.push((d, level));
                }
            }
        }
        let mut cur = vec![0u64; self.extents.len()];
        self.coords(start, &mut cur);
        for i in 0..len {
            for (d, &c) in cur.iter().enumerate() {
                out.col_mut(d)[i] = c;
            }
            if i + 1 < len {
                let r = start + i as u64;
                let mut changed = r ^ (r + 1);
                while changed != 0 {
                    let (d, level) = bit_map[changed.trailing_zeros() as usize];
                    cur[d] ^= 1 << level;
                    changed &= changed - 1;
                }
            }
        }
        out.set_len(len);
    }

    fn rank_runs(&self, ranges: &[std::ops::Range<u64>], sink: &mut dyn FnMut(u64, u64)) {
        self.nest.rank_runs(ranges, sink);
    }

    fn has_structural_runs(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::assert_bijection;

    #[test]
    fn z_order_4x4_first_quadrant() {
        // Z-order visits the 2x2 quadrant {0,1}^2 in ranks 0..4.
        let z = ZOrderCurve::square(2);
        let mut quad: Vec<Vec<u64>> = (0..4).map(|r| z.coords_vec(r)).collect();
        quad.sort();
        assert_eq!(quad, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn z_order_matches_bit_interleave() {
        let z = ZOrderCurve::square(3);
        // rank(x, y) interleaves x (even bit positions) and y (odd).
        assert_eq!(z.rank(&[1, 0]), 0b01);
        assert_eq!(z.rank(&[0, 1]), 0b10);
        assert_eq!(z.rank(&[3, 5]), 0b100111);
        assert_eq!(z.rank(&[7, 7]), 63);
    }

    #[test]
    fn bijective_on_assorted_grids() {
        for extents in [vec![4, 4], vec![8, 2], vec![2, 4, 8], vec![16]] {
            assert_bijection(&ZOrderCurve::new(extents));
        }
    }

    #[test]
    fn uneven_extents_interleave_low_bits_first() {
        // 8x2: dim 1 contributes only the first round's bit.
        let z = ZOrderCurve::new(vec![8, 2]);
        assert_eq!(z.rank(&[0, 1]), 0b10);
        assert_eq!(z.rank(&[4, 0]), 0b1000);
        assert_bijection(&z);
    }

    #[test]
    fn blocked_decode_matches_per_rank() {
        use crate::test_util::assert_blocked_decode_matches;
        for extents in [vec![4, 4], vec![8, 2], vec![2, 4, 8], vec![16], vec![1, 4]] {
            assert_blocked_decode_matches(&ZOrderCurve::new(extents));
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_power_extent() {
        ZOrderCurve::new(vec![3, 4]);
    }

    #[test]
    fn try_new_names_what_is_wrong_with_the_grid() {
        assert_eq!(ZOrderCurve::try_new(vec![]), Err(ZOrderError::NoDimensions));
        for extent in [0, 3, 12] {
            assert_eq!(
                ZOrderCurve::try_new(vec![4, extent]),
                Err(ZOrderError::NotPowerOfTwo { extent })
            );
        }
        assert_eq!(
            ZOrderCurve::try_new(vec![1 << 32, 1 << 32]),
            Err(ZOrderError::TooLarge { bits: 64 })
        );
        // 2^63 cells is the largest grid a u64 rank addresses.
        assert!(ZOrderCurve::try_new(vec![1 << 31, 1 << 32]).is_ok());
        assert_eq!(
            ZOrderCurve::try_new(vec![8, 2]),
            Ok(ZOrderCurve::new(vec![8, 2]))
        );
        let message = ZOrderError::TooLarge { bits: 64 }.to_string();
        assert!(message.starts_with("grid too large"), "{message}");
    }

    #[test]
    #[should_panic(expected = "need at least one dimension")]
    fn new_panics_on_an_empty_grid() {
        ZOrderCurve::new(vec![]);
    }

    /// The private radix-2 loop nest is the same bijection as the
    /// bit-twiddled rank/coords — the precondition for delegating
    /// `rank_runs` to it.
    #[test]
    fn nest_matches_bit_interleave() {
        for extents in [vec![4, 4], vec![8, 2], vec![2, 4, 8], vec![16]] {
            let z = ZOrderCurve::new(extents);
            for r in 0..z.num_cells() {
                assert_eq!(z.nest.coords_vec(r), z.coords_vec(r), "rank {r}");
            }
        }
    }

    #[test]
    fn structural_runs_split_at_quadrants() {
        // Left half of the 4x4 Z grid: quadrants 0 and 2, i.e. ranks 0..4
        // and 8..12.
        let z = ZOrderCurve::square(2);
        let mut runs = Vec::new();
        z.rank_runs(&[0..2, 0..4], &mut |s, l| runs.push((s, l)));
        assert_eq!(runs, vec![(0, 4), (8, 4)]);
    }
}
