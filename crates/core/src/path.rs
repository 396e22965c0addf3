//! Monotone lattice paths (Definition 3) and the clustering strategies they
//! induce.
//!
//! A monotone lattice path is a chain `⊥ = u_1, ..., u_t = ⊤` where each
//! point is a successor of the previous. Each edge `(u, u + e_d)` taken at
//! level `u_d` specifies one loop over the level-`u_d` siblings of dimension
//! `d`; loops are listed innermost first, and executing them linearizes the
//! data grid (paper §3). The classical "row major" orders are exactly the
//! paths that exhaust one dimension at a time.

use crate::error::{Error, Result};
use crate::lattice::{Class, LatticeShape};
use serde::{Deserialize, Serialize};

/// One loop of a lattice-path clustering: dimension `dim`, iterating the
/// level-`level`-sibling groups — i.e. the path edge from `level - 1` to
/// `level` in `dim`. `fanout` is the loop's trip count `f(dim, level)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Step {
    /// Dimension the loop iterates over.
    pub dim: usize,
    /// Hierarchy level reached by this step (`1..=ℓ_dim`).
    pub level: usize,
}

/// A monotone lattice path from `⊥` to `⊤`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LatticePath {
    shape: LatticeShape,
    /// Dimension taken at each of the `Σ ℓ_d` edges, innermost loop first.
    dims: Vec<usize>,
}

impl LatticePath {
    /// Builds a path from the sequence of dimensions stepped, innermost
    /// first. The `d`-th occurrence of a dimension steps it to level `d`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPath`] if the multiset of dimensions does not
    /// step every dimension exactly to its top level.
    pub fn from_dims(shape: LatticeShape, dims: Vec<usize>) -> Result<Self> {
        let mut counts = vec![0usize; shape.k()];
        for &d in &dims {
            if d >= shape.k() {
                return Err(Error::InvalidPath(format!(
                    "dimension {d} out of range for k={}",
                    shape.k()
                )));
            }
            counts[d] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            if c != shape.top_level(d) {
                return Err(Error::InvalidPath(format!(
                    "dimension {d} stepped {c} times, needs {}",
                    shape.top_level(d)
                )));
            }
        }
        Ok(Self { shape, dims })
    }

    /// Builds a path from its lattice points `⊥, ..., ⊤`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPath`] unless the sequence starts at `⊥`,
    /// ends at `⊤`, and each point is a successor of the previous.
    pub fn from_points(shape: LatticeShape, points: &[Class]) -> Result<Self> {
        if points.first() != Some(&shape.bottom()) {
            return Err(Error::InvalidPath("path must start at ⊥".into()));
        }
        if points.last() != Some(&shape.top()) {
            return Err(Error::InvalidPath("path must end at ⊤".into()));
        }
        let mut dims = Vec::with_capacity(points.len() - 1);
        for w in points.windows(2) {
            match w[0].successor_dim(&w[1]) {
                Some(d) => dims.push(d),
                None => {
                    return Err(Error::InvalidPath(format!(
                        "{} is not a successor of {}",
                        w[1], w[0]
                    )))
                }
            }
        }
        Self::from_dims(shape, dims)
    }

    /// The "row major" path that exhausts dimensions in `order`, the first
    /// entry being the *innermost* (fastest-varying) dimension. For the
    /// paper's `P_1` (Example 2) use `order = [1, 0]` on the toy schema:
    /// `⟨(0,0),(0,1),(0,2),(1,2),(2,2)⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPath`] unless `order` is a permutation of
    /// `0..k`.
    pub fn row_major(shape: LatticeShape, order: &[usize]) -> Result<Self> {
        let k = shape.k();
        let mut seen = vec![false; k];
        for &d in order {
            if d >= k || seen[d] {
                return Err(Error::InvalidPath(format!(
                    "order {order:?} is not a permutation of 0..{k}"
                )));
            }
            seen[d] = true;
        }
        if order.len() != k {
            return Err(Error::InvalidPath(format!(
                "order {order:?} is not a permutation of 0..{k}"
            )));
        }
        let mut dims = Vec::new();
        for &d in order {
            dims.extend(std::iter::repeat_n(d, shape.top_level(d)));
        }
        Self::from_dims(shape, dims)
    }

    /// All `k!` row-major paths of a lattice (the paper's §6.3 evaluates the
    /// "six possible row major strategies" of its 3-dimensional schema).
    pub fn all_row_majors(shape: &LatticeShape) -> Vec<LatticePath> {
        let mut order: Vec<usize> = (0..shape.k()).collect();
        let mut out = Vec::new();
        permute(&mut order, 0, &mut |perm| {
            out.push(
                LatticePath::row_major(shape.clone(), perm).expect("permutation is a valid order"),
            );
        });
        out
    }

    /// Enumerates every monotone lattice path of a lattice. The count is the
    /// multinomial `(Σ ℓ_d)! / Π ℓ_d!` — use only on small lattices (tests,
    /// exhaustive validation).
    pub fn enumerate(shape: &LatticeShape) -> Vec<LatticePath> {
        let mut remaining: Vec<usize> = shape.levels().to_vec();
        let mut dims = Vec::new();
        let mut out = Vec::new();
        enumerate_rec(shape, &mut remaining, &mut dims, &mut out);
        out
    }

    /// The lattice this path lives in.
    pub fn shape(&self) -> &LatticeShape {
        &self.shape
    }

    /// The stepped dimensions, innermost loop first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of edges `Σ ℓ_d`.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True for the degenerate single-point lattice (no edges).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The loop specification, innermost first: each step's dimension and
    /// the level it reaches.
    pub fn steps(&self) -> Vec<Step> {
        let mut level = vec![0usize; self.shape.k()];
        self.dims
            .iter()
            .map(|&d| {
                level[d] += 1;
                Step {
                    dim: d,
                    level: level[d],
                }
            })
            .collect()
    }

    /// The lattice points visited, `⊥` first.
    pub fn points(&self) -> Vec<Class> {
        let mut cur = self.shape.bottom();
        let mut pts = Vec::with_capacity(self.dims.len() + 1);
        pts.push(cur.clone());
        for &d in &self.dims {
            cur.0[d] += 1;
            pts.push(cur.clone());
        }
        pts
    }

    /// Whether class `c` lies on the path.
    pub fn contains(&self, c: &Class) -> bool {
        self.points().iter().any(|p| p == c)
    }

    /// The departure point of class `u`: the last path point `v <= u`.
    /// The path visits points monotonically and the down-set of `u` is
    /// downward closed, so the points of the path inside it form a prefix;
    /// this returns that prefix's maximum. The expected query cost of class
    /// `u` is the lattice distance from this point to `u` (see
    /// [`crate::cost`]).
    pub fn departure_point(&self, u: &Class) -> Class {
        debug_assert!(self.shape.contains(u));
        let mut cur = self.shape.bottom();
        for &d in &self.dims {
            if cur.0[d] + 1 > u.0[d] {
                break;
            }
            cur.0[d] += 1;
        }
        cur
    }

    /// Renders the path as `⟨(0,0),(0,1),...⟩` like the paper's Example 2.
    pub fn display_points(&self) -> String {
        self.to_string()
    }
}

/// Writes the points straight into the formatter, carrying the current
/// point in one counter buffer as [`LatticePath::points`] does: linear in
/// the path's length.
impl std::fmt::Display for LatticePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut cur = self.shape.bottom();
        f.write_str("⟨")?;
        cur.fmt(f)?;
        for &d in &self.dims {
            cur.0[d] += 1;
            f.write_str(",")?;
            cur.fmt(f)?;
        }
        f.write_str("⟩")
    }
}

fn enumerate_rec(
    shape: &LatticeShape,
    remaining: &mut Vec<usize>,
    dims: &mut Vec<usize>,
    out: &mut Vec<LatticePath>,
) {
    if remaining.iter().all(|&r| r == 0) {
        out.push(LatticePath {
            shape: shape.clone(),
            dims: dims.clone(),
        });
        return;
    }
    for d in 0..remaining.len() {
        if remaining[d] > 0 {
            remaining[d] -= 1;
            dims.push(d);
            enumerate_rec(shape, remaining, dims, out);
            dims.pop();
            remaining[d] += 1;
        }
    }
}

fn permute(items: &mut Vec<usize>, at: usize, f: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, f);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StarSchema;

    fn toy_shape() -> LatticeShape {
        LatticeShape::of_schema(&StarSchema::paper_toy())
    }

    /// The paper's `P_1` = ⟨(0,0),(0,1),(0,2),(1,2),(2,2)⟩ (Example 2).
    pub(crate) fn p1() -> LatticePath {
        LatticePath::from_dims(toy_shape(), vec![1, 1, 0, 0]).unwrap()
    }

    /// The paper's `P_2` = ⟨(0,0),(0,1),(1,1),(1,2),(2,2)⟩ (Example 2).
    pub(crate) fn p2() -> LatticePath {
        LatticePath::from_dims(toy_shape(), vec![1, 0, 1, 0]).unwrap()
    }

    #[test]
    fn p1_points_match_example_2() {
        assert_eq!(p1().display_points(), "⟨(0,0),(0,1),(0,2),(1,2),(2,2)⟩");
        assert_eq!(p2().display_points(), "⟨(0,0),(0,1),(1,1),(1,2),(2,2)⟩");
    }

    #[test]
    fn from_points_roundtrip() {
        for p in [p1(), p2()] {
            let q = LatticePath::from_points(toy_shape(), &p.points()).unwrap();
            assert_eq!(p, q);
        }
    }

    #[test]
    fn from_points_rejects_bad_sequences() {
        let shape = toy_shape();
        // Missing ⊥.
        assert!(
            LatticePath::from_points(shape.clone(), &[Class(vec![0, 1]), Class(vec![2, 2])])
                .is_err()
        );
        // Jumps two levels.
        assert!(LatticePath::from_points(
            shape.clone(),
            &[Class(vec![0, 0]), Class(vec![0, 2]), Class(vec![2, 2])]
        )
        .is_err());
        // Diagonal lattice move.
        assert!(LatticePath::from_points(
            shape,
            &[
                Class(vec![0, 0]),
                Class(vec![1, 1]),
                Class(vec![2, 1]),
                Class(vec![2, 2])
            ]
        )
        .is_err());
    }

    #[test]
    fn from_dims_validates_counts() {
        let shape = toy_shape();
        assert!(LatticePath::from_dims(shape.clone(), vec![0, 0, 1]).is_err());
        assert!(LatticePath::from_dims(shape.clone(), vec![0, 0, 1, 1, 1]).is_err());
        assert!(LatticePath::from_dims(shape, vec![0, 0, 2, 1]).is_err());
    }

    #[test]
    fn steps_assign_levels_in_order() {
        let s = p2().steps();
        assert_eq!(
            s,
            vec![
                Step { dim: 1, level: 1 },
                Step { dim: 0, level: 1 },
                Step { dim: 1, level: 2 },
                Step { dim: 0, level: 2 },
            ]
        );
    }

    #[test]
    fn row_major_matches_p1() {
        // P_1 loops location (dim 1) innermost.
        let rm = LatticePath::row_major(toy_shape(), &[1, 0]).unwrap();
        assert_eq!(rm, p1());
    }

    #[test]
    fn row_major_rejects_non_permutations() {
        let shape = toy_shape();
        assert!(LatticePath::row_major(shape.clone(), &[0, 0]).is_err());
        assert!(LatticePath::row_major(shape.clone(), &[0]).is_err());
        assert!(LatticePath::row_major(shape, &[0, 2]).is_err());
    }

    #[test]
    fn all_row_majors_counts_factorial() {
        let shape = LatticeShape::new(vec![2, 1, 2]);
        let rms = LatticePath::all_row_majors(&shape);
        assert_eq!(rms.len(), 6);
        let unique: std::collections::HashSet<_> = rms.iter().map(|p| p.dims().to_vec()).collect();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn enumerate_counts_multinomial() {
        // 2-D with (2, 2): C(4, 2) = 6 paths.
        assert_eq!(LatticePath::enumerate(&toy_shape()).len(), 6);
        // 3-D with (2, 1, 2): 5!/(2!·1!·2!) = 30.
        let shape = LatticeShape::new(vec![2, 1, 2]);
        assert_eq!(LatticePath::enumerate(&shape).len(), 30);
    }

    #[test]
    fn departure_point_examples() {
        // Under P_1, class (1,1) departs at (0,1); class (2,0) at (0,0);
        // points on the path depart at themselves.
        assert_eq!(p1().departure_point(&Class(vec![1, 1])), Class(vec![0, 1]));
        assert_eq!(p1().departure_point(&Class(vec![2, 0])), Class(vec![0, 0]));
        assert_eq!(p1().departure_point(&Class(vec![0, 2])), Class(vec![0, 2]));
        assert_eq!(p2().departure_point(&Class(vec![2, 1])), Class(vec![1, 1]));
        assert_eq!(p2().departure_point(&Class(vec![0, 2])), Class(vec![0, 1]));
    }

    #[test]
    fn departure_point_is_on_path_and_below() {
        let shape = LatticeShape::new(vec![2, 2, 1]);
        for p in LatticePath::enumerate(&shape) {
            for u in shape.iter() {
                let v = p.departure_point(&u);
                assert!(v.leq(&u));
                assert!(p.contains(&v));
                // Maximality: no later path point is still <= u.
                let pts = p.points();
                let pos = pts.iter().position(|x| *x == v).unwrap();
                if pos + 1 < pts.len() {
                    assert!(!pts[pos + 1].leq(&u));
                }
            }
        }
    }

    #[test]
    fn contains_detects_path_membership() {
        assert!(p1().contains(&Class(vec![0, 2])));
        assert!(!p1().contains(&Class(vec![1, 1])));
    }
}
