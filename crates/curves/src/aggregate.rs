//! Single-pass whole-lattice fragment aggregation.
//!
//! [`crate::fragments::class_costs`] prices each class by enumerating all
//! of its subgrid queries — `|L|` independent scans, each touching every
//! cell. This module derives the *entire* `class_costs` vector from one
//! walk over the curve.
//!
//! The identity (cf. `snakes_core::cv`): a class-`u` subgrid holding `c`
//! cells and `e` curve edges splits into `c − e` fragments, so summing
//! over all subgrids of `u`,
//!
//! ```text
//! total_fragments(u) = N − internal_edges(u)
//! ```
//!
//! where an edge `(r, r+1)` is internal to `u` iff the hierarchy level it
//! crosses in every dimension is at most `u`'s level there. Each edge is
//! therefore summarized by its *crossing signature* `σ` — `σ_d` is the
//! crossed level in dimension `d` (0 when the coordinates agree) — and
//! `internal_edges(u) = Σ_{σ ≤ u} count[σ]`. Signatures live in the same
//! mixed-radix index space as query classes, so the pass bumps one dense
//! `u64` counter per edge (`O(N·k·ℓ)` total: per-dimension
//! hierarchy-boundary detection is an `O(ℓ)` ancestor scan) and a
//! k-dimensional prefix sum (`O(|L|·k)`) then yields every class's
//! internal-edge count at once.
//!
//! Everything is exact `u64` arithmetic until the final
//! `total as f64 / queries as f64` division — the same division the
//! brute-force path performs — so averages are **bit-identical** to
//! [`crate::fragments::class_average_cost`], not merely close.
//!
//! ## Kernel design
//!
//! The production walk ([`aggregate_class_costs`] /
//! [`aggregate_class_costs_with`]) is cache-blocked and branch-free:
//!
//! 1. **Blocked decode** — ranks stream through
//!    [`Linearization::coords_block`] in [`BLOCK_EDGES`]-rank chunks into a
//!    struct-of-arrays buffer, so structured curves decode incrementally
//!    (odometer / bit flips) instead of paying a virtual call and a full
//!    mixed-radix decode per rank.
//! 2. **Boundary-label LUTs** — per dimension, each coordinate's packed
//!    mixed-radix digit path is precomputed as a `u64` *label* (coarsest
//!    digit in the high bits, one spare sentinel bit at the bottom). The
//!    hierarchy level an edge crosses is then the field holding the most
//!    significant differing label bit, so each dimension's contribution to
//!    the signature index is `premul[63 ^ lzcnt((la ^ lb) | 1)]` — two
//!    table loads, an xor and a count-leading-zeros, no branches, and the
//!    inner loops auto-vectorize.
//! 3. **Cache-blocked prefix sum** — the k-dimensional prefix sum runs
//!    digit-chains over L1-resident tiles with unit-stride inner loops.
//! 4. **Parallel spans** — the rank range splits into contiguous per-worker
//!    spans, each worker filling a private `u64` signature table that is
//!    folded element-wise on join. Integer addition is exact and each edge
//!    `(r-1, r)` belongs to exactly one span (the one owning `r`), so the
//!    fold is **bit-identical** to the serial walk, not merely close.
//!
//! [`aggregate_class_costs_reference`] retains the original scalar
//! implementation as the differential-testing oracle; grids whose label
//! tables would not fit the `u64` budget fall back to its per-edge
//! ancestor scans automatically.
//!
//! ## Lattice paths need no walk
//!
//! A lattice-path curve is a loop nest, so its signature table follows
//! from the path alone ([`WholeLatticeCosts::of_lattice_path`], O(Σℓ)
//! plus the shared O(|L|·k) finish). Loop `j` (innermost first, radix
//! `r_j`, path step `(d_j, ℓ_j)`) is the outermost loop that changes on
//! exactly `(r_j − 1)·Π_{i>j} r_i` edges. On a snaked path such an edge
//! changes digit `j` alone, so its signature is `ℓ_j` in `d_j` and 0
//! elsewhere; on a plain path every inner loop with `r_i > 1` wraps too,
//! so `σ_d` is the largest `ℓ_i` among the changed loops of `d`. The
//! counts are the walk's exact integers, so the table is equal to the
//! walk's, not merely close. The walk remains for every other curve.

use crate::{CoordsBlock, Linearization};
use serde::{Deserialize, Serialize};
use snakes_core::lattice::{Class, LatticeShape};
use snakes_core::parallel::{metrics, ParallelConfig};
use snakes_core::path::LatticePath;
use snakes_core::schema::StarSchema;
use snakes_core::workload::Workload;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Ranks decoded per [`Linearization::coords_block`] call in the blocked
/// walk: large enough to amortize per-block setup, small enough that the
/// block's SoA columns, labels, and accumulator (~`(k + 2) * 32 KiB` at
/// `k = 3`) stay L1/L2-resident.
pub const BLOCK_EDGES: usize = 4096;

/// Minimum edges per worker before the walk bothers splitting: below this
/// the span setup (buffer allocation + one boundary decode) outweighs the
/// win.
const PAR_MIN_EDGES_PER_WORKER: u64 = 1 << 15;

/// Total label-table entries (one `u64` per coordinate per dimension) the
/// LUT builder is willing to allocate before falling back to the scalar
/// kernel.
const LUT_MAX_ENTRIES: u64 = 1 << 22;

/// Exact per-class fragment totals for every class of the lattice,
/// produced by one pass over the curve ([`aggregate_class_costs`]).
///
/// This is the *crossing-signature table* of the incremental
/// re-optimization engine: everything in it is workload-independent
/// geometry (the curve walk fixes which edges cross which hierarchy
/// boundaries), so once built — or fetched from a [`SignatureCache`] — any
/// workload is priced by the O(|L|) dot product [`Self::expected_cost`]
/// with results bit-identical to a fresh walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WholeLatticeCosts {
    shape: LatticeShape,
    num_cells: u64,
    /// Raw edge counts by crossing signature (before the prefix sum):
    /// `signature[σ]` is the number of curve edges whose crossed hierarchy
    /// level is exactly `σ_d` in every dimension `d`.
    signature: Vec<u64>,
    /// Curve edges internal to class-`r` subgrids, by class rank
    /// (`Σ_{σ ≤ r} signature[σ]`).
    internal: Vec<u64>,
    /// Number of subgrid queries in class `r`, by class rank.
    queries: Vec<u64>,
}

/// Kernel options for [`aggregate_class_costs_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateOptions {
    /// Worker pool for the curve walk. Defaults to serial: one walk is
    /// already cheap, so splitting it only pays on large grids — callers
    /// that hold a multi-core budget (the storage engine dispatch, the
    /// benches) opt in explicitly.
    pub parallel: ParallelConfig,
}

impl Default for AggregateOptions {
    fn default() -> Self {
        Self {
            parallel: ParallelConfig::serial(),
        }
    }
}

impl AggregateOptions {
    /// Serial walk (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// A walk parallelized across `parallel`'s workers.
    pub fn with_parallel(parallel: ParallelConfig) -> Self {
        Self { parallel }
    }
}

/// Walks the curve once and aggregates fragment totals for the whole
/// class lattice, serially. See the module docs for the counting identity
/// and the kernel design; [`aggregate_class_costs_with`] adds the
/// parallel-span walk.
///
/// # Panics
///
/// Panics if the linearization's grid differs from the schema's.
pub fn aggregate_class_costs(schema: &StarSchema, lin: &impl Linearization) -> WholeLatticeCosts {
    let plan = AggregatePlan::of(schema, lin);
    let counts = match build_luts(schema, &plan.strides) {
        Some(luts) if plan.n >= 2 => {
            metrics::record_agg_walk_blocked();
            let mut counts = vec![0u64; plan.num_classes];
            count_span_blocked(lin, &luts, plan.k, 1, plan.n, &mut counts);
            counts
        }
        _ => count_edges_scalar(schema, lin, &plan),
    };
    plan.finish(schema, counts)
}

/// As [`aggregate_class_costs`], with explicit kernel options: the curve
/// walk splits into contiguous rank spans across `opts.parallel`'s
/// workers, each filling a private `u64` signature table folded
/// element-wise on join — exact integer addition, each edge counted by
/// exactly one span, so the result is bit-identical to the serial walk.
///
/// # Panics
///
/// Panics if the linearization's grid differs from the schema's.
pub fn aggregate_class_costs_with(
    schema: &StarSchema,
    lin: &(impl Linearization + Sync),
    opts: AggregateOptions,
) -> WholeLatticeCosts {
    let plan = AggregatePlan::of(schema, lin);
    let counts = match build_luts(schema, &plan.strides) {
        Some(luts) if plan.n >= 2 => {
            metrics::record_agg_walk_blocked();
            count_edges_parallel(lin, &luts, &plan, &opts)
        }
        _ => count_edges_scalar(schema, lin, &plan),
    };
    plan.finish(schema, counts)
}

/// The retained scalar reference aggregator: per-rank `coords` decode
/// through virtual dispatch, per-edge `crossing_level` ancestor scans, the
/// naive ascending-rank prefix sum, and per-class `unrank` query counting
/// — exactly the pre-kernel-rewrite implementation, kept as the oracle the
/// differential suites pin every production kernel (blocked + LUT,
/// parallel spans, cache-blocked prefix sum) against, bit for bit.
///
/// # Panics
///
/// Panics if the linearization's grid differs from the schema's.
pub fn aggregate_class_costs_reference(
    schema: &StarSchema,
    lin: &impl Linearization,
) -> WholeLatticeCosts {
    assert_eq!(
        lin.extents(),
        schema.grid_shape().as_slice(),
        "linearization grid must match the schema"
    );
    let shape = LatticeShape::of_schema(schema);
    let k = schema.k();
    let num_classes = shape.num_classes();
    // Mixed-radix strides matching `LatticeShape::rank` (dim 0 fastest).
    let mut strides = vec![1usize; k];
    for d in 1..k {
        strides[d] = strides[d - 1] * (shape.top_level(d - 1) + 1);
    }

    // One pass: count edges by crossing signature.
    let mut counts = vec![0u64; num_classes];
    let n = schema.num_cells();
    let mut prev = vec![0u64; k];
    let mut cur = vec![0u64; k];
    lin.coords(0, &mut prev);
    for r in 1..n {
        lin.coords(r, &mut cur);
        let mut idx = 0usize;
        for d in 0..k {
            if let Some(level) = schema.dim(d).crossing_level(prev[d], cur[d]) {
                idx += level * strides[d];
            }
        }
        counts[idx] += 1;
        std::mem::swap(&mut prev, &mut cur);
    }
    let signature = counts.clone();

    // In-place k-dimensional prefix sum: counts[u] becomes
    // Σ_{σ ≤ u componentwise} counts[σ] = internal_edges(u). Ascending
    // index order makes `idx - strides[d]` the already-accumulated
    // predecessor along dimension d.
    for d in 0..k {
        let radix = shape.top_level(d) + 1;
        for idx in 0..num_classes {
            if !(idx / strides[d]).is_multiple_of(radix) {
                counts[idx] += counts[idx - strides[d]];
            }
        }
    }

    // Query counts are exact integers here (the fractional CostModel
    // variant exists for unbalanced-average fanouts, which physical
    // grids never have).
    let queries = (0..num_classes)
        .map(|r| {
            let u = shape.unrank(r);
            (0..k)
                .map(|d| schema.dim(d).nodes_at_level(u.level(d)))
                .product()
        })
        .collect();

    WholeLatticeCosts {
        shape,
        num_cells: n,
        signature,
        internal: counts,
        queries,
    }
}

/// The shared geometry every aggregation path needs, plus the shared
/// post-walk finish (prefix sum + query counts).
struct AggregatePlan {
    shape: LatticeShape,
    k: usize,
    num_classes: usize,
    /// Mixed-radix strides matching `LatticeShape::rank` (dim 0 fastest).
    strides: Vec<usize>,
    n: u64,
}

impl AggregatePlan {
    /// The plan of a curve walk: checks the grid and counts the edges the
    /// walk will classify.
    fn of(schema: &StarSchema, lin: &impl Linearization) -> Self {
        assert_eq!(
            lin.extents(),
            schema.grid_shape().as_slice(),
            "linearization grid must match the schema"
        );
        let plan = Self::of_schema(schema);
        if plan.n >= 2 {
            metrics::record_agg_edges(plan.n - 1);
        }
        plan
    }

    fn of_schema(schema: &StarSchema) -> Self {
        let shape = LatticeShape::of_schema(schema);
        let k = schema.k();
        let num_classes = shape.num_classes();
        let mut strides = vec![1usize; k];
        for d in 1..k {
            strides[d] = strides[d - 1] * (shape.top_level(d - 1) + 1);
        }
        Self {
            shape,
            k,
            num_classes,
            strides,
            n: schema.num_cells(),
        }
    }

    fn finish(self, schema: &StarSchema, mut counts: Vec<u64>) -> WholeLatticeCosts {
        let signature = counts.clone();
        {
            let _t = metrics::PhaseTimer::start(metrics::Phase::AggPrefix);
            prefix_sum_in_place(&mut counts, &self.shape, &self.strides);
        }
        WholeLatticeCosts {
            queries: query_counts(schema, &self.shape),
            shape: self.shape,
            num_cells: self.n,
            signature,
            internal: counts,
        }
    }
}

/// Per-dimension boundary-label lookup tables (kernel design step 2).
struct DimLut {
    /// `labels[x]`: coordinate `x`'s mixed-radix digit path packed into bit
    /// fields, coarsest level highest, shifted up one bit (bit 0 is the
    /// `| 1` sentinel of the branch-free msb extraction). Labels are
    /// injective — the digits determine the coordinate — so equal labels
    /// mean equal coordinates.
    labels: Vec<u64>,
    /// `premul[m]`: the signature-index contribution (`crossing level ×
    /// class-rank stride`) of an edge whose label-xor's most significant
    /// set bit is `m`. Bit `m` lies in digit field `i` exactly when the
    /// highest differing digit is `i`, i.e. the crossing level is `i + 1`;
    /// `premul[0] = 0` covers equal coordinates (xor 0, sentinel bit).
    premul: [usize; 64],
}

/// Builds the per-dimension label LUTs, or `None` when the grid declines
/// them (label bits would exceed a `u64`, or the tables would be
/// unreasonably large) — callers then fall back to the scalar kernel.
fn build_luts(schema: &StarSchema, strides: &[usize]) -> Option<Vec<DimLut>> {
    let total_entries: u64 = schema.grid_shape().iter().copied().sum();
    if total_entries > LUT_MAX_ENTRIES {
        return None;
    }
    let mut luts = Vec::with_capacity(schema.k());
    for (d, &stride) in strides.iter().enumerate() {
        let hierarchy = schema.dim(d);
        let fanouts = hierarchy.fanouts();
        let mut premul = [0usize; 64];
        let mut field_offset = Vec::with_capacity(fanouts.len());
        let mut cursor = 1u32; // bit 0 is the sentinel
        for (i, &f) in fanouts.iter().enumerate() {
            // Fan-out 1 digits are constant 0: zero-width field, can never
            // hold the msb, and indeed can never be the crossing level.
            let width = if f <= 1 {
                0
            } else {
                64 - (f - 1).leading_zeros()
            };
            if cursor + width > 64 {
                return None;
            }
            for bit in cursor..cursor + width {
                premul[bit as usize] = (i + 1) * stride;
            }
            field_offset.push(cursor);
            cursor += width;
        }
        let extent = hierarchy.leaf_count();
        let mut labels = Vec::with_capacity(extent as usize);
        for x in 0..extent {
            let mut label = 0u64;
            let mut size = 1u64;
            for (i, &f) in fanouts.iter().enumerate() {
                label |= ((x / size) % f) << field_offset[i];
                size *= f;
            }
            labels.push(label);
        }
        luts.push(DimLut { labels, premul });
    }
    Some(luts)
}

/// Counts the crossing signatures of the edges `(r - 1, r)` for `r` in
/// `lo..hi` into `counts`, block by block (kernel design steps 1–2).
/// Requires `lo >= 1`.
fn count_span_blocked<L: Linearization + ?Sized>(
    lin: &L,
    luts: &[DimLut],
    k: usize,
    lo: u64,
    hi: u64,
    counts: &mut [u64],
) {
    let block = BLOCK_EDGES.min((hi - lo) as usize).max(1);
    let mut coords = CoordsBlock::new(k, block);
    // `labels[0]` carries the previous block's last label per dimension, so
    // cross-block edges (and the span's boundary edge) are classified
    // exactly once, by the span owning the edge's *end* rank.
    let mut labels = vec![0u64; block + 1];
    let mut acc = vec![0usize; block];
    let mut carries = vec![0u64; k];
    {
        let mut first = vec![0u64; k];
        lin.coords(lo - 1, &mut first);
        for (carry, (&c, lut)) in carries.iter_mut().zip(first.iter().zip(luts)) {
            *carry = lut.labels[c as usize];
        }
    }
    let mut pos = lo;
    while pos < hi {
        let m = ((hi - pos) as usize).min(block);
        {
            let _t = metrics::PhaseTimer::start(metrics::Phase::AggDecode);
            lin.coords_block(pos, m, &mut coords);
        }
        let _t = metrics::PhaseTimer::start(metrics::Phase::AggCount);
        for (d, lut) in luts.iter().enumerate() {
            labels[0] = carries[d];
            for (slot, &c) in labels[1..=m].iter_mut().zip(coords.col(d)) {
                *slot = lut.labels[c as usize];
            }
            carries[d] = labels[m];
            // Branch-free crossing contribution: two label loads, xor,
            // count-leading-zeros, one premul load. The `| 1` sentinel
            // maps equal labels to premul[0] = 0.
            let premul = &lut.premul;
            if d == 0 {
                for (a, w) in acc[..m].iter_mut().zip(labels.windows(2)) {
                    *a = premul[63 - ((w[0] ^ w[1]) | 1).leading_zeros() as usize];
                }
            } else {
                for (a, w) in acc[..m].iter_mut().zip(labels.windows(2)) {
                    *a += premul[63 - ((w[0] ^ w[1]) | 1).leading_zeros() as usize];
                }
            }
        }
        for &idx in &acc[..m] {
            counts[idx] += 1;
        }
        pos += m as u64;
    }
}

/// Kernel design step 4: splits the edge ranks `1..n` into contiguous
/// spans, one private signature table per worker, folded element-wise on
/// join. Falls back to one serial span when the pool or the grid is small.
fn count_edges_parallel<L: Linearization + Sync>(
    lin: &L,
    luts: &[DimLut],
    plan: &AggregatePlan,
    opts: &AggregateOptions,
) -> Vec<u64> {
    let edges = plan.n - 1;
    let max_by_size = (edges / PAR_MIN_EDGES_PER_WORKER).max(1);
    let pool = opts
        .parallel
        .resolved_threads(edges.min(usize::MAX as u64) as usize);
    let workers = (pool as u64).min(max_by_size) as usize;
    if workers <= 1 {
        let mut counts = vec![0u64; plan.num_classes];
        count_span_blocked(lin, luts, plan.k, 1, plan.n, &mut counts);
        return counts;
    }
    metrics::record_agg_walk_parallel();
    let w64 = workers as u128;
    let tables = opts.parallel.run_indexed(workers, |w| {
        let lo = 1 + (w as u128 * edges as u128 / w64) as u64;
        let hi = 1 + ((w as u128 + 1) * edges as u128 / w64) as u64;
        let mut counts = vec![0u64; plan.num_classes];
        count_span_blocked(lin, luts, plan.k, lo, hi, &mut counts);
        counts
    });
    let mut total = vec![0u64; plan.num_classes];
    for table in tables {
        for (dst, src) in total.iter_mut().zip(table) {
            *dst += src;
        }
    }
    total
}

/// The scalar fallback edge counter (same per-edge logic as
/// [`aggregate_class_costs_reference`]'s walk), used when
/// [`build_luts`] declines the grid.
fn count_edges_scalar<L: Linearization + ?Sized>(
    schema: &StarSchema,
    lin: &L,
    plan: &AggregatePlan,
) -> Vec<u64> {
    metrics::record_agg_walk_scalar();
    let mut counts = vec![0u64; plan.num_classes];
    let mut prev = vec![0u64; plan.k];
    let mut cur = vec![0u64; plan.k];
    if plan.n == 0 {
        return counts;
    }
    lin.coords(0, &mut prev);
    for r in 1..plan.n {
        lin.coords(r, &mut cur);
        let mut idx = 0usize;
        for d in 0..plan.k {
            if let Some(level) = schema.dim(d).crossing_level(prev[d], cur[d]) {
                idx += level * plan.strides[d];
            }
        }
        counts[idx] += 1;
        std::mem::swap(&mut prev, &mut cur);
    }
    counts
}

/// In-place k-dimensional prefix sum (kernel design step 3): `counts[u]`
/// becomes `Σ_{σ ≤ u componentwise} counts[σ]` = the class's internal-edge
/// count. Per dimension, each element's accumulation chain runs over its
/// dp-digit alone, ascending; tiling the `off < stride` axis keeps a tile
/// L1-resident across the whole digit chain while the inner loops stay
/// unit-stride. Exact `u64` addition over the same per-element operand
/// sequence as the naive ascending-rank sweep ⇒ identical tables.
fn prefix_sum_in_place(counts: &mut [u64], shape: &LatticeShape, strides: &[usize]) {
    const TILE: usize = 4096;
    for (d, &stride) in strides.iter().enumerate() {
        let radix = shape.top_level(d) + 1;
        let group = stride * radix;
        let mut base = 0;
        while base < counts.len() {
            let grp = &mut counts[base..base + group];
            let mut t = 0;
            while t < stride {
                let len = TILE.min(stride - t);
                for digit in 1..radix {
                    let (prev, cur) = grp[(digit - 1) * stride + t..].split_at_mut(stride);
                    for (c, p) in cur[..len].iter_mut().zip(&prev[..len]) {
                        *c += *p;
                    }
                }
                t += len;
            }
            base += group;
        }
    }
}

/// Exact per-class query counts via an iterative outer product over the
/// per-dimension `nodes_at_level` tables — no per-rank `unrank` (which
/// allocates a `Class` vector per class). Rank order is dim-0-fastest,
/// matching `LatticeShape::rank`, so each dimension extends the table by
/// repeating it once per level. Products are exact `u64`s associated in
/// dimension order, the same values the reference's per-rank product
/// yields.
fn query_counts(schema: &StarSchema, shape: &LatticeShape) -> Vec<u64> {
    let mut queries = vec![1u64];
    for d in 0..schema.k() {
        let levels: Vec<u64> = (0..=shape.top_level(d))
            .map(|level| schema.dim(d).nodes_at_level(level))
            .collect();
        let mut next = Vec::with_capacity(queries.len() * levels.len());
        for &nodes in &levels {
            next.extend(queries.iter().map(|&q| q * nodes));
        }
        queries = next;
    }
    queries
}

impl WholeLatticeCosts {
    /// The signature table of a lattice path's curve (plain or snaked),
    /// from the path alone: equal to [`aggregate_class_costs`] over
    /// [`crate::path_curve`] / [`crate::snaked_path_curve`], without
    /// building or walking the curve (module docs, "Lattice paths need no
    /// walk"). Costs O(Σℓ) for the signatures plus the O(|L|·k) prefix
    /// sum and query counts every table shares.
    ///
    /// # Panics
    ///
    /// Panics if the path is not over the schema's class lattice.
    pub fn of_lattice_path(schema: &StarSchema, path: &LatticePath, snaked: bool) -> Self {
        assert_eq!(
            path.shape().levels(),
            schema.levels().as_slice(),
            "path must be over the schema's class lattice"
        );
        let plan = AggregatePlan::of_schema(schema);
        let steps = path.steps();
        let radix: Vec<u64> = steps
            .iter()
            .map(|s| schema.dim(s.dim).fanout(s.level))
            .collect();
        // outer[j] = Π_{i>j} r_i: the iterations of the loops enclosing j.
        let mut outer = vec![1u64; steps.len()];
        for j in (1..steps.len()).rev() {
            outer[j - 1] = outer[j] * radix[j];
        }
        let mut signature = vec![0u64; plan.num_classes];
        // Per dimension, the signature-index contribution of its
        // outermost loop so far that wraps (radix > 1), and their sum.
        let mut wrapped = vec![0usize; plan.k];
        let mut wrapped_sum = 0usize;
        for (j, step) in steps.iter().enumerate() {
            if radix[j] == 1 {
                continue; // a radix-1 loop never changes
            }
            let own = step.level * plan.strides[step.dim];
            wrapped_sum = wrapped_sum - wrapped[step.dim] + own;
            wrapped[step.dim] = own;
            let idx = if snaked { own } else { wrapped_sum };
            signature[idx] += (radix[j] - 1) * outer[j];
        }
        plan.finish(schema, signature)
    }

    /// The class lattice the costs are indexed by.
    pub fn shape(&self) -> &LatticeShape {
        &self.shape
    }

    /// Total cells of the grid.
    pub fn num_cells(&self) -> u64 {
        self.num_cells
    }

    /// Total fragments over all queries of a class, with the query count —
    /// exactly equal to `fragments::class_total_fragments`.
    ///
    /// # Panics
    ///
    /// Panics if the class is out of bounds.
    pub fn class_total_fragments(&self, u: &Class) -> (u64, u64) {
        let r = self.shape.rank(u);
        (self.num_cells - self.internal[r], self.queries[r])
    }

    /// Average fragment count of a class-`u` query, bit-identical to
    /// `fragments::class_average_cost`.
    ///
    /// # Panics
    ///
    /// Panics if the class is out of bounds.
    pub fn class_average_cost(&self, u: &Class) -> f64 {
        let (total, queries) = self.class_total_fragments(u);
        total as f64 / queries as f64
    }

    /// Per-class average costs, indexed by [`LatticeShape::rank`] —
    /// bit-identical to `fragments::class_costs`.
    pub fn class_costs(&self) -> Vec<f64> {
        (0..self.shape.num_classes())
            .map(|r| (self.num_cells - self.internal[r]) as f64 / self.queries[r] as f64)
            .collect()
    }

    /// Expected cost over a workload, summed over the workload's support
    /// in rank order (the shared [`Workload::support_by_rank`] filter).
    ///
    /// # Panics
    ///
    /// Panics (debug) on a workload over a different lattice.
    pub fn expected_cost(&self, workload: &Workload) -> f64 {
        debug_assert_eq!(workload.shape(), &self.shape, "workload lattice mismatch");
        workload
            .support_by_rank()
            .map(|(r, p)| p * ((self.num_cells - self.internal[r]) as f64 / self.queries[r] as f64))
            .sum()
    }

    /// The raw crossing-signature table: entry `σ` (in
    /// [`LatticeShape::rank`] index space) counts the curve edges whose
    /// crossed hierarchy level is exactly `σ_d` in each dimension. Sums to
    /// `num_cells − 1` (every edge has exactly one signature).
    pub fn signature_counts(&self) -> &[u64] {
        &self.signature
    }

    /// Edges with crossing signature exactly `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if the signature is out of bounds.
    pub fn signature_count(&self, sigma: &Class) -> u64 {
        self.signature[self.shape.rank(sigma)]
    }
}

/// Identity of a clustering strategy for [`SignatureCache`] keying.
///
/// A signature table is a function of (schema structure, visiting order),
/// so a cache key must pin the order down. For the structured families the
/// identity is closed-form and free to compute; for arbitrary curves
/// [`StrategyId::of_order`] hashes the full visiting order (one `coords`
/// walk — as expensive as the aggregation itself, so it only pays off when
/// the table is re-used across processes via [`SignatureCache::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StrategyId {
    /// The clustering induced by a monotone lattice path, identified by
    /// its step dimensions, plain or snaked.
    Path {
        /// The path's step dimensions (as in `LatticePath::dims`).
        dims: Vec<usize>,
        /// Whether the curve is the snaked variant.
        snaked: bool,
    },
    /// A named fixed curve family over the schema's grid (`"hilbert"`,
    /// `"zorder"`, ...). The caller owns the naming discipline: one name
    /// per distinct order on a given grid.
    Named(String),
    /// A content hash of the full visiting order — safe for arbitrary
    /// curves.
    OrderHash(u64),
}

impl StrategyId {
    /// Hashes a curve's full visiting order (FNV-1a over every cell
    /// coordinate in rank order).
    pub fn of_order(lin: &impl Linearization) -> Self {
        let mut h = Fnv::new();
        let k = lin.extents().len();
        let mut coords = vec![0u64; k];
        for r in 0..lin.num_cells() {
            lin.coords(r, &mut coords);
            for &c in &coords {
                h.mix(c);
            }
        }
        StrategyId::OrderHash(h.finish())
    }

    /// The cache-key fragment for this identity — unambiguous and stable
    /// across processes (used in the serialized cache format).
    fn key_fragment(&self) -> String {
        match self {
            StrategyId::Path { dims, snaked } => {
                let dims: Vec<String> = dims.iter().map(usize::to_string).collect();
                let kind = if *snaked { "snaked" } else { "plain" };
                format!("path:{kind}:{}", dims.join(","))
            }
            StrategyId::Named(name) => format!("named:{name}"),
            StrategyId::OrderHash(h) => format!("order:{h:016x}"),
        }
    }
}

/// Incremental FNV-1a hasher over `u64` words (stable across platforms,
/// unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One serialized cache entry (named struct rather than a tuple so the
/// JSON format is self-describing).
#[derive(Serialize, Deserialize)]
struct SignatureEntry {
    key: String,
    table: WholeLatticeCosts,
}

/// Heap bytes a [`SignatureCache`] may hold in entries (1 MiB). An insert
/// that would exceed it first evicts least-recently-used entries; a
/// single entry larger than the budget is kept alone.
pub const SIGNATURE_CACHE_BUDGET_BYTES: usize = 1 << 20;

/// A cached table with its key, recency stamp and accounted size.
#[derive(Debug, Clone)]
struct CachedTable {
    fingerprint: u64,
    id: StrategyId,
    table: WholeLatticeCosts,
    /// The cache clock at the last insert or hit.
    last_used: u64,
    bytes: usize,
}

/// The fixed charge per entry for its slot, index entry and recency
/// record. A constant rather than the current `size_of`s, so how many
/// tables the budget holds does not move when the in-memory layout does.
const ENTRY_BOOKKEEPING_BYTES: usize = 192;

/// The bytes one entry accounts against [`SIGNATURE_CACHE_BUDGET_BYTES`]:
/// its bookkeeping, its key (charged as two copies of the serialized key,
/// `key_len` bytes each) and the table's vectors.
fn entry_bytes(key_len: usize, table: &WholeLatticeCosts) -> usize {
    let words = table.shape.levels().len()
        + table.signature.len()
        + table.internal.len()
        + table.queries.len();
    ENTRY_BOOKKEEPING_BYTES + 2 * key_len + words * std::mem::size_of::<u64>()
}

/// Memoized crossing-signature tables, keyed by
/// `(schema fingerprint, strategy identity)`, within a fixed byte budget
/// ([`SIGNATURE_CACHE_BUDGET_BYTES`], least recently used out first).
///
/// The schema fingerprint ([`StarSchema::fingerprint`]) covers the grid
/// *and* the hierarchy boundaries, so two schemas sharing a grid but
/// splitting it differently can never alias. Tables returned by
/// [`Self::get_or_compute`] are the exact structs a fresh
/// [`aggregate_class_costs`] walk would build — cache hits are
/// bit-identical, not approximations. A miss on a
/// [`StrategyId::Path`] id builds its table in closed form
/// ([`WholeLatticeCosts::of_lattice_path`]) and never touches the curve.
///
/// Eviction is deterministic: every insert and hit takes the next tick of
/// a logical clock, and the entry with the oldest tick goes first. A hit
/// only stamps its entry; stale positions in the recency heap are
/// refreshed lazily when an eviction pops them.
///
/// ```
/// use snakes_core::prelude::*;
/// use snakes_curves::{SignatureCache, StrategyId, path_curve};
///
/// let schema = StarSchema::paper_toy();
/// let shape = LatticeShape::of_schema(&schema);
/// let path = LatticePath::from_dims(shape.clone(), vec![0, 1, 0, 1]).unwrap();
/// let curve = path_curve(&schema, &path);
/// let id = StrategyId::Path { dims: path.dims().to_vec(), snaked: false };
///
/// let mut cache = SignatureCache::new();
/// let w = Workload::uniform(shape);
/// let first = cache.get_or_compute(&schema, &curve, &id).expected_cost(&w);
/// let again = cache.get_or_compute(&schema, &curve, &id).expected_cost(&w);
/// assert_eq!(first.to_bits(), again.to_bits());
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SignatureCache {
    /// Fingerprint → strategy → slot: a hit is two lookups and a slot
    /// stamp, with no key to build.
    index: HashMap<u64, HashMap<StrategyId, usize>>,
    slots: Vec<Option<CachedTable>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    /// One `(tick, slot)` per resident entry, min-ordered; a tick older
    /// than its entry's `last_used` is stale and is re-pushed on pop.
    recency: BinaryHeap<Reverse<(u64, usize)>>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    options: AggregateOptions,
}

impl SignatureCache {
    /// An empty cache whose misses walk curves serially.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose misses walk curves under `options` (e.g. a
    /// parallel span walk). Tables are bit-identical whatever the options,
    /// so mixing caches built under different options is safe.
    pub fn with_options(options: AggregateOptions) -> Self {
        Self {
            options,
            ..Self::default()
        }
    }

    /// The serialized form of the key `(fingerprint, id)`, as written by
    /// [`Self::to_json`].
    fn key(fingerprint: u64, id: &StrategyId) -> String {
        format!("{fingerprint:016x}/{}", id.key_fragment())
    }

    /// The key `(fingerprint, id)` that [`Self::key`] serialized, if
    /// `key` is exactly such a string.
    fn parse_key(key: &str) -> Option<(u64, StrategyId)> {
        let (fingerprint, fragment) = key.split_once('/')?;
        let fingerprint = u64::from_str_radix(fingerprint, 16).ok()?;
        let id = if let Some(name) = fragment.strip_prefix("named:") {
            StrategyId::Named(name.to_string())
        } else if let Some(hash) = fragment.strip_prefix("order:") {
            StrategyId::OrderHash(u64::from_str_radix(hash, 16).ok()?)
        } else {
            let (kind, dims) = fragment.strip_prefix("path:")?.split_once(':')?;
            let snaked = match kind {
                "snaked" => true,
                "plain" => false,
                _ => return None,
            };
            let dims = match dims {
                "" => Vec::new(),
                dims => dims
                    .split(',')
                    .map(|d| d.parse().ok())
                    .collect::<Option<_>>()?,
            };
            StrategyId::Path { dims, snaked }
        };
        // Only the canonical spelling: "+1", "01" or upper-case hex would
        // otherwise alias another entry's key.
        (Self::key(fingerprint, &id) == key).then_some((fingerprint, id))
    }

    fn slot_of(&self, fingerprint: u64, id: &StrategyId) -> Option<usize> {
        self.index.get(&fingerprint)?.get(id).copied()
    }

    /// The signature table for `(schema, id)`, computed only on a cache
    /// miss. The caller vouches that `id` identifies `lin`'s visiting
    /// order (use [`StrategyId::of_order`] when in doubt). A
    /// [`StrategyId::Path`] miss is computed from the path, not from
    /// `lin`.
    ///
    /// # Panics
    ///
    /// Panics if the linearization's grid differs from the schema's.
    pub fn get_or_compute(
        &mut self,
        schema: &StarSchema,
        lin: &(impl Linearization + Sync),
        id: &StrategyId,
    ) -> &WholeLatticeCosts {
        self.get_or_compute_with(schema, id, || lin)
    }

    /// As [`SignatureCache::get_or_compute`], but the linearization is
    /// built only on a cache miss that needs a walk: a hit, and a miss on
    /// a [`StrategyId::Path`] whose dims form a lattice path of `schema`,
    /// never call `lin` — the fast path for servers pricing the same
    /// strategies over and over.
    ///
    /// # Panics
    ///
    /// As [`SignatureCache::get_or_compute`].
    pub fn get_or_compute_with<L: Linearization + Sync>(
        &mut self,
        schema: &StarSchema,
        id: &StrategyId,
        lin: impl FnOnce() -> L,
    ) -> &WholeLatticeCosts {
        self.get_or_compute_fingerprinted(schema, schema.fingerprint(), id, lin)
    }

    /// As [`SignatureCache::get_or_compute_with`], for a caller that
    /// already holds `schema.fingerprint()` (a server keys its own
    /// per-request state on it too).
    ///
    /// # Panics
    ///
    /// As [`SignatureCache::get_or_compute`]. Debug builds also check that
    /// `fingerprint` is `schema`'s.
    pub fn get_or_compute_fingerprinted<L: Linearization + Sync>(
        &mut self,
        schema: &StarSchema,
        fingerprint: u64,
        id: &StrategyId,
        lin: impl FnOnce() -> L,
    ) -> &WholeLatticeCosts {
        debug_assert_eq!(
            fingerprint,
            schema.fingerprint(),
            "fingerprint of another schema"
        );
        self.clock += 1;
        let tick = self.clock;
        if let Some(slot) = self.slot_of(fingerprint, id) {
            self.hits += 1;
            metrics::record_cache_hit();
            let cached = self.slots[slot].as_mut().expect("indexed slots are full");
            cached.last_used = tick;
            return &cached.table;
        }
        self.misses += 1;
        metrics::record_cache_miss();
        let table = Self::compute(schema, id, self.options, lin);
        self.insert(fingerprint, id.clone(), table, tick)
    }

    /// A miss: the closed form for a lattice path of `schema`, else a
    /// walk of the caller's curve.
    fn compute<L: Linearization + Sync>(
        schema: &StarSchema,
        id: &StrategyId,
        options: AggregateOptions,
        lin: impl FnOnce() -> L,
    ) -> WholeLatticeCosts {
        if let StrategyId::Path { dims, snaked } = id {
            if let Ok(path) = LatticePath::from_dims(LatticeShape::of_schema(schema), dims.clone())
            {
                return WholeLatticeCosts::of_lattice_path(schema, &path, *snaked);
            }
        }
        aggregate_class_costs_with(schema, &lin(), options)
    }

    /// Inserts a table stamped `tick`, first evicting least-recently-used
    /// entries until it fits the budget (or nothing else is left).
    fn insert(
        &mut self,
        fingerprint: u64,
        id: StrategyId,
        table: WholeLatticeCosts,
        tick: u64,
    ) -> &WholeLatticeCosts {
        let bytes = entry_bytes(Self::key(fingerprint, &id).len(), &table);
        while self.bytes + bytes > SIGNATURE_CACHE_BUDGET_BYTES && self.evict_lru() {}
        self.bytes += bytes;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.index
            .entry(fingerprint)
            .or_default()
            .insert(id.clone(), slot);
        self.recency.push(Reverse((tick, slot)));
        &self.slots[slot]
            .insert(CachedTable {
                fingerprint,
                id,
                table,
                last_used: tick,
                bytes,
            })
            .table
    }

    /// Evicts the least recently used entry; `false` when empty.
    fn evict_lru(&mut self) -> bool {
        while let Some(Reverse((tick, slot))) = self.recency.pop() {
            let last_used = self.slots[slot]
                .as_ref()
                .expect("recency tracks full slots")
                .last_used;
            if last_used != tick {
                // Hit since this record was pushed: requeue at its stamp.
                self.recency.push(Reverse((last_used, slot)));
                continue;
            }
            let evicted = self.slots[slot].take().expect("recency tracks full slots");
            if let Entry::Occupied(mut ids) = self.index.entry(evicted.fingerprint) {
                ids.get_mut().remove(&evicted.id);
                if ids.get().is_empty() {
                    ids.remove();
                }
            }
            self.free.push(slot);
            self.bytes -= evicted.bytes;
            return true;
        }
        false
    }

    /// The cached table for `(schema, id)`, if present. A peek: it counts
    /// neither a hit nor a use.
    pub fn get(&self, schema: &StarSchema, id: &StrategyId) -> Option<&WholeLatticeCosts> {
        let slot = self.slot_of(schema.fingerprint(), id)?;
        self.slots[slot].as_ref().map(|c| &c.table)
    }

    /// Cache hits since construction (or [`Self::from_json`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (i.e. tables computed). An evicted key misses again.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every cached table to JSON (entries sorted by key, so
    /// the output is deterministic).
    pub fn to_json(&self) -> String {
        let mut entries: Vec<SignatureEntry> = self
            .slots
            .iter()
            .flatten()
            .map(|cached| SignatureEntry {
                key: Self::key(cached.fingerprint, &cached.id),
                table: cached.table.clone(),
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        serde_json::to_string(&entries).expect("signature tables serialize")
    }

    /// Restores a cache serialized with [`Self::to_json`]. Counters start
    /// at zero; entries are inserted in key order, so under the budget
    /// the last keys win.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input,
    /// including a key that [`Self::to_json`] would not have written or
    /// one given twice.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let entries: Vec<SignatureEntry> = serde_json::from_str(json)?;
        let mut cache = Self::default();
        for entry in entries {
            let (fingerprint, id) = Self::parse_key(&entry.key)
                .filter(|(fingerprint, id)| cache.slot_of(*fingerprint, id).is_none())
                .ok_or_else(|| {
                    serde_json::Error::custom(format!(
                        "malformed or repeated cache key `{}`",
                        entry.key
                    ))
                })?;
            cache.clock += 1;
            let tick = cache.clock;
            cache.insert(fingerprint, id, entry.table, tick);
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments;
    use crate::hilbert::HilbertCurve;
    use crate::lattice_path::{path_curve, snaked_path_curve};
    use crate::nested::NestedLoops;
    use crate::zorder::ZOrderCurve;
    use proptest::prelude::*;
    use snakes_core::schema::Hierarchy;

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "class rank {i}: {x} vs {y}");
        }
    }

    #[test]
    fn single_pass_matches_brute_force_on_toy_curves() {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let curves: Vec<Box<dyn Linearization>> = vec![
            Box::new(NestedLoops::row_major(vec![4, 4], &[0, 1])),
            Box::new(NestedLoops::boustrophedon(vec![4, 4], &[1, 0])),
            Box::new(HilbertCurve::square(2)),
            Box::new(ZOrderCurve::square(2)),
        ];
        for boxed in &curves {
            let lin: &dyn Linearization = boxed.as_ref();
            let agg = aggregate_class_costs(&schema, &lin);
            assert_bits_eq(&agg.class_costs(), &fragments::class_costs(&schema, &lin));
            for u in shape.iter() {
                assert_eq!(
                    agg.class_total_fragments(&u),
                    fragments::class_total_fragments(&schema, &lin, &u),
                    "class {u}"
                );
            }
        }
    }

    #[test]
    fn single_pass_matches_brute_force_on_lattice_paths() {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        for p in LatticePath::enumerate(&shape) {
            for lin in [path_curve(&schema, &p), snaked_path_curve(&schema, &p)] {
                let agg = aggregate_class_costs(&schema, &lin);
                assert_bits_eq(&agg.class_costs(), &fragments::class_costs(&schema, &lin));
            }
        }
    }

    #[test]
    fn expected_cost_matches_brute_force() {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let p1 = LatticePath::from_dims(shape.clone(), vec![1, 1, 0, 0]).unwrap();
        let lin = path_curve(&schema, &p1);
        let agg = aggregate_class_costs(&schema, &lin);
        let w = Workload::uniform(shape);
        let a = agg.expected_cost(&w);
        let b = fragments::expected_cost(&schema, &lin, &w);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((a - 17.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn three_dim_unbalanced_schema() {
        let schema = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("a", vec![3, 2]).unwrap(),
            snakes_core::schema::Hierarchy::new("b", vec![4]).unwrap(),
            snakes_core::schema::Hierarchy::new("c", vec![2, 2]).unwrap(),
        ])
        .unwrap();
        let extents = schema.grid_shape();
        let lin = NestedLoops::boustrophedon(extents, &[2, 0, 1]);
        let agg = aggregate_class_costs(&schema, &lin);
        assert_bits_eq(&agg.class_costs(), &fragments::class_costs(&schema, &lin));
    }

    #[test]
    #[should_panic(expected = "must match the schema")]
    fn rejects_grid_mismatch() {
        let schema = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![2, 2], &[0, 1]);
        aggregate_class_costs(&schema, &lin);
    }

    #[test]
    fn signature_counts_sum_to_edge_count() {
        let schema = StarSchema::paper_toy();
        let lin = HilbertCurve::square(2);
        let agg = aggregate_class_costs(&schema, &lin);
        let total: u64 = agg.signature_counts().iter().sum();
        assert_eq!(total, schema.num_cells() - 1);
        // Signature (0,0) counts edges crossing no boundary in either
        // dimension — impossible for distinct consecutive cells.
        assert_eq!(
            agg.signature_count(&snakes_core::lattice::Class(vec![0, 0])),
            0
        );
    }

    #[test]
    fn cache_hit_is_the_same_table() {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let path = LatticePath::from_dims(shape.clone(), vec![0, 0, 1, 1]).unwrap();
        let mut cache = SignatureCache::new();
        for snaked in [false, true] {
            let id = StrategyId::Path {
                dims: path.dims().to_vec(),
                snaked,
            };
            let fresh = if snaked {
                aggregate_class_costs(&schema, &snaked_path_curve(&schema, &path))
            } else {
                aggregate_class_costs(&schema, &path_curve(&schema, &path))
            };
            for _ in 0..3 {
                let got = if snaked {
                    cache.get_or_compute(&schema, &snaked_path_curve(&schema, &path), &id)
                } else {
                    cache.get_or_compute(&schema, &path_curve(&schema, &path), &id)
                };
                assert_eq!(got, &fresh, "cached table must be u64-exact");
            }
        }
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn schemas_sharing_a_grid_do_not_alias() {
        // Both schemas induce an 8-cell line but split it 2×4 vs 4×2 —
        // different hierarchy boundaries, different signature tables.
        let a = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("d", vec![2, 4]).unwrap()
        ])
        .unwrap();
        let b = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("d", vec![4, 2]).unwrap()
        ])
        .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let lin = NestedLoops::row_major(vec![8], &[0]);
        let id = StrategyId::Named("line".into());
        let mut cache = SignatureCache::new();
        let ta = cache.get_or_compute(&a, &lin, &id).clone();
        let tb = cache.get_or_compute(&b, &lin, &id).clone();
        assert_eq!(cache.misses(), 2, "distinct schemas must not share entries");
        assert_ne!(ta.signature_counts(), tb.signature_counts());
    }

    #[test]
    fn order_hash_distinguishes_orders() {
        let row = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        let col = NestedLoops::row_major(vec![4, 4], &[1, 0]);
        let snake = NestedLoops::boustrophedon(vec![4, 4], &[0, 1]);
        let ids: Vec<StrategyId> = [&row, &col, &snake]
            .iter()
            .map(StrategyId::of_order)
            .collect();
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_eq!(ids[0], StrategyId::of_order(&row), "hash is deterministic");
    }

    #[test]
    fn blocked_kernel_matches_reference_exactly() {
        let schema = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("a", vec![3, 2, 2]).unwrap(),
            snakes_core::schema::Hierarchy::new("b", vec![5]).unwrap(),
            snakes_core::schema::Hierarchy::new("c", vec![2, 3]).unwrap(),
        ])
        .unwrap();
        let extents = schema.grid_shape();
        let curves: Vec<Box<dyn Linearization + Sync>> = vec![
            Box::new(NestedLoops::row_major(extents.clone(), &[0, 1, 2])),
            Box::new(NestedLoops::boustrophedon(extents.clone(), &[2, 0, 1])),
        ];
        for boxed in &curves {
            let lin = boxed.as_ref();
            let reference = aggregate_class_costs_reference(&schema, &lin);
            assert_eq!(aggregate_class_costs(&schema, &lin), reference);
            for threads in [1, 2, 4] {
                let opts = AggregateOptions::with_parallel(
                    snakes_core::parallel::ParallelConfig::with_threads(threads),
                );
                assert_eq!(
                    aggregate_class_costs_with(&schema, &lin, opts),
                    reference,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_walk_splits_spans_and_stays_exact() {
        // A grid big enough to clear PAR_MIN_EDGES_PER_WORKER at 2 workers,
        // so the span fold genuinely runs.
        let schema = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("a", vec![64, 8]).unwrap(),
            snakes_core::schema::Hierarchy::new("b", vec![16, 16]).unwrap(),
        ])
        .unwrap();
        let lin = NestedLoops::boustrophedon(schema.grid_shape(), &[0, 1]);
        let reference = aggregate_class_costs_reference(&schema, &lin);
        let before = metrics::snapshot();
        let opts =
            AggregateOptions::with_parallel(snakes_core::parallel::ParallelConfig::with_threads(2));
        assert_eq!(aggregate_class_costs_with(&schema, &lin, opts), reference);
        let delta = metrics::snapshot().since(&before);
        assert!(delta.agg_walks_parallel >= 1, "span walk must have split");
    }

    #[test]
    fn lut_builder_declines_oversized_grids() {
        // A 2^63-leaf dimension: the label tables would dwarf memory, so
        // the builder must decline and route callers to the scalar kernel.
        let schema = StarSchema::new(vec![snakes_core::schema::Hierarchy::new(
            "deep",
            vec![2; 63],
        )
        .unwrap()])
        .unwrap();
        let strides = vec![1usize];
        assert!(build_luts(&schema, &strides).is_none());
    }

    #[test]
    fn query_counts_match_unrank_products() {
        let schema = StarSchema::new(vec![
            snakes_core::schema::Hierarchy::new("a", vec![3, 2]).unwrap(),
            snakes_core::schema::Hierarchy::new("b", vec![2, 2, 2]).unwrap(),
        ])
        .unwrap();
        let shape = LatticeShape::of_schema(&schema);
        let got = query_counts(&schema, &shape);
        let want: Vec<u64> = (0..shape.num_classes())
            .map(|r| {
                let u = shape.unrank(r);
                (0..schema.k())
                    .map(|d| schema.dim(d).nodes_at_level(u.level(d)))
                    .product()
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_serde_roundtrip_preserves_tables_exactly() {
        let schema = StarSchema::paper_toy();
        let mut cache = SignatureCache::new();
        let hilbert = HilbertCurve::square(2);
        let z = ZOrderCurve::square(2);
        cache.get_or_compute(&schema, &hilbert, &StrategyId::Named("hilbert".into()));
        cache.get_or_compute(&schema, &z, &StrategyId::Named("zorder".into()));
        let json = cache.to_json();
        let mut restored = SignatureCache::from_json(&json).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!((restored.hits(), restored.misses()), (0, 0));
        // A hit on the restored cache returns the identical table.
        let id = StrategyId::Named("hilbert".into());
        let got = restored.get_or_compute(&schema, &hilbert, &id).clone();
        assert_eq!(got, aggregate_class_costs(&schema, &hilbert));
        assert_eq!(restored.hits(), 1);
        // Deterministic serialization.
        assert_eq!(json, SignatureCache::from_json(&json).unwrap().to_json());
        assert!(SignatureCache::from_json("not json").is_err());
    }

    /// A schema from per-dimension fanouts, clamped into the range the
    /// reference walk and path enumeration stay fast on: at most 6 levels
    /// in all, and a level whose fanout would push the grid past 1024
    /// cells becomes a fanout-1 level.
    fn clamped_schema(fanouts: &[Vec<u64>]) -> StarSchema {
        let (mut levels, mut cells) = (0, 1u64);
        let dims = fanouts
            .iter()
            .enumerate()
            .map(|(d, fs)| {
                let mut kept = Vec::new();
                for &f in fs {
                    if !kept.is_empty() && levels >= 6 {
                        break;
                    }
                    let f = if cells * f > 1024 { 1 } else { f };
                    cells *= f;
                    levels += 1;
                    kept.push(f);
                }
                Hierarchy::new(format!("d{d}"), kept).unwrap()
            })
            .collect();
        StarSchema::new(dims).unwrap()
    }

    /// Checks the closed form against the reference walk on every lattice
    /// path of `schema`, plain and snaked.
    fn assert_closed_form_matches_reference(schema: &StarSchema) {
        let shape = LatticeShape::of_schema(schema);
        let w = Workload::from_weights(
            shape.clone(),
            (0..shape.num_classes())
                .map(|r| 1.0 + (r * 7 % 5) as f64 * 0.31)
                .collect(),
        )
        .unwrap();
        for path in LatticePath::enumerate(&shape) {
            for snaked in [false, true] {
                let curve = if snaked {
                    snaked_path_curve(schema, &path)
                } else {
                    path_curve(schema, &path)
                };
                let walked = aggregate_class_costs_reference(schema, &curve);
                let closed = WholeLatticeCosts::of_lattice_path(schema, &path, snaked);
                let what = format!("{path} snaked={snaked} on {:?}", schema.grid_shape());
                assert_eq!(
                    closed.signature_counts(),
                    walked.signature_counts(),
                    "{what}"
                );
                assert_bits_eq(&closed.class_costs(), &walked.class_costs());
                assert_eq!(
                    closed.expected_cost(&w).to_bits(),
                    walked.expected_cost(&w).to_bits(),
                    "{what}"
                );
                assert_eq!(closed, walked, "{what}");
            }
        }
    }

    proptest! {
        // Each case walks every lattice path twice with the scalar
        // reference, which is slow unoptimized; CI runs this property in
        // release.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 96 }))]

        #[test]
        fn closed_form_matches_the_reference_walk(
            fanouts in (1usize..=4).prop_flat_map(|k| {
                collection::vec(collection::vec(1u64..=5, 1..=3), k..=k)
            })
        ) {
            assert_closed_form_matches_reference(&clamped_schema(&fanouts));
        }
    }

    #[test]
    fn closed_form_matches_the_reference_walk_on_fixed_schemas() {
        for fanouts in [
            vec![vec![1]],
            vec![vec![1, 1], vec![1]],
            vec![vec![4, 4]],
            vec![vec![2, 2], vec![2, 2]],
            vec![vec![3, 1, 2], vec![5], vec![1, 4]],
            vec![vec![2], vec![3], vec![1], vec![5]],
        ] {
            assert_closed_form_matches_reference(&clamped_schema(&fanouts));
        }
    }

    #[test]
    fn closed_form_signatures_sum_to_the_edge_count() {
        for fanouts in [
            vec![vec![1]],
            vec![vec![5, 1, 3], vec![4, 2]],
            vec![vec![2; 3]; 3],
        ] {
            let schema = clamped_schema(&fanouts);
            let shape = LatticeShape::of_schema(&schema);
            for path in LatticePath::enumerate(&shape) {
                for snaked in [false, true] {
                    let table = WholeLatticeCosts::of_lattice_path(&schema, &path, snaked);
                    let total: u64 = table.signature_counts().iter().sum();
                    assert_eq!(total, schema.num_cells() - 1, "{path} snaked={snaked}");
                }
            }
        }
    }

    #[test]
    fn classes_on_the_path_cost_exactly_one_fragment() {
        // Each query of a class on the path is one run of the inner
        // loops, so it is a single fragment, snaked or not.
        let schema = clamped_schema(&[vec![3, 1, 2], vec![4], vec![2, 2]]);
        let shape = LatticeShape::of_schema(&schema);
        for path in LatticePath::enumerate(&shape) {
            for snaked in [false, true] {
                let table = WholeLatticeCosts::of_lattice_path(&schema, &path, snaked);
                for u in path.points() {
                    assert_eq!(
                        table.class_average_cost(&u).to_bits(),
                        1.0f64.to_bits(),
                        "{path} snaked={snaked} class {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_path_miss_builds_no_curve() {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let path = LatticePath::from_dims(shape, vec![1, 0, 0, 1]).unwrap();
        let mut cache = SignatureCache::new();
        for snaked in [false, true] {
            let id = StrategyId::Path {
                dims: path.dims().to_vec(),
                snaked,
            };
            let got = cache
                .get_or_compute_with(&schema, &id, || -> NestedLoops {
                    panic!("a path miss must not build the curve")
                })
                .clone();
            assert_eq!(
                got,
                WholeLatticeCosts::of_lattice_path(&schema, &path, snaked)
            );
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn an_id_that_is_not_a_path_of_the_schema_walks_the_curve() {
        let schema = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        // Dims 0,1 step each dimension once: not a path of the 2×2-level
        // toy lattice, so the miss falls back to the caller's curve.
        let id = StrategyId::Path {
            dims: vec![0, 1],
            snaked: false,
        };
        let mut cache = SignatureCache::new();
        let mut built = false;
        let got = cache
            .get_or_compute_with(&schema, &id, || {
                built = true;
                lin.clone()
            })
            .clone();
        assert!(built);
        assert_eq!(got, aggregate_class_costs(&schema, &lin));
    }

    /// Fills a fresh cache with toy-schema tables under distinct named
    /// ids until the first eviction; returns the cache and how many
    /// entries it held just before.
    fn cache_filled_to_the_budget() -> (SignatureCache, usize) {
        let schema = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        let mut cache = SignatureCache::new();
        for i in 0.. {
            cache.get_or_compute(&schema, &lin, &StrategyId::Named(format!("n{i}")));
            assert!(cache.bytes <= SIGNATURE_CACHE_BUDGET_BYTES);
            if cache.len() as u64 != cache.misses() {
                return (cache, i);
            }
        }
        unreachable!()
    }

    #[test]
    fn cache_bytes_stay_within_the_budget() {
        let (mut cache, held) = cache_filled_to_the_budget();
        // Toy tables are a few hundred bytes: the budget holds thousands.
        assert!(held > 1000, "{held} entries");
        assert_eq!(cache.len(), held, "one in, one out");
        let accounted: usize = cache.slots.iter().flatten().map(|c| c.bytes).sum();
        assert_eq!(cache.bytes, accounted);
        // A table larger than the whole budget is kept, alone.
        let wide = StarSchema::new(
            (0..17)
                .map(|d| Hierarchy::new(format!("w{d}"), vec![1]).unwrap())
                .collect(),
        )
        .unwrap();
        let id = StrategyId::Path {
            dims: (0..17).collect(),
            snaked: true,
        };
        let unused = || -> NestedLoops { unreachable!("a path miss builds no curve") };
        cache.get_or_compute_with(&wide, &id, unused);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes > SIGNATURE_CACHE_BUDGET_BYTES);
        // The next insert does not fit beside it, so it goes.
        let toy = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        cache.get_or_compute(&toy, &lin, &StrategyId::Named("small".into()));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&wide, &id).is_none());
        assert!(cache.bytes <= SIGNATURE_CACHE_BUDGET_BYTES);
    }

    #[test]
    fn eviction_takes_the_least_recently_used_entry() {
        let schema = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        let named = |i: usize| StrategyId::Named(format!("n{i}"));
        let (_, held) = cache_filled_to_the_budget();
        let mut cache = SignatureCache::new();
        for i in 0..held {
            cache.get_or_compute(&schema, &lin, &named(i));
        }
        // Touch n0 after every newer insert: it is now the most recent.
        cache.get_or_compute(&schema, &lin, &named(0));
        cache.get_or_compute(&schema, &lin, &named(held));
        assert!(cache.get(&schema, &named(0)).is_some(), "a hit refreshes");
        assert!(cache.get(&schema, &named(1)).is_none(), "n1 is the oldest");
        cache.get_or_compute(&schema, &lin, &named(held + 1));
        assert!(cache.get(&schema, &named(2)).is_none(), "then n2");
        assert!(cache.get(&schema, &named(0)).is_some());
        assert_eq!(cache.len(), held);
    }

    #[test]
    fn an_evicted_key_misses_again() {
        let schema = StarSchema::paper_toy();
        let lin = NestedLoops::row_major(vec![4, 4], &[0, 1]);
        let (mut cache, held) = cache_filled_to_the_budget();
        let (hits, misses) = (cache.hits(), cache.misses());
        assert_eq!((hits, misses), (0, held as u64 + 1));
        // n0 was evicted by the insert that overflowed the budget.
        let n0 = StrategyId::Named("n0".into());
        assert!(cache.get(&schema, &n0).is_none());
        cache.get_or_compute(&schema, &lin, &n0);
        assert_eq!((cache.hits(), cache.misses()), (hits, misses + 1));
        cache.get_or_compute(&schema, &lin, &n0);
        assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses + 1));
    }

    #[test]
    fn serialized_keys_are_unchanged_and_round_trip() {
        let schema = StarSchema::paper_toy();
        let path =
            LatticePath::from_dims(LatticeShape::of_schema(&schema), vec![0, 1, 0, 1]).unwrap();
        let (plain, snaked) = (
            path_curve(&schema, &path),
            snaked_path_curve(&schema, &path),
        );
        let other = StarSchema::new(vec![
            Hierarchy::new("a", vec![3, 2]).unwrap(),
            Hierarchy::new("b", vec![5]).unwrap(),
        ])
        .unwrap();
        let other_path =
            LatticePath::from_dims(LatticeShape::of_schema(&other), vec![1, 0, 0]).unwrap();
        let path_id = |dims: &[usize], snaked| StrategyId::Path {
            dims: dims.to_vec(),
            snaked,
        };
        let ids = [
            path_id(&[0, 1, 0, 1], false),
            path_id(&[0, 1, 0, 1], true),
            StrategyId::Named("row/major: v2".into()),
            StrategyId::of_order(&snaked),
        ];
        let mut cache = SignatureCache::new();
        cache.get_or_compute(&schema, &plain, &ids[0]);
        cache.get_or_compute(&schema, &snaked, &ids[1]);
        cache.get_or_compute(&schema, &plain, &ids[2]);
        cache.get_or_compute(&schema, &snaked, &ids[3]);
        let other_id = path_id(&[1, 0, 0], false);
        cache.get_or_compute(&other, &path_curve(&other, &other_path), &other_id);
        let json = cache.to_json();
        // The strings the format has always had, when keys were strings.
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let keys: Vec<&str> = doc
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["key"].as_str().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "4dadbac86a299687/named:row/major: v2",
                "4dadbac86a299687/order:5a22adf7d82c80a5",
                "4dadbac86a299687/path:plain:0,1,0,1",
                "4dadbac86a299687/path:snaked:0,1,0,1",
                "617a6b05e40da480/path:plain:1,0,0",
            ]
        );
        assert_eq!(json.len(), 960);
        // The budget holds as many toy tables as when keys were strings.
        assert_eq!(cache_filled_to_the_budget().1, 2189);
        // Restored entries are found by their typed keys, and re-serialize
        // to the same bytes.
        let mut restored = SignatureCache::from_json(&json).unwrap();
        assert_eq!(restored.to_json(), json);
        assert_eq!(restored.len(), 5);
        assert_eq!(restored.bytes, cache.bytes);
        for id in &ids {
            restored.get_or_compute_with(&schema, id, || -> NestedLoops { unreachable!() });
        }
        restored.get_or_compute_with(&other, &other_id, || -> NestedLoops { unreachable!() });
        assert_eq!((restored.hits(), restored.misses()), (5, 0));
        // Keys the format never writes are refused, not aliased.
        let entry = |key: &str| json.replacen("4dadbac86a299687/named:row/major: v2", key, 1);
        for bad in [
            "4dadbac86a299687/path:plain:0,1,0,01",
            "4DADBAC86A299687/path:plain:0,1,0,1",
            "+dadbac86a299687/named:x",
            "4dadbac86a299687/path:odd:0,1",
            "4dadbac86a299687/order:5A22ADF7D82C80A5",
            "4dadbac86a299687/path:snaked:0,1,0,1",
            "no-slash",
        ] {
            assert!(SignatureCache::from_json(&entry(bad)).is_err(), "{bad}");
        }
    }
}
