//! The correctness gates' reference: the answer every request should get,
//! computed by direct library calls (no engine, no cache, no wire), and a
//! bit-level comparison against what the daemon sent back.

use crate::inputs::{Call, Strategy};
use snakes_core::advisor::recommend_with_model;
use snakes_core::cost::CostModel;
use snakes_core::dp::IncrementalDp;
use snakes_core::lattice::LatticeShape;
use snakes_core::path::LatticePath;
use snakes_core::schema::StarSchema;
use snakes_core::workload::{VersionedWorkload, Workload, WorkloadDelta};
use snakes_curves::{aggregate_class_costs, path_curve, snaked_path_curve, CompactHilbert};
use snakes_curves::{Linearization, WholeLatticeCosts};
use snakes_service::protocol::{DriftBody, MeasureSpec};
use snakes_service::Response;
use snakes_storage::{CellData, StorageConfig, TableFile};
use std::collections::HashMap;

/// A materialized strategy curve.
pub enum Curve {
    Path(snakes_curves::nested::NestedLoops),
    Hilbert(CompactHilbert),
}

impl Curve {
    pub fn build(schema: &StarSchema, strategy: &Strategy) -> Curve {
        match strategy {
            Strategy::Path { dims, snaked } => {
                let path = LatticePath::from_dims(LatticeShape::of_schema(schema), dims.clone())
                    .expect("generated paths are valid");
                Curve::Path(if *snaked {
                    snaked_path_curve(schema, &path)
                } else {
                    path_curve(schema, &path)
                })
            }
            Strategy::Hilbert => Curve::Hilbert(CompactHilbert::new(schema.grid_shape())),
        }
    }

    pub fn aggregate(&self, schema: &StarSchema) -> WholeLatticeCosts {
        match self {
            Curve::Path(c) => aggregate_class_costs(schema, c),
            Curve::Hilbert(c) => aggregate_class_costs(schema, c),
        }
    }

    /// Physical measurement exactly as a `measure.physical` price does
    /// it: bulk-load a uniformly filled in-memory table, scan every live
    /// class through its buffer pool.
    pub fn measure(
        &self,
        schema: &StarSchema,
        workload: &Workload,
        m: &MeasureSpec,
    ) -> snakes_storage::WorkloadStats {
        match self {
            Curve::Path(c) => measure_with(c, schema, workload, m),
            Curve::Hilbert(c) => measure_with(c, schema, workload, m),
        }
    }
}

/// The two halves of a physical measurement, split so each can be timed.
pub fn load_table(
    lin: &impl Linearization,
    schema: &StarSchema,
    m: &MeasureSpec,
) -> TableFile<std::io::Cursor<Vec<u8>>> {
    let cells = CellData::from_counts(
        schema.grid_shape(),
        vec![m.records_per_cell; schema.num_cells() as usize],
    );
    let config = StorageConfig {
        page_size: m.page_size,
        record_size: m.record_size,
    };
    let record = vec![0u8; m.record_size as usize];
    TableFile::create_in_memory(lin, &cells, config, |_, _| record.clone())
        .expect("in-memory bulk load")
}

fn measure_with(
    lin: &impl Linearization,
    schema: &StarSchema,
    workload: &Workload,
    m: &MeasureSpec,
) -> snakes_storage::WorkloadStats {
    load_table(lin, schema, m)
        .workload_stats(schema, lin, workload)
        .expect("in-memory scan")
}

/// Signature tables by (schema, strategy), built once per gate.
#[derive(Default)]
pub struct Tables(HashMap<(u64, String), WholeLatticeCosts>);

impl Tables {
    pub fn get(&mut self, schema: &StarSchema, strategy: &Strategy) -> &WholeLatticeCosts {
        self.0
            .entry((schema.fingerprint(), format!("{strategy:?}")))
            .or_insert_with(|| Curve::build(schema, strategy).aggregate(schema))
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Checks one `price` or `recommend` answer against the library.
/// Returns a description of the first mismatch.
pub fn check_answer(call: &Call, resp: &Response, tables: &mut Tables) -> Result<(), String> {
    match call {
        Call::Price {
            schema,
            workload,
            strategy,
            measure,
        } => {
            let body = resp.price.as_ref().ok_or("price answer without a body")?;
            let want = tables.get(schema, strategy).expected_cost(workload);
            if !same(body.expected_cost, want) {
                return Err(format!(
                    "expected_cost {} != library {want}",
                    body.expected_cost
                ));
            }
            if let Some(m) = measure {
                let got = body.measured.as_ref().ok_or("no measured body")?;
                let stats = Curve::build(schema, strategy).measure(schema, workload, m);
                if !same(got.avg_seeks, stats.avg_seeks)
                    || !same(got.avg_normalized_blocks, stats.avg_normalized_blocks)
                {
                    return Err("physical measurement differs from the library".into());
                }
            }
            Ok(())
        }
        Call::Recommend { schema, workload } => {
            let body = resp
                .recommendation
                .as_ref()
                .ok_or("recommend answer without a body")?;
            let rec = recommend_with_model(&CostModel::of_schema(schema), workload);
            let rows_match = body.row_majors.len() == rec.row_majors.len()
                && body.row_majors.iter().zip(&rec.row_majors).all(
                    |(b, (order, plain, snaked))| {
                        &b.order_innermost_first == order
                            && same(b.cost_plain, *plain)
                            && same(b.cost_snaked, *snaked)
                    },
                );
            if body.path_dims != rec.optimal_path.dims()
                || !same(body.expected_cost_plain, rec.plain_cost)
                || !same(body.expected_cost_snaked, rec.snaked_cost)
                || !same(body.guarantee_factor, rec.guarantee_factor)
                || !same(body.max_snaking_benefit, rec.max_snaking_benefit)
                || !same(
                    body.savings_vs_worst_row_major,
                    rec.savings_vs_worst_row_major(),
                )
                || !rows_match
            {
                return Err("recommendation differs from the library".into());
            }
            Ok(())
        }
        Call::Drift { .. } | Call::Status => Ok(()),
    }
}

/// The drift sessions as the library evolves them: a versioned workload
/// per session and an incremental DP that a daemon restart throws away.
pub struct Sessions {
    schema: StarSchema,
    sessions: Vec<(VersionedWorkload, IncrementalDp)>,
}

impl Sessions {
    pub fn new(schema: StarSchema, initial: &[Workload]) -> Self {
        let model = CostModel::of_schema(&schema);
        Sessions {
            sessions: initial
                .iter()
                .map(|w| {
                    (
                        VersionedWorkload::new(w.clone()),
                        IncrementalDp::new(model.clone()),
                    )
                })
                .collect(),
            schema,
        }
    }

    /// A restart keeps every workload and version but loses the warm DP.
    pub fn restart(&mut self) {
        let model = CostModel::of_schema(&self.schema);
        for (_, dp) in &mut self.sessions {
            *dp = IncrementalDp::new(model.clone());
        }
    }

    /// Applies one drift; returns the body the daemon must answer with.
    pub fn apply(&mut self, call: &Call) -> Option<DriftBody> {
        let Call::Drift { session, updates } = call else {
            return None;
        };
        let (versioned, dp) = &mut self.sessions[*session];
        let delta = WorkloadDelta::new(updates.clone()).expect("valid delta");
        let drift_tv = versioned.apply(&delta).expect("delta applies");
        let outcome = dp.reoptimize(versioned.workload());
        Some(DriftBody {
            session: crate::inputs::session_name(*session),
            version: versioned.version(),
            coalesced: 1,
            drift_tv,
            path_dims: outcome.path.dims().to_vec(),
            path: outcome.path.to_string(),
            cost: outcome.cost,
            reused: outcome.reused,
            shift_bound: outcome.shift_bound,
            gap: outcome.gap,
        })
    }
}

/// Bit-level equality of two drift bodies.
pub fn same_drift(a: &DriftBody, b: &DriftBody) -> bool {
    a.session == b.session
        && a.version == b.version
        && a.coalesced == b.coalesced
        && same(a.drift_tv, b.drift_tv)
        && a.path_dims == b.path_dims
        && same(a.cost, b.cost)
        && a.reused == b.reused
        && same(a.shift_bound, b.shift_bound)
        && same(a.gap, b.gap)
}
