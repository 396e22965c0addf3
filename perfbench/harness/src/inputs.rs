//! Seeded request generators for the three workloads. Everything a run
//! sends is a pure function of `--seed`; the per-request work is fixed by
//! construction (the seed picks salts and keys, never sizes).

use crate::loadgen::Frames;
use crate::stats::Rng;
use snakes_core::lattice::LatticeShape;
use snakes_core::path::LatticePath;
use snakes_core::schema::{Hierarchy, StarSchema};
use snakes_core::workload::{WeightUpdate, Workload};
use snakes_service::protocol::{
    DeltaSpec, MeasureSpec, ReclusterSpec, SchemaSpec, StrategySpec, WorkloadSpec,
};
use snakes_service::Request;

pub fn schema(dims: &[(&str, &[u64])]) -> StarSchema {
    StarSchema::new(
        dims.iter()
            .map(|(name, fanouts)| Hierarchy::new(*name, fanouts.to_vec()).expect("fanouts"))
            .collect(),
    )
    .expect("schema")
}

/// The paper's Table-4 grid: 200 parts (40 per manufacturer, 5
/// manufacturers) × 10 suppliers × 84 months (12 per year, 7 years).
pub fn table4() -> StarSchema {
    schema(&[("parts", &[40, 5]), ("supplier", &[10]), ("time", &[12, 7])])
}

/// A dense workload with strictly positive salted weights.
pub fn salted_workload(rng: &mut Rng, shape: &LatticeShape) -> Workload {
    let weights = (0..shape.num_classes())
        .map(|_| rng.range_f64(0.5, 1.5))
        .collect();
    Workload::from_weights(shape.clone(), weights).expect("positive weights")
}

/// Per-dimension level marginals with strictly positive salted weights.
pub fn salted_marginals(rng: &mut Rng, shape: &LatticeShape) -> Vec<Vec<f64>> {
    (0..shape.k())
        .map(|d| {
            let m: Vec<f64> = (0..=shape.top_level(d))
                .map(|_| rng.range_f64(0.5, 1.5))
                .collect();
            let total: f64 = m.iter().sum();
            m.into_iter().map(|x| x / total).collect()
        })
        .collect()
}

/// A priced strategy: a lattice path (snaked or plain) or Hilbert.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    Path { dims: Vec<usize>, snaked: bool },
    Hilbert,
}

impl Strategy {
    pub fn spec(&self) -> StrategySpec {
        match self {
            Strategy::Path { dims, snaked: true } => StrategySpec::snaked_path(dims.clone()),
            Strategy::Path {
                dims,
                snaked: false,
            } => StrategySpec::plain_path(dims.clone()),
            Strategy::Hilbert => StrategySpec::hilbert(),
        }
    }
}

/// `n` distinct lattice paths of `schema`, seeded.
fn pick_paths(rng: &mut Rng, schema: &StarSchema, n: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = LatticePath::enumerate(&LatticeShape::of_schema(schema))
        .iter()
        .map(|p| p.dims().to_vec())
        .collect();
    rng.shuffle(&mut all);
    all.truncate(n);
    all
}

/// One request the benchmark can replay in-process and check against a
/// direct library call.
#[derive(Clone, Debug)]
pub enum Call {
    Price {
        schema: StarSchema,
        workload: Workload,
        strategy: Strategy,
        measure: Option<MeasureSpec>,
    },
    Recommend {
        schema: StarSchema,
        workload: Workload,
    },
    Drift {
        session: usize,
        updates: Vec<WeightUpdate>,
    },
    Status,
}

impl Call {
    pub fn is_price(&self) -> bool {
        matches!(self, Call::Price { .. })
    }
}

/// A workload's requests: the wire frames plus what each one asks.
pub struct Stream {
    pub calls: Vec<Call>,
    pub requests: Vec<Request>,
    pub frames: Frames,
}

impl Stream {
    fn new(calls: Vec<Call>, requests: Vec<Request>) -> Self {
        let lines = requests.iter().map(Request::to_line).collect();
        let ids = requests.iter().map(|r| r.id).collect();
        Stream {
            calls,
            requests,
            frames: Frames::new(lines, ids),
        }
    }
}

fn price_request(
    id: u64,
    schema: &StarSchema,
    workload: WorkloadSpec,
    strategy: &Strategy,
    v1: bool,
) -> Request {
    let mut req = Request::price(SchemaSpec::of(schema), workload, strategy.spec());
    req.id = id;
    if v1 {
        // Version-1 flat form: the same inputs as top-level fields.
        let env = req.env.take().expect("price builds an envelope");
        req.v = 1;
        req.schema = env.schema;
        req.workload = env.workload;
        req.strategy = env.strategy;
    }
    req
}

// ---------------------------------------------------------------------
// price_hot
// ---------------------------------------------------------------------

/// Every fourth `price_hot` frame is in v1 flat form.
pub const PRICE_HOT_V1_EVERY: usize = 4;

pub struct PriceHot {
    pub schema: StarSchema,
    /// The cache keys priced once during setup.
    pub setup: Vec<Strategy>,
    pub stream: Stream,
}

pub fn price_hot(seed: u64, frames: usize) -> PriceHot {
    let mut rng = Rng::new(seed);
    let schema = table4();
    let shape = LatticeShape::of_schema(&schema);
    let mut setup: Vec<Strategy> = pick_paths(&mut rng, &schema, 3)
        .into_iter()
        .flat_map(|dims| {
            [true, false].map(|snaked| Strategy::Path {
                dims: dims.clone(),
                snaked,
            })
        })
        .collect();
    setup.push(Strategy::Hilbert);
    let mut calls = Vec::with_capacity(frames);
    let mut requests = Vec::with_capacity(frames);
    for i in 0..frames {
        let strategy = setup[rng.below(setup.len() as u64) as usize].clone();
        let workload = salted_workload(&mut rng, &shape);
        requests.push(price_request(
            i as u64 + 1,
            &schema,
            WorkloadSpec::of(&workload),
            &strategy,
            i % PRICE_HOT_V1_EVERY == PRICE_HOT_V1_EVERY - 1,
        ));
        calls.push(Call::Price {
            schema: schema.clone(),
            workload,
            strategy,
            measure: None,
        });
    }
    PriceHot {
        schema,
        setup,
        stream: Stream::new(calls, requests),
    }
}

// ---------------------------------------------------------------------
// advise_cold
// ---------------------------------------------------------------------

/// One slot of the fixed `advise_cold` cycle.
#[derive(Clone, Copy, Debug)]
pub enum ColdSlot {
    /// `price` on a Table-4-family grid with this many parts leaves
    /// (× 10 suppliers × 84 months).
    Price(u64),
    /// `recommend` on a schema of `dims` dimensions, `levels` levels each.
    Recommend { dims: usize, levels: usize },
}

/// The cycle: prices on 168k, 336k, 504k and 672k cells, recommends on
/// lattices of 64, 625 and 243 classes. The seed never changes it. The
/// largest price comes once per cycle (1/16 of requests), so the p99 sits
/// inside that class's distribution rather than at its extreme tail.
pub const COLD_CYCLE: [ColdSlot; 16] = [
    ColdSlot::Price(200),
    ColdSlot::Recommend { dims: 3, levels: 3 },
    ColdSlot::Price(400),
    ColdSlot::Recommend { dims: 4, levels: 4 },
    ColdSlot::Price(600),
    ColdSlot::Recommend { dims: 5, levels: 2 },
    ColdSlot::Price(200),
    ColdSlot::Recommend { dims: 3, levels: 3 },
    ColdSlot::Price(400),
    ColdSlot::Recommend { dims: 3, levels: 3 },
    ColdSlot::Price(600),
    ColdSlot::Recommend { dims: 5, levels: 2 },
    ColdSlot::Price(200),
    ColdSlot::Recommend { dims: 3, levels: 3 },
    ColdSlot::Price(400),
    ColdSlot::Price(800),
];

/// Two-level factorizations `[a, b]` of `n` with both factors ≥ 2.
fn factor_pairs(n: u64) -> Vec<[u64; 2]> {
    (2..n)
        .filter(|a| n.is_multiple_of(*a) && n / a >= 2)
        .map(|a| [a, n / a])
        .collect()
}

/// `frames` requests cycling through [`COLD_CYCLE`]. Every `price` names
/// a distinct (schema, strategy) key — the parts and time hierarchies
/// are refactored and the lattice path varies at a fixed cell count — so
/// every one misses the signature cache.
pub fn advise_cold(seed: u64, frames: usize) -> Stream {
    let mut rng = Rng::new(seed ^ 0xC01D);
    // Per parts count: (parts fanouts, time fanouts, path index, snaked).
    type Key = ([u64; 2], [u64; 2], usize, bool);
    let mut keys: std::collections::HashMap<u64, Vec<Key>> = std::collections::HashMap::new();
    for slot in COLD_CYCLE {
        if let ColdSlot::Price(parts) = slot {
            if keys.contains_key(&parts) {
                continue;
            }
            let mut all = Vec::new();
            for p in factor_pairs(parts) {
                for t in factor_pairs(84) {
                    for path in 0..30 {
                        for snaked in [false, true] {
                            all.push((p, t, path, snaked));
                        }
                    }
                }
            }
            rng.shuffle(&mut all);
            keys.insert(parts, all);
        }
    }
    let mut calls = Vec::with_capacity(frames);
    let mut requests = Vec::with_capacity(frames);
    for i in 0..frames {
        let id = i as u64 + 1;
        match COLD_CYCLE[i % COLD_CYCLE.len()] {
            ColdSlot::Price(parts) => {
                let (p, t, path, snaked) = keys
                    .get_mut(&parts)
                    .and_then(Vec::pop)
                    .expect("enough distinct keys per slot");
                let schema = schema(&[("parts", &p), ("supplier", &[10]), ("time", &t)]);
                let shape = LatticeShape::of_schema(&schema);
                let dims = LatticePath::enumerate(&shape)[path].dims().to_vec();
                let strategy = Strategy::Path { dims, snaked };
                let workload = salted_workload(&mut rng, &shape);
                requests.push(price_request(
                    id,
                    &schema,
                    WorkloadSpec::of(&workload),
                    &strategy,
                    false,
                ));
                calls.push(Call::Price {
                    schema,
                    workload,
                    strategy,
                    measure: None,
                });
            }
            ColdSlot::Recommend { dims, levels } => {
                let names = ["a", "b", "c", "d", "e"];
                let fanouts: Vec<Vec<u64>> = (0..dims)
                    .map(|_| (0..levels).map(|_| 2 + rng.below(3)).collect())
                    .collect();
                let schema = StarSchema::new(
                    (0..dims)
                        .map(|d| Hierarchy::new(names[d], fanouts[d].clone()).expect("fanouts"))
                        .collect(),
                )
                .expect("schema");
                let shape = LatticeShape::of_schema(&schema);
                let marginals = salted_marginals(&mut rng, &shape);
                let workload = Workload::product(shape, &marginals).expect("marginals");
                let mut req = Request::recommend(
                    SchemaSpec::of(&schema),
                    WorkloadSpec {
                        marginals: Some(marginals),
                        ..WorkloadSpec::default()
                    },
                );
                req.id = id;
                requests.push(req);
                calls.push(Call::Recommend { schema, workload });
            }
        }
    }
    Stream::new(calls, requests)
}

// ---------------------------------------------------------------------
// durable_mixed
// ---------------------------------------------------------------------

pub const SESSIONS: usize = 4;
/// Drifts per session the earlier daemon generation commits.
pub const SEED_DRIFTS: usize = 40;
pub const JOB: &str = "mig";

/// The drift sessions' schema: 4 dimensions × 2 levels, |L| = 81.
pub fn session_schema() -> StarSchema {
    schema(&[
        ("a", &[2, 2]),
        ("b", &[2, 2]),
        ("c", &[2, 2]),
        ("d", &[2, 2]),
    ])
}

/// The physically measured table that fits the 64-page buffer pool:
/// 8×8 cells × 3 records of 125 B on 1 KiB pages = 24 pages.
pub fn fits_table() -> (StarSchema, MeasureSpec) {
    (
        schema(&[("x", &[4, 2]), ("y", &[4, 2])]),
        MeasureSpec {
            records_per_cell: 3,
            page_size: 1024,
            record_size: 125,
            physical: true,
        },
    )
}

/// The table 4× the pool: 16×32 cells × 4 records on 1 KiB pages = 256
/// pages. Both geometries scan in the same time in every process; with
/// 512 B pages the fitting table ran 0.11 ms in some daemon processes and
/// 0.21 ms in others, a spread no number of requests can average out.
pub fn spill_table() -> (StarSchema, MeasureSpec) {
    (
        schema(&[("x", &[4, 4]), ("y", &[4, 8])]),
        MeasureSpec {
            records_per_cell: 4,
            page_size: 1024,
            record_size: 125,
            physical: true,
        },
    )
}

/// The migrated table: 64×64 cells × 8 records on 8 KiB pages, moved one
/// page per chunk between opposite snaked lattice paths.
pub fn migration_request(id: u64) -> Request {
    let schema = schema(&[("p", &[8, 8]), ("t", &[8, 8])]);
    let shape = LatticeShape::of_schema(&schema);
    let mut req = Request::recluster(
        JOB,
        SchemaSpec::of(&schema),
        WorkloadSpec::of(&Workload::uniform(shape)),
        ReclusterSpec {
            from: Some(StrategySpec::snaked_path(vec![0, 1, 0, 1])),
            to: Some(StrategySpec::snaked_path(vec![1, 0, 1, 0])),
            chunk_pages: 1,
        },
    )
    .with_measure(MeasureSpec {
        records_per_cell: 8,
        ..MeasureSpec::default()
    });
    req.id = id;
    req
}

pub fn session_name(s: usize) -> String {
    format!("s{s}")
}

fn drift_updates(rng: &mut Rng, classes: usize) -> Vec<WeightUpdate> {
    let a = rng.below(classes as u64) as usize;
    let b = (a + 1 + rng.below(classes as u64 - 1) as usize) % classes;
    [a, b]
        .into_iter()
        .map(|rank| WeightUpdate {
            rank,
            weight: rng.range_f64(0.004, 0.02),
        })
        .collect()
}

fn drift_request(
    id: u64,
    session: usize,
    key: Option<String>,
    updates: &[WeightUpdate],
) -> Request {
    let mut req = Request::drift(
        &session_name(session),
        vec![DeltaSpec {
            updates: updates.to_vec(),
        }],
    );
    req.idempotency_key = key;
    req.id = id;
    req
}

/// The earlier generation's history: per session, one creating drift
/// (schema + initial workload) then [`SEED_DRIFTS`] keyed deltas.
pub struct SeedHistory {
    pub initial: Vec<Workload>,
    pub requests: Vec<Request>,
    pub calls: Vec<Call>,
}

pub fn seed_history(seed: u64) -> SeedHistory {
    let mut rng = Rng::new(seed ^ 0xD0AB);
    let schema = session_schema();
    let shape = LatticeShape::of_schema(&schema);
    let classes = shape.num_classes();
    let initial: Vec<Workload> = (0..SESSIONS)
        .map(|_| salted_workload(&mut rng, &shape))
        .collect();
    let mut requests = Vec::new();
    let mut calls = Vec::new();
    for n in 0..=SEED_DRIFTS {
        for (s, w) in initial.iter().enumerate() {
            let updates = if n == 0 {
                Vec::new()
            } else {
                drift_updates(&mut rng, classes)
            };
            let mut req = drift_request(
                requests.len() as u64 + 1,
                s,
                Some(format!("g0-{s}-{n}")),
                &updates,
            );
            if n == 0 {
                req.schema = Some(SchemaSpec::of(&schema));
                req.workload = Some(WorkloadSpec::of(w));
            }
            requests.push(req);
            calls.push(Call::Drift {
                session: s,
                updates,
            });
        }
    }
    SeedHistory {
        initial,
        requests,
        calls,
    }
}

/// `durable_mixed` frames. The open-loop pattern (period 10) mixes one
/// drift (`D`, idempotency-keyed on every other round over the sessions),
/// 5 physical prices on the table that
/// fits the pool (`F`), 2 on the table that spills it (`S`) and 2
/// `recluster_status` polls (`Q`). The closed-loop pattern (period 8) has
/// 2 drifts without keys, 4 `F` and 2 `S`.
///
/// Two choices keep the figures steady:
/// - Fitting-table prices are the majority, so the median request is one
///   of them (CPU-bound) and not a drift (whose latency is an fsync) or
///   the boundary between two request kinds.
/// - Keyed drifts are few. Every keyed drift stores its answer, and every
///   checkpoint (each 64 WAL appends) re-encodes all stored answers. A
///   keyed-drift-heavy mix would make the tail and the restart gate
///   measure that growth.
pub fn durable_mixed(seed: u64, frames: usize, open: bool, first_id: u64) -> Stream {
    const OPEN: &[u8] = b"DFFQFSFFQS";
    const CLOSED: &[u8] = b"DFFSDFFS";
    let pattern = if open { OPEN } else { CLOSED };
    let mut rng = Rng::new(seed ^ first_id ^ 0x00D0_AB11);
    let classes = LatticeShape::of_schema(&session_schema()).num_classes();
    let (fits, fits_measure) = fits_table();
    let (spill, spill_measure) = spill_table();
    // Each table's prices cycle through all of its strategies in a fixed
    // order, so the signature-cache and buffer-pool counts are the same on
    // every seed; the seed salts the workloads only.
    let strategies = |schema: &StarSchema| -> Vec<Strategy> {
        LatticePath::enumerate(&LatticeShape::of_schema(schema))
            .iter()
            .flat_map(|p| {
                [true, false].map(|snaked| Strategy::Path {
                    dims: p.dims().to_vec(),
                    snaked,
                })
            })
            .collect()
    };
    let cycles = [strategies(&fits), strategies(&spill)];
    let mut calls = Vec::with_capacity(frames);
    let mut requests = Vec::with_capacity(frames);
    let mut drifts = 0usize;
    // Prices sent so far on the fitting and on the spilling table.
    let mut prices = [0usize; 2];
    for i in 0..frames {
        let id = first_id + i as u64;
        match pattern[i % pattern.len()] {
            b'D' => {
                let session = drifts % SESSIONS;
                let updates = drift_updates(&mut rng, classes);
                // Open-loop drifts carry keys on every other round over the
                // sessions (see above); each session gets keyed ones.
                let keyed = open && (drifts / SESSIONS).is_multiple_of(2);
                let key = keyed.then(|| format!("t{seed}-{id}"));
                requests.push(drift_request(id, session, key, &updates));
                calls.push(Call::Drift { session, updates });
                drifts += 1;
            }
            b'Q' => {
                let mut req = Request::recluster_status(JOB);
                req.id = id;
                requests.push(req);
                calls.push(Call::Status);
            }
            table => {
                let spills = table == b'S';
                let (schema, measure) = if spills {
                    (&spill, &spill_measure)
                } else {
                    (&fits, &fits_measure)
                };
                let cycle = &cycles[usize::from(spills)];
                let strategy = cycle[prices[usize::from(spills)] % cycle.len()].clone();
                prices[usize::from(spills)] += 1;
                let shape = LatticeShape::of_schema(schema);
                let marginals = salted_marginals(&mut rng, &shape);
                let workload = Workload::product(shape, &marginals).expect("marginals");
                let req = price_request(
                    id,
                    schema,
                    WorkloadSpec {
                        marginals: Some(marginals),
                        ..WorkloadSpec::default()
                    },
                    &strategy,
                    false,
                )
                .with_measure(measure.clone());
                requests.push(req);
                calls.push(Call::Price {
                    schema: schema.clone(),
                    workload,
                    strategy,
                    measure: Some(measure.clone()),
                });
            }
        }
    }
    Stream::new(calls, requests)
}
