//! The versioned JSON-lines wire protocol of the clustering advisor
//! service, plus the schema/workload input specs it shares with the CLI.
//!
//! One request per line, one response per line, both UTF-8 JSON documents.
//! Every request carries the protocol version (`v`), an opaque client
//! correlation id (`id`, echoed verbatim), and the endpoint name.
//!
//! **Version 2** unifies the evaluation inputs — which version 1 grew by
//! accretion as flat top-level fields — into one shared [`EvalEnvelope`]
//! (`env`): `schema`, `workload`, `strategy`, `measure`, `eval` travel
//! together for every evaluating endpoint. Version 1 frames (flat fields,
//! `v: 1`) remain fully supported: the server resolves each input through
//! [`Request::schema_spec`] and friends, which prefer the envelope and
//! fall back to the flat field, and answers with the request's own `v` so
//! v1 clients see v1-shaped responses (the extra v2 fields are skipped or
//! ignored under the forward-compat contract pinned by the golden-fixture
//! tests).
//!
//! The endpoints:
//!
//! | endpoint    | input                                   | output |
//! |-------------|-----------------------------------------|--------|
//! | `recommend` | `env.schema`, `env.workload`            | [`RecommendationBody`] |
//! | `price`     | `env.schema`, `env.workload`, `env.strategy`, opt. `env.measure`, `env.eval` | [`PriceBody`] |
//! | `drift`     | `session` (+ `env.schema`/`env.workload` once), `deltas` | [`DriftBody`] |
//! | `explain`   | `env.schema`, `env.workload`, opt. `env.strategy` | [`snakes_core::explain::CostExplanation`] |
//! | `recluster` | `session` (job name), `env.schema`, `env.workload`, `env.measure`, [`ReclusterSpec`] | [`ReclusterBody`] |
//! | `recluster_status` | `session` (job name)             | [`ReclusterBody`] |
//! | `recluster_abort`  | `session` (job name)             | [`ReclusterBody`] |
//! | `stats`     | —                                       | [`StatsBody`] |
//! | `ping`      | —                                       | `ok` only |
//! | `shutdown`  | —                                       | `ok`, then graceful drain |

use serde::{Deserialize, Serialize};
use snakes_core::eval::EvalOptions;
use snakes_core::explain::CostExplanation;
use snakes_core::lattice::{Class, LatticeShape};
use snakes_core::schema::{Hierarchy, StarSchema};
use snakes_core::workload::{WeightUpdate, Workload};

/// The wire protocol version this crate speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// The oldest protocol version the server still accepts. Version-1 frames
/// (flat evaluation fields instead of the [`EvalEnvelope`]) are upgraded
/// on admission and answered in version-1 shape.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

fn default_version() -> u32 {
    PROTOCOL_VERSION
}

#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_false(b: &bool) -> bool {
    !*b
}

// ---------------------------------------------------------------------------
// Input specs (shared with the CLI's file-based commands).
// ---------------------------------------------------------------------------

/// Errors from spec parsing and validation.
#[derive(Debug)]
pub enum SpecError {
    /// Malformed JSON.
    Json(serde_json::Error),
    /// Structurally valid JSON that does not describe a valid object.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Invalid(m) => write!(f, "invalid specification: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Json(e)
    }
}

impl From<snakes_core::error::Error> for SpecError {
    fn from(e: snakes_core::error::Error) -> Self {
        SpecError::Invalid(e.to_string())
    }
}

/// `{"dims": [{"name": ..., "fanouts": [...]}]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaSpec {
    /// The dimensions, leaf-adjacent fanouts first.
    pub dims: Vec<DimSpec>,
}

/// One dimension of a [`SchemaSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimSpec {
    /// Dimension name.
    pub name: String,
    /// Per-level fanouts, `f(d, 1)` first.
    pub fanouts: Vec<u64>,
}

impl SchemaSpec {
    /// Parses and validates a schema document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON or invalid hierarchies.
    pub fn parse(json: &str) -> Result<StarSchema, SpecError> {
        let spec: SchemaSpec = serde_json::from_str(json)?;
        spec.build()
    }

    /// Validates an already-deserialized spec into a [`StarSchema`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on invalid hierarchies.
    pub fn build(self) -> Result<StarSchema, SpecError> {
        let dims = self
            .dims
            .into_iter()
            .map(|d| Hierarchy::new(d.name, d.fanouts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StarSchema::new(dims)?)
    }

    /// The spec describing `schema` (the inverse of [`SchemaSpec::build`]).
    pub fn of(schema: &StarSchema) -> Self {
        SchemaSpec {
            dims: schema
                .dims()
                .iter()
                .map(|h| DimSpec {
                    name: h.name().to_string(),
                    fanouts: h.fanouts().to_vec(),
                })
                .collect(),
        }
    }

    /// Renders a schema back to its JSON spec.
    pub fn render(schema: &StarSchema) -> String {
        serde_json::to_string_pretty(&Self::of(schema)).expect("spec serializes")
    }
}

/// A sparse class weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassWeight {
    /// Level per dimension.
    pub class: Vec<usize>,
    /// Non-negative weight (normalized across entries).
    pub weight: f64,
}

/// One of three workload encodings (see crate docs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Dense probabilities in rank order.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub probs: Option<Vec<f64>>,
    /// Sparse class weights.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub classes: Option<Vec<ClassWeight>>,
    /// Per-dimension level distributions, multiplied.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub marginals: Option<Vec<Vec<f64>>>,
}

impl WorkloadSpec {
    /// Parses and validates a workload document against a lattice.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON, multiple encodings, or an
    /// invalid distribution.
    pub fn parse(json: &str, shape: &LatticeShape) -> Result<Workload, SpecError> {
        let spec: WorkloadSpec = serde_json::from_str(json)?;
        spec.build(shape)
    }

    /// Validates an already-deserialized spec against a lattice.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on multiple encodings or an invalid
    /// distribution.
    pub fn build(self, shape: &LatticeShape) -> Result<Workload, SpecError> {
        let provided = [
            self.probs.is_some(),
            self.classes.is_some(),
            self.marginals.is_some(),
        ]
        .iter()
        .filter(|&&x| x)
        .count();
        if provided != 1 {
            return Err(SpecError::Invalid(format!(
                "exactly one of `probs`, `classes`, `marginals` must be given ({provided} were)"
            )));
        }
        if let Some(probs) = self.probs {
            return Ok(Workload::new(shape.clone(), probs)?);
        }
        if let Some(classes) = self.classes {
            let mut weights = vec![0.0; shape.num_classes()];
            for cw in classes {
                let class = Class(cw.class);
                shape.check(&class)?;
                if cw.weight < 0.0 || cw.weight.is_nan() {
                    return Err(SpecError::Invalid(format!(
                        "negative weight for class {class}"
                    )));
                }
                weights[shape.rank(&class)] += cw.weight;
            }
            return Ok(Workload::from_weights(shape.clone(), weights)?);
        }
        let marginals = self.marginals.expect("one branch must hold");
        Ok(Workload::product(shape.clone(), &marginals)?)
    }

    /// A dense-probability spec describing `workload`.
    pub fn of(workload: &Workload) -> Self {
        WorkloadSpec {
            probs: Some(workload.probs().to_vec()),
            classes: None,
            marginals: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// A clustering strategy named on the wire: either a lattice path (step
/// dimensions, plain or snaked) or a fixed curve family by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StrategySpec {
    /// Step dimensions of a lattice path (as `LatticePath::dims`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dims: Option<Vec<usize>>,
    /// Whether the lattice-path curve is snaked.
    #[serde(default)]
    pub snaked: bool,
    /// A named curve family over the schema's grid (`"hilbert"`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kind: Option<String>,
}

impl StrategySpec {
    /// A snaked lattice-path strategy.
    pub fn snaked_path(dims: Vec<usize>) -> Self {
        StrategySpec {
            dims: Some(dims),
            snaked: true,
            kind: None,
        }
    }

    /// A plain (un-snaked) lattice-path strategy.
    pub fn plain_path(dims: Vec<usize>) -> Self {
        StrategySpec {
            dims: Some(dims),
            snaked: false,
            kind: None,
        }
    }

    /// The compact Hilbert curve over the schema's grid.
    pub fn hilbert() -> Self {
        StrategySpec {
            dims: None,
            snaked: false,
            kind: Some("hilbert".into()),
        }
    }
}

fn default_records_per_cell() -> u64 {
    1
}
fn default_page_size() -> u64 {
    8192
}
fn default_record_size() -> u64 {
    125
}

/// Optional physical measurement attached to a `price` request: pack a
/// uniformly filled grid (`records_per_cell` records in every cell) along
/// the strategy and measure seeks/normalized blocks through the server's
/// shared cost memo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureSpec {
    /// Records in every grid cell.
    #[serde(default = "default_records_per_cell")]
    pub records_per_cell: u64,
    /// Page size in bytes.
    #[serde(default = "default_page_size")]
    pub page_size: u64,
    /// Record size in bytes.
    #[serde(default = "default_record_size")]
    pub record_size: u64,
    /// Measure through the real paged engine (bulk-load an in-memory
    /// [`TableFile`](snakes_storage::TableFile) and scan it through its
    /// buffer pool) instead of the analytic cost memo. Bit-identical
    /// results, but the request additionally exercises — and reports, via
    /// `stats.storage` — physical page I/O. Capped at
    /// [`MAX_PHYSICAL_BYTES`](crate::engine::MAX_PHYSICAL_BYTES).
    #[serde(default)]
    pub physical: bool,
}

impl Default for MeasureSpec {
    fn default() -> Self {
        MeasureSpec {
            records_per_cell: default_records_per_cell(),
            page_size: default_page_size(),
            record_size: default_record_size(),
            physical: false,
        }
    }
}

/// One sparse workload delta of a `drift` request. Multiple deltas in one
/// request are coalesced: each advances the session's workload version,
/// but the incremental re-optimization runs once, on the final
/// distribution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaSpec {
    /// The sparse `(rank, weight)` updates.
    #[serde(default)]
    pub updates: Vec<WeightUpdate>,
}

/// The shared evaluation envelope of protocol version 2: every input an
/// evaluating endpoint reads, in one body. Version 1 spread these over
/// flat request fields; the envelope carries them together so new
/// endpoints (like `recluster`) compose the same inputs instead of
/// growing more top-level fields. Each member is optional — endpoints
/// require what they need and ignore the rest — and any member absent
/// from the envelope falls back to the matching flat v1 field (see
/// [`Request::schema_spec`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalEnvelope {
    /// Star schema.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub schema: Option<SchemaSpec>,
    /// Workload distribution.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workload: Option<WorkloadSpec>,
    /// Strategy to price/explain or to recluster toward.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub strategy: Option<StrategySpec>,
    /// Physical measurement / table geometry.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measure: Option<MeasureSpec>,
    /// Evaluation options (thread-pool shape, query engine).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eval: Option<EvalOptions>,
}

fn default_chunk_pages() -> u64 {
    4
}

/// Parameters of a `recluster` request: migrate the job's table from its
/// current linearization to `to`, `chunk_pages` pages per step, while
/// continuing to serve scans bit-identically from the mixed layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReclusterSpec {
    /// The linearization currently on disk. Defaults to the job's known
    /// layout (required when the job does not exist yet).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub from: Option<StrategySpec>,
    /// The target linearization. Defaults to `env.strategy`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub to: Option<StrategySpec>,
    /// Pages copied per migration step (bounds the per-tick work and thus
    /// the serving-latency impact).
    #[serde(default = "default_chunk_pages")]
    pub chunk_pages: u64,
}

impl Default for ReclusterSpec {
    fn default() -> Self {
        ReclusterSpec {
            from: None,
            to: None,
            chunk_pages: default_chunk_pages(),
        }
    }
}

/// One request line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    #[serde(default = "default_version")]
    pub v: u32,
    /// Client correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: u64,
    /// Endpoint name (`recommend`, `price`, `drift`, `explain`,
    /// `recluster`, `recluster_status`, `recluster_abort`, `stats`,
    /// `ping`, `shutdown`).
    #[serde(default)]
    pub endpoint: String,
    /// Per-request deadline in milliseconds, measured from admission.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// The v2 evaluation envelope: schema, workload, strategy, measure,
    /// and eval options in one body. Preferred over the flat v1 fields
    /// below; absent members fall back to them.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub env: Option<EvalEnvelope>,
    /// Star schema (v1 flat form; v2 clients put it in `env`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub schema: Option<SchemaSpec>,
    /// Workload (v1 flat form; v2 clients put it in `env`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workload: Option<WorkloadSpec>,
    /// Strategy to price/explain (v1 flat form; v2 clients put it in
    /// `env`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub strategy: Option<StrategySpec>,
    /// Optional physical measurement of a `price` request (v1 flat form;
    /// v2 clients put it in `env`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measure: Option<MeasureSpec>,
    /// Drift-session or recluster-job name. Sessions/jobs are created on
    /// first use and survive across connections.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub session: Option<String>,
    /// Sparse workload deltas of a `drift` request (coalesced).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deltas: Option<Vec<DeltaSpec>>,
    /// Online-reclustering parameters of a `recluster` request.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recluster: Option<ReclusterSpec>,
    /// Evaluation options for physical measurement (v1 flat form; v2
    /// clients put them in `env`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eval: Option<EvalOptions>,
    /// Idempotency key: requests sharing a key are deduplicated
    /// server-side, so a retry of an acknowledged mutation (notably a
    /// `drift` delta) replays the stored response instead of re-applying.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub idempotency_key: Option<String>,
}

impl Request {
    /// A request for `endpoint` with every payload field empty.
    pub fn new(endpoint: &str) -> Self {
        Request {
            v: PROTOCOL_VERSION,
            endpoint: endpoint.into(),
            ..Request::default()
        }
    }

    /// A `recommend` request (v2 envelope form).
    pub fn recommend(schema: SchemaSpec, workload: WorkloadSpec) -> Self {
        Request {
            env: Some(EvalEnvelope {
                schema: Some(schema),
                workload: Some(workload),
                ..EvalEnvelope::default()
            }),
            ..Request::new("recommend")
        }
    }

    /// A `price` request (v2 envelope form).
    pub fn price(schema: SchemaSpec, workload: WorkloadSpec, strategy: StrategySpec) -> Self {
        Request {
            env: Some(EvalEnvelope {
                schema: Some(schema),
                workload: Some(workload),
                strategy: Some(strategy),
                ..EvalEnvelope::default()
            }),
            ..Request::new("price")
        }
    }

    /// A `drift` request carrying `deltas` for `session`.
    pub fn drift(session: &str, deltas: Vec<DeltaSpec>) -> Self {
        Request {
            session: Some(session.into()),
            deltas: Some(deltas),
            ..Request::new("drift")
        }
    }

    /// A `recluster` request: start (or resume) job `job` migrating a
    /// table of `schema`'s grid toward `spec.to`, pricing benefit against
    /// `workload`.
    pub fn recluster(
        job: &str,
        schema: SchemaSpec,
        workload: WorkloadSpec,
        spec: ReclusterSpec,
    ) -> Self {
        Request {
            session: Some(job.into()),
            env: Some(EvalEnvelope {
                schema: Some(schema),
                workload: Some(workload),
                ..EvalEnvelope::default()
            }),
            recluster: Some(spec),
            ..Request::new("recluster")
        }
    }

    /// A `recluster_status` request for job `job`.
    pub fn recluster_status(job: &str) -> Self {
        Request {
            session: Some(job.into()),
            ..Request::new("recluster_status")
        }
    }

    /// A `recluster_abort` request for job `job`.
    pub fn recluster_abort(job: &str) -> Self {
        Request {
            session: Some(job.into()),
            ..Request::new("recluster_abort")
        }
    }

    /// This request tagged with `key` for server-side deduplication.
    #[must_use]
    pub fn with_idempotency_key(mut self, key: impl Into<String>) -> Self {
        self.idempotency_key = Some(key.into());
        self
    }

    /// This request with `measure` in its evaluation envelope.
    #[must_use]
    pub fn with_measure(mut self, measure: MeasureSpec) -> Self {
        self.env.get_or_insert_with(EvalEnvelope::default).measure = Some(measure);
        self
    }

    /// This request with `eval` options in its evaluation envelope.
    #[must_use]
    pub fn with_eval(mut self, eval: EvalOptions) -> Self {
        self.env.get_or_insert_with(EvalEnvelope::default).eval = Some(eval);
        self
    }

    /// The schema input: the envelope's when present, else the flat v1
    /// field. All `*_spec`/`eval_opts` accessors resolve member-wise, so
    /// a v1 frame, a v2 frame, and a mixed frame (envelope plus stray
    /// flat fields) all read identically.
    pub fn schema_spec(&self) -> Option<&SchemaSpec> {
        self.env
            .as_ref()
            .and_then(|e| e.schema.as_ref())
            .or(self.schema.as_ref())
    }

    /// The workload input (envelope first, flat v1 fallback).
    pub fn workload_spec(&self) -> Option<&WorkloadSpec> {
        self.env
            .as_ref()
            .and_then(|e| e.workload.as_ref())
            .or(self.workload.as_ref())
    }

    /// The strategy input (envelope first, flat v1 fallback).
    pub fn strategy_spec(&self) -> Option<&StrategySpec> {
        self.env
            .as_ref()
            .and_then(|e| e.strategy.as_ref())
            .or(self.strategy.as_ref())
    }

    /// The measurement input (envelope first, flat v1 fallback).
    pub fn measure_spec(&self) -> Option<&MeasureSpec> {
        self.env
            .as_ref()
            .and_then(|e| e.measure.as_ref())
            .or(self.measure.as_ref())
    }

    /// The evaluation options (envelope first, flat v1 fallback).
    pub fn eval_opts(&self) -> Option<&EvalOptions> {
        self.env
            .as_ref()
            .and_then(|e| e.eval.as_ref())
            .or(self.eval.as_ref())
    }

    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("requests serialize")
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn parse(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// A wire-level failure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable machine-readable code (`bad_request`, `overloaded`,
    /// `deadline_exceeded`, `shutting_down`, `internal`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded`: suggested client backoff before retrying.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub retry_after_ms: Option<u64>,
}

/// One row-major baseline of a recommendation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RowMajorBody {
    /// Dimension order, innermost loop first.
    pub order_innermost_first: Vec<usize>,
    /// Expected cost without snaking.
    pub cost_plain: f64,
    /// Expected cost with snaking.
    pub cost_snaked: f64,
}

/// The `recommend` payload: the optimal snaked lattice path with its
/// sandwich-bound diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecommendationBody {
    /// Step dimensions of the optimal path, innermost first.
    pub path_dims: Vec<usize>,
    /// Human-readable path.
    pub path: String,
    /// Expected cost of the path without snaking.
    pub expected_cost_plain: f64,
    /// Expected cost of the recommended snaked path.
    pub expected_cost_snaked: f64,
    /// Upper bound on `snaked / global optimum` (2 by §5.3).
    pub guarantee_factor: f64,
    /// Largest per-class improvement snaking achieved (`< 2`).
    pub max_snaking_benefit: f64,
    /// Every row-major baseline.
    pub row_majors: Vec<RowMajorBody>,
    /// `1 − snaked / worst row-major`.
    pub savings_vs_worst_row_major: f64,
}

/// Physical measurement results of a `price` request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MeasuredBody {
    /// Expected seeks per query.
    pub avg_seeks: f64,
    /// Expected blocks read, normalized by the per-query minimum.
    pub avg_normalized_blocks: f64,
}

/// The `price` payload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PriceBody {
    /// Human-readable strategy identity.
    pub strategy: String,
    /// Analytic expected cost (average fragments per query) via the
    /// crossing-signature table.
    pub expected_cost: f64,
    /// Whether the signature table came from the shared cache.
    pub cache_hit: bool,
    /// Physical measurement, when requested.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured: Option<MeasuredBody>,
}

/// The `drift` payload: the session's re-optimization outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftBody {
    /// Session name.
    pub session: String,
    /// Workload version after applying this request's deltas.
    pub version: u64,
    /// Number of deltas coalesced into the single re-optimization.
    pub coalesced: usize,
    /// Total-variation distance drifted by this request's deltas.
    pub drift_tv: f64,
    /// Step dimensions of the current optimal path.
    pub path_dims: Vec<usize>,
    /// Human-readable path.
    pub path: String,
    /// Expected cost of the optimal path under the current workload.
    pub cost: f64,
    /// Whether the warm restart fired (stability certificate held).
    pub reused: bool,
    /// The certified cost-shift bound backing the reuse decision.
    pub shift_bound: f64,
    /// The optimality margin at the anchor workload.
    pub gap: f64,
}

/// The `recluster` / `recluster_status` / `recluster_abort` payload: one
/// migration job's progress.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReclusterBody {
    /// Job name (the request's `session`).
    pub job: String,
    /// Job state: `running`, `done`, or `aborted`.
    pub state: String,
    /// Human-readable identity of the source linearization.
    pub from: String,
    /// Human-readable identity of the target linearization.
    pub to: String,
    /// Cells fully migrated (every new-curve rank below the fence is
    /// served from the new layout).
    pub fence: u64,
    /// Total grid cells to migrate.
    pub total_cells: u64,
    /// Bounded migration steps applied so far.
    pub chunks_applied: u64,
    /// Records copied so far.
    pub records_moved: u64,
    /// Differential probes run against this job (each asserts a mixed
    /// scan is bit-identical to both pure layouts).
    pub probes: u64,
}

/// Online-reclustering counters of the `stats` payload, aggregated over
/// every job since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReclusterStatsBody {
    /// Jobs started (explicit `recluster` requests plus auto-triggers).
    pub jobs_started: u64,
    /// Jobs that ran to completion (table fully in the target layout).
    pub jobs_completed: u64,
    /// Jobs aborted by `recluster_abort`.
    pub jobs_aborted: u64,
    /// Jobs resumed from the durability log at startup.
    pub jobs_recovered: u64,
    /// Jobs currently migrating.
    pub active: u64,
    /// Bounded migration steps applied across all jobs.
    pub chunks_applied: u64,
    /// Records copied across all jobs.
    pub records_moved: u64,
    /// Differential probes run (mixed scan vs both pure layouts).
    pub probes: u64,
    /// Jobs started by the drift-handler's cost/benefit trigger rather
    /// than an explicit request.
    pub auto_triggers: u64,
}

/// Hit/miss counters of one shared cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStatsBody {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (i.e. recomputations performed).
    pub misses: u64,
    /// Resident entries.
    pub entries: u64,
}

/// Latency/outcome counters of one endpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EndpointStatsBody {
    /// Endpoint name.
    pub endpoint: String,
    /// Completed requests (including errored ones).
    pub requests: u64,
    /// Requests that returned an error body.
    pub errors: u64,
    /// Requests rejected at admission (queue full).
    pub shed: u64,
    /// Requests that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Median end-to-end latency (admission to response), microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Maximum observed latency, microseconds.
    pub max_us: u64,
}

/// Storage-engine counters of the `stats` payload: durable-state health
/// (WAL size, checkpoints, recoveries) plus the accumulated buffer-pool
/// counters of every physical measurement served.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageStatsBody {
    /// Whether the server runs with a durable data directory.
    pub enabled: bool,
    /// Acknowledged bytes in the write-ahead log (header included).
    pub wal_bytes: u64,
    /// Live entries in the write-ahead log.
    pub wal_entries: u64,
    /// Checkpoints installed since startup.
    pub checkpoints: u64,
    /// 1 when this process recovered prior state at startup, else 0.
    pub recoveries: u64,
    /// Drift sessions rebuilt by that recovery.
    pub recovered_sessions: u64,
    /// Buffer-pool fetches served from resident frames.
    pub pool_hits: u64,
    /// Buffer-pool fetches that touched the backing file.
    pub pool_misses: u64,
    /// `pool_hits / (pool_hits + pool_misses)` (0 before any fetch).
    pub pool_hit_rate: f64,
    /// Frames evicted to make room.
    pub pool_evictions: u64,
    /// Pages physically read from backing files.
    pub physical_reads: u64,
    /// Pages physically written to backing files.
    pub physical_writes: u64,
}

/// Same-tick request-coalescing counters of the `stats` payload. Only the
/// sharded core batches (the legacy blocking core executes one request per
/// worker at a time), so both gauges stay 0 there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchingStatsBody {
    /// Distinct coalescing groups: a leader computation that at least one
    /// same-tick follower reused.
    pub batches: u64,
    /// Requests answered from a same-tick leader's result instead of
    /// running their own signature-cache / recommendation pass.
    pub coalesced: u64,
}

/// Whole-lattice aggregation-kernel counters of the `stats` payload: how
/// signature-cache misses were computed (blocked + LUT kernel vs the
/// scalar fallback vs a multi-worker walk) and where the time went.
/// Lattice-path misses are computed in closed form, with no walk, and
/// count in none of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregationStatsBody {
    /// Curve walks served by the blocked + LUT kernel.
    pub walks_blocked: u64,
    /// Curve walks that fell back to the scalar kernel (LUT too large).
    pub walks_scalar: u64,
    /// Curve walks split across multiple workers.
    pub walks_parallel: u64,
    /// Grid edges classified across all walks.
    pub edges: u64,
    /// Nanoseconds spent decoding rank blocks into coordinates.
    pub decode_nanos: u64,
    /// Nanoseconds spent classifying edges into crossing signatures.
    pub count_nanos: u64,
    /// Nanoseconds spent in the k-dimensional prefix sum.
    pub prefix_nanos: u64,
}

/// The `stats` payload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker threads executing requests.
    pub workers: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Requests currently queued (admitted, not yet executing).
    pub queue_depth: u64,
    /// Live drift sessions.
    pub sessions: u64,
    /// Shared crossing-signature cache counters.
    pub signature_cache: CacheStatsBody,
    /// Shared physical cost memo counters.
    pub cost_memo: CacheStatsBody,
    /// Per-endpoint counters.
    pub endpoints: Vec<EndpointStatsBody>,
    /// Idempotency-cache counters (`hits` = deduplicated replays,
    /// `misses` = first executions stored under a key).
    #[serde(default)]
    pub idempotency: CacheStatsBody,
    /// Handler panics caught and surfaced as in-band `internal` errors.
    #[serde(default)]
    pub panics_caught: u64,
    /// Same-tick request-coalescing counters (sharded core only).
    #[serde(default)]
    pub batching: BatchingStatsBody,
    /// Storage-engine counters (WAL, checkpoints, buffer pool).
    #[serde(default)]
    pub storage: StorageStatsBody,
    /// Aggregation-kernel counters (signature-cache miss computation).
    #[serde(default)]
    pub aggregation: AggregationStatsBody,
    /// Online-reclustering counters (migration jobs).
    #[serde(default)]
    pub recluster: ReclusterStatsBody,
}

/// One response line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version.
    #[serde(default = "default_version")]
    pub v: u32,
    /// The request's correlation id, echoed.
    #[serde(default)]
    pub id: u64,
    /// Whether the request succeeded.
    #[serde(default)]
    pub ok: bool,
    /// Failure detail when `ok` is false.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<ErrorBody>,
    /// `recommend` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recommendation: Option<RecommendationBody>,
    /// `price` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub price: Option<PriceBody>,
    /// `drift` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub drift: Option<DriftBody>,
    /// `explain` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub explanation: Option<CostExplanation>,
    /// `recluster` / `recluster_status` / `recluster_abort` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recluster: Option<ReclusterBody>,
    /// `stats` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<StatsBody>,
    /// True when this response was replayed from the idempotency cache
    /// instead of re-executing the request.
    #[serde(default, skip_serializing_if = "is_false")]
    pub deduplicated: bool,
}

impl Response {
    /// A success response echoing `id`.
    pub fn ok(id: u64) -> Self {
        Response {
            v: PROTOCOL_VERSION,
            id,
            ok: true,
            ..Response::default()
        }
    }

    /// A failure response echoing `id`.
    pub fn err(id: u64, error: ErrorBody) -> Self {
        Response {
            v: PROTOCOL_VERSION,
            id,
            ok: false,
            error: Some(error),
            ..Response::default()
        }
    }

    /// This response restamped with the requesting client's protocol
    /// version (clamped to the supported range), so a v1 client is
    /// answered with `v: 1` frames — the body fields it does not know
    /// are already skipped or ignored under the forward-compat contract.
    #[must_use]
    pub fn for_version(mut self, v: u32) -> Self {
        self.v = v.clamp(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION);
        self
    }

    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("responses serialize")
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn parse(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_roundtrip() {
        let json =
            r#"{"dims":[{"name":"parts","fanouts":[40,5]},{"name":"time","fanouts":[12,7]}]}"#;
        let schema = SchemaSpec::parse(json).unwrap();
        assert_eq!(schema.k(), 2);
        assert_eq!(schema.grid_shape(), vec![200, 84]);
        let rendered = SchemaSpec::render(&schema);
        let again = SchemaSpec::parse(&rendered).unwrap();
        assert_eq!(schema, again);
    }

    #[test]
    fn schema_rejects_bad_input() {
        assert!(SchemaSpec::parse("{").is_err());
        assert!(SchemaSpec::parse(r#"{"dims":[]}"#).is_err());
        assert!(SchemaSpec::parse(r#"{"dims":[{"name":"x","fanouts":[0]}]}"#).is_err());
    }

    #[test]
    fn workload_three_encodings() {
        let shape = LatticeShape::new(vec![1, 1]);
        let w1 = WorkloadSpec::parse(r#"{"probs":[0.25,0.25,0.25,0.25]}"#, &shape).unwrap();
        let w2 = WorkloadSpec::parse(
            r#"{"classes":[{"class":[0,0],"weight":1},{"class":[1,0],"weight":1},
                           {"class":[0,1],"weight":1},{"class":[1,1],"weight":1}]}"#,
            &shape,
        )
        .unwrap();
        let w3 = WorkloadSpec::parse(r#"{"marginals":[[0.5,0.5],[0.5,0.5]]}"#, &shape).unwrap();
        assert_eq!(w1, w2);
        assert_eq!(w1, w3);
    }

    #[test]
    fn workload_rejects_ambiguous_and_invalid() {
        let shape = LatticeShape::new(vec![1, 1]);
        assert!(WorkloadSpec::parse("{}", &shape).is_err());
        assert!(
            WorkloadSpec::parse(r#"{"probs":[1.0,0,0,0],"marginals":[[1,0],[1,0]]}"#, &shape)
                .is_err()
        );
        assert!(WorkloadSpec::parse(r#"{"probs":[0.5,0.5]}"#, &shape).is_err());
        assert!(
            WorkloadSpec::parse(r#"{"classes":[{"class":[5,0],"weight":1}]}"#, &shape).is_err()
        );
        assert!(
            WorkloadSpec::parse(r#"{"classes":[{"class":[0,0],"weight":-1}]}"#, &shape).is_err()
        );
    }

    #[test]
    fn sparse_weights_accumulate() {
        let shape = LatticeShape::new(vec![1]);
        let w = WorkloadSpec::parse(
            r#"{"classes":[{"class":[0],"weight":1},{"class":[0],"weight":1},
                           {"class":[1],"weight":2}]}"#,
            &shape,
        )
        .unwrap();
        assert!((w.prob(&Class(vec![0])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn request_line_roundtrip_and_defaults() {
        let req = Request::recommend(
            SchemaSpec {
                dims: vec![DimSpec {
                    name: "d".into(),
                    fanouts: vec![2, 2],
                }],
            },
            WorkloadSpec {
                probs: Some(vec![0.5, 0.25, 0.25]),
                ..WorkloadSpec::default()
            },
        );
        let back = Request::parse(&req.to_line()).unwrap();
        assert_eq!(req, back);
        // A bare `{}` is a valid (if useless) request at the current
        // version with an empty endpoint.
        let bare = Request::parse("{}").unwrap();
        assert_eq!(bare.v, PROTOCOL_VERSION);
        assert_eq!(bare.endpoint, "");
        assert!(bare.schema.is_none());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // Forward compat: newer peers may add fields; older ones skip them.
        let req =
            Request::parse(r#"{"endpoint":"ping","id":7,"some_future_field":{"x":1}}"#).unwrap();
        assert_eq!(req.endpoint, "ping");
        assert_eq!(req.id, 7);
        let resp = Response::parse(r#"{"id":7,"ok":true,"expansion":[1,2,3]}"#).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.id, 7);
    }

    #[test]
    fn envelope_and_flat_fields_resolve_identically() {
        let schema = SchemaSpec {
            dims: vec![DimSpec {
                name: "d".into(),
                fanouts: vec![2],
            }],
        };
        let workload = WorkloadSpec {
            probs: Some(vec![0.5, 0.5]),
            ..WorkloadSpec::default()
        };
        let strategy = StrategySpec::snaked_path(vec![0]);
        // v2 envelope form (constructor) vs hand-built v1 flat form.
        let v2 = Request::price(schema.clone(), workload.clone(), strategy.clone());
        let v1 = Request {
            v: 1,
            schema: Some(schema.clone()),
            workload: Some(workload.clone()),
            strategy: Some(strategy.clone()),
            ..Request::new("price")
        };
        assert_eq!(v2.schema_spec(), v1.schema_spec());
        assert_eq!(v2.workload_spec(), v1.workload_spec());
        assert_eq!(v2.strategy_spec(), v1.strategy_spec());
        assert!(v2.measure_spec().is_none() && v2.eval_opts().is_none());
        // Member-wise resolution: envelope wins where present, flat
        // fields fill the gaps.
        let mixed = Request {
            measure: Some(MeasureSpec::default()),
            schema: Some(SchemaSpec { dims: vec![] }),
            ..v2.clone()
        };
        assert_eq!(mixed.schema_spec(), Some(&schema), "envelope wins");
        assert_eq!(
            mixed.measure_spec(),
            Some(&MeasureSpec::default()),
            "flat fallback"
        );
        // Builder helpers write into the envelope.
        let with = v2
            .with_measure(MeasureSpec::default())
            .with_eval(snakes_core::eval::EvalOptions::serial());
        assert_eq!(
            with.env.as_ref().unwrap().measure,
            Some(MeasureSpec::default())
        );
        assert!(with.eval.is_none());
    }

    #[test]
    fn recluster_requests_roundtrip() {
        let schema = SchemaSpec {
            dims: vec![DimSpec {
                name: "d".into(),
                fanouts: vec![2, 2],
            }],
        };
        let workload = WorkloadSpec {
            marginals: Some(vec![vec![0.5, 0.25, 0.25]]),
            ..WorkloadSpec::default()
        };
        let req = Request::recluster(
            "nightly",
            schema,
            workload,
            ReclusterSpec {
                to: Some(StrategySpec::hilbert()),
                ..ReclusterSpec::default()
            },
        );
        assert_eq!(req.v, PROTOCOL_VERSION);
        assert_eq!(req.session.as_deref(), Some("nightly"));
        let back = Request::parse(&req.to_line()).unwrap();
        assert_eq!(req, back);
        assert_eq!(back.recluster.as_ref().unwrap().chunk_pages, 4);
        // Defaulted chunk_pages survives a sparse document.
        let sparse: ReclusterSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(sparse, ReclusterSpec::default());
        for ctor in [Request::recluster_status, Request::recluster_abort] {
            let r = ctor("nightly");
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn responses_mirror_the_requesters_version() {
        assert_eq!(Response::ok(1).v, PROTOCOL_VERSION);
        assert_eq!(Response::ok(1).for_version(1).v, 1);
        assert_eq!(Response::ok(1).for_version(2).v, 2);
        // Out-of-range versions clamp to the supported window.
        assert_eq!(Response::ok(1).for_version(0).v, MIN_PROTOCOL_VERSION);
        assert_eq!(Response::ok(1).for_version(99).v, PROTOCOL_VERSION);
    }

    #[test]
    fn response_error_shape() {
        let resp = Response::err(
            3,
            ErrorBody {
                code: "overloaded".into(),
                message: "queue full".into(),
                retry_after_ms: Some(25),
            },
        );
        let line = resp.to_line();
        assert!(line.contains("\"retry_after_ms\":25"));
        let back = Response::parse(&line).unwrap();
        assert_eq!(back, resp);
        assert!(!back.ok);
    }
}
