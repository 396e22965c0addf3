//! The advisor engine: endpoint handlers executing against state shared
//! by every connection — the crossing-signature cache, the physical cost
//! memo, and the drift-session registry.
//!
//! The engine is transport-agnostic: [`Engine::handle`] maps one
//! [`Request`] to one [`Response`], so tests (and the in-process client)
//! can drive it without a socket. Everything it computes is bit-identical
//! to the corresponding direct library call — caches only ever memoize
//! pure functions of their keys, and f64s survive the JSON wire because
//! Rust formats them shortest-roundtrip.

use crate::durability::{
    Checkpoint, Durability, IdemSnapshot, LogEntry, Media, ReclusterSnapshot, SessionSnapshot,
};
use crate::error::ServiceError;
use crate::fault::{request_token, FaultPlan};
use crate::metrics::Registry;
use crate::protocol::{
    AggregationStatsBody, CacheStatsBody, DriftBody, MeasureSpec, MeasuredBody, PriceBody,
    ReclusterBody, ReclusterStatsBody, RecommendationBody, Request, Response, RowMajorBody,
    SchemaSpec, StatsBody, StorageStatsBody, StrategySpec,
};
use crate::recluster::{build_job, ReclusterJob, RunningJob};
use parking_lot::Mutex;
use snakes_core::advisor::{
    recommend_with_model, reorg_decision, ReclusterTrigger, Recommendation,
};
use snakes_core::cost::CostModel;
use snakes_core::dp::IncrementalDp;
use snakes_core::lattice::LatticeShape;
use snakes_core::path::LatticePath;
use snakes_core::schema::StarSchema;
use snakes_core::session::session_shard;
use snakes_core::workload::{VersionedWorkload, Workload, WorkloadDelta};
use snakes_curves::{
    path_curve, snaked_path_curve, CompactHilbert, Linearization, SignatureCache, StrategyId,
};
use snakes_storage::{CellData, PackedLayout, PoolStats, SharedCostMemo, StorageConfig, TableFile};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Largest grid (cells) a `price` request may name, analytic or
/// measured, and a reclustering job may migrate. A `hilbert` price on a
/// signature-cache miss builds the curve and walks every cell, and a
/// `measure` packs every cell, so the bound is checked before any curve
/// is built:
/// one hostile request can neither allocate the machine away nor stall
/// its shard.
pub const MAX_MEASURE_CELLS: u64 = 1 << 22;

/// Largest class lattice (`|L| = Π (ℓ_d + 1)`) a request may name. Every
/// workload, DP table and signature table has one entry per class, so the
/// bound is checked right after the schema is built, before any of them
/// is: a few-hundred-byte frame naming 40 fanout-1 dimensions has one
/// cell but 2^40 classes.
pub const MAX_CLASSES: u64 = 1 << 20;

/// Largest `recommend` a request may ask for, in units of
/// `k! · |L| · Σℓ_d`: the advisor prices all `k!` row-major orders per
/// class, at ~11–22 ns a unit, so the bound holds one request near
/// 100 ms. k = 5 at 2 levels a dimension (291 600 units) passes; k = 6 at
/// 4 levels (2.7·10^8) is refused.
pub const MAX_RECOMMEND_UNITS: u64 = 1 << 22;

/// Largest table a *physical* measurement (`measure.physical`) may
/// bulk-load, in record bytes (64 MiB). The analytic memo path has no
/// such bound because it materializes nothing.
pub const MAX_PHYSICAL_BYTES: u64 = 64 << 20;

/// A per-request deadline, measured from admission. Handlers check it
/// cooperatively at stage boundaries (between parse, optimize, pack and
/// measure), so an expired request stops consuming its worker early.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `ms` milliseconds after `start` (`None` = unbounded).
    pub fn from_ms(start: Instant, ms: Option<u64>) -> Self {
        Deadline {
            at: ms.map(|m| start + std::time::Duration::from_millis(m)),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Errors with [`ServiceError::DeadlineExceeded`] once expired.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::DeadlineExceeded`] when expired.
    pub fn check(&self) -> Result<(), ServiceError> {
        if self.expired() {
            Err(ServiceError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// One drift session: a versioned workload and its incremental DP, pinned
/// to the schema it was created with.
struct DriftSession {
    schema_fingerprint: u64,
    /// The wire spec of the session's schema — logged with every durable
    /// drift record so recovery can rebuild the session standalone.
    schema_spec: SchemaSpec,
    versioned: VersionedWorkload,
    dp: IncrementalDp,
    /// The linearization the session's table is assumed to be clustered
    /// by: pinned to the first commit's optimum, advanced when an
    /// auto-triggered migration lands. Drives the reorg cost/benefit
    /// comparison. `None` until the first commit, or with the
    /// auto-recluster trigger disabled.
    layout_path: Option<LatticePath>,
    /// Hysteresis state of the auto-recluster trigger. Advisory —
    /// not persisted; a restart restarts the worth-it streak.
    trigger: Option<ReclusterTrigger>,
}

/// Bound on the idempotency cache. Far beyond any retry window; when hit,
/// the cache recycles wholesale (a key older than 2¹⁶ distinct successors
/// has no live retries).
const IDEMPOTENCY_CAPACITY: usize = 1 << 16;

/// One idempotency slot: `None` while the first arrival executes (the
/// slot's mutex serializes duplicates behind it), `Some` once an
/// authoritative response is stored.
type IdempotencySlot = Arc<Mutex<Option<Response>>>;

/// The drift-session registry, striped by [`session_shard`] so the
/// sharded core's exclusive-ownership discipline maps one stripe to one
/// shard. Each stripe keeps its own mutex: under the ownership discipline
/// it is uncontended (only the owning shard locks it on the request path;
/// `stats`, checkpoints and state probes touch other stripes rarely), and
/// with the legacy blocking core every worker may lock every stripe, which
/// is exactly the old global-lock behavior split `n` ways.
struct SessionMap {
    stripes: Vec<Mutex<HashMap<String, Arc<Mutex<DriftSession>>>>>,
}

impl SessionMap {
    fn new(stripes: usize) -> Self {
        SessionMap {
            stripes: (0..stripes.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    fn stripe(&self, name: &str) -> &Mutex<HashMap<String, Arc<Mutex<DriftSession>>>> {
        &self.stripes[session_shard(name, self.stripes.len())]
    }

    fn get(&self, name: &str) -> Option<Arc<Mutex<DriftSession>>> {
        self.stripe(name).lock().get(name).map(Arc::clone)
    }

    fn insert(&self, name: String, session: Arc<Mutex<DriftSession>>) {
        self.stripe(&name).lock().insert(name, session);
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Handles to every session, across all stripes.
    fn handles(&self) -> Vec<(String, Arc<Mutex<DriftSession>>)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            out.extend(stripe.iter().map(|(k, v)| (k.clone(), Arc::clone(v))));
        }
        out
    }
}

/// Exact identity of one `price` computation: schema fingerprint, strategy
/// and the workload's probability vector bit-for-bit. Two requests with
/// equal keys are guaranteed the same `expected_cost` bits.
#[derive(PartialEq, Eq, Hash)]
struct PriceKey {
    schema: u64,
    strategy: StrategyId,
    probs: Vec<u64>,
}

/// Exact identity of one `recommend` computation.
#[derive(PartialEq, Eq, Hash)]
struct RecommendKey {
    schema: u64,
    probs: Vec<u64>,
}

/// A per-tick coalescing scope for same-fingerprint read-only work.
///
/// The sharded core creates one scope per event-loop tick and threads it
/// through every request executed in that tick via
/// [`Engine::handle_batched`]. The first request for a given
/// (schema, strategy, workload) key performs the real SignatureCache
/// dot-product pass; followers in the same tick reuse its result. The
/// fan-out is bit-identical to serial evaluation: a serial follower would
/// hit the signature cache and recompute the identical dot product over
/// the identical probability vector, reporting `cache_hit: true` — which
/// is precisely what the scope replays. Entries keyed on full probability
/// bits, never on a lossy hash, so a collision cannot cross-contaminate.
#[derive(Default)]
pub struct BatchScope {
    prices: HashMap<PriceKey, Memoized<f64>>,
    recommendations: HashMap<RecommendKey, Memoized<RecommendationBody>>,
}

/// A memoized leader result plus whether this key already counted toward
/// the `stats.batching.batches` gauge (first follower counts the batch).
struct Memoized<T> {
    value: T,
    counted: bool,
}

impl BatchScope {
    /// A fresh, empty scope (one per tick — or per call, which disables
    /// coalescing and reproduces strictly serial behavior).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Configuration of the drift handler's automatic reclustering trigger.
///
/// With this armed (see [`Engine::with_auto_recluster`]), every committed
/// drift runs the advisor's reorg cost/benefit analysis
/// ([`snakes_core::advisor::reorg_decision`]) against the session's
/// assumed layout; after `min_signals` consecutive worth-it verdicts a
/// migration job named `auto:<session>` starts, and `cooldown` commits
/// are then ignored before the trigger can re-arm.
#[derive(Debug, Clone)]
pub struct AutoRecluster {
    /// Query horizon the one-time reorganization cost must amortize
    /// within for a verdict to count as worth it.
    pub horizon_queries: f64,
    /// Consecutive worth-it drift commits required to fire.
    pub min_signals: u32,
    /// Drift commits ignored after a migration starts (hysteresis).
    pub cooldown: u32,
    /// Pages copied per migration step.
    pub chunk_pages: u64,
    /// Geometry of the synthetic table each session is assumed to serve.
    pub measure: MeasureSpec,
}

impl Default for AutoRecluster {
    fn default() -> Self {
        AutoRecluster {
            horizon_queries: 10_000.0,
            min_signals: 2,
            cooldown: 8,
            chunk_pages: 4,
            measure: MeasureSpec::default(),
        }
    }
}

/// Monotone online-reclustering counters (per engine, summed over jobs).
#[derive(Default)]
struct ReclusterCounters {
    jobs_started: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_aborted: AtomicU64,
    jobs_recovered: AtomicU64,
    chunks_applied: AtomicU64,
    records_moved: AtomicU64,
    probes: AtomicU64,
    auto_triggers: AtomicU64,
}

/// The shared advisor state. One engine serves every connection of a
/// server; `Arc<Engine>` is the unit of sharing.
pub struct Engine {
    signatures: Mutex<SignatureCache>,
    memo: SharedCostMemo,
    sessions: SessionMap,
    idempotency: Mutex<HashMap<String, IdempotencySlot>>,
    /// Durable substrate (WAL + checkpoints); `None` runs in-memory only.
    durability: Option<Durability>,
    /// Accumulated buffer-pool counters of every physical measurement.
    measure_pool: Mutex<PoolStats>,
    fault: Option<FaultPlan>,
    /// Request-outcome counters, shared with the server's admission path.
    pub registry: Registry,
    started: Instant,
    workers: u64,
    queue_capacity: u64,
    /// Online-reclustering jobs by name. Jobs are never removed — a
    /// terminal job keeps answering `recluster_status` until restarted.
    reclusters: Mutex<HashMap<String, Arc<Mutex<ReclusterJob>>>>,
    recluster_counters: ReclusterCounters,
    /// Drift-handler auto-trigger; `None` disables it.
    auto_recluster: Option<AutoRecluster>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh engine with empty caches.
    pub fn new() -> Self {
        Engine {
            signatures: Mutex::new(SignatureCache::new()),
            memo: SharedCostMemo::new(),
            sessions: SessionMap::new(1),
            idempotency: Mutex::new(HashMap::new()),
            durability: None,
            measure_pool: Mutex::new(PoolStats::default()),
            fault: None,
            registry: Registry::new(),
            started: Instant::now(),
            workers: 0,
            queue_capacity: 0,
            reclusters: Mutex::new(HashMap::new()),
            recluster_counters: ReclusterCounters::default(),
            auto_recluster: None,
        }
    }

    /// As [`Engine::new`], recording the server's worker count and queue
    /// capacity for the `stats` endpoint. The session registry is striped
    /// `workers` ways ([`session_shard`] picks the stripe), so a sharded
    /// server built with `workers == shards` gets a one-to-one mapping
    /// from session stripes to owning shards.
    pub fn with_limits(workers: usize, queue_capacity: usize) -> Self {
        Engine {
            workers: workers as u64,
            queue_capacity: queue_capacity as u64,
            sessions: SessionMap::new(workers.max(1)),
            ..Engine::new()
        }
    }

    /// Holds the signature-cache lock: until the guard drops, every
    /// `price` that reaches the cache blocks there, after dequeue. Lets
    /// the simulator freeze a shard mid-execution at a known point.
    #[cfg(test)]
    pub(crate) fn hold_signatures(&self) -> parking_lot::MutexGuard<'_, SignatureCache> {
        self.signatures.lock()
    }

    /// The number of session stripes (equal to the shard count the engine
    /// was built for; `1` for a default engine).
    pub fn session_stripes(&self) -> usize {
        self.sessions.stripes.len()
    }

    /// Arms deterministic fault injection: every executed request rolls
    /// for a handler panic or delay against `plan`. Replays from the
    /// idempotency cache do not roll (they execute nothing).
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Arms the drift handler's automatic reclustering trigger: committed
    /// drifts feed a reorg cost/benefit analysis, and sustained worth-it
    /// verdicts start a bounded-chunk migration without an explicit
    /// `recluster` request.
    #[must_use]
    pub fn with_auto_recluster(mut self, config: AutoRecluster) -> Self {
        self.auto_recluster = Some(config);
        self
    }

    /// Attaches durable storage and recovers any prior state from it:
    /// every drift session (at its exact acknowledged version and
    /// probability vector) and every stored idempotent response. From
    /// here on, `drift` commits are logged to the WAL *before* they are
    /// acknowledged, so a crash at any write boundary loses nothing that
    /// was acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates media I/O errors; `InvalidData` when recovered state is
    /// corrupt (fail-stop — the engine refuses to start on bad state
    /// rather than silently dropping it).
    pub fn with_durability(mut self, media: Media) -> io::Result<Self> {
        let corrupt = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let (durability, recovered) = Durability::open(media)?;
        let sessions = SessionMap::new(self.sessions.stripes.len());
        for snap in recovered.sessions {
            let schema = snap
                .schema
                .clone()
                .build()
                .map_err(|e| corrupt(format!("session `{}`: {e}", snap.name)))?;
            let shape = LatticeShape::of_schema(&schema);
            // `Workload::new` stores the probabilities verbatim, so the
            // recovered distribution is bit-identical to the logged one.
            let workload = Workload::new(shape, snap.probs)
                .map_err(|e| corrupt(format!("session `{}`: {e}", snap.name)))?;
            let session = DriftSession {
                schema_fingerprint: schema.fingerprint(),
                schema_spec: snap.schema,
                versioned: VersionedWorkload::restore(workload, snap.version),
                dp: IncrementalDp::new(CostModel::of_schema(&schema)),
                layout_path: None,
                trigger: None,
            };
            sessions.insert(snap.name, Arc::new(Mutex::new(session)));
        }
        let mut idempotency = HashMap::new();
        for snap in recovered.idempotency {
            idempotency.insert(snap.key, Arc::new(Mutex::new(Some(snap.response))));
        }
        // Recluster jobs rebuild from spec + fence alone: the synthetic
        // table is a deterministic function of the spec, so the redo in
        // `build_job` reproduces the crashed migration's bytes exactly.
        let mut reclusters = HashMap::new();
        let mut recovered_jobs = 0u64;
        for snap in recovered.reclusters {
            let name = snap.job.clone();
            let mut job =
                build_job(snap).map_err(|e| corrupt(format!("recluster job `{name}`: {e}")))?;
            // Auto-triggered jobs carry their session in the name; restore
            // the completion notification across the restart.
            job.notify_session = name.strip_prefix("auto:").map(str::to_string);
            if job.snap.state == "running" {
                recovered_jobs += 1;
            }
            reclusters.insert(name, Arc::new(Mutex::new(job)));
        }
        self.recluster_counters.jobs_recovered = AtomicU64::new(recovered_jobs);
        self.reclusters = Mutex::new(reclusters);
        self.sessions = sessions;
        self.idempotency = Mutex::new(idempotency);
        self.durability = Some(durability);
        Ok(self)
    }

    /// Switches the WAL to group commit: appends buffer in the log and
    /// [`Engine::flush_wal`] performs one fsync for the whole batch. The
    /// sharded core enables this and flushes once per event-loop tick,
    /// *before* releasing any of the tick's responses to sockets — so the
    /// "durable before acknowledged" contract is preserved while the
    /// fsync cost is amortized across every commit in the tick. Without
    /// this call each append syncs individually (the legacy core's
    /// behavior, and what direct [`Engine::handle`] callers get).
    pub fn set_group_commit(&self, enabled: bool) {
        if let Some(d) = &self.durability {
            d.set_deferred_sync(enabled);
        }
    }

    /// Forces buffered WAL appends to disk (one fsync, no-op when clean
    /// or when durability is off).
    ///
    /// # Errors
    ///
    /// Propagates the sync failure; the WAL is then poisoned and every
    /// subsequent mutation fails, so callers must treat an error here as
    /// fail-stop and withhold the tick's acknowledgements.
    pub fn flush_wal(&self) -> io::Result<()> {
        match &self.durability {
            Some(d) => d.flush(),
            None => Ok(()),
        }
    }

    /// Executes one request. Transport errors aside, every failure is
    /// reported in-band as an error body; the response always echoes the
    /// request id.
    ///
    /// With an idempotency key, the dedup lookup happens before anything
    /// else — before even the deadline check — so a retry of an already
    /// acknowledged mutation replays the stored response instead of
    /// re-executing. Only authoritative outcomes (`ok` and `bad_request`)
    /// are stored; transient failures (`overloaded`, `deadline_exceeded`,
    /// `internal`, `shutting_down`) leave the slot empty for the retry.
    ///
    /// # Panics
    ///
    /// Only under an armed fault plan (injected handler panics); the
    /// server's workers catch those and answer in-band.
    pub fn handle(&self, req: &Request, deadline: &Deadline) -> Response {
        // A fresh scope per call coalesces nothing: strictly serial
        // behavior, and the oracle the batched path is tested against.
        self.handle_batched(req, deadline, &mut BatchScope::new())
    }

    /// As [`Engine::handle`], coalescing same-fingerprint `price` and
    /// `recommend` computations through `scope`. The sharded core passes
    /// one scope per event-loop tick; results are bit-identical to calling
    /// [`Engine::handle`] once per request (see [`BatchScope`]).
    pub fn handle_batched(
        &self,
        req: &Request,
        deadline: &Deadline,
        scope: &mut BatchScope,
    ) -> Response {
        let resp = match req.idempotency_key.as_deref().filter(|k| !k.is_empty()) {
            None => self.execute(req, deadline, scope),
            Some(key) => {
                let slot = self.claim_slot(key);
                let mut slot = slot.lock();
                match slot.as_ref() {
                    Some(stored) => {
                        self.registry.record_deduplicated();
                        let mut resp = stored.clone();
                        resp.id = req.id;
                        resp.deduplicated = true;
                        resp
                    }
                    None => {
                        let resp = self.execute(req, deadline, scope);
                        if is_authoritative(&resp) {
                            self.registry.record_idempotency_stored();
                            *slot = Some(resp.clone());
                            // A committed drift already logged its response
                            // atomically with the session mutation. Every
                            // other authoritative response is logged
                            // best-effort: losing one costs a re-execution
                            // of a side-effect-free request, never state.
                            if req.endpoint != "drift" || !resp.ok {
                                if let Some(d) = &self.durability {
                                    let _ = d.append(&LogEntry {
                                        drift: None,
                                        idempotency: Some(IdemSnapshot {
                                            key: key.to_string(),
                                            response: resp.clone(),
                                        }),
                                        recluster: None,
                                    });
                                }
                            }
                        }
                        resp
                    }
                }
            }
        };
        self.maybe_checkpoint();
        resp
    }

    /// The slot for `key`, created empty on first sight. Duplicates of an
    /// in-flight request serialize behind the slot's own mutex, so the map
    /// lock is never held across execution.
    fn claim_slot(&self, key: &str) -> IdempotencySlot {
        let mut map = self.idempotency.lock();
        if map.len() >= IDEMPOTENCY_CAPACITY && !map.contains_key(key) {
            map.clear();
        }
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    /// The stored response for `key`, if an authoritative outcome was
    /// recorded. Lets a client (or the simulation harness) recover the
    /// answer of a request whose response was lost in transit.
    pub fn idempotent_replay(&self, key: &str) -> Option<Response> {
        let slot = {
            let map = self.idempotency.lock();
            Arc::clone(map.get(key)?)
        };
        let slot = slot.lock();
        slot.clone()
    }

    /// `(workload version, class probabilities)` of a drift session, for
    /// state-equivalence checks. `None` for unknown sessions.
    pub fn session_state(&self, name: &str) -> Option<(u64, Vec<f64>)> {
        let session = self.sessions.get(name)?;
        let session = session.lock();
        Some((
            session.versioned.version(),
            session.versioned.workload().probs().to_vec(),
        ))
    }

    fn execute(&self, req: &Request, deadline: &Deadline, scope: &mut BatchScope) -> Response {
        if let Some(plan) = &self.fault {
            plan.perturb(request_token(
                &req.endpoint,
                req.id,
                req.idempotency_key.as_deref(),
            ));
        }
        let result = match req.endpoint.as_str() {
            "recommend" => self.recommend(req, deadline, scope),
            "price" => self.price(req, deadline, scope),
            "drift" => self.drift(req, deadline),
            "explain" => self.explain(req, deadline),
            "recluster" => self.recluster_start(req, deadline),
            "recluster_status" => self.recluster_status(req),
            "recluster_abort" => self.recluster_abort(req),
            "stats" => self.stats(req),
            "ping" => Ok(Response::ok(req.id)),
            other => Err(ServiceError::BadRequest(format!(
                "unknown endpoint `{other}`"
            ))),
        };
        match result {
            Ok(resp) => resp,
            Err(e) => Response::err(req.id, e.to_body()),
        }
    }

    /// The request's schema, its class lattice, and its workload over it.
    fn parse_inputs(
        &self,
        req: &Request,
    ) -> Result<(StarSchema, LatticeShape, Workload), ServiceError> {
        let schema = admit_schema(
            req.schema_spec()
                .cloned()
                .ok_or_else(|| ServiceError::BadRequest("`schema` is required".into()))?,
        )?;
        let shape = LatticeShape::of_schema(&schema);
        let workload = req
            .workload_spec()
            .cloned()
            .ok_or_else(|| ServiceError::BadRequest("`workload` is required".into()))?
            .build(&shape)?;
        Ok((schema, shape, workload))
    }

    fn recommend(
        &self,
        req: &Request,
        deadline: &Deadline,
        scope: &mut BatchScope,
    ) -> Result<Response, ServiceError> {
        let (schema, _, workload) = self.parse_inputs(req)?;
        bounded_recommend(&schema)?;
        deadline.check()?;
        let key = RecommendKey {
            schema: schema.fingerprint(),
            probs: workload.probs().iter().map(|p| p.to_bits()).collect(),
        };
        let body = match scope.recommendations.get_mut(&key) {
            Some(memo) => {
                // Same tick, same inputs: the recommendation is a pure
                // function of (schema, workload), so the fan-out clones
                // the leader's body — byte-identical to recomputing it.
                self.registry.record_batch_follower(&mut memo.counted);
                memo.value.clone()
            }
            None => {
                let model = CostModel::of_schema(&schema);
                let rec = recommend_with_model(&model, &workload);
                let body = recommendation_body(&rec);
                scope.recommendations.insert(
                    key,
                    Memoized {
                        value: body.clone(),
                        counted: false,
                    },
                );
                body
            }
        };
        Ok(Response {
            recommendation: Some(body),
            ..Response::ok(req.id)
        })
    }

    fn price(
        &self,
        req: &Request,
        deadline: &Deadline,
        scope: &mut BatchScope,
    ) -> Result<Response, ServiceError> {
        let (schema, shape, workload) = self.parse_inputs(req)?;
        let strategy = req
            .strategy_spec()
            .ok_or_else(|| ServiceError::BadRequest("`strategy` is required".into()))?;
        let cells = bounded_cells(&schema)?;
        let (lazy, id, label) = resolve_strategy(&schema, shape, strategy)?;
        deadline.check()?;
        let fingerprint = schema.fingerprint();
        let key = PriceKey {
            schema: fingerprint,
            strategy: id,
            probs: workload.probs().iter().map(|p| p.to_bits()).collect(),
        };
        let (expected_cost, cache_hit) = match scope.prices.get_mut(&key) {
            Some(memo) => {
                // A same-tick leader already ran this exact dot product.
                // Serially, this request would hit the signature cache and
                // recompute the identical product over identical bits, so
                // replaying (leader cost, cache_hit: true) is bit-exact.
                self.registry.record_batch_follower(&mut memo.counted);
                (memo.value, true)
            }
            None => {
                let (cost, hit) = {
                    let mut cache = self.signatures.lock();
                    let hits_before = cache.hits();
                    // The curve is built only on a `hilbert` miss: hits and
                    // lattice-path misses (closed form) never walk the grid.
                    let table = cache.get_or_compute_fingerprinted(
                        &schema,
                        fingerprint,
                        &key.strategy,
                        || lazy.build(&schema),
                    );
                    (table.expected_cost(&workload), cache.hits() > hits_before)
                };
                scope.prices.insert(
                    key,
                    Memoized {
                        value: cost,
                        counted: false,
                    },
                );
                (cost, hit)
            }
        };
        deadline.check()?;
        let measured = match req.measure_spec() {
            None => None,
            Some(m) => {
                let curve = lazy.build(&schema);
                if m.records_per_cell == 0 || m.page_size == 0 || m.record_size == 0 {
                    return Err(ServiceError::BadRequest(
                        "`measure` fields must be positive".into(),
                    ));
                }
                let data = CellData::from_counts(
                    schema.grid_shape(),
                    vec![m.records_per_cell; cells as usize],
                );
                let config = StorageConfig {
                    page_size: m.page_size,
                    record_size: m.record_size,
                };
                deadline.check()?;
                let stats = if m.physical {
                    // Measure through the real paged engine: bulk-load an
                    // in-memory table and scan every query through its
                    // buffer pool. Bit-identical to the analytic memo
                    // (tests/storage_differential.rs proves it), but the
                    // pool's physical counters feed `stats.storage`.
                    let bytes = cells
                        .checked_mul(m.records_per_cell)
                        .and_then(|r| r.checked_mul(m.record_size))
                        .ok_or_else(|| {
                            ServiceError::BadRequest("`measure` sizes overflow".into())
                        })?;
                    if bytes > MAX_PHYSICAL_BYTES {
                        return Err(ServiceError::BadRequest(format!(
                            "physical measurement would pack {bytes} record bytes; \
                             capped at {MAX_PHYSICAL_BYTES}"
                        )));
                    }
                    let record = vec![0u8; m.record_size as usize];
                    let mut table =
                        TableFile::create_in_memory(&curve, &data, config, |_, _| record.clone())?;
                    let stats = table.workload_stats(&schema, &curve, &workload)?;
                    self.measure_pool.lock().absorb(table.pool_stats());
                    stats
                } else {
                    let layout = PackedLayout::pack(&curve, &data, config);
                    let eval = req.eval_opts().copied().unwrap_or_default();
                    self.memo
                        .workload_stats(&schema, &curve, &layout, &workload, eval.engine)
                };
                Some(MeasuredBody {
                    avg_seeks: stats.avg_seeks,
                    avg_normalized_blocks: stats.avg_normalized_blocks,
                })
            }
        };
        Ok(Response {
            price: Some(PriceBody {
                strategy: label,
                expected_cost,
                cache_hit,
                measured,
            }),
            ..Response::ok(req.id)
        })
    }

    fn drift(&self, req: &Request, deadline: &Deadline) -> Result<Response, ServiceError> {
        let name = req
            .session
            .clone()
            .ok_or_else(|| ServiceError::BadRequest("`session` is required".into()))?;
        let session = {
            let mut stripe = self.sessions.stripe(&name).lock();
            match stripe.get(&name) {
                Some(s) => Arc::clone(s),
                None => {
                    let (schema, _, workload) = self.parse_inputs(req).map_err(|e| {
                        ServiceError::BadRequest(format!(
                            "session `{name}` does not exist and cannot be created: {e}"
                        ))
                    })?;
                    let model = CostModel::of_schema(&schema);
                    let s = Arc::new(Mutex::new(DriftSession {
                        schema_fingerprint: schema.fingerprint(),
                        schema_spec: SchemaSpec::of(&schema),
                        versioned: VersionedWorkload::new(workload),
                        dp: IncrementalDp::new(model),
                        layout_path: None,
                        trigger: None,
                    }));
                    stripe.insert(name.clone(), Arc::clone(&s));
                    s
                }
            }
        };
        let mut session = session.lock();
        if let Some(spec) = req.schema_spec() {
            // A schema on a follow-up call must agree with the session's.
            let schema = admit_schema(spec.clone())?;
            if schema.fingerprint() != session.schema_fingerprint {
                return Err(ServiceError::BadRequest(format!(
                    "session `{name}` was created for a different schema"
                )));
            }
        }
        deadline.check()?;
        // Coalesce: apply every delta (each bumps the version), then
        // re-optimize once, on the final distribution. The deltas are
        // applied to a scratch copy and committed only if every one is
        // valid — and no fallible check (deadline included) runs after the
        // commit — so a request mutates the session exactly-wholly or
        // not at all. That atomicity is what makes an idempotent retry of
        // an acknowledged `drift` apply its deltas exactly once.
        let deltas = req.deltas.as_deref().unwrap_or(&[]);
        let mut scratch = session.versioned.clone();
        let mut drift_tv = 0.0;
        for spec in deltas {
            let delta = WorkloadDelta::new(spec.updates.clone())?;
            drift_tv += scratch.apply(&delta)?;
        }
        let workload = scratch.workload().clone();
        let outcome = session.dp.reoptimize(&workload);
        let resp = Response {
            drift: Some(DriftBody {
                session: name.clone(),
                version: scratch.version(),
                coalesced: deltas.len(),
                drift_tv,
                path_dims: outcome.path.dims().to_vec(),
                path: outcome.path.to_string(),
                cost: outcome.cost,
                reused: outcome.reused,
                shift_bound: outcome.shift_bound,
                gap: outcome.gap,
            }),
            ..Response::ok(req.id)
        };
        // Log before commit: the after-state snapshot — and, when the
        // request carries an idempotency key, the response acknowledging
        // it, in the same atomic entry — must be durable before the
        // session mutates. A WAL failure aborts the request with the
        // session untouched, so durable state never trails acknowledged
        // state.
        if let Some(d) = &self.durability {
            d.append(&LogEntry {
                drift: Some(SessionSnapshot {
                    name: name.clone(),
                    schema: session.schema_spec.clone(),
                    version: scratch.version(),
                    probs: scratch.workload().probs().to_vec(),
                }),
                idempotency: req
                    .idempotency_key
                    .as_ref()
                    .filter(|k| !k.is_empty())
                    .map(|key| IdemSnapshot {
                        key: key.clone(),
                        response: resp.clone(),
                    }),
                recluster: None,
            })?;
        }
        session.versioned = scratch;
        // Committed: feed the auto-recluster trigger (advisory — it can
        // start a migration job, never fail the drift).
        self.maybe_auto_recluster(&name, &mut session, &workload, &outcome.path);
        Ok(resp)
    }

    /// Runs the reorg cost/benefit analysis for a committed drift and
    /// starts an `auto:<session>` migration job once the trigger fires.
    fn maybe_auto_recluster(
        &self,
        name: &str,
        session: &mut DriftSession,
        workload: &Workload,
        optimal: &LatticePath,
    ) {
        let Some(cfg) = self.auto_recluster.as_ref() else {
            return;
        };
        // The first commit pins the baseline: the session's table is
        // assumed clustered by what the advisor recommended then.
        let Some(current) = session.layout_path.clone() else {
            session.layout_path = Some(optimal.clone());
            return;
        };
        let decision = {
            let model = session.dp.model();
            // One-time reorganization cost in the model's seek units:
            // read + write every page of the configured geometry.
            let m = &cfg.measure;
            let records = session
                .schema_spec
                .clone()
                .build()
                .map(|s| s.num_cells())
                .unwrap_or(0)
                .saturating_mul(m.records_per_cell);
            let pages = records
                .saturating_mul(m.record_size)
                .div_ceil(m.page_size.max(1));
            reorg_decision(model, &current, workload, 2.0 * pages as f64)
        };
        let trigger = session.trigger.get_or_insert_with(|| {
            ReclusterTrigger::new(cfg.min_signals, cfg.horizon_queries, cfg.cooldown)
        });
        if !trigger.observe(&decision) {
            return;
        }
        let snap = ReclusterSnapshot {
            job: format!("auto:{name}"),
            schema: session.schema_spec.clone(),
            from: StrategySpec::snaked_path(current.dims().to_vec()),
            to: StrategySpec::snaked_path(decision.new_path.dims().to_vec()),
            measure: cfg.measure.clone(),
            chunk_pages: cfg.chunk_pages,
            fence: 0,
            state: "running".into(),
            chunks_applied: 0,
            records_moved: 0,
            probes: 0,
        };
        if self.start_job(snap, Some(name.to_string())).is_ok() {
            session
                .trigger
                .as_mut()
                .expect("armed above")
                .note_started();
            self.recluster_counters
                .auto_triggers
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn explain(&self, req: &Request, deadline: &Deadline) -> Result<Response, ServiceError> {
        let (schema, _, workload) = self.parse_inputs(req)?;
        let model = CostModel::of_schema(&schema);
        deadline.check()?;
        let path = match req.strategy_spec() {
            Some(s) => {
                let dims = s.dims.clone().ok_or_else(|| {
                    ServiceError::BadRequest("`explain` strategies must carry `dims`".into())
                })?;
                LatticePath::from_dims(model.shape().clone(), dims)?
            }
            None => snakes_core::dp::optimal_lattice_path(&model, &workload).path,
        };
        let explanation = snakes_core::explain::explain(&model, &path, &workload);
        Ok(Response {
            explanation: Some(explanation),
            ..Response::ok(req.id)
        })
    }

    // -- Online reclustering ------------------------------------------------

    /// The job handle for `name`.
    fn recluster_job(&self, name: &str) -> Option<Arc<Mutex<ReclusterJob>>> {
        self.reclusters.lock().get(name).map(Arc::clone)
    }

    /// Appends a job's durable after-state to the WAL (no-op in-memory).
    fn log_recluster(&self, snap: ReclusterSnapshot) -> io::Result<()> {
        match &self.durability {
            Some(d) => d
                .append(&LogEntry {
                    recluster: Some(snap),
                    ..LogEntry::default()
                })
                .map(|_lsn| ()),
            None => Ok(()),
        }
    }

    /// Builds and registers a job, durable before it is acknowledged.
    fn start_job(
        &self,
        snap: ReclusterSnapshot,
        notify: Option<String>,
    ) -> Result<ReclusterBody, ServiceError> {
        let mut job = build_job(snap)?;
        job.notify_session = notify;
        let body = job.body();
        self.log_recluster(job.snap.clone())?;
        self.reclusters
            .lock()
            .insert(job.snap.job.clone(), Arc::new(Mutex::new(job)));
        self.recluster_counters
            .jobs_started
            .fetch_add(1, Ordering::Relaxed);
        Ok(body)
    }

    /// `recluster`: starts a migration job (or reports an already-running
    /// one — starts are idempotent by job name).
    fn recluster_start(
        &self,
        req: &Request,
        deadline: &Deadline,
    ) -> Result<Response, ServiceError> {
        let name = req
            .session
            .clone()
            .ok_or_else(|| ServiceError::BadRequest("`session` names the recluster job".into()))?;
        deadline.check()?;
        let prev: Option<ReclusterSnapshot> = match self.recluster_job(&name) {
            Some(job) => {
                let job = job.lock();
                if job.snap.state == "running" {
                    return Ok(Response {
                        recluster: Some(job.body()),
                        ..Response::ok(req.id)
                    });
                }
                Some(job.snap.clone())
            }
            None => None,
        };
        let spec = req.recluster.clone().unwrap_or_default();
        let schema_spec = req
            .schema_spec()
            .cloned()
            .or_else(|| prev.as_ref().map(|p| p.schema.clone()))
            .ok_or_else(|| ServiceError::BadRequest("`schema` is required".into()))?;
        // A restarted job continues from the layout its predecessor left
        // behind; a brand-new job must say what is on disk.
        let from = spec
            .from
            .or_else(|| prev.as_ref().map(|p| p.to.clone()))
            .ok_or_else(|| {
                ServiceError::BadRequest("`recluster.from` is required for a new job".into())
            })?;
        let to = match spec.to.or_else(|| req.strategy_spec().cloned()) {
            Some(t) => t,
            None => {
                // Default target: the advisor's recommendation for the
                // posted workload.
                let schema = admit_schema(schema_spec.clone())?;
                bounded_recommend(&schema)?;
                let shape = LatticeShape::of_schema(&schema);
                let workload = req
                    .workload_spec()
                    .cloned()
                    .ok_or_else(|| {
                        ServiceError::BadRequest(
                            "`recluster.to`, `strategy`, or a `workload` to recommend from \
                             is required"
                                .into(),
                        )
                    })?
                    .build(&shape)?;
                deadline.check()?;
                let model = CostModel::of_schema(&schema);
                let rec = recommend_with_model(&model, &workload);
                StrategySpec::snaked_path(rec.optimal_path.dims().to_vec())
            }
        };
        let measure = req.measure_spec().cloned().unwrap_or_default();
        deadline.check()?;
        let snap = ReclusterSnapshot {
            job: name,
            schema: schema_spec,
            from,
            to,
            measure,
            chunk_pages: spec.chunk_pages,
            fence: 0,
            state: "running".into(),
            chunks_applied: 0,
            records_moved: 0,
            probes: 0,
        };
        let body = self.start_job(snap, None)?;
        Ok(Response {
            recluster: Some(body),
            ..Response::ok(req.id)
        })
    }

    /// `recluster_status`: progress of a known job.
    fn recluster_status(&self, req: &Request) -> Result<Response, ServiceError> {
        let name = req
            .session
            .as_deref()
            .ok_or_else(|| ServiceError::BadRequest("`session` names the recluster job".into()))?;
        let job = self
            .recluster_job(name)
            .ok_or_else(|| ServiceError::BadRequest(format!("unknown recluster job `{name}`")))?;
        let body = job.lock().body();
        Ok(Response {
            recluster: Some(body),
            ..Response::ok(req.id)
        })
    }

    /// `recluster_abort`: stops a running job. The old layout stays
    /// authoritative — the fence-split executor never served a cell from
    /// the new file that the old file does not also hold.
    fn recluster_abort(&self, req: &Request) -> Result<Response, ServiceError> {
        let name = req
            .session
            .as_deref()
            .ok_or_else(|| ServiceError::BadRequest("`session` names the recluster job".into()))?;
        let job = self
            .recluster_job(name)
            .ok_or_else(|| ServiceError::BadRequest(format!("unknown recluster job `{name}`")))?;
        let mut job = job.lock();
        if job.snap.state == "running" {
            job.running = None;
            job.snap.state = "aborted".into();
            self.log_recluster(job.snap.clone())?;
            self.recluster_counters
                .jobs_aborted
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(Response {
            recluster: Some(job.body()),
            ..Response::ok(req.id)
        })
    }

    /// Advances every running job owned by `stripe` (of `stripes`) one
    /// bounded chunk: copy `chunk_pages` pages, differentially probe the
    /// mixed-layout executor, and log the new fence. Returns how many
    /// jobs stepped. Shards call this once per event-loop tick with their
    /// own index (one chunk per tick bounds the serving-latency impact);
    /// the blocking core calls it with `(0, 1)` after each request.
    pub fn tick_reclusters(&self, stripe: usize, stripes: usize) -> usize {
        let owned: Vec<Arc<Mutex<ReclusterJob>>> = {
            let map = self.reclusters.lock();
            map.iter()
                .filter(|(name, _)| stripes <= 1 || session_shard(name, stripes) == stripe)
                .map(|(_, job)| Arc::clone(job))
                .collect()
        };
        let mut stepped = 0;
        for job in owned {
            let mut job = job.lock();
            if job.snap.state != "running" {
                continue;
            }
            match self.advance(&mut job) {
                Ok(()) => stepped += 1,
                Err(_) => {
                    // The in-memory paged engine failing is effectively
                    // unreachable; fail the job loudly rather than wedge
                    // the tick.
                    job.running = None;
                    job.snap.state = "aborted".into();
                    self.recluster_counters
                        .jobs_aborted
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = self.log_recluster(job.snap.clone());
                }
            }
        }
        if stepped > 0 {
            self.maybe_checkpoint();
        }
        stepped
    }

    /// One chunk of one running job: step, probe, persist, finish.
    fn advance(&self, job: &mut ReclusterJob) -> io::Result<()> {
        let running = job.running.as_mut().expect("running job");
        let report = running
            .migration
            .step(&running.old_curve, &running.new_curve)?;
        running.probe()?;
        job.snap.fence = report.fence;
        job.snap.chunks_applied += 1;
        job.snap.records_moved += report.records_moved;
        job.snap.probes += 1;
        let c = &self.recluster_counters;
        c.chunks_applied.fetch_add(1, Ordering::Relaxed);
        c.records_moved
            .fetch_add(report.records_moved, Ordering::Relaxed);
        c.probes.fetch_add(1, Ordering::Relaxed);
        if report.done {
            job.snap.state = "done".into();
            let RunningJob {
                migration,
                new_curve,
                cells,
                ..
            } = job.running.take().expect("running job");
            // Land the new layout (validates the packed file opens clean).
            let _ = migration.finish(&new_curve, &cells)?;
            c.jobs_completed.fetch_add(1, Ordering::Relaxed);
            self.notify_layout_change(job);
        }
        // Durable fence advance; under group commit the shard's tick
        // flush amortizes the fsync.
        self.log_recluster(job.snap.clone())
    }

    /// Advances the owning drift session's assumed layout once an
    /// auto-triggered migration lands.
    fn notify_layout_change(&self, job: &ReclusterJob) {
        let Some(name) = &job.notify_session else {
            return;
        };
        let Some(dims) = &job.snap.to.dims else {
            return;
        };
        let Some(session) = self.sessions.get(name) else {
            return;
        };
        let mut session = session.lock();
        let shape = session.dp.model().shape().clone();
        if let Ok(path) = LatticePath::from_dims(shape, dims.clone()) {
            session.layout_path = Some(path);
        }
    }

    fn recluster_stats_body(&self) -> ReclusterStatsBody {
        let jobs: Vec<Arc<Mutex<ReclusterJob>>> =
            self.reclusters.lock().values().map(Arc::clone).collect();
        let active = jobs
            .iter()
            .filter(|j| j.lock().snap.state == "running")
            .count() as u64;
        let c = &self.recluster_counters;
        ReclusterStatsBody {
            jobs_started: c.jobs_started.load(Ordering::Relaxed),
            jobs_completed: c.jobs_completed.load(Ordering::Relaxed),
            jobs_aborted: c.jobs_aborted.load(Ordering::Relaxed),
            jobs_recovered: c.jobs_recovered.load(Ordering::Relaxed),
            active,
            chunks_applied: c.chunks_applied.load(Ordering::Relaxed),
            records_moved: c.records_moved.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            auto_triggers: c.auto_triggers.load(Ordering::Relaxed),
        }
    }

    fn stats(&self, req: &Request) -> Result<Response, ServiceError> {
        Ok(Response {
            stats: Some(self.stats_body()),
            ..Response::ok(req.id)
        })
    }

    /// The current `stats` payload (also used by the serve ticker).
    pub fn stats_body(&self) -> StatsBody {
        let signature_cache = {
            let cache = self.signatures.lock();
            CacheStatsBody {
                hits: cache.hits(),
                misses: cache.misses(),
                entries: cache.len() as u64,
            }
        };
        StatsBody {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            queue_depth: self
                .registry
                .queue_depth
                .load(std::sync::atomic::Ordering::Relaxed),
            sessions: self.sessions.len() as u64,
            signature_cache,
            cost_memo: CacheStatsBody {
                hits: self.memo.hits(),
                misses: self.memo.misses(),
                entries: self.memo.len() as u64,
            },
            endpoints: self.registry.to_bodies(),
            idempotency: CacheStatsBody {
                hits: self
                    .registry
                    .deduplicated
                    .load(std::sync::atomic::Ordering::Relaxed),
                misses: self
                    .registry
                    .idempotency_stored
                    .load(std::sync::atomic::Ordering::Relaxed),
                entries: self.idempotency.lock().len() as u64,
            },
            panics_caught: self
                .registry
                .panics_caught
                .load(std::sync::atomic::Ordering::Relaxed),
            batching: self.registry.batching_body(),
            storage: self.storage_stats_body(),
            aggregation: aggregation_stats_body(),
            recluster: self.recluster_stats_body(),
        }
    }

    fn storage_stats_body(&self) -> StorageStatsBody {
        let pool = *self.measure_pool.lock();
        let mut body = StorageStatsBody {
            enabled: self.durability.is_some(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_hit_rate: pool.hit_rate(),
            pool_evictions: pool.evictions,
            physical_reads: pool.physical_reads,
            physical_writes: pool.physical_writes,
            ..StorageStatsBody::default()
        };
        if let Some(d) = &self.durability {
            let wal = d.wal.lock();
            body.wal_bytes = wal.bytes();
            body.wal_entries = wal.entries();
            body.checkpoints = d.checkpoints.load(Ordering::Relaxed);
            body.recoveries = d.recoveries;
            body.recovered_sessions = d.recovered_sessions;
        }
        body
    }

    /// Checkpoints opportunistically once enough WAL entries accumulated.
    fn maybe_checkpoint(&self) {
        if let Some(d) = &self.durability {
            if d.should_checkpoint() {
                // Best-effort: a failed or contended round leaves the old
                // checkpoint and the full log authoritative, and the next
                // request retries.
                let _ = self.checkpoint();
            }
        }
    }

    /// Folds the whole engine state into a fresh checkpoint and truncates
    /// the WAL. Returns `Ok(false)` without durability, or when a
    /// concurrent request held a session or idempotency slot (the round
    /// aborts rather than risk snapshotting a half-committed mutation —
    /// drift commits hold their session lock across the WAL append, so
    /// all-locks-acquired implies every logged entry is also committed).
    ///
    /// # Errors
    ///
    /// Propagates media/WAL errors; on failure nothing was truncated.
    pub fn checkpoint(&self) -> io::Result<bool> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        // WAL lock first: stalls new appends for the duration; the
        // session try-locks below never block, so no deadlock with
        // drift's session-then-WAL order.
        let mut wal = d.wal.lock();
        let handles: Vec<(String, Arc<Mutex<DriftSession>>)> = self.sessions.handles();
        let mut snaps = Vec::with_capacity(handles.len());
        for (name, session) in &handles {
            let Some(session) = session.try_lock() else {
                return Ok(false);
            };
            snaps.push(SessionSnapshot {
                name: name.clone(),
                schema: session.schema_spec.clone(),
                version: session.versioned.version(),
                probs: session.versioned.workload().probs().to_vec(),
            });
        }
        let slots: Vec<(String, IdempotencySlot)> = {
            let map = self.idempotency.lock();
            map.iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let mut idem = Vec::with_capacity(slots.len());
        for (key, slot) in &slots {
            let Some(slot) = slot.try_lock() else {
                return Ok(false);
            };
            if let Some(resp) = slot.as_ref() {
                idem.push(IdemSnapshot {
                    key: key.clone(),
                    response: resp.clone(),
                });
            }
        }
        let jobs: Vec<(String, Arc<Mutex<ReclusterJob>>)> = {
            let map = self.reclusters.lock();
            map.iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let mut reclusters = Vec::with_capacity(jobs.len());
        for (_, job) in &jobs {
            let Some(job) = job.try_lock() else {
                return Ok(false);
            };
            reclusters.push(job.snap.clone());
        }
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        idem.sort_by(|a, b| a.key.cmp(&b.key));
        reclusters.sort_by(|a, b| a.job.cmp(&b.job));
        let ckpt = Checkpoint {
            next_lsn: wal.next_lsn(),
            sessions: snaps,
            idempotency: idem,
            reclusters,
        };
        d.install_checkpoint(&mut wal, &ckpt)?;
        Ok(true)
    }
}

/// Aggregation-kernel counters for the `stats` payload. The underlying
/// metrics registry is process-global (shared with every engine in the
/// process), matching how phase timings are collected elsewhere.
fn aggregation_stats_body() -> AggregationStatsBody {
    let m = snakes_core::parallel::metrics::snapshot();
    AggregationStatsBody {
        walks_blocked: m.agg_walks_blocked,
        walks_scalar: m.agg_walks_scalar,
        walks_parallel: m.agg_walks_parallel,
        edges: m.agg_edges,
        decode_nanos: m.agg_decode_nanos,
        count_nanos: m.agg_count_nanos,
        prefix_nanos: m.agg_prefix_nanos,
    }
}

/// Whether a response settles its request for good. Authoritative
/// outcomes are cached under the idempotency key; transient ones
/// (shedding, deadlines, panics, drains) must stay uncached so a retry
/// re-executes.
fn is_authoritative(resp: &Response) -> bool {
    resp.ok || resp.error.as_ref().is_some_and(|e| e.code == "bad_request")
}

/// An owned linearization over a schema's grid: the two families the wire
/// protocol can name.
pub(crate) enum WireCurve {
    Path(snakes_curves::nested::NestedLoops),
    Hilbert(CompactHilbert),
}

impl Linearization for WireCurve {
    fn extents(&self) -> &[u64] {
        match self {
            WireCurve::Path(c) => c.extents(),
            WireCurve::Hilbert(c) => c.extents(),
        }
    }
    fn rank(&self, coords: &[u64]) -> u64 {
        match self {
            WireCurve::Path(c) => c.rank(coords),
            WireCurve::Hilbert(c) => c.rank(coords),
        }
    }
    fn coords(&self, rank: u64, out: &mut [u64]) {
        match self {
            WireCurve::Path(c) => c.coords(rank, out),
            WireCurve::Hilbert(c) => c.coords(rank, out),
        }
    }
    fn coords_block(&self, start: u64, len: usize, out: &mut snakes_curves::CoordsBlock) {
        // Forwarded so the blocked aggregation kernel sees the concrete
        // curve's incremental decoder, not the generic per-rank default.
        match self {
            WireCurve::Path(c) => c.coords_block(start, len, out),
            WireCurve::Hilbert(c) => c.coords_block(start, len, out),
        }
    }
    fn rank_runs(&self, ranges: &[std::ops::Range<u64>], sink: &mut dyn FnMut(u64, u64)) {
        match self {
            WireCurve::Path(c) => c.rank_runs(ranges, sink),
            WireCurve::Hilbert(c) => c.rank_runs(ranges, sink),
        }
    }
    fn has_structural_runs(&self) -> bool {
        match self {
            WireCurve::Path(c) => c.has_structural_runs(),
            WireCurve::Hilbert(c) => c.has_structural_runs(),
        }
    }
}

/// A validated strategy whose grid walk has not been materialized yet.
/// Curve construction enumerates the whole grid — deferring it lets the
/// pricing fast path (signature-cache hits and same-tick batch followers)
/// skip it entirely.
pub(crate) enum LazyCurve {
    Path { path: LatticePath, snaked: bool },
    Hilbert,
}

impl LazyCurve {
    /// Materializes the linearization (the expensive step).
    pub(crate) fn build(&self, schema: &StarSchema) -> WireCurve {
        match self {
            LazyCurve::Path { path, snaked } => WireCurve::Path(if *snaked {
                snaked_path_curve(schema, path)
            } else {
                path_curve(schema, path)
            }),
            LazyCurve::Hilbert => WireCurve::Hilbert(CompactHilbert::new(schema.grid_shape())),
        }
    }
}

/// The schema's cell count, or `bad_request` if it exceeds
/// [`MAX_MEASURE_CELLS`] (or `u64`). Multiplies the fanouts with overflow
/// checks, so it is safe to call before `grid_shape`, whose per-dimension
/// products are unchecked.
pub(crate) fn bounded_cells(schema: &StarSchema) -> Result<u64, ServiceError> {
    let cells = schema
        .dims()
        .iter()
        .flat_map(|h| h.fanouts())
        .try_fold(1u64, |acc, &f| acc.checked_mul(f));
    match cells {
        Some(cells) if cells <= MAX_MEASURE_CELLS => Ok(cells),
        _ => Err(ServiceError::BadRequest(format!(
            "grid has {} cells; requests are capped at {MAX_MEASURE_CELLS}",
            cells.map_or_else(|| "over 2^64".to_string(), |c| c.to_string())
        ))),
    }
}

/// Builds a request's schema and checks its class lattice against
/// [`MAX_CLASSES`] before anything sized by it is allocated.
pub(crate) fn admit_schema(spec: SchemaSpec) -> Result<StarSchema, ServiceError> {
    let schema = spec.build()?;
    let classes = schema
        .levels()
        .iter()
        .try_fold(1u64, |acc, &l| acc.checked_mul(l as u64 + 1));
    match classes {
        Some(classes) if classes <= MAX_CLASSES => Ok(schema),
        _ => Err(ServiceError::BadRequest(format!(
            "lattice has {} classes; requests are capped at {MAX_CLASSES}",
            classes.map_or_else(|| "over 2^64".to_string(), |c| c.to_string())
        ))),
    }
}

/// Refuses a `recommend` whose `k! · |L| · Σℓ_d` exceeds
/// [`MAX_RECOMMEND_UNITS`]. Call after [`admit_schema`], which bounds
/// `|L|`.
fn bounded_recommend(schema: &StarSchema) -> Result<(), ServiceError> {
    let levels = schema.levels();
    let classes = LatticeShape::of_schema(schema).num_classes() as u64;
    let units = (1..=levels.len() as u64)
        .try_fold(1u64, |acc, i| acc.checked_mul(i))
        .and_then(|fact| fact.checked_mul(classes))
        .and_then(|u| u.checked_mul(levels.iter().sum::<usize>() as u64));
    match units {
        Some(units) if units <= MAX_RECOMMEND_UNITS => Ok(()),
        _ => Err(ServiceError::BadRequest(format!(
            "recommend on k = {} dimensions and {classes} classes costs {} units \
             (k!·|L|·Σℓ); requests are capped at {MAX_RECOMMEND_UNITS}",
            levels.len(),
            units.map_or_else(|| "over 2^64".to_string(), |u| u.to_string())
        ))),
    }
}

/// Validates a strategy against `schema`, whose class lattice is `shape`,
/// without building its curve. A `hilbert` strategy is refused here if its
/// padded cube needs more than 63 rank bits, so it never reaches a shard's
/// curve build.
pub(crate) fn resolve_strategy(
    schema: &StarSchema,
    shape: LatticeShape,
    spec: &StrategySpec,
) -> Result<(LazyCurve, StrategyId, String), ServiceError> {
    match (&spec.dims, spec.kind.as_deref()) {
        (Some(dims), None) => {
            let path = LatticePath::from_dims(shape, dims.clone())?;
            let label = if spec.snaked {
                format!("{path} (snaked)")
            } else {
                path.to_string()
            };
            Ok((
                LazyCurve::Path {
                    path,
                    snaked: spec.snaked,
                },
                StrategyId::Path {
                    dims: dims.clone(),
                    snaked: spec.snaked,
                },
                label,
            ))
        }
        (None, Some("hilbert")) => {
            CompactHilbert::check_extents(&schema.grid_shape())
                .map_err(|e| ServiceError::BadRequest(format!("strategy `hilbert`: {e}")))?;
            Ok((
                LazyCurve::Hilbert,
                StrategyId::Named("hilbert".into()),
                "hilbert".into(),
            ))
        }
        (None, Some(other)) => Err(ServiceError::BadRequest(format!(
            "unknown strategy kind `{other}`"
        ))),
        (Some(_), Some(_)) => Err(ServiceError::BadRequest(
            "give either `dims` or `kind`, not both".into(),
        )),
        (None, None) => Err(ServiceError::BadRequest(
            "`strategy` needs `dims` or `kind`".into(),
        )),
    }
}

fn recommendation_body(rec: &Recommendation) -> RecommendationBody {
    RecommendationBody {
        path_dims: rec.optimal_path.dims().to_vec(),
        path: rec.optimal_path.to_string(),
        expected_cost_plain: rec.plain_cost,
        expected_cost_snaked: rec.snaked_cost,
        guarantee_factor: rec.guarantee_factor,
        max_snaking_benefit: rec.max_snaking_benefit,
        row_majors: rec
            .row_majors
            .iter()
            .map(|(order, plain, snaked)| RowMajorBody {
                order_innermost_first: order.clone(),
                cost_plain: *plain,
                cost_snaked: *snaked,
            })
            .collect(),
        savings_vs_worst_row_major: rec.savings_vs_worst_row_major(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DeltaSpec, SchemaSpec, WorkloadSpec};
    use snakes_core::workload::WeightUpdate;

    fn toy_schema() -> SchemaSpec {
        SchemaSpec::of(&StarSchema::paper_toy())
    }

    fn uniform_workload() -> WorkloadSpec {
        let shape = LatticeShape::of_schema(&StarSchema::paper_toy());
        WorkloadSpec::of(&Workload::uniform(shape))
    }

    #[test]
    fn recommend_matches_direct_library_call() {
        let engine = Engine::new();
        let req = Request::recommend(toy_schema(), uniform_workload());
        let resp = engine.handle(&req, &Deadline::none());
        assert!(resp.ok, "{:?}", resp.error);
        let body = resp.recommendation.unwrap();
        let schema = StarSchema::paper_toy();
        let w = Workload::uniform(LatticeShape::of_schema(&schema));
        let direct = snakes_core::advisor::recommend(&schema, &w);
        assert_eq!(body.path_dims, direct.optimal_path.dims().to_vec());
        assert_eq!(
            body.expected_cost_snaked.to_bits(),
            direct.snaked_cost.to_bits()
        );
        assert_eq!(
            body.expected_cost_plain.to_bits(),
            direct.plain_cost.to_bits()
        );
        assert_eq!(body.row_majors.len(), direct.row_majors.len());
    }

    #[test]
    fn price_is_bit_identical_and_caches() {
        let engine = Engine::new();
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let w = Workload::uniform(shape.clone());
        let dims = snakes_core::dp::optimal_lattice_path(&CostModel::of_schema(&schema), &w)
            .path
            .dims()
            .to_vec();
        let req = Request::price(
            toy_schema(),
            uniform_workload(),
            StrategySpec::snaked_path(dims.clone()),
        );
        let first = engine.handle(&req, &Deadline::none());
        assert!(first.ok, "{:?}", first.error);
        let body = first.price.unwrap();
        assert!(!body.cache_hit);
        // Direct: aggregate the same curve, price the same workload.
        let path = LatticePath::from_dims(shape, dims).unwrap();
        let curve = snaked_path_curve(&schema, &path);
        let direct = snakes_curves::aggregate_class_costs(&schema, &curve).expected_cost(&w);
        assert_eq!(body.expected_cost.to_bits(), direct.to_bits());
        // Second identical request hits the shared cache.
        let second = engine.handle(&req, &Deadline::none()).price.unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.expected_cost.to_bits(), direct.to_bits());
    }

    #[test]
    fn price_measures_physically_through_the_memo() {
        let engine = Engine::new();
        let mut req = Request::price(
            toy_schema(),
            uniform_workload(),
            StrategySpec::snaked_path(vec![0, 1, 0, 1]),
        );
        req.measure = Some(crate::protocol::MeasureSpec {
            records_per_cell: 3,
            page_size: 512,
            record_size: 125,
            ..Default::default()
        });
        let resp = engine.handle(&req, &Deadline::none());
        assert!(resp.ok, "{:?}", resp.error);
        let m = resp.price.unwrap().measured.unwrap();
        assert!(m.avg_normalized_blocks >= 1.0);
        assert!(m.avg_seeks >= 1.0);
        let stats = engine.stats_body();
        assert!(stats.cost_memo.misses > 0);
        // Identical measurement: all memo hits, identical numbers.
        let again = engine.handle(&req, &Deadline::none());
        let m2 = again.price.unwrap().measured.unwrap();
        assert_eq!(m2.avg_seeks.to_bits(), m.avg_seeks.to_bits());
        let stats2 = engine.stats_body();
        assert_eq!(stats2.cost_memo.misses, stats.cost_memo.misses);
        assert!(stats2.cost_memo.hits > stats.cost_memo.hits);
    }

    #[test]
    fn drift_session_coalesces_and_warm_restarts() {
        let engine = Engine::new();
        // Irregular weights so no two paths tie and the stability gap is
        // positive (mirrors the core dp warm-restart test).
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let n = shape.num_classes();
        let w = Workload::from_weights(
            shape.clone(),
            (0..n).map(|r| 1.0 + r as f64 * 0.13).collect(),
        )
        .unwrap();
        // Initialize the session.
        let mut init = Request::drift("s1", vec![]);
        init.schema = Some(toy_schema());
        init.workload = Some(crate::protocol::WorkloadSpec::of(&w));
        let r0 = engine.handle(&init, &Deadline::none());
        assert!(r0.ok, "{:?}", r0.error);
        let d0 = r0.drift.unwrap();
        assert_eq!(d0.version, 0);
        assert!(!d0.reused, "first call runs the full DP");
        assert!(
            d0.gap.is_finite() && d0.gap > 0.0,
            "test needs a unique optimum, gap {}",
            d0.gap
        );
        // Two tiny deltas in one request: versions advance by 2, one
        // re-optimization, warm restart — each perturbation far inside
        // the stability radius certified by the gap.
        let model = CostModel::of_schema(&schema);
        let dmax_top = model.len_between(&shape.bottom(), &shape.top());
        let eps = d0.gap / (1000.0 * dmax_top);
        let deltas = vec![
            DeltaSpec {
                updates: vec![WeightUpdate {
                    rank: 0,
                    weight: w.prob_by_rank(0) + eps,
                }],
            },
            DeltaSpec {
                updates: vec![WeightUpdate {
                    rank: 1,
                    weight: w.prob_by_rank(1) + eps / 2.0,
                }],
            },
        ];
        let r1 = engine.handle(&Request::drift("s1", deltas), &Deadline::none());
        let d1 = r1.drift.unwrap();
        assert_eq!(d1.version, 2);
        assert_eq!(d1.coalesced, 2);
        assert!(d1.drift_tv > 0.0);
        assert!(d1.reused, "tiny drift must warm-restart");
        assert_eq!(engine.stats_body().sessions, 1);
        // Unknown session without schema/workload is a bad request.
        let r2 = engine.handle(&Request::drift("nope", vec![]), &Deadline::none());
        assert!(!r2.ok);
        assert_eq!(r2.error.unwrap().code, "bad_request");
    }

    #[test]
    fn explain_names_the_top_contributors() {
        let engine = Engine::new();
        let mut req = Request::new("explain");
        req.schema = Some(toy_schema());
        req.workload = Some(uniform_workload());
        let resp = engine.handle(&req, &Deadline::none());
        assert!(resp.ok, "{:?}", resp.error);
        let e = resp.explanation.unwrap();
        assert!(!e.classes.is_empty());
        assert!(e.snaked_total > 0.0);
    }

    #[test]
    fn expired_deadline_short_circuits() {
        let engine = Engine::new();
        let req = Request::recommend(toy_schema(), uniform_workload());
        let past = Deadline::from_ms(Instant::now() - std::time::Duration::from_secs(1), Some(0));
        let resp = engine.handle(&req, &past);
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().code, "deadline_exceeded");
    }

    #[test]
    fn bad_requests_are_reported_in_band() {
        let engine = Engine::new();
        let resp = engine.handle(&Request::new("frobnicate"), &Deadline::none());
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().code, "bad_request");
        let resp = engine.handle(&Request::new("price"), &Deadline::none());
        assert_eq!(resp.error.unwrap().code, "bad_request");
        let mut req = Request::price(toy_schema(), uniform_workload(), StrategySpec::default());
        let resp = engine.handle(&req, &Deadline::none());
        assert_eq!(resp.error.unwrap().code, "bad_request");
        req.env.as_mut().expect("v2 constructor").strategy = Some(StrategySpec {
            kind: Some("peano".into()),
            ..StrategySpec::default()
        });
        let resp = engine.handle(&req, &Deadline::none());
        assert!(resp.error.unwrap().message.contains("peano"));
    }

    #[test]
    fn idempotent_drift_applies_exactly_once() {
        let engine = Engine::new();
        let mut init = Request::drift("s", vec![]);
        init.schema = Some(toy_schema());
        init.workload = Some(uniform_workload());
        assert!(engine.handle(&init, &Deadline::none()).ok);
        let req = Request::drift(
            "s",
            vec![DeltaSpec {
                updates: vec![WeightUpdate {
                    rank: 0,
                    weight: 0.5,
                }],
            }],
        )
        .with_idempotency_key("drift-1");
        let first = engine.handle(&req, &Deadline::none());
        assert!(first.ok, "{:?}", first.error);
        assert!(!first.deduplicated);
        let (version, probs) = engine.session_state("s").unwrap();
        assert_eq!(version, 1);
        // The retry replays the stored response; the session does not move.
        let mut retry = req.clone();
        retry.id = 999;
        let second = engine.handle(&retry, &Deadline::none());
        assert!(second.deduplicated);
        assert_eq!(second.id, 999, "replay echoes the retry's own id");
        assert_eq!(
            second.drift.as_ref().unwrap().version,
            first.drift.as_ref().unwrap().version
        );
        let (version2, probs2) = engine.session_state("s").unwrap();
        assert_eq!(version2, 1, "retried delta applied exactly once");
        for (a, b) in probs.iter().zip(&probs2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The stored answer is recoverable out-of-band too.
        let replay = engine.idempotent_replay("drift-1").unwrap();
        assert_eq!(
            replay.drift.unwrap().cost.to_bits(),
            first.drift.unwrap().cost.to_bits()
        );
        assert!(engine.idempotent_replay("unseen").is_none());
        let stats = engine.stats_body();
        assert_eq!(stats.idempotency.hits, 1);
        assert_eq!(stats.idempotency.misses, 1);
        assert_eq!(stats.idempotency.entries, 1);
    }

    #[test]
    fn transient_failures_are_not_cached_but_bad_requests_are() {
        let engine = Engine::new();
        // deadline_exceeded is transient: the retry executes for real.
        let req = Request::recommend(toy_schema(), uniform_workload()).with_idempotency_key("k1");
        let past = Deadline::from_ms(Instant::now() - std::time::Duration::from_secs(1), Some(0));
        let miss = engine.handle(&req, &past);
        assert_eq!(miss.error.unwrap().code, "deadline_exceeded");
        let retry = engine.handle(&req, &Deadline::none());
        assert!(retry.ok, "{:?}", retry.error);
        assert!(!retry.deduplicated, "transient outcome was not cached");
        // bad_request is authoritative: the retry is deduplicated.
        let bad = Request::new("frobnicate").with_idempotency_key("k2");
        let first = engine.handle(&bad, &Deadline::none());
        assert_eq!(first.error.unwrap().code, "bad_request");
        let second = engine.handle(&bad, &Deadline::none());
        assert!(second.deduplicated);
    }

    #[test]
    fn invalid_delta_in_batch_leaves_session_untouched() {
        let engine = Engine::new();
        let mut init = Request::drift("s", vec![]);
        init.schema = Some(toy_schema());
        init.workload = Some(uniform_workload());
        assert!(engine.handle(&init, &Deadline::none()).ok);
        let (_, before) = engine.session_state("s").unwrap();
        // First delta valid, second out of bounds: nothing may apply.
        let req = Request::drift(
            "s",
            vec![
                DeltaSpec {
                    updates: vec![WeightUpdate {
                        rank: 0,
                        weight: 0.9,
                    }],
                },
                DeltaSpec {
                    updates: vec![WeightUpdate {
                        rank: 1_000_000,
                        weight: 0.1,
                    }],
                },
            ],
        );
        let resp = engine.handle(&req, &Deadline::none());
        assert_eq!(resp.error.unwrap().code, "bad_request");
        let (version, after) = engine.session_state("s").unwrap();
        assert_eq!(version, 0, "failed batch must not advance the version");
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn armed_fault_plan_perturbs_execution() {
        use crate::fault::{silence_injected_panics, FaultConfig};
        silence_injected_panics();
        let engine = Engine::new().with_fault(FaultPlan::new(FaultConfig {
            panic_pct: 100,
            ..FaultConfig::quiet(1)
        }));
        let req = Request::new("ping");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.handle(&req, &Deadline::none())
        }));
        assert!(outcome.is_err(), "100% panic plan must panic");
    }

    use snakes_storage::CrashStore;

    fn durable_engine(store: &Arc<CrashStore>) -> Engine {
        Engine::new()
            .with_durability(Media::Store(Arc::clone(store)))
            .unwrap()
    }

    fn drift_once(engine: &Engine, session: &str, rank: usize, weight: f64, key: &str) -> Response {
        let req = Request::drift(
            session,
            vec![DeltaSpec {
                updates: vec![WeightUpdate { rank, weight }],
            }],
        )
        .with_idempotency_key(key);
        engine.handle(&req, &Deadline::none())
    }

    #[test]
    fn durable_engine_recovers_state_bit_identically_across_restart() {
        let store = Arc::new(CrashStore::new());
        let (state, acked_cost) = {
            let engine = durable_engine(&store);
            let mut init = Request::drift("etl", vec![]);
            init.schema = Some(toy_schema());
            init.workload = Some(uniform_workload());
            assert!(engine.handle(&init, &Deadline::none()).ok);
            assert!(drift_once(&engine, "etl", 0, 0.4, "k-1").ok);
            let acked = drift_once(&engine, "etl", 1, 0.2, "k-2");
            assert!(acked.ok);
            (
                engine.session_state("etl").unwrap(),
                acked.drift.unwrap().cost,
            )
        };
        // "Reboot": only bytes that reached the store survive.
        let store = Arc::new(CrashStore::reopen(&store));
        let engine = durable_engine(&store);
        let stats = engine.stats_body().storage;
        assert!(stats.enabled);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.recovered_sessions, 1);
        let (version, probs) = engine.session_state("etl").unwrap();
        assert_eq!(version, state.0);
        assert_eq!(probs.len(), state.1.len());
        for (a, b) in probs.iter().zip(&state.1) {
            assert_eq!(a.to_bits(), b.to_bits(), "recovered probs must be exact");
        }
        // Acknowledged idempotent responses replay across the restart.
        let replay = engine.idempotent_replay("k-2").unwrap();
        assert_eq!(replay.drift.unwrap().cost.to_bits(), acked_cost.to_bits());
        // And a retried request deduplicates instead of re-applying.
        let retry = drift_once(&engine, "etl", 1, 0.2, "k-2");
        assert!(retry.deduplicated);
        assert_eq!(engine.session_state("etl").unwrap().0, version);
        // The recovered session keeps drifting from where it left off.
        assert!(drift_once(&engine, "etl", 2, 0.1, "k-3").ok);
        assert_eq!(engine.session_state("etl").unwrap().0, version + 1);
    }

    #[test]
    fn checkpoint_folds_the_log_and_survives_restart() {
        let store = Arc::new(CrashStore::new());
        {
            let engine = durable_engine(&store);
            let mut init = Request::drift("s", vec![]);
            init.schema = Some(toy_schema());
            init.workload = Some(uniform_workload());
            assert!(engine.handle(&init, &Deadline::none()).ok);
            assert!(drift_once(&engine, "s", 0, 0.7, "ck-1").ok);
            assert!(engine.checkpoint().unwrap(), "uncontended checkpoint runs");
            let storage = engine.stats_body().storage;
            assert_eq!(storage.checkpoints, 1);
            assert_eq!(storage.wal_entries, 0, "checkpoint truncates the log");
            // Post-checkpoint tail: replay must apply it on top.
            assert!(drift_once(&engine, "s", 1, 0.1, "ck-2").ok);
        }
        let store = Arc::new(CrashStore::reopen(&store));
        let engine = durable_engine(&store);
        let (version, _) = engine.session_state("s").unwrap();
        assert_eq!(version, 2, "checkpoint state plus log tail");
        assert!(engine.idempotent_replay("ck-1").is_some());
        assert!(engine.idempotent_replay("ck-2").is_some());
    }

    #[test]
    fn recovered_response_bytes_match_the_original_wire_encoding() {
        let store = Arc::new(CrashStore::new());
        let first = {
            let engine = durable_engine(&store);
            let mut init = Request::drift("w", vec![]);
            init.schema = Some(toy_schema());
            init.workload = Some(uniform_workload());
            assert!(engine.handle(&init, &Deadline::none()).ok);
            drift_once(&engine, "w", 3, 0.25, "wire-1")
        };
        let store = Arc::new(CrashStore::reopen(&store));
        let engine = durable_engine(&store);
        let replay = engine.idempotent_replay("wire-1").unwrap();
        assert_eq!(
            replay.to_line(),
            first.to_line(),
            "stored response must survive the WAL round-trip byte-for-byte"
        );
    }

    #[test]
    fn physical_measurement_is_bit_identical_to_the_analytic_memo() {
        let engine = Engine::new();
        let mut req = Request::price(
            toy_schema(),
            uniform_workload(),
            StrategySpec::snaked_path(vec![0, 1, 0, 1]),
        );
        req.measure = Some(crate::protocol::MeasureSpec {
            records_per_cell: 3,
            page_size: 512,
            record_size: 125,
            physical: false,
        });
        let analytic = engine.handle(&req, &Deadline::none());
        assert!(analytic.ok, "{:?}", analytic.error);
        let analytic = analytic.price.unwrap().measured.unwrap();
        req.measure.as_mut().unwrap().physical = true;
        let physical = engine.handle(&req, &Deadline::none());
        assert!(physical.ok, "{:?}", physical.error);
        let physical = physical.price.unwrap().measured.unwrap();
        assert_eq!(physical.avg_seeks.to_bits(), analytic.avg_seeks.to_bits());
        assert_eq!(
            physical.avg_normalized_blocks.to_bits(),
            analytic.avg_normalized_blocks.to_bits()
        );
        // The paged engine really ran: its pool counters surface in stats.
        let storage = engine.stats_body().storage;
        assert!(storage.pool_misses > 0, "bulk load must touch the pool");
        assert!(storage.physical_writes > 0, "bulk load must write pages");
        assert!(storage.pool_hit_rate > 0.0, "scans re-read loaded pages");
    }

    #[test]
    fn oversized_physical_measurement_is_rejected_in_band() {
        let engine = Engine::new();
        let mut req = Request::price(
            toy_schema(),
            uniform_workload(),
            StrategySpec::snaked_path(vec![0, 1, 0, 1]),
        );
        req.measure = Some(crate::protocol::MeasureSpec {
            records_per_cell: u64::MAX / 128,
            physical: true,
            ..Default::default()
        });
        let resp = engine.handle(&req, &Deadline::none());
        assert_eq!(resp.error.unwrap().code, "bad_request");
    }

    fn small_measure() -> crate::protocol::MeasureSpec {
        crate::protocol::MeasureSpec {
            records_per_cell: 3,
            page_size: 256,
            record_size: 64,
            physical: false,
        }
    }

    fn recluster_req(job: &str, from: Vec<usize>, to: Vec<usize>) -> Request {
        Request::recluster(
            job,
            toy_schema(),
            uniform_workload(),
            crate::protocol::ReclusterSpec {
                from: Some(StrategySpec::snaked_path(from)),
                to: Some(StrategySpec::snaked_path(to)),
                chunk_pages: 1,
            },
        )
        .with_measure(small_measure())
    }

    #[test]
    fn recluster_endpoints_drive_a_migration_to_completion() {
        let engine = Engine::new();
        let resp = engine.handle(
            &recluster_req("mig", vec![0, 1, 0, 1], vec![1, 0, 1, 0]),
            &Deadline::none(),
        );
        assert!(resp.ok, "{:?}", resp.error);
        let body = resp.recluster.unwrap();
        assert_eq!(body.state, "running");
        assert_eq!(body.fence, 0);
        assert_eq!(body.total_cells, 16);
        // Starting an already-running job is idempotent: it reports
        // progress instead of restarting.
        let again = engine.handle(
            &recluster_req("mig", vec![0, 1, 0, 1], vec![1, 0, 1, 0]),
            &Deadline::none(),
        );
        assert!(again.ok);
        assert_eq!(again.recluster.unwrap().state, "running");
        // Drive the migration: every tick advances one bounded chunk and
        // runs a differential probe over the fence.
        let mut ticks = 0;
        while engine.tick_reclusters(0, 1) > 0 {
            ticks += 1;
            assert!(ticks < 100, "migration must terminate");
        }
        assert!(ticks > 1, "chunk_pages=1 must take several chunks");
        let status = engine.handle(&Request::recluster_status("mig"), &Deadline::none());
        let body = status.recluster.unwrap();
        assert_eq!(body.state, "done");
        assert_eq!(body.fence, 16);
        assert_eq!(body.records_moved, 16 * 3);
        assert_eq!(body.probes, body.chunks_applied);
        // Aborting a finished job is a no-op answer, not an error.
        let aborted = engine.handle(&Request::recluster_abort("mig"), &Deadline::none());
        assert_eq!(aborted.recluster.unwrap().state, "done");
        let stats = engine.stats_body().recluster;
        assert_eq!(stats.jobs_started, 1);
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.active, 0);
        assert_eq!(stats.records_moved, 48);
        let unknown = engine.handle(&Request::recluster_status("nope"), &Deadline::none());
        assert_eq!(unknown.error.unwrap().code, "bad_request");
    }

    #[test]
    fn recluster_abort_stops_and_restart_continues_from_previous_target() {
        let engine = Engine::new();
        assert!(
            engine
                .handle(
                    &recluster_req("job", vec![0, 1, 0, 1], vec![1, 0, 1, 0]),
                    &Deadline::none(),
                )
                .ok
        );
        assert_eq!(engine.tick_reclusters(0, 1), 1);
        let resp = engine.handle(&Request::recluster_abort("job"), &Deadline::none());
        assert_eq!(resp.recluster.unwrap().state, "aborted");
        assert_eq!(engine.tick_reclusters(0, 1), 0, "aborted jobs do not tick");
        // Restarting the name defaults `from` to the previous target and
        // reuses the previous schema: only a new `to` is needed.
        let mut restart = Request::new("recluster");
        restart.session = Some("job".into());
        restart.recluster = Some(crate::protocol::ReclusterSpec {
            from: None,
            to: Some(StrategySpec::snaked_path(vec![0, 0, 1, 1])),
            chunk_pages: 4,
        });
        let restart = engine.handle(&restart.with_measure(small_measure()), &Deadline::none());
        assert!(restart.ok, "{:?}", restart.error);
        let body = restart.recluster.unwrap();
        assert_eq!(body.state, "running");
        let job = engine.recluster_job("job").unwrap();
        assert_eq!(
            job.lock().snap.from.dims,
            Some(vec![1, 0, 1, 0]),
            "restart picks up from the aborted job's target layout"
        );
        while engine.tick_reclusters(0, 1) > 0 {}
        let stats = engine.stats_body().recluster;
        assert_eq!(stats.jobs_aborted, 1);
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn recluster_target_defaults_to_the_recommendation() {
        let engine = Engine::new();
        let direct = engine.handle(
            &Request::recommend(toy_schema(), uniform_workload()),
            &Deadline::none(),
        );
        let optimal = direct.recommendation.unwrap().path_dims;
        let req = Request::recluster(
            "rec",
            toy_schema(),
            uniform_workload(),
            crate::protocol::ReclusterSpec {
                from: Some(StrategySpec::snaked_path(vec![0, 0, 1, 1])),
                to: None,
                chunk_pages: 4,
            },
        )
        .with_measure(small_measure());
        let resp = engine.handle(&req, &Deadline::none());
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.recluster.unwrap().state, "running");
        let job = engine.recluster_job("rec").unwrap();
        assert_eq!(
            job.lock().snap.to.dims,
            Some(optimal),
            "omitted target defaults to the advisor's recommendation"
        );
    }

    #[test]
    fn recluster_jobs_resume_from_the_logged_fence_across_restart() {
        let store = Arc::new(CrashStore::new());
        let fence_before = {
            let engine = durable_engine(&store);
            assert!(
                engine
                    .handle(
                        &recluster_req("dur", vec![0, 1, 0, 1], vec![1, 0, 1, 0]),
                        &Deadline::none(),
                    )
                    .ok
            );
            // A few chunks, then "SIGKILL" (drop without finishing).
            assert_eq!(engine.tick_reclusters(0, 1), 1);
            assert_eq!(engine.tick_reclusters(0, 1), 1);
            engine.flush_wal().unwrap();
            let status = engine.handle(&Request::recluster_status("dur"), &Deadline::none());
            let body = status.recluster.unwrap();
            assert!(body.fence > 0 && !body.state.eq("done"));
            body.fence
        };
        let store = Arc::new(CrashStore::reopen(&store));
        let engine = durable_engine(&store);
        let stats = engine.stats_body().recluster;
        assert_eq!(stats.jobs_recovered, 1);
        assert_eq!(stats.active, 1);
        let status = engine.handle(&Request::recluster_status("dur"), &Deadline::none());
        let body = status.recluster.unwrap();
        assert_eq!(body.state, "running");
        assert_eq!(
            body.fence, fence_before,
            "resume exactly at the logged fence"
        );
        // The recovered migration runs to completion (probes keep passing:
        // the rebuilt table is bit-identical by construction).
        while engine.tick_reclusters(0, 1) > 0 {}
        let status = engine.handle(&Request::recluster_status("dur"), &Deadline::none());
        assert_eq!(status.recluster.unwrap().state, "done");
    }

    #[test]
    fn drift_auto_triggers_a_migration_and_advances_the_layout() {
        let engine = Engine::new().with_auto_recluster(AutoRecluster {
            horizon_queries: 1e9,
            min_signals: 2,
            cooldown: 4,
            chunk_pages: 4,
            measure: small_measure(),
        });
        let mut init = Request::drift("sales", vec![]);
        init.schema = Some(toy_schema());
        init.workload = Some(uniform_workload());
        assert!(engine.handle(&init, &Deadline::none()).ok);
        // The first commit pins the baseline layout to the then-optimal
        // path. Repoint it at a deliberately suboptimal one so the
        // advisor sees a persistent gap worth migrating away from.
        let optimal = {
            let handle = engine.sessions.get("sales").unwrap();
            let mut session = handle.lock();
            let shape = session.dp.model().shape().clone();
            let optimal = session.layout_path.clone().expect("pinned on first commit");
            // A blocked path (one dimension fully first) is strictly worse
            // than the alternating optimum for a uniform workload — and
            // not merely its mirror image, which would cost the same by
            // the toy schema's symmetry.
            let dims = if optimal.dims() == [0, 0, 1, 1] {
                vec![0, 1, 0, 1]
            } else {
                vec![0, 0, 1, 1]
            };
            session.layout_path = Some(LatticePath::from_dims(shape, dims).unwrap());
            optimal
        };
        assert!(drift_once(&engine, "sales", 0, 0.50001, "at-1").ok);
        assert_eq!(
            engine.stats_body().recluster.auto_triggers,
            0,
            "one signal is not a streak"
        );
        assert!(drift_once(&engine, "sales", 0, 0.5, "at-2").ok);
        let stats = engine.stats_body().recluster;
        assert_eq!(stats.auto_triggers, 1, "second consecutive signal fires");
        assert_eq!(stats.active, 1);
        let status = engine.handle(&Request::recluster_status("auto:sales"), &Deadline::none());
        assert_eq!(status.recluster.unwrap().state, "running");
        // Cooldown: further drifts must not start a second job.
        assert!(drift_once(&engine, "sales", 1, 0.3, "at-3").ok);
        assert_eq!(engine.stats_body().recluster.auto_triggers, 1);
        while engine.tick_reclusters(0, 1) > 0 {}
        assert_eq!(engine.stats_body().recluster.jobs_completed, 1);
        // Completion advanced the session's assumed layout to the target:
        // the estimator is satisfied and the trigger stays quiet.
        let handle = engine.sessions.get("sales").unwrap();
        let assumed = handle.lock().layout_path.clone().unwrap();
        assert_eq!(assumed.dims(), optimal.dims());
    }
}
