//! Deterministic simulation of the full advisor service under injected
//! faults.
//!
//! The harness runs the **production** server core against in-memory
//! duplex pipes instead of TCP sockets: by default the nonblocking
//! sharded core ([`crate::shard::ShardedCore`] — real event loops over
//! [`SimReactor`]s, real cross-shard forwarding, real per-tick batching
//! and drain barrier), with the blocking [`crate::server::Core`]
//! available as the conformance oracle ([`SimCoreKind::Blocking`]). A
//! seeded [`FaultConfig`] drives every fault decision:
//!
//! * client-side transport faults (torn frames, slow chunked writes,
//!   connections dropped before/during the response) via
//!   [`crate::fault::TransportFaults`];
//! * server-side handler faults (worker panics, execution delays that
//!   skew against per-request deadlines) via an armed
//!   [`crate::fault::FaultPlan`] on the engine;
//! * an optional shutdown racing the in-flight requests.
//!
//! [`run_schedule`] drives a whole schedule — several concurrent
//! [`RetryingClient`]s issuing mixed traffic — and verifies the three
//! harness invariants:
//!
//! 1. **Exactly-once visibility** — every admitted request produces
//!    exactly one response or in-band error; nothing hangs, nothing is
//!    silently dropped.
//! 2. **Bit-identity** — every successful answer equals the direct
//!    library call (`f64::to_bits` equality).
//! 3. **State equivalence** — after any fault schedule, each drift
//!    session's state equals a fault-free replay of exactly the
//!    acknowledged (committed) deltas, in order.
//!
//! Fault *decisions* are pure functions of the seed, so a failing seed
//! replays the same fault pattern; thread interleavings still vary with
//! the OS scheduler, which is the point — the invariants must hold for
//! every interleaving of a given fault schedule.

use crate::client::{Dialer, RetryPolicy, RetryingClient, Transport};
use crate::engine::Engine;
use crate::error::ServiceError;
use crate::fault::{
    silence_injected_panics, FaultConfig, FaultPlan, ReadFault, SplitMix64, TransportFaults,
    WriteFault,
};
use crate::protocol::{DeltaSpec, Request, Response, SchemaSpec, StrategySpec, WorkloadSpec};
use crate::reactor::{ShardStream, SimReactor};
use crate::server::Core;
use crate::shard::{ShardedConfig, ShardedCore};
use snakes_core::cost::CostModel;
use snakes_core::dp::IncrementalDp;
use snakes_core::lattice::LatticeShape;
use snakes_core::path::LatticePath;
use snakes_core::schema::StarSchema;
use snakes_core::workload::{VersionedWorkload, WeightUpdate, Workload, WorkloadDelta};
use snakes_curves::{aggregate_class_costs, path_curve, snaked_path_curve};
use std::collections::VecDeque;
use std::io::Read;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// In-memory pipes.
// ---------------------------------------------------------------------------

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One unidirectional in-memory byte stream. Blocking reads surface
/// `WouldBlock` after a short empty wait, mimicking the read-timeout poll
/// the blocking core uses to watch the drain flag — so the production
/// `serve_connection` runs unmodified over a pair of these. Nonblocking
/// reads ([`Pipe::try_read`]) plus a readiness hook fired on every write
/// and close let the same pipe drive the sharded core's event loop
/// through a [`SimReactor`].
struct Pipe {
    state: Mutex<PipeState>,
    available: Condvar,
    /// Fired after every write and on close: the sim reactor's edge.
    hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            hook: Mutex::new(None),
        })
    }

    fn fire_hook(&self) {
        let hook = self.hook.lock().expect("hook lock").clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Installs the readiness hook, firing it immediately if data (or an
    /// EOF) is already waiting, so no pre-registration edge is lost.
    fn set_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.hook.lock().expect("hook lock") = Some(hook);
        let pending = {
            let state = self.state.lock().expect("pipe lock");
            !state.buf.is_empty() || state.closed
        };
        if pending {
            self.fire_hook();
        }
    }

    fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut state = self.state.lock().expect("pipe lock");
        if state.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ));
        }
        state.buf.extend(bytes);
        drop(state);
        self.available.notify_all();
        self.fire_hook();
        Ok(())
    }

    /// Nonblocking read: bytes if any, `Ok(0)` at EOF, `WouldBlock`
    /// otherwise.
    fn try_read(&self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut state = self.state.lock().expect("pipe lock");
        if !state.buf.is_empty() {
            let n = out.len().min(state.buf.len());
            for slot in out.iter_mut().take(n) {
                *slot = state.buf.pop_front().expect("non-empty");
            }
            return Ok(n);
        }
        if state.closed {
            return Ok(0);
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "pipe empty",
        ))
    }

    fn read(&self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut state = self.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("non-empty");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(state, Duration::from_millis(1))
                .expect("pipe lock");
            state = guard;
            if timeout.timed_out() && state.buf.is_empty() && !state.closed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "pipe poll",
                ));
            }
        }
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.available.notify_all();
        self.fire_hook();
    }
}

/// The server-side face of one simulated connection for the sharded
/// core: nonblocking reads from the client→server pipe, writes into the
/// server→client pipe, readiness hook on the read side. Dropping it
/// closes both directions, exactly like dropping a TCP stream.
struct SimDuplex {
    read: Arc<Pipe>,
    write: Arc<Pipe>,
}

impl ShardStream for SimDuplex {
    fn read_nb(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.read.try_read(buf)
    }

    fn write_nb(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write.write(buf)?;
        Ok(buf.len())
    }

    fn set_ready_hook(&mut self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.read.set_hook(hook);
    }
}

impl Drop for SimDuplex {
    fn drop(&mut self) {
        self.read.close();
        self.write.close();
    }
}

/// Read half of a [`Pipe`]; closes it on drop.
struct PipeReader(Arc<Pipe>);

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(out)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Write half of a [`Pipe`]; closes it on drop.
struct PipeWriter(Arc<Pipe>);

impl std::io::Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.write(bytes)?;
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.close();
    }
}

// ---------------------------------------------------------------------------
// The simulated server.
// ---------------------------------------------------------------------------

/// Which server core a simulation drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCoreKind {
    /// The nonblocking sharded event-loop core ([`ShardedCore`]) — the
    /// production serving path, and the default.
    Sharded,
    /// The blocking `Core` + `serve_connection` stack: the conformance
    /// oracle whose semantics the sharded core must match.
    Blocking,
}

/// The core actually running behind a [`SimServer`].
enum SimCore {
    Sharded {
        core: Arc<ShardedCore>,
        threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    },
    Blocking {
        core: Core,
        workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
        conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    },
}

/// The full server core behind in-memory connections: real shards (or the
/// blocking oracle's real workers and admission queue), fault plan armed
/// on the engine.
pub struct SimServer {
    inner: SimCore,
}

impl SimServer {
    /// Starts the **sharded nonblocking core** — `workers` shards driven
    /// by [`SimReactor`]s — against an engine armed with `fault`.
    pub fn start(workers: usize, queue_capacity: usize, fault: FaultConfig) -> Arc<SimServer> {
        SimServer::start_kind(SimCoreKind::Sharded, workers, queue_capacity, fault)
    }

    /// Starts the requested core kind behind the same harness.
    pub fn start_kind(
        kind: SimCoreKind,
        workers: usize,
        queue_capacity: usize,
        fault: FaultConfig,
    ) -> Arc<SimServer> {
        silence_injected_panics();
        let engine = Engine::with_limits(workers, queue_capacity).with_fault(FaultPlan::new(fault));
        let inner = match kind {
            SimCoreKind::Sharded => {
                let config = ShardedConfig {
                    shards: workers,
                    queue_capacity,
                    retry_after_ms: 1,
                };
                let (core, threads) =
                    ShardedCore::start(engine, &config, |_| Ok(Box::new(SimReactor::new())))
                        .expect("sim reactors cannot fail");
                SimCore::Sharded {
                    core,
                    threads: Mutex::new(threads),
                }
            }
            SimCoreKind::Blocking => {
                let (core, handles) = Core::start(engine, workers, queue_capacity, 1);
                SimCore::Blocking {
                    core,
                    workers: Mutex::new(handles),
                    conns: Mutex::new(Vec::new()),
                }
            }
        };
        Arc::new(SimServer { inner })
    }

    /// The shared engine (caches, sessions, metrics, fault counters).
    pub fn engine(&self) -> &Arc<Engine> {
        match &self.inner {
            SimCore::Sharded { core, .. } => core.engine(),
            SimCore::Blocking { core, .. } => core.engine(),
        }
    }

    /// Requests a graceful drain, exactly like SIGTERM on the daemon.
    pub fn shutdown(&self) {
        match &self.inner {
            SimCore::Sharded { core, .. } => core.shutdown(),
            SimCore::Blocking { core, .. } => core.shutdown(),
        }
    }

    /// Drains and joins every server thread. Call after all clients have
    /// finished (their dropped pipes unblock the server side). On the
    /// blocking core, workers join first; any job they stranded is then
    /// purged — disconnecting its reply channel so the blocked connection
    /// thread answers in-band and exits instead of deadlocking the
    /// harness — and the loss shows up in the admitted/finished counters.
    /// The sharded core's drain barrier makes stranding impossible by
    /// construction: shards only exit once nothing is queued, outboxed,
    /// or in flight anywhere.
    pub fn join(&self) {
        self.shutdown();
        match &self.inner {
            SimCore::Sharded { threads, .. } => {
                let threads: Vec<_> = threads.lock().expect("threads lock").drain(..).collect();
                for handle in threads {
                    let _ = handle.join();
                }
            }
            SimCore::Blocking {
                core,
                workers,
                conns,
            } => {
                let workers: Vec<_> = workers.lock().expect("workers lock").drain(..).collect();
                for handle in workers {
                    let _ = handle.join();
                }
                core.purge_queue();
                let conns: Vec<_> = conns.lock().expect("conns lock").drain(..).collect();
                for handle in conns {
                    let _ = handle.join();
                }
            }
        }
    }

    /// Opens one simulated connection — handed to a shard's event loop,
    /// or to a dedicated thread running the oracle's `serve_connection`.
    /// Returns the client-side (write half, read half).
    fn open_connection(&self) -> (PipeWriter, PipeReader) {
        let to_server = Pipe::new();
        let from_server = Pipe::new();
        match &self.inner {
            SimCore::Sharded { core, .. } => {
                core.add_connection(Box::new(SimDuplex {
                    read: Arc::clone(&to_server),
                    write: Arc::clone(&from_server),
                }));
            }
            SimCore::Blocking { core, conns, .. } => {
                let core = core.clone();
                let server_read = PipeReader(Arc::clone(&to_server));
                let server_write = PipeWriter(Arc::clone(&from_server));
                let handle = std::thread::Builder::new()
                    .name("snakes-sim-conn".into())
                    .spawn(move || {
                        let mut reader = std::io::BufReader::new(server_read);
                        let mut writer = server_write;
                        core.serve_connection(&mut reader, &mut writer);
                    })
                    .expect("spawn sim connection");
                conns.lock().expect("conns lock").push(handle);
            }
        }
        (PipeWriter(to_server), PipeReader(from_server))
    }
}

// ---------------------------------------------------------------------------
// The fault-injecting client transport.
// ---------------------------------------------------------------------------

/// [`Dialer`] opening fault-injected connections to a [`SimServer`]. The
/// fault stream persists across re-dials, so a client's fault pattern is
/// a deterministic function of `(config seed, client salt)`.
pub struct SimDialer {
    server: Arc<SimServer>,
    faults: Arc<Mutex<TransportFaults>>,
}

impl SimDialer {
    /// A dialer for one simulated client (`salt` separates clients).
    pub fn new(server: Arc<SimServer>, fault: FaultConfig, salt: u64) -> Self {
        SimDialer {
            server,
            faults: Arc::new(Mutex::new(TransportFaults::new(fault, salt))),
        }
    }

    /// `(torn, chunked, dropped)` transport faults injected so far.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        self.faults.lock().expect("faults lock").counts()
    }

    /// A handle to the fault counters that survives moving the dialer
    /// into a [`RetryingClient`].
    pub fn counters(&self) -> Arc<Mutex<TransportFaults>> {
        Arc::clone(&self.faults)
    }
}

impl Dialer for SimDialer {
    fn dial(&mut self) -> Result<Box<dyn Transport>, ServiceError> {
        let (writer, reader) = self.server.open_connection();
        Ok(Box::new(FaultedTransport {
            writer,
            reader,
            faults: Arc::clone(&self.faults),
        }))
    }
}

/// A pipe transport that executes the client-side fault plan.
struct FaultedTransport {
    writer: PipeWriter,
    reader: PipeReader,
    faults: Arc<Mutex<TransportFaults>>,
}

impl FaultedTransport {
    /// Hard-drops the connection (both directions), as a crashed client
    /// or cut network would.
    fn kill(&self) {
        self.writer.0.close();
        self.reader.0.close();
    }
}

impl Transport for FaultedTransport {
    fn send_line(&mut self, line: &str) -> Result<(), ServiceError> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let fault = self
            .faults
            .lock()
            .expect("faults lock")
            .write_fault(frame.len());
        match fault {
            WriteFault::Clean => {
                self.writer.0.write(&frame)?;
                Ok(())
            }
            WriteFault::Torn { at } => {
                let _ = self.writer.0.write(&frame[..at]);
                self.kill();
                Err(ServiceError::Protocol(
                    "connection torn mid-frame (injected)".into(),
                ))
            }
            WriteFault::Chunked { chunk, pause_ms } => {
                for piece in frame.chunks(chunk.max(1)) {
                    self.writer.0.write(piece)?;
                    if pause_ms > 0 {
                        std::thread::sleep(Duration::from_millis(pause_ms));
                    }
                }
                Ok(())
            }
        }
    }

    fn recv_line(&mut self) -> Result<String, ServiceError> {
        match self.faults.lock().expect("faults lock").read_fault() {
            ReadFault::Clean => {}
            ReadFault::DropBeforeRead => {
                self.kill();
                return Err(ServiceError::Protocol(
                    "connection dropped before response (injected)".into(),
                ));
            }
            ReadFault::DropMidRead => {
                // Pull a few response bytes (maybe none arrived yet), then
                // cut the line.
                let mut scratch = [0u8; 3];
                let _ = self.reader.0.read(&mut scratch);
                self.kill();
                return Err(ServiceError::Protocol(
                    "connection dropped mid-response (injected)".into(),
                ));
            }
        }
        let mut line = Vec::new();
        let mut chunk = [0u8; 256];
        // Bounded wait (~10 s of 1 ms polls): a server that never answers
        // is itself an invariant violation, and the client must surface
        // it as a transport error rather than wedge the harness.
        let mut polls = 0u32;
        loop {
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    return Err(ServiceError::Protocol(
                        "server closed the connection".into(),
                    ))
                }
                Ok(n) => {
                    line.extend_from_slice(&chunk[..n]);
                    if let Some(pos) = line.iter().position(|&b| b == b'\n') {
                        line.truncate(pos);
                        return String::from_utf8(line).map_err(|_| {
                            ServiceError::Protocol("response is not valid UTF-8".into())
                        });
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    polls += 1;
                    if polls > 10_000 {
                        self.kill();
                        return Err(ServiceError::Protocol(
                            "timed out waiting for a response".into(),
                        ));
                    }
                }
                Err(e) => return Err(ServiceError::Io(e)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schedules.
// ---------------------------------------------------------------------------

/// One simulated fault schedule: topology, traffic volume, and fault mix,
/// all derived from a seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The schedule seed (also the fault seed).
    pub seed: u64,
    /// Concurrent clients.
    pub clients: usize,
    /// Logical requests per client.
    pub requests_per_client: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// The fault mix.
    pub fault: FaultConfig,
    /// When set, a drain fires this many milliseconds into the schedule,
    /// racing the in-flight requests.
    pub shutdown_after_ms: Option<u64>,
}

impl SimConfig {
    /// The canonical schedule for `seed`: small randomized topology and a
    /// randomized fault mix. Every 8th seed is a fault-free control
    /// schedule (all probabilities zero, no shutdown race), so the suite
    /// continuously re-proves the baseline too.
    pub fn for_seed(seed: u64) -> SimConfig {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(1));
        let quiet = seed.is_multiple_of(8);
        let fault = if quiet {
            FaultConfig::quiet(seed)
        } else {
            FaultConfig {
                seed,
                torn_write_pct: rng.below(13) as u8,
                chunked_write_pct: rng.below(16) as u8,
                drop_before_read_pct: rng.below(11) as u8,
                drop_mid_read_pct: rng.below(9) as u8,
                panic_pct: rng.below(11) as u8,
                delay_pct: rng.below(16) as u8,
                max_delay_ms: 1 + rng.below(2),
                shutdown_race_pct: 0,
            }
        };
        let shutdown_after_ms = if !quiet && rng.chance(25) {
            Some(2 + rng.below(20))
        } else {
            None
        };
        SimConfig {
            seed,
            clients: 2 + rng.below(3) as usize,
            requests_per_client: 3 + rng.below(5) as usize,
            workers: 1 + rng.below(3) as usize,
            queue_capacity: 1 + rng.below(4) as usize,
            fault,
            shutdown_after_ms,
        }
    }
}

/// The outcome of one schedule.
#[derive(Debug, Default)]
pub struct SimReport {
    /// The schedule seed.
    pub seed: u64,
    /// Logical requests issued across all clients.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Responses served from the idempotency cache.
    pub deduplicated: u64,
    /// Requests refused with `shutting_down` (drain races).
    pub rejected: u64,
    /// Requests whose retry budget ran out with no response.
    pub unresolved: u64,
    /// Handler panics injected and caught server-side.
    pub panics_caught: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Client-side transport faults injected: `(torn, chunked, dropped)`.
    pub transport_faults: (u64, u64, u64),
    /// Invariant violations (empty = the schedule passed).
    pub violations: Vec<String>,
}

/// What one client recorded about one logical request.
#[allow(clippy::large_enum_variant)] // harness-internal; almost always Answered
enum Outcome {
    /// A response arrived (possibly `ok: false`).
    Answered(Response),
    /// The retry budget ran out with no response.
    Unresolved,
}

/// The snaked/plain lattice paths of the 2×2-level toy grid.
const TOY_PATH_DIMS: [[usize; 4]; 6] = [
    [0, 1, 0, 1],
    [1, 0, 1, 0],
    [0, 0, 1, 1],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [1, 0, 0, 1],
];

/// A deterministic irregular workload, distinct per `salt`.
fn salted_workload(shape: &LatticeShape, salt: u64) -> Workload {
    let n = shape.num_classes();
    Workload::from_weights(
        shape.clone(),
        (0..n)
            .map(|r| 1.0 + ((r as u64 * (salt + 2) + salt) % 11) as f64 * 0.17)
            .collect(),
    )
    .expect("positive weights")
}

/// Runs one schedule end to end against the sharded nonblocking core and
/// verifies the three harness invariants. An empty `violations` list
/// means the schedule passed.
pub fn run_schedule(config: &SimConfig) -> SimReport {
    run_schedule_kind(config, SimCoreKind::Sharded)
}

/// [`run_schedule`] against an explicit core kind — the same schedules
/// drive the blocking oracle, keeping both cores honest against the same
/// invariants.
pub fn run_schedule_kind(config: &SimConfig, kind: SimCoreKind) -> SimReport {
    let schema = StarSchema::paper_toy();
    let shape = LatticeShape::of_schema(&schema);
    let server = SimServer::start_kind(
        kind,
        config.workers,
        config.queue_capacity,
        config.fault.clone(),
    );
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let note = |msg: String| {
        violations
            .lock()
            .expect("violations lock")
            .push(format!("seed {}: {}", config.seed, msg));
    };
    // Per client: (workload, per-request log). Indexed by client id.
    let mut logs: Vec<(Workload, Vec<(Request, Outcome)>)> = Vec::new();
    let mut fault_totals = (0u64, 0u64, 0u64);
    let mut deduplicated = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..config.clients {
            let server = Arc::clone(&server);
            let schema = &schema;
            let shape = &shape;
            let note = &note;
            let fault = config.fault.clone();
            handles.push(
                scope.spawn(move || client_script(config, i, server, schema, shape, fault, note)),
            );
        }
        // An explicit shutdown time wins; otherwise the fault plan's
        // `shutdown_race_pct` rolls one deterministically.
        let shutdown_after_ms = config.shutdown_after_ms.or_else(|| {
            let mut rng = SplitMix64::new(config.seed ^ 0x053D_011C_EBAD_C0DE);
            (config.fault.shutdown_race_pct > 0 && rng.chance(config.fault.shutdown_race_pct))
                .then(|| 2 + rng.below(20))
        });
        if let Some(ms) = shutdown_after_ms {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(ms));
                server.shutdown();
            });
        }
        for handle in handles {
            let (workload, log, counts, dedup) = handle.join().expect("client thread");
            fault_totals.0 += counts.0;
            fault_totals.1 += counts.1;
            fault_totals.2 += counts.2;
            deduplicated += dedup;
            logs.push((workload, log));
        }
    });
    // Full drain: every admitted job finishes before verification reads
    // the final state.
    server.join();
    let engine = Arc::clone(server.engine());
    // Invariant 3: per-session state equivalence against a fault-free
    // replay of exactly the committed deltas, in order; and invariant 2
    // for every drift response body, resolved through the idempotency
    // cache for responses lost in transit.
    // Invariant 1, server side: after a full drain, every admitted job
    // was finished by a worker. A gap means the drain dropped work.
    let admitted = engine
        .registry
        .admitted
        .load(std::sync::atomic::Ordering::Relaxed);
    let finished = engine
        .registry
        .jobs_finished
        .load(std::sync::atomic::Ordering::Relaxed);
    if admitted != finished {
        note(format!(
            "{admitted} requests were admitted but only {finished} finished — the drain \
             dropped admitted work"
        ));
    }
    for (i, (workload, log)) in logs.iter().enumerate() {
        verify_drift_replay(config, i, &schema, workload, log, &engine, &note);
    }
    let stats = engine.stats_body();
    let mut report = SimReport {
        seed: config.seed,
        transport_faults: fault_totals,
        deduplicated,
        panics_caught: stats.panics_caught,
        shed: stats.endpoints.iter().map(|e| e.shed).sum(),
        ..SimReport::default()
    };
    for (_, log) in &logs {
        for (_, outcome) in log {
            report.requests += 1;
            match outcome {
                Outcome::Answered(resp) if resp.ok => report.ok += 1,
                Outcome::Answered(resp) => {
                    if resp
                        .error
                        .as_ref()
                        .is_some_and(|e| e.code == "shutting_down")
                    {
                        report.rejected += 1;
                    }
                }
                Outcome::Unresolved => report.unresolved += 1,
            }
        }
    }
    report.violations = violations.into_inner().expect("violations lock");
    report
}

/// One client's record: its workload, request log, transport-fault
/// counts `(torn, chunked, dropped)`, and deduplicated-reply count.
type ClientLog = (Workload, Vec<(Request, Outcome)>, (u64, u64, u64), u64);

/// One simulated client: issues a deterministic mix of requests through a
/// retrying idempotent client, verifying `recommend`/`price` bit-identity
/// inline. Returns its workload, log, transport-fault counts, and
/// deduplicated-reply count.
fn client_script(
    config: &SimConfig,
    i: usize,
    server: Arc<SimServer>,
    schema: &StarSchema,
    shape: &LatticeShape,
    fault: FaultConfig,
    note: &dyn Fn(String),
) -> ClientLog {
    let seed = config.seed;
    let mut rng = SplitMix64::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let workload = salted_workload(shape, seed ^ (i as u64));
    let dialer = SimDialer::new(server, fault, i as u64 + 1);
    let counters = dialer.counters();
    let policy = RetryPolicy {
        // Generous budget: with per-occurrence fault re-rolls, a logical
        // request is effectively always resolved unless a drain stops it,
        // which keeps per-session commit order equal to issue order.
        max_attempts: 25,
        base_backoff_ms: 1,
        max_backoff_ms: 4,
        jitter_seed: seed ^ ((i as u64 + 1) << 17),
    };
    let mut client = RetryingClient::new(dialer, policy, &format!("s{seed}-c{i}"));
    let session = format!("s{seed}-c{i}");
    let mut log: Vec<(Request, Outcome)> = Vec::new();
    let n = shape.num_classes();
    for j in 0..config.requests_per_client {
        let spec_schema = SchemaSpec::of(schema);
        let spec_workload = WorkloadSpec::of(&workload);
        let kind = rng.below(100);
        let mut req = if kind < 25 {
            Request::recommend(spec_schema, spec_workload)
        } else if kind < 55 {
            let dims = TOY_PATH_DIMS[rng.below(TOY_PATH_DIMS.len() as u64) as usize].to_vec();
            let strategy = if rng.chance(70) {
                StrategySpec::snaked_path(dims)
            } else {
                StrategySpec::plain_path(dims)
            };
            Request::price(spec_schema, spec_workload, strategy)
        } else if kind < 90 {
            // Distinct ranks: a delta listing the same class twice is a
            // (correctly rejected) bad request, and the harness only
            // sends valid traffic.
            let mut ranks: Vec<usize> = Vec::new();
            for _ in 0..1 + rng.below(2) {
                let rank = rng.below(n as u64) as usize;
                if !ranks.contains(&rank) {
                    ranks.push(rank);
                }
            }
            let updates = ranks
                .into_iter()
                .map(|rank| WeightUpdate {
                    rank,
                    weight: 0.1 + rng.below(90) as f64 / 100.0,
                })
                .collect();
            let mut req = Request::drift(&session, vec![DeltaSpec { updates }]);
            // Schema + workload on every drift request: any of them can
            // create the session if an earlier one was lost to a fault.
            req.schema = Some(spec_schema);
            req.workload = Some(spec_workload);
            req
        } else if kind < 95 {
            Request::new("ping")
        } else {
            Request::new("stats")
        };
        if matches!(req.endpoint.as_str(), "recommend" | "price" | "drift") {
            req = req.with_idempotency_key(format!("s{seed}-c{i}-r{j}"));
        }
        if rng.chance(15) {
            req.deadline_ms = Some(40 + rng.below(60));
        }
        let outcome = match client.call(req.clone()) {
            Ok(resp) => Outcome::Answered(resp),
            Err(_) => Outcome::Unresolved,
        };
        let stop = match &outcome {
            Outcome::Answered(resp) if resp.ok => {
                verify_read_response(&req, resp, schema, &workload, note);
                false
            }
            Outcome::Answered(resp) => {
                let code = resp
                    .error
                    .as_ref()
                    .map_or("<missing error body>", |e| e.code.as_str());
                match code {
                    "shutting_down" => true,
                    other => {
                        // Retryable codes are consumed by the retry loop;
                        // the harness never sends an invalid request.
                        let detail = resp
                            .error
                            .as_ref()
                            .map_or(String::new(), |e| format!(": {}", e.message));
                        note(format!(
                            "client {i} request {j} ({}) got unexpected terminal error \
                             `{other}`{detail}",
                            req.endpoint
                        ));
                        false
                    }
                }
            }
            Outcome::Unresolved => false,
        };
        log.push((req, outcome));
        if stop {
            break;
        }
    }
    let counts = counters.lock().expect("faults lock").counts();
    let dedup = client.stats().deduplicated;
    (workload, log, counts, dedup)
}

/// Invariant 2 for read-only endpoints: a successful `recommend`/`price`
/// answer must be bit-identical to the direct library call.
fn verify_read_response(
    req: &Request,
    resp: &Response,
    schema: &StarSchema,
    workload: &Workload,
    note: &dyn Fn(String),
) {
    match req.endpoint.as_str() {
        "recommend" => {
            let Some(body) = &resp.recommendation else {
                note("ok recommend response without a body".into());
                return;
            };
            let direct = snakes_core::advisor::recommend(schema, workload);
            if body.path_dims != direct.optimal_path.dims()
                || body.expected_cost_plain.to_bits() != direct.plain_cost.to_bits()
                || body.expected_cost_snaked.to_bits() != direct.snaked_cost.to_bits()
            {
                note(format!(
                    "recommend diverged from direct call (id {})",
                    resp.id
                ));
            }
        }
        "price" => {
            let Some(body) = &resp.price else {
                note("ok price response without a body".into());
                return;
            };
            let strategy = req.strategy_spec().expect("price carries strategy");
            let dims = strategy.dims.clone().expect("harness prices paths");
            let path =
                LatticePath::from_dims(LatticeShape::of_schema(schema), dims).expect("valid path");
            let direct = if strategy.snaked {
                aggregate_class_costs(schema, &snaked_path_curve(schema, &path))
                    .expected_cost(workload)
            } else {
                aggregate_class_costs(schema, &path_curve(schema, &path)).expected_cost(workload)
            };
            if body.expected_cost.to_bits() != direct.to_bits() {
                note(format!(
                    "price diverged from direct call: {} vs {} (id {})",
                    body.expected_cost, direct, resp.id
                ));
            }
        }
        _ => {}
    }
}

/// Invariants 2 + 3 for `drift`: resolve each request's commit status
/// through the idempotency cache, then replay exactly the committed
/// deltas fault-free and demand bit-identical bodies and final state.
fn verify_drift_replay(
    config: &SimConfig,
    i: usize,
    schema: &StarSchema,
    workload: &Workload,
    log: &[(Request, Outcome)],
    engine: &Engine,
    note: &dyn Fn(String),
) {
    let session = format!("s{}-c{i}", config.seed);
    let mut expected = VersionedWorkload::new(workload.clone());
    let mut dp = IncrementalDp::new(CostModel::of_schema(schema));
    let mut any_committed = false;
    for (j, (req, outcome)) in log.iter().enumerate() {
        if req.endpoint != "drift" {
            continue;
        }
        let key = req.idempotency_key.as_deref().expect("drift is keyed");
        // The idempotency cache is the commit log: a drift mutated its
        // session if and only if an authoritative ok response is stored.
        let stored = engine.idempotent_replay(key).filter(|r| r.ok);
        let effective = match outcome {
            Outcome::Answered(resp) if resp.ok => {
                if stored.is_none() {
                    note(format!(
                        "client {i} drift {j}: acknowledged ok response missing from the \
                         idempotency cache"
                    ));
                    Some(resp.clone())
                } else {
                    Some(resp.clone())
                }
            }
            _ => stored,
        };
        let Some(resp) = effective else { continue };
        any_committed = true;
        let Some(body) = &resp.drift else {
            note(format!("client {i} drift {j}: ok response without a body"));
            continue;
        };
        let mut drift_tv = 0.0;
        let mut failed = false;
        for delta in req.deltas.as_deref().unwrap_or(&[]) {
            let delta = WorkloadDelta::new(delta.updates.clone()).expect("harness delta valid");
            match expected.apply(&delta) {
                Ok(tv) => drift_tv += tv,
                Err(e) => {
                    note(format!("client {i} drift {j}: replay rejected delta: {e}"));
                    failed = true;
                }
            }
        }
        if failed {
            continue;
        }
        let direct = dp.reoptimize(&expected.workload().clone());
        if body.version != expected.version() {
            note(format!(
                "client {i} drift {j}: version {} but fault-free replay says {} — a delta \
                 applied more or less than exactly once",
                body.version,
                expected.version()
            ));
        }
        if body.drift_tv.to_bits() != drift_tv.to_bits()
            || body.cost.to_bits() != direct.cost.to_bits()
            || body.path_dims != direct.path.dims()
            || body.reused != direct.reused
            || body.shift_bound.to_bits() != direct.shift_bound.to_bits()
            || body.gap.to_bits() != direct.gap.to_bits()
        {
            note(format!(
                "client {i} drift {j}: response body diverged from fault-free replay"
            ));
        }
    }
    // Final state equivalence.
    match engine.session_state(&session) {
        Some((version, probs)) => {
            if version != expected.version() {
                note(format!(
                    "session {session}: final version {version} != replay {}",
                    expected.version()
                ));
            }
            let replayed = expected.workload().probs();
            if probs.len() != replayed.len()
                || probs
                    .iter()
                    .zip(replayed)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                note(format!(
                    "session {session}: final distribution differs from fault-free replay"
                ));
            }
        }
        None => {
            if any_committed {
                note(format!(
                    "session {session}: committed deltas but the session does not exist"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Endpoint;
    use std::sync::atomic::Ordering;

    #[test]
    fn quiet_schedule_is_all_ok() {
        let config = SimConfig {
            seed: 8, // multiple of 8 → control schedule
            clients: 3,
            requests_per_client: 4,
            workers: 2,
            queue_capacity: 4,
            fault: FaultConfig::quiet(8),
            shutdown_after_ms: None,
        };
        let report = run_schedule(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.ok, report.requests);
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.panics_caught, 0);
        assert_eq!(report.transport_faults, (0, 0, 0));
    }

    #[test]
    fn chaotic_schedule_holds_the_invariants() {
        let mut saw_faults = false;
        for seed in [3u64, 5, 9] {
            let config = SimConfig::for_seed(seed);
            let report = run_schedule(&config);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let (torn, chunked, dropped) = report.transport_faults;
            if torn + chunked + dropped + report.panics_caught > 0 {
                saw_faults = true;
            }
        }
        assert!(saw_faults, "three chaotic seeds must inject something");
    }

    #[test]
    fn shutdown_race_never_loses_admitted_work() {
        let mut config = SimConfig::for_seed(11);
        config.shutdown_after_ms = Some(1);
        let report = run_schedule(&config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// A toy-schema `price` frame with id `id` and an `id`-salted
    /// workload.
    fn toy_price(id: u64) -> Request {
        let schema = StarSchema::paper_toy();
        let shape = LatticeShape::of_schema(&schema);
        let mut req = Request::price(
            SchemaSpec::of(&schema),
            WorkloadSpec::of(&salted_workload(&shape, id)),
            StrategySpec::snaked_path(TOY_PATH_DIMS[0].to_vec()),
        );
        req.id = id;
        req
    }

    /// A bare `endpoint` frame with id `id`.
    fn control(endpoint: &str, id: u64) -> Request {
        let mut req = Request::new(endpoint);
        req.id = id;
        req
    }

    /// Buffers `frames` on a fresh pipe pair and returns
    /// `(to_server, from_server)`. Buffered before the connection is
    /// handed to a shard, the frames are all read, and admitted or
    /// answered in order, in one tick, before anything executes.
    fn pipelined(frames: &[Request]) -> (Arc<Pipe>, Arc<Pipe>) {
        let to_server = Pipe::new();
        for req in frames {
            let mut frame = req.to_line().into_bytes();
            frame.push(b'\n');
            to_server.write(&frame).expect("pipe open");
        }
        (to_server, Pipe::new())
    }

    /// Buffers pipelined toy-schema `price` frames with the given ids.
    fn pipelined_prices(ids: std::ops::RangeInclusive<u64>) -> (Arc<Pipe>, Arc<Pipe>) {
        pipelined(&ids.map(toy_price).collect::<Vec<_>>())
    }

    /// Reads exactly `n` response lines from `from_server`, failing after
    /// ~10 s without them.
    fn read_responses(from_server: &Pipe, n: usize) -> Vec<Response> {
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut polls = 0u32;
        while bytes.iter().filter(|&&b| b == b'\n').count() < n {
            match from_server.read(&mut chunk) {
                Ok(0) => panic!("server closed before answering all {n} frames"),
                Ok(read) => bytes.extend_from_slice(&chunk[..read]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    polls += 1;
                    assert!(polls < 10_000, "no answer within ~10 s");
                }
                Err(e) => panic!("pipe read failed: {e}"),
            }
        }
        let responses: Vec<Response> = String::from_utf8(bytes)
            .expect("UTF-8 responses")
            .lines()
            .map(|line| Response::parse(line).expect("well-formed response"))
            .collect();
        assert_eq!(responses.len(), n);
        responses
    }

    /// Polls `done` every millisecond for up to ~10 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting until {what}");
    }

    /// Starts a sharded core of `shards` sim shards (`retry_after_ms:
    /// 42`), after folding `preload` into the engine's service-time EWMA.
    fn sim_core(
        shards: usize,
        queue_capacity: usize,
        preload: Option<Duration>,
    ) -> (Arc<ShardedCore>, Vec<std::thread::JoinHandle<()>>) {
        let engine = Engine::with_limits(shards, queue_capacity);
        if let Some(sample) = preload {
            engine.registry.record_service_time(sample);
        }
        let config = ShardedConfig {
            shards,
            queue_capacity,
            retry_after_ms: 42,
        };
        ShardedCore::start(engine, &config, |_| Ok(Box::new(SimReactor::new())))
            .expect("sim reactors cannot fail")
    }

    /// Runs `frames` pipelined on one connection to a 1-shard core (see
    /// [`pipelined`]) and returns every answer, in frame order, with the
    /// core, after its shard has exited.
    fn one_tick(
        queue_capacity: usize,
        preload: Option<Duration>,
        frames: &[Request],
    ) -> (Vec<Response>, Arc<ShardedCore>) {
        let (core, threads) = sim_core(1, queue_capacity, preload);
        let (to_server, from_server) = pipelined(frames);
        core.add_connection(Box::new(SimDuplex {
            read: Arc::clone(&to_server),
            write: Arc::clone(&from_server),
        }));
        let responses = read_responses(&from_server, frames.len());
        to_server.close();
        core.shutdown();
        for handle in threads {
            handle.join().expect("shard thread");
        }
        assert!(responses.iter().zip(frames).all(|(r, f)| r.id == f.id));
        (responses, core)
    }

    /// Pipelines three `price` frames (ids 1–3) on one connection to a
    /// 1-shard sharded core with `queue_capacity: 1` and
    /// `retry_after_ms: 42`, after folding `preload` into the engine's
    /// service-time EWMA, and returns the retry hints of the two shed
    /// replies.
    ///
    /// The frames are buffered before the connection is handed to the
    /// shard, so one tick reads all three and admits each before it
    /// executes anything: frame 1 is admitted, and frames 2 and 3 are
    /// shed while exactly one request is queued (`queue_depth == 1`).
    fn shed_hints(preload: Option<Duration>) -> Vec<Option<u64>> {
        let prices: Vec<Request> = (1..=3).map(toy_price).collect();
        let (responses, core) = one_tick(1, preload, &prices);
        assert!(responses[0].ok, "frame 1 is admitted: {:?}", responses[0]);
        assert_eq!(responses[0].id, 1);
        let stats = core.engine().stats_body();
        let price = stats.endpoints.iter().find(|e| e.endpoint == "price");
        assert_eq!(price.map(|e| e.shed), Some(2), "frames 2 and 3 are shed");
        responses[1..]
            .iter()
            .zip(2u64..)
            .map(|(resp, id)| {
                assert_eq!(resp.id, id);
                let err = resp.error.as_ref().expect("a shed reply is an error");
                assert_eq!(err.code, "overloaded", "{err:?}");
                err.retry_after_ms
            })
            .collect()
    }

    #[test]
    fn shed_retry_hints_follow_the_documented_formula() {
        // Cold registry: no execution has finished, so the configured
        // value is the hint.
        assert_eq!(shed_hints(None), [Some(42), Some(42)]);
        // Warm: ceil((queue_depth + 1) × EWMA) = ceil((1 + 1) × 7 ms).
        assert_eq!(
            shed_hints(Some(Duration::from_millis(7))),
            [Some(14), Some(14)]
        );
        // ceil(2 × 6 s) = 12 s, clamped to the 10 s ceiling.
        assert_eq!(
            shed_hints(Some(Duration::from_secs(6))),
            [Some(10_000), Some(10_000)]
        );
    }

    /// The 2-shard variant: a shard's hint counts only its own run queue.
    ///
    /// Shard 0 admits frames 1–2 and is frozen executing frame 1 (every
    /// price blocks on the held signature cache), so frame 2 stays queued
    /// there. Shard 1 then reads frames 3–5 in one tick with
    /// `queue_capacity: 2`: it admits 3 and 4 and sheds 5 with its own
    /// queue at 2, before executing anything. Per shard the hint is
    /// ceil((2 + 1) × 7 ms) = 21; the engine-wide depth (3, counting
    /// shard 0's frame 2) would give 28.
    #[test]
    fn shed_retry_hints_count_only_the_shedding_shards_queue() {
        let (core, threads) = sim_core(2, 2, Some(Duration::from_millis(7)));
        let registry = &core.engine().registry;
        let frozen = core.engine().hold_signatures();

        // Connections are dealt round-robin: the first goes to shard 0.
        let (to_zero, from_zero) = pipelined_prices(1..=2);
        core.add_connection(Box::new(SimDuplex {
            read: Arc::clone(&to_zero),
            write: Arc::clone(&from_zero),
        }));
        wait_until("shard 0 runs frame 1 with frame 2 queued", || {
            registry.admitted.load(Ordering::SeqCst) == 2
                && registry.queue_depth.load(Ordering::SeqCst) == 1
        });
        let (to_one, from_one) = pipelined_prices(3..=5);
        core.add_connection(Box::new(SimDuplex {
            read: Arc::clone(&to_one),
            write: Arc::clone(&from_one),
        }));
        // Read the counter directly: `stats` takes the held cache lock.
        let price_shed = || {
            registry
                .endpoint(Endpoint::Price)
                .shed
                .load(Ordering::SeqCst)
        };
        wait_until("shard 1 sheds frame 5", || price_shed() == 1);
        drop(frozen);

        let zero = read_responses(&from_zero, 2);
        let one = read_responses(&from_one, 3);
        to_zero.close();
        to_one.close();
        core.shutdown();
        for handle in threads {
            handle.join().expect("shard thread");
        }
        assert!(
            zero.iter().chain(&one[..2]).all(|r| r.ok),
            "{zero:?} {one:?}"
        );
        assert_eq!(one[2].id, 5);
        let err = one[2].error.as_ref().expect("frame 5 is shed");
        assert_eq!(err.code, "overloaded", "{err:?}");
        assert_eq!(err.retry_after_ms, Some(21));
        assert_eq!(price_shed(), 1);
    }

    fn error_code(resp: &Response) -> Option<&str> {
        resp.error.as_ref().map(|e| e.code.as_str())
    }

    /// The drain contract: work admitted before the `shutdown` ack is
    /// answered; every frame after it gets `shutting_down`, the drain
    /// being engine-wide the moment the ack is queued.
    #[test]
    fn a_drain_answers_admitted_work_and_refuses_later_frames() {
        let (responses, _) = one_tick(
            4,
            None,
            &[
                toy_price(1),
                toy_price(2),
                control("shutdown", 3),
                control("ping", 4),
                toy_price(5),
            ],
        );
        assert!(responses[..3].iter().all(|r| r.ok), "{responses:?}");
        for refused in &responses[3..] {
            assert_eq!(error_code(refused), Some("shutting_down"), "{refused:?}");
        }
    }

    /// With the queue full, the next frame is shed, `shutdown` still acks
    /// (it is answered at dispatch, before admission), and the admitted
    /// request drains to its answer.
    #[test]
    fn a_full_queue_sheds_while_shutdown_still_acks_and_drains() {
        let (responses, _) = one_tick(
            1,
            None,
            &[
                toy_price(1),
                toy_price(2),
                control("shutdown", 3),
                control("ping", 4),
            ],
        );
        assert!(responses[0].ok, "{:?}", responses[0]);
        assert_eq!(error_code(&responses[1]), Some("overloaded"));
        assert!(responses[2].ok, "shutdown acks on a full queue");
        assert_eq!(error_code(&responses[3]), Some("shutting_down"));
    }

    /// A drain requested on one shard keeps every request another shard
    /// admitted: shard 0 is frozen executing frame 1 with frame 2 queued
    /// when shard 1 acks the `shutdown`, and both still get answers.
    #[test]
    fn a_drain_keeps_the_work_other_shards_admitted() {
        let (core, threads) = sim_core(2, 4, None);
        let registry = &core.engine().registry;
        let frozen = core.engine().hold_signatures();
        // Connections are dealt round-robin: the first goes to shard 0.
        let (to_zero, from_zero) = pipelined_prices(1..=2);
        core.add_connection(Box::new(SimDuplex {
            read: Arc::clone(&to_zero),
            write: Arc::clone(&from_zero),
        }));
        wait_until("shard 0 runs frame 1 with frame 2 queued", || {
            registry.admitted.load(Ordering::SeqCst) == 2
                && registry.queue_depth.load(Ordering::SeqCst) == 1
        });
        let (to_one, from_one) = pipelined(&[control("shutdown", 3), control("ping", 4)]);
        core.add_connection(Box::new(SimDuplex {
            read: Arc::clone(&to_one),
            write: Arc::clone(&from_one),
        }));
        let one = read_responses(&from_one, 2);
        assert!(one[0].ok, "{:?}", one[0]);
        assert_eq!(error_code(&one[1]), Some("shutting_down"));
        assert!(core.draining());
        drop(frozen);
        let zero = read_responses(&from_zero, 2);
        assert!(zero.iter().all(|r| r.ok), "{zero:?}");
        to_zero.close();
        to_one.close();
        for handle in threads {
            handle.join().expect("shard thread");
        }
        assert_eq!(registry.jobs_finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn blocking_oracle_still_holds_the_invariants() {
        // The conformance oracle stays under test with the same
        // schedules the sharded core runs.
        for seed in [3u64, 8] {
            let config = SimConfig::for_seed(seed);
            let report = run_schedule_kind(&config, SimCoreKind::Blocking);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
        }
    }
}
