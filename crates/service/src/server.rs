//! The TCP front end and the blocking conformance core.
//!
//! [`Server::spawn`] serves TCP through the nonblocking sharded core
//! ([`crate::shard`]): an acceptor thread round-robins connections across
//! per-core event-loop shards. The blocking [`Core`] in this module — a
//! bounded admission queue, a fixed worker pool, and thread-per-connection
//! serving — predates it and stays as the conformance oracle: the sharded
//! core must match its admission, deadline, shedding, drain, idempotency,
//! and durability semantics exactly.
//!
//! Production posture over raw throughput:
//!
//! * **Load shedding** — admission is `try_push` against a bounded queue;
//!   when full the request is rejected immediately with `overloaded` and a
//!   `retry_after_ms` hint instead of stalling the connection.
//! * **Deadlines** — `deadline_ms` starts ticking at admission; expired
//!   jobs are failed at dequeue without touching the engine, and handlers
//!   re-check cooperatively at stage boundaries.
//! * **Graceful drain** — `shutdown` (the endpoint, or SIGTERM in
//!   [`serve_forever`]) stops admission, then the workers finish every
//!   already-admitted job before exiting, so no in-flight response is
//!   lost.

use crate::engine::{Deadline, Engine};
use crate::error::ServiceError;
use crate::fault::{silence_injected_panics, FaultConfig, FaultPlan, InjectedPanic};
use crate::metrics::Endpoint;
use crate::protocol::{Request, Response, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one request line. A frame beyond it is discarded up to its
/// newline and answered with an in-band protocol error, so a hostile or
/// broken client cannot grow server memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; 0 means one per core.
    pub workers: usize,
    /// Event-loop shards for the nonblocking core; 0 falls back to
    /// `workers` (and then to one per core). Each shard owns a partition
    /// of connections and drift-session stripes.
    pub shards: usize,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Fallback backoff hint for shed responses, used until the first
    /// admitted request finishes; after that the hint scales with the
    /// measured drain rate
    /// ([`crate::metrics::Registry::suggested_retry_after_ms`]).
    pub retry_after_ms: u64,
    /// Deterministic fault injection for chaos runs
    /// (`snakes serve --fault-plan`); `None` in production.
    pub fault: Option<FaultConfig>,
    /// Durable data directory (`snakes serve --data-dir`). When set, the
    /// engine recovers drift sessions and idempotent responses from it at
    /// startup and write-ahead-logs every commit; `None` runs in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Autonomous reclustering (`snakes serve --auto-recluster`): when
    /// set, drift commits run the advisor's cost/benefit trigger and a
    /// sustained, amortizable layout gap starts a migration by itself.
    /// `None` leaves reclustering to explicit `recluster` requests.
    pub auto_recluster: Option<crate::engine::AutoRecluster>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            shards: 0,
            queue_capacity: 128,
            retry_after_ms: 50,
            fault: None,
            data_dir: None,
            auto_recluster: None,
        }
    }
}

/// One admitted unit of work.
struct Job {
    request: Request,
    endpoint: Endpoint,
    admitted: Instant,
    deadline: Deadline,
    reply: mpsc::Sender<Response>,
}

/// Why a job was refused at admission.
enum Refused {
    /// Queue at capacity.
    Full,
    /// The server is draining.
    Closed,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue. parking_lot has no condvar in this
/// workspace's vendored build, so the queue uses `std` primitives.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Admits `job` unless the queue is full or closed. Never blocks —
    /// this is the load-shedding point.
    fn try_push(&self, job: Job) -> Result<(), Refused> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(Refused::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// The next job, blocking while the queue is open and empty. `None`
    /// once the queue is closed *and* drained — workers therefore finish
    /// every admitted job before exiting.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Stops admission; queued jobs still drain.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Drops every job still queued, disconnecting their reply channels
    /// so blocked dispatchers answer in-band instead of hanging. With
    /// correctly draining workers this is a no-op; it is the backstop
    /// that turns a lost-job bug into a visible error.
    fn purge(&self) -> usize {
        let jobs: Vec<Job> = self
            .state
            .lock()
            .expect("queue lock")
            .jobs
            .drain(..)
            .collect();
        jobs.len()
    }
}

/// The transport-independent heart of a server: the engine, the admission
/// queue, and the drain flag. [`Server`] runs a `Core` behind a TCP
/// acceptor; the simulation harness ([`crate::sim`]) runs the same `Core`
/// behind in-memory pipes, so every admission, deadline, drain, and
/// panic-containment path under test is the production path.
#[derive(Clone)]
pub struct Core {
    engine: Arc<Engine>,
    queue: Arc<AdmissionQueue>,
    draining: Arc<AtomicBool>,
    retry_after_ms: u64,
}

impl Core {
    /// Spawns `workers` worker threads against a fresh admission queue and
    /// returns the core plus the worker handles (join them after
    /// [`Core::shutdown`] to complete a drain).
    pub fn start(
        engine: Engine,
        workers: usize,
        queue_capacity: usize,
        retry_after_ms: u64,
    ) -> (Core, Vec<std::thread::JoinHandle<()>>) {
        let engine = Arc::new(engine);
        let queue = Arc::new(AdmissionQueue::new(queue_capacity));
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("snakes-worker-{i}"))
                    .spawn(move || worker_loop(&engine, &queue))
                    .expect("spawn worker"),
            );
        }
        let core = Core {
            engine,
            queue,
            draining: Arc::new(AtomicBool::new(false)),
            retry_after_ms,
        };
        (core, threads)
    }

    /// The shared engine (caches, sessions, metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: admission stops, queued work finishes.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Drops any jobs still queued **after the workers have exited**.
    /// Normally a no-op (workers drain the queue before exiting); if a
    /// drain bug ever strands a job, this unblocks its dispatcher with an
    /// in-band `request dropped during drain` error instead of a hang,
    /// and the admitted/finished counters record the loss. Returns the
    /// number of stranded jobs.
    pub fn purge_queue(&self) -> usize {
        let stranded = self.queue.purge();
        self.engine
            .registry
            .queue_depth
            .fetch_sub(stranded as u64, Ordering::Relaxed);
        stranded
    }

    /// Serves one connection until end-of-stream, i/o error, or the first
    /// idle poll after a drain begins. Works over any buffered byte
    /// stream whose reads surface `WouldBlock`/`TimedOut` periodically
    /// (a TCP stream with a read timeout, or a sim pipe).
    pub fn serve_connection<R: BufRead, W: Write>(&self, reader: &mut R, writer: &mut W) {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match read_frame(reader, &mut buf, &self.draining) {
                Ok(LineOutcome::Eof) | Err(_) => return,
                Ok(LineOutcome::TooLong) => {
                    let body =
                        ServiceError::BadRequest(format!("line exceeds {MAX_LINE_BYTES} bytes"))
                            .to_body();
                    if write_response(writer, &Response::err(0, body)).is_err() {
                        return;
                    }
                    continue;
                }
                Ok(LineOutcome::Line) => {}
            }
            let text = match std::str::from_utf8(&buf) {
                Ok(t) => t.trim(),
                Err(_) => {
                    let body =
                        ServiceError::BadRequest("frame is not valid UTF-8".into()).to_body();
                    if write_response(writer, &Response::err(0, body)).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if text.is_empty() {
                continue;
            }
            let request = match Request::parse(text) {
                Ok(r) => r,
                Err(e) => {
                    let body =
                        ServiceError::BadRequest(format!("malformed request: {e}")).to_body();
                    if write_response(writer, &Response::err(0, body)).is_err() {
                        return;
                    }
                    continue;
                }
            };
            let response = self.dispatch(&request);
            if write_response(writer, &response).is_err() {
                return;
            }
        }
    }

    /// Admission and synchronous wait for one parsed request. The
    /// `shutdown` endpoint is handled here — it must work even when the
    /// queue is full. Every answer is projected into the request's
    /// protocol dialect ([`Response::for_version`]).
    pub fn dispatch(&self, request: &Request) -> Response {
        self.dispatch_inner(request).for_version(request.v)
    }

    fn dispatch_inner(&self, request: &Request) -> Response {
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&request.v) {
            return Response::err(
                request.id,
                ServiceError::BadRequest(format!(
                    "unsupported protocol version {} (this server speaks \
                     {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                    request.v
                ))
                .to_body(),
            );
        }
        let endpoint = Endpoint::of(&request.endpoint);
        if endpoint == Endpoint::Shutdown {
            self.shutdown();
            self.engine
                .registry
                .record_completion(endpoint, Duration::ZERO, true);
            return Response::ok(request.id);
        }
        let admitted = Instant::now();
        let deadline = Deadline::from_ms(admitted, request.deadline_ms);
        let (reply, inbox) = mpsc::channel();
        let job = Job {
            request: request.clone(),
            endpoint,
            admitted,
            deadline,
            reply,
        };
        // Count the job before pushing: the worker decrements at dequeue,
        // and it can pop the job before this thread resumes — counting
        // after a successful push underflowed the gauge in that window.
        let depth = &self.engine.registry.queue_depth;
        depth.fetch_add(1, Ordering::Relaxed);
        match self.queue.try_push(job) {
            Ok(()) => {
                self.engine
                    .registry
                    .admitted
                    .fetch_add(1, Ordering::Relaxed);
                match inbox.recv() {
                    Ok(response) => response,
                    // The job was dropped without a reply: report in-band,
                    // don't hang. With draining workers this is unreachable
                    // (the queue drains fully and panics are caught), but a
                    // response is owed no matter what.
                    Err(_) => Response::err(
                        request.id,
                        ServiceError::Protocol("request dropped during drain".into()).to_body(),
                    ),
                }
            }
            Err(refused) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                match refused {
                    Refused::Full => {
                        self.engine.registry.record_shed(endpoint);
                        // Scale the hint with the measured drain rate; the
                        // configured value is only the cold-start fallback.
                        let retry_after_ms = self.engine.registry.suggested_retry_after_ms(
                            depth.load(Ordering::Relaxed),
                            self.retry_after_ms,
                        );
                        Response::err(
                            request.id,
                            ServiceError::Overloaded { retry_after_ms }.to_body(),
                        )
                    }
                    Refused::Closed => {
                        Response::err(request.id, ServiceError::ShuttingDown.to_body())
                    }
                }
            }
        }
    }
}

/// A running server: its bound address, the sharded nonblocking core, and
/// the shard + acceptor threads.
pub struct Server {
    addr: SocketAddr,
    core: Arc<crate::shard::ShardedCore>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the shard event loops and the acceptor, and returns
    /// immediately. Requests are served by the nonblocking sharded core
    /// ([`crate::shard::ShardedCore`]); the blocking [`Core`] remains
    /// available as the conformance oracle.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor-construction failures.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let shards = if config.shards > 0 {
            config.shards
        } else if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Stripe the session registry exactly as the shards partition it:
        // stripe `i` is owned (exclusively, for the request path) by
        // shard `i`.
        let mut engine = Engine::with_limits(shards, config.queue_capacity);
        if let Some(fault) = config.fault.clone() {
            silence_injected_panics();
            engine = engine.with_fault(FaultPlan::new(fault));
        }
        if let Some(dir) = config.data_dir.clone() {
            engine = engine.with_durability(crate::durability::Media::Dir(dir))?;
        }
        if let Some(auto) = config.auto_recluster.clone() {
            engine = engine.with_auto_recluster(auto);
        }
        let sharded = crate::shard::ShardedConfig {
            shards,
            queue_capacity: config.queue_capacity,
            retry_after_ms: config.retry_after_ms,
        };
        let (core, mut threads) = crate::shard::ShardedCore::start(engine, &sharded, |_| {
            Ok(Box::new(crate::reactor::EpollReactor::new()?))
        })?;
        {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("snakes-acceptor".into())
                    .spawn(move || sharded_accept_loop(&listener, &core))
                    .expect("spawn acceptor"),
            );
        }
        Ok(Server {
            addr,
            core,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (caches, sessions, metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        self.core.engine()
    }

    /// Whether a drain has been requested (via [`Server::shutdown`], the
    /// `shutdown` endpoint, or SIGTERM).
    pub fn draining(&self) -> bool {
        self.core.draining()
    }

    /// Begins a graceful drain: admission stops, admitted work finishes.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }

    /// Drains and waits for every shard and the acceptor to exit.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// The fallback client backoff attached to shed responses (the live
    /// hint scales with the measured drain rate).
    pub fn retry_after_ms(&self) -> u64 {
        self.core.retry_after_ms()
    }
}

/// Accepts connections and hands each to the sharded core (round-robin
/// across shards). Exits once a drain begins.
fn sharded_accept_loop(listener: &TcpListener, core: &Arc<crate::shard::ShardedCore>) {
    loop {
        if core.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if let Ok(stream) = crate::reactor::TcpShardStream::new(stream) {
                    core.add_connection(Box::new(stream));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The human-facing description of a caught worker panic.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.downcast_ref::<InjectedPanic>().is_some() {
        "injected fault".into()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

fn worker_loop(engine: &Engine, queue: &AdmissionQueue) {
    while let Some(job) = queue.pop() {
        engine.registry.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let response = if job.deadline.expired() {
            // Expired while queued: fail without touching the engine.
            Response::err(job.request.id, ServiceError::DeadlineExceeded.to_body())
        } else {
            // Contain handler panics: the worker survives, keeps its queue
            // slot, and the client gets an in-band `internal` error. The
            // engine guards its own state for unwind safety (parking_lot
            // locks release on unwind; mutations are clone-then-commit).
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.handle(&job.request, &job.deadline)
            }));
            // Feed the drain-rate estimator that prices retry hints.
            engine.registry.record_service_time(started.elapsed());
            match result {
                Ok(response) => response,
                Err(payload) => {
                    engine.registry.record_panic_caught();
                    Response::err(
                        job.request.id,
                        ServiceError::HandlerPanic(panic_message(payload.as_ref())).to_body(),
                    )
                }
            }
        };
        if response
            .error
            .as_ref()
            .is_some_and(|e| e.code == "deadline_exceeded")
        {
            engine.registry.record_deadline(job.endpoint);
        }
        engine
            .registry
            .record_completion(job.endpoint, job.admitted.elapsed(), response.ok);
        // The connection may already be gone; dropping the reply is fine.
        let _ = job.reply.send(response);
        engine
            .registry
            .jobs_finished
            .fetch_add(1, Ordering::Relaxed);
        // The blocking oracle has no event-loop tick, so migrations ride
        // the request stream: one bounded chunk after each handled job.
        if engine.tick_reclusters(0, 1) > 0 {
            let _ = engine.flush_wal();
        }
    }
}

/// What [`read_frame`] produced.
enum LineOutcome {
    /// A complete line (newline included) is in the buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was discarded through its
    /// newline and the buffer is empty.
    TooLong,
    /// End-of-stream, or drain with no partial line pending.
    Eof,
}

/// Reads one newline-terminated frame into `buf`, tolerating the periodic
/// `WouldBlock`/`TimedOut` errors used to poll the drain flag. Partial
/// frames accumulate across polls so a slow writer is never corrupted;
/// frames beyond [`MAX_LINE_BYTES`] are discarded through their newline.
fn read_frame<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    draining: &AtomicBool,
) -> std::io::Result<LineOutcome> {
    let mut discarding = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Ok(LineOutcome::Eof),
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if draining.load(Ordering::SeqCst) && buf.is_empty() && !discarding {
                    return Ok(LineOutcome::Eof);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (consume, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if !discarding {
            buf.extend_from_slice(&chunk[..consume]);
            if buf.len() > MAX_LINE_BYTES {
                discarding = true;
                buf.clear();
            }
        }
        reader.consume(consume);
        if complete {
            return Ok(if discarding {
                LineOutcome::TooLong
            } else {
                LineOutcome::Line
            });
        }
    }
}

fn write_response<W: Write>(writer: &mut W, response: &Response) -> std::io::Result<()> {
    let mut line = response.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the drain flag.
    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub(super) fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub(super) fn install() {}
    pub(super) fn terminated() -> bool {
        false
    }
}

/// Runs a server until a `shutdown` request or SIGTERM/SIGINT arrives,
/// then drains and returns. With `metrics_every`, prints a one-line
/// metrics digest to stdout on that period. This is the body of
/// `snakes serve`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_forever(config: ServerConfig, metrics_every: Option<Duration>) -> std::io::Result<()> {
    sigterm::install();
    let server = Server::spawn(config)?;
    println!("listening on {}", server.local_addr());
    let mut last_tick = Instant::now();
    loop {
        if sigterm::terminated() || server.draining() {
            break;
        }
        if let Some(every) = metrics_every {
            if last_tick.elapsed() >= every {
                last_tick = Instant::now();
                println!("{}", metrics_digest(server.engine()));
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("draining");
    server.join();
    println!("stopped");
    Ok(())
}

/// A one-line human digest of the live metrics, used by the serve ticker.
pub fn metrics_digest(engine: &Engine) -> String {
    let stats = engine.stats_body();
    let mut parts = vec![format!(
        "up={}s queue={}/{} sessions={} sig-cache={}h/{}m memo={}h/{}m",
        stats.uptime_ms / 1000,
        stats.queue_depth,
        stats.queue_capacity,
        stats.sessions,
        stats.signature_cache.hits,
        stats.signature_cache.misses,
        stats.cost_memo.hits,
        stats.cost_memo.misses,
    )];
    for e in &stats.endpoints {
        if e.requests > 0 || e.shed > 0 {
            parts.push(format!(
                "{}: n={} err={} shed={} p50={}us p99={}us",
                e.endpoint, e.requests, e.errors, e.shed, e.p50_us, e.p99_us
            ));
        }
    }
    parts.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{SchemaSpec, WorkloadSpec};
    use snakes_core::lattice::LatticeShape;
    use snakes_core::schema::StarSchema;
    use snakes_core::workload::Workload;
    use std::io::BufReader;
    use std::net::TcpStream;

    fn toy_request() -> Request {
        let schema = StarSchema::paper_toy();
        let workload = Workload::uniform(LatticeShape::of_schema(&schema));
        Request::recommend(SchemaSpec::of(&schema), WorkloadSpec::of(&workload))
    }

    #[test]
    fn round_trip_over_loopback() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.call(toy_request()).unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        assert!(resp.recommendation.is_some());
        let pong = client.call(Request::new("ping")).unwrap();
        assert!(pong.ok);
        server.join();
    }

    #[test]
    fn malformed_lines_get_in_band_errors() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"this is not json\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Response::parse(&line).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().code, "bad_request");
        server.join();
    }

    #[test]
    fn shutdown_endpoint_drains() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let bye = client.call(Request::new("shutdown")).unwrap();
        assert!(bye.ok);
        let refused = client.call(toy_request()).unwrap();
        assert!(!refused.ok);
        assert_eq!(refused.error.unwrap().code, "shutting_down");
        server.join();
    }

    #[test]
    fn queued_deadline_zero_expires() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = toy_request();
        req.deadline_ms = Some(0);
        let resp = client.call(req).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().code, "deadline_exceeded");
        server.join();
    }
}
