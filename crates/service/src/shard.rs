//! The nonblocking sharded core: per-core event-loop shards, request
//! pipelining, cross-shard forwarding, and per-tick batching.
//!
//! Each shard is one thread running a readiness event loop over a
//! [`Reactor`]. A shard exclusively owns an accept-balanced set of
//! connections, a bounded run queue (the admission/shedding point), and
//! one stripe of the engine's drift-session registry
//! ([`snakes_core::session::session_shard`] maps a session name to its
//! stripe, and stripe `i` belongs to shard `i`). A `drift` request that
//! arrives on the wrong shard is forwarded to its owner over an SPSC
//! mailbox ([`crate::spsc`]) instead of taking a lock; the completion
//! flows back the same way and is spliced into the origin connection's
//! in-order response window.
//!
//! One tick of a shard:
//!
//! 1. wait for readiness (or a peer/acceptor wake),
//! 2. adopt newly accepted connections,
//! 3. drain peer mailboxes (forwarded jobs in, completions back),
//! 4. read every ready connection to `WouldBlock`, splitting the bytes
//!    into pipelined frames — each frame gets an ordered response slot;
//!    malformed frames are answered in-band in their slot and the
//!    connection stays usable,
//! 5. run the queue to completion, all jobs sharing one [`BatchScope`]
//!    (same-fingerprint `price`/`recommend` requests coalesce into one
//!    SignatureCache pass),
//! 6. flush the WAL — one fsync covers every commit of the tick
//!    (group commit), and **no response is released before it**,
//! 7. route completions (local slots, remote `Done` mailboxes) and flush
//!    each connection's contiguous ready prefix to its socket.
//!
//! The blocking `Core`/`serve_connection` stack stays in the tree as the
//! conformance oracle: every admission, deadline, shedding, drain,
//! idempotency and durability semantic here is defined by matching it.

use crate::engine::{BatchScope, Deadline, Engine};
use crate::error::ServiceError;
use crate::metrics::Endpoint;
use crate::protocol::{Request, Response, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
use crate::reactor::{Reactor, ShardStream, Waker};
use crate::server::{panic_message, MAX_LINE_BYTES};
use crate::spsc;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning for a sharded core.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (event-loop threads); must be ≥ 1.
    pub shards: usize,
    /// Per-shard run-queue capacity: the admission bound. A shard sheds
    /// (in-band `overloaded`) once this many of its admitted requests are
    /// in flight.
    pub queue_capacity: usize,
    /// Fallback backoff hint for shed responses, used until the measured
    /// drain rate produces a better one
    /// ([`crate::metrics::Registry::suggested_retry_after_ms`]).
    pub retry_after_ms: u64,
}

/// One parsed, admitted request and everything needed to answer it.
struct ShardJob {
    /// Shard that admitted the request (owns the connection).
    origin: usize,
    /// Connection id on the origin shard.
    conn: usize,
    /// Response-slot sequence on that connection.
    seq: u64,
    request: Request,
    endpoint: Endpoint,
    admitted: Instant,
    deadline: Deadline,
}

/// A message on a shard-to-shard mailbox.
enum Forward {
    /// A job whose session stripe the receiver owns.
    Job(Box<ShardJob>),
    /// A completed forwarded job, routed back to the origin shard. The
    /// response is already WAL-durable (the executor flushes before
    /// sending), so the origin may release it immediately.
    Done {
        conn: usize,
        seq: u64,
        response: Box<Response>,
    },
}

/// One in-order response slot of a pipelined connection.
enum Slot {
    /// The frame is still executing (possibly on another shard).
    Pending,
    /// The response is ready to be flushed once every earlier slot is.
    Ready(Box<Response>),
}

/// One nonblocking connection owned by a shard.
struct Conn {
    stream: Box<dyn ShardStream>,
    /// Unparsed input bytes.
    inbuf: Vec<u8>,
    /// Prefix of `inbuf` already scanned and known newline-free.
    scanned: usize,
    /// Inside an over-long frame: bytes are dropped through the next
    /// newline, which answers an in-band `bad_request`.
    discarding: bool,
    /// In-order response window; slot `i` answers frame `base_seq + i`.
    slots: VecDeque<Slot>,
    /// Sequence of `slots[0]`.
    base_seq: u64,
    /// Sequence the next parsed frame will get.
    next_seq: u64,
    /// Serialized-but-unwritten response bytes.
    outbuf: Vec<u8>,
    /// The peer half-closed its write side (EOF read).
    peer_closed: bool,
    /// Whether the reactor currently watches for write readiness.
    write_interest: bool,
    /// Last time bytes arrived; prices the drain grace window.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: Box<dyn ShardStream>) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            scanned: 0,
            discarding: false,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            outbuf: Vec::new(),
            peer_closed: false,
            write_interest: false,
            last_activity: Instant::now(),
        }
    }

    /// Whether the connection owes nothing: no pending or unflushed
    /// responses.
    fn idle(&self) -> bool {
        self.slots.is_empty() && self.outbuf.is_empty()
    }
}

/// What one parsed frame turned out to be.
enum Frame {
    /// A complete line (newline stripped not guaranteed — raw bytes).
    Line(Vec<u8>),
    /// An over-long frame was discarded through its newline.
    TooLong,
}

/// Splits as many complete frames as possible out of `conn.inbuf`,
/// honoring [`MAX_LINE_BYTES`] with discard-through-newline semantics
/// (mirrors the blocking core's `read_frame`). One scan over the new
/// bytes: frames are copied out from an offset, and the consumed prefix
/// is drained once at the end.
fn take_frames(conn: &mut Conn) -> Vec<Frame> {
    let mut frames = Vec::new();
    // Start of the first unconsumed byte; `conn.scanned` counts from here.
    let mut start = 0;
    loop {
        let pending = &conn.inbuf[start..];
        if conn.discarding {
            match pending.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    start += i + 1;
                    conn.scanned = 0;
                    conn.discarding = false;
                    frames.push(Frame::TooLong);
                }
                None => {
                    start = conn.inbuf.len();
                    conn.scanned = 0;
                    break;
                }
            }
        } else {
            match pending[conn.scanned..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let len = conn.scanned + rel + 1;
                    // An oversize line whose newline is already buffered
                    // is discarded in one step.
                    frames.push(if len > MAX_LINE_BYTES {
                        Frame::TooLong
                    } else {
                        Frame::Line(pending[..len].to_vec())
                    });
                    start += len;
                    conn.scanned = 0;
                }
                None => {
                    conn.scanned = pending.len();
                    if conn.scanned > MAX_LINE_BYTES {
                        start = conn.inbuf.len();
                        conn.scanned = 0;
                        conn.discarding = true;
                        continue;
                    }
                    break;
                }
            }
        }
    }
    conn.inbuf.drain(..start);
    frames
}

/// A shard's adoption inbox for freshly accepted connections. A plain
/// mutex (connection setup is rare; the request path never touches it).
type AdoptionInbox = Arc<Mutex<Vec<Box<dyn ShardStream>>>>;

/// The shared face of a running sharded core: accept-balances new
/// connections across shards and coordinates the drain.
pub struct ShardedCore {
    engine: Arc<Engine>,
    draining: Arc<AtomicBool>,
    /// Per-shard adoption inboxes for freshly accepted connections.
    inboxes: Vec<AdoptionInbox>,
    wakers: Vec<Waker>,
    /// Which shard threads are still running; a drained shard clears its
    /// flag before exiting so new connections are never stranded in a
    /// dead shard's inbox.
    live: Arc<Vec<AtomicBool>>,
    next_shard: AtomicUsize,
    retry_after_ms: u64,
}

impl ShardedCore {
    /// Spawns one event-loop thread per shard, each driving a reactor
    /// produced by `reactor_for(shard_index)`. Returns the shared handle
    /// plus the shard thread handles (join them after
    /// [`ShardedCore::shutdown`] to complete a drain).
    ///
    /// # Errors
    ///
    /// Propagates reactor construction failures.
    pub fn start<F>(
        engine: Engine,
        config: &ShardedConfig,
        mut reactor_for: F,
    ) -> io::Result<(Arc<ShardedCore>, Vec<std::thread::JoinHandle<()>>)>
    where
        F: FnMut(usize) -> io::Result<Box<dyn Reactor>>,
    {
        let shards = config.shards.max(1);
        // Amortize fsyncs across each tick's commits; responses are
        // withheld until the flush, so durability semantics are intact.
        engine.set_group_commit(true);
        let engine = Arc::new(engine);
        let draining = Arc::new(AtomicBool::new(false));
        let live: Arc<Vec<AtomicBool>> =
            Arc::new((0..shards).map(|_| AtomicBool::new(true)).collect());
        let in_flight = Arc::new(AtomicU64::new(0));
        let published: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());

        let mut reactors = Vec::with_capacity(shards);
        let mut wakers = Vec::with_capacity(shards);
        let mut inboxes = Vec::with_capacity(shards);
        for i in 0..shards {
            let reactor = reactor_for(i)?;
            wakers.push(reactor.waker());
            reactors.push(reactor);
            inboxes.push(Arc::new(Mutex::new(Vec::new())));
        }

        // One SPSC ring per directed shard pair. `producers[i][j]` is the
        // sending end of i→j; `consumers[j][i]` the receiving end.
        let ring_cap = config.queue_capacity.max(8);
        let mut producers: Vec<Vec<Option<spsc::Producer<Forward>>>> = (0..shards)
            .map(|_| (0..shards).map(|_| None).collect())
            .collect();
        let mut consumers: Vec<Vec<Option<spsc::Consumer<Forward>>>> = (0..shards)
            .map(|_| (0..shards).map(|_| None).collect())
            .collect();
        for i in 0..shards {
            for j in 0..shards {
                if i == j {
                    continue;
                }
                let (tx, rx) = spsc::ring(ring_cap);
                producers[i][j] = Some(tx);
                consumers[j][i] = Some(rx);
            }
        }

        let core = Arc::new(ShardedCore {
            engine: Arc::clone(&engine),
            draining: Arc::clone(&draining),
            inboxes: inboxes.clone(),
            wakers: wakers.clone(),
            live: Arc::clone(&live),
            next_shard: AtomicUsize::new(0),
            retry_after_ms: config.retry_after_ms,
        });

        let mut threads = Vec::with_capacity(shards);
        let mut producer_rows = producers.into_iter();
        let mut consumer_rows = consumers.into_iter();
        let mut reactor_iter = reactors.into_iter();
        for (me, inbox) in inboxes.iter().enumerate() {
            let mut shard = Shard {
                me,
                shards,
                engine: Arc::clone(&engine),
                reactor: reactor_iter.next().expect("reactor per shard"),
                draining: Arc::clone(&draining),
                inbox: Arc::clone(inbox),
                to_peers: producer_rows.next().expect("producer row"),
                from_peers: consumer_rows.next().expect("consumer row"),
                peer_wakers: wakers.clone(),
                published: Arc::clone(&published),
                in_flight: Arc::clone(&in_flight),
                live: Arc::clone(&live),
                conns: HashMap::new(),
                next_conn: 0,
                runq: VecDeque::new(),
                outbox: (0..shards).map(|_| VecDeque::new()).collect(),
                my_inflight: 0,
                queue_capacity: config.queue_capacity,
                retry_after_ms: config.retry_after_ms,
                drain_since: None,
                migrating: false,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("snakes-shard-{me}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard"),
            );
        }
        Ok((core, threads))
    }

    /// The shared engine (caches, sessions, metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: admission stops, every admitted request
    /// (local or forwarded) still gets its response, then the shard
    /// threads exit.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
    }

    /// Hands a new connection to the next live shard (round-robin accept
    /// balancing) and wakes it. Once every shard has drained and exited,
    /// the stream is simply dropped — closing it, which the peer observes
    /// as EOF — rather than stranded in a dead inbox.
    pub fn add_connection(&self, stream: Box<dyn ShardStream>) {
        let n = self.inboxes.len();
        for _ in 0..n {
            let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % n;
            if !self.live[shard].load(Ordering::SeqCst) {
                continue;
            }
            self.inboxes[shard].lock().expect("inbox lock").push(stream);
            self.wakers[shard].wake();
            if !self.live[shard].load(Ordering::SeqCst) {
                // The shard exited between the push and the re-check; its
                // final inbox sweep may have missed us. Reclaim and close
                // whatever is left so no peer waits on a dead shard.
                self.inboxes[shard].lock().expect("inbox lock").clear();
            }
            return;
        }
        // No live shard: dropping the stream closes it.
    }

    /// The configured fallback backoff hint for shed responses.
    pub fn retry_after_ms(&self) -> u64 {
        self.retry_after_ms
    }
}

/// The per-thread state of one shard.
struct Shard {
    me: usize,
    shards: usize,
    engine: Arc<Engine>,
    reactor: Box<dyn Reactor>,
    draining: Arc<AtomicBool>,
    inbox: Arc<Mutex<Vec<Box<dyn ShardStream>>>>,
    /// Sending ends of the i→j rings (`None` at `j == me`).
    to_peers: Vec<Option<spsc::Producer<Forward>>>,
    /// Receiving ends of the i→me rings (`None` at `i == me`).
    from_peers: Vec<Option<spsc::Consumer<Forward>>>,
    peer_wakers: Vec<Waker>,
    /// Per-shard published backlog (runq + outbox + own in-flight): the
    /// drain barrier. A shard may exit only when every entry is zero.
    published: Arc<Vec<AtomicU64>>,
    /// Messages currently inside SPSC rings (incremented before push,
    /// decremented after pop): closes the publish/consume race window in
    /// the drain barrier.
    in_flight: Arc<AtomicU64>,
    /// Per-shard liveness flags (see [`ShardedCore::add_connection`]).
    live: Arc<Vec<AtomicBool>>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    runq: VecDeque<ShardJob>,
    /// Undelivered forwards per target, retried when a ring was full.
    outbox: Vec<VecDeque<Forward>>,
    /// Requests this shard admitted that have not yet been answered
    /// (queued locally, executing, or awaiting a remote completion). The
    /// admission bound: at `queue_capacity`, new frames are shed.
    my_inflight: usize,
    queue_capacity: usize,
    retry_after_ms: u64,
    /// When the drain was first observed by this shard; prices the grace
    /// window during which idle connections still get `shutting_down`
    /// answers instead of a close (mirrors the blocking core's final
    /// 50 ms read-timeout poll).
    drain_since: Option<Instant>,
    /// Whether the last tick advanced a reclustering migration: keeps the
    /// event loop on the short wait so an idle server migrates at full
    /// speed instead of one chunk per 250 ms poll.
    migrating: bool,
}

/// How long a drained connection stays open for late frames before it is
/// closed — the blocking core's read-timeout poll interval.
const DRAIN_GRACE: Duration = Duration::from_millis(50);

impl Shard {
    fn run(&mut self) {
        let mut ready: Vec<usize> = Vec::new();
        let mut dead: Vec<usize> = Vec::new();
        loop {
            self.publish_backlog();
            let timeout =
                if self.draining() || self.migrating || self.outbox.iter().any(|q| !q.is_empty()) {
                    Duration::from_millis(5)
                } else {
                    Duration::from_millis(250)
                };
            ready.clear();
            if self.reactor.wait(timeout, &mut ready).is_err() {
                // A broken poller cannot serve; drain what we have.
                self.draining.store(true, Ordering::SeqCst);
            }

            if self.draining() && self.drain_since.is_none() {
                self.drain_since = Some(Instant::now());
            }
            self.adopt_new_connections(&mut ready);
            self.drain_peer_mailboxes();
            for token in std::mem::take(&mut ready) {
                self.service_readable(token);
            }
            let completions = self.execute_run_queue();
            self.release_completions(completions);
            // One bounded migration chunk per tick for each job this
            // shard's stripe owns, interleaved with request service; the
            // fence advance must be durable before the next wait.
            let stepped = self.engine.tick_reclusters(self.me, self.shards);
            if stepped > 0 {
                let _ = self.engine.flush_wal();
            }
            self.migrating = stepped > 0;
            self.flush_outboxes();
            dead.extend(self.conns.keys());
            dead.retain(|&id| !self.flush_connection(id));
            for id in dead.drain(..) {
                self.drop_connection(id);
            }

            if self.draining() && self.try_exit() {
                return;
            }
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn publish_backlog(&self) {
        let outboxed: usize = self.outbox.iter().map(VecDeque::len).sum();
        let backlog = (self.runq.len() + outboxed + self.my_inflight) as u64;
        self.published[self.me].store(backlog, Ordering::SeqCst);
    }

    /// Whether the drain has fully settled: nothing queued, outboxed, or
    /// in flight anywhere. Only then may this shard thread exit without
    /// stranding an admitted request.
    fn try_exit(&mut self) -> bool {
        if !self.runq.is_empty()
            || self.my_inflight != 0
            || self.outbox.iter().any(|q| !q.is_empty())
        {
            return false;
        }
        // Late messages may still sit in the rings; drain once more and
        // re-check from scratch if anything arrived.
        self.drain_peer_mailboxes();
        if !self.runq.is_empty() || self.in_flight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        self.publish_backlog();
        if self.published.iter().any(|p| p.load(Ordering::SeqCst) != 0) {
            return false;
        }
        // Settled — but linger until every connection has closed (peer
        // hangup, or idle past the drain grace window) so late frames
        // still get their `shutting_down` answers.
        if !self.conns.is_empty() {
            return false;
        }
        // Mark dead *before* the final inbox sweep: add_connection either
        // sees the flag and routes elsewhere, or its push is caught by
        // this sweep (or by its own re-check). Dropping the leftover
        // streams closes them.
        self.live[self.me].store(false, Ordering::SeqCst);
        self.inbox.lock().expect("inbox lock").clear();
        true
    }

    fn adopt_new_connections(&mut self, ready: &mut Vec<usize>) {
        let fresh: Vec<Box<dyn ShardStream>> =
            std::mem::take(&mut *self.inbox.lock().expect("inbox lock"));
        for mut stream in fresh {
            let id = self.next_conn;
            self.next_conn += 1;
            if self.reactor.register(id, stream.as_mut()).is_err() {
                continue; // the peer is already gone
            }
            self.conns.insert(id, Conn::new(stream));
            // Bytes may have landed before registration: read now.
            if !ready.contains(&id) {
                ready.push(id);
            }
        }
    }

    fn drain_peer_mailboxes(&mut self) {
        for origin in 0..self.shards {
            let mut batch = Vec::new();
            if let Some(rx) = self.from_peers[origin].as_mut() {
                while let Some(message) = rx.pop() {
                    batch.push(message);
                }
            }
            for message in batch {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                match message {
                    Forward::Job(job) => self.runq.push_back(*job),
                    Forward::Done {
                        conn,
                        seq,
                        response,
                    } => {
                        // The executor flushed its WAL before sending, so
                        // the response may be released immediately.
                        self.my_inflight -= 1;
                        self.fill_slot(conn, seq, *response);
                    }
                }
            }
        }
    }

    /// Reads a ready connection to `WouldBlock` and admits every complete
    /// frame. Unknown tokens (already-dropped connections, stale wakes)
    /// are ignored.
    fn service_readable(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        loop {
            match conn.stream.read_nb(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    // Parse per chunk so a hostile oversize line is
                    // discarded as it streams in instead of accumulating.
                    frames.append(&mut take_frames(conn));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Broken socket: nothing can be answered anymore.
                    self.drop_connection(token);
                    return;
                }
            }
        }
        for frame in frames {
            self.admit_frame(token, frame);
        }
    }

    /// Gives one frame its ordered response slot and either answers it
    /// in-band (malformed, version skew, draining, shed) or admits it.
    fn admit_frame(&mut self, token: usize, frame: Frame) {
        let line = match frame {
            Frame::TooLong => {
                let body = ServiceError::BadRequest(format!("line exceeds {MAX_LINE_BYTES} bytes"))
                    .to_body();
                self.answer_inline(token, Response::err(0, body));
                return;
            }
            Frame::Line(line) => line,
        };
        let text = match std::str::from_utf8(&line) {
            Ok(t) => t.trim(),
            Err(_) => {
                let body = ServiceError::BadRequest("frame is not valid UTF-8".into()).to_body();
                self.answer_inline(token, Response::err(0, body));
                return;
            }
        };
        if text.is_empty() {
            return; // blank keep-alive lines produce no response
        }
        let request = match Request::parse(text) {
            Ok(r) => r,
            Err(e) => {
                let body = ServiceError::BadRequest(format!("malformed request: {e}")).to_body();
                self.answer_inline(token, Response::err(0, body));
                return;
            }
        };
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&request.v) {
            let body = ServiceError::BadRequest(format!(
                "unsupported protocol version {} (this server speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                request.v
            ))
            .to_body();
            self.answer_inline(token, Response::err(request.id, body));
            return;
        }
        let endpoint = Endpoint::of(&request.endpoint);
        if endpoint == Endpoint::Shutdown {
            // Must work even under full queues: flip the global drain
            // flag and wake every shard.
            self.draining.store(true, Ordering::SeqCst);
            for w in &self.peer_wakers {
                w.wake();
            }
            self.engine
                .registry
                .record_completion(endpoint, Duration::ZERO, true);
            self.answer_inline(token, Response::ok(request.id).for_version(request.v));
            return;
        }
        if self.draining() {
            self.answer_inline(
                token,
                Response::err(request.id, ServiceError::ShuttingDown.to_body())
                    .for_version(request.v),
            );
            return;
        }
        if self.my_inflight >= self.queue_capacity {
            // The load-shedding point. The hint scales with the measured
            // drain rate so pipelined bursts back off proportionally; only
            // this shard's own run queue stands ahead of a retry here.
            self.engine.registry.record_shed(endpoint);
            let retry_after_ms = self
                .engine
                .registry
                .suggested_retry_after_ms(self.runq.len() as u64, self.retry_after_ms);
            self.answer_inline(
                token,
                Response::err(
                    request.id,
                    ServiceError::Overloaded { retry_after_ms }.to_body(),
                )
                .for_version(request.v),
            );
            return;
        }
        // Admitted: the deadline starts now, and exactly one response is
        // owed from here on (the sim's first invariant).
        let admitted = Instant::now();
        let deadline = Deadline::from_ms(admitted, request.deadline_ms);
        let seq = self.open_slot(token);
        self.engine
            .registry
            .admitted
            .fetch_add(1, Ordering::Relaxed);
        self.engine
            .registry
            .queue_depth
            .fetch_add(1, Ordering::Relaxed);
        self.my_inflight += 1;
        let job = ShardJob {
            origin: self.me,
            conn: token,
            seq,
            request,
            endpoint,
            admitted,
            deadline,
        };
        let target = self.job_target(&job);
        if target == self.me {
            self.runq.push_back(job);
        } else {
            self.outbox[target].push_back(Forward::Job(Box::new(job)));
        }
    }

    /// The shard that must execute `job`: drift requests go to their
    /// session's stripe owner, recluster control frames go to the shard
    /// whose tick owns the job's stripe (so start/status/abort serialize
    /// with the migration steps), everything else runs where it arrived.
    fn job_target(&self, job: &ShardJob) -> usize {
        let stickied = matches!(
            job.endpoint,
            Endpoint::Drift
                | Endpoint::Recluster
                | Endpoint::ReclusterStatus
                | Endpoint::ReclusterAbort
        );
        if stickied {
            if let Some(name) = job.request.session.as_deref() {
                return snakes_core::session::session_shard(name, self.shards);
            }
        }
        self.me
    }

    /// Opens the next in-order response slot on `token`.
    fn open_slot(&mut self, token: usize) -> u64 {
        let conn = self.conns.get_mut(&token).expect("conn exists");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.slots.push_back(Slot::Pending);
        seq
    }

    /// Answers a frame immediately (no admission): opens its slot and
    /// fills it in one step, keeping pipelined ordering intact.
    fn answer_inline(&mut self, token: usize, response: Response) {
        let seq = self.open_slot(token);
        self.fill_slot(token, seq, response);
    }

    fn fill_slot(&mut self, token: usize, seq: u64, response: Response) {
        // The connection may have died while the job executed; the
        // response is then dropped, exactly like the blocking core
        // dropping a reply to a closed channel.
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let idx = (seq - conn.base_seq) as usize;
        conn.slots[idx] = Slot::Ready(Box::new(response));
    }

    /// Runs the queue to completion. All jobs of the tick share one
    /// [`BatchScope`]; completions are *returned*, not released — the
    /// caller flushes the WAL first.
    fn execute_run_queue(&mut self) -> Vec<(ShardJob, Response)> {
        let mut done = Vec::with_capacity(self.runq.len());
        let mut scope = BatchScope::new();
        while let Some(job) = self.runq.pop_front() {
            self.engine
                .registry
                .queue_depth
                .fetch_sub(1, Ordering::Relaxed);
            let response = if job.deadline.expired() {
                // Expired while queued (or in a mailbox): fail without
                // touching the engine.
                Response::err(job.request.id, ServiceError::DeadlineExceeded.to_body())
            } else {
                let started = Instant::now();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.engine
                        .handle_batched(&job.request, &job.deadline, &mut scope)
                }));
                self.engine.registry.record_service_time(started.elapsed());
                match result {
                    Ok(response) => response,
                    Err(payload) => {
                        self.engine.registry.record_panic_caught();
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
                self.engine.registry.record_deadline(job.endpoint);
            }
            self.engine.registry.record_completion(
                job.endpoint,
                job.admitted.elapsed(),
                response.ok,
            );
            self.engine
                .registry
                .jobs_finished
                .fetch_add(1, Ordering::Relaxed);
            // Answer in the dialect the request spoke (v1 clients never
            // see v2-only fields).
            let response = response.for_version(job.request.v);
            done.push((job, response));
        }
        done
    }

    /// Makes the tick's commits durable, then releases its responses:
    /// local ones into their slots, remote ones into `Done` mailboxes.
    fn release_completions(&mut self, completions: Vec<(ShardJob, Response)>) {
        if completions.is_empty() {
            return;
        }
        let flushed = self.engine.flush_wal();
        for (job, mut response) in completions {
            if let Err(e) = &flushed {
                // Group-commit fsync failed: the tick's commits are NOT
                // durable and must not be acknowledged as if they were.
                // The WAL is poisoned (fail-stop), so replacing every
                // response with an in-band `internal` error converges
                // with what per-append sync would have produced.
                if response.ok {
                    let err = io::Error::new(e.kind(), format!("wal flush failed: {e}"));
                    response = Response::err(response.id, ServiceError::Io(err).to_body());
                }
            }
            if job.origin == self.me {
                self.my_inflight -= 1;
                self.fill_slot(job.conn, job.seq, response);
            } else {
                self.outbox[job.origin].push_back(Forward::Done {
                    conn: job.conn,
                    seq: job.seq,
                    response: Box::new(response),
                });
            }
        }
    }

    /// Pushes as much outboxed traffic as the rings accept and wakes the
    /// receiving shards. Full rings keep their backlog here for the next
    /// tick (the short-timeout wait retries promptly).
    fn flush_outboxes(&mut self) {
        for target in 0..self.shards {
            if self.outbox[target].is_empty() {
                continue;
            }
            let Some(tx) = self.to_peers[target].as_mut() else {
                continue;
            };
            let mut sent = false;
            while let Some(message) = self.outbox[target].pop_front() {
                // Count the message as in flight *before* the push so the
                // drain barrier can never observe it nowhere.
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                match tx.push(message) {
                    Ok(()) => sent = true,
                    Err(spsc::PushError(message)) => {
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                        self.outbox[target].push_front(message);
                        break;
                    }
                }
            }
            if sent {
                self.peer_wakers[target].wake();
            }
        }
    }

    /// Serializes the connection's contiguous ready prefix and writes as
    /// much as the socket accepts. Returns `false` when the connection is
    /// finished (broken pipe, or closed and idle) and must be dropped.
    fn flush_connection(&mut self, token: usize) -> bool {
        let drain_grace_over = self.draining()
            && self
                .drain_since
                .is_some_and(|since| since.elapsed() >= DRAIN_GRACE);
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        while let Some(Slot::Ready(_)) = conn.slots.front() {
            let Some(Slot::Ready(response)) = conn.slots.pop_front() else {
                unreachable!("front checked above");
            };
            conn.base_seq += 1;
            response.write_line(&mut conn.outbuf);
        }
        while !conn.outbuf.is_empty() {
            match conn.stream.write_nb(&conn.outbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let want_write = !conn.outbuf.is_empty();
        if want_write != conn.write_interest
            && self
                .reactor
                .set_write_interest(token, conn.stream.as_ref(), want_write)
                .is_ok()
        {
            conn.write_interest = want_write;
        }
        if conn.peer_closed && conn.idle() {
            return false;
        }
        if drain_grace_over && conn.idle() && conn.last_activity.elapsed() >= DRAIN_GRACE {
            // Drained and quiet past the grace window: close out. A frame
            // arriving inside the window still gets its `shutting_down`
            // answer, exactly like the oracle's last read-timeout poll.
            return false;
        }
        true
    }

    fn drop_connection(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(token, conn.stream.as_ref());
            // Pending slots die with the connection; their jobs still
            // run to completion wherever they are (the admitted ==
            // finished invariant is about work, not sockets).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_with(bytes: &[u8]) -> Conn {
        struct NullStream;
        impl ShardStream for NullStream {
            fn read_nb(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
            fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
        }
        let mut conn = Conn::new(Box::new(NullStream));
        conn.inbuf.extend_from_slice(bytes);
        conn
    }

    #[test]
    fn take_frames_splits_pipelined_lines() {
        let mut conn = conn_with(b"alpha\nbeta\ngam");
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 2);
        assert!(matches!(&frames[0], Frame::Line(l) if l == b"alpha\n"));
        assert!(matches!(&frames[1], Frame::Line(l) if l == b"beta\n"));
        assert_eq!(conn.inbuf, b"gam", "partial tail stays buffered");
        // The tail completes on the next read.
        conn.inbuf.extend_from_slice(b"ma\n");
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Line(l) if l == b"gamma\n"));
        assert!(conn.inbuf.is_empty());
    }

    #[test]
    fn take_frames_discards_oversized_lines_through_their_newline() {
        let mut conn = conn_with(b"ok-1\n");
        conn.inbuf
            .extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 10]);
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 1, "the oversize tail is still open");
        assert!(matches!(&frames[0], Frame::Line(l) if l == b"ok-1\n"));
        assert!(conn.discarding);
        assert!(conn.inbuf.is_empty(), "discarded bytes are not retained");
        // More garbage, then the newline, then a healthy frame: exactly
        // one TooLong marker and the healthy frame survive, in order.
        conn.inbuf.extend_from_slice(b"yyyy\nok-2\n");
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 2);
        assert!(matches!(&frames[0], Frame::TooLong));
        assert!(matches!(&frames[1], Frame::Line(l) if l == b"ok-2\n"));
        assert!(!conn.discarding);
    }

    #[test]
    fn take_frames_handles_exact_boundary() {
        // A line of exactly MAX_LINE_BYTES (incl. newline) is legal.
        let mut line = vec![b'a'; MAX_LINE_BYTES - 1];
        line.push(b'\n');
        let mut conn = conn_with(&line);
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Line(l) if l.len() == MAX_LINE_BYTES));
    }

    #[test]
    fn take_frames_rejects_complete_oversized_lines() {
        // One byte past the cap, newline already buffered: the whole line
        // is discarded and flagged, and the following frame still parses.
        let mut payload = vec![b'a'; MAX_LINE_BYTES];
        payload.push(b'\n');
        payload.extend_from_slice(b"ok\n");
        let mut conn = conn_with(&payload);
        let frames = take_frames(&mut conn);
        assert_eq!(frames.len(), 2);
        assert!(matches!(&frames[0], Frame::TooLong));
        assert!(matches!(&frames[1], Frame::Line(l) if l == b"ok\n"));
        assert!(conn.inbuf.is_empty());
        assert!(!conn.discarding);
    }
}
