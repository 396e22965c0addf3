//! The three workloads against a live daemon: set-up, timed phases, and
//! the correctness gates. Each returns a [`Run`] holding what the
//! end-to-end metrics and the traced replay need.

use crate::daemon::Daemon;
use crate::inputs::{self, Call, Stream};
use crate::loadgen::{closed_loop, open_loop, Phase, Policy};
use crate::oracle::{self, Sessions, Tables};
use snakes_core::lattice::LatticeShape;
use snakes_core::workload::Workload;
use snakes_service::protocol::{SchemaSpec, StatsBody, WorkloadSpec};
use snakes_service::{Client, Request, Response};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What every workload run needs to know.
pub struct Ctx {
    pub snakes: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setups: usize,
    /// Traced runs bound every closed loop by request count instead of
    /// time, so the daemon's counters repeat exactly from run to run.
    pub traced: bool,
}

impl Ctx {
    /// `(duration, request cap)` of a closed loop: `seconds` of load, or
    /// exactly `traced_count` requests in a traced run.
    fn closed_bound(&self, seconds: f64, pool: usize, traced_count: usize) -> (Duration, usize) {
        if self.traced {
            (Duration::from_secs(3600), traced_count.min(pool))
        } else {
            (Duration::from_secs_f64(seconds), pool)
        }
    }
}

/// One named correctness gate and its verdict.
pub struct Gate {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

fn gate(gates: &mut Vec<Gate>, name: &str, pass: bool, detail: String) {
    gates.push(Gate {
        name: name.into(),
        pass,
        detail,
    });
}

/// Everything one workload run observed.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The open-loop phase, when the workload has one.
    pub open: Option<Phase>,
    /// Whether the latency metrics come from the open loop (else from the
    /// closed loop).
    pub open_latency: bool,
    /// The closed-loop phase throughput and daemon CPU are taken from.
    pub closed: Phase,
    /// Every phase's `(sent, failed, request bytes, response bytes)`.
    pub totals: (usize, usize, u64, u64),
    /// Failed answers by error code, over every phase.
    pub failures: std::collections::BTreeMap<String, usize>,
    pub migration_s: f64,
    pub rss_kib: u64,
    /// Daemon `stats` right before the timed phases, right after them,
    /// and at the very end of the run.
    pub before: StatsBody,
    pub after: StatsBody,
    pub end: StatsBody,
    /// `stats` around the closed-loop phase.
    pub closed_before: StatsBody,
    pub gates: Vec<Gate>,
    pub timer_slack_ns: u64,
    /// The streams sent, for the traced replay.
    pub streams: Vec<Stream>,
    /// Response lines kept from the phases, for encode timing.
    pub kept_lines: Vec<String>,
    /// The earlier generation's data directory (durable_mixed only).
    pub template: Option<PathBuf>,
}

fn call_ok(client: &mut Client, req: Request) -> io::Result<Response> {
    let resp = client
        .call(req)
        .map_err(|e| io::Error::other(e.to_string()))?;
    if !resp.ok {
        return Err(io::Error::other(format!(
            "set-up request failed: {:?}",
            resp.error
        )));
    }
    Ok(resp)
}

/// A seeded sample of request indices (about one in `every`).
fn sampled(seed: u64, i: usize, every: u64) -> bool {
    let mut rng = crate::stats::Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    rng.below(every) == 0
}

fn cpu_reader(daemon: &Daemon) -> impl Fn() -> u64 + Sync {
    let pid = daemon.pid;
    move || crate::daemon::cpu_ns(pid).unwrap_or(0)
}

const WINDOW: Duration = Duration::from_secs(1);

/// Starts the reference migration job on an otherwise idle daemon and
/// polls it every 2 ms until it reports `done`. Returns seconds from
/// the start request to the first `done` status.
fn idle_migration(daemon: &Daemon, gates: &mut Vec<Gate>) -> io::Result<f64> {
    let mut client = daemon.client()?;
    crate::loadgen::tighten_timer_slack();
    let t = Instant::now();
    call_ok(&mut client, inputs::migration_request(0))?;
    for poll in 1u32.. {
        let resp = call_ok(&mut client, Request::recluster_status(inputs::JOB))?;
        let body = resp.recluster.expect("status body");
        if body.state == "done" {
            let secs = t.elapsed().as_secs_f64();
            gate(
                gates,
                "migration_done_with_every_probe",
                body.probes == body.chunks_applied && body.chunks_applied > 0,
                format!("{} chunks, {} probes", body.chunks_applied, body.probes),
            );
            return Ok(secs);
        }
        if t.elapsed() > Duration::from_secs(90) || body.state != "running" {
            return Err(io::Error::other(format!(
                "migration did not finish: {}",
                body.state
            )));
        }
        // Polls on a fixed 2 ms grid: each one is an event-loop tick, so
        // the poll rate, not the idle wait, paces the migration.
        let due = t + IDLE_POLL * poll;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    unreachable!("the poll loop only exits by returning")
}

const IDLE_POLL: Duration = Duration::from_millis(2);

/// Checks every kept answer against the library; `calls[i % len]` is
/// what request `i` asked.
fn check_kept(
    phase: &Phase,
    calls: &[Call],
    gates: &mut Vec<Gate>,
    name: &str,
    mut extra: impl FnMut(usize, &Response) -> Result<(), String>,
) {
    let mut tables = Tables::default();
    let mut checked = 0;
    let mut first_error = None;
    for (i, _, line) in &phase.kept {
        let call = &calls[i % calls.len()];
        if !(call.is_price() || matches!(call, Call::Recommend { .. })) {
            continue;
        }
        let verdict = Response::parse(line)
            .map_err(|e| format!("unparseable answer: {e}"))
            .and_then(|resp| {
                oracle::check_answer(call, &resp, &mut tables)?;
                extra(*i, &resp)
            });
        checked += 1;
        if let Err(e) = verdict {
            first_error.get_or_insert(format!("request {i}: {e}"));
        }
    }
    gate(
        gates,
        name,
        checked > 0 && first_error.is_none(),
        first_error.unwrap_or(format!("{checked} answers bit-identical")),
    );
}

fn totals(phases: &[&Phase]) -> (usize, usize, u64, u64) {
    phases.iter().fold((0, 0, 0, 0), |acc, p| {
        (
            acc.0 + p.sent,
            acc.1 + p.failed,
            acc.2 + p.request_bytes,
            acc.3 + p.response_bytes,
        )
    })
}

fn failures(phases: &[&Phase]) -> std::collections::BTreeMap<String, usize> {
    let mut all = std::collections::BTreeMap::new();
    for (code, n) in phases.iter().flat_map(|p| &p.failures) {
        *all.entry(code.clone()).or_default() += n;
    }
    all
}

fn kept_lines(phases: &[&Phase]) -> Vec<String> {
    phases
        .iter()
        .flat_map(|p| p.kept.iter().map(|(_, _, l)| l.trim_end().to_string()))
        .collect()
}

// ---------------------------------------------------------------------
// price_hot
// ---------------------------------------------------------------------

/// Open-loop rate of `price_hot` (requests/s): well under the ~45k/s a
/// single shard sustains, so no backlog builds.
pub const HOT_RATE: f64 = 8000.0;
pub const HOT_WINDOW: usize = 16;
const HOT_POOL: usize = 1 << 15;

pub fn price_hot(ctx: &Ctx) -> io::Result<Run> {
    let hot = inputs::price_hot(ctx.seed, HOT_POOL);
    let shape = LatticeShape::of_schema(&hot.schema);
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..ctx.setups {
        let t = Instant::now();
        let daemon = Daemon::spawn(&ctx.snakes, &[])?;
        let mut client = daemon.client()?;
        for strategy in &hot.setup {
            call_ok(
                &mut client,
                Request::price(
                    SchemaSpec::of(&hot.schema),
                    WorkloadSpec::of(&Workload::uniform(shape.clone())),
                    strategy.spec(),
                ),
            )?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        drop(client);
        if k + 1 == ctx.setups {
            live = Some(daemon);
        } else {
            daemon.shutdown()?;
        }
    }
    let daemon = live.expect("at least one set-up");
    let cpu = cpu_reader(&daemon);
    let seed = ctx.seed;
    let keep = move |i: usize| sampled(seed, i, 512);
    let policy = Policy {
        keep: &keep,
        timed: &|_| true,
        cpu: &cpu,
        window: WINDOW,
    };
    let before = daemon.stats()?;
    let half = ctx.seconds / 2.0;
    let count = (HOT_RATE * half) as usize;
    // The first half second warms the connection and the caches; it is
    // sent and checked but not timed.
    let warmup = (HOT_RATE * 0.5) as usize;
    let after_warmup = move |i: usize| i >= warmup;
    let (open, slack) = open_loop(
        daemon.addr,
        &hot.stream.frames,
        HOT_RATE,
        warmup + count,
        &Policy {
            timed: &after_warmup,
            ..policy
        },
    )?;
    let closed_before = daemon.stats()?;
    let (duration, cap) = ctx.closed_bound(half, usize::MAX, count + warmup);
    let closed = closed_loop(
        daemon.addr,
        &hot.stream.frames,
        HOT_WINDOW,
        duration,
        cap,
        &policy,
    )?;
    let after = daemon.stats()?;
    let rss_kib = daemon.vm_hwm_kib()?;
    let mut gates = Vec::new();
    let migration_s = idle_migration(&daemon, &mut gates)?;
    let end = daemon.stats()?;
    daemon.shutdown()?;

    let calls = &hot.stream.calls;
    for (phase, name) in [
        (&open, "open_answers_match_library"),
        (&closed, "closed_answers_match_library"),
    ] {
        check_kept(phase, calls, &mut gates, name, |i, resp| {
            let hit = resp.price.as_ref().is_some_and(|p| p.cache_hit);
            let v1 = i % inputs::PRICE_HOT_V1_EVERY == inputs::PRICE_HOT_V1_EVERY - 1;
            match (hit, resp.v == if v1 { 1 } else { 2 }) {
                (true, true) => Ok(()),
                (false, _) => Err("timed price missed the signature cache".into()),
                (_, false) => Err(format!("answered in dialect v{}", resp.v)),
            }
        });
    }
    gate(
        &mut gates,
        "sigcache_misses_equal_setup_keys",
        after.signature_cache.misses == hot.setup.len() as u64,
        format!(
            "{} misses, {} setup keys",
            after.signature_cache.misses,
            hot.setup.len()
        ),
    );
    let coalesced = after.batching.coalesced - before.batching.coalesced;
    gate(
        &mut gates,
        "nothing_coalesced",
        coalesced == 0,
        format!("{coalesced} coalesced"),
    );
    Ok(Run {
        setup_s,
        totals: totals(&[&open, &closed]),
        failures: failures(&[&open, &closed]),
        kept_lines: kept_lines(&[&open, &closed]),
        open: Some(open),
        open_latency: true,
        closed,
        migration_s,
        rss_kib,
        before,
        after,
        end,
        closed_before,
        gates,
        timer_slack_ns: slack,
        streams: vec![hot.stream],
        template: None,
    })
}

// ---------------------------------------------------------------------
// advise_cold
// ---------------------------------------------------------------------

const COLD_POOL: usize = 24_000;
/// Requests in a traced `advise_cold` run (half of them prices).
const COLD_TRACED: usize = 2000;

pub fn advise_cold(ctx: &Ctx) -> io::Result<Run> {
    let stream = inputs::advise_cold(ctx.seed, COLD_POOL);
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..ctx.setups {
        let t = Instant::now();
        let daemon = Daemon::spawn(&ctx.snakes, &[])?;
        call_ok(&mut daemon.client()?, Request::new("ping"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 == ctx.setups {
            live = Some(daemon);
        } else {
            daemon.shutdown()?;
        }
    }
    let daemon = live.expect("at least one set-up");
    let cpu = cpu_reader(&daemon);
    let seed = ctx.seed;
    let keep = move |i: usize| sampled(seed, i, 128);
    let policy = Policy {
        keep: &keep,
        timed: &|_| true,
        cpu: &cpu,
        window: WINDOW,
    };
    let before = daemon.stats()?;
    let (duration, cap) = ctx.closed_bound(ctx.seconds, COLD_POOL, COLD_TRACED);
    let closed = closed_loop(daemon.addr, &stream.frames, 1, duration, cap, &policy)?;
    let after = daemon.stats()?;
    let rss_kib = daemon.vm_hwm_kib()?;
    let mut gates = Vec::new();
    let migration_s = idle_migration(&daemon, &mut gates)?;
    let end = daemon.stats()?;
    daemon.shutdown()?;

    check_kept(
        &closed,
        &stream.calls,
        &mut gates,
        "answers_match_library",
        |_, resp| match &resp.price {
            Some(p) if p.cache_hit => Err("cold price hit the signature cache".into()),
            _ => Ok(()),
        },
    );
    let prices = (0..closed.sent)
        .filter(|&i| stream.calls[i].is_price())
        .count() as u64;
    let misses = after.signature_cache.misses - before.signature_cache.misses;
    gate(
        &mut gates,
        "every_price_misses",
        misses == prices && closed.sent < COLD_POOL,
        format!("{misses} misses, {prices} timed prices"),
    );
    Ok(Run {
        setup_s,
        totals: totals(&[&closed]),
        failures: failures(&[&closed]),
        kept_lines: kept_lines(&[&closed]),
        open: None,
        open_latency: false,
        closed,
        migration_s,
        rss_kib,
        closed_before: before.clone(),
        before,
        after,
        end,
        gates,
        timer_slack_ns: crate::loadgen::timer_slack_ns(),
        streams: vec![stream],
        template: None,
    })
}

// ---------------------------------------------------------------------
// durable_mixed
// ---------------------------------------------------------------------

/// Open-loop rate of `durable_mixed` (requests/s, status polls included).
pub const DURABLE_RATE: f64 = 400.0;
pub const DURABLE_WINDOW: usize = 4;
/// Share of the run spent in the open loop (the rest is closed-loop).
const DURABLE_OPEN_SHARE: f64 = 0.7;
const DURABLE_CLOSED_POOL: usize = 16_000;
/// Closed-loop requests in a traced `durable_mixed` run.
const DURABLE_TRACED: usize = 2000;

/// Replaces `to` with a copy of the flat directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn data_dir_flag(dir: &Path) -> Vec<String> {
    vec!["--data-dir".into(), dir.display().to_string()]
}

/// Seeds `dir` the way an earlier daemon generation leaves it: sessions
/// created and drifted with idempotency keys, then the daemon SIGKILLed.
fn seed_generation(ctx: &Ctx, dir: &Path, history: &inputs::SeedHistory) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let daemon = Daemon::spawn(&ctx.snakes, &data_dir_flag(dir))?;
    let mut client = daemon.client()?;
    for req in &history.requests {
        call_ok(&mut client, req.clone())?;
    }
    drop(client);
    daemon.kill()
}

pub fn durable_mixed(ctx: &Ctx) -> io::Result<Run> {
    let history = inputs::seed_history(ctx.seed);
    let template = ctx.work.join("durable-template");
    seed_generation(ctx, &template, &history)?;
    let open_secs = ctx.seconds * DURABLE_OPEN_SHARE;
    let open_n = (DURABLE_RATE * open_secs) as usize;
    let open_stream = inputs::durable_mixed(ctx.seed, open_n, true, 1);
    let closed_stream =
        inputs::durable_mixed(ctx.seed, DURABLE_CLOSED_POOL, false, open_n as u64 + 1);

    let dir = ctx.work.join("durable-live");
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..ctx.setups {
        copy_dir(&template, &dir)?;
        let t = Instant::now();
        let daemon = Daemon::spawn(&ctx.snakes, &data_dir_flag(&dir))?;
        let before = daemon.stats()?;
        let mut client = daemon.client()?;
        let started = Instant::now();
        call_ok(&mut client, inputs::migration_request(0))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 == ctx.setups {
            live = Some((daemon, before, started));
        } else {
            drop(client);
            daemon.shutdown()?;
        }
    }
    let (daemon, before, migration_started) = live.expect("at least one set-up");
    let cpu = cpu_reader(&daemon);
    let seed = ctx.seed;
    let open_calls = &open_stream.calls;
    let keep_open = |i: usize| !open_calls[i].is_price() || sampled(seed, i, 24);
    let timed_open = |i: usize| !matches!(open_calls[i], Call::Status);
    let (open, slack) = open_loop(
        daemon.addr,
        &open_stream.frames,
        DURABLE_RATE,
        open_n,
        &Policy {
            keep: &keep_open,
            timed: &timed_open,
            cpu: &cpu,
            window: WINDOW,
        },
    )?;
    let mut gates = Vec::new();
    // The first `done` status the stream saw ends the migration; a job
    // outlasting the stream is polled on to completion.
    let done_at = open.kept.iter().find_map(|(i, at, line)| {
        (matches!(open_calls[*i], Call::Status) && line.contains("\"state\":\"done\""))
            .then_some(*at)
    });
    let migration_s = match done_at {
        Some(at) => {
            // `at` counts from the stream's clock origin.
            let origin = open.origin.expect("open loop records its origin");
            (origin - migration_started).as_secs_f64() + at as f64 / 1e9
        }
        None => {
            let mut client = daemon.client()?;
            loop {
                let resp = call_ok(&mut client, Request::recluster_status(inputs::JOB))?;
                if resp.recluster.as_ref().is_some_and(|b| b.state == "done") {
                    break migration_started.elapsed().as_secs_f64();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    gate(
        &mut gates,
        "migration_done_within_stream",
        done_at.is_some(),
        format!("{migration_s:.3} s"),
    );
    let closed_before = daemon.stats()?;
    let closed_calls = &closed_stream.calls;
    let keep_closed = |i: usize| !closed_calls[i].is_price() || sampled(seed, i, 48);
    let (duration, cap) =
        ctx.closed_bound(ctx.seconds - open_secs, DURABLE_CLOSED_POOL, DURABLE_TRACED);
    let closed = closed_loop(
        daemon.addr,
        &closed_stream.frames,
        DURABLE_WINDOW,
        duration,
        cap,
        &Policy {
            keep: &keep_closed,
            timed: &|_| true,
            cpu: &cpu,
            window: WINDOW,
        },
    )?;
    let after = daemon.stats()?;
    let rss_kib = daemon.vm_hwm_kib()?;
    let status = call_ok(
        &mut daemon.client()?,
        Request::recluster_status(inputs::JOB),
    )?;
    let job = status.recluster.expect("status body");
    gate(
        &mut gates,
        "migration_done_with_every_probe",
        job.state == "done" && job.probes == job.chunks_applied && job.chunks_applied > 0,
        format!(
            "{} after {} chunks, {} probes",
            job.state, job.chunks_applied, job.probes
        ),
    );

    // Every drift answer, in send order, against the library's sessions.
    let mut sessions = Sessions::new(inputs::session_schema(), &history.initial);
    for call in &history.calls {
        sessions.apply(call);
    }
    sessions.restart();
    // Per session, the last acknowledged keyed drift and its answer.
    let mut last_keyed: Vec<Option<(Request, Response)>> = vec![None; inputs::SESSIONS];
    let mut drift_error = None;
    let mut drifts = 0;
    for (phase, stream) in [(&open, &open_stream), (&closed, &closed_stream)] {
        let lines: std::collections::HashMap<usize, &String> =
            phase.kept.iter().map(|(i, _, l)| (*i, l)).collect();
        for i in 0..phase.sent {
            let call = &stream.calls[i];
            let Some(want) = sessions.apply(call) else {
                continue;
            };
            drifts += 1;
            let got = lines
                .get(&i)
                .and_then(|l| Response::parse(l).ok())
                .filter(|r| {
                    r.drift
                        .as_ref()
                        .is_some_and(|d| oracle::same_drift(d, &want))
                });
            let req = &stream.requests[i];
            match (got, call) {
                (Some(resp), Call::Drift { session, .. }) if req.idempotency_key.is_some() => {
                    last_keyed[*session] = Some((req.clone(), resp));
                }
                (Some(_), _) => {}
                (None, _) => {
                    drift_error.get_or_insert(format!("drift {i} differs from the library"));
                }
            }
        }
    }
    gate(
        &mut gates,
        "drift_answers_match_library",
        drift_error.is_none() && drifts > 0,
        drift_error.unwrap_or(format!("{drifts} drifts bit-identical")),
    );
    check_kept(
        &open,
        open_calls,
        &mut gates,
        "open_prices_match_library",
        |_, _| Ok(()),
    );
    check_kept(
        &closed,
        closed_calls,
        &mut gates,
        "closed_prices_match_library",
        |_, _| Ok(()),
    );

    // Crash and recover: every acknowledged drift must survive.
    daemon.kill()?;
    let daemon = Daemon::spawn(&ctx.snakes, &data_dir_flag(&dir))?;
    let mut client = daemon.client()?;
    let mut lost = None;
    sessions.restart();
    for (s, keyed) in last_keyed.iter().enumerate() {
        // The stored answer of the last keyed drift replays verbatim.
        let Some((req, resp)) = keyed else {
            lost.get_or_insert(format!("session {s} had no acknowledged keyed drift"));
            continue;
        };
        let replay = call_ok(&mut client, req.clone())?;
        let same = replay.deduplicated
            && replay
                .drift
                .as_ref()
                .zip(resp.drift.as_ref())
                .is_some_and(|(a, b)| oracle::same_drift(a, b));
        // A fresh empty delta must land on the acknowledged version + 1.
        let probe = Call::Drift {
            session: s,
            updates: Vec::new(),
        };
        let want = sessions.apply(&probe).expect("drift");
        let mut fresh = Request::drift(
            &inputs::session_name(s),
            vec![snakes_service::protocol::DeltaSpec::default()],
        )
        .with_idempotency_key(format!("recovery-{seed}-{s}"));
        fresh.id = 1;
        let fresh = call_ok(&mut client, fresh)?;
        let recovered = fresh
            .drift
            .as_ref()
            .is_some_and(|d| oracle::same_drift(d, &want));
        if !(same && recovered) {
            lost.get_or_insert(format!("session {s} lost acknowledged state"));
        }
    }
    let job = call_ok(&mut client, Request::recluster_status(inputs::JOB))?
        .recluster
        .expect("status body");
    if job.state != "done" {
        lost.get_or_insert(format!("migration recovered as {}", job.state));
    }
    gate(
        &mut gates,
        "restart_recovers_acknowledged_drifts",
        lost.is_none(),
        lost.unwrap_or("every session at its acknowledged version".into()),
    );
    drop(client);
    let end = after.clone();
    daemon.shutdown()?;
    std::fs::remove_dir_all(&dir)?;

    Ok(Run {
        setup_s,
        totals: totals(&[&open, &closed]),
        failures: failures(&[&open, &closed]),
        kept_lines: kept_lines(&[&open, &closed]),
        open: Some(open),
        // The open loop at 400 req/s idles the daemon between requests,
        // and its latencies mostly timed the VM's wake-ups (18-31 %
        // spread between runs); the closed loop keeps the daemon busy.
        open_latency: false,
        closed,
        migration_s,
        rss_kib,
        before,
        after,
        end,
        closed_before,
        gates,
        timer_slack_ns: slack,
        streams: vec![open_stream, closed_stream],
        template: Some(template),
    })
}
