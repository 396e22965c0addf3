//! Hostile frames through a real shard: whatever bytes a frame holds, the
//! shard never panics or aborts, answers the frame exactly once in-band,
//! and answers the `ping` that follows it on the same connection. The
//! shard runs its production event loop over a `SimReactor` and an
//! in-memory connection, so no socket timing is involved.
//!
//! Frames are random bytes, or mutations of the service fixtures:
//! truncation, byte flips, a duplicated key with a mistyped value, unknown
//! keys, wrong types, and nesting of 127–130 levels around the decoder's
//! 128-level limit. CI also runs this file in release, where the case
//! count is larger.

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRunner};
use snakes_sandwiches::service::{
    Engine, Request, Response, ShardStream, ShardedConfig, ShardedCore, SimReactor,
};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cases per property: the unoptimized build runs fewer.
const CASES: u32 = if cfg!(debug_assertions) { 96 } else { 1024 };

/// The id of the `ping` that follows every hostile frame.
const PING_ID: u64 = 0x5EED_0001;

type Hook = Arc<dyn Fn() + Send + Sync>;

/// Both directions of one in-memory connection.
#[derive(Default)]
struct Wire {
    to_server: VecDeque<u8>,
    from_server: Vec<u8>,
    ready_hook: Option<Hook>,
}

#[derive(Default)]
struct Shared {
    wire: Mutex<Wire>,
    answered: Condvar,
}

/// The shard's end of the connection.
struct ServerEnd(Arc<Shared>);

impl ShardStream for ServerEnd {
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut wire = self.0.wire.lock().unwrap();
        if wire.to_server.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(wire.to_server.len());
        for (slot, byte) in buf.iter_mut().zip(wire.to_server.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }

    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .wire
            .lock()
            .unwrap()
            .from_server
            .extend_from_slice(buf);
        self.0.answered.notify_all();
        Ok(buf.len())
    }

    fn set_ready_hook(&mut self, hook: Hook) {
        self.0.wire.lock().unwrap().ready_hook = Some(hook);
    }
}

/// A one-shard core and one connection to it.
struct Harness {
    core: Arc<ShardedCore>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conn: Arc<Shared>,
}

impl Harness {
    fn start() -> Harness {
        let config = ShardedConfig {
            shards: 1,
            queue_capacity: 64,
            retry_after_ms: 1,
        };
        let (core, threads) = ShardedCore::start(Engine::with_limits(1, 64), &config, |_| {
            Ok(Box::new(SimReactor::new()))
        })
        .expect("sim reactors cannot fail");
        let conn = Arc::new(Shared::default());
        core.add_connection(Box::new(ServerEnd(Arc::clone(&conn))));
        Harness {
            core,
            threads,
            conn,
        }
    }

    fn send(&self, bytes: &[u8]) {
        let hook = {
            let mut wire = self.conn.wire.lock().unwrap();
            wire.to_server.extend(bytes);
            wire.ready_hook.clone()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Waits until `n` answer lines arrived, takes them, and checks that
    /// no more follow within a short grace.
    fn answers(&self, n: usize) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut wire = self.conn.wire.lock().unwrap();
        while wire.from_server.iter().filter(|&&b| b == b'\n').count() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "{n} answers expected, got: {:?}",
                    String::from_utf8_lossy(&wire.from_server)
                ));
            }
            wire = self.conn.answered.wait_timeout(wire, left).unwrap().0;
        }
        let bytes = std::mem::take(&mut wire.from_server);
        let text = String::from_utf8(bytes).map_err(|e| format!("answer is not UTF-8: {e}"))?;
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        if lines.len() != n {
            return Err(format!("{n} answers expected, got {lines:?}"));
        }
        Ok(lines)
    }

    fn stop(self) {
        self.core.shutdown();
        drop(self.conn);
        for handle in self.threads {
            handle.join().expect("the shard thread does not panic");
        }
    }
}

// ---------------------------------------------------------------------------
// Frame generation.
// ---------------------------------------------------------------------------

const FIXTURES: [&str; 6] = [
    include_str!("fixtures/service/request_price.json"),
    include_str!("fixtures/service/request_drift.json"),
    include_str!("fixtures/service/v2/request_price.json"),
    include_str!("fixtures/service/v2/request_drift.json"),
    include_str!("fixtures/service/v2/request_recluster.json"),
    include_str!("fixtures/service/v2/response_recommendation.json"),
];

/// SplitMix64: every mutation is a pure function of the case's seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Any byte but the newline that ends a frame.
    fn byte(&mut self) -> u8 {
        match self.next() as u8 {
            b'\n' => b' ',
            b => b,
        }
    }
}

/// A JSON value of a type no request field has at its key, or of a
/// random one.
fn wrong_value(draw: &mut Draw) -> &'static str {
    [
        "\"x\"",
        "-7",
        "3.5",
        "true",
        "null",
        "[1,[2]]",
        "{\"a\":{}}",
        "1e999",
    ][draw.below(8)]
}

/// `depth` levels of nesting: an object key holding arrays.
fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn hostile_frame(kind: u64, seed: u64) -> Vec<u8> {
    let mut draw = Draw(seed);
    let fixture = FIXTURES[draw.below(FIXTURES.len())].trim_end().as_bytes();
    let mut frame = fixture.to_vec();
    match kind {
        // Random bytes: any at all, or JSON's own alphabet.
        0 => {
            const JSON: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsnul\\u\"v\"id";
            let len = draw.below(160);
            let any = draw.coin();
            frame = (0..len)
                .map(|_| {
                    if any {
                        draw.byte()
                    } else {
                        JSON[draw.below(JSON.len())]
                    }
                })
                .collect();
        }
        // Truncated anywhere.
        1 => frame.truncate(draw.below(fixture.len())),
        // A few bytes flipped.
        2 => {
            for _ in 0..=draw.below(4) {
                let at = draw.below(frame.len());
                frame[at] = draw.byte();
            }
        }
        // A key repeated with a mistyped value, before the real one (the
        // first occurrence wins, so the frame is refused) or after it
        // (skipped).
        3 => {
            let key = [
                "v",
                "id",
                "endpoint",
                "deadline_ms",
                "env",
                "schema",
                "session",
            ][draw.below(7)];
            let extra = format!("\"{key}\":{}", wrong_value(&mut draw));
            if draw.coin() {
                frame.splice(1..1, format!("{extra},").into_bytes());
            } else {
                frame.pop();
                frame.extend(format!(",{extra}}}").into_bytes());
            }
        }
        // Unknown keys, at the top level and inside the first object.
        4 => {
            let at = if draw.coin() {
                1
            } else {
                frame
                    .iter()
                    .skip(1)
                    .position(|&b| b == b'{')
                    .map_or(1, |i| i + 2)
            };
            let extra = format!("\"zz{}\":{},", draw.below(100), wrong_value(&mut draw));
            frame.splice(at..at, extra.into_bytes());
        }
        // Wrong types: numbers, bools and strings swapped for other kinds.
        5 => {
            let text = String::from_utf8(frame).expect("fixtures are UTF-8");
            let mut out = String::new();
            let mut chars = text.chars().peekable();
            while let Some(c) = chars.next() {
                let scalar_start = c.is_ascii_digit() || c == 't' || c == 'f';
                if scalar_start && out.ends_with(':') && draw.below(3) == 0 {
                    while chars
                        .peek()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '.')
                    {
                        chars.next();
                    }
                    out.push_str(wrong_value(&mut draw));
                } else {
                    out.push(c);
                }
            }
            frame = out.into_bytes();
        }
        // Nesting around the limit, in a skipped key or a typed field.
        _ => {
            let depth = 127 + draw.below(4);
            let key = ["zz", "deltas", "env", "id"][draw.below(4)];
            // The enclosing frame object is one level already.
            let extra = format!("\"{key}\":{},", nested(depth - 1));
            frame.splice(1..1, extra.into_bytes());
        }
    }
    frame
}

/// Whether the shard must stay silent: blank lines get no answer.
fn is_blank(frame: &[u8]) -> bool {
    std::str::from_utf8(frame).is_ok_and(|t| t.trim().is_empty())
}

/// A frame that would drain the server, after which it answers no more.
fn is_shutdown(frame: &[u8]) -> bool {
    std::str::from_utf8(frame)
        .ok()
        .and_then(|t| Request::parse(t.trim()).ok())
        .is_some_and(|r| r.endpoint == "shutdown")
}

fn frame_gets_one_answer_then_ping_is_served(
    harness: &Harness,
    frame: &[u8],
) -> Result<(), TestCaseError> {
    if is_shutdown(frame) {
        return Err(TestCaseError::reject("shutdown drains the server"));
    }
    let mut bytes = frame.to_vec();
    bytes.push(b'\n');
    bytes.extend(format!("{{\"v\":2,\"id\":{PING_ID},\"endpoint\":\"ping\"}}\n").into_bytes());
    harness.send(&bytes);
    let expected = if is_blank(frame) { 1 } else { 2 };
    let lines = harness.answers(expected).map_err(TestCaseError::fail)?;
    let answers: Vec<Response> = lines
        .iter()
        .map(|l| Response::parse(l).map_err(|e| TestCaseError::fail(format!("{l}: {e}"))))
        .collect::<Result<_, _>>()?;
    let ping = answers.last().expect("at least the ping's answer");
    prop_assert!(ping.ok && ping.id == PING_ID, "ping answered {:?}", ping);
    if let [answer, _] = &answers[..] {
        prop_assert!(answer.ok || answer.error.is_some(), "{:?}", answer);
    }
    Ok(())
}

fn run(kinds: std::ops::Range<u64>, cases: u32) {
    let harness = Harness::start();
    let mut runner = TestRunner::new(Config::with_cases(cases));
    let result = runner.run(&(kinds, any::<u64>()), |(kind, seed)| {
        let frame = hostile_frame(kind, seed);
        frame_gets_one_answer_then_ping_is_served(&harness, &frame).map_err(|e| match e {
            TestCaseError::Fail(m) => TestCaseError::fail(format!(
                "kind {kind} seed {seed}: {m}\nframe: {:?}",
                String::from_utf8_lossy(&frame)
            )),
            reject => reject,
        })
    });
    harness.stop();
    if let Err(e) = result {
        panic!("{e}");
    }
}

#[test]
fn random_bytes_get_one_answer_and_the_connection_survives() {
    run(0..1, CASES);
}

#[test]
fn mutated_fixtures_get_one_answer_and_the_connection_survives() {
    run(1..7, CASES);
}

#[test]
fn nesting_at_the_limit_decodes_and_past_it_is_refused_in_band() {
    let harness = Harness::start();
    for (depth, ok) in [(127, true), (128, true), (129, false), (130, false)] {
        // `depth` levels in all, counting the frame's own object.
        let frame = format!(
            "{{\"zz\":{},\"v\":2,\"id\":1,\"endpoint\":\"ping\"}}",
            nested(depth - 1)
        );
        harness.send(format!("{frame}\n").as_bytes());
        let lines = harness.answers(1).expect("one answer");
        let answer = Response::parse(&lines[0]).expect("in-band answer");
        assert_eq!(answer.ok, ok, "depth {depth}: {answer:?}");
        if !ok {
            let error = answer.error.expect("an error body");
            assert_eq!(error.code, "bad_request");
            assert!(
                error.message.contains("nesting deeper than 128 levels"),
                "{}",
                error.message
            );
        }
    }
    harness.stop();
}
