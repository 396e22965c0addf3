//! The load generator: one connection per phase, driven either open-loop
//! (a paced writer thread plus a reader thread) or closed-loop (one
//! thread keeping a fixed window in flight). Every frame is built before
//! the clock starts; the hot loops only write bytes, read lines, and
//! take timestamps.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_ulong};
use std::time::{Duration, Instant};

/// Pre-serialized request frames (each ends in `\n`) and their ids.
/// Frame `i` of a phase is `frames[i % len]`.
pub struct Frames {
    pub lines: Vec<Vec<u8>>,
    pub ids: Vec<u64>,
}

impl Frames {
    pub fn new(lines: Vec<String>, ids: Vec<u64>) -> Self {
        assert_eq!(lines.len(), ids.len());
        Frames {
            lines: lines
                .into_iter()
                .map(|mut l| {
                    l.push('\n');
                    l.into_bytes()
                })
                .collect(),
            ids,
        }
    }

    fn get(&self, i: usize) -> (&[u8], u64) {
        let k = i % self.lines.len();
        (&self.lines[k], self.ids[k])
    }
}

/// What one phase observed.
#[derive(Default)]
pub struct Phase {
    pub sent: usize,
    pub failed: usize,
    /// Failed answers by error code (`missing` for no answer at all).
    pub failures: std::collections::BTreeMap<String, usize>,
    /// `(completion offset, latency)` in ns per timed request.
    pub latencies: Vec<(u64, u64)>,
    /// Response lines kept for later checks: `(index, offset ns, line)`.
    pub kept: Vec<(usize, u64, String)>,
    /// Open loop only: how late each frame left the generator (ns).
    pub lag_ns: Vec<u64>,
    pub response_bytes: u64,
    pub request_bytes: u64,
    /// `(offset ns, daemon cpu ns, completed)` at window boundaries.
    pub cpu_marks: Vec<(u64, u64, u64)>,
    pub elapsed_ns: u64,
    /// The instant offsets are measured from.
    pub origin: Option<Instant>,
}

/// Which responses a phase keeps and which it times.
pub struct Policy<'a> {
    pub keep: &'a (dyn Fn(usize) -> bool + Sync),
    pub timed: &'a (dyn Fn(usize) -> bool + Sync),
    /// Reads the daemon's CPU counter (ns).
    pub cpu: &'a (dyn Fn() -> u64 + Sync),
    /// Width of the CPU/throughput sampling windows.
    pub window: Duration,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(s)
}

/// Whether `line` is the successful answer to request `id`. Only the
/// envelope prefix (`{"v":..,"id":..,"ok":..`) is inspected, so the check
/// costs nanoseconds on the reader thread.
fn answered_ok(line: &str, id: u64) -> bool {
    let head = &line.as_bytes()[..line.len().min(64)];
    let Some(at) = head.windows(5).position(|w| w == b"\"id\":") else {
        return false;
    };
    let digits: Vec<u8> = head[at + 5..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits)
        .ok()
        .and_then(|d| d.parse::<u64>().ok())
        == Some(id)
        && head.windows(9).any(|w| w == b"\"ok\":true")
}

impl Phase {
    fn fail(&mut self, line: &str, n: usize) {
        let code = line
            .find("\"code\":\"")
            .map(|at| &line[at + 8..])
            .and_then(|rest| rest.split('"').next())
            .unwrap_or(if line.is_empty() {
                "missing"
            } else {
                "mismatched"
            });
        self.failed += n;
        *self.failures.entry(code.to_string()).or_default() += n;
    }
}

/// Sets the calling thread's timer slack to 1 ns instead of the default
/// 50 µs, which would otherwise show up as pacing latency. Returns the
/// slack the kernel reports afterwards.
pub fn tighten_timer_slack() -> u64 {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
    timer_slack_ns()
}

/// The calling thread's timer slack (ns).
pub fn timer_slack_ns() -> u64 {
    // SAFETY: PR_GET_TIMERSLACK takes no arguments and only returns the
    // calling thread's slack.
    let slack = unsafe { prctl(PR_GET_TIMERSLACK) };
    u64::try_from(slack).unwrap_or(0)
}

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// Sends `count` frames at `rate` per second regardless of replies, and
/// times each reply from when its frame was due. Returns the phase and
/// the pacing thread's timer slack.
pub fn open_loop(
    addr: SocketAddr,
    frames: &Frames,
    rate: f64,
    count: usize,
    policy: &Policy<'_>,
) -> io::Result<(Phase, u64)> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let period_ns = 1e9 / rate;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| t0 + Duration::from_nanos((i as f64 * period_ns) as u64);
    let (phase, paced) = std::thread::scope(|s| {
        let pacer = s.spawn(|| -> io::Result<(Vec<u64>, u64, u64)> {
            let slack = tighten_timer_slack();
            let mut lag = Vec::with_capacity(count);
            let mut bytes = 0u64;
            for i in 0..count {
                let at = due(i);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                let start = Instant::now();
                let (frame, _) = frames.get(i);
                writer.write_all(frame)?;
                bytes += frame.len() as u64;
                lag.push(start.saturating_duration_since(at).as_nanos() as u64);
            }
            Ok((lag, slack, bytes))
        });
        let phase = read_replies(&stream, frames, count, policy, t0, due);
        (phase, pacer.join().expect("pacing thread panicked"))
    });
    let (lag_ns, slack, request_bytes) = paced?;
    let phase = phase?;
    Ok((
        Phase {
            sent: count,
            lag_ns,
            request_bytes,
            ..phase
        },
        slack,
    ))
}

/// The open loop's reader: one reply per frame, in order.
fn read_replies(
    stream: &TcpStream,
    frames: &Frames,
    count: usize,
    policy: &Policy<'_>,
    t0: Instant,
    due: impl Fn(usize) -> Instant,
) -> io::Result<Phase> {
    let mut reader = BufReader::with_capacity(1 << 18, stream.try_clone()?);
    let mut phase = Phase {
        origin: Some(t0),
        ..Phase::default()
    };
    let mut line = String::new();
    let mut next_mark = t0;
    let mut done = 0u64;
    for i in 0..count {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            phase.fail("", count - i);
            break;
        }
        let now = Instant::now();
        let at = now.saturating_duration_since(t0).as_nanos() as u64;
        phase.response_bytes += line.len() as u64;
        if !answered_ok(&line, frames.get(i).1) {
            phase.fail(&line, 1);
        } else if (policy.timed)(i) {
            let lat = now.saturating_duration_since(due(i)).as_nanos() as u64;
            phase.latencies.push((at, lat));
        }
        if (policy.keep)(i) {
            phase.kept.push((i, at, line.clone()));
        }
        done += 1;
        if now >= next_mark {
            phase.cpu_marks.push((at, (policy.cpu)(), done));
            next_mark = now + policy.window;
        }
    }
    phase.elapsed_ns = t0.elapsed().as_nanos() as u64;
    phase
        .cpu_marks
        .push((phase.elapsed_ns, (policy.cpu)(), done));
    Ok(phase)
}

/// Keeps `window` requests in flight on one connection for `duration`
/// (or until `max` frames were sent), timing each reply from when its
/// frame was written. Frames freed by a burst of replies go out in one
/// write, right before the loop blocks again.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &Frames,
    window: usize,
    duration: Duration,
    max: usize,
    policy: &Policy<'_>,
) -> io::Result<Phase> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 18, stream);
    let mut phase = Phase::default();
    let mut pending: std::collections::VecDeque<(usize, Instant)> =
        std::collections::VecDeque::with_capacity(window);
    let mut unsent: Vec<usize> = (0..window.min(max)).collect();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut next = unsent.len();
    let mut line = String::new();
    let t0 = Instant::now();
    phase.origin = Some(t0);
    let stop = t0 + duration;
    let mut next_mark = t0;
    let mut done = 0u64;
    phase.cpu_marks.push((0, (policy.cpu)(), 0));
    loop {
        if reader.buffer().is_empty() && !unsent.is_empty() {
            out.clear();
            for &i in &unsent {
                out.extend_from_slice(frames.get(i).0);
            }
            writer.write_all(&out)?;
            phase.request_bytes += out.len() as u64;
            let now = Instant::now();
            pending.extend(unsent.drain(..).map(|i| (i, now)));
        }
        let Some(&(i, sent_at)) = pending.front() else {
            break;
        };
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            phase.fail("", pending.len() + unsent.len());
            break;
        }
        pending.pop_front();
        let now = Instant::now();
        let at = now.saturating_duration_since(t0).as_nanos() as u64;
        phase.response_bytes += line.len() as u64;
        if !answered_ok(&line, frames.get(i).1) {
            phase.fail(&line, 1);
        } else if (policy.timed)(i) {
            let lat = now.saturating_duration_since(sent_at).as_nanos() as u64;
            phase.latencies.push((at, lat));
        }
        if (policy.keep)(i) {
            phase.kept.push((i, at, line.clone()));
        }
        done += 1;
        if now >= next_mark {
            phase.cpu_marks.push((at, (policy.cpu)(), done));
            next_mark = now + policy.window;
        }
        if now < stop && next < max {
            unsent.push(next);
            next += 1;
        }
    }
    phase.sent = next;
    phase.elapsed_ns = t0.elapsed().as_nanos() as u64;
    phase
        .cpu_marks
        .push((phase.elapsed_ns, (policy.cpu)(), done));
    Ok(phase)
}
