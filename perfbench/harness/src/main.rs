//! Benchmark harness for the advisor daemon (`snakes serve`).
//!
//! ```text
//! perfbench-harness --snakes <path to the snakes binary> --work <scratch dir>
//!     --workload price_hot|advise_cold|durable_mixed --seed N --seconds S
//!     --trace 0|1
//! ```
//!
//! With `--trace 0` it drives a live daemon over loopback and prints the
//! end-to-end metrics; with `--trace 1` it runs the same phases once more
//! and then replays the same seeded inputs in-process through each
//! layer's public functions, printing the per-layer metrics. Either way
//! the correctness gates run, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a `report` line before
//! it carries the run context, the gates and the generator's lag.

mod daemon;
mod inputs;
mod loadgen;
mod oracle;
mod run;
mod stats;
mod trace;

use run::{Ctx, Run};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// A metric value and its unit, keyed by name.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Args {
    snakes: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("missing --{k}"));
    Ok(Args {
        snakes: get("snakes")?.into(),
        work: get("work")?.into(),
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
    })
}

/// Set-ups per run: `setup_s` is their median. The traced run sets up
/// once (it reports no `setup_s`).
fn setups(workload: &str, trace: bool) -> usize {
    match (trace, workload) {
        (true, _) => 1,
        (false, "price_hot") => 3,
        (false, _) => 5,
    }
}

/// The `q`-quantile of a phase's latencies (µs): consecutive groups of at
/// least `LATENCY_GROUP` samples (so a p99 has ≥ 10 beyond it) each give
/// one quantile, and the median over groups is reported, so one host
/// stall moves one group only.
fn latency_us(phase: &loadgen::Phase, q: f64) -> f64 {
    const LATENCY_GROUP: usize = 1000;
    let lat: Vec<f64> = phase
        .latencies
        .iter()
        .map(|&(_, l)| l as f64 / 1e3)
        .collect();
    let groups = (lat.len() / LATENCY_GROUP).max(1);
    let size = lat.len() / groups;
    let per_group: Vec<f64> = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                lat.len()
            } else {
                (g + 1) * size
            };
            quantile(&lat[g * size..end], q)
        })
        .collect();
    median(&per_group)
}

/// Per sampling window of the closed loop: `(requests/s, daemon CPU µs
/// per request)`. Windows shorter than half the nominal second (the
/// tail) are dropped.
fn windows(phase: &loadgen::Phase) -> Vec<(f64, f64)> {
    phase
        .cpu_marks
        .windows(2)
        .filter_map(|w| {
            let ((t0, c0, n0), (t1, c1, n1)) = (w[0], w[1]);
            let secs = (t1 - t0) as f64 / 1e9;
            (secs >= 0.5 && n1 > n0).then(|| {
                (
                    (n1 - n0) as f64 / secs,
                    (c1 - c0) as f64 / 1e3 / (n1 - n0) as f64,
                )
            })
        })
        .collect()
}

fn end_to_end(run: &Run) -> Metrics {
    let lat = match &run.open {
        Some(open) if run.open_latency => open,
        _ => &run.closed,
    };
    let win = windows(&run.closed);
    let rps: Vec<f64> = win.iter().map(|w| w.0).collect();
    let cpu: Vec<f64> = win.iter().map(|w| w.1).collect();
    BTreeMap::from([
        ("setup_s", (median(&run.setup_s), "s")),
        ("latency_p50_us", (latency_us(lat, 0.50), "us")),
        ("latency_p99_us", (latency_us(lat, 0.99), "us")),
        ("throughput_rps", (median(&rps), "1/s")),
        ("cpu_us_per_req", (median(&cpu), "us")),
        ("rss_peak_mib", (run.rss_kib as f64 / 1024.0, "MiB")),
        ("migration_s", (run.migration_s, "s")),
    ])
}

/// Steal ticks so far, summed over every CPU (`/proc/stat`).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run_workload(args: &Args) -> io::Result<()> {
    let ctx = Ctx {
        snakes: args.snakes.clone(),
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        setups: setups(&args.workload, args.trace),
        traced: args.trace,
    };
    std::fs::create_dir_all(&ctx.work)?;
    let steal0 = steal_ticks();
    let run = match args.workload.as_str() {
        "price_hot" => run::price_hot(&ctx)?,
        "advise_cold" => run::advise_cold(&ctx)?,
        "durable_mixed" => run::durable_mixed(&ctx)?,
        other => return Err(io::Error::other(format!("unknown workload `{other}`"))),
    };
    let e2e = end_to_end(&run);
    let metrics = if args.trace {
        trace::per_layer(&args.workload, &ctx, &run, &e2e)?
    } else {
        e2e.clone()
    };
    let steal = steal_ticks() - steal0;

    let lag: Vec<f64> = run
        .open
        .iter()
        .flat_map(|p| p.lag_ns.iter().map(|&l| l as f64 / 1e3))
        .collect();
    let gates: Vec<String> = run
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"name\":{},\"pass\":{},\"detail\":{}}}",
                json_str(&g.name),
                g.pass,
                json_str(&g.detail)
            )
        })
        .collect();
    let (sent, failed, _, _) = run.totals;
    let numbers = |m: &Metrics| -> String {
        m.iter()
            .map(|(k, (v, _))| format!("{}:{}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"cores\":{},\"steal_ticks\":{},\
         \"timer_slack_ns\":{},\"gen_lag_p99_us\":{},\"gen_lag_max_us\":{},\
         \"setup_s_each\":[{}],\"failures\":{{{}}},\"exact_counts\":[{}],\"end_to_end\":{{{}}},\"gates\":[{}]}}}}",
        json_str(&args.workload),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        steal,
        run.timer_slack_ns,
        json_num(if lag.is_empty() { 0.0 } else { quantile(&lag, 0.99) }),
        json_num(lag.iter().copied().fold(0.0, f64::max)),
        run.setup_s
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(","),
        run.failures
            .iter()
            .map(|(code, n)| format!("{}:{n}", json_str(code)))
            .collect::<Vec<_>>()
            .join(","),
        trace::EXACT_COUNTS
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
        numbers(&e2e),
        gates.join(","),
    );
    let correct = failed == 0
        && run.gates.iter().all(|g| g.pass)
        && metrics.values().all(|(v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{sent},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_workload(&args) {
        eprintln!("benchmark run failed: {e}");
        std::process::exit(1);
    }
}
