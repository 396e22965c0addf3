//! The `snakes serve` child process: spawn, observe through `/proc`,
//! stop. Every daemon is killed and reaped on drop, so an error anywhere
//! in a run leaves no process behind.

use snakes_service::protocol::StatsBody;
use snakes_service::{Client, Request};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Option<Child>,
    /// Held open so the daemon's drain messages never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Daemon {
    /// Starts `snakes serve` on an ephemeral loopback port with one shard
    /// (plus `extra` flags) and returns once it prints its address.
    ///
    /// The run queue holds 4096 requests instead of the default 128: a
    /// shard stalled by the host for 16 ms would otherwise read 128+
    /// queued `price_hot` frames in one tick and shed them, turning host
    /// noise into failed requests instead of latency.
    pub fn spawn(bin: &Path, extra: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--shards", "1"])
            .args(["--queue", "4096"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("daemon exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                break rest
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad listen address: {e}")))?;
            }
        };
        Ok(Daemon {
            child: Some(child),
            _stdout: stdout,
            addr,
            pid,
        })
    }

    pub fn client(&self) -> io::Result<Client> {
        Client::connect(self.addr)
    }

    /// Peak resident set (`VmHWM`), in KiB.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The daemon's `stats` payload.
    pub fn stats(&self) -> io::Result<StatsBody> {
        let resp = self
            .client()?
            .call(Request::new("stats"))
            .map_err(|e| io::Error::other(e.to_string()))?;
        resp.stats
            .ok_or_else(|| io::Error::other("stats response without a body"))
    }

    /// Graceful stop: `shutdown` over the protocol, then wait for the
    /// drain to finish.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| io::Error::other(e.to_string())));
        if let Err(e) = asked {
            return Err(io::Error::other(format!("shutdown request failed: {e}")));
        }
        // The drain prints two short lines; the pipe buffer holds them, so
        // stdout need not be read before the child exits.
        let mut child = self.child.take().expect("child present until stopped");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if child.try_wait()?.is_some() {
                break;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait()?;
                return Err(io::Error::other("daemon did not drain within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Crash stop: SIGKILL and reap.
    pub fn kill(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("child present until stopped");
        let killed = child.kill();
        child.wait()?;
        killed
    }
}

/// CPU time of process `pid` so far (ns), summed over every thread's
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path: PathBuf = task?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(total)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
