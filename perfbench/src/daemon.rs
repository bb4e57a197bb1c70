//! A `hap-serve` child process on loopback, stopped and reaped on drop.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hap_service::{Client, PlanReply};

use crate::requests::Req;

/// The `hap-serve` binary the service workloads start.
pub fn serve_bin(args: &crate::Args) -> &Path {
    args.serve_bin
        .as_deref()
        .expect("service workloads need --serve-bin (run through perfbench/run.py)")
}

pub struct Daemon {
    child: Child,
    /// Held open (never read again) so the daemon's shutdown summary line
    /// lands in the pipe instead of failing on a closed one.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `hap-serve` on an ephemeral loopback port with `extra`
    /// flags and waits for its `listening on` line.
    pub fn start(bin: &Path, extra: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr =
            line.trim().strip_prefix("hap-serve: listening on ").and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("hap-serve did not report its address (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Requests every request of `hot` once, in order, over one
    /// connection (one synthesis at a time); returns each reply.
    pub fn warm(&self, hot: &[Req]) -> Result<Vec<PlanReply>, String> {
        let mut client = self.connect()?;
        hot.iter()
            .map(|r| {
                client
                    .plan(&r.graph, &r.cluster, &r.options)
                    .map_err(|e| format!("{}: warm-up failed: {e}", r.name))
            })
            .collect()
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// if it does not within a few seconds).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
