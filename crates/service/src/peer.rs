//! Cluster-mode peer plumbing: the daemon's view of the installed ring
//! and a small pool of connections + threads for talking to peers.
//!
//! A daemon in `hap-cluster` mode holds at most one [`Ring`] (the latest
//! installed membership epoch) plus the address it is known by on that
//! ring. Peer traffic — proxied misses and plan replication — runs on a
//! [`PeerPool`]: pooled line-protocol TCP connections per peer address,
//! driven by a few lazily-spawned job threads so the event-loop thread
//! never blocks on a peer's socket. Threads spawn on first use: a daemon
//! that never joins a ring keeps its exact single-daemon thread census.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hap_codec::RingInfo;

use crate::ring::Ring;
use crate::sync::{lock_recover, wait_recover};

/// How long a peer connect may take before the proxy falls back to local
/// synthesis.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long one peer round trip may take. Generous: the owner may be
/// synthesizing the plan this very request asked for.
const PEER_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle pooled connections kept per peer address.
const MAX_IDLE_PER_PEER: usize = 4;

/// Upper bound on lazily-spawned peer job threads.
const MAX_PEER_THREADS: usize = 4;

/// The daemon's cluster membership: the latest installed ring and the
/// address this daemon occupies on it. `None` until a membership is
/// installed — the daemon then behaves exactly as a single daemon.
pub(crate) struct ClusterState {
    ring: Mutex<Option<(Arc<Ring>, String)>>,
    pub peers: PeerPool,
}

impl ClusterState {
    pub fn new() -> ClusterState {
        ClusterState { ring: Mutex::new(None), peers: PeerPool::new() }
    }

    /// The installed ring and this daemon's own ring address, if any.
    pub fn current(&self) -> Option<(Arc<Ring>, String)> {
        lock_recover(&self.ring).clone()
    }

    /// The installed membership epoch (0 = no ring).
    pub fn epoch(&self) -> u64 {
        lock_recover(&self.ring).as_ref().map(|(r, _)| r.epoch()).unwrap_or(0)
    }

    /// Installs `info` iff its epoch exceeds the current one (epochs
    /// totally order memberships; an equal or older record is a stale
    /// duplicate). Returns whether the record was installed.
    pub fn install(&self, info: RingInfo, self_addr: String) -> bool {
        let mut guard = lock_recover(&self.ring);
        let current = guard.as_ref().map(|(r, _)| r.epoch()).unwrap_or(0);
        if info.epoch <= current || info.is_empty() {
            return false;
        }
        *guard = Some((Arc::new(Ring::build(info)), self_addr));
        true
    }
}

/// One pooled line-protocol connection to a peer daemon.
struct PeerConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PeerConn {
    fn connect(addr: &str) -> io::Result<PeerConn> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "peer address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&resolved, PEER_CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(PEER_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(PeerConn { reader: BufReader::new(stream), writer })
    }

    /// Sends one request line and reads one response line.
    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        // One write per frame, newline included: a separate newline
        // segment is exactly what Nagle and delayed ACKs stall on.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

type PeerJob = Box<dyn FnOnce() + Send>;

struct JobState {
    queue: VecDeque<PeerJob>,
    threads: usize,
    idle: usize,
    stopping: bool,
}

struct JobQueue {
    state: Mutex<JobState>,
    cvar: Condvar,
}

/// Pooled peer connections plus the lazily-spawned threads that drive
/// them. Everything is best-effort: a failed peer round trip surfaces as
/// an `io::Error` and the caller falls back (local synthesis for proxies,
/// skip for replication).
pub(crate) struct PeerPool {
    conns: Mutex<HashMap<String, Vec<PeerConn>>>,
    jobs: Arc<JobQueue>,
}

impl PeerPool {
    pub fn new() -> PeerPool {
        PeerPool {
            conns: Mutex::new(HashMap::new()),
            jobs: Arc::new(JobQueue {
                state: Mutex::new(JobState {
                    queue: VecDeque::new(),
                    threads: 0,
                    idle: 0,
                    stopping: false,
                }),
                cvar: Condvar::new(),
            }),
        }
    }

    /// One request/response round trip with `addr`, reusing a pooled
    /// connection when one exists. A reused connection that fails (the
    /// peer restarted, the pooled socket went stale) is retried once on a
    /// fresh connection before the error surfaces.
    pub fn call(&self, addr: &str, line: &str) -> io::Result<String> {
        let pooled = lock_recover(&self.conns).get_mut(addr).and_then(Vec::pop);
        if let Some(mut conn) = pooled {
            if let Ok(response) = conn.round_trip(line) {
                self.check_in(addr, conn);
                return Ok(response);
            }
        }
        let mut conn = PeerConn::connect(addr)?;
        let response = conn.round_trip(line)?;
        self.check_in(addr, conn);
        Ok(response)
    }

    fn check_in(&self, addr: &str, conn: PeerConn) {
        let mut conns = lock_recover(&self.conns);
        let pool = conns.entry(addr.to_string()).or_default();
        if pool.len() < MAX_IDLE_PER_PEER {
            pool.push(conn);
        }
    }

    /// Runs `job` on a peer thread, spawning one (up to the cap) when none
    /// is idle. Jobs submitted after [`PeerPool::stop`] are dropped, outside
    /// the pool's lock: a dropped proxy job still answers its request (see
    /// `service::Deliver`), through the transport's own locks.
    pub fn spawn(&self, job: PeerJob) {
        let mut state = lock_recover(&self.jobs.state);
        if state.stopping {
            drop(state);
            drop(job);
            return;
        }
        state.queue.push_back(job);
        if state.idle == 0 && state.threads < MAX_PEER_THREADS {
            state.threads += 1;
            let jobs = Arc::clone(&self.jobs);
            let spawned = std::thread::Builder::new()
                .name("hap-peer".into())
                .spawn(move || worker_loop(&jobs));
            if spawned.is_err() {
                // Spawn failure: undo the census bump; queued jobs run on
                // whatever threads already exist (or never, if none do —
                // peer traffic is best-effort).
                state.threads -= 1;
            }
        }
        drop(state);
        self.jobs.cvar.notify_one();
    }

    /// Stops the job threads and drops queued jobs (outside the lock, as in
    /// [`PeerPool::spawn`]) and pooled connections. Idempotent; called from
    /// `PlanService::stop`.
    pub fn stop(&self) {
        let dropped = {
            let mut state = lock_recover(&self.jobs.state);
            state.stopping = true;
            std::mem::take(&mut state.queue)
        };
        drop(dropped);
        self.jobs.cvar.notify_all();
        lock_recover(&self.conns).clear();
    }
}

fn worker_loop(jobs: &JobQueue) {
    let mut state = lock_recover(&jobs.state);
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // A panicking job must not take the thread (and its census
            // slot) down with it.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            state = lock_recover(&jobs.state);
            continue;
        }
        if state.stopping {
            state.threads -= 1;
            return;
        }
        state.idle += 1;
        state = wait_recover(&jobs.cvar, state);
        state.idle -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn pool_runs_jobs_and_stops_idempotently() {
        let pool = PeerPool::new();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.spawn(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::SeqCst) < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        pool.stop();
        pool.stop();
        // Post-stop jobs are dropped, not queued forever.
        pool.spawn(Box::new(|| panic!("must not run")));
    }

    #[test]
    fn cluster_state_installs_only_newer_epochs() {
        let state = ClusterState::new();
        assert!(state.current().is_none());
        let info = |epoch| RingInfo {
            epoch,
            vnodes: 8,
            replication: 2,
            members: vec!["a:1".into(), "b:2".into()],
        };
        assert!(state.install(info(2), "a:1".into()));
        assert_eq!(state.epoch(), 2);
        assert!(!state.install(info(2), "a:1".into()), "equal epoch is stale");
        assert!(!state.install(info(1), "a:1".into()), "older epoch is stale");
        assert!(!state.install(RingInfo::empty(8, 2), "a:1".into()), "empty ring never installs");
        assert!(state.install(info(3), "b:2".into()));
        let (ring, self_addr) = state.current().unwrap();
        assert_eq!(ring.epoch(), 3);
        assert_eq!(self_addr, "b:2");
    }
}
