//! Open-loop request generation: pre-rendered frames sent at seeded due
//! times over one `TCP_NODELAY` socket, replies timed from the due time.
//!
//! Replies on one connection arrive in request order, so the k-th reply
//! line answers the k-th frame. Each connection is driven by one thread
//! that multiplexes sending and receiving with `ppoll(2)`, so a slow reply
//! never delays later sends: a stall shows as latency on every request
//! due during it, and the generator's own lateness is reported.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request of a connection's schedule.
pub struct Send {
    /// When the request is due, relative to the window start.
    pub due: Duration,
    /// The request line, newline included.
    pub frame: String,
}

/// A follow-up request sent when a reply says the original cannot be
/// served as asked (the client-side fallback a real tenant performs).
pub type Fallback<'a> = &'a (dyn Fn(usize, &str) -> Option<String> + Sync);

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Exchange {
    pub due: Duration,
    /// When the frame was handed to the socket.
    pub sent: Duration,
    /// When its reply line was read (`None` if it never came).
    pub arrived: Option<Duration>,
    pub reply: String,
    /// True when the reply answers a fallback request.
    pub fell_back: bool,
}

impl Exchange {
    /// Latency from the due time: includes any wait the generator or an
    /// earlier stall imposed before the request went out.
    pub fn latency(&self) -> Option<Duration> {
        self.arrived.map(|a| a.saturating_sub(self.due))
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Blocks until `stream` is readable (or writable, when `want_write`), or
/// `timeout` passes, with nanosecond timeout resolution.
fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask; ppoll
    // only writes `revents`. EINTR simply returns early.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Drives one connection through `sends` (ascending due times) starting
/// at `start`, then waits up to `drain` after the last due time for the
/// remaining replies. When `fallback` turns a reply into a follow-up
/// frame, that frame is sent at once and its reply completes the
/// exchange. Returns one exchange per send, in order.
pub fn drive(
    addr: SocketAddr,
    sends: &[Send],
    start: Instant,
    drain: Duration,
    fallback: Fallback,
) -> Result<Vec<Exchange>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let deadline = sends.last().map_or(Duration::ZERO, |s| s.due) + drain;
    let mut out: Vec<Exchange> = Vec::with_capacity(sends.len());
    let mut pending: Vec<u8> = Vec::new();
    let mut written = 0;
    let mut inbuf: Vec<u8> = Vec::new();
    // Exchanges awaiting a reply line, in the order their frames went out
    // (a connection answers in request order).
    let mut awaiting = std::collections::VecDeque::new();
    let mut replies = 0;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = start.elapsed();
        while out.len() < sends.len() && sends[out.len()].due <= now {
            let s = &sends[out.len()];
            pending.extend_from_slice(s.frame.as_bytes());
            awaiting.push_back(out.len());
            out.push(Exchange {
                due: s.due,
                sent: now,
                arrived: None,
                reply: String::new(),
                fell_back: false,
            });
        }
        while written < pending.len() {
            match (&stream).write(&pending[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if written == pending.len() {
            pending.clear();
            written = 0;
        }
        loop {
            match (&stream).read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => {
                    let at = start.elapsed();
                    let scanned = inbuf.len();
                    inbuf.extend_from_slice(&chunk[..n]);
                    let mut from = 0;
                    for i in scanned..inbuf.len() {
                        if inbuf[i] == b'\n' {
                            let k = awaiting
                                .pop_front()
                                .ok_or("reply to a request that was never sent")?;
                            let line = String::from_utf8_lossy(&inbuf[from..i]).into_owned();
                            from = i + 1;
                            match fallback(k, &line).filter(|_| !out[k].fell_back) {
                                Some(frame) => {
                                    pending.extend_from_slice(frame.as_bytes());
                                    awaiting.push_back(k);
                                    out[k].fell_back = true;
                                }
                                None => {
                                    out[k].arrived = Some(at);
                                    out[k].reply = line;
                                    replies += 1;
                                }
                            }
                        }
                    }
                    inbuf.drain(..from);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        if replies == sends.len() {
            return Ok(out);
        }
        let now = start.elapsed();
        if now >= deadline {
            // Unanswered requests stay `arrived: None`: failures.
            while out.len() < sends.len() {
                let s = &sends[out.len()];
                out.push(Exchange {
                    due: s.due,
                    sent: now,
                    arrived: None,
                    reply: String::new(),
                    fell_back: false,
                });
            }
            return Ok(out);
        }
        let next_due = sends.get(out.len()).map_or(deadline, |s| s.due);
        wait(&stream, !pending.is_empty(), next_due.min(deadline).saturating_sub(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let x = Exchange {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(130),
            arrived: Some(Duration::from_millis(150)),
            reply: String::new(),
            fell_back: false,
        };
        // The 30 ms the generator ran late count against the request.
        assert_eq!(x.latency(), Some(Duration::from_millis(50)));
        assert_eq!(x.lateness(), Duration::from_millis(30));
        let lost = Exchange { arrived: None, ..x };
        assert_eq!(lost.latency(), None);
    }

    #[test]
    fn a_stalled_reply_delays_every_request_due_behind_it() {
        // An echo server that holds its first reply for 200 ms: requests
        // due meanwhile are still sent on time, and their latency from the
        // due time includes the stall.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut w = sock.try_clone().unwrap();
            for (k, line) in BufReader::new(sock).lines().enumerate() {
                if k == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                writeln!(w, "re:{}", line.unwrap()).unwrap();
            }
        });
        let sends: Vec<Send> = (0..4)
            .map(|k| Send { due: Duration::from_millis(20 * k), frame: format!("{k}\n") })
            .collect();
        let out =
            drive(addr, &sends, Instant::now(), Duration::from_secs(5), &|_, _| None).unwrap();
        for (k, x) in out.iter().enumerate() {
            assert_eq!(x.reply, format!("re:{k}"));
            assert!(x.lateness() < Duration::from_millis(15), "sent late: {:?}", x.lateness());
            assert!(x.latency().unwrap() >= Duration::from_millis(200 - 20 * k as u64));
        }
        drop(out);
        server.join().unwrap();
    }
}
