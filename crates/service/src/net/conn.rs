//! Per-connection state: incremental line framing, the ordered response
//! queue, and the nonblocking read/write steps.
//!
//! Everything here is a pure state machine over `io::Read`/`io::Write` —
//! no sockets, no poller — so the framing property tests (`tests/
//! framing.rs`) can drive byte-boundary splits and pathological partial
//! writes without a network in the loop.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

/// One complete unit out of the framer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete request line (terminator and trailing `\r` stripped).
    Line(String),
    /// A line exceeded the configured cap. The framer has switched to
    /// discard mode: bytes are dropped (not buffered) until the next
    /// newline, after which framing resumes — one oversize event per
    /// oversized line.
    Oversized {
        /// The configured cap the line blew through.
        limit: usize,
    },
    /// A complete line that was not valid UTF-8.
    Malformed,
}

/// Incremental newline framing with a hard per-line byte cap.
///
/// Feed it raw reads as they arrive; it emits [`Frame`]s. Partial lines
/// are buffered across pushes (the buffer's high-water mark feeds the
/// `read_buf_hwm` stats gauge); an over-cap line is rejected *without
/// buffering it* — the framer drops bytes until the terminating newline,
/// so a hostile client cannot balloon daemon memory with one giant line.
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    read_hwm: usize,
}

impl LineFramer {
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer { buf: Vec::new(), max_line: max_line.max(1), discarding: false, read_hwm: 0 }
    }

    /// Largest partial line ever buffered.
    pub fn read_hwm(&self) -> usize {
        self.read_hwm
    }

    /// True while a line is in progress: bytes of it are buffered, or an
    /// oversized line is being discarded up to its newline.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.discarding
    }

    /// Absorbs one chunk of input, emitting every frame it completes.
    pub fn push(&mut self, chunk: &[u8], mut sink: impl FnMut(Frame)) {
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if self.discarding {
                // The newline ends the oversized line; framing resumes.
                self.discarding = false;
                continue;
            }
            if self.buf.len() + head.len() > self.max_line {
                self.buf.clear();
                sink(Frame::Oversized { limit: self.max_line });
                continue;
            }
            let line = if self.buf.is_empty() {
                head.to_vec()
            } else {
                let mut line = std::mem::take(&mut self.buf);
                line.extend_from_slice(head);
                line
            };
            match String::from_utf8(line) {
                Ok(mut s) => {
                    if s.ends_with('\r') {
                        s.pop();
                    }
                    sink(Frame::Line(s));
                }
                Err(_) => sink(Frame::Malformed),
            }
        }
        if self.discarding {
            return;
        }
        if self.buf.len() + rest.len() > self.max_line {
            // The partial line already exceeds the cap: reject now and
            // drop everything until its newline shows up.
            self.buf.clear();
            self.discarding = true;
            sink(Frame::Oversized { limit: self.max_line });
            return;
        }
        self.buf.extend_from_slice(rest);
        self.read_hwm = self.read_hwm.max(self.buf.len());
    }
}

/// A per-request output slot: responses must leave the connection in
/// request order even when a later request (a cache hit) resolves before
/// an earlier one (a synthesis).
enum OutSlot {
    /// The request is still being answered.
    Waiting(u64),
    /// Rendered response bytes, not yet moved into the write head.
    Ready(u64, Vec<u8>),
}

/// The connection's response pipeline: ordered slots feeding a write
/// head, with partial-write bookkeeping.
pub(crate) struct OutQueue {
    slots: VecDeque<OutSlot>,
    next_seq: u64,
    /// Bytes currently being written, `head_pos` bytes already gone.
    head: Vec<u8>,
    head_pos: usize,
    /// Total unsent bytes across head + ready slots (backpressure gauge).
    queued_bytes: usize,
    write_hwm: usize,
    /// All-time bytes this connection has flushed to its sink.
    flushed_bytes: u64,
    /// `(end_offset, seq)` per response moved into the head: once
    /// `flushed_bytes` reaches `end_offset`, that response's last byte
    /// has left the daemon — the moment its request trace's `flush` span
    /// ends. Offsets are recorded at head refill, when every previously
    /// queued byte is already flushed, so they are strictly increasing.
    flush_marks: VecDeque<(u64, u64)>,
}

/// What one [`OutQueue::write_step`] accomplished.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WriteProgress {
    /// Everything flushable was written.
    Drained,
    /// The sink would block; re-arm write interest and retry later.
    Blocked,
}

impl OutQueue {
    pub fn new() -> OutQueue {
        OutQueue {
            slots: VecDeque::new(),
            next_seq: 0,
            head: Vec::new(),
            head_pos: 0,
            queued_bytes: 0,
            write_hwm: 0,
            flushed_bytes: 0,
            flush_marks: VecDeque::new(),
        }
    }

    /// Opens a slot for the next request on this connection; its response
    /// must eventually be [`OutQueue::fulfill`]ed with this sequence
    /// number.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(OutSlot::Waiting(seq));
        seq
    }

    /// Delivers response bytes for a reserved slot. Out-of-order delivery
    /// is fine — bytes sit in their slot until everything ahead of them
    /// has flushed. Unknown sequence numbers are ignored (the connection
    /// may have dropped and its token been reused for bookkeeping).
    pub fn fulfill(&mut self, seq: u64, bytes: Vec<u8>) {
        for slot in self.slots.iter_mut() {
            if let OutSlot::Waiting(s) = slot {
                if *s == seq {
                    self.queued_bytes += bytes.len();
                    self.write_hwm = self.write_hwm.max(self.queued_bytes);
                    *slot = OutSlot::Ready(seq, bytes);
                    return;
                }
            }
        }
    }

    /// Reserve + fulfill in one step, for responses computed inline.
    /// Returns the slot's sequence number (for flush tracking).
    pub fn push_ready(&mut self, bytes: Vec<u8>) -> u64 {
        let seq = self.reserve();
        self.fulfill(seq, bytes);
        seq
    }

    /// Sequence numbers whose responses have fully left the sink since
    /// the last call, in flush order. The event loop seals those
    /// requests' traces here — the `flush` span ends at write completion,
    /// not at render time.
    pub fn drain_flushed(&mut self) -> Vec<u64> {
        let mut done = Vec::new();
        while let Some(&(end, seq)) = self.flush_marks.front() {
            if end > self.flushed_bytes {
                break;
            }
            self.flush_marks.pop_front();
            done.push(seq);
        }
        done
    }

    /// Unsent response bytes queued (excludes slots still waiting).
    pub fn pending_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Largest response backlog this connection ever queued.
    pub fn write_hwm(&self) -> usize {
        self.write_hwm
    }

    /// True when a write could make progress right now.
    pub fn has_flushable(&self) -> bool {
        self.head_pos < self.head.len() || matches!(self.slots.front(), Some(OutSlot::Ready(..)))
    }

    /// True when there are requests still awaiting their response.
    pub fn has_waiting(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, OutSlot::Waiting(_)))
    }

    /// Writes as much as the sink accepts: refills the head from the
    /// contiguous ready prefix of the slot queue, loops until drained or
    /// `WouldBlock`. Any other I/O error propagates (the connection is
    /// then closed by the loop).
    pub fn write_step(&mut self, sink: &mut impl Write) -> io::Result<WriteProgress> {
        loop {
            if self.head_pos >= self.head.len() {
                self.head.clear();
                self.head_pos = 0;
                // Move the contiguous ready prefix into the head. The
                // head is empty here, so every previously queued byte is
                // already flushed — each response's flush mark is simply
                // the running total plus the refilled head length so far.
                while let Some(OutSlot::Ready(..)) = self.slots.front() {
                    let Some(OutSlot::Ready(seq, bytes)) = self.slots.pop_front() else {
                        unreachable!()
                    };
                    self.head.extend_from_slice(&bytes);
                    self.flush_marks.push_back((self.flushed_bytes + self.head.len() as u64, seq));
                }
                if self.head.is_empty() {
                    return Ok(WriteProgress::Drained);
                }
            }
            match sink.write(&self.head[self.head_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading"))
                }
                Ok(n) => {
                    self.head_pos += n;
                    self.queued_bytes -= n;
                    self.flushed_bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(WriteProgress::Blocked)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one read step observed.
pub(crate) enum ReadOutcome {
    /// Bytes (possibly zero) were absorbed; the connection stays open.
    Open,
    /// The peer closed (EOF) or the socket errored.
    Closed,
}

/// One registered connection's full state.
pub(crate) struct Conn<S> {
    pub stream: S,
    pub framer: LineFramer,
    pub out: OutQueue,
    /// Last time a complete request arrived (idle-sweep clock).
    pub last_activity: Instant,
    /// Reads paused because the response backlog exceeds the cap.
    pub paused_reads: bool,
    /// Close as soon as the output queue fully drains.
    pub closing: bool,
}

impl<S: Read + Write> Conn<S> {
    pub fn new(stream: S, max_line: usize) -> Conn<S> {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            out: OutQueue::new(),
            last_activity: Instant::now(),
            paused_reads: false,
            closing: false,
        }
    }

    /// Reads until `WouldBlock`/EOF (bounded per step — the poller is
    /// level-triggered, so leftover socket bytes re-report readable and a
    /// firehose client cannot starve its neighbors), pushing complete
    /// frames into `sink`.
    pub fn read_step(&mut self, sink: &mut Vec<Frame>) -> ReadOutcome {
        let mut buf = [0u8; 16 * 1024];
        for _ in 0..16 {
            match self.stream.read(&mut buf) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    self.framer.push(&buf[..n], |frame| sink.push(frame));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Closed,
            }
        }
        ReadOutcome::Open
    }

    /// Flushes queued response bytes. `Err` means the connection is dead.
    pub fn write_step(&mut self) -> io::Result<WriteProgress> {
        let progress = self.out.write_step(&mut self.stream)?;
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `input` to a fresh framer in one push; the reference frame
    /// sequence every split variant must reproduce.
    fn frames_of(input: &[u8], max_line: usize) -> Vec<Frame> {
        let mut framer = LineFramer::new(max_line);
        let mut frames = Vec::new();
        framer.push(input, |f| frames.push(f));
        frames
    }

    /// Feeds `input` split at the given boundaries (sorted positions).
    fn frames_split(input: &[u8], max_line: usize, cuts: &[usize]) -> Vec<Frame> {
        let mut framer = LineFramer::new(max_line);
        let mut frames = Vec::new();
        let mut start = 0;
        for &cut in cuts {
            framer.push(&input[start..cut], |f| frames.push(f));
            start = cut;
        }
        framer.push(&input[start..], |f| frames.push(f));
        frames
    }

    const MIXED: &[u8] = "first line\r\nsecond → üñïcode\n\nlast".as_bytes();

    #[test]
    fn every_two_part_split_yields_identical_frames() {
        let reference = frames_of(MIXED, 1024);
        assert_eq!(
            reference,
            vec![
                Frame::Line("first line".into()),
                Frame::Line("second → üñïcode".into()),
                Frame::Line(String::new()),
            ]
        );
        for cut in 0..=MIXED.len() {
            assert_eq!(frames_split(MIXED, 1024, &[cut]), reference, "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_multi_part_splits_yield_identical_frames(
            a in 0usize..MIXED.len(),
            b in 0usize..MIXED.len(),
            c in 0usize..MIXED.len(),
        ) {
            let mut cuts = vec![a, b, c];
            cuts.sort_unstable();
            let reference = frames_of(MIXED, 1024);
            prop_assert_eq!(frames_split(MIXED, 1024, &cuts), reference);
        }

        #[test]
        fn oversize_rejection_is_split_invariant(cut in 0usize..40) {
            // 30-byte line against a 16-byte cap, then a small line.
            let input = b"0123456789012345678901234567890\nok\n";
            let cut = cut.min(input.len());
            let reference = vec![Frame::Oversized { limit: 16 }, Frame::Line("ok".into())];
            prop_assert_eq!(frames_split(input, 16, &[cut]), reference);
        }
    }

    #[test]
    fn oversize_line_is_dropped_not_buffered_and_framing_resumes() {
        let mut framer = LineFramer::new(8);
        let mut frames = Vec::new();
        // Drip a giant line one byte at a time: the framer must reject it
        // as soon as the cap is crossed and never buffer the rest.
        for b in std::iter::repeat_n(b'x', 100) {
            framer.push(&[b], |f| frames.push(f));
            assert!(framer.read_hwm() <= 8, "oversize line must not be buffered");
        }
        framer.push(b"\nshort\n", |f| frames.push(f));
        assert_eq!(frames, vec![Frame::Oversized { limit: 8 }, Frame::Line("short".into())]);
    }

    #[test]
    fn invalid_utf8_line_is_malformed_and_framing_resumes() {
        let frames = frames_of(b"\xff\xfe bogus\nfine\n", 1024);
        assert_eq!(frames, vec![Frame::Malformed, Frame::Line("fine".into())]);
    }

    /// A sink that accepts a scripted number of bytes per write call
    /// (`0` = `WouldBlock`), then everything once the script runs out.
    struct ScriptedSink {
        script: Vec<usize>,
        step: usize,
        written: Vec<u8>,
    }

    impl Write for ScriptedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let allow = self.script.get(self.step).copied().unwrap_or(usize::MAX);
            self.step += 1;
            if allow == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted block"));
            }
            let n = allow.min(buf.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive_to_completion(out: &mut OutQueue, sink: &mut ScriptedSink) {
        // Each call makes progress or reports Blocked; the script is
        // finite, so this terminates.
        while out.has_flushable() {
            out.write_step(sink).expect("scripted sink never fails");
        }
    }

    #[test]
    fn out_of_order_fulfillment_flushes_in_request_order() {
        let mut out = OutQueue::new();
        let s0 = out.reserve();
        let s1 = out.reserve();
        let s2 = out.reserve();
        // Later requests resolve first (cache hits behind a synthesis).
        out.fulfill(s2, b"two\n".to_vec());
        out.fulfill(s1, b"one\n".to_vec());
        let mut sink = ScriptedSink { script: vec![], step: 0, written: Vec::new() };
        assert!(!out.has_flushable(), "head of line still waiting");
        out.fulfill(s0, b"zero\n".to_vec());
        drive_to_completion(&mut out, &mut sink);
        assert_eq!(sink.written, b"zero\none\ntwo\n");
        assert!(!out.has_waiting());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn pathological_partial_writes_deliver_every_byte_in_order(
            script in prop::collection::vec(0usize..5, 0..40),
        ) {
            let mut out = OutQueue::new();
            let seqs: Vec<u64> = (0..6).map(|_| out.reserve()).collect();
            // Fulfill in a scrambled but fixed order.
            for &i in &[3usize, 0, 5, 1, 4, 2] {
                out.fulfill(seqs[i], format!("response-{i}\n").into_bytes());
            }
            let mut sink = ScriptedSink { script, step: 0, written: Vec::new() };
            drive_to_completion(&mut out, &mut sink);
            let expected: Vec<u8> =
                (0..6).flat_map(|i| format!("response-{i}\n").into_bytes()).collect();
            prop_assert_eq!(sink.written, expected);
            prop_assert_eq!(out.pending_bytes(), 0);
        }
    }

    #[test]
    fn flush_marks_surface_only_after_the_last_byte_leaves() {
        let mut out = OutQueue::new();
        let s0 = out.push_ready(b"first\n".to_vec()); // 6 bytes
        let s1 = out.push_ready(b"second\n".to_vec()); // 7 bytes
                                                       // Partial writes: after 6 bytes only the first response flushed;
                                                       // its mark must surface alone even though both share one head.
        let mut sink = ScriptedSink { script: vec![4, 2, 0], step: 0, written: Vec::new() };
        assert_eq!(out.write_step(&mut sink).unwrap(), WriteProgress::Blocked);
        assert_eq!(out.drain_flushed(), vec![s0]);
        let mut rest = ScriptedSink { script: vec![], step: 0, written: Vec::new() };
        drive_to_completion(&mut out, &mut rest);
        assert_eq!(out.drain_flushed(), vec![s1]);
        assert_eq!(out.drain_flushed(), Vec::<u64>::new());
    }

    #[test]
    fn flush_marks_follow_request_order_under_out_of_order_fulfillment() {
        let mut out = OutQueue::new();
        let s0 = out.reserve();
        let s1 = out.reserve();
        out.fulfill(s1, b"late\n".to_vec());
        let mut sink = ScriptedSink { script: vec![], step: 0, written: Vec::new() };
        // Nothing flushable until the head of line resolves; no marks.
        assert_eq!(out.write_step(&mut sink).unwrap(), WriteProgress::Drained);
        assert_eq!(out.drain_flushed(), Vec::<u64>::new());
        out.fulfill(s0, b"early\n".to_vec());
        drive_to_completion(&mut out, &mut sink);
        assert_eq!(out.drain_flushed(), vec![s0, s1]);
        assert_eq!(sink.written, b"early\nlate\n");
    }

    #[test]
    fn unknown_sequence_numbers_are_ignored() {
        let mut out = OutQueue::new();
        let s0 = out.reserve();
        out.fulfill(999, b"stale\n".to_vec());
        out.fulfill(s0, b"real\n".to_vec());
        let mut sink = ScriptedSink { script: vec![], step: 0, written: Vec::new() };
        drive_to_completion(&mut out, &mut sink);
        assert_eq!(sink.written, b"real\n");
    }

    #[test]
    fn a_peer_that_stops_reading_is_an_error() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = OutQueue::new();
        out.push_ready(b"hello\n".to_vec());
        assert_eq!(out.write_step(&mut Dead).unwrap_err().kind(), io::ErrorKind::WriteZero);
    }
}
