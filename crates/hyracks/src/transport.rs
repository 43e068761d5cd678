//! Pluggable wire transport for job edges.
//!
//! Real Hyracks connectors move frames between Node Controller processes
//! over TCP; our in-process ports fake that wire. This module makes the
//! wire real: a length-prefixed TCP framing of [`TaskMsg`] streams whose
//! frames are serialized by the shared record codec of
//! [`asterix_common::frame`], so two halves of a pipeline can run in
//! separate OS processes.
//!
//! ## Wire format
//!
//! A connection carries a stream of messages:
//!
//! ```text
//! message   := u32 LE body_len, body
//! body      := tag (u8), payload
//! tag       := 0 Frame | 1 Close | 2 Fail
//! Frame     := u32 LE record_count, record*
//! record    := u64 LE id, u32 LE adaptor, u64 LE gen_millis | u64::MAX,
//!              u32 LE payload_len, payload bytes
//! ```
//!
//! | field         | bytes | meaning                                         |
//! |---------------|-------|-------------------------------------------------|
//! | `id`          | 8     | tracking id (`u64::MAX` = not yet assigned)     |
//! | `adaptor`     | 4     | sourcing adaptor instance                       |
//! | `gen_millis`  | 8     | generation stamp, `u64::MAX` = unstamped        |
//! | `payload_len` | 4     | bytes of payload that follow                    |
//! | payload       | n     | the record's binary ADM, copied verbatim        |
//!
//! The `Frame` payload is exactly what [`DataFrame::encode_into`] writes —
//! the same bytes a spill segment holds — and is read back by the same
//! checked [`DataFrame::decode`]. The payload is the record's one
//! serialized form (binary ADM since the adaptor): a hop copies it and
//! never re-serializes it, which is the per-boundary work §3.2.2 says
//! Hyracks avoids.
//!
//! ## Pieces
//!
//! * [`FrameDecoder`] — incremental decoder tolerant of arbitrary read
//!   fragmentation (partial reads surface as "not yet", torn/truncated
//!   frames as errors once the stream ends mid-message).
//! * [`TcpFrameSender`] — a [`FrameWriter`] whose frames traverse a real
//!   socket: writes go through a bounded egress port drained by a pump
//!   thread, so producers see the same saturation/back-pressure discipline
//!   as an in-process edge.
//! * [`drive_connection`] — ingress side: decode one connection into any
//!   [`FrameWriter`] (a collector, a dataset store front, a local port).
//! * `bridge_consumer` (crate-internal) — used by the executor in
//!   [`TransportKind::Tcp`] mode to splice a loopback socket into an edge,
//!   so single-process jobs exercise the real wire path end to end.

use crate::operator::FrameWriter;
use crate::port::{frame_port, PortPop, PortSender, TaskMsg};
use asterix_common::sync::thread as sync_thread;
use asterix_common::{Counter, DataFrame, IngestError, IngestResult, MetricsRegistry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Which wire a job's edges ride on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process frame ports (the default; zero-copy, no sockets).
    #[default]
    InProcess,
    /// Length-prefixed TCP over loopback: every edge's frames traverse a
    /// real socket pair, so the process boundary is exercised even when
    /// both ends run in one process.
    Tcp,
}

const TAG_FRAME: u8 = 0;
const TAG_CLOSE: u8 = 1;
const TAG_FAIL: u8 = 2;

/// Upper bound on one message body; a longer prefix means a corrupt or
/// hostile stream, not a real frame.
const MAX_BODY: usize = 256 * 1024 * 1024;

/// A decoded wire message (the wire form of [`TaskMsg`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A data frame.
    Frame(DataFrame),
    /// Graceful end-of-stream from one producer.
    Close,
    /// Abnormal termination.
    Fail,
}

/// Encode one message, appending to `out`.
pub fn encode_msg(msg: &WireMsg, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // body length backpatched below
    match msg {
        WireMsg::Close => out.push(TAG_CLOSE),
        WireMsg::Fail => out.push(TAG_FAIL),
        WireMsg::Frame(frame) => {
            out.push(TAG_FRAME);
            frame.encode_into(out);
        }
    }
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

fn decode_body(body: &[u8]) -> IngestResult<WireMsg> {
    match body {
        [TAG_CLOSE] => Ok(WireMsg::Close),
        [TAG_FAIL] => Ok(WireMsg::Fail),
        [TAG_FRAME, frame @ ..] => DataFrame::decode(frame).map(WireMsg::Frame),
        _ => Err(IngestError::Parse(format!(
            "malformed wire message body: tag {:?}, {} bytes",
            body.first(),
            body.len()
        ))),
    }
}

/// Incremental wire decoder: feed it arbitrarily fragmented bytes, pull
/// complete messages out. Survives any read-boundary placement; reports
/// corrupt framing as an error and a mid-message end-of-stream via
/// [`FrameDecoder::finish`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // compact lazily so long streams don't grow the buffer forever
        if self.pos > 0 && (self.pos >= 64 * 1024 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete message, or `None` if more bytes are
    /// needed.
    pub fn next_msg(&mut self) -> IngestResult<Option<WireMsg>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if body_len > MAX_BODY {
            return Err(IngestError::Parse(format!(
                "wire message of {body_len} bytes exceeds the {MAX_BODY} limit"
            )));
        }
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let msg = decode_body(&avail[4..4 + body_len])?;
        self.pos += 4 + body_len;
        Ok(Some(msg))
    }

    /// Assert the stream ended on a message boundary; a non-empty remainder
    /// is a torn (truncated) message.
    pub fn finish(&self) -> IngestResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(IngestError::Parse(format!(
                "stream ended inside a wire message ({} bytes of tail)",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[derive(Clone)]
struct TransportMetrics {
    bytes_sent: Counter,
    frames_sent: Counter,
    bytes_received: Counter,
    frames_received: Counter,
}

impl TransportMetrics {
    fn for_registry(registry: &MetricsRegistry) -> Self {
        TransportMetrics {
            bytes_sent: registry.counter("transport.bytes_sent", &[]),
            frames_sent: registry.counter("transport.frames_sent", &[]),
            bytes_received: registry.counter("transport.bytes_received", &[]),
            frames_received: registry.counter("transport.frames_received", &[]),
        }
    }
}

/// Egress pump: drain `rx` onto the socket. Exits on [`TaskMsg::Fail`]
/// passthrough, on port disconnect (all producers dropped), or — when
/// `exit_on_close` — after forwarding the first Close (single-producer
/// streams such as [`TcpFrameSender`]).
fn egress_pump(
    mut stream: TcpStream,
    rx: crate::port::PortReceiver,
    m: TransportMetrics,
    exit_on_close: bool,
) -> IngestResult<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    loop {
        match rx.pop_wait(Duration::from_millis(50)) {
            PortPop::Empty => continue,
            PortPop::Disconnected => {
                stream.flush().ok();
                return Ok(());
            }
            PortPop::Msg(msg) => {
                buf.clear();
                let (wire, done) = match msg {
                    TaskMsg::Frame(f) => {
                        m.frames_sent.inc();
                        (WireMsg::Frame(f), false)
                    }
                    TaskMsg::Close => (WireMsg::Close, exit_on_close),
                    TaskMsg::Fail => (WireMsg::Fail, true),
                };
                encode_msg(&wire, &mut buf);
                stream
                    .write_all(&buf)
                    .map_err(|e| IngestError::Disconnected(format!("transport write: {e}")))?;
                m.bytes_sent.add(buf.len() as u64);
                if done {
                    stream.flush().ok();
                    return Ok(());
                }
            }
        }
    }
}

/// A [`FrameWriter`] whose frames traverse a real TCP connection.
///
/// Writes land in a bounded egress port drained by a dedicated pump thread,
/// so the producer-side discipline matches an in-process edge: worker
/// threads see saturation, dedicated threads block.
pub struct TcpFrameSender {
    tx: Option<PortSender>,
    pump: Option<std::thread::JoinHandle<IngestResult<()>>>,
}

impl TcpFrameSender {
    /// Connect to `addr` and start the egress pump. `capacity` bounds the
    /// egress queue in frames.
    pub fn connect(
        addr: SocketAddr,
        registry: &MetricsRegistry,
        capacity: usize,
    ) -> IngestResult<TcpFrameSender> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| IngestError::Disconnected(format!("transport connect {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let (tx, rx) = frame_port(capacity);
        let m = TransportMetrics::for_registry(registry);
        let pump = sync_thread::spawn_named(format!("tcp-egress-{addr}"), move || {
            egress_pump(stream, rx, m, true)
        })
        .map_err(|e| IngestError::Plan(format!("spawn egress pump: {e}")))?;
        Ok(TcpFrameSender {
            tx: Some(tx),
            pump: Some(pump),
        })
    }

    fn sender(&self) -> IngestResult<&PortSender> {
        self.tx
            .as_ref()
            .ok_or_else(|| IngestError::Disconnected("transport sender already closed".into()))
    }

    /// Drain the egress queue and wait for the pump to finish the socket.
    fn join_pump(&mut self) -> IngestResult<()> {
        self.tx = None; // disconnect the port so the pump sees end-of-stream
        match self.pump.take() {
            Some(p) => p
                .join()
                .unwrap_or_else(|_| Err(IngestError::Plan("transport pump panicked".into()))),
            None => Ok(()),
        }
    }
}

impl FrameWriter for TcpFrameSender {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.sender()?.send_frame(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        self.sender()?.send_close()?;
        self.join_pump()
    }

    fn fail(&mut self) {
        if let Ok(tx) = self.sender() {
            tx.send_fail();
        }
        let _ = self.join_pump();
    }

    fn is_saturated(&self) -> bool {
        self.tx.as_ref().is_some_and(|t| t.is_saturated())
    }
}

impl Drop for TcpFrameSender {
    fn drop(&mut self) {
        // detach without joining: an abandoned sender must not block drop
        self.tx = None;
        self.pump = None;
    }
}

impl std::fmt::Debug for TcpFrameSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpFrameSender")
    }
}

/// Ingress side: decode one connection into `writer`.
///
/// Calls `writer.open()` first, then forwards frames; a wire Close calls
/// `writer.close()` and keeps reading (several logical producers may share
/// the socket — the caller's writer counts closes); a wire Fail calls
/// `writer.fail()`. Returns when the peer disconnects; a mid-message EOF is
/// an error.
pub fn drive_connection(
    mut stream: TcpStream,
    writer: &mut dyn FrameWriter,
    registry: &MetricsRegistry,
) -> IngestResult<()> {
    let m = TransportMetrics::for_registry(registry);
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    writer.open()?;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| IngestError::Disconnected(format!("transport read: {e}")))?;
        if n == 0 {
            decoder.finish()?;
            return Ok(());
        }
        m.bytes_received.add(n as u64);
        decoder.feed(&chunk[..n]);
        while let Some(msg) = decoder.next_msg()? {
            match msg {
                WireMsg::Frame(f) => {
                    m.frames_received.inc();
                    writer.next_frame(f)?;
                }
                WireMsg::Close => writer.close()?,
                WireMsg::Fail => {
                    writer.fail();
                    return Ok(());
                }
            }
        }
    }
}

/// Forwards decoded wire messages into a consumer port verbatim (closes are
/// *forwarded*, not interpreted — the consumer task counts them).
struct PortForwardWriter {
    tx: PortSender,
}

impl FrameWriter for PortForwardWriter {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        // dedicated ingress thread: blocking push is the back-pressure that
        // fills the kernel socket buffers and, transitively, the producer
        self.tx
            .push_blocking(TaskMsg::Frame(frame))
            .map_err(|_| IngestError::Disconnected("consumer gone".into()))
    }

    fn close(&mut self) -> IngestResult<()> {
        self.tx
            .push_blocking(TaskMsg::Close)
            .map_err(|_| IngestError::Disconnected("consumer gone".into()))
    }

    fn fail(&mut self) {
        self.tx.send_fail();
    }
}

/// Splice a loopback TCP hop in front of `consumer`: returns a relay
/// sender; everything pushed into it traverses a real socket before
/// reaching the consumer port. Used by the executor for
/// [`TransportKind::Tcp`] jobs.
pub(crate) fn bridge_consumer(
    registry: &MetricsRegistry,
    consumer: PortSender,
    capacity: usize,
    label: &str,
) -> IngestResult<PortSender> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| IngestError::Plan(format!("transport bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| IngestError::Plan(format!("transport addr: {e}")))?;
    let reg2 = registry.clone();
    sync_thread::spawn_named(format!("tcp-ingress-{label}"), move || {
        let Ok((stream, _peer)) = listener.accept() else {
            return;
        };
        drop(listener);
        let mut fwd = PortForwardWriter { tx: consumer };
        if drive_connection(stream, &mut fwd, &reg2).is_err() {
            // a torn stream is an abnormal upstream end: tell the consumer
            fwd.fail();
        }
    })
    .map_err(|e| IngestError::Plan(format!("spawn ingress: {e}")))?;

    let stream = TcpStream::connect(addr)
        .map_err(|e| IngestError::Disconnected(format!("transport connect {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let (tx, rx) = frame_port(capacity);
    let m = TransportMetrics::for_registry(registry);
    sync_thread::spawn_named(format!("tcp-egress-{label}"), move || {
        let _ = egress_pump(stream, rx, m, false);
    })
    .map_err(|e| IngestError::Plan(format!("spawn egress pump: {e}")))?;
    Ok(tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::{Record, RecordId, SimInstant};

    fn rec(i: u64) -> Record {
        Record::tracked(RecordId(i), (i % 3) as u32, format!("{{\"id\":{i}}}"))
            .stamped(SimInstant(1000 + i))
    }

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(ids.map(rec).collect())
    }

    #[test]
    fn roundtrip_messages() {
        let msgs = vec![
            WireMsg::Frame(frame(0..5)),
            WireMsg::Close,
            WireMsg::Frame(DataFrame::new()),
            WireMsg::Fail,
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            encode_msg(m, &mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        while let Some(m) = dec.next_msg().unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
        dec.finish().unwrap();
    }

    #[test]
    fn untracked_and_unstamped_records_roundtrip() {
        let f = DataFrame::from_records(vec![Record::untracked(7, "payload")]);
        let mut wire = Vec::new();
        encode_msg(&WireMsg::Frame(f.clone()), &mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_msg().unwrap(), Some(WireMsg::Frame(f)));
    }

    #[test]
    fn byte_at_a_time_feed() {
        let mut wire = Vec::new();
        encode_msg(&WireMsg::Frame(frame(0..3)), &mut wire);
        encode_msg(&WireMsg::Close, &mut wire);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out.len(), 2);
        dec.finish().unwrap();
    }

    #[test]
    fn torn_tail_is_detected() {
        let mut wire = Vec::new();
        encode_msg(&WireMsg::Frame(frame(0..3)), &mut wire);
        wire.truncate(wire.len() - 2);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_msg().unwrap(), None);
        assert!(dec.finish().is_err());
    }

    #[test]
    fn corrupt_tag_is_an_error() {
        let mut dec = FrameDecoder::new();
        dec.feed(&3u32.to_le_bytes());
        dec.feed(&[99, 0, 0]);
        assert!(dec.next_msg().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert!(dec.next_msg().is_err());
    }

    #[test]
    fn sender_to_listener_over_loopback() {
        let registry = MetricsRegistry::new();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let reg2 = registry.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let collector = crate::operator::Collector::new();
            let mut op = collector.operator();
            struct W<'a>(&'a mut crate::operator::CollectorOp);
            impl FrameWriter for W<'_> {
                fn open(&mut self) -> IngestResult<()> {
                    Ok(())
                }
                fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                    use crate::operator::{DevNull, UnaryOperator};
                    self.0.next_frame(f, &mut DevNull)
                }
                fn close(&mut self) -> IngestResult<()> {
                    use crate::operator::{DevNull, UnaryOperator};
                    self.0.close(&mut DevNull)
                }
                fn fail(&mut self) {}
            }
            drive_connection(stream, &mut W(&mut op), &reg2).unwrap();
            (collector.records(), collector.is_closed())
        });
        let mut tx = TcpFrameSender::connect(addr, &registry, 8).unwrap();
        tx.open().unwrap();
        tx.next_frame(frame(0..10)).unwrap();
        tx.next_frame(frame(10..20)).unwrap();
        tx.close().unwrap();
        let (records, closed) = server.join().unwrap();
        assert_eq!(records.len(), 20);
        assert!(closed);
        assert_eq!(records[3], rec(3), "metadata and payload survive the wire");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport.frames_sent"), 2);
        assert_eq!(snap.counter("transport.frames_received"), 2);
        assert!(snap.counter("transport.bytes_sent") > 0);
        assert_eq!(
            snap.counter("transport.bytes_sent"),
            snap.counter("transport.bytes_received")
        );
    }
}
