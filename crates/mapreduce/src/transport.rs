//! Framed, integrity-checked byte transport between the cluster and its
//! worker processes.
//!
//! Every message crossing a backend boundary is one [`Frame`]: a kind
//! byte, a little-endian length prefix, the payload, and a trailing
//! FxHash checksum over the payload (the workspace-wide stable hash —
//! the same function the shuffle's extent frames use). The checksum is
//! what turns socket-level corruption into a *typed, retryable* event
//! instead of silently wrong bytes: a receiver that reads a frame whose
//! hash does not match reports [`Received::Corrupt`] and stays in sync
//! (the length prefix still bounded the read), so the scheduler can
//! charge the failure to the in-flight task and re-execute it.
//!
//! [`UdsTransport`] is the channel: one end of a Unix-domain socket pair
//! (payloads are binary extent images, so the wire reuses
//! `relation::extent` end to end). Unix only, like the worker processes it
//! connects.

use relation::hash::stable_hash;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, PoisonError};

/// Frame header: kind byte + u64 payload length. Payload follows, then a
/// u64 FxHash of the payload.
const HEADER_LEN: usize = 1 + 8;

/// Refuse frames claiming more than this many payload bytes — a corrupted
/// length prefix must not turn into an unbounded allocation.
const MAX_FRAME_BYTES: u64 = 1 << 34;

/// What a message is, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Worker → cluster: "I am alive and ready" (sent once at startup).
    Hello,
    /// Worker → cluster: periodic liveness beacon.
    Heartbeat,
    /// Cluster → worker: a task descriptor (+ payload for reduce tasks).
    Task,
    /// Worker → cluster: mid-task progress marker (e.g. "shuffle phase
    /// verified") so retry accounting can charge failures to the right
    /// phase even when the worker dies before finishing.
    Progress,
    /// Worker → cluster: a task result (extent images or a typed error).
    TaskResult,
    /// Cluster → worker: exit cleanly.
    Shutdown,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Heartbeat => 1,
            FrameKind::Task => 2,
            FrameKind::Progress => 3,
            FrameKind::TaskResult => 4,
            FrameKind::Shutdown => 5,
        }
    }

    fn from_byte(b: u8) -> io::Result<FrameKind> {
        Ok(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::Heartbeat,
            2 => FrameKind::Task,
            3 => FrameKind::Progress,
            4 => FrameKind::TaskResult,
            5 => FrameKind::Shutdown,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame kind {other}"),
                ))
            }
        })
    }
}

/// One message: a kind and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What this message is.
    pub kind: FrameKind,
    /// Message body (task descriptors, extent images, error reports).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame (heartbeats, shutdown).
    pub fn control(kind: FrameKind) -> Frame {
        Frame {
            kind,
            payload: Vec::new(),
        }
    }
}

/// Outcome of receiving one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received {
    /// A verified frame.
    Frame(Frame),
    /// The frame's payload hash did not match: the bytes are damaged but
    /// the stream is still in sync (the length prefix bounded the read),
    /// so the connection stays usable. The receiver charges the damage to
    /// whatever the peer was sending and moves on.
    Corrupt,
}

/// Encode one frame to its wire bytes: `[kind u8][len u64][payload][hash u64]`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len() + 8);
    out.push(frame.kind.to_byte());
    out.extend_from_slice(&(frame.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    out.extend_from_slice(&stable_hash(&frame.payload).to_le_bytes());
    out
}

/// The byte offset of the payload inside an encoded frame — where the
/// chaos byte-flip lands so it damages data, not the header.
pub fn payload_offset() -> usize {
    HEADER_LEN
}

/// Decode one frame from a reader (blocking until a full frame arrives).
fn read_frame(reader: &mut impl Read) -> io::Result<Received> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let kind = FrameKind::from_byte(header[0])?;
    let len = u64::from_le_bytes(header[1..9].try_into().expect("8 header bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {len} payload bytes"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    let mut hash = [0u8; 8];
    reader.read_exact(&mut hash)?;
    if u64::from_le_bytes(hash) != stable_hash(&payload) {
        return Ok(Received::Corrupt);
    }
    Ok(Received::Frame(Frame { kind, payload }))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bidirectional, framed, integrity-checked message channel over one
/// end of a Unix-domain socket pair.
///
/// `send` takes `&self` so a worker's heartbeat thread and task loop can
/// share one transport; concurrent sends are serialized so frames never
/// interleave.
#[derive(Debug)]
pub struct UdsTransport {
    reader: Mutex<UnixStream>,
    writer: Mutex<UnixStream>,
}

impl UdsTransport {
    /// Wrap one end of a socket pair.
    pub fn new(stream: UnixStream) -> io::Result<UdsTransport> {
        let writer = stream.try_clone()?;
        Ok(UdsTransport {
            reader: Mutex::new(stream),
            writer: Mutex::new(writer),
        })
    }

    /// Send one frame.
    pub fn send(&self, frame: &Frame) -> io::Result<()> {
        self.send_raw(&encode_frame(frame))
    }

    /// Send pre-encoded frame bytes verbatim. This is the chaos hook: the
    /// sender can flip a byte *after* [`encode_frame`] computed the
    /// checksum, producing exactly the wire corruption the receiver's
    /// verification must catch.
    pub fn send_raw(&self, bytes: &[u8]) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        writer.write_all(bytes)?;
        writer.flush()
    }

    /// Receive the next frame, blocking — with `timeout`, for at most that
    /// long without a byte arriving (`WouldBlock` / `TimedOut`).
    /// `Ok(Received::Corrupt)` is a verification failure with the stream
    /// still in sync; any other `Err` is a dead or violated connection
    /// (EOF, I/O error, bad frame kind).
    pub fn recv(&self, timeout: Option<std::time::Duration>) -> io::Result<Received> {
        let mut reader = lock(&self.reader);
        reader.set_read_timeout(timeout)?;
        read_frame(&mut *reader)
    }
}

/// Little-endian payload builder for task descriptors and results.
#[derive(Debug, Default)]
pub(crate) struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a received payload; every read is bounds-checked so a
/// malformed payload surfaces as an error, never a panic.
#[derive(Debug)]
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "payload truncated: wanted {n} byte(s) at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ),
            )),
        }
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    pub fn str(&mut self) -> io::Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf-8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, payload: &[u8]) -> Frame {
        Frame {
            kind,
            payload: payload.to_vec(),
        }
    }

    fn pair() -> (UdsTransport, UdsTransport) {
        let (x, y) = UnixStream::pair().unwrap();
        (UdsTransport::new(x).unwrap(), UdsTransport::new(y).unwrap())
    }

    #[test]
    fn frames_round_trip_in_both_directions() {
        let cases = [
            frame(FrameKind::Hello, b""),
            frame(FrameKind::Task, b"descriptor"),
            frame(FrameKind::TaskResult, &vec![7u8; 4096]),
            Frame::control(FrameKind::Shutdown),
        ];
        let (x, y) = pair();
        for f in &cases {
            x.send(f).unwrap();
            assert_eq!(y.recv(None).unwrap(), Received::Frame(f.clone()));
            y.send(f).unwrap();
            assert_eq!(x.recv(None).unwrap(), Received::Frame(f.clone()));
        }
    }

    #[test]
    fn corrupted_payload_is_detected_and_stream_stays_in_sync() {
        let (a, b) = pair();
        let f = frame(FrameKind::TaskResult, b"precious result bytes");
        let mut encoded = encode_frame(&f);
        let mid = payload_offset() + f.payload.len() / 2;
        encoded[mid] ^= 0xFF;
        a.send_raw(&encoded).unwrap();
        a.send(&f).unwrap();
        assert_eq!(b.recv(None).unwrap(), Received::Corrupt);
        // The next frame decodes cleanly: corruption did not desync.
        assert_eq!(b.recv(None).unwrap(), Received::Frame(f));
    }

    #[test]
    fn closed_socket_surfaces_as_error_not_corruption() {
        let (x, y) = pair();
        drop(y);
        assert!(x.recv(None).is_err());
    }

    #[test]
    fn a_silent_peer_times_out_and_the_stream_stays_usable() {
        let (x, y) = pair();
        let waited = x.recv(Some(std::time::Duration::from_millis(10)));
        let kind = waited.unwrap_err().kind();
        assert!(matches!(
            kind,
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        let f = frame(FrameKind::Heartbeat, b"");
        y.send(&f).unwrap();
        assert_eq!(x.recv(None).unwrap(), Received::Frame(f));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let f = frame(FrameKind::Task, b"x");
        let mut encoded = encode_frame(&f);
        encoded[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        let (a, b) = pair();
        a.send_raw(&encoded).unwrap();
        assert!(b.recv(None).is_err());
    }

    #[test]
    fn payload_reader_round_trips_and_bounds_checks() {
        let mut w = PayloadWriter::new();
        w.u8(3).u64(99).str("stage/a").bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 99);
        assert_eq!(r.str().unwrap(), "stage/a");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.u8().is_err(), "reads past the end must error");
    }
}
