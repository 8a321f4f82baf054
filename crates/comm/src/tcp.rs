//! The loopback TCP wire: every envelope becomes a length-prefixed frame
//! on a real socket.
//!
//! One listener per rank is bound on `127.0.0.1:0` when the transport
//! starts; an acceptor thread per rank turns incoming connections into
//! reader threads that decode frames straight into the rank's existing
//! in-process inbox — the mailbox, sequence-cursor and reassembly
//! machinery above the [`Transport`] boundary is byte-for-byte the same
//! code the channel backend runs.
//!
//! A frame costs one user-space copy on each side and, once a link has
//! carried its largest frame, no allocation but the decoded payload:
//!
//! * **One slot per directed link.** `(src, dst)` owns one [`Link`]
//!   behind one lock: the pooled stream, the frame and dial counters the
//!   fault specs index, and an encode buffer that is resized to each
//!   frame, never reallocated for one that fits. The payload words go
//!   into it in one pass; the envelope is dropped before the write.
//! * **One body buffer per reader connection,** resized the same way;
//!   the payload words come back out of it in one pass.
//! * **The cap is checked on both sides.** A frame body over
//!   [`MAX_FRAME_BYTES`] is refused by the sender before anything is
//!   written — a typed [`CommError::Protocol`] for the rank that sent
//!   it, not a dropped connection that blames the receiver — and by the
//!   reader before it sizes its buffer.
//!
//! Robustness model, in the order a frame meets it:
//!
//! * **Bounded connect retries.** A connection is dialled lazily on the
//!   first frame of a `(src, dst)` link. Refused or transiently failing
//!   dials are retried up to [`CONNECT_ATTEMPTS`] times under capped
//!   exponential backoff; an exhausted budget maps to
//!   [`CommError::Unreachable`], which feeds the same shrink-and-retry
//!   recovery a dead peer does.
//! * **Per-operation deadlines.** Writes carry a deadline; a peer whose
//!   TCP stack stops draining maps to [`CommError::Timeout`] instead of
//!   wedging the sender forever.
//! * **Transparent reconnect.** A write failing with a disconnect error
//!   (peer reset, broken pipe) drops the pooled connection, redials, and
//!   resends the frame once. The resend can duplicate a frame the peer
//!   already received — which is exactly why the TCP backend always runs
//!   with per-link sequence numbers: the receiver's cursor suppresses
//!   the duplicate, so delivery stays exactly-once and in order.
//! * **Graceful shutdown.** `shutdown` runs after every rank thread has
//!   exited (nothing is mid-send), stops the IO threads, and joins them.
//!
//! Seeded TCP-only faults from the [`LinkPlan`] — refused connects,
//! mid-stream resets, stalled sockets — are injected *here*, below the
//! virtual-clock chaos, because they are wall-clock socket conditions
//! channels cannot produce. They are all absorbed by the retry/reconnect
//! machinery (or surface as typed errors), so a plan that adds them
//! still yields products bit-identical to the channel backend.
//!
//! [`Transport`]: crate::transport::Transport
//! [`LinkPlan`]: crate::fault::LinkPlan

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::chan::Sender;
use crate::comm::CONTROL_COMM;
use crate::error::{CommError, CommResult};
use crate::fault::LinkPlan;
use crate::message::{Envelope, Payload};
use crate::sync::Mutex;
use crate::transport::{Backend, Transport};
use summagen_metrics::RuntimeMetrics;

/// Wire format version stamped into every frame body.
pub(crate) const FRAME_VERSION: u8 = 1;

/// Upper bound on a frame body. Generous for soak-scale payloads (a
/// 64 MiB frame is an 8M-element panel) while keeping a corrupted length
/// prefix from turning into a multi-gigabyte allocation.
pub(crate) const MAX_FRAME_BYTES: usize = 64 << 20;

/// Dial attempts per connection before the link is declared unreachable.
pub(crate) const CONNECT_ATTEMPTS: u32 = 8;

/// Base of the capped exponential connect backoff.
const CONNECT_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling on a single connect backoff sleep.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Write deadline per frame: a peer that stops draining its socket for
/// this long is treated as gone, not waited on forever.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// Reader-side poll interval: how often a blocked read wakes to check
/// the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);

// --- framing codec ---------------------------------------------------

/// Body bytes ahead of the payload words: version, five header words,
/// link-seq flag, payload kind and element count.
const BODY_FIXED_BYTES: usize = 1 + 5 * 8 + 1 + 1 + 8;

/// Length of `env`'s frame body, the bytes after the length prefix.
fn body_len(env: &Envelope) -> usize {
    let link_seq = if env.link_seq.is_some() { 8 } else { 0 };
    let words = match &env.payload {
        Payload::Phantom { .. } => 0,
        real => real.bytes(),
    };
    BODY_FIXED_BYTES + link_seq + words
}

/// Checks a body length against the wire's limits: zero and over-cap
/// lengths are protocol violations, not allocations. The sender checks
/// before it writes (so an oversized payload never reaches the socket and
/// never wraps the `u32` prefix), the reader before it allocates.
fn check_body_len(len: usize) -> Result<usize, CommError> {
    if len == 0 {
        return Err(CommError::Protocol {
            reason: "zero-length frame".into(),
        });
    }
    if len > MAX_FRAME_BYTES {
        return Err(CommError::Protocol {
            reason: format!("{len}-byte frame exceeds the {MAX_FRAME_BYTES}-byte cap"),
        });
    }
    Ok(len)
}

/// Writes a frame front to back into a buffer already sized to it.
struct Put<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Put<'_> {
    fn bytes(&mut self, b: &[u8]) {
        let end = self.pos + b.len();
        self.buf[self.pos..end].copy_from_slice(b);
        self.pos = end;
    }

    fn u8(&mut self, b: u8) {
        self.bytes(&[b]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A payload section: kind byte, element count, then every word in
    /// one pass over the buffer.
    fn words(&mut self, kind: u8, words: impl ExactSizeIterator<Item = u64>) {
        self.u8(kind);
        self.u64(words.len() as u64);
        let end = self.pos + 8 * words.len();
        for (out, w) in self.buf[self.pos..end].chunks_exact_mut(8).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
        self.pos = end;
    }
}

/// Encodes `env` as one wire frame into `buf`: a `u32` little-endian body
/// length followed by the body (version byte, header words, payload).
///
/// `buf` is resized to the frame and every byte of it is written, so a
/// buffer reused across frames carries nothing over and is zero-filled
/// only where it grows. The caller has checked [`body_len`] against the
/// cap.
pub(crate) fn encode_frame(env: &Envelope, buf: &mut Vec<u8>) {
    let body = body_len(env);
    buf.resize(4 + body, 0);
    let mut put = Put { buf, pos: 0 };
    put.bytes(&(body as u32).to_le_bytes());
    put.u8(FRAME_VERSION);
    put.u64(env.src as u64);
    put.u64(env.comm_id);
    put.u64(env.tag);
    put.u64(env.arrival.to_bits());
    put.u64(env.seq);
    match env.link_seq {
        Some(s) => {
            put.u8(1);
            put.u64(s);
        }
        None => put.u8(0),
    }
    match &env.payload {
        Payload::F64(v) => put.words(0, v.iter().map(|x| x.to_bits())),
        // On the wire a shared buffer is the plain F64 frame.
        Payload::SharedF64(v) => put.words(0, v.iter().map(|x| x.to_bits())),
        Payload::U64(v) => put.words(1, v.iter().copied()),
        Payload::Phantom { elems } => {
            put.u8(2);
            put.u64(*elems as u64);
        }
    }
}

/// Validates a length prefix with [`check_body_len`].
pub(crate) fn frame_len(header: [u8; 4]) -> Result<usize, CommError> {
    check_body_len(u32::from_le_bytes(header) as usize)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_u8(&mut self) -> Result<u8, CommError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| CommError::Protocol {
            reason: format!("truncated frame: wanted 1 byte at offset {}", self.pos),
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn take_u64(&mut self) -> Result<u64, CommError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| CommError::Protocol {
                reason: format!("truncated frame: wanted 8 bytes at offset {}", self.pos),
            })?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Every remaining byte as a little-endian word; the caller has
    /// checked that they divide into words.
    fn take_words(&mut self) -> &'a [[u8; 8]] {
        let buf: &'a [u8] = self.buf;
        let (words, _) = buf[self.pos..].as_chunks::<8>();
        self.pos += 8 * words.len();
        words
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes one frame body (the bytes after the length prefix) back into
/// an [`Envelope`]. Every malformation — wrong version, unknown payload
/// kind, truncation, trailing garbage — is a typed
/// [`CommError::Protocol`], never a panic.
pub(crate) fn decode_body(body: &[u8]) -> Result<Envelope, CommError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let version = c.take_u8()?;
    if version != FRAME_VERSION {
        return Err(CommError::Protocol {
            reason: format!("frame version {version}, expected {FRAME_VERSION}"),
        });
    }
    let src = c.take_u64()? as usize;
    let comm_id = c.take_u64()?;
    let tag = c.take_u64()?;
    let arrival = f64::from_bits(c.take_u64()?);
    let seq = c.take_u64()?;
    let link_seq = match c.take_u8()? {
        0 => None,
        1 => Some(c.take_u64()?),
        b => {
            return Err(CommError::Protocol {
                reason: format!("invalid link_seq flag {b}"),
            })
        }
    };
    let kind = c.take_u8()?;
    let count = c.take_u64()?;
    let payload = match kind {
        0 | 1 => {
            let want = count.checked_mul(8).ok_or_else(|| CommError::Protocol {
                reason: format!("payload count {count} overflows"),
            })?;
            if want != c.remaining() as u64 {
                return Err(CommError::Protocol {
                    reason: format!(
                        "payload of {count} elements wants {want} bytes, frame has {}",
                        c.remaining()
                    ),
                });
            }
            let words = c.take_words().iter().map(|w| u64::from_le_bytes(*w));
            if kind == 0 {
                Payload::F64(words.map(f64::from_bits).collect())
            } else {
                Payload::U64(words.collect())
            }
        }
        2 => Payload::Phantom {
            elems: count as usize,
        },
        b => {
            return Err(CommError::Protocol {
                reason: format!("unknown payload kind {b}"),
            })
        }
    };
    if c.remaining() != 0 {
        return Err(CommError::Protocol {
            reason: format!("{} trailing bytes after payload", c.remaining()),
        });
    }
    Ok(Envelope {
        src,
        comm_id,
        tag,
        arrival,
        seq,
        link_seq,
        payload,
    })
}

// --- reader side ------------------------------------------------------

enum Fill {
    Full,
    Eof,
    Stopped,
}

/// Reads exactly `buf.len()` bytes, waking every [`READ_POLL`] to check
/// the shutdown flag. A clean EOF before the first byte is `Eof` when
/// `eof_ok`; mid-buffer EOF is an `UnexpectedEof` error (a truncated
/// frame).
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    eof_ok: bool,
) -> io::Result<Fill> {
    let mut n = 0;
    while n < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Ok(Fill::Stopped);
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) => {
                if n == 0 && eof_ok {
                    return Ok(Fill::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(k) => n += k,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Drains one connection: decodes frames into the destination rank's
/// in-process inbox until EOF, a protocol violation, or shutdown. A
/// closed inbox (the rank died) just discards the frame, mirroring the
/// channel backend's fire-and-forget delivery semantics.
fn run_reader(mut stream: TcpStream, tx: Sender<Envelope>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut header = [0u8; 4];
    // One body buffer per connection, resized to each frame: `fill`
    // overwrites all of it, so it is zero-filled only where it grows.
    let mut body = Vec::new();
    loop {
        match fill(&mut stream, &mut header, &stop, true) {
            Ok(Fill::Full) => {}
            _ => return,
        }
        let len = match frame_len(header) {
            Ok(len) => len,
            // Garbage length prefix: the stream can never resynchronise,
            // so drop the connection (the sender will reconnect).
            Err(_) => return,
        };
        body.resize(len, 0);
        match fill(&mut stream, &mut body, &stop, false) {
            Ok(Fill::Full) => {}
            _ => return,
        }
        match decode_body(&body) {
            Ok(env) => {
                let _ = tx.send(env);
            }
            Err(_) => return,
        }
    }
}

fn run_acceptor(
    listener: TcpListener,
    tx: Sender<Envelope>,
    stop: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                let h = std::thread::spawn(move || run_reader(stream, tx, stop));
                threads.lock().push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

// --- sender side ------------------------------------------------------

/// One directed link's sender state. A frame is counted, encoded and
/// written under the link's one lock, so frames never interleave.
#[derive(Default)]
struct Link {
    /// The pooled connection: `None` until the first frame dials it, and
    /// reset to `None` on disconnect so the next write redials.
    conn: Option<TcpStream>,
    /// The frame being written, reused across frames: it is resized to
    /// each one and reallocated only when a frame outgrows it.
    buf: Vec<u8>,
    /// Frames sent on the link, indexing the seeded TCP fault specs.
    frames: u64,
    /// Cumulative dials, indexing the refuse specs.
    dials: u32,
}

/// The loopback TCP [`Transport`]: one listener per rank, lazily dialled
/// pooled connections per directed link, frames encoded by the codec
/// above.
pub(crate) struct TcpTransport {
    /// The ranks' in-process inboxes; readers decode into these, and
    /// control-plane envelopes (death notices) bypass the socket
    /// entirely — they must reach survivors even when the wire is the
    /// thing that is broken.
    local: Vec<Sender<Envelope>>,
    /// Per-rank listener addresses.
    addrs: Vec<SocketAddr>,
    /// Per-rank closed flags, mirroring the channel backend's
    /// fail-fast-after-death delivery errors.
    closed: Vec<AtomicBool>,
    /// One slot per directed link `(src, dst)`, at `src * p + dst`.
    links: Vec<Mutex<Link>>,
    plan: LinkPlan,
    metrics: Option<Arc<RuntimeMetrics>>,
    stop: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpTransport {
    /// Binds one loopback listener per rank and spawns the acceptor
    /// threads. `local` are the ranks' in-process inbox senders (one per
    /// rank, in rank order).
    pub(crate) fn start(
        local: Vec<Sender<Envelope>>,
        plan: LinkPlan,
        metrics: Option<Arc<RuntimeMetrics>>,
    ) -> io::Result<Self> {
        let p = local.len();
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut addrs = Vec::with_capacity(p);
        for tx in local.iter().take(p) {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            let tx = tx.clone();
            let stop_c = Arc::clone(&stop);
            let threads_c = Arc::clone(&threads);
            let h = std::thread::spawn(move || run_acceptor(listener, tx, stop_c, threads_c));
            threads.lock().push(h);
        }
        Ok(Self {
            local,
            addrs,
            closed: (0..p).map(|_| AtomicBool::new(false)).collect(),
            links: (0..p * p).map(|_| Mutex::default()).collect(),
            plan,
            metrics,
            stop,
            threads,
        })
    }

    /// How many dials the seeded plan refuses on this link.
    fn refuse_budget(&self, key: (usize, usize)) -> u32 {
        self.plan
            .tcp_refuse
            .iter()
            .filter(|&&(s, d, _)| (s, d) == key)
            .map(|&(_, _, n)| n)
            .max()
            .unwrap_or(0)
    }

    fn stall_millis(&self, key: (usize, usize), frame: u64) -> Option<u64> {
        self.plan
            .tcp_stall
            .iter()
            .find(|&&(s, d, k, _)| (s, d) == key && k == frame)
            .map(|&(_, _, _, ms)| ms)
    }

    fn reset_before(&self, key: (usize, usize), frame: u64) -> bool {
        self.plan
            .tcp_reset
            .iter()
            .any(|&(s, d, k)| (s, d) == key && k == frame)
    }

    /// Dials `dst` with bounded retries and capped exponential backoff.
    /// Seeded refusals consume real attempts from the same budget;
    /// `dials` is the link's cumulative dial counter.
    fn connect(&self, dials: &mut u32, key: (usize, usize), dst: usize) -> io::Result<TcpStream> {
        let mut backoff = CONNECT_BACKOFF_BASE;
        for attempt in 0..CONNECT_ATTEMPTS {
            if attempt > 0 {
                if let Some(m) = &self.metrics {
                    m.tcp_connect_retries.inc();
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
            let dial = *dials;
            *dials += 1;
            if dial < self.refuse_budget(key) {
                continue;
            }
            match TcpStream::connect(self.addrs[dst]) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
                    if let Some(m) = &self.metrics {
                        m.tcp_connects.inc();
                    }
                    return Ok(stream);
                }
                // Transient dial failures (refused while the listener
                // backlog churns, interrupted) burn an attempt and back
                // off; anything else is fatal immediately.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                            | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("rank {dst} refused {CONNECT_ATTEMPTS} connect attempts"),
        ))
    }

    /// Writes the link's encoded frame, dialling first if the link has
    /// no connection.
    fn write_frame(&self, link: &mut Link, key: (usize, usize), dst: usize) -> io::Result<()> {
        if link.conn.is_none() {
            link.conn = Some(self.connect(&mut link.dials, key, dst)?);
        }
        link.conn
            .as_mut()
            .expect("connection just dialled")
            .write_all(&link.buf)
    }
}

/// Write errors that mean "the connection is gone" (redial and resend)
/// as opposed to "the peer is slow" or "the frame is bad".
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
    )
}

/// Maps a socket error on a send to the typed taxonomy: deadlines become
/// `Timeout`, everything else means the peer is gone — `Unreachable`,
/// which feeds shrink-and-retry recovery exactly like an exhausted ARQ
/// budget does.
fn map_io_error(e: &io::Error, dst: usize, tag: u64) -> CommError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CommError::Timeout {
            src: Some(dst),
            tag,
            waited: WRITE_DEADLINE,
        },
        io::ErrorKind::ConnectionRefused => CommError::Unreachable {
            rank: dst,
            attempts: CONNECT_ATTEMPTS,
        },
        _ => CommError::Unreachable {
            rank: dst,
            attempts: 2,
        },
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        Backend::Tcp.name()
    }

    fn deliver(&self, dst: usize, env: Envelope) -> CommResult<()> {
        if self.closed[dst].load(Ordering::SeqCst) {
            return Err(CommError::ChannelClosed { rank: dst });
        }
        // Control-plane traffic (death notices) stays off the socket: it
        // must reach survivors precisely when the wire is broken.
        if env.comm_id == CONTROL_COMM {
            return self.local[dst]
                .send(env)
                .map_err(|_| CommError::ChannelClosed { rank: dst });
        }
        // An oversized frame is the sender's fault: refuse it here rather
        // than have the reader drop the connection and the resend blame a
        // healthy peer.
        check_body_len(body_len(&env))?;
        let key = (env.src, dst);
        let tag = env.tag;
        let mut link = self.links[key.0 * self.local.len() + dst].lock();
        let frame_idx = link.frames;
        link.frames += 1;
        if let Some(ms) = self.stall_millis(key, frame_idx) {
            if let Some(m) = &self.metrics {
                m.tcp_stalls.inc();
            }
            std::thread::sleep(Duration::from_millis(ms));
        }
        encode_frame(&env, &mut link.buf);
        // The frame holds everything now: free the payload (or release the
        // shared buffer) before the write can block.
        drop(env);
        if self.reset_before(key, frame_idx) {
            if let Some(s) = link.conn.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
            if let Some(m) = &self.metrics {
                m.tcp_resets.inc();
            }
        }
        match self.write_frame(&mut link, key, dst) {
            Ok(()) => Ok(()),
            Err(e) if is_disconnect(&e) => {
                // The connection died under us (peer reset, broken
                // pipe): redial once and resend. If the lost write had
                // partially arrived, the receiver's reader drops the
                // truncated tail with the connection and the sequence
                // cursor absorbs any duplicate of a fully-arrived frame.
                link.conn = None;
                if let Some(m) = &self.metrics {
                    m.tcp_reconnects.inc();
                }
                self.write_frame(&mut link, key, dst)
                    .map_err(|e| map_io_error(&e, dst, tag))
            }
            Err(e) => Err(map_io_error(&e, dst, tag)),
        }
    }

    fn close(&self, rank: usize) {
        self.closed[rank].store(true, Ordering::SeqCst);
        self.local[rank].close();
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for link in &self.links {
            if let Some(s) = link.lock().conn.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        loop {
            let Some(h) = self.threads.lock().pop() else {
                break;
            };
            let _ = h.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env(link_seq: Option<u64>, payload: Payload) -> Envelope {
        Envelope {
            src: 3,
            comm_id: 42,
            tag: 7,
            arrival: 1.25e-3,
            seq: 9,
            link_seq,
            payload,
        }
    }

    /// A frame encoded into a fresh buffer.
    fn frame_of(env: &Envelope) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(env, &mut buf);
        buf
    }

    fn round_trip(env: &Envelope) -> Envelope {
        let frame = frame_of(env);
        let len = frame_len(frame[..4].try_into().unwrap()).unwrap();
        assert_eq!(len, frame.len() - 4);
        decode_body(&frame[4..]).unwrap()
    }

    #[test]
    fn codec_round_trips_every_payload_kind() {
        for payload in [
            Payload::F64(vec![1.5, -2.25, 0.0, f64::MAX]),
            Payload::U64(vec![0, 1, u64::MAX]),
            Payload::Phantom { elems: 123_456 },
            Payload::F64(Vec::new()),
            Payload::U64(Vec::new()),
        ] {
            for link_seq in [None, Some(0), Some(u64::MAX)] {
                let e = env(link_seq, payload.clone());
                let back = round_trip(&e);
                assert_eq!(back.src, e.src);
                assert_eq!(back.comm_id, e.comm_id);
                assert_eq!(back.tag, e.tag);
                assert_eq!(back.arrival.to_bits(), e.arrival.to_bits());
                assert_eq!(back.seq, e.seq);
                assert_eq!(back.link_seq, e.link_seq);
                match (&back.payload, &e.payload) {
                    (Payload::F64(a), Payload::F64(b)) => assert_eq!(a, b),
                    (Payload::U64(a), Payload::U64(b)) => assert_eq!(a, b),
                    (Payload::Phantom { elems: a }, Payload::Phantom { elems: b }) => {
                        assert_eq!(a, b)
                    }
                    other => panic!("payload kind changed: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_typed_errors() {
        let too_big = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        match frame_len(too_big) {
            Err(CommError::Protocol { reason }) => assert!(reason.contains("cap"), "{reason}"),
            other => panic!("expected Protocol, got {other:?}"),
        }
        assert!(matches!(
            frame_len(0u32.to_le_bytes()),
            Err(CommError::Protocol { .. })
        ));
    }

    #[test]
    fn wrong_version_unknown_kind_and_trailing_bytes_are_rejected() {
        let good = frame_of(&env(Some(4), Payload::U64(vec![8, 9])));
        let body = &good[4..];
        let mut wrong_version = body.to_vec();
        wrong_version[0] = FRAME_VERSION + 1;
        assert!(matches!(
            decode_body(&wrong_version),
            Err(CommError::Protocol { .. })
        ));
        // The payload-kind byte sits right after the header words and
        // link_seq flag+value.
        let kind_at = 1 + 5 * 8 + 1 + 8;
        let mut unknown_kind = body.to_vec();
        unknown_kind[kind_at] = 9;
        assert!(matches!(
            decode_body(&unknown_kind),
            Err(CommError::Protocol { .. })
        ));
        // For sized payloads extra bytes trip the exact-size check; for
        // Phantom (no payload bytes) the dedicated trailing-bytes check
        // is what catches them.
        let mut trailing = body.to_vec();
        trailing.push(0xAB);
        match decode_body(&trailing) {
            Err(CommError::Protocol { reason }) => {
                assert!(reason.contains("wants"), "{reason}")
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
        let phantom = frame_of(&env(None, Payload::Phantom { elems: 3 }));
        let mut trailing = phantom[4..].to_vec();
        trailing.push(0xAB);
        match decode_body(&trailing) {
            Err(CommError::Protocol { reason }) => {
                assert!(reason.contains("trailing"), "{reason}")
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    /// The per-element codec the bulk one replaced, kept as the wire
    /// format's oracle: one `extend_from_slice` per word out, one
    /// bounds-checked read per word back.
    mod oracle {
        use super::super::*;

        fn push_u64(buf: &mut Vec<u8>, v: u64) {
            buf.extend_from_slice(&v.to_le_bytes());
        }

        fn push_f64s(buf: &mut Vec<u8>, v: &[f64]) {
            buf.push(0);
            push_u64(buf, v.len() as u64);
            for x in v {
                push_u64(buf, x.to_bits());
            }
        }

        pub(super) fn encode_frame(env: &Envelope) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(&[0u8; 4]);
            buf.push(FRAME_VERSION);
            push_u64(&mut buf, env.src as u64);
            push_u64(&mut buf, env.comm_id);
            push_u64(&mut buf, env.tag);
            push_u64(&mut buf, env.arrival.to_bits());
            push_u64(&mut buf, env.seq);
            match env.link_seq {
                Some(s) => {
                    buf.push(1);
                    push_u64(&mut buf, s);
                }
                None => buf.push(0),
            }
            match &env.payload {
                Payload::F64(v) => push_f64s(&mut buf, v),
                Payload::SharedF64(v) => push_f64s(&mut buf, v),
                Payload::U64(v) => {
                    buf.push(1);
                    push_u64(&mut buf, v.len() as u64);
                    for x in v {
                        push_u64(&mut buf, *x);
                    }
                }
                Payload::Phantom { elems } => {
                    buf.push(2);
                    push_u64(&mut buf, *elems as u64);
                }
            }
            let body_len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&body_len.to_le_bytes());
            buf
        }

        pub(super) fn decode_body(body: &[u8]) -> Result<Envelope, CommError> {
            let mut c = Cursor { buf: body, pos: 0 };
            let version = c.take_u8()?;
            if version != FRAME_VERSION {
                return Err(CommError::Protocol {
                    reason: format!("frame version {version}, expected {FRAME_VERSION}"),
                });
            }
            let src = c.take_u64()? as usize;
            let comm_id = c.take_u64()?;
            let tag = c.take_u64()?;
            let arrival = f64::from_bits(c.take_u64()?);
            let seq = c.take_u64()?;
            let link_seq = match c.take_u8()? {
                0 => None,
                1 => Some(c.take_u64()?),
                b => {
                    return Err(CommError::Protocol {
                        reason: format!("invalid link_seq flag {b}"),
                    })
                }
            };
            let kind = c.take_u8()?;
            let count = c.take_u64()?;
            let payload = match kind {
                0 | 1 => {
                    let want = count.checked_mul(8).ok_or_else(|| CommError::Protocol {
                        reason: format!("payload count {count} overflows"),
                    })?;
                    if want != c.remaining() as u64 {
                        return Err(CommError::Protocol {
                            reason: format!(
                                "payload of {count} elements wants {want} bytes, frame has {}",
                                c.remaining()
                            ),
                        });
                    }
                    if kind == 0 {
                        let mut v = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            v.push(f64::from_bits(c.take_u64()?));
                        }
                        Payload::F64(v)
                    } else {
                        let mut v = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            v.push(c.take_u64()?);
                        }
                        Payload::U64(v)
                    }
                }
                2 => Payload::Phantom {
                    elems: count as usize,
                },
                b => {
                    return Err(CommError::Protocol {
                        reason: format!("unknown payload kind {b}"),
                    })
                }
            };
            if c.remaining() != 0 {
                return Err(CommError::Protocol {
                    reason: format!("{} trailing bytes after payload", c.remaining()),
                });
            }
            Ok(Envelope {
                src,
                comm_id,
                tag,
                arrival,
                seq,
                link_seq,
                payload,
            })
        }
    }

    /// The header words, link-seq, payload kind and payload words of an
    /// envelope, as bits, so that NaNs and signed zeros compare exactly.
    type Bits = ([u64; 5], Option<u64>, &'static str, Vec<u64>);

    fn bits(e: &Envelope) -> Bits {
        let words = match &e.payload {
            Payload::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Payload::SharedF64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Payload::U64(v) => v.clone(),
            Payload::Phantom { elems } => vec![*elems as u64],
        };
        let head = [e.src as u64, e.comm_id, e.tag, e.arrival.to_bits(), e.seq];
        (head, e.link_seq, e.payload.kind(), words)
    }

    /// A decoder's verdict on one body, comparable bit for bit.
    type Verdict = Result<Bits, String>;

    fn verdict(got: Result<Envelope, CommError>) -> Verdict {
        got.map(|e| bits(&e)).map_err(|e| e.to_string())
    }

    /// An envelope drawn from the proptest inputs; `kind` 3 is a shared
    /// buffer, which must hit the wire as the plain `F64` frame.
    fn arbitrary(head: [u64; 5], link_seq: Option<u64>, kind: u32, data: &[u64]) -> Envelope {
        let floats = || data.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
        Envelope {
            src: (head[0] % 64) as usize,
            comm_id: head[1],
            tag: head[2],
            arrival: f64::from_bits(head[3]),
            seq: head[4],
            link_seq,
            payload: match kind {
                0 => Payload::F64(floats()),
                1 => Payload::U64(data.to_vec()),
                2 => Payload::Phantom { elems: data.len() },
                _ => Payload::SharedF64(Arc::new(floats())),
            },
        }
    }

    #[test]
    fn the_sender_cap_is_the_readers_and_stops_the_prefix_wrapping() {
        assert_eq!(check_body_len(MAX_FRAME_BYTES), Ok(MAX_FRAME_BYTES));
        for len in [0, MAX_FRAME_BYTES + 1, (1 << 32) + 100] {
            assert!(
                matches!(check_body_len(len), Err(CommError::Protocol { .. })),
                "{len}"
            );
        }
        // A body of 4 GiB + 100 bytes would have gone out with the
        // prefix of a 100-byte frame.
        assert!(frame_len((((1u64 << 32) + 100) as u32).to_le_bytes()).is_ok());
        let e = env(Some(1), Payload::F64(vec![0.0; 3]));
        assert_eq!(body_len(&e), frame_of(&e).len() - 4);
    }

    /// One link carries frames that grow and shrink through every payload
    /// kind over one connection: the sender's encode buffer and the
    /// reader's body buffer are reused throughout, and every frame still
    /// arrives bit-exact and in order.
    #[test]
    fn reused_link_buffers_hold_no_stale_bytes() {
        use crate::{Universe, ZeroCost};
        let panel = |salt: u64| -> Vec<f64> {
            (0..(1u64 << 17))
                .map(|i| f64::from_bits((i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect()
        };
        let sent = vec![
            Payload::F64(panel(1)),
            Payload::F64(vec![-0.0, f64::NAN, 3.5]),
            Payload::F64(Vec::new()),
            Payload::U64(vec![u64::MAX, 0, 7]),
            Payload::Phantom { elems: 1 << 20 },
            Payload::SharedF64(Arc::new(vec![1.0, 2.0])),
            Payload::F64(panel(2)),
        ];
        let metrics = RuntimeMetrics::fresh();
        let got = Universe::new(2, ZeroCost)
            .with_backend(Backend::Tcp)
            .with_metrics(Arc::clone(&metrics))
            .recv_timeout(Duration::from_secs(10))
            .try_run(|comm| {
                let mut got = Vec::new();
                for p in &sent {
                    match comm.rank() {
                        0 => comm.try_send(1, 5, p.clone())?,
                        _ => got.push(comm.try_recv(0, 5)?),
                    }
                }
                Ok(got)
            })
            .expect("the run succeeds");
        assert_eq!(got[1].len(), sent.len());
        for (i, (g, s)) in got[1].iter().zip(&sent).enumerate() {
            let wrap = |payload: &Payload| env(None, payload.clone());
            assert_eq!(bits(&wrap(g)), bits(&wrap(s)), "frame {i}");
        }
        // One connection carried them all.
        assert_eq!(metrics.tcp_connects.get(), 1);
        assert_eq!(metrics.tcp_reconnects.get(), 0);
    }

    /// A payload whose frame would exceed the cap fails the sender with a
    /// `Protocol` error naming the size and the cap; nothing is written,
    /// so the healthy receiver is not blamed and no resend happens.
    #[test]
    fn an_oversized_frame_fails_the_sender_not_the_peer() {
        use crate::{FailureCause, Universe, ZeroCost};
        let elems = MAX_FRAME_BYTES / 8;
        let metrics = RuntimeMetrics::fresh();
        let failure = Universe::new(2, ZeroCost)
            .with_backend(Backend::Tcp)
            .with_metrics(Arc::clone(&metrics))
            .recv_timeout(Duration::from_secs(30))
            .try_run(|comm| match comm.rank() {
                0 => comm.try_send(1, 0, Payload::F64(vec![0.0; elems])),
                _ => comm.try_recv(0, 0).map(drop),
            })
            .expect_err("the send is refused");
        let sender = failure.failed.iter().find(|f| f.rank == 0);
        match sender.map(|f| &f.cause) {
            Some(FailureCause::Error(CommError::Protocol { reason })) => {
                let want = format!("{}-byte", BODY_FIXED_BYTES + 8 + elems * 8);
                assert!(reason.contains(&want), "{reason}");
                assert!(reason.contains(&MAX_FRAME_BYTES.to_string()), "{reason}");
            }
            other => panic!("expected the sender's Protocol error, got {other:?}"),
        }
        assert!(
            !failure
                .failed
                .iter()
                .any(|f| matches!(f.cause, FailureCause::Error(CommError::Unreachable { .. }))),
            "{failure:?}"
        );
        assert_eq!(metrics.tcp_reconnects.get(), 0);
        assert_eq!(metrics.tcp_connects.get(), 0);
    }

    proptest::proptest! {
        /// Arbitrary envelopes survive encode → decode bit-exactly.
        #[test]
        fn prop_codec_round_trips(
            src in 0usize..64,
            comm_id in 0u64..u64::MAX,
            tag in 0u64..u64::MAX,
            arrival_bits in 0u64..u64::MAX,
            seq in 0u64..u64::MAX,
            has_link_seq in 0u32..2,
            link_seq_val in 0u64..u64::MAX,
            data in proptest::collection::vec(0u64..u64::MAX, 0..64),
            kind in 0u32..3,
        ) {
            let link_seq = (has_link_seq == 1).then_some(link_seq_val);
            let payload = match kind {
                0 => Payload::F64(data.iter().map(|&b| f64::from_bits(b)).collect()),
                1 => Payload::U64(data.clone()),
                _ => Payload::Phantom { elems: data.len() },
            };
            let e = Envelope {
                src,
                comm_id,
                tag,
                arrival: f64::from_bits(arrival_bits),
                seq,
                link_seq,
                payload,
            };
            let frame = frame_of(&e);
            let len = frame_len(frame[..4].try_into().unwrap()).unwrap();
            prop_assert_eq!(len, frame.len() - 4);
            let back = decode_body(&frame[4..]).unwrap();
            prop_assert_eq!(back.src, e.src);
            prop_assert_eq!(back.comm_id, e.comm_id);
            prop_assert_eq!(back.tag, e.tag);
            prop_assert_eq!(back.arrival.to_bits(), e.arrival.to_bits());
            prop_assert_eq!(back.seq, e.seq);
            prop_assert_eq!(back.link_seq, e.link_seq);
            match (back.payload, e.payload) {
                (Payload::F64(a), Payload::F64(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (Payload::U64(a), Payload::U64(b)) => prop_assert_eq!(a, b),
                (Payload::Phantom { elems: a }, Payload::Phantom { elems: b }) => {
                    prop_assert_eq!(a, b)
                }
                _ => prop_assert!(false, "payload kind changed"),
            }
        }

        /// Every strict prefix of a valid body is a typed truncation
        /// error — partial reads never panic or mis-decode.
        #[test]
        fn prop_truncated_bodies_are_typed_errors(
            data in proptest::collection::vec(0u64..u64::MAX, 0..16),
            cut_fraction in 0.0f64..1.0,
        ) {
            let e = Envelope {
                src: 1,
                comm_id: 2,
                tag: 3,
                arrival: 0.5,
                seq: 4,
                link_seq: Some(5),
                payload: Payload::U64(data),
            };
            let frame = frame_of(&e);
            let body = &frame[4..];
            let cut = ((body.len() as f64) * cut_fraction) as usize;
            prop_assume!(cut < body.len());
            prop_assert!(matches!(
                decode_body(&body[..cut]),
                Err(CommError::Protocol { .. })
            ));
        }

        /// Random garbage never panics the decoder.
        #[test]
        fn prop_garbage_never_panics(words in proptest::collection::vec(0u32..256, 0..256)) {
            let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
            let _ = decode_body(&bytes);
        }

        /// The bulk codec writes the per-element oracle's bytes, and both
        /// decoders read them back to the same bits.
        #[test]
        fn prop_bulk_codec_matches_the_per_element_oracle(
            head in proptest::collection::vec(0u64..u64::MAX, 5..6),
            has_link_seq in 0u32..2,
            link_seq_val in 0u64..u64::MAX,
            data in proptest::collection::vec(0u64..u64::MAX, 0..64),
            kind in 0u32..4,
        ) {
            let head: [u64; 5] = head.try_into().unwrap();
            let e = arbitrary(head, (has_link_seq == 1).then_some(link_seq_val), kind, &data);
            let frame = frame_of(&e);
            prop_assert_eq!(&frame, &oracle::encode_frame(&e));
            let body = &frame[4..];
            prop_assert_eq!(verdict(decode_body(body)), verdict(oracle::decode_body(body)));
        }

        /// A frame encoded into a buffer that held another frame — longer
        /// or shorter — is byte for byte a fresh encode.
        #[test]
        fn prop_a_reused_buffer_encodes_like_a_fresh_one(
            first in proptest::collection::vec(0u64..u64::MAX, 0..64),
            second in proptest::collection::vec(0u64..u64::MAX, 0..64),
            kinds in proptest::collection::vec(0u32..4, 2..3),
            link_seqs in proptest::collection::vec(0u32..2, 2..3),
        ) {
            let a = arbitrary([1, 2, 3, 4, 5], (link_seqs[0] == 1).then_some(6), kinds[0], &first);
            let b = arbitrary([7, 8, 9, 10, 11], (link_seqs[1] == 1).then_some(12), kinds[1], &second);
            let mut buf = Vec::new();
            encode_frame(&a, &mut buf);
            encode_frame(&b, &mut buf);
            prop_assert_eq!(buf, frame_of(&b));
        }

        /// On a valid frame with one byte changed and its tail cut at a
        /// random point, the bulk decoder agrees with the oracle: the same
        /// envelope, or the same error.
        #[test]
        fn prop_decoders_agree_on_damaged_frames(
            data in proptest::collection::vec(0u64..u64::MAX, 0..16),
            kind in 0u32..4,
            at in 0usize..256,
            byte in 0u32..256,
            keep in 0usize..256,
        ) {
            let e = arbitrary([1, 2, 3, 4, 5], Some(6), kind, &data);
            let mut body = frame_of(&e)[4..].to_vec();
            let at = at % body.len();
            body[at] = byte as u8;
            body.truncate(keep.max(at + 1));
            prop_assert_eq!(verdict(decode_body(&body)), verdict(oracle::decode_body(&body)));
        }
    }
}
