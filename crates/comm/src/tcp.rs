//! The loopback TCP wire: every envelope becomes a length-prefixed frame
//! on a real socket.
//!
//! One listener per rank is bound on `127.0.0.1:0` when the transport
//! starts; an acceptor thread per rank, blocked in `accept`, turns incoming
//! connections into reader threads that decode frames straight into the
//! rank's existing in-process inbox — the mailbox, sequence-cursor and
//! reassembly machinery above the [`Transport`] boundary is byte-for-byte
//! the same code the channel backend runs.
//!
//! The payload words cross with no user-space copy on either side (but
//! for at most 62 bytes a reader's head buffer catches), and a frame
//! allocates nothing but the payload the receiver keeps:
//!
//! * **One slot per directed link.** `(src, dst)` owns one [`Link`]
//!   behind one lock: the pooled stream and the frame and dial counters
//!   the fault specs index. A frame is written under it as two slices in
//!   one vectored write: a head of at most [`HEAD_MAX`] bytes encoded on
//!   the stack, then the payload's own words, viewed as bytes. The
//!   envelope is dropped after the write, so a resend writes the same
//!   two slices.
//! * **The reader reads into the payload.** It reads the length prefix
//!   and the head, makes every check the payload depends on — version,
//!   link-seq flag, kind, `count × 8 ==` the rest of the body, the cap —
//!   and only then allocates the payload and reads its words straight
//!   into it. A frame that fails a check drops the connection. The
//!   connection is read through a buffer of [`HEAD_MAX`] bytes, so a
//!   head comes in one read; payload bytes pass through it only when
//!   they share a read with a head.
//! * **The cap is checked on both sides.** A frame body over
//!   [`MAX_FRAME_BYTES`] is refused by the sender before anything is
//!   written — a typed [`CommError::Protocol`] for the rank that sent
//!   it, not a dropped connection that blames the receiver — and by the
//!   reader before it reads the head.
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
//!   exited (nothing is mid-send): it closes the pooled streams, dials
//!   each listener once to wake its acceptor, and joins the IO threads.
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

use std::io::{self, BufReader, IoSlice, Read, Write};
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

// The wire is little-endian, and payload words go out and come in as
// their in-memory bytes (`as_bytes`, `as_bytes_mut`).
#[cfg(not(target_endian = "little"))]
compile_error!("the TCP frame format is little-endian and payload words cross it in native order");

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

/// How long `shutdown` waits for the dial that wakes an acceptor.
const WAKE_DEADLINE: Duration = Duration::from_secs(1);

// --- framing codec ---------------------------------------------------

/// Body bytes ahead of the payload words: version, five header words,
/// link-seq flag, payload kind and element count.
const BODY_FIXED_BYTES: usize = 1 + 5 * 8 + 1 + 1 + 8;

/// Offset of the link-seq flag in a body: after the version and the five
/// header words.
const FLAG_AT: usize = 1 + 5 * 8;

/// The longest frame head: length prefix, the fixed body bytes and a
/// link-seq word.
const HEAD_MAX: usize = 4 + BODY_FIXED_BYTES + 8;

/// An 8-byte word a payload carries. Implemented for `f64` and `u64`
/// only, in this module: the byte views below rely on both having no
/// padding and every bit pattern being a valid value.
trait Word: Copy {}

impl Word for f64 {}

impl Word for u64 {}

/// The bytes of `words`, as the wire carries them.
fn as_bytes<W: Word>(words: &[W]) -> &[u8] {
    // SAFETY: a `Word` is an `f64` or a `u64`: 8 bytes, no padding, so
    // `size_of_val(words)` bytes from its start are initialised and lie
    // inside the one allocation `words` borrows. `u8` has alignment 1,
    // and the view borrows `words` for its lifetime, so it aliases no
    // mutable reference.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words)) }
}

/// The bytes of `words`, to be read into from the wire.
fn as_bytes_mut<W: Word>(words: &mut [W]) -> &mut [u8] {
    // SAFETY: as for `as_bytes`, and since every bit pattern is a valid
    // `f64` and a valid `u64`, any bytes written through the view leave
    // valid words; the view borrows `words` mutably, so nothing else can
    // see it meanwhile.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

/// A payload's words as the bytes that follow its frame head: none for
/// a phantom, which carries only its count.
fn payload_bytes(payload: &Payload) -> &[u8] {
    match payload {
        Payload::F64(v) => as_bytes(v),
        // On the wire a shared buffer is the plain F64 frame.
        Payload::SharedF64(v) => as_bytes(v.as_slice()),
        Payload::U64(v) => as_bytes(v),
        Payload::Phantom { .. } => &[],
    }
}

/// Length of `env`'s frame body, the bytes after the length prefix.
fn body_len(env: &Envelope) -> usize {
    let link_seq = if env.link_seq.is_some() { 8 } else { 0 };
    BODY_FIXED_BYTES + link_seq + payload_bytes(&env.payload).len()
}

/// Checks a body length against the wire's limits: zero and over-cap
/// lengths are protocol violations, not allocations. The sender checks
/// before it writes (so an oversized payload never reaches the socket and
/// never wraps the `u32` prefix), the reader before it reads the head.
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

/// Writes a frame head front to back.
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
}

/// Encodes the head of `env`'s frame into `out` and returns its length:
/// a `u32` little-endian body length, then the body up to the payload
/// words (version byte, header words, link-seq, payload kind and count).
/// The frame is the head followed by [`payload_bytes`]. The caller has
/// checked [`body_len`] against the cap.
fn encode_head(env: &Envelope, out: &mut [u8; HEAD_MAX]) -> usize {
    let mut put = Put { buf: out, pos: 0 };
    put.bytes(&(body_len(env) as u32).to_le_bytes());
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
    put.u8(match env.payload {
        Payload::F64(_) | Payload::SharedF64(_) => 0,
        Payload::U64(_) => 1,
        Payload::Phantom { .. } => 2,
    });
    put.u64(env.payload.elems() as u64);
    put.pos
}

/// Validates a length prefix with [`check_body_len`].
pub(crate) fn frame_len(header: [u8; 4]) -> Result<usize, CommError> {
    check_body_len(u32::from_le_bytes(header) as usize)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take_u8(&mut self) -> Result<u8, CommError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| CommError::Protocol {
            reason: format!("truncated frame: wanted 1 byte at offset {}", self.pos),
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn take_u64(&mut self) -> Result<u64, CommError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<8>)
            .ok_or_else(|| CommError::Protocol {
                reason: format!("truncated frame: wanted 8 bytes at offset {}", self.pos),
            })?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*bytes))
    }
}

/// The words that follow a frame head, if any.
enum Kind {
    F64,
    U64,
    Phantom,
}

/// Parses the head of a `body_len`-byte frame body from its first bytes,
/// `head` (all of the body if it is shorter than a head), and checks it
/// against the length: version, link-seq flag, payload kind, a word
/// count that fills the rest of the body exactly, no bytes after a
/// phantom. Every malformation is a typed [`CommError::Protocol`], never
/// a panic.
///
/// The envelope's payload is a `Phantom` of the frame's element count —
/// for `F64`/`U64` exactly the rest of the body over 8, so within the
/// cap — until the reader reads the words of `Kind` in its place.
fn parse_head(head: &[u8], body_len: usize) -> Result<(Envelope, Kind), CommError> {
    let mut c = Cursor { buf: head, pos: 0 };
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
    let rest = body_len.saturating_sub(c.pos);
    let kind = match kind {
        0 | 1 => {
            let want = count.checked_mul(8).ok_or_else(|| CommError::Protocol {
                reason: format!("payload count {count} overflows"),
            })?;
            if want != rest as u64 {
                return Err(CommError::Protocol {
                    reason: format!(
                        "payload of {count} elements wants {want} bytes, frame has {rest}"
                    ),
                });
            }
            if kind == 0 {
                Kind::F64
            } else {
                Kind::U64
            }
        }
        2 if rest != 0 => {
            return Err(CommError::Protocol {
                reason: format!("{rest} trailing bytes after payload"),
            })
        }
        2 => Kind::Phantom,
        b => {
            return Err(CommError::Protocol {
                reason: format!("unknown payload kind {b}"),
            })
        }
    };
    let env = Envelope {
        src,
        comm_id,
        tag,
        arrival,
        seq,
        link_seq,
        payload: Payload::Phantom {
            elems: count as usize,
        },
    };
    Ok((env, kind))
}

// --- reader side ------------------------------------------------------

/// Reads exactly `buf.len()` bytes, waking every [`READ_POLL`] to check
/// the shutdown flag. `Ok(false)` means the read ended without a
/// failure: shutdown, or a clean EOF before the first byte when `eof_ok`.
/// EOF anywhere else is an `UnexpectedEof` error (a truncated frame).
fn fill(r: &mut impl Read, buf: &mut [u8], stop: &AtomicBool, eof_ok: bool) -> io::Result<bool> {
    let mut n = 0;
    while n < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match r.read(&mut buf[n..]) {
            Ok(0) => {
                if n == 0 && eof_ok {
                    return Ok(false);
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
    Ok(true)
}

/// Reads one frame from `r`: `Ok(None)` at a clean EOF between frames or
/// on shutdown there. The length prefix and the head are read onto the
/// stack and checked ([`frame_len`], [`parse_head`]) before anything is
/// allocated; the payload words are then read straight into the
/// payload's own vector. A malformed frame, or a stream that fails, ends
/// or is shut down inside one, is a [`CommError::Protocol`].
fn read_frame(r: &mut impl Read, stop: &AtomicBool) -> Result<Option<Envelope>, CommError> {
    let io_err = |e: io::Error| CommError::Protocol {
        reason: format!("frame read failed: {e}"),
    };
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix, stop, true) {
        Ok(true) => {}
        Ok(false) => return Ok(None),
        Err(e) => return Err(io_err(e)),
    }
    let len = frame_len(prefix)?;
    let mut read = |buf: &mut [u8]| match fill(r, buf, stop, false) {
        Ok(true) => Ok(()),
        Ok(false) => Err(io_err(io::Error::other("shut down mid-frame"))),
        Err(e) => Err(io_err(e)),
    };
    // The body up to the link-seq flag, then the rest of the head the
    // flag implies, never past the body: a body shorter than a head is
    // read whole, and the parser reports where it ends.
    let mut head = [0u8; HEAD_MAX - 4];
    let first = len.min(FLAG_AT + 1);
    read(&mut head[..first])?;
    let link_seq = if head[FLAG_AT] == 1 { 8 } else { 0 };
    let head_len = len.min(BODY_FIXED_BYTES + link_seq);
    read(&mut head[first..head_len])?;
    let (mut env, kind) = parse_head(&head[..head_len], len)?;
    let count = env.payload.elems();
    match kind {
        Kind::F64 => {
            let mut v = vec![0.0; count];
            read(as_bytes_mut(&mut v))?;
            env.payload = Payload::F64(v);
        }
        Kind::U64 => {
            let mut v = vec![0u64; count];
            read(as_bytes_mut(&mut v))?;
            env.payload = Payload::U64(v);
        }
        Kind::Phantom => {}
    }
    Ok(Some(env))
}

/// Drains one connection: decodes frames into the destination rank's
/// in-process inbox until EOF, a protocol violation, or shutdown. A
/// closed inbox (the rank died) just discards the frame, mirroring the
/// channel backend's fire-and-forget delivery semantics.
fn run_reader(stream: TcpStream, tx: Sender<Envelope>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // A buffer the size of the longest head, so that the prefix and head
    // of a frame with a link-seq (every frame this backend sends) come in
    // one read, as the whole of a small frame did when the body was read
    // in one piece. A read as long as the buffer bypasses it, so payload
    // bytes pass through it only when they share a read with a head: a
    // payload shorter than a head, and at most 62 bytes of a longer one.
    let mut stream = BufReader::with_capacity(HEAD_MAX, stream);
    // A bad frame ends the loop: the stream can never resynchronise, so
    // the connection is dropped (the sender will reconnect).
    while let Ok(Some(env)) = read_frame(&mut stream, &stop) {
        let _ = tx.send(env);
    }
}

/// Gives each accepted connection a reader thread, blocked in `accept`
/// between them, and returns on the first connection accepted once
/// `stop` is set — `shutdown` dials one to wake it.
fn run_acceptor(
    listener: TcpListener,
    tx: Sender<Envelope>,
    stop: Arc<AtomicBool>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                let h = std::thread::spawn(move || run_reader(stream, tx, stop));
                readers.lock().push(h);
            }
            // Out of descriptors and the like: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

// --- sender side ------------------------------------------------------

/// One directed link's sender state. A frame is counted and written under
/// the link's one lock, so frames never interleave.
#[derive(Default)]
struct Link {
    /// The pooled connection: `None` until the first frame dials it, and
    /// reset to `None` on disconnect so the next write redials.
    conn: Option<TcpStream>,
    /// Frames sent on the link, indexing the seeded TCP fault specs.
    frames: u64,
    /// Cumulative dials, indexing the refuse specs.
    dials: u32,
}

/// Writes every byte of `parts`, in order, in as few vectored writes as
/// the stream takes.
fn write_all_vectored(w: &mut impl Write, parts: [&[u8]; 2]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
    /// The acceptor threads in rank order, until `shutdown` joins them.
    acceptors: Mutex<Vec<JoinHandle<()>>>,
    /// The reader threads the acceptors spawned.
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut addrs = Vec::with_capacity(p);
        let mut acceptors = Vec::with_capacity(p);
        for tx in &local {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(listener.local_addr()?);
            let tx = tx.clone();
            let stop_c = Arc::clone(&stop);
            let readers_c = Arc::clone(&readers);
            acceptors.push(std::thread::spawn(move || {
                run_acceptor(listener, tx, stop_c, readers_c)
            }));
        }
        Ok(Self {
            local,
            addrs,
            closed: (0..p).map(|_| AtomicBool::new(false)).collect(),
            links: (0..p * p).map(|_| Mutex::default()).collect(),
            plan,
            metrics,
            stop,
            acceptors: Mutex::new(acceptors),
            readers,
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

    /// Writes a frame — its head, then its payload bytes — dialling
    /// first if the link has no connection.
    fn write_frame(
        &self,
        link: &mut Link,
        key: (usize, usize),
        dst: usize,
        frame: [&[u8]; 2],
    ) -> io::Result<()> {
        let stream = match link.conn.take() {
            Some(stream) => stream,
            None => self.connect(&mut link.dials, key, dst)?,
        };
        write_all_vectored(link.conn.insert(stream), frame)
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
        // The frame borrows the payload, so the envelope (and a shared
        // buffer's reference) lives until the write and any resend are
        // done.
        let mut head = [0u8; HEAD_MAX];
        let head_len = encode_head(&env, &mut head);
        let frame = [&head[..head_len], payload_bytes(&env.payload)];
        if self.reset_before(key, frame_idx) {
            if let Some(s) = link.conn.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
            if let Some(m) = &self.metrics {
                m.tcp_resets.inc();
            }
        }
        match self.write_frame(&mut link, key, dst, frame) {
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
                self.write_frame(&mut link, key, dst, frame)
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
        // Each acceptor is blocked in `accept`: one dial wakes it to see
        // `stop`. One that cannot be dialled is left detached rather than
        // joined forever.
        let acceptors = std::mem::take(&mut *self.acceptors.lock());
        for (addr, h) in self.addrs.iter().zip(acceptors) {
            if TcpStream::connect_timeout(addr, WAKE_DEADLINE).is_ok() {
                let _ = h.join();
            }
        }
        // The readers see their streams closed, or `stop` within a
        // `READ_POLL`.
        loop {
            let Some(h) = self.readers.lock().pop() else {
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

    /// The bytes `deliver` writes for `env`: its head, then its payload.
    fn frame_of(env: &Envelope) -> Vec<u8> {
        let mut head = [0u8; HEAD_MAX];
        let len = encode_head(env, &mut head);
        [&head[..len], payload_bytes(&env.payload)].concat()
    }

    /// The reader over a byte slice.
    fn read_from(mut bytes: &[u8]) -> Result<Option<Envelope>, CommError> {
        read_frame(&mut bytes, &AtomicBool::new(false))
    }

    /// Decodes one frame body (the bytes after the length prefix) with
    /// the reader, behind a prefix that gives its length.
    fn decode_body(body: &[u8]) -> Result<Envelope, CommError> {
        let frame = [&(body.len() as u32).to_le_bytes()[..], body].concat();
        read_from(&frame)?.ok_or_else(|| CommError::Protocol {
            reason: "no frame".into(),
        })
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

        impl Cursor<'_> {
            fn remaining(&self) -> usize {
                self.buf.len() - self.pos
            }
        }

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
    /// kind over one connection, each written from and read into its own
    /// payload: every frame arrives bit-exact and in order.
    #[test]
    fn one_link_carries_every_payload_kind_bit_exact() {
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

    /// A stream that takes a few bytes per call on either side.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Frames of every kind, written as head and payload through short
    /// vectored writes and read back through short reads, arrive bit-exact
    /// and in order; the stream's clean end is `None`.
    #[test]
    fn frames_cross_short_writes_and_short_reads() {
        let sent: Vec<Envelope> = (0..4)
            .flat_map(|kind| {
                let data: Vec<u64> = (0..kind as u64 * 5).map(|i| i.wrapping_mul(!i)).collect();
                [None, Some(kind as u64)]
                    .map(|link_seq| arbitrary([kind as u64; 5], link_seq, kind, &data))
            })
            .collect();
        let mut wire = Trickle {
            bytes: Vec::new(),
            at: 0,
            step: 7,
        };
        for e in &sent {
            let mut head = [0u8; HEAD_MAX];
            let len = encode_head(e, &mut head);
            write_all_vectored(&mut wire, [&head[..len], payload_bytes(&e.payload)]).unwrap();
        }
        let want: Vec<u8> = sent.iter().flat_map(oracle::encode_frame).collect();
        assert_eq!(wire.bytes, want);
        wire.step = 5;
        let stop = AtomicBool::new(false);
        for (i, e) in sent.iter().enumerate() {
            let got = read_frame(&mut wire, &stop).unwrap().expect("a frame");
            assert_eq!(bits(&got), bits(e), "frame {i}");
        }
        assert!(read_frame(&mut wire, &stop).unwrap().is_none());
        // Through a head-sized buffer, as a connection is read: payloads
        // shorter and longer than a head, each behind its own head.
        let mut buffered = BufReader::with_capacity(HEAD_MAX, &wire.bytes[..]);
        for (i, e) in sent.iter().enumerate() {
            let got = read_frame(&mut buffered, &stop).unwrap().expect("a frame");
            assert_eq!(bits(&got), bits(e), "buffered frame {i}");
        }
        assert!(read_frame(&mut buffered, &stop).unwrap().is_none());
        // Shutdown ends the reader at a frame boundary too.
        wire.at = 0;
        stop.store(true, Ordering::SeqCst);
        assert!(read_frame(&mut wire, &stop).unwrap().is_none());
    }

    /// A head whose word count the body cannot hold is refused from the
    /// head alone: the reader neither allocates for the count nor waits
    /// for payload bytes that never come.
    #[test]
    fn a_lying_count_is_refused_before_the_payload_is_read() {
        let frame = frame_of(&env(Some(4), Payload::U64(vec![8, 9])));
        for (count, says) in [
            (3u64, "wants"),
            (u64::MAX / 8, "wants"),
            (u64::MAX, "overflows"),
        ] {
            // The head with a link-seq ends in the count.
            let mut lying = frame[..HEAD_MAX].to_vec();
            lying[HEAD_MAX - 8..].copy_from_slice(&count.to_le_bytes());
            match read_from(&lying) {
                Err(CommError::Protocol { reason }) => assert!(reason.contains(says), "{reason}"),
                other => panic!("expected Protocol, got {other:?}"),
            }
        }
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
            // A cut body behind its own length fails as the oracle fails
            // (an empty one fails the length check instead).
            if cut > 0 {
                prop_assert_eq!(
                    verdict(decode_body(&body[..cut])),
                    verdict(oracle::decode_body(&body[..cut]))
                );
            }
            // A stream that ends inside the frame its prefix announced.
            prop_assert!(matches!(
                read_from(&frame[..4 + cut]),
                Err(CommError::Protocol { .. })
            ));
        }

        /// Random garbage never panics the decoder, behind a length prefix
        /// or as a raw stream.
        #[test]
        fn prop_garbage_never_panics(words in proptest::collection::vec(0u32..256, 0..256)) {
            let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
            let _ = decode_body(&bytes);
            let _ = read_from(&bytes);
        }

        /// A frame as `deliver` writes it — head, then the payload's own
        /// bytes — is the per-element oracle's, for every payload kind
        /// with and without a link-seq, and the reader and the oracle read
        /// it back to the same bits.
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

        /// A head encoded over another frame's head — longer or shorter —
        /// is byte for byte a fresh encode.
        #[test]
        fn prop_a_reused_buffer_encodes_like_a_fresh_one(
            first in proptest::collection::vec(0u64..u64::MAX, 0..64),
            second in proptest::collection::vec(0u64..u64::MAX, 0..64),
            kinds in proptest::collection::vec(0u32..4, 2..3),
            link_seqs in proptest::collection::vec(0u32..2, 2..3),
        ) {
            let a = arbitrary([1, 2, 3, 4, 5], (link_seqs[0] == 1).then_some(6), kinds[0], &first);
            let b = arbitrary([7, 8, 9, 10, 11], (link_seqs[1] == 1).then_some(12), kinds[1], &second);
            let mut head = [0u8; HEAD_MAX];
            encode_head(&a, &mut head);
            let len = encode_head(&b, &mut head);
            let buf = [&head[..len], payload_bytes(&b.payload)].concat();
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
