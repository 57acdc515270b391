//! TCP socket transport: the federation over real OS processes.
//!
//! Where [`crate::transport::Network`] wires every member through
//! in-process channels, [`TcpTransport`] puts each member behind a real
//! socket so a G-member federation can run as G processes on separate
//! premises (the paper's Figure 2 deployment). The transport carries
//! opaque, already enclave-encrypted payloads; it adds only framing:
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────────────┐
//! │ u32 LE len │ body: wire-encoded TcpFrame                  │
//! │ (of body)  │   from: u32, plaintext_len: u64, payload     │
//! └────────────┴──────────────────────────────────────────────┘
//! ```
//!
//! The body reuses the strict [`crate::wire`] codec, and
//! [`MAX_FRAME_BYTES`] bounds every length prefix so a hostile peer can
//! neither trigger huge allocations nor wedge a reader.
//!
//! Connection model: each member listens on its roster address and lazily
//! dials a dedicated outbound connection per peer on first send (with
//! retry and exponential backoff up to [`TcpOptions::connect_timeout`],
//! surfacing exhaustion as [`NetError::Timeout`]). Per-pair ordering
//! therefore rides on TCP's own in-order delivery. A connection dying
//! mid-protocol surfaces as [`NetError::Dropped`] on the send side and as
//! silence — i.e. a receive timeout — on the receive side, exactly the
//! semantics the GenDPR runtime expects from the in-memory fabric.
//!
//! The configured [`FaultPlan`] is applied at this framing layer (a
//! dropped message is never written to the socket), so fault-injection
//! tests exercise both transports identically.

use crate::fault::FaultPlan;
use crate::metrics::{TrafficMatrix, TrafficStats};
use crate::telemetry;
use crate::transport::{Envelope, NetError, PeerId, Transport};
use crate::wire::{self, Encode, WireError};
use crate::wire_struct;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Hard ceiling on one frame's body. Large enough for any dense LR matrix
/// the protocol ships, small enough that a hostile length prefix cannot
/// cause a pathological allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Size of the length prefix preceding every frame body.
pub const FRAME_HEADER_BYTES: usize = 4;

/// One framed message as it travels on a TCP link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpFrame {
    /// Sender's peer index (each frame is self-describing; the receiving
    /// end trusts channel cryptography, not this field, for authenticity).
    pub from: u32,
    /// Pre-encryption payload size, carried for bandwidth accounting.
    pub plaintext_len: u64,
    /// Opaque (typically enclave-encrypted) payload.
    pub payload: Vec<u8>,
}

wire_struct!(TcpFrame {
    from,
    plaintext_len,
    payload
});

/// Frame codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// More bytes are needed before the frame can be decoded (streaming
    /// truncation — not an attack, just an incomplete read).
    Incomplete {
        /// Bytes available so far.
        have: usize,
        /// Bytes required for the next decode attempt.
        need: usize,
    },
    /// The frame (or its claimed length) exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Claimed or actual body size.
        claimed: u64,
    },
    /// The body failed strict wire decoding.
    Malformed(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Incomplete { have, need } => {
                write!(f, "incomplete frame: have {have} bytes, need {need}")
            }
            Self::TooLarge { claimed } => {
                write!(
                    f,
                    "frame of {claimed} bytes exceeds limit {MAX_FRAME_BYTES}"
                )
            }
            Self::Malformed(e) => write!(f, "malformed frame body: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

/// Encodes one frame: length prefix followed by the wire-encoded body.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the body would exceed [`MAX_FRAME_BYTES`].
pub fn encode_frame(frame: &TcpFrame) -> Result<Vec<u8>, FrameError> {
    // The body is encoded after room for its prefix, so the payload is
    // copied once, as one slice. Fixed fields: `from`, `plaintext_len` and
    // the payload's length prefix.
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + 20 + frame.payload.len());
    out.resize(FRAME_HEADER_BYTES, 0);
    frame.encode(&mut out);
    let body = out.len() - FRAME_HEADER_BYTES;
    if body > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            claimed: body as u64,
        });
    }
    out[..FRAME_HEADER_BYTES].copy_from_slice(&(body as u32).to_le_bytes());
    Ok(out)
}

/// Decodes one frame from the front of `bytes`, returning it and the
/// number of bytes consumed. Suitable for incremental use: on
/// [`FrameError::Incomplete`], read more and retry.
///
/// # Errors
///
/// [`FrameError::Incomplete`] on truncation, [`FrameError::TooLarge`] on a
/// hostile length prefix, [`FrameError::Malformed`] when the body does not
/// decode. Never panics, never allocates based on an unchecked prefix.
pub fn decode_frame(bytes: &[u8]) -> Result<(TcpFrame, usize), FrameError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Incomplete {
            have: bytes.len(),
            need: FRAME_HEADER_BYTES,
        });
    }
    let len = u32::from_le_bytes(bytes[..FRAME_HEADER_BYTES].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            claimed: len as u64,
        });
    }
    let total = FRAME_HEADER_BYTES + len;
    if bytes.len() < total {
        return Err(FrameError::Incomplete {
            have: bytes.len(),
            need: total,
        });
    }
    let frame = wire::from_bytes::<TcpFrame>(&bytes[FRAME_HEADER_BYTES..total])
        .map_err(FrameError::Malformed)?;
    Ok((frame, total))
}

/// Dial-and-retry policy for outbound connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Total budget for establishing one connection; exhaustion surfaces
    /// as [`NetError::Timeout`] from [`Transport::send`].
    pub connect_timeout: Duration,
    /// First retry backoff after a refused connection.
    pub retry_initial: Duration,
    /// Backoff cap (doubling from `retry_initial`).
    pub retry_max: Duration,
    /// Budget for re-dialing a peer whose established connection died
    /// mid-write (a restarted peer). Kept short so a genuinely dead peer
    /// degrades into [`NetError::Dropped`] quickly rather than stalling
    /// every subsequent send for `connect_timeout`.
    pub reconnect_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            retry_initial: Duration::from_millis(25),
            retry_max: Duration::from_millis(500),
            reconnect_timeout: Duration::from_secs(1),
        }
    }
}

/// An encoded frame held back by a reorder fault, flushed by the chaos
/// flusher thread once due.
struct HeldTcpFrame {
    to: PeerId,
    bytes: Vec<u8>,
    plaintext_len: usize,
    due: Instant,
}

struct TcpShared {
    id: PeerId,
    peers: HashMap<PeerId, SocketAddr>,
    conns: Mutex<HashMap<u32, TcpStream>>,
    metrics: Mutex<TrafficMatrix>,
    faults: Mutex<FaultPlan>,
    held: Mutex<Vec<HeldTcpFrame>>,
    /// Wakes the flusher: a frame was held, or the transport shut down.
    held_changed: Condvar,
    flusher: AtomicBool,
    opts: TcpOptions,
    shutdown: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One member's socket endpoint: a listener plus lazily dialed outbound
/// connections, implementing [`Transport`].
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    rx: Receiver<Envelope>,
    local: SocketAddr,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("id", &self.shared.id)
            .field("local", &self.local)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Binds `listen` and joins the federation described by `roster`
    /// (every member's `(id, address)`, this member included).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        id: PeerId,
        listen: SocketAddr,
        roster: &[(PeerId, SocketAddr)],
        opts: TcpOptions,
    ) -> io::Result<Self> {
        Self::from_listener(id, TcpListener::bind(listen)?, roster, opts)
    }

    /// Like [`TcpTransport::bind`], from an already-bound listener. This is
    /// the ephemeral-port pattern: bind every member on port 0 first,
    /// collect the real addresses into the roster, then build transports.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failure.
    pub fn from_listener(
        id: PeerId,
        listener: TcpListener,
        roster: &[(PeerId, SocketAddr)],
        opts: TcpOptions,
    ) -> io::Result<Self> {
        let local = listener.local_addr()?;
        let (tx, rx) = channel();
        let shared = Arc::new(TcpShared {
            id,
            peers: roster.iter().copied().collect(),
            conns: Mutex::new(HashMap::new()),
            metrics: Mutex::new(TrafficMatrix::default()),
            faults: Mutex::new(FaultPlan::none()),
            held: Mutex::new(Vec::new()),
            held_changed: Condvar::new(),
            flusher: AtomicBool::new(false),
            opts,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        thread::spawn(move || accept_loop(&accept_shared, &listener, &tx));
        Ok(Self { shared, rx, local })
    }

    /// The address this member actually listens on (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    fn send_impl(
        &self,
        to: PeerId,
        payload: Vec<u8>,
        plaintext_len: usize,
    ) -> Result<(), NetError> {
        let shared = &self.shared;
        let decision = lock(&shared.faults).decide(shared.id.0, to.0);
        if !decision.deliver {
            telemetry::frames_dropped().inc();
            return Err(NetError::Dropped);
        }
        let addr = *shared.peers.get(&to).ok_or(NetError::UnknownPeer(to))?;
        let frame = encode_frame(&TcpFrame {
            from: shared.id.0,
            plaintext_len: plaintext_len as u64,
            payload,
        })
        .map_err(|e| match e {
            FrameError::TooLarge { claimed } => NetError::FrameTooLarge(claimed as usize),
            FrameError::Incomplete { .. } | FrameError::Malformed(_) => NetError::Dropped,
        })?;
        for _ in 0..decision.duplicates {
            let _ = write_frame(shared, to, addr, &frame, plaintext_len);
        }
        if let Some(delay) = decision.delay {
            lock(&shared.held).push(HeldTcpFrame {
                to,
                bytes: frame,
                plaintext_len,
                due: Instant::now() + delay,
            });
            ensure_flusher(shared);
            shared.held_changed.notify_one();
            return Ok(());
        }
        write_frame(shared, to, addr, &frame, plaintext_len)
    }
}

/// Writes one encoded frame to `to`, dialing lazily. A write failure on an
/// established connection means the peer died or restarted: the stale
/// connection is discarded and one re-dial (bounded by
/// [`TcpOptions::reconnect_timeout`]) is attempted before giving up with
/// [`NetError::Dropped`].
fn write_frame(
    shared: &Arc<TcpShared>,
    to: PeerId,
    addr: SocketAddr,
    frame: &[u8],
    plaintext_len: usize,
) -> Result<(), NetError> {
    let mut conns = lock(&shared.conns);
    let stream = match conns.entry(to.0) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(connect_retry(addr, shared.opts)?),
    };
    if stream.write_all(frame).is_ok() {
        drop(conns);
        lock(&shared.metrics).record(shared.id.0, to.0, plaintext_len, frame.len());
        telemetry::frames_sent().inc();
        telemetry::frame_bytes_sent().observe(frame.len() as f64);
        return Ok(());
    }
    conns.remove(&to.0);
    let redial = TcpOptions {
        connect_timeout: shared.opts.reconnect_timeout,
        ..shared.opts
    };
    match connect_retry(addr, redial) {
        Ok(mut stream) => {
            if stream.write_all(frame).is_err() {
                telemetry::frames_dropped().inc();
                return Err(NetError::Dropped);
            }
            telemetry::reconnects().inc();
            gendpr_obs::event(
                gendpr_obs::Level::Debug,
                "fednet",
                "reconnected",
                &[("peer", to.0.into())],
            );
            conns.insert(to.0, stream);
            drop(conns);
            lock(&shared.metrics).record(shared.id.0, to.0, plaintext_len, frame.len());
            telemetry::frames_sent().inc();
            telemetry::frame_bytes_sent().observe(frame.len() as f64);
            Ok(())
        }
        Err(_) => {
            telemetry::frames_dropped().inc();
            Err(NetError::Dropped)
        }
    }
}

/// Starts the background thread that flushes reorder-held frames, once per
/// transport. It sleeps until the earliest held frame is due, parks while
/// nothing is held, and exits with the transport's shutdown flag.
fn ensure_flusher(shared: &Arc<TcpShared>) {
    if shared.flusher.swap(true, Ordering::SeqCst) {
        return;
    }
    let shared = Arc::clone(shared);
    thread::spawn(move || {
        let mut held = lock(&shared.held);
        // `Drop` raises `shutdown` under this lock, so the flag cannot
        // change between the check here and the wait below.
        while !shared.shutdown.load(Ordering::SeqCst) {
            let now = Instant::now();
            let mut due = Vec::new();
            let mut i = 0;
            while i < held.len() {
                if held[i].due <= now {
                    due.push(held.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if !due.is_empty() {
                drop(held);
                write_held(&shared, due);
                held = lock(&shared.held);
                continue;
            }
            held = match held.iter().map(|f| f.due).min() {
                Some(next) => {
                    shared
                        .held_changed
                        .wait_timeout(held, next.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared
                    .held_changed
                    .wait(held)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    });
}

fn write_held(shared: &Arc<TcpShared>, frames: Vec<HeldTcpFrame>) {
    for f in frames {
        if let Some(&addr) = shared.peers.get(&f.to) {
            let _ = write_frame(shared, f.to, addr, &f.bytes, f.plaintext_len);
        }
    }
}

impl Transport for TcpTransport {
    fn id(&self) -> PeerId {
        self.shared.id
    }

    fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
        self.send_impl(to, payload, plaintext_len)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            std::sync::mpsc::RecvTimeoutError::Timeout => NetError::Timeout,
            std::sync::mpsc::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    fn set_faults(&self, faults: FaultPlan) {
        *lock(&self.shared.faults) = faults;
    }

    fn link_stats(&self, to: PeerId) -> TrafficStats {
        lock(&self.shared.metrics).link(self.shared.id.0, to.0)
    }

    fn egress_stats(&self) -> TrafficStats {
        lock(&self.shared.metrics).egress(self.shared.id.0)
    }

    fn ingress_stats(&self) -> TrafficStats {
        lock(&self.shared.metrics).ingress(self.shared.id.0)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Deliver reorder-held frames before tearing down. The chaos plan
        // models *delay*; only `drop_rate` may lose frames. Without this
        // flush a session-closing frame sent moments before the transport
        // drops would silently vanish with the flusher thread, stranding
        // peers that keep waiting for it.
        let held: Vec<HeldTcpFrame> = std::mem::take(&mut lock(&self.shared.held));
        write_held(&self.shared, held);
        {
            let _held = lock(&self.shared.held);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.held_changed.notify_one();
        // Closing outbound connections EOFs the peers' readers.
        lock(&self.shared.conns).clear();
        // A throwaway connection wakes the blocking accept loop so it can
        // observe the shutdown flag and exit.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
    }
}

/// Connects to `addr` with the same retry-with-jittered-backoff policy
/// the federation transport uses for member links: re-dial until
/// `opts.connect_timeout` is spent, doubling the backoff from
/// `opts.retry_initial` up to `opts.retry_max`. This is what lets a
/// client race a daemon that is still binding its listener.
///
/// # Errors
///
/// [`NetError::Timeout`] when the budget is exhausted without a
/// connection.
pub fn connect_retry(addr: SocketAddr, opts: TcpOptions) -> Result<TcpStream, NetError> {
    connect_any(&[addr], opts)
}

/// Connects to the first reachable endpoint in `addrs`, sharing one
/// `opts.connect_timeout` budget across the whole list. Each round
/// probes every endpoint in order (a probe is capped to an even share
/// of the remaining budget, so one blackholed address cannot starve a
/// live one further down the list — with a single address that share is
/// the whole remainder), then sleeps a jittered backoff before the next
/// round.
///
/// This is the client side of a replica-track fleet: the tracks serve
/// identical state, so a client holding every track's address stays
/// available as long as any one track survives.
///
/// # Errors
///
/// [`NetError::Timeout`] when the budget is exhausted with no endpoint
/// reachable, or when `addrs` is empty.
pub fn connect_any(addrs: &[SocketAddr], opts: TcpOptions) -> Result<TcpStream, NetError> {
    let Some(first) = addrs.first() else {
        return Err(NetError::Timeout);
    };
    let deadline = Instant::now() + opts.connect_timeout;
    let mut backoff = opts.retry_initial;
    // Jitter seed: wall-clock nanos differ across processes, so members
    // retrying a restarted peer at once don't re-dial in lockstep.
    let mut jitter_state = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9E37_79B9, |d| u64::from(d.subsec_nanos()))
        ^ (u64::from(first.port()) << 32);
    loop {
        for addr in addrs {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                telemetry::connect_timeouts().inc();
                return Err(NetError::Timeout);
            };
            let probe = (remaining / addrs.len() as u32)
                .max(opts.retry_initial)
                .min(remaining);
            match TcpStream::connect_timeout(addr, probe) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(_) => telemetry::connect_retries().inc(),
            }
        }
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            telemetry::connect_timeouts().inc();
            return Err(NetError::Timeout);
        };
        // Sleep a uniform draw from [backoff/2, backoff] so simultaneous
        // reconnects desynchronize — clamped to the remaining budget so a
        // large `retry_max` can never push the dial past its deadline.
        let span = (backoff / 2).as_nanos().max(1) as u64;
        let jitter = Duration::from_nanos(crate::fault::splitmix64(&mut jitter_state) % span);
        let sleep = (backoff / 2 + jitter).min(remaining);
        if sleep >= remaining {
            // The clamped sleep would consume the whole budget: fail now
            // instead of sleeping into the deadline and burning one more
            // doomed round of connects.
            telemetry::connect_timeouts().inc();
            return Err(NetError::Timeout);
        }
        thread::sleep(sleep);
        backoff = (backoff * 2).min(opts.retry_max);
    }
}

fn accept_loop(shared: &Arc<TcpShared>, listener: &TcpListener, tx: &Sender<Envelope>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let tx = tx.clone();
                thread::spawn(move || reader_loop(&shared, stream, &tx));
            }
            Err(_) => {
                // Transient accept failure; keep serving unless shut down.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn reader_loop(shared: &Arc<TcpShared>, mut stream: TcpStream, tx: &Sender<Envelope>) {
    loop {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        if stream.read_exact(&mut header).is_err() {
            return; // peer closed or died
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return; // hostile prefix: sever the connection, allocate nothing
        }
        let mut buf = vec![0u8; FRAME_HEADER_BYTES + len];
        buf[..FRAME_HEADER_BYTES].copy_from_slice(&header);
        if stream.read_exact(&mut buf[FRAME_HEADER_BYTES..]).is_err() {
            return;
        }
        let Ok((frame, consumed)) = decode_frame(&buf) else {
            return; // malformed body: sever the connection
        };
        debug_assert_eq!(consumed, buf.len());
        lock(&shared.metrics).record(
            frame.from,
            shared.id.0,
            frame.plaintext_len as usize,
            buf.len(),
        );
        telemetry::frames_received().inc();
        telemetry::frame_bytes_received().observe(buf.len() as f64);
        let env = Envelope {
            from: PeerId(frame.from),
            to: shared.id,
            payload: frame.payload,
            plaintext_len: frame.plaintext_len as usize,
        };
        if tx.send(env).is_err() {
            return; // transport dropped
        }
    }
}

/// A federation address book: every member's `(id, address)`.
pub type Roster = Vec<(PeerId, SocketAddr)>;

/// Binds `n` listeners on `127.0.0.1:0` and pairs them with peer ids —
/// the ephemeral-port half of the [`TcpTransport::from_listener`] pattern.
/// Feed the returned roster to every member.
///
/// # Errors
///
/// Propagates bind failures.
pub fn ephemeral_listeners(n: usize) -> io::Result<(Roster, Vec<TcpListener>)> {
    let mut roster = Vec::with_capacity(n);
    let mut listeners = Vec::with_capacity(n);
    for i in 0..n {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        roster.push((PeerId(i as u32), listener.local_addr()?));
        listeners.push(listener);
    }
    Ok((roster, listeners))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpTransport, TcpTransport) {
        let (roster, mut listeners) = ephemeral_listeners(2).unwrap();
        let b = TcpTransport::from_listener(
            PeerId(1),
            listeners.pop().unwrap(),
            &roster,
            TcpOptions::default(),
        )
        .unwrap();
        let a = TcpTransport::from_listener(
            PeerId(0),
            listeners.pop().unwrap(),
            &roster,
            TcpOptions::default(),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn dial_never_overshoots_a_tight_timeout() {
        // A port with nothing listening: every dial is refused, so the
        // retry loop spins through its backoff schedule. With a backoff
        // cap far above the connect budget, an unclamped jittered sleep
        // could overshoot the deadline by up to retry_max/2.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let opts = TcpOptions {
            connect_timeout: Duration::from_millis(100),
            retry_initial: Duration::from_millis(40),
            retry_max: Duration::from_secs(10),
            reconnect_timeout: Duration::from_millis(100),
        };
        let started = Instant::now();
        let result = connect_retry(addr, opts);
        let elapsed = started.elapsed();
        assert!(matches!(result, Err(NetError::Timeout)), "got {result:?}");
        assert!(
            elapsed < Duration::from_secs(1),
            "dial blew through its 100ms budget: took {elapsed:?} \
             (retry_max/2 overshoot would be ~5s)"
        );
    }

    #[test]
    fn connect_any_fails_over_past_a_dead_endpoint() {
        // First address is dead (bound then dropped), second is live:
        // the multi-endpoint dial must skip the refusal and land on the
        // survivor within the same budget.
        let dead = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap();
        let stream = connect_any(&[dead, live_addr], TcpOptions::default()).unwrap();
        assert_eq!(stream.peer_addr().unwrap(), live_addr);

        // All endpoints dead: typed timeout, within the tight budget.
        let opts = TcpOptions {
            connect_timeout: Duration::from_millis(100),
            retry_initial: Duration::from_millis(20),
            retry_max: Duration::from_secs(10),
            reconnect_timeout: Duration::from_millis(100),
        };
        let started = Instant::now();
        let result = connect_any(&[dead, dead], opts);
        assert!(matches!(result, Err(NetError::Timeout)), "got {result:?}");
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(matches!(
            connect_any(&[], TcpOptions::default()),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn frame_roundtrip() {
        let frame = TcpFrame {
            from: 3,
            plaintext_len: 11,
            payload: b"sealed bytes".to_vec(),
        };
        let bytes = encode_frame(&frame).unwrap();
        let (back, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncated_frames_are_incomplete() {
        let bytes = encode_frame(&TcpFrame {
            from: 0,
            plaintext_len: 4,
            payload: vec![9; 40],
        })
        .unwrap();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Incomplete { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn oversized_payload_rejected_at_encode() {
        let frame = TcpFrame {
            from: 0,
            plaintext_len: 0,
            payload: vec![0; MAX_FRAME_BYTES + 1],
        };
        assert!(matches!(
            encode_frame(&frame),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn point_to_point_over_sockets_in_order() {
        let (a, b) = pair();
        a.send(PeerId(1), vec![1], 1).unwrap();
        a.send(PeerId(1), vec![2], 1).unwrap();
        let one = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let two = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((one.from, one.payload), (PeerId(0), vec![1]));
        assert_eq!((two.from, two.payload), (PeerId(0), vec![2]));
        // Reply direction uses its own connection.
        b.send(PeerId(0), b"pong".to_vec(), 4).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            b"pong"
        );
    }

    #[test]
    fn wire_bytes_metered_on_both_ends() {
        let (a, b) = pair();
        a.send(PeerId(1), vec![0u8; 100], 80).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        let egress = a.link_stats(PeerId(1));
        assert_eq!(egress.messages, 1);
        assert_eq!(egress.plaintext_bytes, 80);
        assert!(egress.wire_bytes > 100, "framing counted: {egress:?}");
        let ingress = b.ingress_stats();
        assert_eq!(ingress.wire_bytes, egress.wire_bytes);
        assert_eq!(a.egress_stats(), egress);
    }

    #[test]
    fn unknown_peer_and_fault_drop() {
        let (a, _b) = pair();
        assert_eq!(
            a.send(PeerId(7), vec![0], 1),
            Err(NetError::UnknownPeer(PeerId(7)))
        );
        let mut faults = FaultPlan::none();
        faults.crash(1);
        a.set_faults(faults);
        assert_eq!(a.send(PeerId(1), vec![0], 1), Err(NetError::Dropped));
        assert_eq!(a.egress_stats().messages, 0, "dropped frames not metered");
    }

    #[test]
    fn reconnect_on_send_reaches_a_restarted_peer() {
        let (roster, mut listeners) = ephemeral_listeners(2).unwrap();
        let opts = TcpOptions {
            connect_timeout: Duration::from_secs(2),
            reconnect_timeout: Duration::from_millis(500),
            ..TcpOptions::default()
        };
        let b_listener = listeners.pop().unwrap();
        let a = TcpTransport::from_listener(PeerId(0), listeners.pop().unwrap(), &roster, opts)
            .unwrap();
        a.send(PeerId(1), vec![1], 1).unwrap();
        // The peer dies mid-session: its first incarnation accepts the
        // connection and is gone before reading anything, leaving `a`
        // with a stale connection. The listener itself stays bound (a
        // same-port rebind here would race the kernel's FIN_WAIT/
        // TIME_WAIT teardown of the dropped connection, which std's
        // TcpListener cannot override without SO_REUSEADDR).
        let (doomed, _) = b_listener.accept().expect("first incarnation accepts");
        drop(doomed);
        let b2 = TcpTransport::from_listener(PeerId(1), b_listener, &roster, opts).unwrap();
        // The restarted incarnation serves the same roster address. `a`
        // still holds the stale connection; writes into it may succeed
        // until the kernel surfaces the reset, after which write_frame
        // re-dials. Keep sending until a frame lands.
        let mut delivered = None;
        for attempt in 0u8..50 {
            let _ = a.send(PeerId(1), vec![attempt], 1);
            if let Ok(env) = b2.recv_timeout(Duration::from_millis(100)) {
                delivered = Some(env.payload[0]);
                break;
            }
        }
        assert!(
            delivered.is_some(),
            "sender must reconnect to the restarted peer"
        );
    }

    #[test]
    fn chaos_over_tcp_delivers_every_frame() {
        let (a, b) = pair();
        let mut faults = FaultPlan::none();
        faults.chaos(crate::fault::ChaosFaults {
            seed: 5,
            drop_rate: 0.0,
            duplicate_rate: 0.5,
            reorder_window_ms: 3,
        });
        a.set_faults(faults);
        let sent = 20u8;
        for i in 0..sent {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        while let Ok(env) = b.recv_timeout(Duration::from_millis(300)) {
            seen.insert(env.payload[0]);
            if seen.len() == usize::from(sent) {
                break;
            }
        }
        assert_eq!(seen.len(), usize::from(sent), "no frame may be lost");
    }

    #[test]
    fn never_connecting_peer_times_out_cleanly() {
        // Reserve a port nobody listens on.
        let dead = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let roster = vec![
            (PeerId(0), listener.local_addr().unwrap()),
            (PeerId(1), dead_addr),
        ];
        let a = TcpTransport::from_listener(
            PeerId(0),
            listener,
            &roster,
            TcpOptions {
                connect_timeout: Duration::from_millis(200),
                ..TcpOptions::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        assert_eq!(a.send(PeerId(1), vec![1], 1), Err(NetError::Timeout));
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
