//! The threaded GenDPR deployment: one thread per GDO, real enclaves,
//! remote attestation, commit-reveal leader election and encrypted
//! channels end to end.
//!
//! Where [`crate::protocol`] executes Algorithm 1 as a deterministic
//! in-process computation (for benchmarking the *analysis*), this module
//! deploys it the way the paper's Figure 2 draws it: every member runs
//! concurrently on its own premises, launches an enclave whose
//! measurement covers the GenDPR build *and* the study parameters, and
//! exchanges intermediate results exclusively through mutually attested
//! ChaCha20-Poly1305 channels over the federation network. Traffic and
//! enclave memory are metered, which is what Table 3 reports.
//!
//! The lifecycle around the engine is written here once for both attested
//! drivers (this one and [`crate::serving`]): the deployment check and
//! thread spawn, the in-memory fabric, the member setup and the `seat`
//! step (election, then a leader session or a follower channel). The
//! one-shot run adds only its one assessment.
//!
//! # Frames and links
//!
//! The paper makes no liveness guarantee under faults, and neither does
//! this runtime: a member silent for the phase timeout aborts the run
//! with [`ProtocolError::MemberUnresponsive`]. (The assessment service
//! stays live by rebuilding a failed lane and re-queueing its job.)
//!
//! * Every frame carries a head: an epoch, always 1, and a per-link
//!   sequence number. A member takes each peer's frames in sequence
//!   order, which masks the duplicated and reordered delivery of chaos
//!   links.
//! * The head is not authenticated, so it only orders. Until a link's
//!   handshake completes, its frames are the election's commit and
//!   reveal and the handshake, and a slot admits only the kind the
//!   member waits for. Once the link has its channel, a frame takes its
//!   slot only if it opens under the channel's next receive counter. A
//!   frame that does not fit its slot (of another kind, unsealed, or not
//!   opening) is dropped with a `Warn` event naming the link, as is one
//!   stamped with an epoch other than 1, and the slot waits for the
//!   genuine frame.
//! * Before the handshake nothing is authenticated. Anyone who reaches a
//!   member's port can still make the election or the attestation fail,
//!   and the run then aborts with a [`ProtocolError::SecurityFailure`] on
//!   that link, never with the peer's
//!   [`ProtocolError::MalformedMessage`].
//! * A member that waits on one peer through a silent probe interval
//!   sends every other peer it holds a channel with a heartbeat, a sealed
//!   empty message. Only a leader holds more than one channel, so a
//!   follower whose leader is waiting out a silent member keeps waiting
//!   and hears the leader's abort notice instead of timing out first.

use crate::certificate::AssessmentCertificate;
use crate::config::{CollusionMode, FederationConfig, GwasParams};
use crate::engine::{follower_serve, LeaderSession, Terminator};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::leader::{draw_nonce, elect, verify_reveal, ElectionReveal};
use crate::messages::{CountsReport, ProtocolMessage};
use crate::protocol::PhaseTimings;
use gendpr_crypto::aead;
use gendpr_crypto::rng::ChaChaRng;
use gendpr_fednet::fault::FaultPlan;
use gendpr_fednet::metrics::TrafficStats;
use gendpr_fednet::transport::{
    Endpoint, Envelope, Network, Outgoing, Patience, PeerId, Silence, Transport,
};
use gendpr_fednet::wire::{self, Decode, Encode, Reader, WireError};
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_tee::attestation::AttestationService;
use gendpr_tee::enclave::Enclave;
use gendpr_tee::measurement::Measurement;
use gendpr_tee::platform::Platform;
use gendpr_tee::session::{Handshake, HandshakeMessage, SecureChannel};
use gendpr_tee::TeeError;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Code identity of the GenDPR member enclave. All members must run the
/// same build or mutual attestation fails.
pub const CODE_IDENTITY: &str = "gendpr/member/v1";

pub(crate) const CHANNEL_AAD: &[u8] = b"gendpr/protocol/v1";

/// The epoch in every frame head. Frames keep the field so their bytes
/// stay what they were; a frame stamped with any other value is dropped.
const EPOCH: u64 = 1;

/// Why a frame tried for its slot was dropped: it is not the kind the
/// member waits for there.
const UNEXPECTED_KIND: &str = "frame of an unexpected kind";

/// Received message buffers a member keeps for its next sends, and the
/// largest capacity it keeps: enough for the moments exchange's short
/// frames, in flight at a handful per peer, never a Phase 3 report's.
const SPARE_BUFFERS: usize = 8;
const SPARE_CAPACITY: usize = 1024;

/// Deployment options for the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Bound on every wait; a silent member aborts the protocol.
    pub timeout: Duration,
    /// Ship Phase 3 matrices as one-bit-per-cell compact reports instead
    /// of the paper's dense value matrices (~64× less traffic). It selects
    /// the wire format only: the leader decodes either into the same
    /// indicator columns. Off by default for paper fidelity; the field
    /// stays because the benchmark names it and runs the default.
    pub compact_lr: bool,
    /// Prefetch the LD moments of every adjacent pair of `L'` in a single
    /// batched round before the scan, collapsing the per-pair round trips
    /// of Algorithm 1's inner loop to cache misses only. Off by default
    /// for paper fidelity.
    pub prefetch_ld: bool,
    /// Accepted and **ignored**: the leader evaluates its collusion
    /// subsets in subset order on its own thread. The field stays because
    /// the struct literal at `benchmark/src/probes.rs:46` names it; retire
    /// it together with [`crate::protocol::Federation::with_threads`].
    pub threads: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(300),
            compact_lr: false,
            prefetch_ld: false,
            threads: 1,
        }
    }
}

/// Per-member resource report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberResources {
    /// Member index.
    pub id: usize,
    /// Peak enclave memory (bytes) — the Table 3 "Memory" column.
    pub peak_enclave_bytes: u64,
    /// Enclave entries performed.
    pub ecalls: u64,
}

/// Result of a full threaded run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The elected leader.
    pub leader: usize,
    /// MAF survivors.
    pub l_prime: Vec<SnpId>,
    /// LD survivors.
    pub l_double_prime: Vec<SnpId>,
    /// The final safe set (identical at every member).
    pub safe_snps: Vec<SnpId>,
    /// Measured network traffic (every byte of it enclave-encrypted).
    pub traffic: TrafficStats,
    /// Per-member enclave resource usage.
    pub resources: Vec<MemberResources>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Leader-side per-task wall times (each includes waiting for the
    /// members' parallel local computations — the federated critical path).
    pub timings: PhaseTimings,
    /// Enclave-signed certificate binding parameters, input digests, the
    /// safe set and the roster (verify with
    /// [`AssessmentCertificate::verify`]).
    pub certificate: AssessmentCertificate,
}

/// Untyped transport frames (election and handshake are public-by-design;
/// everything else travels as channel ciphertext). Every frame carries an
/// epoch, always [`EPOCH`], and a per-link sequence number, by which a
/// receiver orders duplicated or reordered delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    epoch: u64,
    seq: u64,
    body: FrameBody,
}

/// Tags 4–6 (a probe, its answer, a view change) are retired and left
/// unused: a frame carrying one does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FrameBody {
    Commit([u8; 32]),
    Reveal([u8; 32]),
    Handshake([u8; 128]),
    /// A channel message; one whose plaintext is empty is a heartbeat.
    Sealed(Sealed),
}

/// Bytes of a sealed frame before its ciphertext: epoch, sequence number,
/// body tag and the ciphertext's `u64` length prefix.
const SEALED_HEAD: usize = 8 + 8 + 1 + 8;
const SEALED_TAG: u8 = 3;

/// A channel ciphertext (`ciphertext ‖ tag`) inside the buffer of the
/// frame that carries it, at [`SEALED_HEAD`]. [`send_protocol`] encodes and
/// seals a message after room for the frame head, and a received frame
/// keeps the buffer it arrived in, so neither direction copies the
/// ciphertext.
#[derive(Debug, Clone, Eq)]
pub(crate) struct Sealed(Vec<u8>);

impl Sealed {
    fn bytes(&self) -> &[u8] {
        &self.0[SEALED_HEAD..]
    }
}

impl PartialEq for Sealed {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Encode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.seq.encode(buf);
        match &self.body {
            FrameBody::Commit(c) => {
                0u8.encode(buf);
                c.encode(buf);
            }
            FrameBody::Reveal(r) => {
                1u8.encode(buf);
                r.encode(buf);
            }
            FrameBody::Handshake(h) => {
                2u8.encode(buf);
                h.encode(buf);
            }
            FrameBody::Sealed(sealed) => {
                SEALED_TAG.encode(buf);
                (sealed.bytes().len() as u64).encode(buf);
                u8::encode_all(sealed.bytes(), buf);
            }
        }
    }
}

impl Frame {
    /// The frame's wire bytes. A sealed body already sits behind room for
    /// its head, which is written in place; any other body is encoded.
    fn into_wire(self) -> Vec<u8> {
        let FrameBody::Sealed(Sealed(mut buf)) = self.body else {
            return wire::to_bytes(&self);
        };
        // The head as `Encode` writes it: epoch, seq, tag, body length.
        let len = (buf.len() - SEALED_HEAD) as u64;
        buf[..8].copy_from_slice(&self.epoch.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16] = SEALED_TAG;
        buf[17..SEALED_HEAD].copy_from_slice(&len.to_le_bytes());
        buf
    }

    /// Decodes a frame from the buffer it arrived in, strictly: trailing
    /// bytes are an error. A sealed body stays in that buffer.
    fn from_wire(bytes: Vec<u8>) -> Result<Self, WireError> {
        let mut r = Reader::new(&bytes);
        let epoch = u64::decode(&mut r)?;
        let seq = u64::decode(&mut r)?;
        let body = match u8::decode(&mut r)? {
            0 => FrameBody::Commit(<[u8; 32]>::decode(&mut r)?),
            1 => FrameBody::Reveal(<[u8; 32]>::decode(&mut r)?),
            2 => FrameBody::Handshake(<[u8; 128]>::decode(&mut r)?),
            SEALED_TAG => {
                let len = u64::decode(&mut r)?;
                let remaining = r.remaining();
                if len > remaining as u64 {
                    return Err(WireError::LengthOverrun {
                        claimed: len,
                        remaining,
                    });
                }
                if len < remaining as u64 {
                    return Err(WireError::TrailingBytes(remaining - len as usize));
                }
                let body = FrameBody::Sealed(Sealed(bytes));
                return Ok(Self { epoch, seq, body });
            }
            _ => return Err(WireError::InvalidValue("Frame tag")),
        };
        match r.remaining() {
            0 => Ok(Self { epoch, seq, body }),
            trailing => Err(WireError::TrailingBytes(trailing)),
        }
    }
}

pub(crate) fn measurement_config(params: &GwasParams) -> Vec<u8> {
    let mut buf = Vec::new();
    params.maf_cutoff.encode(&mut buf);
    params.ld_cutoff.encode(&mut buf);
    params.lr.false_positive_rate.encode(&mut buf);
    params.lr.power_threshold.encode(&mut buf);
    buf
}

/// The measurement every member expects its peers to attest.
#[must_use]
pub fn expected_measurement(params: &GwasParams) -> Measurement {
    Measurement::compute(CODE_IDENTITY, &measurement_config(params))
}

pub(crate) struct MemberCtx<T: Transport> {
    pub(crate) id: usize,
    pub(crate) g: usize,
    pub(crate) endpoint: T,
    pub(crate) enclave: Enclave<()>,
    pub(crate) rng: ChaChaRng,
    pub(crate) timeout: Duration,
    pub(crate) compact_lr: bool,
    pub(crate) prefetch_ld: bool,
    pub(crate) collusion: CollusionMode,
    pub(crate) expected: Measurement,
    /// This member's ends of its links; a follower's job takes them along.
    pub(crate) peers: Peers,
    /// Whether a [`MemberCtx::burst`] scope is open.
    bursting: bool,
    /// Frames held by the open burst scope; empty, with its capacity,
    /// between scopes.
    burst: Vec<Outgoing>,
}

/// A member's ends of its links, one per member id (a frame from any other
/// sender is dropped), and the spare buffers its sealed messages reuse:
/// transport-free, so a follower's machine can take it along.
pub(crate) struct Peers {
    links: Vec<Link>,
    /// Buffers of messages this member received and decoded, for its
    /// sealed sends to encode into ([`SPARE_BUFFERS`] at most).
    spare: Vec<Vec<u8>>,
}

/// One member's end of its link with one peer.
#[derive(Debug, Default)]
struct Link {
    /// Next sequence number to the peer.
    send_seq: u64,
    /// Sequence number of the peer's next frame to take.
    recv_next: u64,
    /// Frames from the peer not taken yet, sorted by sequence number,
    /// ties in arrival order. In-order arrival appends; chaos reorders and
    /// duplicates, and whoever reaches a TCP port can add frames, so a
    /// slot may hold several candidates until one is taken.
    inbox: VecDeque<(u64, FrameBody)>,
    /// The attested channel, once the handshake completed.
    channel: Option<SecureChannel>,
}

impl Link {
    /// Opens a sealed frame under the channel's next receive counter, in
    /// the buffer it arrived in; `None` for a heartbeat.
    fn open(&mut self, body: FrameBody) -> Result<Option<Vec<u8>>, &'static str> {
        let FrameBody::Sealed(Sealed(mut buf)) = body else {
            return Err(UNEXPECTED_KIND);
        };
        let channel = self
            .channel
            .as_mut()
            .expect("a sealed receive follows the handshake");
        let empty = channel
            .recv_in_place(&mut buf[SEALED_HEAD..], CHANNEL_AAD)
            .map_err(|_| "sealed frame that does not open")?
            .is_empty();
        Ok((!empty).then_some(buf))
    }
}

/// Reports a frame dropped from `member`'s link with `from`.
fn frame_dropped(member: usize, from: usize, reason: &'static str) {
    gendpr_obs::event(
        gendpr_obs::Level::Warn,
        "runtime",
        "frame_dropped",
        &[
            ("member", member.into()),
            ("link", from.into()),
            ("reason", reason.into()),
        ],
    );
}

impl Peers {
    fn new(g: usize) -> Self {
        Self {
            links: (0..g).map(|_| Link::default()).collect(),
            spare: Vec::new(),
        }
    }

    /// A buffer for a sealed message: `SEALED_HEAD` bytes of room for the
    /// frame head, recycled from a received message where one is spare.
    fn message_buffer(&mut self) -> Vec<u8> {
        let mut buf = self
            .spare
            .pop()
            // Room for the common messages (moment requests and replies,
            // phase broadcasts of a short panel) without regrowing.
            .unwrap_or_else(|| Vec::with_capacity(256));
        buf.clear();
        buf.resize(SEALED_HEAD, 0);
        buf
    }

    /// Decodes `from`'s message opened in `buf` (a refusal is its
    /// malformed message), then keeps the buffer for a later send if it is
    /// short and the spares are not full.
    pub(crate) fn decode<R>(
        &mut self,
        from: usize,
        buf: Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<R, WireError>,
    ) -> Result<R, ProtocolError> {
        let decoded = decode(&buf[SEALED_HEAD..buf.len() - aead::OVERHEAD])
            .map_err(|_| ProtocolError::MalformedMessage { member: from });
        if buf.capacity() <= SPARE_CAPACITY && self.spare.len() < SPARE_BUFFERS {
            self.spare.push(buf);
        }
        decoded
    }

    /// A frame's wire bytes, stamped with the link's next sequence number.
    fn frame(&mut self, to: usize, body: FrameBody) -> Vec<u8> {
        let seq = &mut self.links[to].send_seq;
        let frame = Frame {
            epoch: EPOCH,
            seq: *seq,
            body,
        };
        *seq += 1;
        frame.into_wire()
    }

    /// A message `encode` appends after room for the frame head, sealed
    /// for `to` where it lies, the head written last.
    pub(crate) fn sealed(&mut self, to: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Outgoing {
        let mut buf = self.message_buffer();
        encode(&mut buf);
        let plaintext_len = buf.len() - SEALED_HEAD;
        buf.reserve_exact(aead::OVERHEAD);
        let channel = self.links[to]
            .channel
            .as_mut()
            .expect("a sealed send follows the handshake");
        channel.send_in_place(&mut buf, SEALED_HEAD, CHANNEL_AAD);
        let bytes = self.frame(to, FrameBody::Sealed(Sealed(buf)));
        (PeerId(to as u32), bytes, plaintext_len)
    }

    /// Files a frame in its link's inbox, as `me`'s. A sender outside
    /// `0..g` has no link (TCP's sender id is peer-asserted); a frame that
    /// does not decode, or of another epoch, is dropped with a `Warn` event.
    pub(crate) fn ingest(&mut self, me: usize, from: PeerId, payload: Vec<u8>) {
        let from = from.0 as usize;
        let Some(link) = self.links.get_mut(from) else {
            return;
        };
        let frame = match Frame::from_wire(payload) {
            Ok(frame) if frame.epoch == EPOCH => frame,
            Ok(_) => return frame_dropped(me, from, "frame of another epoch"),
            Err(_) => return frame_dropped(me, from, "frame that does not decode"),
        };
        if frame.seq < link.recv_next {
            return; // a duplicate of a frame already taken
        }
        let at = link.inbox.partition_point(|&(seq, _)| seq <= frame.seq);
        link.inbox.insert(at, (frame.seq, frame.body));
    }

    /// Takes `from`'s next frame, if one has arrived that `admit` lets
    /// into its slot. Frames tried there that it refuses are dropped with
    /// a `Warn` event (as `me`'s), and the slot waits for the genuine
    /// frame.
    fn take<R>(
        &mut self,
        me: usize,
        from: usize,
        admit: impl Fn(&mut Link, FrameBody) -> Result<R, &'static str>,
    ) -> Option<R> {
        loop {
            let link = &mut self.links[from];
            let &(seq, _) = link.inbox.front()?;
            if seq > link.recv_next {
                return None;
            }
            let (_, body) = link.inbox.pop_front()?;
            if seq < link.recv_next {
                continue; // a duplicate of a frame already taken
            }
            match admit(link, body) {
                Ok(taken) => {
                    link.recv_next += 1;
                    return Some(taken);
                }
                Err(reason) => frame_dropped(me, from, reason),
            }
        }
    }

    /// `from`'s next message, opened in its buffer, if it has arrived;
    /// heartbeats on the way are taken and skipped.
    pub(crate) fn next_message(&mut self, me: usize, from: usize) -> Option<Vec<u8>> {
        loop {
            if let Some(buf) = self.take(me, from, Link::open)? {
                return Some(buf);
            }
        }
    }

    /// Frames taken from `from`, heartbeats included.
    pub(crate) fn heard(&self, from: usize) -> u64 {
        self.links[from].recv_next
    }
}

impl<T: Transport> MemberCtx<T> {
    /// Runs `sends` with every frame it sends held back, then hands them
    /// to the transport as one burst ([`Transport::send_all`]): a fan-out
    /// costs one wake per destination, and no member starts on its frame
    /// before the last one is queued. The burst goes out on every path
    /// out of `sends`, errors included; a nested scope joins the outer
    /// one. `sends` must not wait for a reply — its frames are not out yet.
    pub(crate) fn burst<R>(&mut self, sends: impl FnOnce(&mut Self) -> R) -> R {
        if self.bursting {
            return sends(self);
        }
        self.bursting = true;
        let out = sends(self);
        self.bursting = false;
        // Sends are best-effort (see `send`): the results go unread.
        self.endpoint.send_all(&mut self.burst, &mut |_| {});
        out
    }

    /// Ratchets every channel this member holds (a service job boundary).
    pub(crate) fn rekey_channels(&mut self) {
        let links = self.peers.links.iter_mut();
        for channel in links.filter_map(|l| l.channel.as_mut()) {
            channel.rekey();
        }
    }

    /// Whether this member holds a channel with `peer`.
    pub(crate) fn attested(&self, peer: usize) -> bool {
        self.peers.links[peer].channel.is_some()
    }

    /// Sends a frame. Sends are best-effort: a dead link surfaces at the
    /// receiver as silence, which the failure detector turns into a
    /// suspicion.
    fn send(&mut self, frame: Outgoing) {
        if self.bursting {
            self.burst.push(frame);
        } else {
            let (to, bytes, plaintext_len) = frame;
            let _ = self.endpoint.send(to, bytes, plaintext_len);
        }
    }

    /// Sends an unsealed frame (the election's and the handshake's).
    fn send_frame(&mut self, to: usize, body: FrameBody, plaintext_len: usize) {
        let bytes = self.peers.frame(to, body);
        self.send((PeerId(to as u32), bytes, plaintext_len));
    }

    /// Files an incoming envelope in its link's inbox ([`Peers::ingest`]).
    fn ingest(&mut self, env: Envelope) {
        self.peers.ingest(self.id, env.from, env.payload);
    }

    /// Receives the next frame from `from` that `admit` lets into its
    /// slot, filing frames from others; `admit` returns `None` for a
    /// heartbeat. `from` is suspected once it stays silent through the
    /// timeout ([`MemberCtx::await_frame_from`]).
    fn recv_frame_from<R>(
        &mut self,
        from: usize,
        phase: &'static str,
        admit: impl Fn(&mut Link, FrameBody) -> Result<Option<R>, &'static str>,
    ) -> Result<R, ProtocolError> {
        self.await_frame_from(from, admit)
            .ok_or_else(|| self.suspect(from, phase))
    }

    /// The wait of [`MemberCtx::recv_frame_from`] without its verdict:
    /// `None` once `from` stayed silent as long as it would be suspected
    /// for, and nobody is suspected. The caller decides what the silence
    /// means.
    ///
    /// Waits are sliced into probe intervals ([`Patience`]): a silent
    /// interval sends heartbeats ([`MemberCtx::heartbeat`]). A heartbeat
    /// from `from` is a sign of life that restarts the count, so a peer
    /// merely *busy* waiting on someone else is not suspected, only a
    /// silent one. Frames already delivered are filed first
    /// ([`Transport::try_recv`]), so a receive that finds its frame queued
    /// reads no clock.
    fn await_frame_from<R>(
        &mut self,
        from: usize,
        admit: impl Fn(&mut Link, FrameBody) -> Result<Option<R>, &'static str>,
    ) -> Option<R> {
        let mut patience = Patience::new(self.timeout);
        loop {
            while let Some(taken) = self.peers.take(self.id, from, &admit) {
                if taken.is_some() {
                    return taken;
                }
            }
            if let Some(env) = self.endpoint.try_recv() {
                self.ingest(env);
                continue;
            }
            let heard = self.peers.heard(from);
            match patience.wait(heard, |slice| self.endpoint.recv_timeout(slice).ok()) {
                Ok(env) => self.ingest(env),
                Err(Silence::Probe) => self.heartbeat(from),
                Err(Silence::Timeout) => return None,
            }
        }
    }

    /// Tells every peer this member holds a channel with, except the
    /// `awaited` one, that it is alive: a sealed empty message each. The
    /// awaited peer is left out because a follower awaits only its
    /// leader, and a heartbeat it sealed before its job-boundary rekey
    /// could reach a leader that has rekeyed already: it would open under
    /// neither key and hold the link's next slot for good.
    fn heartbeat(&mut self, awaited: usize) {
        for peer in 0..self.g {
            if peer != awaited && self.attested(peer) {
                let frame = self.peers.sealed(peer, |_| {});
                self.send(frame);
            }
        }
    }

    /// The error for a peer silent through the whole timeout.
    pub(crate) fn suspect(&self, member: usize, phase: &'static str) -> ProtocolError {
        crate::telemetry::suspicions().inc();
        gendpr_obs::event(
            gendpr_obs::Level::Warn,
            "runtime",
            "member_suspected",
            &[("member", member.into()), ("phase", phase.into())],
        );
        ProtocolError::MemberUnresponsive { member, phase }
    }
}

/// Before the handshake a link is not authenticated: an election that
/// does not verify may be a forgery of anyone who reaches the port, so it
/// is a security failure on the link, not the peer's malformed message.
fn unauthenticated(member: usize) -> ProtocolError {
    ProtocolError::SecurityFailure {
        member,
        cause: TeeError::ChannelMessageRejected,
    }
}

/// Commit-reveal election over the federation (paper: "randomly choosing
/// one of the registered enclaves").
pub(crate) fn run_election<T: Transport>(ctx: &mut MemberCtx<T>) -> Result<usize, ProtocolError> {
    let peers: Vec<usize> = (0..ctx.g).filter(|&peer| peer != ctx.id).collect();
    let (reveal, commitment) = draw_nonce(&mut ctx.rng);
    for &peer in &peers {
        ctx.send_frame(peer, FrameBody::Commit(commitment.0), 32);
    }
    let mut commits = vec![commitment; ctx.g];
    for &peer in &peers {
        commits[peer].0 = ctx.recv_frame_from(peer, "election-commit", |_, body| match body {
            FrameBody::Commit(c) => Ok(Some(c)),
            _ => Err(UNEXPECTED_KIND),
        })?;
    }
    for &peer in &peers {
        ctx.send_frame(peer, FrameBody::Reveal(reveal.0), 32);
    }
    let mut reveals = vec![reveal; ctx.g];
    for &peer in &peers {
        reveals[peer] =
            ElectionReveal(
                ctx.recv_frame_from(peer, "election-reveal", |_, body| match body {
                    FrameBody::Reveal(r) => Ok(Some(r)),
                    _ => Err(UNEXPECTED_KIND),
                })?,
            );
        if !verify_reveal(&commits[peer], &reveals[peer]) {
            return Err(unauthenticated(peer));
        }
    }
    Ok(elect(&reveals, ctx.g))
}

/// Establishes an attested channel with `peer` (both sides run this) and
/// gives it to the link.
pub(crate) fn establish_channel<T: Transport>(
    ctx: &mut MemberCtx<T>,
    peer: usize,
) -> Result<(), ProtocolError> {
    let handshake = Handshake::start(&ctx.enclave, &mut ctx.rng);
    let msg = handshake.message().to_bytes();
    ctx.send_frame(peer, FrameBody::Handshake(msg), msg.len());
    let peer_msg = ctx.recv_frame_from(peer, "handshake", |_, body| match body {
        FrameBody::Handshake(h) => Ok(Some(h)),
        _ => Err(UNEXPECTED_KIND),
    })?;
    let channel = handshake
        .complete(&HandshakeMessage::from_bytes(&peer_msg), &ctx.expected)
        .map_err(|cause| ProtocolError::SecurityFailure {
            member: peer,
            cause,
        })?;
    ctx.peers.links[peer].channel = Some(channel);
    Ok(())
}

/// Seals `msg` for `to` in one buffer: encoded after room for the frame
/// head, sealed where it lies, the head written last.
pub(crate) fn send_protocol<T: Transport>(
    ctx: &mut MemberCtx<T>,
    to: usize,
    msg: &ProtocolMessage,
) {
    send_encoded(ctx, to, |buf| msg.encode(buf));
}

/// [`send_protocol`] for a message `encode` appends to the buffer itself.
pub(crate) fn send_encoded<T: Transport>(
    ctx: &mut MemberCtx<T>,
    to: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) {
    let frame = ctx.peers.sealed(to, encode);
    ctx.send(frame);
}

/// Receives `from`'s next message over the channel; a silence through the
/// whole timeout suspects `from`.
pub(crate) fn recv_protocol<T: Transport>(
    ctx: &mut MemberCtx<T>,
    from: usize,
    phase: &'static str,
) -> Result<ProtocolMessage, ProtocolError> {
    recv_decoded(ctx, from, phase, wire::from_bytes)
}

/// [`recv_protocol`] for a wait that may rightly outlast the timeout, a
/// service follower's between jobs: `None` after a silent timeout, and
/// nobody is suspected.
pub(crate) fn await_protocol<T: Transport>(
    ctx: &mut MemberCtx<T>,
    from: usize,
) -> Result<Option<ProtocolMessage>, ProtocolError> {
    await_decoded(ctx, from, wire::from_bytes)
}

/// [`recv_protocol`] for a message `decode` reads from its plaintext in
/// place; a plaintext it refuses is `from`'s malformed message.
pub(crate) fn recv_decoded<T: Transport, R>(
    ctx: &mut MemberCtx<T>,
    from: usize,
    phase: &'static str,
    decode: impl FnOnce(&[u8]) -> Result<R, WireError>,
) -> Result<R, ProtocolError> {
    await_decoded(ctx, from, decode)?.ok_or_else(|| ctx.suspect(from, phase))
}

/// The wait of [`await_protocol`], decoding with `decode`; the buffer is
/// kept for a later send.
fn await_decoded<T: Transport, R>(
    ctx: &mut MemberCtx<T>,
    from: usize,
    decode: impl FnOnce(&[u8]) -> Result<R, WireError>,
) -> Result<Option<R>, ProtocolError> {
    match ctx.await_frame_from(from, Link::open) {
        Some(buf) => ctx.peers.decode(from, buf, decode).map(Some),
        None => Ok(None),
    }
}

/// Where an election put a member.
#[allow(clippy::large_enum_variant)] // one per member, matched at once
pub(crate) enum Seat<'a> {
    /// Elected: attested to every peer, their counts collected.
    Leader(LeaderSession<'a>),
    /// Attested to the leader, own counts sent.
    Follower { leader: usize },
}

/// Elects a leader and seats this member: the leader attests every other
/// member in id order and collects their counts, a follower attests the
/// leader and sends its own. Both drivers join a federation this way.
pub(crate) fn seat<'a, T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &'a GdoNode,
    counts: &CountsReport,
    reference: &'a GenotypeMatrix,
    params: &'a GwasParams,
) -> Result<Seat<'a>, ProtocolError> {
    let leader = run_election(ctx)?;
    if leader != ctx.id {
        establish_channel(ctx, leader)?;
        send_protocol(ctx, leader, &ProtocolMessage::Counts(counts.clone()));
        return Ok(Seat::Follower { leader });
    }
    for peer in 0..ctx.g {
        if peer != ctx.id {
            establish_channel(ctx, peer)?;
        }
    }
    LeaderSession::collect(ctx, node, reference, params).map(Seat::Leader)
}
/// Runs the full threaded deployment over `cohort`.
///
/// `faults` optionally injects crashes/partitions; `timeout` bounds every
/// wait (a silent member aborts the protocol, per the paper's liveness
/// caveat).
///
/// # Errors
///
/// Configuration errors, [`ProtocolError::MemberUnresponsive`] under
/// faults, or [`ProtocolError::SecurityFailure`] if attestation fails.
pub fn run_federation(
    config: FederationConfig,
    params: GwasParams,
    cohort: impl AsRef<Cohort>,
    faults: Option<FaultPlan>,
    timeout: Duration,
) -> Result<RuntimeReport, ProtocolError> {
    run_federation_with(
        config,
        params,
        cohort,
        faults,
        RuntimeOptions {
            timeout,
            ..RuntimeOptions::default()
        },
    )
}

/// [`run_federation`] with explicit [`RuntimeOptions`].
///
/// Deploys over the in-memory [`Network`]; use [`run_federation_over`] to
/// supply your own transports (e.g. [`gendpr_fednet::tcp::TcpTransport`])
/// and [`run_member`] to run a single member in its own process.
///
/// # Errors
///
/// Same conditions as [`run_federation`].
pub fn run_federation_with(
    config: FederationConfig,
    params: GwasParams,
    cohort: impl AsRef<Cohort>,
    faults: Option<FaultPlan>,
    options: RuntimeOptions,
) -> Result<RuntimeReport, ProtocolError> {
    run_federation_over(
        in_memory_fabric(&config, faults)?,
        config,
        params,
        cohort,
        options,
    )
}

/// One endpoint per member of a valid `config` on a fresh in-memory
/// [`Network`], in id order. Every endpoint is registered before any
/// member runs: a member must never observe a federation where a peer
/// does not exist yet.
pub(crate) fn in_memory_fabric(
    config: &FederationConfig,
    faults: Option<FaultPlan>,
) -> Result<Vec<Endpoint>, ProtocolError> {
    config.validate().map_err(ProtocolError::InvalidConfig)?;
    let network = Network::new();
    if let Some(f) = faults {
        network.set_faults(f);
    }
    Ok((0..config.gdo_count)
        .map(|id| network.register(PeerId(id as u32)))
        .collect())
}

/// Checks a deployment — a valid config and params, a non-empty study
/// (SNPs, reference individuals and case genomes), a transport for each
/// member, in id order — and starts one thread per member, running
/// `member(id)` over its transport, its node and the shared reference
/// panel. Each thread builds its node from its rows of the cohort's shared
/// case matrix ([`GdoNode::from_rows`]); neither matrix is copied. Both
/// attested drivers deploy this way.
pub(crate) fn spawn_members<T, R, F>(
    transports: Vec<T>,
    config: &FederationConfig,
    params: &GwasParams,
    cohort: &Cohort,
    mut member: impl FnMut(usize) -> F,
) -> Result<Vec<JoinHandle<R>>, ProtocolError>
where
    T: Transport + 'static,
    R: Send + 'static,
    F: FnOnce(T, GdoNode, Arc<GenotypeMatrix>) -> R + Send + 'static,
{
    config.validate().map_err(ProtocolError::InvalidConfig)?;
    params.validate().map_err(ProtocolError::InvalidConfig)?;
    if cohort.panel().is_empty()
        || cohort.reference_individuals() == 0
        || cohort.case_individuals() == 0
    {
        return Err(ProtocolError::EmptyStudy);
    }
    if transports.len() != config.gdo_count {
        return Err(ProtocolError::InvalidConfig("one transport per member"));
    }
    if transports
        .iter()
        .enumerate()
        .any(|(id, t)| t.id() != PeerId(id as u32))
    {
        return Err(ProtocolError::InvalidConfig(
            "transports must be ordered by member id",
        ));
    }
    let rows = cohort.case_rows_among(config.gdo_count);
    Ok(transports
        .into_iter()
        .zip(rows)
        .enumerate()
        .map(|(id, (transport, rows))| {
            let (run, (case, reference)) = (member(id), cohort.shared());
            let (case, reference) = (Arc::clone(case), Arc::clone(reference));
            std::thread::spawn(move || {
                run(transport, GdoNode::from_rows(id, &case, rows), reference)
            })
        })
        .collect())
}

/// What one member observed during a federation run — the unit returned
/// by [`run_member`] and aggregated by [`run_federation_over`].
#[derive(Debug, Clone)]
pub struct MemberOutcome {
    /// This member's index.
    pub id: usize,
    /// The leader this member elected.
    pub leader: usize,
    /// The safe set this member learned (identical at every honest member).
    pub safe_snps: Vec<SnpId>,
    /// MAF survivors — populated only at the leader.
    pub l_prime: Option<Vec<SnpId>>,
    /// LD survivors — populated only at the leader.
    pub l_double_prime: Option<Vec<SnpId>>,
    /// The enclave-signed certificate — produced only at the leader.
    pub certificate: Option<AssessmentCertificate>,
    /// Leader-side phase timings (zero at followers).
    pub timings: PhaseTimings,
    /// Enclave resource usage of this member.
    pub resources: MemberResources,
    /// Bytes this member put on the wire.
    pub egress: TrafficStats,
    /// Bytes this member received off the wire.
    pub ingress: TrafficStats,
    /// Outbound per-link stats, `(peer, stats)` for every other member.
    pub links: Vec<(u32, TrafficStats)>,
}

/// Validates the configuration and builds one member: its protocol context
/// (the enclave, the deterministic per-member secrets and the links) around
/// `node`, and the counts report it computes once, metered in
/// its enclave — the report outlives a session's jobs. The fork order of
/// the derivation must match `run_federation_over` exactly: attestation
/// service first, then a (platform, member) RNG pair per member in id
/// order — this is what lets G independent processes (or a restarted
/// service daemon) sharing a seed reconstruct one consistent federation.
pub(crate) fn build_member<T: Transport>(
    transport: T,
    member: usize,
    config: &FederationConfig,
    params: &GwasParams,
    options: RuntimeOptions,
    node: GdoNode,
) -> Result<(MemberCtx<T>, GdoNode, CountsReport), ProtocolError> {
    config.validate().map_err(ProtocolError::InvalidConfig)?;
    params.validate().map_err(ProtocolError::InvalidConfig)?;
    let g = config.gdo_count;
    if member >= g {
        return Err(ProtocolError::InvalidConfig("member id out of range"));
    }

    let mut master = ChaChaRng::from_seed_u64(config.seed);
    let service = AttestationService::new(&mut master.fork("attestation-service"));
    let mut keys = None;
    for id in 0..=member {
        let platform_rng = master.fork("platform");
        let member_rng = master.fork(&format!("member-{id}"));
        if id == member {
            keys = Some((platform_rng, member_rng));
        }
    }
    let (mut platform_rng, rng) = keys.expect("loop visits `member`");
    let platform = Platform::new(&format!("gdo-{member}"), &service, &mut platform_rng);
    let mut enclave =
        platform.launch_enclave_with_config(CODE_IDENTITY, &measurement_config(params), ());
    let counts = enclave.enter(|(), epc| {
        let report = node.counts_report();
        epc.alloc(8 * report.counts.len() as u64);
        report
    });
    let ctx = MemberCtx {
        id: member,
        g,
        endpoint: transport,
        enclave,
        rng,
        timeout: options.timeout,
        compact_lr: options.compact_lr,
        prefetch_ld: options.prefetch_ld,
        collusion: config.collusion,
        expected: expected_measurement(params),
        peers: Peers::new(g),
        bursting: false,
        burst: Vec::new(),
    };
    Ok((ctx, node, counts))
}

/// Runs a single federation member over an arbitrary [`Transport`].
///
/// This is the body of one `run_federation` thread, exposed so a real
/// deployment (the `gendpr node` daemon) can run each member in its own
/// process. All per-member secrets — the attestation root, platform keys
/// and the member's protocol RNG — are derived from `config.seed` with
/// the exact fork sequence `run_federation_over` uses, so G independent
/// processes sharing a seed reconstruct one consistent federation and
/// produce bit-identical results to the threaded deployment.
///
/// `shard` is this member's case-cohort slice (shard `member` of
/// [`Cohort::split_case_among`] with `config.gdo_count` shards);
/// `reference` is the public reference panel every member holds.
///
/// # Errors
///
/// Configuration errors, [`ProtocolError::MemberUnresponsive`] when a
/// peer stays silent past `options.timeout`, or
/// [`ProtocolError::SecurityFailure`] if attestation fails.
#[allow(clippy::needless_pass_by_value)] // the transport is consumed by the run
pub fn run_member<T: Transport>(
    transport: T,
    member: usize,
    config: &FederationConfig,
    params: &GwasParams,
    options: RuntimeOptions,
    shard: GenotypeMatrix,
    reference: &GenotypeMatrix,
) -> Result<MemberOutcome, ProtocolError> {
    let node = GdoNode::new(member, shard);
    run_member_node(transport, member, config, params, options, node, reference)
}

/// [`run_member`] over a built node.
fn run_member_node<T: Transport>(
    transport: T,
    member: usize,
    config: &FederationConfig,
    params: &GwasParams,
    options: RuntimeOptions,
    node: GdoNode,
    reference: &GenotypeMatrix,
) -> Result<MemberOutcome, ProtocolError> {
    let (mut ctx, node, counts) = build_member(transport, member, config, params, options, node)?;
    let node = Arc::new(node);
    // Seat, then one job: the leader assesses the whole panel, nothing
    // forced, no job context.
    let (leader, safe_snps, (l_prime, l_double_prime), certificate, timings) =
        match seat(&mut ctx, &node, &counts, reference, params)? {
            Seat::Leader(mut session) => {
                gendpr_obs::event(
                    gendpr_obs::Level::Info,
                    "runtime",
                    "leader_run_started",
                    &[
                        ("leader", member.into()),
                        ("members", ctx.g.into()),
                        ("subsets", session.core.evaluations().into()),
                    ],
                );
                let panel = session.core.whole_panel();
                let a = session.assess(&mut ctx, &panel, &[], None, None)?;
                let kept = (Some(a.l_prime), Some(a.l_double_prime));
                (member, a.released, kept, a.certificate, a.timings)
            }
            Seat::Follower { leader } => {
                let safe;
                (ctx, safe) = follower_serve(ctx, &node, leader, Terminator::Phase3);
                (leader, safe?, (None, None), None, PhaseTimings::default())
            }
        };
    let links = (0..config.gdo_count)
        .filter(|&peer| peer != member)
        .map(|peer| (peer as u32, ctx.endpoint.link_stats(PeerId(peer as u32))))
        .collect();
    Ok(MemberOutcome {
        id: member,
        leader,
        safe_snps,
        l_prime,
        l_double_prime,
        certificate,
        timings,
        resources: MemberResources {
            id: member,
            peak_enclave_bytes: ctx.enclave.epc().peak(),
            ecalls: ctx.enclave.ecalls(),
        },
        egress: ctx.endpoint.egress_stats(),
        ingress: ctx.endpoint.ingress_stats(),
        links,
    })
}

/// Runs the full deployment over caller-supplied transports, one per
/// member in id order (transport `i` must report `PeerId(i)`).
///
/// [`run_federation_with`] is this function applied to a fresh in-memory
/// [`Network`]; passing [`gendpr_fednet::tcp::TcpTransport`]s instead
/// runs the same protocol over real sockets.
///
/// # Errors
///
/// Same conditions as [`run_federation`], plus
/// [`ProtocolError::InvalidConfig`] if the transports do not line up with
/// the configured member count.
pub fn run_federation_over<T: Transport + 'static>(
    transports: Vec<T>,
    config: FederationConfig,
    params: GwasParams,
    cohort: impl AsRef<Cohort>,
    options: RuntimeOptions,
) -> Result<RuntimeReport, ProtocolError> {
    let start = Instant::now();
    let handles = spawn_members(transports, &config, &params, cohort.as_ref(), |id| {
        move |transport, node, reference: Arc<GenotypeMatrix>| {
            run_member_node(transport, id, &config, &params, options, node, &reference)
        }
    })?;

    let mut outcomes = Vec::with_capacity(handles.len());
    let mut failures: Vec<ProtocolError> = Vec::new();
    for handle in handles {
        match handle.join().expect("member thread must not panic") {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => failures.push(e),
        }
    }

    let Some(leader_outcome) = outcomes.iter().find(|o| o.certificate.is_some()) else {
        // No leader certified. Report the most precise root cause: any
        // protocol error beats transport noise.
        let transport_noise = |e: &&ProtocolError| {
            matches!(
                e,
                ProtocolError::MemberUnresponsive {
                    phase: "transport",
                    ..
                }
            )
        };
        let root = failures
            .iter()
            .find(|e| !transport_noise(e))
            .or_else(|| failures.first())
            .cloned()
            .unwrap_or(ProtocolError::InvalidConfig(
                "no member produced a certificate",
            ));
        return Err(root);
    };

    let leader = leader_outcome.leader;
    let l_prime = leader_outcome.l_prime.clone().expect("leader outcome");
    let l_double_prime = leader_outcome
        .l_double_prime
        .clone()
        .expect("leader produced both survivor sets");
    let safe_snps = leader_outcome.safe_snps.clone();
    let timings = leader_outcome.timings;
    let certificate = leader_outcome
        .certificate
        .clone()
        .expect("found by certificate presence");
    // Every member that finished must agree.
    let mut traffic = TrafficStats::default();
    for o in &outcomes {
        assert_eq!(
            o.safe_snps, safe_snps,
            "member {} disagrees on L_safe",
            o.id
        );
        assert_eq!(o.leader, leader, "member {} disagrees on the leader", o.id);
        traffic.merge(&o.egress);
    }
    outcomes.sort_by_key(|o| o.id);
    let resources = outcomes.iter().map(|o| o.resources).collect();

    Ok(RuntimeReport {
        leader,
        l_prime,
        l_double_prime,
        safe_snps,
        traffic,
        resources,
        elapsed: start.elapsed(),
        timings,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollusionMode;
    use crate::protocol::Federation;
    use gendpr_genomics::synth::SyntheticCohort;
    use proptest::prelude::*;

    fn cohort(snps: usize, n: usize) -> SyntheticCohort {
        SyntheticCohort::builder()
            .snps(snps)
            .case_individuals(n)
            .reference_individuals(n)
            .seed(31)
            .build()
    }

    const TIMEOUT: Duration = Duration::from_secs(20);

    #[test]
    fn threaded_run_matches_in_process_driver() {
        let c = cohort(150, 180);
        let config = FederationConfig::new(3).with_seed(4);
        let params = GwasParams::secure_genome_defaults();
        let threaded = run_federation(config, params, &c, None, TIMEOUT).unwrap();
        let in_process = Federation::new(config, params, &c).run().unwrap();
        assert_eq!(threaded.l_prime, in_process.l_prime);
        assert_eq!(threaded.l_double_prime, in_process.l_double_prime);
        assert_eq!(threaded.safe_snps, in_process.safe_snps);
        assert!(threaded.traffic.messages > 0);
        assert!(threaded.traffic.wire_bytes > threaded.traffic.plaintext_bytes);
        assert_eq!(threaded.resources.len(), 3);
        assert!(threaded.resources.iter().all(|r| r.peak_enclave_bytes > 0));
        assert_eq!(threaded.certificate.epoch, 1);
        assert_eq!(threaded.certificate.roster, vec![0, 1, 2]);
    }

    #[test]
    fn collusion_tolerant_threaded_run() {
        let c = cohort(100, 120);
        let config = FederationConfig::new(3)
            .with_collusion(CollusionMode::Fixed(1))
            .with_seed(7);
        let params = GwasParams::secure_genome_defaults();
        let threaded = run_federation(config, params, &c, None, TIMEOUT).unwrap();
        let in_process = Federation::new(config, params, &c).run().unwrap();
        assert_eq!(threaded.safe_snps, in_process.safe_snps);
    }

    #[test]
    fn certificate_verifies_against_recomputed_facts() {
        // The harness plays the auditor: rebuild the facts from the raw
        // data and check the leader's certificate against them. The
        // attestation service must be derived from the same seed the
        // runtime used.
        let c = cohort(80, 200);
        let config = FederationConfig::new(3).with_seed(5);
        let params = GwasParams::secure_genome_defaults();
        let report = run_federation(config, params, &c, None, TIMEOUT).unwrap();

        let mut master = ChaChaRng::from_seed_u64(config.seed);
        let service = AttestationService::new(&mut master.fork("attestation-service"));
        let facts = crate::certificate::AssessmentFacts {
            params: &params,
            gdo_count: 3,
            panel_len: c.panel().len(),
            case_counts: &c.case().column_counts(),
            n_case: c.case().individuals() as u64,
            ref_counts: &c.reference().column_counts(),
            n_ref: c.reference().individuals() as u64,
            safe: &report.safe_snps,
            evaluations: 1,
            epoch: 1,
            roster: &[0, 1, 2],
            context: None,
        };
        report
            .certificate
            .verify(&service, &expected_measurement(&params), &facts)
            .expect("genuine certificate verifies");

        // Claiming a different safe set fails.
        let mut wrong = facts;
        let other: Vec<SnpId> = report.safe_snps.iter().take(1).copied().collect();
        wrong.safe = &other;
        assert!(report
            .certificate
            .verify(&service, &expected_measurement(&params), &wrong)
            .is_err());
    }

    #[test]
    fn compact_lr_mode_selects_identically_with_less_traffic() {
        let c = cohort(90, 400);
        let config = FederationConfig::new(3).with_seed(2);
        let params = GwasParams::secure_genome_defaults();
        let dense = run_federation(config, params, &c, None, TIMEOUT).unwrap();
        let compact = run_federation_with(
            config,
            params,
            &c,
            None,
            RuntimeOptions {
                timeout: TIMEOUT,
                compact_lr: true,
                ..RuntimeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dense.safe_snps, compact.safe_snps);
        assert_eq!(dense.l_double_prime, compact.l_double_prime);
        assert!(
            compact.traffic.wire_bytes < dense.traffic.wire_bytes,
            "compact {} vs dense {}",
            compact.traffic.wire_bytes,
            dense.traffic.wire_bytes
        );
    }

    #[test]
    fn prefetch_ld_mode_selects_identically_with_fewer_messages() {
        let c = cohort(120, 300);
        let config = FederationConfig::new(3).with_seed(6);
        let params = GwasParams::secure_genome_defaults();
        let plain = run_federation(config, params, &c, None, TIMEOUT).unwrap();
        let prefetch = run_federation_with(
            config,
            params,
            &c,
            None,
            RuntimeOptions {
                timeout: TIMEOUT,
                prefetch_ld: true,
                ..RuntimeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.safe_snps, prefetch.safe_snps);
        assert_eq!(plain.l_double_prime, prefetch.l_double_prime);
        assert!(
            prefetch.traffic.messages < plain.traffic.messages,
            "prefetch {} vs per-pair {}",
            prefetch.traffic.messages,
            plain.traffic.messages
        );
    }

    #[test]
    fn all_optimizations_together_still_match_the_driver() {
        let c = cohort(100, 250);
        let config = FederationConfig::new(4)
            .with_collusion(CollusionMode::Fixed(1))
            .with_seed(3);
        let params = GwasParams::secure_genome_defaults();
        let optimized = run_federation_with(
            config,
            params,
            &c,
            None,
            RuntimeOptions {
                timeout: TIMEOUT,
                compact_lr: true,
                prefetch_ld: true,
                ..RuntimeOptions::default()
            },
        )
        .unwrap();
        let in_process = Federation::new(config, params, &c).run().unwrap();
        assert_eq!(optimized.safe_snps, in_process.safe_snps);
    }

    #[test]
    fn dense_mode_costs_the_leader_one_report_buffer_at_most() {
        // The leader holds LR rows as indicator bits in either mode; a
        // dense report's values are metered only while they are decoded.
        let c = cohort(150, 800);
        let config = FederationConfig::new(3).with_seed(2);
        let params = GwasParams::secure_genome_defaults();
        let dense = run_federation(config, params, &c, None, TIMEOUT).unwrap();
        let compact = run_federation_with(
            config,
            params,
            &c,
            None,
            RuntimeOptions {
                timeout: TIMEOUT,
                compact_lr: true,
                ..RuntimeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dense.safe_snps, compact.safe_snps);
        let peak = |r: &RuntimeReport| {
            r.resources
                .iter()
                .find(|m| m.id == r.leader)
                .unwrap()
                .peak_enclave_bytes
        };
        let rows = c.cohort().case_rows_among(3).iter().map(|r| r.len()).max();
        let buffer = 8 * (rows.unwrap() * dense.l_double_prime.len()) as u64;
        let (dense, compact) = (peak(&dense), peak(&compact));
        assert!(
            compact < dense && dense <= compact + buffer,
            "dense leader peak {dense}, compact {compact}, largest report buffer {buffer}"
        );
    }

    #[test]
    fn crashed_member_aborts_with_unresponsive_error() {
        // The paper's no-liveness abort.
        let c = cohort(60, 80);
        let mut faults = FaultPlan::none();
        faults.crash(2);
        let err = run_federation(
            FederationConfig::new(3),
            GwasParams::secure_genome_defaults(),
            &c,
            Some(faults),
            Duration::from_millis(400),
        )
        .unwrap_err();
        assert!(
            matches!(err, ProtocolError::MemberUnresponsive { .. }),
            "{err:?}"
        );
    }

    /// A frame head (epoch, sequence number) and body tag followed by
    /// `body`, as raw bytes: the retired kinds have no `FrameBody` left.
    fn raw_frame(epoch: u64, seq: u64, tag: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = [epoch.to_le_bytes(), seq.to_le_bytes()].concat();
        bytes.push(tag);
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn an_unsealed_view_change_cannot_force_an_epoch_or_roster() {
        // Member 2 never runs the protocol: it sends members 0 and 1 one
        // hand-made view-change frame (tag 6, now retired) or, in the
        // control, nothing. Whatever it claims must end both runs exactly
        // as its silence does.
        let c = cohort(40, 60);
        let config = FederationConfig::new(3).with_seed(8);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            timeout: Duration::from_millis(1_500),
            ..RuntimeOptions::default()
        };
        let forged: [Option<(u64, Vec<u32>)>; 4] = [
            None,
            Some((u64::MAX, vec![0, 1])),
            Some((2, vec![0, 0, 1])),
            Some((2, vec![0, 1])),
        ];
        let runs: Vec<_> = forged
            .into_iter()
            .map(|frame| {
                let network = Network::new();
                let [a, b, rogue] = [0, 1, 2].map(|id| network.register(PeerId(id)));
                if let Some((epoch, roster)) = &frame {
                    let forged = raw_frame(*epoch, 0, 6, &wire::to_bytes(roster));
                    for to in [0, 1] {
                        rogue.send(PeerId(to), forged.clone(), 0).unwrap();
                    }
                }
                let (done, results) = std::sync::mpsc::channel();
                let shards = c.split_case_among(3);
                for (id, (endpoint, shard)) in [a, b].into_iter().zip(shards).enumerate() {
                    let (done, reference) = (done.clone(), c.reference().clone());
                    std::thread::spawn(move || {
                        let outcome =
                            run_member(endpoint, id, &config, &params, options, shard, &reference);
                        let _ = done.send(outcome.map(|o| o.leader));
                    });
                }
                (frame, results, rogue)
            })
            .collect();
        for (frame, results, _rogue) in runs {
            for _ in 0..2 {
                let outcome = results
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|e| panic!("{frame:?}: a member hung or panicked ({e})"));
                assert_eq!(
                    outcome.unwrap_err(),
                    ProtocolError::MemberUnresponsive {
                        member: 2,
                        phase: "election-commit"
                    },
                    "{frame:?}"
                );
            }
        }
    }

    #[test]
    fn frames_from_a_sender_outside_the_roster_are_dropped() {
        // A peer the federation does not have, `PeerId(g + 3)`, sprays
        // every member with well-formed in-sequence frames of each kind
        // and with garbage, before the run and all through it. Its frames
        // have no link to land on: the run must release and certify what
        // a clean run does.
        let c = cohort(60, 80);
        let g = 3;
        let config = FederationConfig::new(g)
            .with_collusion(CollusionMode::Fixed(1))
            .with_seed(8);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            timeout: TIMEOUT,
            ..RuntimeOptions::default()
        };
        let clean = run_federation_with(config, params, &c, None, options).unwrap();

        let network = Network::new();
        let members: Vec<Endpoint> = (0..g)
            .map(|id| network.register(PeerId(id as u32)))
            .collect();
        let rogue = network.register(PeerId(g as u32 + 3));
        let spray = move |seq: u64| {
            // Tags 4–6 (a probe, its answer, a view change) are retired.
            let frame = |body| Frame {
                epoch: 1,
                seq,
                body,
            };
            let bytes = match seq % 6 {
                0 => raw_frame(1, seq, 4, &[]),
                1 => frame(FrameBody::Commit([7; 32])).into_wire(),
                2 => frame(FrameBody::Handshake([9; 128])).into_wire(),
                3 => raw_frame(1, seq, 6, &wire::to_bytes(&vec![0u32, 1])),
                4 => raw_frame(1, seq, 5, &[]),
                _ => frame(FrameBody::Sealed(Sealed(vec![0xa5; SEALED_HEAD + 40]))).into_wire(),
            };
            let mut sent = 0;
            for to in 0..g as u32 {
                let garbage = vec![seq as u8; 5 + seq as usize % 30];
                sent += usize::from(rogue.send(PeerId(to), bytes.clone(), 0).is_ok());
                sent += usize::from(rogue.send(PeerId(to), garbage, 0).is_ok());
            }
            sent
        };
        for seq in 0..12 {
            spray(seq);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sprayer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seq = 12;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) && spray(seq) > 0 {
                    seq += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                seq
            })
        };
        let sprayed = run_federation_over(members, config, params, &c, options);
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(
            sprayer.join().unwrap() > 12,
            "the rogue sprays during the run"
        );
        let sprayed = sprayed.expect("a rogue sender cannot fail the run");
        assert_eq!(sprayed.safe_snps, clean.safe_snps);
        assert_eq!(sprayed.l_double_prime, clean.l_double_prime);
        assert_eq!(
            sprayed.certificate.fingerprint(),
            clean.certificate.fingerprint()
        );
    }

    /// The element-by-element `Vec<u8>` codec sealed bodies went through
    /// before they were copied as one slice (or not at all), kept as the
    /// oracle for the frame bytes.
    #[derive(Debug, Clone, PartialEq)]
    struct Byte(u8);

    impl Encode for Byte {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
    }

    impl Decode for Byte {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Self(u8::from_le_bytes([r.take(1)?[0]])))
        }
    }

    /// A sealed frame on the oracle codec.
    #[derive(Debug, Clone, PartialEq)]
    struct OracleSealedFrame {
        epoch: u64,
        seq: u64,
        tag: u8,
        sealed: Vec<Byte>,
    }
    gendpr_fednet::wire_struct!(OracleSealedFrame {
        epoch,
        seq,
        tag,
        sealed
    });

    fn sealed_frame(epoch: u64, seq: u64, ciphertext: &[u8]) -> Frame {
        let mut buf = vec![0u8; SEALED_HEAD];
        buf.extend_from_slice(ciphertext);
        Frame {
            epoch,
            seq,
            body: FrameBody::Sealed(Sealed(buf)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sealed_frames_built_in_place_are_the_codecs_bytes_and_decode_like_the_oracle(
            epoch in any::<u64>(),
            seq in any::<u64>(),
            ciphertext in proptest::collection::vec(any::<u8>(), 0..400),
            claimed in any::<u64>(),
        ) {
            let frame = sealed_frame(epoch, seq, &ciphertext);
            let oracle = OracleSealedFrame {
                epoch,
                seq,
                tag: SEALED_TAG,
                sealed: ciphertext.iter().copied().map(Byte).collect(),
            };
            let bytes = frame.clone().into_wire();
            prop_assert_eq!(&bytes, &wire::to_bytes(&frame));
            prop_assert_eq!(&bytes, &wire::to_bytes(&oracle));
            prop_assert_eq!(Frame::from_wire(bytes.clone()).unwrap(), frame);
            let verdicts = |bytes: &[u8]| {
                let ours = Frame::from_wire(bytes.to_vec()).map(|f| {
                    let FrameBody::Sealed(s) = f.body else { unreachable!("sealed tag") };
                    s.bytes().to_vec()
                });
                let oracle = wire::from_bytes::<OracleSealedFrame>(bytes)
                    .map(|f| f.sealed.into_iter().map(|b| b.0).collect::<Vec<u8>>());
                (ours, oracle)
            };
            for cut in 0..bytes.len() {
                let (ours, oracle) = verdicts(&bytes[..cut]);
                prop_assert!(ours.is_err());
                prop_assert_eq!(ours, oracle, "cut at {}", cut);
            }
            let len = ciphertext.len() as u64;
            for prefix in [len + 1, len.saturating_sub(1), claimed, u64::MAX] {
                let mut forged = bytes.clone();
                forged[17..SEALED_HEAD].copy_from_slice(&prefix.to_le_bytes());
                let (ours, oracle) = verdicts(&forged);
                prop_assert_eq!(ours, oracle, "prefix {}", prefix);
            }
        }
    }

    #[test]
    fn unsealed_frames_round_trip_through_the_wire_helpers() {
        let bodies = [
            FrameBody::Commit([1; 32]),
            FrameBody::Reveal([2; 32]),
            FrameBody::Handshake([3; 128]),
        ];
        for body in bodies {
            let frame = Frame {
                epoch: 2,
                seq: 9,
                body,
            };
            let bytes = frame.clone().into_wire();
            assert_eq!(bytes, wire::to_bytes(&frame));
            assert_eq!(Frame::from_wire(bytes.clone()).unwrap(), frame);
            let mut trailing = bytes;
            trailing.push(0);
            assert_eq!(
                Frame::from_wire(trailing).unwrap_err(),
                WireError::TrailingBytes(1)
            );
        }
        // Tags 4–6 are retired and 7 was never used: none decodes.
        for tag in 4..=7 {
            assert_eq!(
                Frame::from_wire(raw_frame(1, 0, tag, &[])).unwrap_err(),
                WireError::InvalidValue("Frame tag")
            );
        }
    }

    #[test]
    fn both_drivers_refuse_the_same_malformed_deployments() {
        // One deployment check sits in front of the one-shot run and the
        // service session: each malformed deployment below is refused by
        // both, before any member runs, with the same error.
        let synthetic = cohort(20, 30);
        let c: &Cohort = synthetic.as_ref();
        let no_reference = Cohort::new(
            c.panel().clone(),
            c.case().clone(),
            GenotypeMatrix::zeroed(0, c.panel().len()),
        )
        .unwrap();
        let no_cases = Cohort::new(
            c.panel().clone(),
            GenotypeMatrix::zeroed(0, c.panel().len()),
            c.reference().clone(),
        )
        .unwrap();
        let config = FederationConfig::new(3);
        let params = GwasParams::secure_genome_defaults();
        let colluders = config.with_collusion(CollusionMode::Fixed(3));
        let bad_maf = GwasParams {
            maf_cutoff: 0.7,
            ..params
        };
        let options = RuntimeOptions {
            timeout: Duration::from_secs(2),
            ..RuntimeOptions::default()
        };
        let refusal = |ids: &[u32], config, params, cohort: &Cohort| {
            let transports = || {
                let network = Network::new();
                let endpoints: Vec<Endpoint> =
                    ids.iter().map(|&id| network.register(PeerId(id))).collect();
                endpoints
            };
            let one_shot = run_federation_over(transports(), config, params, cohort, options);
            let session = crate::serving::ServiceFederation::start_over(
                transports(),
                config,
                params,
                cohort,
                options,
            );
            let one_shot = one_shot.unwrap_err();
            assert_eq!(session.err().as_ref(), Some(&one_shot), "members {ids:?}");
            one_shot
        };
        let too_few = refusal(&[0, 1], config, params, c);
        assert!(
            matches!(too_few, ProtocolError::InvalidConfig(_)),
            "{too_few:?}"
        );
        assert_eq!(refusal(&[0, 1, 2, 3], config, params, c), too_few);
        let out_of_order = refusal(&[0, 2, 1], config, params, c);
        assert!(matches!(out_of_order, ProtocolError::InvalidConfig(_)));
        assert_ne!(out_of_order, too_few);
        assert_eq!(
            refusal(&[0, 1, 2], config, params, &no_reference),
            ProtocolError::EmptyStudy
        );
        assert_eq!(
            refusal(&[0, 1, 2], config, params, &no_cases),
            ProtocolError::EmptyStudy
        );
        let invalid = ProtocolError::InvalidConfig;
        assert_eq!(
            refusal(&[0, 1, 2], colluders, params, c),
            invalid(colluders.validate().unwrap_err())
        );
        assert_eq!(
            refusal(&[0, 1, 2], config, bad_maf, c),
            invalid(bad_maf.validate().unwrap_err())
        );
    }

    #[test]
    fn traffic_scales_with_snps_not_genomes() {
        let cohort = |snps| {
            SyntheticCohort::builder()
                .snps(snps)
                .case_individuals(400)
                .reference_individuals(400)
                .seed(5)
                .build()
        };
        let (small, big_snps) = (cohort(100), cohort(200));
        let params = GwasParams::secure_genome_defaults();
        let traffic = |c: &SyntheticCohort| {
            run_federation(FederationConfig::new(3), params, c, None, TIMEOUT)
                .unwrap()
                .traffic
        };
        let (t_small, t_big) = (traffic(&small), traffic(&big_snps));
        assert!(t_big.plaintext_bytes > t_small.plaintext_bytes);
        assert!(t_big.wire_bytes > t_big.plaintext_bytes);
        // No genome sequences: traffic stays far below shipping genotypes.
        let genome_bytes = 400 * 100 / 4; // 2 bits per SNP per genome
        assert!(t_small.plaintext_bytes < 100 * genome_bytes);
    }

    #[test]
    fn two_member_federation_works() {
        let c = cohort(80, 100);
        let report = run_federation(
            FederationConfig::new(2).with_seed(1),
            GwasParams::secure_genome_defaults(),
            &c,
            None,
            TIMEOUT,
        )
        .unwrap();
        assert!(report.leader < 2);
        assert!(!report.l_prime.is_empty());
    }
}
