//! Federation transports.
//!
//! The [`Transport`] trait is the runtime's only view of the network: a
//! peer identity, blocking point-to-point send/receive with deadlines, and
//! per-link traffic accounting. Two implementations exist:
//!
//! * [`Network`]/[`Endpoint`] (this module) — reliable, in-order,
//!   in-memory delivery, for single-process deployments and benchmarks.
//!   Each endpoint's inbox is a queue plus a condvar: a send decides
//!   faults and meters traffic under the fabric's lock, then enqueues and
//!   wakes the receiver after releasing it, and a burst
//!   ([`Transport::send_all`]) enqueues every frame before it wakes each
//!   destination once; an endpoint serving a [`Handler`] is not woken, the
//!   sender's thread runs it ([`Endpoint::serve`]). Inboxes are found by
//!   peer index, the routing scratch is the sending endpoint's and kept,
//!   and a receive that finds a frame queued reads no clock, so a frame in
//!   steady state costs no allocation, hash or clock read of the fabric's;
//! * [`crate::tcp::TcpTransport`] — length-prefixed frames over real TCP
//!   sockets, for multi-process deployments (`gendpr node`).
//!
//! Everything a transport carries is already enclave-encrypted by the TEE
//! layer; the transport stays oblivious to plaintext.

use crate::fault::FaultPlan;
use crate::metrics::{TrafficMatrix, TrafficStats};
use crate::telemetry::FrameTally;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Identifies a federation endpoint (GDO index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub from: PeerId,
    /// Receiver.
    pub to: PeerId,
    /// Opaque (typically enclave-encrypted) payload.
    pub payload: Vec<u8>,
    /// Plaintext size declared by the sender, for metrics only.
    pub plaintext_len: usize,
}

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// Destination was never registered.
    UnknownPeer(PeerId),
    /// The message was dropped by the fault plan (crash/partition), or the
    /// connection carrying it died mid-transfer.
    Dropped,
    /// A deadline elapsed — either a receive wait or a connection attempt.
    /// In GenDPR this is how a member's non-responsiveness surfaces (the
    /// paper makes no liveness guarantee).
    Timeout,
    /// The endpoint's queue was disconnected.
    Disconnected,
    /// The message exceeds the transport's maximum frame size.
    FrameTooLarge(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            Self::Dropped => f.write_str("message dropped by fault plan or dead connection"),
            Self::Timeout => f.write_str("deadline elapsed"),
            Self::Disconnected => f.write_str("endpoint disconnected"),
            Self::FrameTooLarge(n) => write!(f, "{n}-byte message exceeds the frame size limit"),
        }
    }
}

impl Error for NetError {}

/// One frame of a burst: the destination, the payload and its plaintext
/// size — the arguments of [`Transport::send`].
pub type Outgoing = (PeerId, Vec<u8>, usize);

/// Silent probe intervals before a [`Patience`] gives its peer up.
pub const SUSPECT_AFTER: u32 = 3;

/// Why a [`Patience`] wait found nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Silence {
    /// A silent probe interval; the wait goes on.
    Probe,
    /// The peer is given up on.
    Timeout,
}

/// A wait for one peer in probe intervals of `timeout /` [`SUSPECT_AFTER`],
/// given up after that many silent ones or `timeout`, counted afresh when
/// the peer's `heard` count grows: a peer busy waiting on someone else is
/// not given up on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Patience {
    timeout: Duration,
    heard: u64,
    deadline: Option<Instant>,
    misses: u32,
}

impl Patience {
    /// A wait of `timeout`, not started yet.
    #[must_use]
    pub fn new(timeout: Duration) -> Self {
        Self {
            timeout,
            ..Self::default()
        }
    }

    /// Runs `wait` for up to one probe interval (its `None`: silence).
    ///
    /// # Errors
    ///
    /// [`Silence`] when `wait` found nothing.
    pub fn wait<R>(
        &mut self,
        heard: u64,
        wait: impl FnOnce(Duration) -> Option<R>,
    ) -> Result<R, Silence> {
        if heard != self.heard {
            *self = Self {
                heard,
                ..Self::new(self.timeout)
            };
        }
        let now = Instant::now();
        let deadline = *self.deadline.get_or_insert(now + self.timeout);
        let remaining = deadline
            .checked_duration_since(now)
            .ok_or(Silence::Timeout)?;
        if let Some(found) = wait((self.timeout / SUSPECT_AFTER).min(remaining)) {
            return Ok(found);
        }
        self.misses += 1;
        Err(match self.misses {
            SUSPECT_AFTER.. => Silence::Timeout,
            _ => Silence::Probe,
        })
    }
}

/// A receiver without I/O: it takes each frame delivered to it, puts its
/// replies in `out` and never waits; [`Transport::serve`] drives it.
pub trait Handler: Send + 'static {
    /// What it reports when it is done.
    type Done: Send + 'static;
    /// What it reports when it fails.
    type Error: Send + 'static;

    /// Takes one frame; the replies in `out` go out after the call. An
    /// outcome ends the serve.
    ///
    /// # Errors
    ///
    /// `Self::Error`, which ends the serve.
    fn on_frame(
        &mut self,
        from: PeerId,
        payload: Vec<u8>,
        out: &mut Vec<Outgoing>,
    ) -> Result<Option<Self::Done>, Self::Error>;

    /// Frames taken from the awaited peer so far ([`Patience`]).
    fn heard(&self) -> u64;
}

/// The handler and its outcome (`None`: its [`Patience`] ran out).
pub type Served<H> = (
    H,
    Option<Result<<H as Handler>::Done, <H as Handler>::Error>>,
);

/// What the GenDPR runtime requires of a federation network: a fixed peer
/// identity, blocking deadline-bounded point-to-point messaging, fault
/// injection, and per-link traffic accounting.
///
/// Semantics every implementation must honour:
///
/// * messages between a fixed `(sender, receiver)` pair are delivered in
///   send order (cross-pair ordering is unspecified);
/// * [`Transport::send`] returns [`NetError::Dropped`] when the fault plan
///   swallows the message or the link died — the sender treats that as
///   best-effort delivery and lets the silence surface at the receiver;
/// * [`Transport::recv_timeout`] returns [`NetError::Timeout`] once the
///   deadline elapses with nothing delivered;
/// * [`Transport::send_all`] is a batch of sends, never a postponement:
///   when it returns, every frame is as delivered as `send` would have
///   left it;
/// * traffic counters report bytes as they appear on this transport's
///   medium (for TCP, framing included).
pub trait Transport: Send {
    /// This endpoint's peer id.
    fn id(&self) -> PeerId;

    /// Sends `payload` to `to`; `plaintext_len` is the pre-encryption size,
    /// recorded for bandwidth accounting.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownPeer`], [`NetError::Dropped`],
    /// [`NetError::Timeout`] (connection deadline) or
    /// [`NetError::FrameTooLarge`].
    fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError>;

    /// Sends a burst — a fan-out such as one request to every member —
    /// and reports each frame's [`Transport::send`] result to `result`, in
    /// order. The burst is drained from `frames`, which keeps its capacity
    /// for the caller's next one.
    ///
    /// The contract is that of calling `send` on each frame in turn: every
    /// frame is attempted whatever became of the ones before it, per-pair
    /// order holds within the burst and against earlier sends, and no
    /// frame is held past the call. An implementation may only batch the
    /// hand-over: the in-memory [`Network`] enqueues the whole burst before
    /// it wakes each destination once, so a receiver woken first cannot
    /// preempt the sender before the rest are queued. A wake deferred
    /// beyond the call (say, to the sender's next receive) would stall any
    /// receiver whose sender goes idle on something else. The default
    /// sends one frame after another, which is what TCP does.
    fn send_all(&self, frames: &mut Vec<Outgoing>, result: &mut dyn FnMut(Result<(), NetError>)) {
        for (to, payload, plaintext_len) in frames.drain(..) {
            result(self.send(to, payload, plaintext_len));
        }
    }

    /// Blocks for the next message up to `timeout`. A message already
    /// delivered is returned at once.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] or [`NetError::Disconnected`].
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError>;

    /// A message that has already been delivered, or `None`; never waits.
    /// It lets a receiver that just woke answer everything that queued up
    /// meanwhile in one burst. `None` is always correct: the default
    /// (which TCP keeps) reports nothing, and the caller falls back to
    /// [`Transport::recv_timeout`].
    fn try_recv(&self) -> Option<Envelope> {
        None
    }

    /// Hands `handler` what this endpoint receives and sends its replies
    /// until it reports an outcome or [`Patience`] runs out. The default
    /// (TCP's) loops on this thread, taking what is already delivered
    /// ([`Transport::try_recv`]) and sending the replies as one burst.
    fn serve<H: Handler>(&self, mut handler: H, timeout: Duration) -> Served<H>
    where
        Self: Sized,
    {
        let (mut patience, mut out) = (Patience::new(timeout), Vec::new());
        loop {
            let mut outcome = match patience.wait(handler.heard(), |t| self.recv_timeout(t).ok()) {
                Ok(env) => handler.on_frame(env.from, env.payload, &mut out),
                Err(Silence::Probe) => continue,
                Err(Silence::Timeout) => return (handler, None),
            };
            while matches!(outcome, Ok(None)) {
                let Some(env) = self.try_recv() else { break };
                outcome = handler.on_frame(env.from, env.payload, &mut out);
            }
            self.send_all(&mut out, &mut |_| {});
            if let Some(outcome) = outcome.transpose() {
                return (handler, Some(outcome));
            }
        }
    }

    /// Installs a fault plan evaluated on every send (replacing any
    /// previous one).
    fn set_faults(&self, faults: FaultPlan);

    /// Traffic sent by this endpoint to `to`.
    fn link_stats(&self, to: PeerId) -> TrafficStats;

    /// Everything sent by this endpoint.
    fn egress_stats(&self) -> TrafficStats;

    /// Everything received by this endpoint.
    fn ingress_stats(&self) -> TrafficStats;
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One endpoint's inbox: the frames delivered to it and a condvar its
/// owner sleeps on while there are none, or the handler it serves.
/// Enqueueing and waking are separate steps, so a burst fills every inbox
/// before any receiver runs. Lock order: a handler's, the fabric's, a
/// queue's; a handler's sends are only queued, so none nests.
#[derive(Debug, Default)]
struct Inbox {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Set when the owning endpoint is dropped: later sends to it fail
    /// with [`NetError::Disconnected`].
    closed: AtomicBool,
    /// The handler [`Endpoint::serve`] installed, locked while it runs.
    handler: Mutex<Option<Box<dyn Inline>>>,
}

#[derive(Debug, Default)]
struct Queue {
    frames: VecDeque<Envelope>,
    /// The owner is blocked on `ready`; a wake that finds nobody asleep
    /// has nothing to notify.
    asleep: bool,
    /// A handler is installed and not done: deliveries go to it.
    inline: bool,
}

impl Inbox {
    /// Hands `env` to the running handler if `inline` allows, else queues
    /// it after `queueing` (under the queue's lock); `Some(asleep)` if it
    /// was queued, with whether the owner sleeps.
    fn deliver(&self, env: Envelope, inline: bool, queueing: impl FnOnce()) -> Option<bool> {
        if inline && lock(&self.queue).inline {
            if let Some(handler) = lock(&self.handler).as_deref_mut() {
                if !handler.finished() {
                    self.feed(handler, Some(env));
                    return None;
                }
            }
        }
        let mut queue = lock(&self.queue);
        queueing();
        queue.frames.push_back(env);
        Some(queue.asleep)
    }

    /// Hands an unfinished `handler` the queued frames, then `env`, and
    /// sends its replies as one burst; once it is done the rest stays
    /// queued and its owner is woken.
    fn feed(&self, handler: &mut dyn Inline, mut env: Option<Envelope>) {
        let queued = std::iter::from_fn(|| lock(&self.queue).frames.pop_front());
        for next in queued.chain(std::iter::from_fn(|| env.take())) {
            handler.hand(next);
            if handler.finished() {
                break;
            }
        }
        handler.flush();
        if handler.finished() {
            let mut queue = lock(&self.queue);
            queue.inline = false;
            queue.frames.extend(env);
            if queue.asleep {
                self.ready.notify_one();
            }
        }
    }

    fn try_pop(&self) -> Option<Envelope> {
        lock(&self.queue).frames.pop_front()
    }

    /// What `found` takes from the queue, waiting for it up to `timeout`
    /// (forever if none). A queue that has it already is read without the
    /// clock; the deadline is fixed on the first wait.
    fn wait<R>(
        &self,
        timeout: Option<Duration>,
        mut found: impl FnMut(&mut Queue) -> Option<R>,
    ) -> Result<R, NetError> {
        let mut queue = lock(&self.queue);
        let mut deadline = None;
        loop {
            if let Some(found) = found(&mut queue) {
                return Ok(found);
            }
            queue.asleep = true;
            queue = match timeout {
                None => self
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(timeout) => {
                    let now = Instant::now();
                    let deadline = *deadline.get_or_insert_with(|| now + timeout);
                    let Some(left) = deadline
                        .checked_duration_since(now)
                        .filter(|left| !left.is_zero())
                    else {
                        queue.asleep = false;
                        return Err(NetError::Timeout);
                    };
                    self.ready
                        .wait_timeout(queue, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            queue.asleep = false;
        }
    }
}

/// An installed [`Handler`], behind the type it was installed as; its
/// replies wait for [`Inline::flush`].
trait Inline: Any + Send {
    fn hand(&mut self, env: Envelope);
    fn flush(&mut self);
    fn finished(&self) -> bool;
    fn heard(&self) -> u64;
}

impl fmt::Debug for dyn Inline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Inline")
    }
}

/// A served handler, with its endpoint's id and network and a routing
/// scratch of its own for its replies.
struct Installed<H: Handler> {
    handler: H,
    outcome: Option<Result<H::Done, H::Error>>,
    id: PeerId,
    network: Network,
    out: Vec<Outgoing>,
    handover: Handover,
}

impl<H: Handler> Inline for Installed<H> {
    fn hand(&mut self, env: Envelope) {
        let outcome = self.handler.on_frame(env.from, env.payload, &mut self.out);
        self.outcome = outcome.transpose();
    }

    fn flush(&mut self) {
        if !self.out.is_empty() {
            // Queued, never handed inline: one level deep.
            let frames = self.out.drain(..);
            self.network
                .send(self.id, frames, &mut self.handover, |_| {}, false);
        }
    }

    fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    fn heard(&self) -> u64 {
        self.handler.heard()
    }
}

/// A frame held back by a reorder fault, due for delivery later.
#[derive(Debug)]
struct HeldFrame {
    env: Envelope,
    due: Instant,
}

#[derive(Debug, Default)]
struct NetworkState {
    /// Registered inboxes, by peer index.
    inboxes: Vec<Option<Arc<Inbox>>>,
    metrics: TrafficMatrix,
    faults: FaultPlan,
    held: Vec<HeldFrame>,
}

impl NetworkState {
    fn delays_possible(&self) -> bool {
        self.faults.has_chaos() || !self.held.is_empty()
    }

    fn inbox(&self, peer: PeerId) -> Option<&Arc<Inbox>> {
        self.inboxes.get(peer.0 as usize)?.as_ref()
    }
}

#[derive(Debug, Default)]
struct Fabric {
    state: Mutex<NetworkState>,
    /// Mirrors [`NetworkState::delays_possible`], so a receiver learns
    /// without the lock that there are no held frames to flush.
    delays: AtomicBool,
    /// Wakes issued (see [`Network::wakes`]).
    wakes: AtomicU64,
}

/// Frames routed under the fabric lock, handed over after it is released.
/// Each endpoint keeps one and reuses it: [`Handover::run`] leaves it
/// empty with its capacity.
#[derive(Debug, Default)]
struct Handover {
    /// `(destination slot, frame)` in routing order.
    frames: Vec<(usize, Envelope)>,
    /// Distinct destinations in order of first delivery, each with whether
    /// a frame was queued there and whether its owner was found asleep.
    destinations: Vec<(PeerId, Arc<Inbox>, bool, bool)>,
    /// The frames metered, for the global transport metrics.
    tally: FrameTally,
}

impl Handover {
    /// Meters `env` as delivered and queues it for `inbox` — unless the
    /// inbox's endpoint is gone, which the sender learns as
    /// [`NetError::Disconnected`] (the frame still counts as sent).
    fn deliver(
        &mut self,
        state: &mut NetworkState,
        inbox: Arc<Inbox>,
        env: Envelope,
    ) -> Result<(), NetError> {
        self.meter(state, &env);
        self.queue(inbox, env)
    }

    /// Counts `env` in the fabric's traffic. The in-memory fabric delivers
    /// synchronously, so one record is both the send and the receive for
    /// the global transport metrics.
    fn meter(&mut self, state: &mut NetworkState, env: &Envelope) {
        state
            .metrics
            .record(env.from.0, env.to.0, env.plaintext_len, env.payload.len());
        self.tally.count(env.payload.len());
    }

    /// Queues `env`, metered already, for `inbox`: see [`Self::deliver`].
    fn queue(&mut self, inbox: Arc<Inbox>, env: Envelope) -> Result<(), NetError> {
        if inbox.closed.load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        let slot = match self.destinations.iter().position(|d| d.0 == env.to) {
            Some(slot) => slot,
            None => {
                self.destinations.push((env.to, inbox, false, false));
                self.destinations.len() - 1
            }
        };
        self.frames.push((slot, env));
        Ok(())
    }

    /// Hands every frame over (to a running handler if `inline`, else
    /// queued), then wakes each destination whose owner sleeps, once. A
    /// destination's first queued frame counts its wake.
    fn run(&mut self, fabric: &Fabric, inline: bool) {
        for (slot, env) in self.frames.drain(..) {
            let (_, inbox, queued, asleep) = &mut self.destinations[slot];
            let first = !*queued;
            let queueing = || {
                if first {
                    fabric.wakes.fetch_add(1, Ordering::Relaxed);
                }
            };
            if let Some(was_asleep) = inbox.deliver(env, inline, queueing) {
                *queued = true;
                *asleep |= was_asleep;
            }
        }
        for (_, inbox, _, asleep) in self.destinations.drain(..) {
            if asleep {
                inbox.ready.notify_one();
            }
        }
        self.tally.fold();
    }
}

/// The federation's message fabric. Cheap to clone; all clones share state.
#[derive(Debug, Clone, Default)]
pub struct Network {
    fabric: Arc<Fabric>,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a peer and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered (a wiring bug).
    #[must_use]
    pub fn register(&self, id: PeerId) -> Endpoint {
        let inbox = Arc::new(Inbox::default());
        {
            let mut state = self.lock();
            let slot = id.0 as usize;
            if state.inboxes.len() <= slot {
                state.inboxes.resize(slot + 1, None);
            }
            let prev = state.inboxes[slot].replace(Arc::clone(&inbox));
            assert!(prev.is_none(), "peer {id} registered twice");
        }
        Endpoint {
            id,
            inbox,
            network: self.clone(),
            handover: RefCell::default(),
            _one_receiver: PhantomData,
        }
    }

    fn lock(&self) -> MutexGuard<'_, NetworkState> {
        lock(&self.fabric.state)
    }

    /// Installs a fault plan (replacing any previous one).
    pub fn set_faults(&self, faults: FaultPlan) {
        let mut state = self.lock();
        state.faults = faults;
        self.fabric
            .delays
            .store(state.delays_possible(), Ordering::SeqCst);
    }

    /// Snapshot of one directed link's traffic.
    #[must_use]
    pub fn link_stats(&self, from: PeerId, to: PeerId) -> TrafficStats {
        self.lock().metrics.link(from.0, to.0)
    }

    /// Snapshot of network-wide traffic.
    #[must_use]
    pub fn total_stats(&self) -> TrafficStats {
        self.lock().metrics.total()
    }

    /// Snapshot of everything received by `peer`.
    #[must_use]
    pub fn ingress_stats(&self, peer: PeerId) -> TrafficStats {
        self.lock().metrics.ingress(peer.0)
    }

    /// Snapshot of everything sent by `peer`.
    #[must_use]
    pub fn egress_stats(&self, peer: PeerId) -> TrafficStats {
        self.lock().metrics.egress(peer.0)
    }

    /// Wakes the fabric has issued so far: one per destination that a
    /// send, burst or flush of due held frames queued a frame for — the
    /// receiver context switches the fabric can cause. A wake is counted
    /// whether or not the receiver was asleep, so the count follows from
    /// how the senders grouped their frames into sends and bursts. Without
    /// chaos, frames sent one at a time make it equal to
    /// [`Network::total_stats`]' messages; bursts bring it below. A frame
    /// handed to a served handler ([`Endpoint::serve`]) is none; its
    /// replies are queued, a wake a batch. Burst sizes and whether a frame
    /// beats a handler's install can depend on timing, and so the count.
    #[must_use]
    pub fn wakes(&self) -> u64 {
        self.fabric.wakes.load(Ordering::Relaxed)
    }

    /// Sends `frames` from `from` as one burst: fault decisions, inbox
    /// lookups and metering under the lock, then every frame handed over
    /// ([`Handover::run`]) after the lock is released.
    fn send(
        &self,
        from: PeerId,
        frames: impl IntoIterator<Item = Outgoing>,
        handover: &mut Handover,
        mut result: impl FnMut(Result<(), NetError>),
        inline: bool,
    ) {
        {
            let mut state = self.lock();
            Self::take_due(&mut state, handover);
            for (to, payload, plaintext_len) in frames {
                let env = Envelope {
                    from,
                    to,
                    payload,
                    plaintext_len,
                };
                result(Self::route(&mut state, env, handover));
            }
            self.fabric
                .delays
                .store(state.delays_possible(), Ordering::SeqCst);
        }
        handover.run(&self.fabric, inline);
    }

    /// Applies the fault plan to one frame: dropped, held for later, or
    /// queued on `handover` (after any duplicates). A held frame is metered
    /// here, when it is sent: counted at delivery, one still held when
    /// every endpoint stopped polling would be missing from the run's
    /// traffic, which would then depend on timing rather than on the seed.
    fn route(
        state: &mut NetworkState,
        env: Envelope,
        handover: &mut Handover,
    ) -> Result<(), NetError> {
        let decision = state.faults.decide(env.from.0, env.to.0);
        if !decision.deliver {
            return Err(NetError::Dropped);
        }
        let Some(inbox) = state.inbox(env.to).map(Arc::clone) else {
            return Err(NetError::UnknownPeer(env.to));
        };
        for _ in 0..decision.duplicates {
            let _ = handover.deliver(state, Arc::clone(&inbox), env.clone());
        }
        match decision.delay {
            Some(delay) => {
                handover.meter(state, &env);
                state.held.push(HeldFrame {
                    env,
                    due: Instant::now() + delay,
                });
                Ok(())
            }
            None => handover.deliver(state, inbox, env),
        }
    }

    /// Moves every held frame that is due onto `handover`, unmetered: it
    /// was metered when it was held.
    fn take_due(state: &mut NetworkState, handover: &mut Handover) {
        if state.held.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < state.held.len() {
            if state.held[i].due <= now {
                let env = state.held.swap_remove(i).env;
                if let Some(inbox) = state.inbox(env.to).map(Arc::clone) {
                    let _ = handover.queue(inbox, env);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Delivers every held frame that is due and reports whether delayed
    /// deliveries are possible at all (chaos active or frames still held),
    /// so receivers know to poll instead of blocking for the full deadline.
    /// Without chaos this reads one flag and takes no lock.
    fn poll_pending(&self, handover: &mut Handover) -> bool {
        if !self.fabric.delays.load(Ordering::SeqCst) {
            return false;
        }
        let possible = {
            let mut state = self.lock();
            Self::take_due(&mut state, handover);
            let possible = state.delays_possible();
            self.fabric.delays.store(possible, Ordering::SeqCst);
            possible
        };
        handover.run(&self.fabric, true);
        possible
    }
}

/// One peer's handle on the network.
#[derive(Debug)]
pub struct Endpoint {
    id: PeerId,
    inbox: Arc<Inbox>,
    network: Network,
    /// The routing scratch of this endpoint's sends and flushes.
    handover: RefCell<Handover>,
    /// `Send` but not `Sync`, like the channel receiver it replaced: an
    /// inbox has one receiver, the one its `asleep` flag describes.
    _one_receiver: PhantomData<Cell<()>>,
}

impl Endpoint {
    /// This endpoint's id.
    #[must_use]
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Sends `payload` to `to`. `plaintext_len` is the pre-encryption size,
    /// recorded for bandwidth accounting.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownPeer`] or [`NetError::Dropped`].
    pub fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
        let mut out = Ok(());
        self.network.send(
            self.id,
            [(to, payload, plaintext_len)],
            &mut self.handover.borrow_mut(),
            |r| out = r,
            true,
        );
        out
    }

    /// Sends a burst ([`Transport::send_all`]): every frame is enqueued
    /// before any destination is woken, and each destination is woken once.
    pub fn send_all(
        &self,
        frames: &mut Vec<Outgoing>,
        result: &mut dyn FnMut(Result<(), NetError>),
    ) {
        self.network.send(
            self.id,
            frames.drain(..),
            &mut self.handover.borrow_mut(),
            result,
            true,
        );
    }

    /// Blocks for the next message.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the network was torn down.
    pub fn recv(&self) -> Result<Envelope, NetError> {
        self.inbox.wait(None, |queue| queue.frames.pop_front())
    }

    /// Blocks for the next message up to `timeout`; a queued frame comes
    /// back without a clock read. While reorder chaos is active the wait
    /// is sliced so frames held by the fault plan are flushed to their
    /// inboxes as they come due, and they are flushed before any frame is
    /// taken.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] or [`NetError::Disconnected`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.sliced(timeout, |queue| queue.frames.pop_front())
    }

    /// Waits up to `timeout` for `found` to take something from the inbox;
    /// while chaos may hold frames the wait is sliced so they are flushed
    /// as they come due (and before `found` first looks).
    fn sliced<R>(
        &self,
        timeout: Duration,
        mut found: impl FnMut(&mut Queue) -> Option<R>,
    ) -> Result<R, NetError> {
        if !self.poll_pending() {
            return self.inbox.wait(Some(timeout), found);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let slice = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(1));
            match self.inbox.wait(Some(slice), &mut found) {
                Err(NetError::Timeout) if Instant::now() < deadline => {}
                received => return received,
            }
            if !self.poll_pending() {
                let left = deadline.saturating_duration_since(Instant::now());
                return self.inbox.wait(Some(left), found);
            }
        }
    }

    /// [`Transport::serve`] on the fabric: the handler is installed on the
    /// inbox and handed the frames already queued, then run by whatever
    /// thread delivers a frame here (a sender, or a flush of held chaos
    /// frames); this one sleeps until it is done, frames are queued past
    /// it, or [`Patience`] runs out, flushing held frames meanwhile.
    pub fn serve<H: Handler>(&self, handler: H, timeout: Duration) -> Served<H> {
        let inbox = &*self.inbox;
        let installed = Box::new(Installed {
            handler,
            outcome: None,
            id: self.id,
            network: self.network.clone(),
            out: Vec::new(),
            handover: Handover::default(),
        });
        let mut slot = lock(&inbox.handler);
        lock(&inbox.queue).inline = true;
        inbox.feed(slot.insert(installed).as_mut(), None);
        drop(slot);
        let heard = || lock(&inbox.handler).as_ref().map_or(0, |h| h.heard());
        let woken = |queue: &mut Queue| (!queue.inline || !queue.frames.is_empty()).then_some(());
        let mut patience = Patience::new(timeout);
        loop {
            let before = heard();
            let woke = patience.wait(before, |slice| {
                let event = self.sliced(slice, woken);
                (event.is_ok() || heard() != before).then_some(())
            });
            if woke == Err(Silence::Timeout) {
                break;
            }
            let mut slot = lock(&inbox.handler);
            let installed = slot.as_deref_mut().expect("installed until the serve ends");
            if !installed.finished() {
                inbox.feed(installed, None);
            }
            if installed.finished() {
                break;
            }
        }
        lock(&inbox.queue).inline = false;
        let installed: Box<dyn Any> = lock(&inbox.handler).take().expect("installed above");
        let installed = installed
            .downcast::<Installed<H>>()
            .expect("installed as H");
        (installed.handler, installed.outcome)
    }

    /// [`Network::poll_pending`] with this endpoint's scratch.
    fn poll_pending(&self) -> bool {
        self.network.poll_pending(&mut self.handover.borrow_mut())
    }

    /// Non-blocking receive; `None` when the inbox is empty.
    #[must_use]
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_pop()
    }

    /// The network this endpoint belongs to.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.inbox.closed.store(true, Ordering::SeqCst);
    }
}

impl Transport for Endpoint {
    fn id(&self) -> PeerId {
        Endpoint::id(self)
    }

    fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
        Endpoint::send(self, to, payload, plaintext_len)
    }

    fn send_all(&self, frames: &mut Vec<Outgoing>, result: &mut dyn FnMut(Result<(), NetError>)) {
        Endpoint::send_all(self, frames, result);
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        Endpoint::try_recv(self)
    }

    fn serve<H: Handler>(&self, handler: H, timeout: Duration) -> Served<H> {
        Endpoint::serve(self, handler, timeout)
    }

    fn set_faults(&self, faults: FaultPlan) {
        self.network.set_faults(faults);
    }

    fn link_stats(&self, to: PeerId) -> TrafficStats {
        self.network.link_stats(self.id, to)
    }

    fn egress_stats(&self) -> TrafficStats {
        self.network.egress_stats(self.id)
    }

    fn ingress_stats(&self) -> TrafficStats {
        self.network.ingress_stats(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery_in_order() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        a.send(PeerId(1), vec![1], 1).unwrap();
        a.send(PeerId(1), vec![2], 1).unwrap();
        assert_eq!(b.recv().unwrap().payload, vec![1]);
        assert_eq!(b.recv().unwrap().payload, vec![2]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn unknown_peer_errors() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        assert_eq!(
            a.send(PeerId(9), vec![0], 1),
            Err(NetError::UnknownPeer(PeerId(9)))
        );
    }

    #[test]
    fn metrics_capture_sizes() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let _b = net.register(PeerId(1));
        a.send(PeerId(1), vec![0u8; 130], 100).unwrap();
        let link = net.link_stats(PeerId(0), PeerId(1));
        assert_eq!(link.messages, 1);
        assert_eq!(link.plaintext_bytes, 100);
        assert_eq!(link.wire_bytes, 130);
        assert_eq!(net.ingress_stats(PeerId(1)).wire_bytes, 130);
        assert_eq!(net.egress_stats(PeerId(0)).wire_bytes, 130);
        assert_eq!(net.total_stats().messages, 1);
    }

    #[test]
    fn fault_plan_drops() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let mut faults = FaultPlan::none();
        faults.crash(1);
        net.set_faults(faults);
        assert_eq!(a.send(PeerId(1), vec![1], 1), Err(NetError::Dropped));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
        // Dropped messages are not counted as delivered.
        assert_eq!(net.total_stats().messages, 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let handle = std::thread::spawn(move || {
            let env = b.recv().unwrap();
            assert_eq!(env.from, PeerId(0));
            env.payload
        });
        a.send(PeerId(1), b"hello enclave".to_vec(), 13).unwrap();
        assert_eq!(handle.join().unwrap(), b"hello enclave");
    }

    #[test]
    fn chaos_duplicates_and_delays_still_deliver_every_frame() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let mut faults = FaultPlan::none();
        faults.chaos(crate::fault::ChaosFaults {
            seed: 11,
            drop_rate: 0.0,
            duplicate_rate: 0.5,
            reorder_window_ms: 3,
        });
        net.set_faults(faults);
        let sent = 20u8;
        for i in 0..sent {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut copies = 0u32;
        while let Ok(env) = b.recv_timeout(Duration::from_millis(100)) {
            seen.insert(env.payload[0]);
            copies += 1;
            if seen.len() == usize::from(sent) && copies > u32::from(sent) {
                break;
            }
        }
        assert_eq!(seen.len(), usize::from(sent), "no frame may be lost");
        assert!(copies > u32::from(sent), "duplicates at 0.5 rate expected");
    }

    /// Spins until the owner of `inbox` is asleep on it.
    fn until_asleep(inbox: &Inbox) {
        while !lock(&inbox.queue).asleep {
            std::thread::yield_now();
        }
    }

    /// Sends `frames` as one burst and collects every frame's result.
    fn send_all(endpoint: &Endpoint, mut frames: Vec<Outgoing>) -> Vec<Result<(), NetError>> {
        let mut results = Vec::new();
        endpoint.send_all(&mut frames, &mut |r| results.push(r));
        assert!(frames.is_empty(), "a burst is drained");
        results
    }

    fn drain(endpoint: &Endpoint) -> Vec<u8> {
        std::iter::from_fn(|| endpoint.try_recv())
            .map(|env| env.payload[0])
            .collect()
    }

    #[test]
    fn a_burst_keeps_per_pair_order_across_interleaved_destinations() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let c = net.register(PeerId(2));
        a.send(PeerId(1), vec![100], 1).unwrap();
        let burst: Vec<Outgoing> = (0..12u8)
            .map(|i| (PeerId(1 + u32::from(i % 2)), vec![i], 1))
            .collect();
        assert!(send_all(&a, burst).iter().all(Result::is_ok));
        a.send(PeerId(1), vec![101], 1).unwrap();
        assert_eq!(drain(&b), [100, 0, 2, 4, 6, 8, 10, 101]);
        assert_eq!(drain(&c), [1, 3, 5, 7, 9, 11]);
        // One wake per destination per send or burst, not one per frame.
        assert_eq!(net.total_stats().messages, 14);
        assert_eq!(net.wakes(), 1 + 2 + 1);
    }

    #[test]
    fn a_burst_reports_every_frames_result_and_sends_past_failures() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let gone = net.register(PeerId(2));
        let _crashed = net.register(PeerId(3));
        drop(gone);
        let mut faults = FaultPlan::none();
        faults.crash(3);
        net.set_faults(faults);
        let results = send_all(
            &a,
            vec![
                (PeerId(1), vec![1], 1),
                (PeerId(9), vec![2], 1),
                (PeerId(3), vec![3], 1),
                (PeerId(2), vec![4], 1),
                (PeerId(1), vec![5], 1),
            ],
        );
        assert_eq!(
            results,
            [
                Ok(()),
                Err(NetError::UnknownPeer(PeerId(9))),
                Err(NetError::Dropped),
                Err(NetError::Disconnected),
                Ok(()),
            ]
        );
        assert_eq!(drain(&b), [1, 5]);
        // As with `send`: a frame to a dropped endpoint is metered, a
        // dropped or misaddressed one is not.
        assert_eq!(net.total_stats().messages, 3);
        assert_eq!(net.wakes(), 1);
    }

    #[test]
    fn a_receiver_blocked_in_recv_timeout_gets_a_burst_well_before_its_deadline() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let waiting: Vec<_> = (1..=2)
            .map(|id| {
                let endpoint = net.register(PeerId(id));
                let inbox = Arc::clone(&endpoint.inbox);
                let handle = std::thread::spawn(move || {
                    let started = Instant::now();
                    let env = endpoint.recv_timeout(Duration::from_secs(60));
                    (env.map(|e| e.payload), started.elapsed())
                });
                until_asleep(&inbox);
                handle
            })
            .collect();
        let results = send_all(&a, vec![(PeerId(1), vec![1], 1), (PeerId(2), vec![2], 1)]);
        assert!(results.iter().all(Result::is_ok));
        for (id, handle) in (1u8..).zip(waiting) {
            let (payload, waited) = handle.join().unwrap();
            assert_eq!(payload, Ok(vec![id]));
            assert!(waited < Duration::from_secs(10), "woken after {waited:?}");
        }
    }

    #[test]
    fn bursts_survive_chaos_held_frames_and_duplicates() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let c = net.register(PeerId(2));
        let mut faults = FaultPlan::none();
        faults.chaos(crate::fault::ChaosFaults {
            seed: 23,
            drop_rate: 0.0,
            duplicate_rate: 0.5,
            reorder_window_ms: 3,
        });
        net.set_faults(faults);
        for burst in 0..10u8 {
            let frames = (0..4u8)
                .map(|i| (PeerId(1 + u32::from(i % 2)), vec![burst * 4 + i], 1))
                .collect();
            assert!(send_all(&a, frames).iter().all(Result::is_ok));
        }
        for (receiver, parity) in [(&b, 0u8), (&c, 1u8)] {
            let expected: std::collections::HashSet<u8> =
                (0..40).filter(|v| v % 2 == parity).collect();
            let mut seen = std::collections::HashSet::new();
            let mut copies = 0;
            // Held frames come due while the receiver polls for them.
            while let Ok(env) = receiver.recv_timeout(Duration::from_millis(100)) {
                seen.insert(env.payload[0]);
                copies += 1;
            }
            assert_eq!(seen, expected, "no frame may be lost or misdelivered");
            assert!(copies > expected.len(), "duplicates at 0.5 rate expected");
        }
    }

    #[test]
    fn receive_calls_keep_their_semantics() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        assert!(b.try_recv().is_none());
        assert_eq!(b.recv_timeout(Duration::ZERO), Err(NetError::Timeout));
        let started = Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
        assert!(started.elapsed() >= Duration::from_millis(30));
        for i in 1..=4 {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        // A queued frame is returned even by a zero-length wait, and by a
        // long one without waiting.
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap().payload, [1]);
        let started = Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(60)).unwrap().payload,
            [2]
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waited for a queued frame"
        );
        assert_eq!(b.try_recv().unwrap().payload, [3]);
        assert_eq!(b.recv().unwrap().payload, [4]);
        assert!(b.try_recv().is_none());
        // A blocking `recv` is woken by a later send.
        let inbox = Arc::clone(&b.inbox);
        let receiver = std::thread::spawn(move || b.recv().map(|env| env.payload));
        until_asleep(&inbox);
        a.send(PeerId(1), vec![4], 1).unwrap();
        assert_eq!(receiver.join().unwrap(), Ok(vec![4]));
    }

    /// Sends one-byte frames to `to` until the fault plan holds one back,
    /// and returns it; every frame delivered meanwhile is left queued.
    fn send_until_held(from: &Endpoint, to: &Endpoint) -> u8 {
        for i in 0..=u8::MAX {
            let queued = lock(&to.inbox.queue).frames.len();
            from.send(to.id(), vec![i], 1).unwrap();
            if lock(&to.inbox.queue).frames.len() == queued {
                return i;
            }
        }
        panic!("the fault plan held no frame back");
    }

    #[test]
    fn a_frame_still_held_when_every_endpoint_stops_is_counted() {
        // A frame a fault plan holds back counts when it is sent: a run
        // that ends with one still held reads the traffic every run of the
        // seed reads, and delivering it later adds nothing.
        let mut runs = Vec::new();
        for _ in 0..3 {
            let net = Network::new();
            let a = net.register(PeerId(0));
            let b = net.register(PeerId(1));
            let mut faults = FaultPlan::none();
            faults.chaos(crate::fault::ChaosFaults {
                seed: 11,
                drop_rate: 0.0,
                duplicate_rate: 0.0,
                reorder_window_ms: 200,
            });
            net.set_faults(faults);
            let held = send_until_held(&a, &b);
            drain(&b);
            assert!(!lock(&net.fabric.state).held.is_empty());
            let at_stop = net.total_stats();
            assert_eq!(at_stop.messages, u64::from(held) + 1, "every frame sent");
            std::thread::sleep(Duration::from_millis(250));
            assert_eq!(b.recv_timeout(Duration::ZERO).unwrap().payload, [held]);
            assert_eq!(
                net.total_stats(),
                at_stop,
                "the delivery is not a second send"
            );
            runs.push(at_stop);
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }

    #[test]
    fn due_held_frames_are_flushed_before_a_receive_waits() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let mut faults = FaultPlan::none();
        faults.chaos(crate::fault::ChaosFaults {
            seed: 5,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_window_ms: 3,
        });
        net.set_faults(faults);
        for wait in [Duration::ZERO, Duration::from_secs(60)] {
            let held = send_until_held(&a, &b);
            drain(&b);
            // The held frame is due, but only a flush moves it to the
            // inbox: a receive that took the queue's word for it would time
            // out on the zero wait and sit out the long one.
            std::thread::sleep(Duration::from_millis(20));
            assert!(lock(&b.inbox.queue).frames.is_empty());
            let started = Instant::now();
            assert_eq!(b.recv_timeout(wait).unwrap().payload, [held], "{wait:?}");
            assert!(started.elapsed() < Duration::from_secs(5), "{wait:?}");
        }
    }

    /// The one-byte payload of a test handler's last frame.
    const FAIL: u8 = u8::MAX;

    /// A test [`Handler`]: answers frame `[i]` with `[i]` to `to` (back
    /// to its sender if `None`), in the order of `i` — frames that come
    /// early wait for the ones before them. It is done after `last` and
    /// fails at [`FAIL`]. Logs each frame handed to it, with the thread
    /// that ran it.
    struct Relay {
        to: Option<PeerId>,
        next: u8,
        last: u8,
        early: Vec<(u8, PeerId)>,
        log: Arc<Mutex<Vec<(u8, std::thread::ThreadId)>>>,
    }

    impl Relay {
        fn new(to: Option<PeerId>, last: u8) -> Self {
            Self {
                to,
                next: 0,
                last,
                early: Vec::new(),
                log: Arc::default(),
            }
        }
    }

    impl Handler for Relay {
        type Done = u8;
        type Error = u8;

        fn on_frame(
            &mut self,
            from: PeerId,
            payload: Vec<u8>,
            out: &mut Vec<Outgoing>,
        ) -> Result<Option<u8>, u8> {
            let i = payload[0];
            lock(&self.log).push((i, std::thread::current().id()));
            if i == FAIL {
                return Err(i);
            }
            if i >= self.next && self.early.iter().all(|e| e.0 != i) {
                self.early.push((i, from));
            }
            while let Some(at) = self.early.iter().position(|e| e.0 == self.next) {
                let (i, from) = self.early.swap_remove(at);
                out.push((self.to.unwrap_or(from), vec![i], 1));
                self.next += 1;
                if i == self.last {
                    return Ok(Some(i));
                }
            }
            Ok(None)
        }

        fn heard(&self) -> u64 {
            u64::from(self.next)
        }
    }

    type Finished = (Endpoint, Served<Relay>);

    /// Serves `relay` on `endpoint` from a thread of its own, returned
    /// once the handler is installed, with that thread's id.
    fn serve(
        endpoint: Endpoint,
        relay: Relay,
    ) -> (std::thread::JoinHandle<Finished>, std::thread::ThreadId) {
        let inbox = Arc::clone(&endpoint.inbox);
        let server = std::thread::spawn(move || {
            let served = endpoint.serve(relay, Duration::from_secs(30));
            (endpoint, served)
        });
        while !lock(&inbox.queue).inline {
            std::thread::yield_now();
        }
        let id = server.thread().id();
        (server, id)
    }

    #[test]
    fn frames_queued_before_install_reach_the_handler_first_in_order() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        for i in 0..5 {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        let relay = Relay::new(None, 9);
        let log = Arc::clone(&relay.log);
        let (server, b_thread) = serve(b, relay);
        for i in 5..10 {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        let (_, (_, outcome)) = server.join().unwrap();
        assert_eq!(outcome, Some(Ok(9)));
        assert_eq!(drain(&a), (0..10).collect::<Vec<u8>>());
        let log = lock(&log).clone();
        let handed: Vec<u8> = log.iter().map(|e| e.0).collect();
        assert_eq!(handed, (0..10).collect::<Vec<u8>>());
        // The backlog on the serving thread, the rest on the sender's.
        let a_thread = std::thread::current().id();
        assert!(log[..5].iter().all(|e| e.1 == b_thread));
        assert!(log[5..].iter().all(|e| e.1 == a_thread));
        // Handed frames are no wakes; the replies (one batch for the
        // backlog, then one each) are.
        assert_eq!(net.wakes(), 5 + 1 + 5);
    }

    #[test]
    fn a_handlers_sends_are_queued_not_nested() {
        // b relays to c, which answers a: both serve at once, and each
        // runs only where one level allows — b on a's thread, c on its
        // own, handed what b's handler queued for it.
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let c = net.register(PeerId(2));
        let (to_c, to_a) = (
            Relay::new(Some(PeerId(2)), 7),
            Relay::new(Some(PeerId(0)), 7),
        );
        let (b_log, c_log) = (Arc::clone(&to_c.log), Arc::clone(&to_a.log));
        let (c_server, c_thread) = serve(c, to_a);
        let (b_server, _) = serve(b, to_c);
        for i in 0..8 {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        let answers: Vec<u8> = (0..8).map(|_| a.recv().unwrap().payload[0]).collect();
        assert_eq!(answers, (0..8).collect::<Vec<u8>>());
        for server in [b_server, c_server] {
            assert_eq!(server.join().unwrap().1 .1, Some(Ok(7)));
        }
        let a_thread = std::thread::current().id();
        assert!(lock(&b_log).iter().all(|e| e.1 == a_thread));
        assert!(lock(&c_log).iter().all(|e| e.1 == c_thread));
    }

    #[test]
    fn per_link_order_holds_when_another_endpoints_thread_flushes_held_frames() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let c = net.register(PeerId(2));
        let mut faults = FaultPlan::none();
        faults.chaos(crate::fault::ChaosFaults {
            seed: 31,
            drop_rate: 0.0,
            duplicate_rate: 0.3,
            reorder_window_ms: 3,
        });
        let relay = Relay::new(None, 19);
        let log = Arc::clone(&relay.log);
        let (server, _) = serve(b, relay);
        net.set_faults(faults);
        for i in 0..20 {
            a.send(PeerId(1), vec![i], 1).unwrap();
        }
        // c only flushes held frames as they come due (its receives find
        // nothing); `a.recv` flushes none.
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _ = c.recv_timeout(Duration::from_millis(1));
                }
            })
        };
        let (_, (relay, outcome)) = server.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        flusher.join().unwrap();
        assert_eq!(outcome, Some(Ok(19)));
        assert_eq!(relay.next, 20, "every frame answered once, in order");
        let a_thread = std::thread::current().id();
        assert!(
            lock(&log).iter().any(|e| e.1 != a_thread),
            "a held frame reached the handler from a flushing thread"
        );
        let mut answers = std::collections::BTreeSet::new();
        while let Ok(env) = a.recv_timeout(Duration::from_millis(50)) {
            answers.insert(env.payload[0]);
        }
        assert_eq!(answers, (0..20).collect());
    }

    #[test]
    fn a_failed_handler_stops_answering_and_its_sender_times_out() {
        let net = Network::new();
        let a = net.register(PeerId(0));
        let b = net.register(PeerId(1));
        let (server, _) = serve(b, Relay::new(None, 9));
        a.send(PeerId(1), vec![0], 1).unwrap();
        assert_eq!(a.recv().unwrap().payload, [0]);
        a.send(PeerId(1), vec![FAIL], 1).unwrap();
        a.send(PeerId(1), vec![1], 1).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(50)),
            Err(NetError::Timeout)
        );
        let (b, (relay, outcome)) = server.join().unwrap();
        assert_eq!(outcome, Some(Err(FAIL)));
        assert_eq!(relay.next, 1);
        // The frame past the outcome waits for b's next receive.
        assert_eq!(drain(&b), [1]);
    }

    #[test]
    fn a_serve_that_hears_nothing_ends_after_its_timeout() {
        let net = Network::new();
        let b = net.register(PeerId(1));
        let started = Instant::now();
        let (relay, outcome) = b.serve(Relay::new(None, 9), Duration::from_millis(30));
        assert_eq!((relay.next, outcome), (0, None));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!lock(&b.inbox.queue).inline, "the handler is taken back");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let net = Network::new();
        let _a = net.register(PeerId(0));
        let _dup = net.register(PeerId(0));
    }
}
