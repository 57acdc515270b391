//! Simulated federation network for the GenDPR reproduction.
//!
//! GDO enclaves exchange encrypted intermediate results; this crate gives
//! them something to exchange it over:
//!
//! * [`wire`] — a strict little-endian binary codec with a
//!   [`wire_struct!`] derive macro (no serde format crate is available
//!   offline, see `DESIGN.md` §4); byte vectors copy as one slice,
//! * [`transport`] — the [`Transport`] trait plus an in-memory reliable
//!   in-order message fabric with per-link traffic metering, whose bursts
//!   ([`Transport::send_all`]) wake each destination once and which runs
//!   a served [`transport::Handler`] on the delivering thread,
//! * [`tcp`] — the same contract over real sockets: length-prefixed
//!   framing, dial retry with backoff, deadline-bounded connects — the
//!   substrate of the `gendpr node` daemon,
//! * [`client`] — length-prefixed message I/O for client ↔ daemon
//!   streams (the assessment service's submit/status/results protocol),
//! * [`metrics`] — the bandwidth accounting behind the paper's Table 3
//!   discussion,
//! * [`fault`] — deterministic crash/partition injection (the paper's
//!   no-liveness-under-faults caveat).
//!
//! # Example
//!
//! ```
//! use gendpr_fednet::transport::{Network, PeerId};
//!
//! let net = Network::new();
//! let alice = net.register(PeerId(0));
//! let bob = net.register(PeerId(1));
//! alice.send(PeerId(1), b"encrypted counts".to_vec(), 16)?;
//! assert_eq!(bob.recv()?.payload, b"encrypted counts");
//! # Ok::<(), gendpr_fednet::transport::NetError>(())
//! ```

pub mod client;
pub mod fault;
pub mod metrics;
pub mod tcp;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use fault::FaultPlan;
pub use metrics::{TrafficMatrix, TrafficStats};
pub use tcp::{TcpOptions, TcpTransport};
pub use transport::{Endpoint, Envelope, NetError, Network, PeerId, Transport};
