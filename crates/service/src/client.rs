//! Client side of the assessment service: one TCP connection per
//! request, dialed with the federation's retry/backoff machinery so a
//! client started a moment before the daemon finishes binding still
//! connects. A client may hold several endpoints — the addresses of a
//! replica-track fleet — and each request lands on whichever track
//! answers first, failing over past dead tracks automatically.

use crate::ledger::LedgerRecord;
use crate::protocol::{ClientRequest, ClientResponse, RejectReason, ServiceStatus};
use gendpr_fednet::client::{read_message, write_message};
use gendpr_fednet::tcp::{connect_any, TcpOptions};
use std::io;
use std::net::SocketAddr;

/// A handle on a running `gendpr serve` daemon, or on a fleet of
/// replica tracks serving the same ledger.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    endpoints: Vec<SocketAddr>,
    options: TcpOptions,
}

impl ServiceClient {
    /// A client for the daemon at `addr` with default dial options.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_endpoints(vec![addr])
    }

    /// A client holding every track of a fleet. Each request dials the
    /// endpoints in order and uses the first that accepts a connection,
    /// so requests keep succeeding as long as any one track is alive.
    /// The tracks coordinate through the shared ledger, so it does not
    /// matter which one answers.
    #[must_use]
    pub fn with_endpoints(endpoints: Vec<SocketAddr>) -> Self {
        Self {
            endpoints,
            options: TcpOptions::default(),
        }
    }

    /// Overrides the dial options (connect timeout, retry backoff).
    #[must_use]
    pub fn with_options(mut self, options: TcpOptions) -> Self {
        self.options = options;
        self
    }

    /// The endpoints this client fails over across.
    #[must_use]
    pub fn endpoints(&self) -> &[SocketAddr] {
        &self.endpoints
    }

    fn call(&self, request: &ClientRequest) -> io::Result<ClientResponse> {
        let mut stream = connect_any(&self.endpoints, self.options)
            .map_err(|e| io::Error::new(io::ErrorKind::ConnectionRefused, e.to_string()))?;
        write_message(&mut stream, request)?;
        read_message(&mut stream)
    }

    /// Queues a job and returns its id without waiting for it to run.
    /// `batches` must be 0: the daemon refuses a dynamic job. (The
    /// argument stays until the benchmark, which passes 0, is re-pinned.)
    ///
    /// # Errors
    ///
    /// I/O failure; [`io::ErrorKind::WouldBlock`] when admission control
    /// rejected the job for a full queue (retry after a backoff);
    /// [`io::ErrorKind::ConnectionAborted`] when the daemon is shutting
    /// down; [`io::ErrorKind::Other`] carrying any other rejection
    /// message.
    pub fn submit(&self, panel: Vec<u32>, batches: u32) -> io::Result<u64> {
        match self.call(&ClientRequest::Submit {
            panel,
            batches,
            wait: false,
        })? {
            ClientResponse::Accepted { job_id } => Ok(job_id),
            other => Err(unexpected(other)),
        }
    }

    /// Queues a job and blocks until its record is in the ledger.
    /// `batches` must be 0, as for [`ServiceClient::submit`].
    ///
    /// # Errors
    ///
    /// I/O failure; [`io::ErrorKind::WouldBlock`] for a full queue;
    /// [`io::ErrorKind::ConnectionAborted`] when the daemon shut down
    /// before the job ran; [`io::ErrorKind::Other`] carrying any other
    /// rejection or the job's failure message.
    pub fn submit_and_wait(&self, panel: Vec<u32>, batches: u32) -> io::Result<LedgerRecord> {
        match self.call(&ClientRequest::Submit {
            panel,
            batches,
            wait: true,
        })? {
            ClientResponse::Completed(record) => Ok(record),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the daemon's status snapshot.
    ///
    /// # Errors
    ///
    /// I/O failure or an unexpected response.
    pub fn status(&self) -> io::Result<ServiceStatus> {
        match self.call(&ClientRequest::Status)? {
            ClientResponse::Status(status) => Ok(status),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the ledger record of one finished job, if any.
    ///
    /// # Errors
    ///
    /// I/O failure or an unexpected response.
    pub fn results(&self, job_id: u64) -> io::Result<Option<LedgerRecord>> {
        match self.call(&ClientRequest::Results { job_id })? {
            ClientResponse::Results(record) => Ok(record),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to finish the in-flight job and exit.
    ///
    /// # Errors
    ///
    /// I/O failure or an unexpected response.
    pub fn shutdown(&self) -> io::Result<()> {
        match self.call(&ClientRequest::Shutdown)? {
            ClientResponse::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: ClientResponse) -> io::Error {
    match response {
        // Typed rejections keep their kind so callers can branch on them
        // (retry-with-backoff on a full queue, give up on shutdown)
        // without parsing messages.
        ClientResponse::Rejected(reason @ RejectReason::QueueFull { .. }) => {
            io::Error::new(io::ErrorKind::WouldBlock, reason.to_string())
        }
        ClientResponse::Rejected(reason @ RejectReason::ShuttingDown) => {
            io::Error::new(io::ErrorKind::ConnectionAborted, reason.to_string())
        }
        ClientResponse::Error(message) => io::Error::other(message),
        ClientResponse::Retried { attempts, message } => io::Error::other(format!(
            "job failed after {attempts} attempts; last error: {message}"
        )),
        other => io::Error::other(format!("unexpected response: {other:?}")),
    }
}
