//! Admission control: decide at the door, with a typed verdict, instead
//! of letting a doomed job occupy a queue slot.
//!
//! Two gates run before a job gets a slot:
//!
//! 1. **Spec validation** ([`validate`]) — panel normalization and the
//!    structural checks the old FIFO daemon did at enqueue (non-empty
//!    panel, ids within the cohort width), and the refusal of dynamic
//!    jobs: the daemon releases only what an attested lane certified.
//!    Failures are [`ServiceError::InvalidJob`]: the submitter's fault,
//!    reported verbatim.
//! 2. **Backpressure** ([`admit`]) — the bounded queue. A full queue is
//!    [`ServiceError::QueueFull`] (retry later); a draining daemon is
//!    [`ServiceError::ShuttingDown`] (go elsewhere). Both are typed all
//!    the way over the wire so clients can react without string-matching.
//!
//! Every rejection increments
//! `gendpr_sched_admission_rejects_total{reason}`.

use crate::error::ServiceError;
use crate::telemetry;

/// The static facts admission checks a spec against.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cohort panel width: valid SNP ids are `0..panel_len`.
    pub panel_len: u64,
    /// Bound on undispatched jobs.
    pub max_queue: usize,
    /// Worker lanes in the pool.
    pub workers: usize,
    /// Retry budget per job under lane supervision (a job runs at most
    /// `max_retries + 1` times before the typed
    /// [`ServiceError::Retried`] verdict).
    pub max_retries: u32,
}

/// Why a dynamic job (`batches > 0`) is refused: the DyPS extension runs
/// in process, over a cohort the daemon does not hold.
pub(crate) const DYNAMIC_JOBS_REFUSED: &str =
    "the daemon runs only federated jobs; run dynamic batches with `gendpr assess --batches N`";

/// Validates and normalizes a submitted spec: refuses a dynamic batch
/// count, sorts and deduplicates the panel, then applies the structural
/// rules. This is the one place a dynamic job is refused.
///
/// # Errors
///
/// [`ServiceError::InvalidJob`] with the reason; nothing was queued and
/// no claim was staked.
pub fn validate(
    mut panel: Vec<u32>,
    batches: u32,
    limits: &Limits,
) -> Result<Vec<u32>, ServiceError> {
    let reject = |message: String| {
        telemetry::sched_admission_rejects("invalid").inc();
        Err(ServiceError::InvalidJob(message))
    };
    if batches != 0 {
        return reject(DYNAMIC_JOBS_REFUSED.to_string());
    }
    panel.sort_unstable();
    panel.dedup();
    if panel.is_empty() {
        return reject("job panel is empty".to_string());
    }
    if panel
        .last()
        .is_some_and(|&s| u64::from(s) >= limits.panel_len)
    {
        return reject(format!(
            "SNP id out of range (panel width is {})",
            limits.panel_len
        ));
    }
    Ok(panel)
}

/// The backpressure gate, called under the scheduler lock with the
/// current queue depth.
///
/// # Errors
///
/// [`ServiceError::ShuttingDown`] when the daemon is draining,
/// [`ServiceError::QueueFull`] when `depth` has reached `max_queue`.
pub fn admit(shutdown: bool, depth: usize, max_queue: usize) -> Result<(), ServiceError> {
    if shutdown {
        telemetry::sched_admission_rejects("shutdown").inc();
        return Err(ServiceError::ShuttingDown);
    }
    if depth >= max_queue {
        telemetry::sched_admission_rejects("queue_full").inc();
        return Err(ServiceError::QueueFull {
            depth: depth as u64,
            max: max_queue as u64,
        });
    }
    Ok(())
}
