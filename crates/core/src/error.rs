//! Protocol-level errors.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the GenDPR drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Configuration or parameters failed validation.
    InvalidConfig(&'static str),
    /// The study has no SNPs, no reference individuals or no case
    /// genomes.
    EmptyStudy,
    /// A member became non-responsive; the paper makes no liveness
    /// guarantee under faults, so the protocol aborts.
    MemberUnresponsive {
        /// The silent member's index.
        member: usize,
        /// Which phase the protocol was in.
        phase: &'static str,
    },
    /// Attestation or channel security failed for a member.
    SecurityFailure {
        /// The offending member's index.
        member: usize,
        /// Underlying TEE failure.
        cause: gendpr_tee::TeeError,
    },
    /// A member sent a malformed message.
    MalformedMessage {
        /// The sender's index.
        member: usize,
    },
    /// Too many members crashed: the surviving roster no longer satisfies
    /// the configured minimum quorum, so no further epoch can be formed.
    QuorumLost {
        /// Epoch in which the quorum was lost.
        epoch: u64,
        /// Surviving members at that point.
        survivors: usize,
        /// Configured minimum quorum (default `G − f`).
        required: usize,
    },
    /// This member was excluded from a view change (the survivors formed a
    /// new epoch without it, typically after a false suspicion).
    Evicted {
        /// First epoch whose roster excludes this member.
        epoch: u64,
    },
    /// A long-running process (node or service daemon) received a shutdown
    /// signal and stopped cleanly after finishing or aborting the in-flight
    /// work. Maps to its own CLI exit code so supervisors can distinguish a
    /// requested stop from a protocol failure.
    Interrupted,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            Self::EmptyStudy => {
                f.write_str("study has no SNPs, no reference individuals or no case genomes")
            }
            Self::MemberUnresponsive { member, phase } => {
                write!(f, "member {member} unresponsive during {phase}; aborting")
            }
            Self::SecurityFailure { member, cause } => {
                write!(f, "security failure with member {member}: {cause}")
            }
            Self::MalformedMessage { member } => {
                write!(f, "member {member} sent a malformed message")
            }
            Self::QuorumLost {
                epoch,
                survivors,
                required,
            } => {
                write!(
                    f,
                    "quorum lost in epoch {epoch}: {survivors} survivors < {required} required"
                )
            }
            Self::Evicted { epoch } => {
                write!(f, "evicted from the federation at epoch {epoch}")
            }
            Self::Interrupted => f.write_str("interrupted by shutdown signal"),
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::SecurityFailure { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ProtocolError::SecurityFailure {
            member: 2,
            cause: gendpr_tee::TeeError::QuoteInvalid,
        };
        assert!(e.to_string().contains("member 2"));
        assert!(e.source().is_some());
        assert!(ProtocolError::EmptyStudy.source().is_none());
        assert!(ProtocolError::MemberUnresponsive {
            member: 1,
            phase: "ld"
        }
        .to_string()
        .contains("ld"));
    }

    #[test]
    fn recovery_errors_display() {
        let quorum = ProtocolError::QuorumLost {
            epoch: 2,
            survivors: 2,
            required: 4,
        };
        let msg = quorum.to_string();
        assert!(msg.contains("quorum lost"), "{msg}");
        assert!(msg.contains("epoch 2"), "{msg}");
        assert!(msg.contains("2 survivors < 4 required"), "{msg}");
        let evicted = ProtocolError::Evicted { epoch: 3 }.to_string();
        assert!(evicted.contains("evicted"), "{evicted}");
        assert!(evicted.contains("epoch 3"), "{evicted}");
    }
}
