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
}
