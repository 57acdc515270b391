//! GenDPR — the paper's primary contribution.
//!
//! A distributed middleware through which a federation of genome data
//! owners (GDOs) determines, **without centralizing genomes**, which SNPs
//! of a planned GWAS can have their statistics released without enabling
//! membership-inference attacks (Pascoal, Decouchant, Völp — ACM/IFIP
//! Middleware 2022).
//!
//! * [`config`] — study parameters and federation/collusion configuration,
//! * [`messages`] — the typed protocol messages with binary codecs,
//! * [`gdo`] — each member's local computations over its genome shard,
//! * [`leader`] — commit-reveal random leader election,
//! * [`phases`] — the leader-side MAF / LD / LR-test logic (Algorithm 1),
//! * [`collusion`] — combination generation and selection intersection
//!   for tolerating up to `G−1` honest-but-curious colluders,
//! * [`memo`] — `MomentMemo`, a reference-moment cache outside the
//!   protocol that the measuring harnesses time,
//! * [`protocol`] — the deterministic in-process driver (what the paper's
//!   tables and figures measure),
//! * [`runtime`] — the fully threaded deployment: one thread per GDO,
//!   enclaves, remote attestation and encrypted channels end to end,
//! * the crate-private `engine` — the leader core every driver runs:
//!   [`runtime`] and [`serving`] over attested channels, [`protocol`]
//!   and the naïve baseline over in-process members,
//! * [`baseline`] — the centralized (SecureGenome-in-one-enclave) and
//!   naïve distributed comparison pipelines,
//! * [`attack`] — the LR membership adversary used to validate releases,
//! * [`release`] — noise-free releases over `L_safe` plus the §5.5 hybrid
//!   DP extension,
//! * [`certificate`] — enclave-signed assessment certificates binding
//!   parameters, input digests and the safe set for auditability,
//! * [`serving`] — long-lived service sessions: the federation attests
//!   once and serves a queue of jobs, charging every job's LR budget
//!   against the union of all earlier releases.
//!
//! # Example
//!
//! ```
//! use gendpr_core::config::{FederationConfig, GwasParams};
//! use gendpr_core::protocol::Federation;
//! use gendpr_genomics::synth::SyntheticCohort;
//!
//! let cohort = SyntheticCohort::builder()
//!     .snps(120)
//!     .case_individuals(200)
//!     .reference_individuals(200)
//!     .seed(5)
//!     .build();
//! let federation = Federation::new(
//!     FederationConfig::new(3),
//!     GwasParams::secure_genome_defaults(),
//!     &cohort,
//! );
//! let outcome = federation.run()?;
//! println!(
//!     "L_des=120 → L'={} → L''={} → L_safe={}",
//!     outcome.l_prime.len(),
//!     outcome.l_double_prime.len(),
//!     outcome.safe_snps.len(),
//! );
//! # Ok::<(), gendpr_core::error::ProtocolError>(())
//! ```

pub mod attack;
pub mod baseline;
pub mod certificate;
pub mod collusion;
pub mod config;
mod engine;
pub mod error;
pub mod gdo;
pub mod leader;
pub mod memo;
pub mod messages;
pub mod phases;
pub mod protocol;
pub mod release;
pub mod runtime;
pub mod serving;
pub mod telemetry;

pub use config::{CollusionMode, FederationConfig, GwasParams};
pub use error::ProtocolError;
pub use protocol::{Federation, PhaseTimings, ProtocolOutcome};
pub use release::GwasRelease;
