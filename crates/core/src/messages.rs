//! Protocol messages exchanged between GDO enclaves.
//!
//! Each struct mirrors one arrow of the paper's Figures 3/4: members send
//! allele-count vectors (pre-processing / Phase 1), correlation moments
//! (Phase 2) and LR matrices (Phase 3); the leader broadcasts retained
//! SNP lists and frequency vectors between phases. All types have strict
//! binary codecs (`gendpr-fednet`'s [`wire`](gendpr_fednet::wire)) and are
//! transported only through attested encrypted channels.

use gendpr_fednet::wire::{Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;
use gendpr_stats::ld::LdMoments;

/// Pre-processing report: one member's local allele counts over `L_des`
/// and its case-population size (`caseLocalCounts[L_des]_g`, `N^case_g`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountsReport {
    /// Minor-allele count per SNP of the member's case shard.
    pub counts: Vec<u64>,
    /// Number of case individuals held by the member.
    pub n_case: u64,
}
wire_struct!(CountsReport { counts, n_case });

/// Leader broadcast ending Phase 1: the retained SNP ids `L'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase1Broadcast {
    /// Retained SNP ids (indices into `L_des`).
    pub retained: Vec<u32>,
}
wire_struct!(Phase1Broadcast { retained });

/// Leader request during Phase 2: compute moments for one SNP pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentsRequest {
    /// First SNP id.
    pub a: u32,
    /// Second SNP id.
    pub b: u32,
}
wire_struct!(MomentsRequest: [u32] { a, b });

/// A member's correlation moments for one requested pair — the
/// `μ` statistics of Algorithm 1 lines 35–41.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentsReport {
    /// Σx at the first SNP.
    pub sum_x: u64,
    /// Σy at the second SNP.
    pub sum_y: u64,
    /// Σxy.
    pub sum_xy: u64,
    /// Σx².
    pub sum_xx: u64,
    /// Σy².
    pub sum_yy: u64,
    /// Individuals contributing.
    pub n: u64,
}
wire_struct!(MomentsReport: [u64] {
    sum_x,
    sum_y,
    sum_xy,
    sum_xx,
    sum_yy,
    n
});

impl From<LdMoments> for MomentsReport {
    fn from(m: LdMoments) -> Self {
        Self {
            sum_x: m.sum_x,
            sum_y: m.sum_y,
            sum_xy: m.sum_xy,
            sum_xx: m.sum_xx,
            sum_yy: m.sum_yy,
            n: m.n,
        }
    }
}

impl From<MomentsReport> for LdMoments {
    fn from(m: MomentsReport) -> Self {
        Self {
            sum_x: m.sum_x,
            sum_y: m.sum_y,
            sum_xy: m.sum_xy,
            sum_xx: m.sum_xx,
            sum_yy: m.sum_yy,
            n: m.n,
        }
    }
}

/// Leader broadcast ending Phase 2 (Figure 4 step 1): the retained SNPs
/// `L''` with the global case and reference allele-frequency vectors the
/// members need to build correct LR matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Broadcast {
    /// Retained SNP ids after LD analysis.
    pub retained: Vec<u32>,
    /// `casesAlleleFreq[L'']` — p̂ of Eq. 1.
    pub case_freqs: Vec<f64>,
    /// `refAlleleFreq[L'']` — p of Eq. 1.
    pub ref_freqs: Vec<f64>,
}
wire_struct!(Phase2Broadcast {
    retained,
    case_freqs,
    ref_freqs
});

/// A member's local LR matrix (Figure 4 step 2): `N^case_g × |L''|` LR
/// contributions, row-major. The leader holds every value to its column's
/// two levels as it decodes the report
/// ([`LrColumns::from_row_values`](gendpr_stats::lr::LrColumns::from_row_values)).
#[derive(Debug, Clone, PartialEq)]
pub struct LrReport {
    /// Rows (local case individuals).
    pub individuals: u64,
    /// Columns (retained SNPs).
    pub snps: u64,
    /// Row-major contribution values.
    pub values: Vec<f64>,
}
wire_struct!(LrReport {
    individuals,
    snps,
    values
});

/// A compressed local LR matrix: since every column of an LR matrix takes
/// only two values — determined by the frequency vectors the leader
/// itself broadcast — the matrix content reduces to one bit per cell.
/// This cuts Phase 3 traffic by ~64× relative to the paper's dense
/// matrices while the leader reconstructs the exact same `FullLRMatrix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrReportCompact {
    /// Rows (local case individuals).
    pub individuals: u64,
    /// Columns (retained SNPs).
    pub snps: u64,
    /// Row-major minor-allele indicator bits, 64 cells per word, each row
    /// starting on a word boundary.
    pub bits: Vec<u64>,
}
wire_struct!(LrReportCompact {
    individuals,
    snps,
    bits
});

/// Leader broadcast ending Phase 3 (Figure 4 step 5): the final safe set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase3Broadcast {
    /// `L_safe` — SNPs whose GWAS statistics may be released.
    pub safe: Vec<u32>,
}
wire_struct!(Phase3Broadcast { safe });

/// Leader broadcast opening one assessment job inside a long-lived
/// service session: the study panel to screen and the SNPs already
/// released by earlier jobs (forced into the LR seed so the *cumulative*
/// adversary power across all studies stays below the threshold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStartBroadcast {
    /// Service-assigned job id.
    pub job_id: u64,
    /// SNP ids of the requested study panel.
    pub panel: Vec<u32>,
    /// Previously released SNP ids charged against the power budget
    /// before any new candidate is admitted.
    pub forced: Vec<u32>,
}
wire_struct!(JobStartBroadcast {
    job_id,
    panel,
    forced
});

/// Leader broadcast opening one *shard job* inside a service session: the
/// sub-federation evaluates phases 1–2 over its column-sliced cohort and
/// then answers moment requests until [`ProtocolMessage::ShardDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStartBroadcast {
    /// Service-assigned job id the shard belongs to.
    pub job_id: u64,
    /// Which shard of the plan this lane evaluates.
    pub shard: u32,
}
wire_struct!(ShardStartBroadcast { job_id, shard });

/// Every message of the protocol, tagged for transport.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolMessage {
    /// Member → leader: pre-processing counts.
    Counts(CountsReport),
    /// Leader → members: Phase 1 result.
    Phase1(Phase1Broadcast),
    /// Leader → members: moments wanted for these pairs (batched).
    MomentsRequest(Vec<MomentsRequest>),
    /// Member → leader: moments for the requested pairs, same order.
    Moments(Vec<MomentsReport>),
    /// Leader → members: Phase 2 result (per collusion combination,
    /// keyed by combination index).
    Phase2(u32, Phase2Broadcast),
    /// Member → leader: LR matrix for combination `0`'s broadcast.
    Lr(u32, LrReport),
    /// Member → leader: compressed LR matrix (optimized runtime mode).
    LrCompact(u32, LrReportCompact),
    /// Leader → members: the final safe set.
    Phase3(Phase3Broadcast),
    /// Leader → members: protocol aborted (e.g. non-responsive member).
    Abort(String),
    /// Leader → members: a new assessment job starts inside a long-lived
    /// service session (the federation stays attested across jobs).
    JobStart(JobStartBroadcast),
    /// Leader → members: the service session ends; members may tear down
    /// their channels and exit cleanly.
    SessionEnd,
    /// Leader → members: a shard job starts; followers serve moment
    /// requests for the shard until [`Self::ShardDone`].
    ShardStart(ShardStartBroadcast),
    /// Leader → members: the shard job is complete; rekey and return to
    /// awaiting the next job.
    ShardDone,
}

impl Encode for ProtocolMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Counts(m) => {
                0u8.encode(buf);
                m.encode(buf);
            }
            Self::Phase1(m) => {
                1u8.encode(buf);
                m.encode(buf);
            }
            Self::MomentsRequest(m) => encode_moments_request(m.iter().copied(), buf),
            Self::Moments(m) => encode_moments(m.iter().copied(), buf),
            Self::Phase2(combo, m) => {
                4u8.encode(buf);
                combo.encode(buf);
                m.encode(buf);
            }
            Self::Lr(combo, m) => {
                5u8.encode(buf);
                combo.encode(buf);
                m.encode(buf);
            }
            Self::Phase3(m) => {
                6u8.encode(buf);
                m.encode(buf);
            }
            Self::Abort(reason) => {
                7u8.encode(buf);
                reason.encode(buf);
            }
            Self::LrCompact(combo, m) => {
                8u8.encode(buf);
                combo.encode(buf);
                m.encode(buf);
            }
            Self::JobStart(m) => {
                10u8.encode(buf);
                m.encode(buf);
            }
            Self::SessionEnd => 11u8.encode(buf),
            Self::ShardStart(m) => {
                12u8.encode(buf);
                m.encode(buf);
            }
            Self::ShardDone => 13u8.encode(buf),
        }
    }
}

impl Decode for ProtocolMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => Self::Counts(CountsReport::decode(r)?),
            1 => Self::Phase1(Phase1Broadcast::decode(r)?),
            MOMENTS_REQUEST_TAG => Self::MomentsRequest(Vec::decode(r)?),
            MOMENTS_TAG => Self::Moments(Vec::decode(r)?),
            4 => Self::Phase2(u32::decode(r)?, Phase2Broadcast::decode(r)?),
            5 => Self::Lr(u32::decode(r)?, LrReport::decode(r)?),
            6 => Self::Phase3(Phase3Broadcast::decode(r)?),
            7 => Self::Abort(String::decode(r)?),
            8 => Self::LrCompact(u32::decode(r)?, LrReportCompact::decode(r)?),
            10 => Self::JobStart(JobStartBroadcast::decode(r)?),
            11 => Self::SessionEnd,
            12 => Self::ShardStart(ShardStartBroadcast::decode(r)?),
            13 => Self::ShardDone,
            _ => return Err(WireError::InvalidValue("ProtocolMessage tag")),
        })
    }
}

// ---- The Phase 2 exchange without its vectors ----
//
// The moments requests and replies are most of a job's messages. These
// write and read [`ProtocolMessage::MomentsRequest`] and
// [`ProtocolMessage::Moments`] in place — encoded from an iterator, read
// one item at a time from the message's plaintext — so the exchange
// builds no vector per message. The enum's codec writes through the same
// encoders.

const MOMENTS_REQUEST_TAG: u8 = 2;
const MOMENTS_TAG: u8 = 3;
/// Encoded bytes of one [`MomentsRequest`] and one [`MomentsReport`].
const REQUEST_LEN: usize = 2 * 4;
const REPORT_LEN: usize = 6 * 8;

/// Appends the bytes of `ProtocolMessage::MomentsRequest(pairs)`.
pub(crate) fn encode_moments_request(
    pairs: impl ExactSizeIterator<Item = MomentsRequest>,
    buf: &mut Vec<u8>,
) {
    MOMENTS_REQUEST_TAG.encode(buf);
    (pairs.len() as u64).encode(buf);
    buf.reserve(pairs.len() * REQUEST_LEN);
    for pair in pairs {
        pair.encode(buf);
    }
}

/// Appends the bytes of `ProtocolMessage::Moments(reports)`.
pub(crate) fn encode_moments(
    reports: impl ExactSizeIterator<Item = MomentsReport>,
    buf: &mut Vec<u8>,
) {
    MOMENTS_TAG.encode(buf);
    (reports.len() as u64).encode(buf);
    buf.reserve(reports.len() * REPORT_LEN);
    for report in reports {
        report.encode(buf);
    }
}

/// The items of `bytes` if it is a message with tag `tag` holding one
/// vector of `len`-byte items and nothing else, decoded as they are read.
/// `Ok(None)` for a message with another tag.
fn items_in<T: Decode>(
    bytes: &[u8],
    tag: u8,
    len: usize,
) -> Result<Option<impl ExactSizeIterator<Item = T> + '_>, WireError> {
    let mut r = Reader::new(bytes);
    if u8::decode(&mut r)? != tag {
        return Ok(None);
    }
    let count = u64::decode(&mut r)?;
    let remaining = r.remaining();
    if count.checked_mul(len as u64) != Some(remaining as u64) {
        return Err(WireError::LengthOverrun {
            claimed: count,
            remaining,
        });
    }
    let items = r.take(remaining)?.chunks_exact(len);
    Ok(Some(items.map(|item| {
        T::decode(&mut Reader::new(item)).expect("a whole item of fixed size")
    })))
}

/// The pairs of a [`ProtocolMessage::MomentsRequest`]'s plaintext, read in
/// place; `Ok(None)` for any other message.
///
/// # Errors
///
/// A `MomentsRequest` whose length prefix does not match its body.
pub(crate) fn moments_request_in(
    bytes: &[u8],
) -> Result<Option<impl ExactSizeIterator<Item = MomentsRequest> + '_>, WireError> {
    items_in(bytes, MOMENTS_REQUEST_TAG, REQUEST_LEN)
}

/// The reports of a [`ProtocolMessage::Moments`]'s plaintext, read in
/// place.
///
/// # Errors
///
/// Any other message, or one whose length prefix does not match its body.
pub(crate) fn moments_in(
    bytes: &[u8],
) -> Result<impl ExactSizeIterator<Item = MomentsReport> + '_, WireError> {
    items_in(bytes, MOMENTS_TAG, REPORT_LEN)?.ok_or(WireError::InvalidValue("Moments tag"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_fednet::wire::{from_bytes, to_bytes};
    use gendpr_stats::lr::{LrColumns, LrMatrix, LrValues};

    fn roundtrip(msg: ProtocolMessage) {
        let bytes = to_bytes(&msg);
        let back: ProtocolMessage = from_bytes(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn the_moments_exchange_reads_in_place_what_the_enum_decodes() {
        let pairs = vec![
            MomentsRequest { a: 1, b: 2 },
            MomentsRequest { a: 9, b: 40 },
        ];
        let reports: Vec<MomentsReport> = (0..3u64)
            .map(|i| MomentsReport {
                sum_x: i,
                sum_y: 2 * i,
                sum_xy: u64::MAX - i,
                sum_xx: 7,
                sum_yy: 1 << 40,
                n: 300 + i,
            })
            .collect();
        let request = to_bytes(&ProtocolMessage::MomentsRequest(pairs.clone()));
        let reply = to_bytes(&ProtocolMessage::Moments(reports.clone()));
        let read = moments_request_in(&request).unwrap().unwrap();
        assert_eq!(read.collect::<Vec<_>>(), pairs);
        assert_eq!(moments_in(&reply).unwrap().collect::<Vec<_>>(), reports);
        assert!(moments_request_in(&reply).unwrap().is_none());
        assert!(moments_in(&request).is_err());
        let empty = to_bytes(&ProtocolMessage::Moments(vec![]));
        assert_eq!(moments_in(&empty).unwrap().len(), 0);
        // Cut short anywhere or one byte long, both are refused in place
        // as the enum's decode refuses them.
        for bytes in [&request, &reply] {
            let mut long = bytes.clone();
            long.push(0);
            let cuts = (0..bytes.len()).map(|cut| &bytes[..cut]);
            for b in cuts.chain([&long[..]]) {
                assert!(from_bytes::<ProtocolMessage>(b).is_err());
                assert!(!matches!(moments_request_in(b), Ok(Some(_))), "{b:?}");
                assert!(moments_in(b).is_err(), "{b:?}");
            }
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ProtocolMessage::Counts(CountsReport {
            counts: vec![1, 2, 3],
            n_case: 10,
        }));
        roundtrip(ProtocolMessage::Phase1(Phase1Broadcast {
            retained: vec![0, 5, 9],
        }));
        roundtrip(ProtocolMessage::MomentsRequest(vec![
            MomentsRequest { a: 1, b: 2 },
            MomentsRequest { a: 2, b: 7 },
        ]));
        roundtrip(ProtocolMessage::Moments(vec![MomentsReport {
            sum_x: 1,
            sum_y: 2,
            sum_xy: 1,
            sum_xx: 1,
            sum_yy: 2,
            n: 5,
        }]));
        roundtrip(ProtocolMessage::Phase2(
            3,
            Phase2Broadcast {
                retained: vec![1],
                case_freqs: vec![0.25],
                ref_freqs: vec![0.125],
            },
        ));
        roundtrip(ProtocolMessage::Lr(
            0,
            LrReport {
                individuals: 2,
                snps: 2,
                values: vec![0.5, -0.25, 0.0, 1.0],
            },
        ));
        roundtrip(ProtocolMessage::Phase3(Phase3Broadcast { safe: vec![] }));
        roundtrip(ProtocolMessage::LrCompact(
            2,
            LrReportCompact {
                individuals: 3,
                snps: 70,
                bits: (0..6).map(|w| 0x9249_2492_4924_9249 >> w).collect(),
            },
        ));
        roundtrip(ProtocolMessage::Abort("member 2 unresponsive".into()));
        roundtrip(ProtocolMessage::JobStart(JobStartBroadcast {
            job_id: 7,
            panel: vec![0, 1, 4, 9],
            forced: vec![2, 3],
        }));
        roundtrip(ProtocolMessage::SessionEnd);
        roundtrip(ProtocolMessage::ShardStart(ShardStartBroadcast {
            job_id: 9,
            shard: 3,
        }));
        roundtrip(ProtocolMessage::ShardDone);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(from_bytes::<ProtocolMessage>(&[200]).is_err());
        // Tag 9 (a retired quorum-loss notice) is left unused.
        assert!(from_bytes::<ProtocolMessage>(&[9; 17]).is_err());
    }

    #[test]
    fn moments_conversion_roundtrip() {
        let m = LdMoments {
            sum_x: 3,
            sum_y: 4,
            sum_xy: 2,
            sum_xx: 3,
            sum_yy: 4,
            n: 9,
        };
        let report = MomentsReport::from(m);
        assert_eq!(LdMoments::from(report), m);
    }

    /// Decodes a compact report the way the leader does.
    fn decode(
        report: &LrReportCompact,
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Result<LrColumns, &'static str> {
        LrColumns::from_row_bits(
            report.individuals as usize,
            report.snps as usize,
            &report.bits,
            case_freqs,
            ref_freqs,
        )
    }

    #[test]
    fn compact_report_reconstructs_dense_matrix() {
        use crate::gdo::GdoNode;
        use gendpr_genomics::genotype::GenotypeMatrix;
        use gendpr_genomics::snp::SnpId;
        let mut g = GenotypeMatrix::zeroed(5, 70);
        for i in 0..5 {
            for j in 0..70 {
                if (i * 7 + j) % 4 == 0 {
                    g.set(i, j, true);
                }
            }
        }
        let snps: Vec<SnpId> = (0..70u32).map(SnpId).collect();
        let case_freqs: Vec<f64> = (0..70).map(|j| 0.2 + 0.005 * j as f64).collect();
        let ref_freqs: Vec<f64> = (0..70).map(|j| 0.15 + 0.004 * j as f64).collect();
        let dense = LrMatrix::from_genotypes(&g, &snps, &case_freqs, &ref_freqs);
        let compact = GdoNode::new(0, g).lr_report_compact(&snps);
        let rebuilt = decode(&compact, &case_freqs, &ref_freqs).unwrap();
        assert_eq!((rebuilt.individuals(), rebuilt.snps()), (5, 70));
        for i in 0..5 {
            for j in 0..70 {
                assert_eq!(rebuilt.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn compact_report_rejects_bad_dimensions() {
        let bad = LrReportCompact {
            individuals: 2,
            snps: 70,
            bits: vec![0; 3], // needs 2 rows x 2 words = 4
        };
        assert!(decode(&bad, &[0.5; 70], &[0.5; 70]).is_err());
        let ok = LrReportCompact {
            bits: vec![0; 4],
            ..bad
        };
        assert!(decode(&ok, &[0.5; 69], &[0.5; 69]).is_err());
        assert!(decode(&ok, &[0.5; 70], &[0.5; 70]).is_ok());
    }

    #[test]
    fn lr_report_dimension_check() {
        let (cf, rf) = ([0.4, 0.3, 0.2], [0.2, 0.3, 0.1]);
        let decode = |r: &LrReport| {
            LrColumns::from_row_values(r.individuals as usize, r.snps as usize, &r.values, &cf, &rf)
        };
        let major = gendpr_stats::lr::lr_levels(&cf, &rf).0;
        let bad = LrReport {
            individuals: 2,
            snps: 3,
            values: major[..2].repeat(2),
        };
        assert!(decode(&bad).is_err());
        let good = LrReport {
            values: major.repeat(2),
            ..bad
        };
        let m = decode(&good).unwrap();
        assert_eq!((m.individuals(), m.snps()), (2, 3));
        roundtrip(ProtocolMessage::Lr(0, good));
    }
}
