//! Property-based durability tests of the release ledger: every record
//! round-trips through the wire codec, any truncation of the file loads
//! exactly the intact frame prefix, and a corrupted byte anywhere drops
//! the damaged record and everything after it — never an earlier one,
//! and never a panic.

use gendpr::crypto::sha256;
use gendpr::fednet::wire::{self, Decode, Encode};
use gendpr::service::tracks::claims::{ClaimEntry, ClaimLog, DoneFrame};
use gendpr::service::{
    JobKind, LedgerRecord, LinkRecord, ReleaseLedger, ServiceError, WireCertificate,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Checksummed frame overhead: u32 length prefix + SHA-256 trailer.
const FRAME_OVERHEAD: usize = 4 + 32;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-ledger-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.bin",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn certificate_strategy() -> impl Strategy<Value = WireCertificate> {
    (
        (any::<[u8; 32]>(), any::<[u8; 32]>(), any::<[u8; 32]>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (
            proptest::collection::vec(any::<u32>(), 0..6),
            any::<[u8; 32]>(),
            any::<[u8; 96]>(),
        ),
    )
        .prop_map(
            |(
                (study, inputs, safe),
                (safe_count, evaluations, epoch),
                (roster, context, quote),
            )| {
                WireCertificate {
                    study_digest: study,
                    inputs_digest: inputs,
                    safe_digest: safe,
                    safe_count,
                    evaluations,
                    epoch,
                    roster,
                    context_digest: context,
                    quote,
                }
            },
        )
}

fn record_strategy() -> impl Strategy<Value = LedgerRecord> {
    (
        (
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(any::<u32>(), 0..60),
            proptest::collection::vec(any::<u32>(), 0..30),
            proptest::collection::vec(any::<u32>(), 0..30),
            0.0f64..1.0,
            0.0f64..1.0,
        ),
        (
            proptest::collection::vec(0.0f64..0.5, 0..30),
            proptest::collection::vec(0.0f64..0.5, 0..30),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..6),
            proptest::collection::vec(
                (
                    any::<u32>(),
                    any::<u32>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..6,
            ),
            (any::<bool>(), certificate_strategy()),
        ),
    )
        .prop_map(
            |(
                (job_id, dynamic, panel, forced, released, final_power, final_threshold),
                (case_freqs, ref_freqs, epoch, roster, links, (certified, certificate)),
            )| {
                LedgerRecord {
                    job_id,
                    kind: if dynamic {
                        JobKind::Dynamic
                    } else {
                        JobKind::Federated
                    },
                    panel,
                    forced,
                    released,
                    final_power,
                    final_threshold,
                    case_freqs,
                    ref_freqs,
                    epoch,
                    roster,
                    traffic: links
                        .into_iter()
                        .map(
                            |(from, to, messages, plaintext_bytes, wire_bytes)| LinkRecord {
                                from,
                                to,
                                messages,
                                plaintext_bytes,
                                wire_bytes,
                            },
                        )
                        .collect(),
                    certificate: certified.then_some(certificate),
                }
            },
        )
}

/// Writes `records` to a fresh ledger file, returning its path and the
/// on-disk size of each record's frame.
fn write_ledger(tag: &str, records: &[LedgerRecord]) -> (PathBuf, Vec<usize>) {
    let path = scratch(tag);
    let mut ledger = ReleaseLedger::open(&path).unwrap();
    let mut sizes = Vec::with_capacity(records.len());
    for record in records {
        ledger.append(record.clone()).unwrap();
        sizes.push(wire::to_bytes(record).len() + FRAME_OVERHEAD);
    }
    (path, sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_roundtrip_through_the_wire_codec(record in record_strategy()) {
        let back: LedgerRecord = wire::from_bytes(&wire::to_bytes(&record)).unwrap();
        prop_assert_eq!(back, record);
    }

    #[test]
    fn certificates_roundtrip_through_their_verifiable_form(cert in certificate_strategy()) {
        // WireCertificate -> AssessmentCertificate -> WireCertificate is
        // lossless, including the 96-byte enclave quote.
        let verifiable = cert.to_certificate();
        prop_assert_eq!(WireCertificate::from(&verifiable), cert);
    }

    #[test]
    fn truncated_records_never_decode_as_valid(
        record in record_strategy(),
        cut in 1usize..16,
    ) {
        let bytes = wire::to_bytes(&record);
        let keep = bytes.len().saturating_sub(cut);
        prop_assert!(wire::from_bytes::<LedgerRecord>(&bytes[..keep]).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = wire::from_bytes::<LedgerRecord>(&bytes);
        let _ = wire::from_bytes::<WireCertificate>(&bytes);
    }
}

proptest! {
    // On-disk cases fsync per append; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_truncation_loads_exactly_the_intact_prefix(
        records in proptest::collection::vec(record_strategy(), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let (path, sizes) = write_ledger("truncate", &records);
        let total: usize = sizes.iter().sum();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (((total - 1) as f64) * cut_frac) as usize + 1;
        let keep = total - cut;

        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(bytes.len(), total);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        // The survivors are exactly the frames wholly inside the prefix.
        let mut expect = 0usize;
        let mut offset = 0usize;
        for size in &sizes {
            if offset + size > keep {
                break;
            }
            offset += size;
            expect += 1;
        }

        let mut ledger = ReleaseLedger::open(&path).unwrap();
        prop_assert_eq!(ledger.len(), expect);
        prop_assert_eq!(ledger.recovered_bytes(), (keep - offset) as u64);
        prop_assert_eq!(ledger.records(), &records[..expect]);

        // Recovery leaves an appendable ledger whose tail is replaced.
        ledger.append(records[0].clone()).unwrap();
        drop(ledger);
        let reopened = ReleaseLedger::open(&path).unwrap();
        prop_assert_eq!(reopened.len(), expect + 1);
        prop_assert_eq!(reopened.recovered_bytes(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_byte_drops_the_damaged_record_and_its_successors(
        records in proptest::collection::vec(record_strategy(), 1..4),
        pos_frac in 0.0f64..1.0,
    ) {
        let (path, sizes) = write_ledger("corrupt", &records);
        let total: usize = sizes.iter().sum();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let pos = (((total - 1) as f64) * pos_frac) as usize;

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // The flip lands in some frame; that record and everything after
        // it are discarded, everything before survives verbatim.
        let mut damaged = 0usize;
        let mut offset = 0usize;
        while offset + sizes[damaged] <= pos {
            offset += sizes[damaged];
            damaged += 1;
        }

        let ledger = ReleaseLedger::open(&path).unwrap();
        prop_assert_eq!(ledger.len(), damaged);
        prop_assert_eq!(ledger.records(), &records[..damaged]);
        prop_assert_eq!(ledger.recovered_bytes(), (total - offset) as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_survive_reopen_verbatim(records in proptest::collection::vec(record_strategy(), 0..4)) {
        let (path, _) = write_ledger("reopen", &records);
        let ledger = ReleaseLedger::open(&path).unwrap();
        prop_assert_eq!(ledger.recovered_bytes(), 0);
        prop_assert_eq!(ledger.records(), records.as_slice());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn derived_views_equal_a_recomputation_over_the_records(
        steps in proptest::collection::vec((0u8..4, any::<bool>(), record_strategy()), 1..10),
    ) {
        // However records enter the ledger (append, open, another
        // process's frames picked up by refresh) and whatever crash
        // leavings it recovers from on the way, its views must be what
        // `records()` alone implies.
        let primary = scratch("views-p");
        let replica = scratch("views-r");
        let open = || ReleaseLedger::open_replicated(&primary, std::slice::from_ref(&replica)).unwrap();
        let mut ledger = open();
        for (kind, reopen, record) in steps {
            match kind {
                0 => ledger.append(colliding(record)).unwrap(),
                // Another track's commit.
                1 => open().append(colliding(record)).unwrap(),
                // A torn tail: a header promising 7 body bytes, then 2.
                2 => std::fs::OpenOptions::new()
                    .append(true)
                    .open(&primary)
                    .and_then(|mut file| std::io::Write::write_all(&mut file, &[7, 0, 0, 0, 1, 2]))
                    .unwrap(),
                // A replica that lost everything.
                _ => std::fs::write(&replica, b"").unwrap(),
            }
            if reopen {
                ledger = open();
            } else {
                ledger.refresh().unwrap();
            }
            assert_views_match_records(&ledger);
            prop_assert_eq!(std::fs::read(&replica).unwrap(), std::fs::read(&primary).unwrap());
        }
        let _ = std::fs::remove_file(&primary);
        let _ = std::fs::remove_file(&replica);
    }
}

/// Folds job ids, released SNPs and link endpoints into small ranges so
/// records collide — a view that double-counts, or forgets to merge,
/// shows.
fn colliding(mut record: LedgerRecord) -> LedgerRecord {
    record.job_id %= 6;
    for id in &mut record.released {
        *id %= 40;
    }
    for link in &mut record.traffic {
        link.from %= 3;
        link.to %= 3;
    }
    record
}

/// Checks every derived view of `ledger` against a from-scratch
/// recomputation over `records()`.
fn assert_views_match_records(ledger: &ReleaseLedger) {
    let records = ledger.records();
    let union: BTreeSet<u32> = records
        .iter()
        .flat_map(|r| r.released.iter().copied())
        .collect();
    let released: Vec<u32> = ledger.released_union().iter().map(|s| s.0).collect();
    assert_eq!(released, union.iter().copied().collect::<Vec<u32>>());
    assert_eq!(ledger.released_len(), union.len());

    for id in 0..8 {
        let first = records.iter().find(|r| r.job_id == id);
        assert_eq!(ledger.record(id), first);
        assert_eq!(ledger.contains(id), first.is_some());
    }
    let next = records
        .iter()
        .map(|r| r.job_id)
        .max()
        .map_or(1, |max| max + 1);
    assert_eq!(ledger.next_job_id(), next);

    let mut totals: BTreeMap<(u32, u32), LinkRecord> = BTreeMap::new();
    for link in records.iter().flat_map(|r| &r.traffic) {
        let total = totals.entry((link.from, link.to)).or_insert(LinkRecord {
            from: link.from,
            to: link.to,
            ..LinkRecord::default()
        });
        total.messages = total.messages.saturating_add(link.messages);
        total.plaintext_bytes = total.plaintext_bytes.saturating_add(link.plaintext_bytes);
        total.wire_bytes = total.wire_bytes.saturating_add(link.wire_bytes);
    }
    assert_eq!(
        ledger.link_totals(),
        totals.into_values().collect::<Vec<LinkRecord>>()
    );
}

/// A small fixed record so the exhaustive kill sweep stays fast.
fn small_record(job_id: u64) -> LedgerRecord {
    LedgerRecord {
        job_id,
        kind: JobKind::Federated,
        panel: vec![1, 2, 3],
        forced: Vec::new(),
        released: vec![2],
        final_power: 0.5,
        final_threshold: 0.25,
        case_freqs: Vec::new(),
        ref_freqs: Vec::new(),
        epoch: 1,
        roster: vec![0, 1, 2],
        traffic: Vec::new(),
        certificate: None,
    }
}

/// Replica-divergence SIGKILL sweep: with a mirrored ledger, a kill
/// mid-append leaves the copies at *different* lengths — the primary
/// torn at any byte offset, a replica at any whole-frame boundary
/// (replicas only ever receive whole frames, so they are always a clean
/// prefix). For every such divergence, `open_replicated` must load the
/// longest intact prefix across the set — whichever file holds it — and
/// heal every copy to those exact bytes, idempotently.
#[test]
fn a_kill_during_a_replicated_append_heals_every_divergence() {
    let records: Vec<LedgerRecord> = (1..=3).map(small_record).collect();
    let (path, sizes) = write_ledger("replica-sweep", &records);
    let original = std::fs::read(&path).unwrap();
    let total: usize = sizes.iter().sum();
    let mut boundaries = vec![0usize];
    for size in &sizes {
        boundaries.push(boundaries.last().unwrap() + size);
    }
    for cut_primary in 0..=total {
        for &cut_replica in &boundaries {
            let primary = scratch("replica-sweep-p");
            let replica = scratch("replica-sweep-r");
            std::fs::write(&primary, &original[..cut_primary]).unwrap();
            std::fs::write(&replica, &original[..cut_replica]).unwrap();

            let intact = *boundaries.iter().rfind(|&&b| b <= cut_primary).unwrap();
            let winner = intact.max(cut_replica);
            let expect = boundaries.iter().position(|&b| b == winner).unwrap();
            let case = format!("primary cut {cut_primary}, replica cut {cut_replica}");

            let ledger =
                ReleaseLedger::open_replicated(&primary, std::slice::from_ref(&replica)).unwrap();
            assert_eq!(ledger.len(), expect, "{case}");
            assert_eq!(ledger.records(), &records[..expect], "{case}");
            assert_eq!(
                ledger.recovered_bytes(),
                (cut_primary - intact) as u64,
                "{case}: the primary's torn tail is accounted"
            );
            assert_eq!(ledger.live_replicas(), 1, "{case}");
            drop(ledger);

            // Both copies hold the winning prefix verbatim, and a second
            // open heals (and recovers) nothing.
            assert_eq!(
                std::fs::read(&primary).unwrap(),
                &original[..winner],
                "{case}"
            );
            assert_eq!(
                std::fs::read(&replica).unwrap(),
                &original[..winner],
                "{case}"
            );
            let reopened =
                ReleaseLedger::open_replicated(&primary, std::slice::from_ref(&replica)).unwrap();
            assert_eq!(reopened.recovered_bytes(), 0, "{case}");
            assert_eq!(reopened.len(), expect, "{case}");
            let _ = std::fs::remove_file(&primary);
            let _ = std::fs::remove_file(&replica);
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Replicated appends after healing continue the mirrored history: every
/// copy stays byte-identical through a heal → append → reopen cycle.
#[test]
fn appends_after_a_heal_keep_every_copy_identical() {
    let records: Vec<LedgerRecord> = (1..=3).map(small_record).collect();
    let (path, sizes) = write_ledger("replica-resume", &records);
    let original = std::fs::read(&path).unwrap();
    let primary = scratch("replica-resume-p");
    let replica = scratch("replica-resume-r");
    // The replica is one frame ahead of the torn primary: its history wins.
    std::fs::write(&primary, &original[..sizes[0] + 5]).unwrap();
    std::fs::write(&replica, &original[..sizes[0] + sizes[1]]).unwrap();
    let mut ledger =
        ReleaseLedger::open_replicated(&primary, std::slice::from_ref(&replica)).unwrap();
    assert_eq!(ledger.len(), 2, "the replica's longer prefix wins");
    ledger.append(small_record(3)).unwrap();
    drop(ledger);
    assert_eq!(std::fs::read(&primary).unwrap(), original);
    assert_eq!(std::fs::read(&replica).unwrap(), original);
    let reopened = ReleaseLedger::open_replicated(&primary, &[replica]).unwrap();
    assert_eq!(reopened.records(), records.as_slice());
    let _ = std::fs::remove_file(&path);
}

/// Exhaustive SIGKILL sweep: a kill can land at *any* byte offset of an
/// in-progress append. For every possible surviving prefix of a
/// three-record ledger, recovery must restore the longest whole-frame
/// prefix — physically (the file bytes equal the intact prefix
/// verbatim) and idempotently (a second open recovers nothing).
#[test]
fn a_kill_at_every_append_offset_recovers_byte_identical_state() {
    let records: Vec<LedgerRecord> = (1..=3).map(small_record).collect();
    let (path, sizes) = write_ledger("kill-sweep", &records);
    let original = std::fs::read(&path).unwrap();
    let total: usize = sizes.iter().sum();
    assert_eq!(original.len(), total);
    let mut boundaries = vec![0usize];
    for size in &sizes {
        boundaries.push(boundaries.last().unwrap() + size);
    }
    for cut in 0..=total {
        let victim = scratch("kill-sweep-case");
        std::fs::write(&victim, &original[..cut]).unwrap();
        let intact = *boundaries.iter().rfind(|&&b| b <= cut).unwrap();
        let expect = boundaries.iter().position(|&b| b == intact).unwrap();

        let ledger = ReleaseLedger::open(&victim).unwrap();
        assert_eq!(ledger.len(), expect, "cut at {cut}");
        assert_eq!(ledger.records(), &records[..expect], "cut at {cut}");
        assert_eq!(
            ledger.recovered_bytes(),
            (cut - intact) as u64,
            "cut at {cut}"
        );
        drop(ledger);

        assert_eq!(
            std::fs::read(&victim).unwrap(),
            &original[..intact],
            "recovery at cut {cut} must leave exactly the intact prefix on disk"
        );
        let reopened = ReleaseLedger::open(&victim).unwrap();
        assert_eq!(reopened.recovered_bytes(), 0, "cut at {cut}");
        assert_eq!(reopened.len(), expect, "cut at {cut}");
        let _ = std::fs::remove_file(&victim);
    }
    let _ = std::fs::remove_file(&path);
}

/// The two frame logs, seen only through their public API.
trait Log {
    type Entry: Encode + Decode + Clone + Debug + PartialEq;
    fn open(paths: &[PathBuf]) -> Result<Self, ServiceError>
    where
        Self: Sized;
    fn refresh(&mut self) -> Result<usize, ServiceError>;
    fn entries(&self) -> Vec<Self::Entry>;
    /// Three well-formed entries.
    fn genuine() -> Vec<Self::Entry>;
}

impl Log for ReleaseLedger {
    type Entry = LedgerRecord;
    fn open(paths: &[PathBuf]) -> Result<Self, ServiceError> {
        ReleaseLedger::open_replicated(&paths[0], &paths[1..])
    }
    fn refresh(&mut self) -> Result<usize, ServiceError> {
        ReleaseLedger::refresh(self)
    }
    fn entries(&self) -> Vec<LedgerRecord> {
        self.records().to_vec()
    }
    fn genuine() -> Vec<LedgerRecord> {
        (1..=3).map(small_record).collect()
    }
}

impl Log for ClaimLog {
    type Entry = ClaimEntry;
    fn open(paths: &[PathBuf]) -> Result<Self, ServiceError> {
        ClaimLog::open(&paths[0], &paths[1..])
    }
    fn refresh(&mut self) -> Result<usize, ServiceError> {
        ClaimLog::refresh(self, Instant::now())
    }
    fn entries(&self) -> Vec<ClaimEntry> {
        let seen = ClaimLog::entries(self).iter();
        seen.map(|seen| seen.entry.clone()).collect()
    }
    fn genuine() -> Vec<ClaimEntry> {
        let done = |job_id| DoneFrame {
            job_id,
            track: 0,
            error: String::new(),
        };
        (1..=3).map(|id| ClaimEntry::Done(done(id))).collect()
    }
}

/// One hostile copy of a log: the first `whole` genuine frames, then
/// (when given) a frame whose checksum holds over an arbitrary body,
/// then arbitrary bytes. Returns the bytes, the entries a reader must
/// take from them (the longest decodable whole-frame prefix) and that
/// prefix's length.
fn hostile_copy<L: Log>(
    whole: usize,
    sealed: Option<&[u8]>,
    tail: &[u8],
) -> (Vec<u8>, Vec<L::Entry>, usize) {
    let mut entries = L::genuine()[..whole].to_vec();
    let mut bodies: Vec<Vec<u8>> = entries.iter().map(wire::to_bytes).collect();
    if let Some(body) = sealed {
        if let Ok(entry) = wire::from_bytes::<L::Entry>(body) {
            entries.push(entry);
        }
        bodies.push(body.to_vec());
    }
    let mut bytes = Vec::new();
    for body in &bodies {
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&sha256::digest(body));
    }
    let good = bodies[..entries.len()]
        .iter()
        .map(|b| b.len() + FRAME_OVERHEAD)
        .sum();
    bytes.extend_from_slice(tail);
    (bytes, entries, good)
}

/// Opens a log over a hostile primary (and mirror), reopens it, and
/// refreshes it over more hostile bytes appended to the primary.
fn hostile_bytes_hold<L: Log>(
    (whole, sealed, tail): &(usize, Option<Vec<u8>>, Vec<u8>),
    mirror: Option<&(usize, Vec<u8>)>,
    appended: &[u8],
) -> Result<(), TestCaseError> {
    let mut paths = vec![scratch("hostile-primary")];
    let (bytes, mut expect, good) = hostile_copy::<L>(*whole, sealed.as_deref(), tail);
    std::fs::write(&paths[0], bytes).unwrap();
    if let Some((whole, tail)) = mirror {
        let (bytes, entries, mirror_good) = hostile_copy::<L>(*whole, None, tail);
        // The longer intact prefix wins, the primary's on a tie.
        if mirror_good > good {
            expect = entries;
        }
        paths.push(scratch("hostile-mirror"));
        std::fs::write(&paths[1], bytes).unwrap();
    }
    let sizes = || -> Vec<u64> {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .collect()
    };

    prop_assert_eq!(L::open(&paths).unwrap().entries(), expect.clone());
    let healed = sizes();
    // A second open finds nothing to recover or heal.
    let mut log = L::open(&paths).unwrap();
    prop_assert_eq!(log.entries(), expect.clone());
    prop_assert_eq!(sizes(), healed);

    // Hostile bytes behind an open log's back cost no entry already seen.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&paths[0])
        .unwrap();
    file.write_all(appended).unwrap();
    log.refresh().unwrap();
    prop_assert!(log.entries().starts_with(&expect));
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes in either frame log, as its primary or a mirror or
    /// appended to a live primary, never panic it: open takes the longest
    /// whole-frame prefix, a second open recovers nothing, and a refresh
    /// never drops an entry already seen.
    #[test]
    fn hostile_bytes_never_panic_a_frame_log_or_cost_a_whole_frame(
        head in (0usize..4, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..120)),
        tail in proptest::collection::vec(any::<u8>(), 0..600),
        mirror in (0usize..4, proptest::collection::vec(any::<u8>(), 0..600)),
        mirrored in any::<bool>(),
        appended in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let (whole, sealed, body) = head;
        let primary = (whole, sealed.then_some(body), tail);
        let mirror = mirrored.then_some(&mirror);
        hostile_bytes_hold::<ReleaseLedger>(&primary, mirror, &appended)?;
        hostile_bytes_hold::<ClaimLog>(&primary, mirror, &appended)?;
    }
}
