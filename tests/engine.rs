//! Pins the one-shot runtime's wire schedule and outputs against
//! constants captured at commit 5eeceba (the parent of the change that
//! moved `leader_main` onto the shared assessment engine): for one fixed
//! study, every `(compact_lr, prefetch_ld)` combination must put exactly
//! the same number of messages and bytes on the wire, select the same
//! L′ / L″ / L_safe and sign the same certificate — on the in-memory
//! fabric, and over real TCP sockets. The same schedule bounds how many
//! wakes the in-memory fabric issues for it.
//!
//! Below that, the *order* of the leader's phase 2 against the parent of
//! the change that put every collusion subset's live LD round in flight
//! together (commit 04b1678, one round at a time): how often the leader
//! turns from sending to waiting, the unchanged event-for-event schedule
//! of a one-subset run, and a member crashing with several rounds open.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::messages::{MomentsRequest, ProtocolMessage};
use gendpr::core::runtime::{
    run_federation_over, run_federation_with, run_member, MemberOutcome, RuntimeOptions,
    RuntimeReport,
};
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::{Endpoint, Envelope, NetError, Network, PeerId, Transport};
use gendpr::fednet::{wire, FaultPlan, TrafficStats};
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::stats::lr::LrTestParams;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const G: usize = 3;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(96)
        .case_individuals(110)
        .reference_individuals(90)
        .seed(53)
        .drift(0.25)
        .build()
}

fn config() -> FederationConfig {
    // Fixed(1): three pair subsets plus the full roster, so per-subset
    // prefetch rounds and LR collections all appear in the schedule.
    FederationConfig::new(G)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(19)
}

fn params() -> GwasParams {
    GwasParams {
        maf_cutoff: 0.05,
        ld_cutoff: 1e-5,
        lr: LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        },
    }
}

fn options(compact_lr: bool, prefetch_ld: bool) -> RuntimeOptions {
    RuntimeOptions {
        timeout: Duration::from_secs(30),
        compact_lr,
        prefetch_ld,
        ..RuntimeOptions::default()
    }
}

/// What one run put on the wire and what it decided.
#[derive(Debug, PartialEq, Eq)]
struct Witness {
    messages: u64,
    wire_bytes: u64,
    l_prime: usize,
    l_double_prime: usize,
    safe: Vec<u32>,
    certificate: String,
}

fn witness(report: &RuntimeReport) -> Witness {
    Witness {
        messages: report.traffic.messages,
        wire_bytes: report.traffic.wire_bytes,
        l_prime: report.l_prime.len(),
        l_double_prime: report.l_double_prime.len(),
        safe: report.safe_snps.iter().map(|s| s.0).collect(),
        certificate: report.certificate.fingerprint(),
    }
}

// Captured at commit 5eeceba with the settings above.
const L_PRIME: usize = 88;
const L_DOUBLE_PRIME: usize = 20;
const SAFE: &[u32] = &[1, 15, 29, 33, 68, 76, 77, 94];
const CERTIFICATE: &str = "2cbf74e6381be5ea";

/// `(compact_lr, prefetch_ld, messages, wire_bytes)` on the in-memory
/// fabric at commit 5eeceba.
const SCHEDULES: [(bool, bool, u64, u64); 4] = [
    (false, false, 1078, 123_500),
    (false, true, 488, 106_376),
    (true, false, 1078, 90_212),
    (true, true, 488, 73_088),
];

/// Wire bytes of the `(true, true)` schedule over `TcpTransport` at commit
/// 5eeceba (same 488 messages; TCP framing costs 24 bytes a message more).
const TCP_WIRE_BYTES: u64 = 84_800;

fn pinned(messages: u64, wire_bytes: u64) -> Witness {
    Witness {
        messages,
        wire_bytes,
        l_prime: L_PRIME,
        l_double_prime: L_DOUBLE_PRIME,
        safe: SAFE.to_vec(),
        certificate: CERTIFICATE.to_string(),
    }
}

#[test]
fn one_shot_wire_schedule_is_pinned_for_every_option_combination() {
    for (compact_lr, prefetch_ld, messages, wire_bytes) in SCHEDULES {
        let report = run_federation_with(
            config(),
            params(),
            study(),
            None,
            options(compact_lr, prefetch_ld),
        )
        .unwrap();
        assert_eq!(
            witness(&report),
            pinned(messages, wire_bytes),
            "compact_lr={compact_lr} prefetch_ld={prefetch_ld}"
        );
    }
}

#[test]
fn one_shot_wire_schedule_is_pinned_over_tcp() {
    // The CLI's combination: same message schedule, TCP's own framing.
    let (compact_lr, prefetch_ld, messages, _) = SCHEDULES[3];
    let (roster, listeners) = ephemeral_listeners(G).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect();
    let report = run_federation_over(
        transports,
        config(),
        params(),
        study(),
        options(compact_lr, prefetch_ld),
    )
    .unwrap();
    assert_eq!(witness(&report), pinned(messages, TCP_WIRE_BYTES));
}

/// `(prefetch_ld, messages, most fabric wakes)` of the study above on the
/// in-memory fabric. At commit bfcf3ae, before fan-outs went out as
/// bursts, every message was its own wake (wakes = messages); at 1526b97
/// a fan-out woke each destination once and every reply was its own wake
/// (730 and 345). Now a serving follower is handed the leader's frames on
/// the leader's thread, which is no wake: what is left is each batch of
/// its replies and the frames of election, attestation and counts (546
/// and 251 measured). A follower that starts serving only after the
/// leader's first broadcast reached it costs that frame a wake, so the
/// bound allows one more per follower (G − 1).
const WAKES: [(bool, u64, u64); 2] = [(false, 1078, 548), (true, 488, 253)];

#[test]
fn a_fan_out_wakes_each_destination_once() {
    for (prefetch_ld, messages, most_wakes) in WAKES {
        let network = Network::new();
        let transports: Vec<Endpoint> = (0..G)
            .map(|id| network.register(PeerId(id as u32)))
            .collect();
        let report = run_federation_over(
            transports,
            config(),
            params(),
            study(),
            options(true, prefetch_ld),
        )
        .unwrap();
        assert_eq!(witness(&report).safe, SAFE, "prefetch_ld={prefetch_ld}");
        assert_eq!(
            network.total_stats().messages,
            messages,
            "prefetch_ld={prefetch_ld}"
        );
        let wakes = network.wakes();
        assert!(
            wakes <= most_wakes && wakes < messages,
            "prefetch_ld={prefetch_ld}: {wakes} wakes for {messages} messages"
        );
    }
}

/// Leader enclave peak of the compact runs at commit e45d434, the last one
/// whose leader packed genotypes row-major, cell by cell, and held parts,
/// merged matrix and null model together.
const ROW_MAJOR_COMPACT_LEADER_PEAK: u64 = 5_616;

fn leader_peak(report: &RuntimeReport) -> u64 {
    report
        .resources
        .iter()
        .find(|m| m.id == report.leader)
        .expect("leader reports resources")
        .peak_enclave_bytes
}

#[test]
fn compact_leader_peak_on_this_study_is_not_above_the_row_major_engines() {
    // The session-long SNP-major reference (N_ref × L_des / 8 bytes) is new
    // metered state. On this narrow study, releasing the parts once they
    // are stitched pays for it; on wide panels the reference dominates
    // (EXPERIMENTS.md, Table 3).
    let run = |compact_lr| {
        run_federation_with(config(), params(), study(), None, options(compact_lr, true)).unwrap()
    };
    let (dense, compact) = (run(false), run(true));
    assert_eq!(dense.safe_snps, compact.safe_snps);
    assert_eq!(dense.traffic.messages, compact.traffic.messages);
    assert!(
        leader_peak(&compact) <= ROW_MAJOR_COMPACT_LEADER_PEAK,
        "compact leader peak {} above the row-major engine's {ROW_MAJOR_COMPACT_LEADER_PEAK}",
        leader_peak(&compact)
    );
    assert!(leader_peak(&compact) < leader_peak(&dense));
}

/// One crossing of a member's endpoint: `(peer, sent, length)` — the
/// plaintext length of a send, the payload length of a receive.
type Event = (u32, bool, usize);
type Log = Arc<Mutex<Vec<Event>>>;

/// An in-memory endpoint that records what crosses it, in order.
struct Recording {
    inner: Endpoint,
    log: Log,
}

impl Transport for Recording {
    fn id(&self) -> PeerId {
        self.inner.id()
    }
    fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
        self.log.lock().unwrap().push((to.0, true, plaintext_len));
        self.inner.send(to, payload, plaintext_len)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        let env = self.inner.recv_timeout(timeout)?;
        let event = (env.from.0, false, env.payload.len());
        self.log.lock().unwrap().push(event);
        Ok(env)
    }
    fn set_faults(&self, faults: FaultPlan) {
        self.inner.set_faults(faults);
    }
    fn link_stats(&self, to: PeerId) -> TrafficStats {
        self.inner.link_stats(to)
    }
    fn egress_stats(&self) -> TrafficStats {
        self.inner.egress_stats()
    }
    fn ingress_stats(&self) -> TrafficStats {
        self.inner.ingress_stats()
    }
}

/// `g` recording endpoints on a fresh fabric under `faults`, and their logs
/// by member id.
fn recording_fabric(g: usize, faults: Option<FaultPlan>) -> (Vec<Recording>, Vec<Log>) {
    let network = Network::new();
    if let Some(faults) = faults {
        network.set_faults(faults);
    }
    let logs: Vec<Log> = (0..g).map(|_| Log::default()).collect();
    let transports = logs
        .iter()
        .enumerate()
        .map(|(id, log)| Recording {
            inner: network.register(PeerId(id as u32)),
            log: Arc::clone(log),
        })
        .collect();
    (transports, logs)
}

/// Plaintext length of a live round's request: only a one-pair
/// `MomentsRequest` has it.
fn live_request_len() -> usize {
    wire::to_bytes(&ProtocolMessage::MomentsRequest(vec![MomentsRequest {
        a: 0,
        b: 0,
    }]))
    .len()
}

/// `(live requests sent, times a live request was directly followed by a
/// receive)` in one member's log: how many sequential waits its live
/// rounds cost it.
fn live_rounds(log: &[Event]) -> (usize, usize) {
    let len = live_request_len();
    let live = |e: &Event| e.1 && e.2 == len;
    (
        log.iter().filter(|e| live(e)).count(),
        log.windows(2).filter(|w| live(&w[0]) && !w[1].1).count(),
    )
}

/// `(prefetch_ld, live requests sent, leader turnarounds at the parent,
/// leader turnarounds now)` for the study above under `Fixed(1)`. The
/// parent waited once per live round (Σ over the four subsets of their
/// misses); now the leader waits once per round of rounds (the largest
/// subset's misses).
const LIVE_TURNAROUNDS: [(bool, usize, usize, usize); 2] =
    [(false, 522, 348, 87), (true, 221, 148, 40)];

#[test]
fn collusion_subsets_share_the_leaders_phase_two_waits() {
    for (prefetch_ld, requests, parent, now) in LIVE_TURNAROUNDS {
        let (transports, logs) = recording_fabric(G, None);
        let report = run_federation_over(
            transports,
            config(),
            params(),
            study(),
            options(true, prefetch_ld),
        )
        .unwrap();
        let log = logs[report.leader].lock().unwrap();
        assert_eq!(
            live_rounds(&log),
            (requests, now),
            "prefetch_ld={prefetch_ld}"
        );
        assert!(now < parent);
    }
}

/// `(prefetch_ld, events, FNV-1a of the events)` of the leader's whole log
/// at the parent for the study above with two members and no collusion
/// tolerance: one peer, so the log is the same on every run.
const ONE_SUBSET_LEADER_LOG: [(bool, usize, u64); 2] = [
    (false, 187, 1_824_187_798_185_935_957),
    (true, 91, 3_966_476_611_880_625_965),
];

#[test]
fn with_one_subset_the_leaders_schedule_is_the_parents_event_for_event() {
    for (prefetch_ld, events, fingerprint) in ONE_SUBSET_LEADER_LOG {
        let (transports, logs) = recording_fabric(2, None);
        let report = run_federation_over(
            transports,
            FederationConfig::new(2).with_seed(19),
            params(),
            study(),
            options(true, prefetch_ld),
        )
        .unwrap();
        let log = logs[report.leader].lock().unwrap();
        let fnv = log
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &(peer, sent, len)| {
                [u64::from(peer), u64::from(sent), len as u64]
                    .iter()
                    .fold(h, |h, v| (h ^ v).wrapping_mul(0x0100_0000_01b3))
            });
        assert_eq!(
            (log.len(), fnv),
            (events, fingerprint),
            "prefetch_ld={prefetch_ld}"
        );
    }
}

/// Runs every member of a five-member `Fixed(1)` federation on its own
/// thread over recording endpoints and returns each member's own outcome
/// (not folded into one report) with the logs.
fn run_members(
    cohort: &Cohort,
    seed: u64,
    faults: FaultPlan,
) -> (Vec<Result<MemberOutcome, ProtocolError>>, Vec<Log>) {
    let g = 5;
    let config = FederationConfig::new(g)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(seed);
    let options = RuntimeOptions {
        timeout: Duration::from_secs(2),
        ..RuntimeOptions::default()
    };
    let (transports, logs) = recording_fabric(g, Some(faults));
    let reference = cohort.reference();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .zip(cohort.split_case_among(g))
            .enumerate()
            .map(|(id, (transport, shard))| {
                scope.spawn(move || {
                    let params = GwasParams::secure_genome_defaults();
                    run_member(transport, id, &config, &params, options, shard, reference)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("member thread must not panic"))
            .collect()
    });
    (outcomes, logs)
}

#[test]
fn a_member_crashing_with_several_live_rounds_open_aborts_or_reforms_as_before() {
    // Four case genomes among five members leave member 4 an empty shard,
    // so the survivors hold the whole cohort. It dies after its second
    // moments reply (4 commits + 4 reveals + handshake + counts = 10 sends
    // before phase 2), while the leader has a live round open with it for
    // every subset it sits in.
    let study = SyntheticCohort::builder()
        .snps(100)
        .case_individuals(4)
        .reference_individuals(60)
        .seed(23)
        .build();
    let cohort: &Cohort = study.as_ref();
    let victim = 4;
    let clean_leader = |seed| {
        let (outcomes, _) = run_members(cohort, seed, FaultPlan::none());
        outcomes[0].as_ref().expect("crash-free run").leader
    };
    let (seed, leader) = (17..40)
        .map(|seed| (seed, clean_leader(seed)))
        .find(|&(_, leader)| leader != victim)
        .expect("some seed elects a leader other than member 4");
    let mut faults = FaultPlan::none();
    faults.crash_after_sends(victim as u32, 12);

    // The parent's error at every member, and one notice (the only
    // message with a plaintext after the last live request) per peer.
    let (outcomes, logs) = run_members(cohort, seed, faults);
    for (id, outcome) in outcomes.iter().enumerate() {
        let expected = if id == leader {
            ProtocolError::MemberUnresponsive {
                member: victim,
                phase: "ld-moments",
            }
        } else if id == victim {
            ProtocolError::MemberUnresponsive {
                member: leader,
                phase: "awaiting-leader",
            }
        } else {
            ProtocolError::MemberUnresponsive {
                member: leader,
                phase: "aborted-by-leader",
            }
        };
        assert_eq!(outcome.as_ref().unwrap_err(), &expected, "member {id}");
    }
    let log = logs[leader].lock().unwrap();
    let live = live_request_len();
    let to_victim = |e: &&Event| e.0 == victim as u32 && e.1 && e.2 == live;
    assert!(
        log.iter().filter(to_victim).count() >= 2 + 2,
        "the victim answered two live requests; at least two more must be open"
    );
    let last_request = log.iter().rposition(|e| e.1 && e.2 == live).unwrap();
    for peer in (0..5).filter(|&p| p != leader) {
        let notices = log[last_request + 1..]
            .iter()
            .filter(|e| e.0 == peer as u32 && e.1 && e.2 > 0)
            .count();
        assert_eq!(notices, 1, "peer {peer}");
    }
}
