//! The compute peel and the primitive probes of a traced run: every
//! layer below the drivers measured from outside, by timing calls into
//! its public functions.

use crate::host;
use crate::inputs::GDOS;
use crate::summary::{median, ms, paired_overhead, percentile};
use crate::trace::{accounted_share, Tracer};
use crate::verify::Auditor;
use gendpr_core::collusion::{evaluation_subsets, intersect_selections};
use gendpr_core::config::{FederationConfig, GwasParams};
use gendpr_core::gdo::GdoNode;
use gendpr_core::memo::MomentMemo;
use gendpr_core::messages::{CountsReport, MomentsReport, ProtocolMessage};
use gendpr_core::phases::ld::run_ld_scan;
use gendpr_core::phases::lrtest::{run_lr_test_threads, SelectionKernel};
use gendpr_core::phases::maf::{run_maf, MafOutcome};
use gendpr_core::protocol::Federation;
use gendpr_core::runtime::{run_federation_with, RuntimeOptions, RuntimeReport, CODE_IDENTITY};
use gendpr_crypto::aead::ChaCha20Poly1305;
use gendpr_crypto::rng::ChaChaRng;
use gendpr_crypto::{sha256, x25519};
use gendpr_fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr_fednet::transport::{Network, PeerId, Transport};
use gendpr_fednet::wire;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::LrColumns;
use gendpr_stats::ranking::{rank_by_association, SnpRank};
use gendpr_tee::attestation::AttestationService;
use gendpr_tee::platform::Platform;
use gendpr_tee::session::Handshake;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The options `gendpr assess` runs with.
#[must_use]
pub fn cli_options() -> RuntimeOptions {
    RuntimeOptions {
        timeout: Duration::from_secs(120),
        compact_lr: true,
        prefetch_ld: true,
        threads: 1,
        ..RuntimeOptions::default()
    }
}

/// One assessment through the driver `gendpr assess` calls.
///
/// # Errors
///
/// The protocol error, in words.
pub fn assess(
    config: FederationConfig,
    params: GwasParams,
    cohort: &Cohort,
) -> Result<RuntimeReport, String> {
    run_federation_with(config, params, cohort, None, cli_options())
        .map_err(|e| format!("assessment failed: {e}"))
}

/// What the peel measured, and the reference run it peeled.
pub struct Peel {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub samples: usize,
}

/// Peels one assessment of `cohort`: first the end-to-end reference
/// (`runs` rounds of one untraced and one traced call of the runtime
/// driver), then the same job stage by stage through the layers'
/// public functions — transposition, counts, MAF + ranking, the LD
/// scan, LR matrix build, LR search — asserting that the peeled l′, l″
/// and safe set equal the driver's. `pinned` is released before the
/// threaded LR search, the one stage meant to use several CPUs.
///
/// # Errors
///
/// A failed assessment, a certificate that does not verify, or a peeled
/// set that differs from the end-to-end run's.
#[allow(clippy::too_many_lines)] // one stage after another, each a few lines
pub fn peel(
    cohort: &Cohort,
    config: FederationConfig,
    params: GwasParams,
    runs: usize,
    pinned: Option<host::Pinned>,
    tracer: &Tracer,
) -> Result<Peel, String> {
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let auditor = Auditor::new(&config, &params, cohort);

    // ---- the end-to-end reference: each round assesses once untraced
    // and once traced, taking turns going first ----
    let silent = Tracer::new(false);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut reports: Vec<RuntimeReport> = Vec::new();
    for round in 0..runs {
        for traced_pass in [round % 2 == 1, round % 2 == 0] {
            let (recorder, samples) = if traced_pass {
                (tracer, &mut traced_ms)
            } else {
                (&silent, &mut plain_ms)
            };
            let job = round as u64;
            let (report, took) = recorder.time("assess.job", None, job, |root| {
                let (report, _) = recorder.time("core.runtime.run_federation", root, job, |call| {
                    let report = assess(config, params, cohort)?;
                    // The runtime reports its own phase walls; lay them
                    // back to back against the end of the call.
                    let end = Instant::now();
                    let t = &report.timings;
                    let mut at = end - t.total();
                    for (name, phase) in [
                        ("core.runtime.phase_aggregation", t.aggregation),
                        ("core.runtime.phase_indexing", t.indexing),
                        ("core.runtime.phase_ld", t.ld),
                        ("core.runtime.phase_lr", t.lr),
                    ] {
                        let id = recorder.open(name, call, job, at);
                        at += phase;
                        recorder.close(id, at);
                    }
                    Ok::<_, String>(report)
                });
                let report = report?;
                recorder
                    .time("core.certificate.verify", root, job, |_| {
                        auditor.check_assessment(&report)
                    })
                    .0?;
                Ok::<_, String>(report)
            });
            samples.push(ms(took));
            reports.push(report?);
        }
    }
    let reference = &reports[0];
    if reports.iter().any(|r| {
        r.safe_snps != reference.safe_snps || r.traffic.messages != reference.traffic.messages
    }) {
        return Err("the same assessment gave two different results".into());
    }
    let phase = |pick: fn(&RuntimeReport) -> Duration| {
        median(&reports.iter().map(|r| ms(pick(r))).collect::<Vec<_>>())
    };
    metrics.push((
        "core.runtime.phase_aggregation_ms",
        phase(|r| r.timings.aggregation),
    ));
    metrics.push((
        "core.runtime.phase_indexing_ms",
        phase(|r| r.timings.indexing),
    ));
    metrics.push(("core.runtime.phase_ld_ms", phase(|r| r.timings.ld)));
    metrics.push(("core.runtime.phase_lr_ms", phase(|r| r.timings.lr)));
    let plain_p50 = percentile(&plain_ms, 50);

    // Election + attestation + teardown alone: a one-SNP panel.
    let one_snp = cohort.column_range(0, 1);
    let mut fixed = Vec::new();
    for index in 0..5 {
        let (report, took) = tracer.time("core.runtime.elect_attest", None, index, |_| {
            assess(config, params, &one_snp)
        });
        report?;
        fixed.push(ms(took));
    }
    metrics.push(("core.runtime.elect_attest_ms", median(&fixed)));

    // ---- the peel ----
    const PEEL: u64 = u64::MAX;
    let reference_matrix = cohort.reference();
    let n_ref = reference_matrix.individuals() as u64;
    let shards = cohort.split_case_among(GDOS);
    let subsets = evaluation_subsets(config.gdo_count, config.collusion);
    let root = tracer.open("peel.job", None, PEEL, Instant::now());

    let ((nodes, ref_columnar), took) =
        tracer.time("genomics.columnar_transpose", root, PEEL, |_| {
            let nodes: Vec<GdoNode> = shards
                .into_iter()
                .enumerate()
                .map(|(id, shard)| GdoNode::new(id, shard))
                .collect();
            (nodes, ColumnarGenotypes::from_matrix(reference_matrix))
        });
    metrics.push(("genomics.columnar_transpose_ms", ms(took)));

    let ((counts, ref_counts), took) = tracer.time("genomics.column_counts", root, PEEL, |_| {
        let counts: Vec<CountsReport> = nodes.iter().map(GdoNode::counts_report).collect();
        (counts, reference_matrix.column_counts())
    });
    metrics.push(("genomics.column_counts_ms", ms(took)));

    let all_ids: Vec<SnpId> = (0..cohort.panel().len() as u32).map(SnpId).collect();
    let ((maf, rankings, l_prime), took) = tracer.time("stats.maf_rank", root, PEEL, |_| {
        let maf: Vec<MafOutcome> = subsets
            .iter()
            .map(|subset| {
                let reports: Vec<CountsReport> =
                    subset.iter().map(|&i| counts[i].clone()).collect();
                run_maf(&reports, ref_counts.clone(), n_ref, params.maf_cutoff)
            })
            .collect();
        let rankings: Vec<Vec<SnpRank>> = maf
            .iter()
            .map(|o| {
                rank_by_association(&all_ids, &o.case_counts, o.n_case, &o.ref_counts, o.n_ref)
            })
            .collect();
        let retained: Vec<Vec<SnpId>> = maf.iter().map(|o| o.retained.clone()).collect();
        let l_prime = intersect_selections(&retained);
        (maf, rankings, l_prime)
    });
    metrics.push(("stats.maf_rank_ms", ms(took)));

    let mut pairs: HashSet<(SnpId, SnpId)> = HashSet::new();
    let (l_double_prime, took) = tracer.time("stats.ld_scan", root, PEEL, |_| {
        let ref_memo = MomentMemo::new();
        let scans: Vec<Vec<SnpId>> = subsets
            .iter()
            .zip(&rankings)
            .map(|(subset, ranks)| {
                run_ld_scan(
                    &l_prime,
                    |a, b| {
                        pairs.insert((a, b));
                        let mut pooled = ref_memo.get_or_compute(a, b, || {
                            LdMoments::from_counts(
                                ref_counts[a.index()],
                                ref_counts[b.index()],
                                ref_columnar.pair_count(a, b),
                                n_ref,
                            )
                        });
                        for &i in subset {
                            pooled = pooled.merge(LdMoments::from(nodes[i].ld_moments(a, b)));
                        }
                        pooled
                    },
                    |s| ranks[s.index()].p_value,
                    params.ld_cutoff,
                )
            })
            .collect();
        intersect_selections(&scans)
    });
    let ld_pairs = pairs.len().max(1) as f64;
    metrics.push(("stats.ld_pairs", pairs.len() as f64));
    metrics.push(("stats.ld_pair_ns", took.as_secs_f64() * 1e9 / ld_pairs));
    metrics.push((
        "fednet.msgs_per_ld_pair",
        reference.traffic.messages as f64 / ld_pairs,
    ));

    let (matrices, took) = tracer.time("stats.lr_build", root, PEEL, |_| {
        subsets
            .iter()
            .zip(&maf)
            .map(|(subset, outcome)| {
                let freqs = |pick: fn(&MafOutcome, SnpId) -> f64| -> Vec<f64> {
                    l_double_prime.iter().map(|&s| pick(outcome, s)).collect()
                };
                let (case_freqs, ref_freqs) = (
                    freqs(MafOutcome::case_frequency),
                    freqs(MafOutcome::ref_frequency),
                );
                let views: Vec<&ColumnarGenotypes> =
                    subset.iter().map(|&i| nodes[i].columnar()).collect();
                (
                    LrColumns::from_columnar_parts(
                        &views,
                        &l_double_prime,
                        &case_freqs,
                        &ref_freqs,
                    ),
                    LrColumns::from_columnar(
                        &ref_columnar,
                        &l_double_prime,
                        &case_freqs,
                        &ref_freqs,
                    ),
                )
            })
            .collect::<Vec<_>>()
    });
    metrics.push(("stats.lr_build_ms", ms(took)));

    let search = |threads: usize| -> Vec<Vec<SnpId>> {
        matrices
            .iter()
            .zip(&rankings)
            .map(|((case, null), ranking)| {
                let ranks: Vec<SnpRank> =
                    l_double_prime.iter().map(|s| ranking[s.index()]).collect();
                run_lr_test_threads(
                    &l_double_prime,
                    case,
                    null,
                    &ranks,
                    &params.lr,
                    SelectionKernel::Fast,
                    threads,
                )
            })
            .collect()
    };
    let (selections, took) = tracer.time("stats.lr_search", root, PEEL, |_| search(1));
    metrics.push(("stats.lr_search_ms", ms(took)));
    tracer.close(root, Instant::now());
    let candidates = (l_double_prime.len() * subsets.len()) as f64;
    let accepted: usize = selections.iter().map(Vec::len).sum();
    metrics.push(("stats.lr_candidates", candidates));
    metrics.push((
        "stats.lr_accept_ratio",
        accepted as f64 / candidates.max(1.0),
    ));

    let safe = intersect_selections(&selections);
    if l_prime != reference.l_prime
        || l_double_prime != reference.l_double_prime
        || safe != reference.safe_snps
    {
        return Err(format!(
            "peel disagrees with the driver: l′ {}/{}, l″ {}/{}, safe {}/{}",
            l_prime.len(),
            reference.l_prime.len(),
            l_double_prime.len(),
            reference.l_double_prime.len(),
            safe.len(),
            reference.safe_snps.len()
        ));
    }

    // ---- the in-process driver: same phases, no messaging, no AEAD ----
    let mut inproc = Vec::new();
    for index in 0..3 {
        let (outcome, took) = tracer.time("core.protocol.inproc", None, index, |_| {
            Federation::new(config, params, cohort)
                .with_threads(1)
                .run()
        });
        let outcome = outcome.map_err(|e| format!("in-process run failed: {e}"))?;
        if outcome.safe_snps != reference.safe_snps {
            return Err("the in-process driver selected differently".into());
        }
        inproc.push(ms(took));
    }
    let inproc_ms = median(&inproc);

    // Everything above ran on the caller's one CPU; the row-chunked
    // search gets every CPU the process may use.
    drop(pinned);
    let (threaded, took) = tracer.time("stats.lr_search_threaded", None, PEEL, |_| {
        search(host::nproc())
    });
    metrics.push(("stats.lr_search_threaded_ms", ms(took)));
    if threaded != selections {
        return Err("the threaded LR search selected differently".into());
    }
    metrics.push(("core.protocol.inproc_ms", inproc_ms));
    metrics.push(("core.runtime.overhead_ms", plain_p50 - inproc_ms));
    // Each round assessed the cohort untraced and traced: pair them.
    let pairs: Vec<(f64, f64)> = plain_ms
        .iter()
        .copied()
        .zip(traced_ms.iter().copied())
        .collect();
    metrics.push(("trace.overhead_share", paired_overhead(&pairs)));
    metrics.push((
        "trace.accounted_share",
        accounted_share(&tracer.spans(), "assess.job"),
    ));

    Ok(Peel {
        metrics,
        attempted: reports.len() as u64,
        samples: traced_ms.len(),
    })
}

/// Runs `body` for at least `budget` (and at least three times) and
/// returns the median time of one call.
fn per_call(budget: Duration, mut body: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        body();
        samples.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(median(&samples))
}

/// Like [`per_call`] for calls too short to time singly: batches of
/// `batch` calls, median batch ÷ `batch`.
fn per_call_batched(budget: Duration, batch: u32, mut body: impl FnMut()) -> Duration {
    per_call(budget, || (0..batch).for_each(|_| body())) / batch
}

/// The input-independent probes: crypto primitives, the attested
/// session, the wire codec and both transports.
///
/// # Errors
///
/// A transport that could not be set up.
#[allow(clippy::too_many_lines)] // one probe after another, each a few lines
pub fn primitives(smoke: bool, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let budget = Duration::from_millis(if smoke { 20 } else { 150 });
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let root = tracer.open("probes", None, 0, Instant::now());
    let mb_s = |bytes: usize, per: Duration| bytes as f64 / 1e6 / per.as_secs_f64();

    // ---- crypto: the AEAD every message passes, on a wire-sized and a
    // matrix-sized buffer (reported on the larger), hashing, key exchange
    let cipher = ChaCha20Poly1305::new(&[7u8; 32]);
    let nonce = [1u8; 12];
    let small = vec![0x55u8; 16 << 10];
    let large = vec![0x55u8; 1 << 20];
    let (_, _) = tracer.time("crypto.aead", root, 0, |_| {
        let sealed_small = cipher.seal(&nonce, &small, b"aad");
        let sealed_large = cipher.seal(&nonce, &large, b"aad");
        let seal = per_call(budget, || {
            black_box(cipher.seal(black_box(&nonce), black_box(&small), b"aad"));
            black_box(cipher.seal(black_box(&nonce), black_box(&large), b"aad"));
        });
        let open = per_call(budget, || {
            black_box(
                cipher
                    .open(&nonce, black_box(&sealed_small), b"aad")
                    .is_ok(),
            );
            black_box(
                cipher
                    .open(&nonce, black_box(&sealed_large), b"aad")
                    .is_ok(),
            );
        });
        metrics.push((
            "crypto.aead_seal_mb_s",
            mb_s(small.len() + large.len(), seal),
        ));
        metrics.push((
            "crypto.aead_open_mb_s",
            mb_s(small.len() + large.len(), open),
        ));
    });
    let (_, _) = tracer.time("crypto.sha256", root, 0, |_| {
        let hash = per_call(budget, || {
            black_box(sha256::digest(black_box(&large)));
        });
        metrics.push(("crypto.sha256_mb_s", mb_s(large.len(), hash)));
    });
    let mut rng = ChaChaRng::from_seed_u64(1);
    let (_, _) = tracer.time("crypto.x25519", root, 0, |_| {
        let secret = x25519::clamp_scalar(rng.gen_key());
        let peer = x25519::public_key(&x25519::clamp_scalar(rng.gen_key()));
        let dh = per_call(budget, || {
            black_box(x25519::diffie_hellman(black_box(&secret), black_box(&peer)));
        });
        metrics.push(("crypto.x25519_us", dh.as_secs_f64() * 1e6));
    });

    // ---- tee: quote + verify + session establishment, then one
    // 256-byte message sealed on one side and opened on the other
    let service = AttestationService::new(&mut rng);
    let a = Platform::new("gdo-a", &service, &mut rng).launch_enclave(CODE_IDENTITY, ());
    let b = Platform::new("gdo-b", &service, &mut rng).launch_enclave(CODE_IDENTITY, ());
    let measurement = a.measurement();
    let mut establish = || {
        let (ha, hb) = (
            Handshake::start(&a, &mut rng),
            Handshake::start(&b, &mut rng),
        );
        let (ma, mb) = (ha.message().clone(), hb.message().clone());
        (
            ha.complete(&mb, &measurement).expect("attested peer"),
            hb.complete(&ma, &measurement).expect("attested peer"),
        )
    };
    let (_, _) = tracer.time("tee.attest_handshake", root, 0, |_| {
        let handshake = per_call(budget, || {
            black_box(establish());
        });
        metrics.push(("tee.attest_handshake_ms", ms(handshake)));
    });
    let (mut left, mut right) = establish();
    let payload = [0xabu8; 256];
    let (_, _) = tracer.time("tee.session_roundtrip", root, 0, |_| {
        let roundtrip = per_call_batched(budget, 64, || {
            let sealed = left.send(black_box(&payload), b"aad");
            black_box(right.recv(&sealed, b"aad").expect("in-order message"));
        });
        metrics.push(("tee.session_roundtrip_us", roundtrip.as_secs_f64() * 1e6));
    });

    // ---- fednet: the codec on an LD-moment reply, then one frame
    // ping-ponged between two endpoints of each transport, no faults
    let message = ProtocolMessage::Moments(vec![MomentsReport {
        sum_x: 1_204,
        sum_y: 987,
        sum_xy: 411,
        sum_xx: 1_204,
        sum_yy: 987,
        n: 3_715,
    }]);
    let encoded = wire::to_bytes(&message);
    let (_, _) = tracer.time("fednet.wire", root, 0, |_| {
        let encode = per_call_batched(budget, 256, || {
            black_box(wire::to_bytes(black_box(&message)));
        });
        let decode = per_call_batched(budget, 256, || {
            black_box(wire::from_bytes::<ProtocolMessage>(black_box(&encoded)).is_ok());
        });
        metrics.push(("fednet.wire_encode_ns", encode.as_secs_f64() * 1e9));
        metrics.push(("fednet.wire_decode_ns", decode.as_secs_f64() * 1e9));
    });

    let frame = encoded.clone();
    let wait = Duration::from_secs(5);
    let pingpong = |near: &dyn Transport, far: &dyn Transport| -> Result<(), String> {
        near.send(far.id(), frame.clone(), frame.len())
            .and_then(|()| far.recv_timeout(wait))
            .and_then(|env| far.send(near.id(), env.payload, frame.len()))
            .and_then(|()| near.recv_timeout(wait))
            .map(|_| ())
            .map_err(|e| format!("transport ping-pong: {e}"))
    };
    let network = Network::new();
    let (m0, m1) = (network.register(PeerId(0)), network.register(PeerId(1)));
    let (roster, listeners) =
        ephemeral_listeners(2).map_err(|e| format!("localhost listeners: {e}"))?;
    let mut sockets = listeners.into_iter().enumerate().map(|(id, listener)| {
        TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
            .map_err(|e| format!("tcp endpoint: {e}"))
    });
    let (t0, t1) = (
        sockets.next().expect("two listeners")?,
        sockets.next().expect("two listeners")?,
    );
    // The first exchange dials the connections; it is not timed.
    pingpong(&t0, &t1)?;
    let mut failure = None;
    for (name, span, near, far) in [
        (
            "fednet.mem_roundtrip_us",
            "fednet.mem_roundtrip",
            &m0 as &dyn Transport,
            &m1 as &dyn Transport,
        ),
        ("fednet.tcp_roundtrip_us", "fednet.tcp_roundtrip", &t0, &t1),
    ] {
        let (_, _) = tracer.time(span, root, 0, |_| {
            let roundtrip = per_call_batched(budget, 32, || {
                if let Err(e) = pingpong(near, far) {
                    failure.get_or_insert(e);
                }
            });
            metrics.push((name, roundtrip.as_secs_f64() * 1e6));
        });
    }
    tracer.close(root, Instant::now());
    failure.map_or(Ok(metrics), Err)
}
