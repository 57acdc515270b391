//! Property-based tests of the wire codec and protocol messages: every
//! value round-trips, and no mutated byte stream is silently accepted as
//! a *different* valid value of unexpected shape.

use gendpr::core::messages::{
    CountsReport, LrReport, MomentsReport, MomentsRequest, Phase1Broadcast, Phase2Broadcast,
    ProtocolMessage,
};
use gendpr::fednet::tcp::{
    decode_frame, encode_frame, FrameError, TcpFrame, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use gendpr::fednet::wire::{from_bytes, to_bytes, Decode, Encode, Reader, WireError};
use gendpr::fednet::wire_struct;
use proptest::prelude::*;

/// The element-wise encoding of `items`: one [`Encode::encode`] each.
fn encode_each<T: Encode>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    for item in items {
        item.encode(&mut buf);
    }
    buf
}

/// `words` cast to another number type.
fn cast<T>(words: &[u64], f: impl Fn(u64) -> T) -> Vec<T> {
    words.iter().map(|&w| f(w)).collect()
}

/// One fixed-width number type's bulk codec against the element-wise
/// loop. `Vec<T>` encodes to its length prefix and the elements' bytes.
/// The body of that encoding, cut short by `cut` bytes, decoded as
/// `claimed` elements gives the same values (compared as bytes, so NaN
/// payloads count) or the same error either way, and leaves the reader at
/// the same place.
fn bulk_matches_element_wise<T: Encode + Decode + Clone>(
    items: &[T],
    cut: usize,
    claimed: usize,
) -> Result<(), TestCaseError> {
    let mut expected = (items.len() as u64).to_le_bytes().to_vec();
    expected.extend(encode_each(items));
    prop_assert_eq!(to_bytes(&items.to_vec()), expected.clone());

    let body = &expected[8..expected.len() - cut.min(expected.len() - 8)];
    let (mut bulk, mut each) = (Reader::new(body), Reader::new(body));
    let decoded = T::decode_all(&mut bulk, claimed).map(|v| encode_each(&v));
    let reference = (0..claimed)
        .map(|_| T::decode(&mut each))
        .collect::<Result<Vec<T>, _>>()
        .map(|v| encode_each(&v));
    prop_assert_eq!(decoded, reference);
    prop_assert_eq!(bulk.remaining(), each.remaining());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counts_report_roundtrips(counts in proptest::collection::vec(any::<u64>(), 0..300), n_case in any::<u64>()) {
        let msg = CountsReport { counts, n_case };
        let back: CountsReport = from_bytes(&to_bytes(&msg)).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn phase2_broadcast_roundtrips(
        retained in proptest::collection::vec(any::<u32>(), 0..100),
        freqs in proptest::collection::vec(0.0f64..1.0, 0..100),
    ) {
        let msg = Phase2Broadcast {
            retained,
            case_freqs: freqs.clone(),
            ref_freqs: freqs,
        };
        let back: Phase2Broadcast = from_bytes(&to_bytes(&msg)).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn lr_report_roundtrips(rows in 0u64..20, cols in 0u64..20) {
        let msg = LrReport {
            individuals: rows,
            snps: cols,
            values: vec![0.5; (rows * cols) as usize],
        };
        let back: LrReport = from_bytes(&to_bytes(&msg)).unwrap();
        prop_assert_eq!(back.clone(), msg);
        prop_assert!(back.into_matrix().is_ok());
    }

    #[test]
    fn protocol_message_roundtrips(tag in 0u8..4, payload in proptest::collection::vec(any::<u32>(), 0..50)) {
        let msg = match tag {
            0 => ProtocolMessage::Phase1(Phase1Broadcast { retained: payload }),
            1 => ProtocolMessage::Counts(CountsReport {
                counts: payload.iter().map(|&x| u64::from(x)).collect(),
                n_case: payload.len() as u64,
            }),
            2 => ProtocolMessage::Abort(format!("{payload:?}")),
            _ => ProtocolMessage::Phase3(gendpr::core::messages::Phase3Broadcast {
                safe: payload,
            }),
        };
        let back: ProtocolMessage = from_bytes(&to_bytes(&msg)).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        counts in proptest::collection::vec(any::<u64>(), 1..50),
        cut in 1usize..8,
    ) {
        let msg = CountsReport { counts, n_case: 1 };
        let bytes = to_bytes(&msg);
        let truncated = &bytes[..bytes.len() - cut.min(bytes.len())];
        prop_assert!(from_bytes::<CountsReport>(truncated).is_err());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Decoding hostile input must fail cleanly, never panic or OOM.
        let _ = from_bytes::<ProtocolMessage>(&bytes);
        let _ = from_bytes::<CountsReport>(&bytes);
        let _ = from_bytes::<LrReport>(&bytes);
    }

    /// Every fixed-width number type, bulk against element-wise: whole,
    /// truncated, and claimed as fewer, as many, more or hostilely many
    /// elements than the body holds.
    #[test]
    fn bulk_number_codecs_match_element_wise(
        words in proptest::collection::vec(any::<u64>(), 0..40),
        cut in 0usize..24,
        claim in 0usize..48,
        hostile in any::<bool>(),
    ) {
        let claimed = if hostile { usize::MAX - claim } else { claim };
        bulk_matches_element_wise::<u16>(&cast(&words, |w| w as u16), cut, claimed)?;
        bulk_matches_element_wise::<u32>(&cast(&words, |w| w as u32), cut, claimed)?;
        bulk_matches_element_wise::<u64>(&words, cut, claimed)?;
        bulk_matches_element_wise::<i8>(&cast(&words, |w| w as i8), cut, claimed)?;
        bulk_matches_element_wise::<i16>(&cast(&words, |w| w as i16), cut, claimed)?;
        bulk_matches_element_wise::<i32>(&cast(&words, |w| w as i32), cut, claimed)?;
        bulk_matches_element_wise::<i64>(&cast(&words, |w| w as i64), cut, claimed)?;
        bulk_matches_element_wise::<f32>(&cast(&words, |w| f32::from_bits(w as u32)), cut, claimed)?;
        bulk_matches_element_wise::<f64>(&cast(&words, f64::from_bits), cut, claimed)?;
    }

    /// The moment vectors' bulk codecs against their field-by-field
    /// decode, cut anywhere (mid-field too) and claimed short, long or
    /// hostile; and a whole `Moments` message round-trips.
    #[test]
    fn bulk_moment_codecs_match_element_wise(
        words in proptest::collection::vec(any::<u64>(), 0..60),
        cut in 0usize..60,
        claim in 0usize..16,
        hostile in any::<bool>(),
    ) {
        let claimed = if hostile { usize::MAX - claim } else { claim };
        let reports: Vec<MomentsReport> = words
            .chunks_exact(6)
            .map(|w| MomentsReport {
                sum_x: w[0],
                sum_y: w[1],
                sum_xy: w[2],
                sum_xx: w[3],
                sum_yy: w[4],
                n: w[5],
            })
            .collect();
        let requests: Vec<MomentsRequest> = words
            .iter()
            .map(|&w| MomentsRequest { a: w as u32, b: (w >> 32) as u32 })
            .collect();
        bulk_matches_element_wise(&reports, cut, claimed)?;
        bulk_matches_element_wise(&requests, cut, claimed)?;
        let message = ProtocolMessage::Moments(reports);
        prop_assert_eq!(from_bytes::<ProtocolMessage>(&to_bytes(&message)).unwrap(), message);
    }

    #[test]
    fn appended_garbage_is_rejected(extra in 1usize..10) {
        let msg = CountsReport { counts: vec![1, 2, 3], n_case: 3 };
        let mut bytes = to_bytes(&msg);
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(from_bytes::<CountsReport>(&bytes).is_err());
    }

    #[test]
    fn adversarial_vec_length_prefixes_never_outallocate_the_body(
        claimed in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A hostile length prefix must be bounded by what the body could
        // actually hold at each element type's minimum wire width — a
        // claim the pre-check lets through can reserve at most the body
        // it arrived in, never `claimed * size_of::<T>()`.
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.extend(&tail);
        if let Ok(v) = from_bytes::<Vec<u64>>(&bytes) {
            prop_assert!(v.len() * 8 <= tail.len());
        }
        if let Ok(v) = from_bytes::<Vec<u32>>(&bytes) {
            prop_assert!(v.len() * 4 <= tail.len());
        }
        if let Ok(v) = from_bytes::<Vec<f64>>(&bytes) {
            prop_assert!(v.len() * 8 <= tail.len());
        }
        if let Ok(v) = from_bytes::<Vec<String>>(&bytes) {
            // A String is at least its 8-byte length prefix on the wire.
            prop_assert!(v.len() * 8 <= tail.len());
        }
    }

    #[test]
    fn length_prefix_claims_are_checked_against_element_width(
        n in 1u64..1_000_000,
        tail_len in 0usize..64,
    ) {
        // Claim `n` u64 elements while shipping fewer than n*8 body bytes:
        // the decoder must reject before reserving anything.
        prop_assume!((tail_len as u64) < n.saturating_mul(8));
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0u8, tail_len));
        prop_assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tcp_frame_roundtrips(
        from in any::<u32>(),
        plaintext_len in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        let frame = TcpFrame { from, plaintext_len, payload };
        let bytes = encode_frame(&frame).unwrap();
        let (back, consumed) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn truncated_frames_ask_for_more_and_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..500),
        keep_frac in 0.0f64..1.0,
    ) {
        let frame = TcpFrame { from: 1, plaintext_len: 9, payload };
        let bytes = encode_frame(&frame).unwrap();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        prop_assume!(keep < bytes.len());
        match decode_frame(&bytes[..keep]) {
            Err(FrameError::Incomplete { have, need }) => {
                prop_assert_eq!(have, keep);
                prop_assert!(need > keep, "must ask for more than it has");
                prop_assert!(need <= bytes.len(), "must never ask past the frame");
            }
            other => prop_assert!(false, "expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating(
        claimed in (MAX_FRAME_BYTES as u32 + 1)..=u32::MAX,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.extend(garbage);
        prop_assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::TooLarge { claimed: u64::from(claimed) }
        );
    }

    #[test]
    fn random_frame_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_frame(&bytes);
    }

    #[test]
    fn decode_consumes_exactly_one_frame_from_a_stream(
        payload in proptest::collection::vec(any::<u8>(), 0..100),
        extra in proptest::collection::vec(any::<u8>(), 1..50),
    ) {
        // Streaming: decode one frame, report its size, leave the rest alone.
        let frame = TcpFrame { from: 7, plaintext_len: 3, payload };
        let mut bytes = encode_frame(&frame).unwrap();
        let framed_len = bytes.len();
        bytes.extend(&extra);
        let (back, consumed) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(consumed, framed_len);
        prop_assert_eq!(back, frame);
    }
}

/// The element-by-element `Vec<u8>` codec that bytes went through before
/// they were copied as one slice, kept as the oracle the slice codec must
/// reproduce byte for byte and error for error.
#[derive(Debug, Clone, PartialEq)]
struct Byte(u8);

impl Encode for Byte {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }
}

impl Decode for Byte {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take(1)?;
        Ok(Self(u8::from_le_bytes([bytes[0]])))
    }
}

/// `TcpFrame` with its payload on the element-wise oracle.
#[derive(Debug, Clone, PartialEq)]
struct OracleTcpFrame {
    from: u32,
    plaintext_len: u64,
    payload: Vec<Byte>,
}
wire_struct!(OracleTcpFrame {
    from,
    plaintext_len,
    payload
});

/// Both decoders' verdicts on `bytes`, the payload as plain bytes.
type Verdicts = (
    Result<(u32, u64, Vec<u8>), WireError>,
    Result<(u32, u64, Vec<u8>), WireError>,
);

fn decode_both(bytes: &[u8]) -> Verdicts {
    (
        from_bytes::<TcpFrame>(bytes).map(|f| (f.from, f.plaintext_len, f.payload)),
        from_bytes::<OracleTcpFrame>(bytes).map(|f| {
            let payload = f.payload.into_iter().map(|b| b.0).collect();
            (f.from, f.plaintext_len, payload)
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tcp_frames_encode_identically_under_the_slice_codec(
        from in any::<u32>(),
        plaintext_len in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let oracle = OracleTcpFrame {
            from,
            plaintext_len,
            payload: payload.iter().copied().map(Byte).collect(),
        };
        let frame = TcpFrame { from, plaintext_len, payload };
        let expected = to_bytes(&oracle);
        prop_assert_eq!(to_bytes(&frame), expected.clone());
        prop_assert_eq!(&encode_frame(&frame).unwrap()[FRAME_HEADER_BYTES..], &expected[..]);
    }

    #[test]
    fn the_slice_codec_rejects_what_the_oracle_rejects(
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        claimed in any::<u64>(),
        shift in 0u64..40,
    ) {
        let frame = TcpFrame { from: 5, plaintext_len: 77, payload };
        let bytes = to_bytes(&frame);
        // Every truncation, from an empty buffer to one byte short.
        for cut in 0..bytes.len() {
            let (slice, oracle) = decode_both(&bytes[..cut]);
            prop_assert!(slice.is_err());
            prop_assert_eq!(slice, oracle, "cut at {}", cut);
        }
        // The payload's length prefix (after `from` and `plaintext_len`)
        // claiming more than is there, less, or anything at all.
        let len = frame.payload.len() as u64;
        for prefix in [len + 1 + shift, len.saturating_sub(1 + shift), claimed, u64::MAX] {
            let mut forged = bytes.clone();
            forged[12..20].copy_from_slice(&prefix.to_le_bytes());
            let (slice, oracle) = decode_both(&forged);
            prop_assert_eq!(slice, oracle, "prefix {}", prefix);
        }
    }
}

#[test]
fn oversized_frame_is_rejected_at_encode_time() {
    let frame = TcpFrame {
        from: 0,
        plaintext_len: 0,
        payload: vec![0; MAX_FRAME_BYTES + 1],
    };
    assert!(matches!(
        encode_frame(&frame),
        Err(FrameError::TooLarge { .. })
    ));
}

#[test]
fn frame_header_is_four_bytes_little_endian() {
    let frame = TcpFrame {
        from: 3,
        plaintext_len: 5,
        payload: vec![0xAB; 10],
    };
    let bytes = encode_frame(&frame).unwrap();
    let body_len = u32::from_le_bytes(bytes[..FRAME_HEADER_BYTES].try_into().unwrap()) as usize;
    assert_eq!(body_len, bytes.len() - FRAME_HEADER_BYTES);
}

// --- client protocol: the scheduler's status and rejection types ---

use gendpr::service::{ClientResponse, LinkRecord, QueuedJobStatus, RejectReason, ServiceStatus};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn service_status_roundtrips_with_scheduler_fields(
        leader in any::<u32>(),
        gdos in any::<u32>(),
        jobs_done in any::<u64>(),
        workers in any::<u32>(),
        workers_busy in any::<u32>(),
        max_queue in any::<u64>(),
        queue_ids in proptest::collection::vec(any::<u64>(), 0..20),
        links in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..10,
        ),
        metrics in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let status = ServiceStatus {
            leader,
            gdos,
            panel_len: u64::from(gdos) * 7,
            jobs_done,
            jobs_queued: queue_ids.len() as u64,
            released_total: jobs_done.wrapping_mul(3),
            links: links
                .into_iter()
                .map(|(from, to, messages, plaintext_bytes, wire_bytes)| LinkRecord {
                    from,
                    to,
                    messages,
                    plaintext_bytes,
                    wire_bytes,
                })
                .collect(),
            metrics: String::from_utf8_lossy(&metrics).into_owned(),
            workers,
            workers_busy,
            max_queue,
            queue: queue_ids
                .iter()
                .enumerate()
                .map(|(i, &job_id)| QueuedJobStatus {
                    job_id,
                    position: i as u64 + 1,
                })
                .collect(),
            track: (jobs_done % 2 == 0).then_some(gdos),
            claims_open: jobs_done % 5,
        };
        let back: ServiceStatus = from_bytes(&to_bytes(&status)).unwrap();
        prop_assert_eq!(back, status);
    }

    #[test]
    fn typed_rejections_roundtrip_through_the_client_response(
        depth in any::<u64>(),
        max in any::<u64>(),
        shutting_down in any::<bool>(),
    ) {
        let reason = if shutting_down {
            RejectReason::ShuttingDown
        } else {
            RejectReason::QueueFull { depth, max }
        };
        let response = ClientResponse::Rejected(reason);
        let back: ClientResponse = from_bytes(&to_bytes(&response)).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn truncated_status_frames_error_rather_than_misparse(
        cut in 1usize..40,
    ) {
        let status = ServiceStatus {
            leader: 1,
            gdos: 3,
            panel_len: 100,
            jobs_done: 4,
            jobs_queued: 1,
            released_total: 9,
            links: vec![],
            metrics: String::new(),
            workers: 2,
            workers_busy: 1,
            max_queue: 64,
            queue: vec![QueuedJobStatus { job_id: 5, position: 1 }],
            track: Some(0),
            claims_open: 2,
        };
        let bytes = to_bytes(&status);
        prop_assume!(cut < bytes.len());
        prop_assert!(from_bytes::<ServiceStatus>(&bytes[..bytes.len() - cut]).is_err());
    }
}
