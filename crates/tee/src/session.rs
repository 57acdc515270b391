//! Attested end-to-end encrypted sessions between enclaves.
//!
//! "Any communication between federation members is encrypted and happens
//! only between TEEs … GDOs agree on keys and other credentials during the
//! remote attestation phase to connect the trust-chain from boot to
//! communication" (paper §5.1). The handshake here implements that chain:
//!
//! 1. each enclave draws an ephemeral X25519 key pair and obtains a fresh
//!    [`Quote`] whose `report_data` is the hash of the ephemeral public
//!    key — so the key provably originated inside the attested enclave;
//! 2. the peers exchange `(quote, public key)` messages and verify: quote
//!    authenticity, expected measurement (mutual attestation), and the
//!    key-to-quote binding;
//! 3. both derive direction-separated ChaCha20-Poly1305 keys from the
//!    Diffie-Hellman secret with the handshake transcript as salt;
//! 4. messages carry monotonically increasing sequence-number nonces, so
//!    replayed, reordered or dropped ciphertexts are rejected.
//!
//! [`SecureChannel::send_in_place`] and [`SecureChannel::recv_in_place`]
//! are the runtime's path: a message is encoded after a reserved frame
//! header, sealed and later opened inside that one buffer, byte-identical
//! to what [`SecureChannel::send`] and [`SecureChannel::recv`] produce and
//! accept (they go through the same two).
//!
//! Each direction keeps a *look-ahead*: the heads (keystream blocks 0
//! and 1, see [`gendpr_crypto::aead`]) of its next sequence numbers,
//! [`aead::heads_per_pass`] of them, held as one [`Heads`] pass and
//! refilled by one ChaCha20 pass when the next sequence number is not
//! among them. A frame of up to 64 bytes, which needs no keystream past
//! its head, then costs a fraction of a pass: an eighth with AVX-512, half
//! on SSE2. A rejected message consumes nothing (its sequence number's
//! head stays for the genuine one), [`SecureChannel::rekey`] drops both
//! look-aheads with the keys that computed them, and the look-ahead is key
//! material that [`Debug`] never prints.

use crate::attestation::{AttestationService, Quote};
use crate::enclave::Enclave;
use crate::error::TeeError;
use crate::measurement::Measurement;
use gendpr_crypto::aead::{self, ChaCha20Poly1305, Heads};
use gendpr_crypto::rng::ChaChaRng;
use gendpr_crypto::sha256::Sha256;
use gendpr_crypto::CryptoError;
use gendpr_crypto::{hkdf, x25519};

/// The first (and only) handshake flight: an attestation quote plus the
/// ephemeral public key it binds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeMessage {
    /// Fresh quote with `report_data = H(ephemeral_public)`.
    pub quote: Quote,
    /// X25519 ephemeral public key.
    pub ephemeral_public: [u8; 32],
}

impl HandshakeMessage {
    /// Wire encoding (quote ‖ public key, 128 bytes).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 128] {
        let mut out = [0u8; 128];
        out[..96].copy_from_slice(&self.quote.to_bytes());
        out[96..].copy_from_slice(&self.ephemeral_public);
        out
    }

    /// Parses the wire encoding.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 128]) -> Self {
        let mut q = [0u8; 96];
        q.copy_from_slice(&bytes[..96]);
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&bytes[96..]);
        Self {
            quote: Quote::from_bytes(&q),
            ephemeral_public: pk,
        }
    }
}

fn bind_key(public: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/handshake/v1\0");
    h.update(public);
    h.finalize()
}

/// An in-progress handshake holding the local ephemeral secret.
pub struct Handshake {
    secret: [u8; 32],
    message: HandshakeMessage,
    service: AttestationService,
}

impl std::fmt::Debug for Handshake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The public flight only, never the ephemeral secret.
        f.debug_struct("Handshake")
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl Handshake {
    /// Starts a handshake from inside `enclave`.
    #[must_use]
    pub fn start<S>(enclave: &Enclave<S>, rng: &mut ChaChaRng) -> Self {
        let secret = x25519::clamp_scalar(rng.gen_key());
        let public = x25519::public_key(&secret);
        let quote = enclave.quote(bind_key(&public));
        Self {
            secret,
            message: HandshakeMessage {
                quote,
                ephemeral_public: public,
            },
            service: enclave.platform().service().clone(),
        }
    }

    /// The flight to send to the peer.
    #[must_use]
    pub fn message(&self) -> &HandshakeMessage {
        &self.message
    }

    /// Completes the handshake against the peer's flight, requiring the
    /// peer to attest as `expected` (mutual attestation).
    ///
    /// # Errors
    ///
    /// * [`TeeError::QuoteInvalid`] — forged or foreign quote,
    /// * [`TeeError::MeasurementMismatch`] — wrong enclave build,
    /// * [`TeeError::HandshakeBindingInvalid`] — key not bound to quote,
    /// * [`TeeError::WeakKey`] — degenerate Diffie-Hellman result.
    pub fn complete(
        self,
        peer: &HandshakeMessage,
        expected: &Measurement,
    ) -> Result<SecureChannel, TeeError> {
        self.service.verify_expected(&peer.quote, expected)?;
        if peer.quote.report_data != bind_key(&peer.ephemeral_public) {
            return Err(TeeError::HandshakeBindingInvalid);
        }
        let shared = x25519::diffie_hellman(&self.secret, &peer.ephemeral_public)
            .ok_or(TeeError::WeakKey)?;

        // Transcript salt: both public keys in a canonical order.
        let (lo, hi) = if self.message.ephemeral_public <= peer.ephemeral_public {
            (&self.message.ephemeral_public, &peer.ephemeral_public)
        } else {
            (&peer.ephemeral_public, &self.message.ephemeral_public)
        };
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(lo);
        salt[32..].copy_from_slice(hi);

        // Direction keys: the sender's public key names the direction, so
        // both sides derive the same pair and assign them oppositely.
        let derive = |sender_pub: &[u8; 32]| {
            let mut info = Vec::with_capacity(20 + 32);
            info.extend_from_slice(b"gendpr/session/v1\0");
            info.extend_from_slice(sender_pub);
            let mut key = [0u8; 32];
            hkdf::derive(&salt, &shared, &info, &mut key);
            key
        };
        let send_key = derive(&self.message.ephemeral_public);
        let recv_key = derive(&peer.ephemeral_public);

        Ok(SecureChannel {
            send: Direction::new(send_key),
            recv: Direction::new(recv_key),
            generation: 0,
        })
    }
}

/// One direction of a channel: its key, its next sequence number and the
/// look-ahead of heads from there.
struct Direction {
    key: [u8; 32],
    cipher: ChaCha20Poly1305,
    seq: u64,
    /// The heads of sequence numbers `ahead_from..ahead_from + ahead.len()`:
    /// one pass of keystream, boxed so that moving a channel moves a
    /// pointer and not a kilobyte.
    ahead: Box<Heads>,
    ahead_from: u64,
}

impl Direction {
    fn new(key: [u8; 32]) -> Self {
        Self {
            cipher: ChaCha20Poly1305::new(&key),
            key,
            seq: 0,
            ahead: Box::default(),
            ahead_from: 0,
        }
    }

    /// Where the look-ahead holds the head of the next sequence number.
    /// When it does not hold it, one pass refills it from that number on.
    fn look_ahead(&mut self) -> usize {
        let at = self.seq.wrapping_sub(self.ahead_from);
        if at < self.ahead.len() as u64 {
            return at as usize;
        }
        let seq = self.seq;
        let nonces = (0..).map(|i| seq_nonce(seq.wrapping_add(i)));
        self.cipher.fill_heads(&mut self.ahead, nonces);
        self.ahead_from = seq;
        0
    }

    fn seal_in_place(&mut self, buf: &mut Vec<u8>, at: usize, aad: &[u8]) {
        let slot = self.look_ahead();
        let head = self.ahead.get(slot).expect("the look-ahead holds it");
        self.cipher.seal_in_place_with(head, buf, at, aad);
        self.seq += 1;
    }

    /// Opens the next in-order message; a rejected one leaves the sequence
    /// number, and its head, where they were.
    fn open_in_place<'a>(
        &mut self,
        sealed: &'a mut [u8],
        aad: &[u8],
    ) -> Result<&'a mut [u8], CryptoError> {
        let slot = self.look_ahead();
        let head = self.ahead.get(slot).expect("the look-ahead holds it");
        let plaintext = self.cipher.open_in_place_with(head, sealed, aad)?;
        self.seq += 1;
        Ok(plaintext)
    }

    /// Ratchets the key to `generation`, restarts the sequence numbers and
    /// drops the look-ahead, which the old key computed.
    fn rekey(&mut self, generation: u64) {
        let mut info = Vec::with_capacity(24 + 8);
        info.extend_from_slice(b"gendpr/session/rekey/v1\0");
        info.extend_from_slice(&generation.to_le_bytes());
        let old = self.key;
        hkdf::derive(b"gendpr/rekey", &old, &info, &mut self.key);
        self.cipher = ChaCha20Poly1305::new(&self.key);
        self.seq = 0;
        self.ahead.clear();
    }
}

/// An established attested channel.
///
/// Sequence numbers advance on every message; a replayed or reordered
/// ciphertext authenticates under the wrong nonce and is rejected.
pub struct SecureChannel {
    send: Direction,
    recv: Direction,
    generation: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Neither the keys nor the look-aheads: both are key material.
        f.debug_struct("SecureChannel")
            .field("send_seq", &self.send.seq)
            .field("recv_seq", &self.recv.seq)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

fn seq_nonce(seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    nonce
}

impl SecureChannel {
    /// Encrypts `plaintext` with `aad` as authenticated context (GenDPR
    /// uses the protocol phase and study id).
    pub fn send(&mut self, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + aead::OVERHEAD);
        out.extend_from_slice(plaintext);
        self.send_in_place(&mut out, 0, aad);
        out
    }

    /// [`Self::send`] without a copy: seals the plaintext at `buf[at..]`
    /// where it lies and appends the tag, leaving `buf[..at]` (the frame
    /// header the caller reserved) untouched. `buf[at..]` then holds the
    /// bytes `send` would have returned.
    pub fn send_in_place(&mut self, buf: &mut Vec<u8>, at: usize, aad: &[u8]) {
        self.send.seal_in_place(buf, at, aad);
    }

    /// Decrypts the next in-order message.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ChannelMessageRejected`] on tampering, replay,
    /// reordering or AAD mismatch.
    pub fn recv(&mut self, ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, TeeError> {
        let mut out = ciphertext.to_vec();
        let len = self.recv_in_place(&mut out, aad)?.len();
        out.truncate(len);
        Ok(out)
    }

    /// [`Self::recv`] without a copy: opens `sealed` inside the buffer it
    /// arrived in and returns the plaintext, which is `sealed` minus its
    /// tag. A rejected message is left as it was and does not advance the
    /// sequence number.
    ///
    /// # Errors
    ///
    /// As [`Self::recv`].
    pub fn recv_in_place<'a>(
        &mut self,
        sealed: &'a mut [u8],
        aad: &[u8],
    ) -> Result<&'a mut [u8], TeeError> {
        Ok(self.recv.open_in_place(sealed, aad)?)
    }

    /// Messages sent so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.send.seq
    }

    /// Rekey generations performed so far.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Ratchets both direction keys forward with HKDF and resets the
    /// sequence numbers. A long-lived session (the assessment service
    /// keeps channels open across jobs) calls this at a deterministic
    /// protocol point — both ends must ratchet together, at the same
    /// boundary — giving per-job forward secrecy: compromising the current
    /// keys reveals nothing about traffic from completed jobs, and the
    /// nonce space never comes close to exhaustion however many jobs the
    /// federation serves. The look-aheads, computed under the old keys, go
    /// with them.
    pub fn rekey(&mut self) {
        self.generation += 1;
        self.send.rekey(self.generation);
        self.recv.rekey(self.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    struct Setup {
        a: Enclave<()>,
        b: Enclave<()>,
        rng: ChaChaRng,
    }

    fn setup(code_a: &str, code_b: &str) -> Setup {
        let mut rng = ChaChaRng::from_seed_u64(77);
        let svc = AttestationService::new(&mut rng);
        let pa = Platform::new("gdo-a", &svc, &mut rng);
        let pb = Platform::new("gdo-b", &svc, &mut rng);
        Setup {
            a: pa.launch_enclave(code_a, ()),
            b: pb.launch_enclave(code_b, ()),
            rng,
        }
    }

    fn establish(s: &mut Setup) -> (SecureChannel, SecureChannel) {
        let ha = Handshake::start(&s.a, &mut s.rng);
        let hb = Handshake::start(&s.b, &mut s.rng);
        let ma = ha.message().clone();
        let mb = hb.message().clone();
        let ca = ha.complete(&mb, &s.b.measurement()).unwrap();
        let cb = hb.complete(&ma, &s.a.measurement()).unwrap();
        (ca, cb)
    }

    #[test]
    fn bidirectional_messaging() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let ct = ca.send(b"counts", b"phase1");
        assert_eq!(cb.recv(&ct, b"phase1").unwrap(), b"counts");
        let ct2 = cb.send(b"retained snps", b"phase1");
        assert_eq!(ca.recv(&ct2, b"phase1").unwrap(), b"retained snps");
        assert_eq!(ca.messages_sent(), 1);
    }

    #[test]
    fn in_place_messages_interoperate_with_copying_ones() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let (mut ca2, mut cb2) = establish(&mut s);
        // One pair seals in place and opens by copy, the other the reverse.
        for (i, msg) in [&b"counts"[..], b"", b"ld moments"].into_iter().enumerate() {
            let mut buf = vec![9u8; 4];
            buf.extend_from_slice(msg);
            ca.send_in_place(&mut buf, 4, b"aad");
            assert_eq!(&buf[..4], &[9u8; 4]);
            assert_eq!(cb.recv(&buf[4..], b"aad").unwrap(), msg, "message {i}");
            let mut sealed = ca2.send(msg, b"aad");
            assert_eq!(cb2.recv_in_place(&mut sealed, b"aad").unwrap(), msg);
        }
        // A rejected in-place message does not advance the sequence.
        let mut good = ca.send(b"next", b"aad");
        let mut bad = good.clone();
        bad[0] ^= 1;
        let kept = bad.clone();
        assert_eq!(
            cb.recv_in_place(&mut bad, b"aad"),
            Err(TeeError::ChannelMessageRejected)
        );
        assert_eq!(bad, kept);
        assert_eq!(cb.recv_in_place(&mut good, b"aad").unwrap(), b"next");
    }

    #[test]
    fn directions_use_distinct_keys() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let from_a = ca.send(b"same", b"");
        let from_b = cb.send(b"same", b"");
        assert_ne!(from_a, from_b);
    }

    #[test]
    fn replay_and_reorder_rejected() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let m1 = ca.send(b"one", b"");
        let m2 = ca.send(b"two", b"");
        // Reorder: m2 first fails.
        assert_eq!(cb.recv(&m2, b""), Err(TeeError::ChannelMessageRejected));
        assert_eq!(cb.recv(&m1, b"").unwrap(), b"one");
        // Replay of m1 fails.
        assert_eq!(cb.recv(&m1, b""), Err(TeeError::ChannelMessageRejected));
        assert_eq!(cb.recv(&m2, b"").unwrap(), b"two");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let mut ct = ca.send(b"payload", b"aad");
        ct[0] ^= 1;
        assert_eq!(cb.recv(&ct, b"aad"), Err(TeeError::ChannelMessageRejected));
    }

    #[test]
    fn wrong_measurement_fails_mutual_attestation() {
        let mut s = setup("gendpr/honest", "gendpr/modified");
        let ha = Handshake::start(&s.a, &mut s.rng);
        let hb = Handshake::start(&s.b, &mut s.rng);
        let mb = hb.message().clone();
        // A expects the honest build but B runs a modified one.
        let expected = Measurement::compute("gendpr/honest", b"");
        assert_eq!(
            ha.complete(&mb, &expected).unwrap_err(),
            TeeError::MeasurementMismatch
        );
    }

    #[test]
    fn unbound_key_rejected() {
        // A MITM substitutes its own ephemeral key into an honest flight.
        let mut s = setup("gendpr", "gendpr");
        let ha = Handshake::start(&s.a, &mut s.rng);
        let hb = Handshake::start(&s.b, &mut s.rng);
        let mut mb = hb.message().clone();
        mb.ephemeral_public = [9u8; 32]; // quote no longer binds this key
        assert_eq!(
            ha.complete(&mb, &s.b.measurement()).unwrap_err(),
            TeeError::HandshakeBindingInvalid
        );
    }

    #[test]
    fn foreign_attestation_root_rejected() {
        let mut s = setup("gendpr", "gendpr");
        // An enclave from a different federation (different service root).
        let mut rng2 = ChaChaRng::from_seed_u64(99);
        let other_svc = AttestationService::new(&mut rng2);
        let other_platform = Platform::new("intruder", &other_svc, &mut rng2);
        let intruder: Enclave<()> = other_platform.launch_enclave("gendpr", ());
        let hi = Handshake::start(&intruder, &mut rng2);
        let ha = Handshake::start(&s.a, &mut s.rng);
        let mi = hi.message().clone();
        assert_eq!(
            ha.complete(&mi, &intruder.measurement()).unwrap_err(),
            TeeError::QuoteInvalid
        );
    }

    #[test]
    fn handshake_message_wire_roundtrip() {
        let mut s = setup("gendpr", "gendpr");
        let ha = Handshake::start(&s.a, &mut s.rng);
        let m = ha.message().clone();
        assert_eq!(HandshakeMessage::from_bytes(&m.to_bytes()), m);
    }

    #[test]
    fn rekeyed_channels_interoperate() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let ct = ca.send(b"job 0 traffic", b"");
        assert_eq!(cb.recv(&ct, b"").unwrap(), b"job 0 traffic");
        ca.rekey();
        cb.rekey();
        assert_eq!(ca.generation(), 1);
        assert_eq!(cb.generation(), 1);
        // Sequence numbers restart under the new keys, both directions.
        assert_eq!(ca.messages_sent(), 0);
        let ct = ca.send(b"job 1 traffic", b"aad");
        assert_eq!(cb.recv(&ct, b"aad").unwrap(), b"job 1 traffic");
        let ct = cb.send(b"reply", b"");
        assert_eq!(ca.recv(&ct, b"").unwrap(), b"reply");
    }

    #[test]
    fn rekey_invalidates_old_keys() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let stale = ca.send(b"captured before ratchet", b"");
        ca.rekey();
        cb.rekey();
        // A ciphertext from the previous generation no longer decrypts,
        // even though its sequence number (0) matches the reset counter.
        assert_eq!(cb.recv(&stale, b""), Err(TeeError::ChannelMessageRejected));
    }

    #[test]
    fn rekey_must_be_synchronized() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        ca.rekey();
        let ct = ca.send(b"one side ratcheted", b"");
        assert_eq!(cb.recv(&ct, b""), Err(TeeError::ChannelMessageRejected));
        cb.rekey();
        // The reverse direction was never used, so once both sides have
        // ratcheted it lines up from sequence zero.
        let ct = cb.send(b"now aligned", b"");
        assert_eq!(ca.recv(&ct, b"").unwrap(), b"now aligned");
    }

    /// What [`SecureChannel::send`] must return for message `seq` under
    /// `key`: the copying AEAD, nonce by nonce.
    fn oracle(key: &[u8; 32], seq: u64, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        ChaCha20Poly1305::new(key).seal(&seq_nonce(seq), plaintext, aad)
    }

    #[test]
    fn look_ahead_frames_equal_the_copying_oracle_in_both_directions() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let message: Vec<u8> = (0..1_100usize).map(|i| (i * 13 + i / 7) as u8).collect();
        let mut back = 0u64;
        // 1,101 frames one way cross many look-ahead windows; every third
        // length also sends one back, so the two directions interleave.
        for len in 0..=message.len() {
            let seq = len as u64;
            let plaintext = &message[..len];
            let aad = &message[..len % 19];
            let expected = oracle(&ca.send.key, seq, plaintext, aad);
            let mut frame = vec![7u8; 3];
            frame.extend_from_slice(plaintext);
            ca.send_in_place(&mut frame, 3, aad);
            assert_eq!(&frame[3..], &expected[..], "length {len}");
            if len % 2 == 0 {
                assert_eq!(cb.recv(&frame[3..], aad).unwrap(), plaintext);
            } else {
                assert_eq!(cb.recv_in_place(&mut frame[3..], aad).unwrap(), plaintext);
            }
            if len % 3 == 0 {
                let reply = &message[len / 2..len];
                let sealed = cb.send(reply, b"reply");
                assert_eq!(sealed, oracle(&cb.send.key, back, reply, b"reply"));
                assert_eq!(ca.recv(&sealed, b"reply").unwrap(), reply);
                back += 1;
            }
        }
        assert_eq!(ca.messages_sent(), 1_101);
        assert_eq!(cb.messages_sent(), back);
    }

    #[test]
    fn frames_after_a_rekey_come_from_the_new_keys() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        for generation in 0..3 {
            // Message 0 of the generation fills both look-aheads from 0, so
            // a look-ahead that outlived the rekey would serve the next
            // generation's message 0 from the old key.
            for seq in 0..2 * aead::heads_per_pass() as u64 + 1 {
                let plaintext = [generation as u8; 80];
                let sealed = ca.send(&plaintext, b"");
                assert_eq!(
                    sealed,
                    oracle(&ca.send.key, seq, &plaintext, b""),
                    "seq {seq}"
                );
                assert_eq!(cb.recv(&sealed, b"").unwrap(), plaintext);
                let reply = cb.send(b"ack", b"");
                assert_eq!(reply, oracle(&cb.send.key, seq, b"ack", b""), "seq {seq}");
                assert_eq!(ca.recv(&reply, b"").unwrap(), b"ack");
                if seq == 0 && generation > 0 {
                    break;
                }
            }
            ca.rekey();
            cb.rekey();
        }
    }

    #[test]
    fn a_tampered_frame_leaves_the_genuine_one_openable_at_every_window_edge() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        for seq in 0..3 * aead::heads_per_pass() as u64 + 2 {
            let plaintext = vec![seq as u8; (seq as usize * 23) % 150];
            let genuine = ca.send(&plaintext, b"aad");
            for byte in [0, genuine.len() - 1] {
                let mut tampered = genuine.clone();
                tampered[byte] ^= 0x80;
                let kept = tampered.clone();
                assert_eq!(
                    cb.recv_in_place(&mut tampered, b"aad"),
                    Err(TeeError::ChannelMessageRejected)
                );
                assert_eq!(tampered, kept, "a rejected frame is left as it came");
            }
            assert_eq!(cb.recv(&genuine, b"aad").unwrap(), plaintext, "seq {seq}");
            assert_eq!(
                format!("{cb:?}"),
                format!(
                    "SecureChannel {{ send_seq: 0, recv_seq: {}, generation: 0, .. }}",
                    seq + 1
                )
            );
        }
    }

    #[test]
    fn handshake_debug_does_not_leak_the_ephemeral_secret() {
        let mut s = setup("gendpr", "gendpr");
        let handshake = Handshake::start(&s.a, &mut s.rng);
        let shown = format!("{handshake:?}");
        assert!(shown.starts_with("Handshake { message: HandshakeMessage {"));
        assert!(shown.ends_with(", .. }"), "{shown}");
        for bytes in handshake.secret.windows(4) {
            let list = format!("{bytes:?}");
            assert!(!shown.contains(&list[1..list.len() - 1]), "{shown}");
        }
    }

    #[test]
    fn debug_prints_neither_keys_nor_look_ahead() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, _cb) = establish(&mut s);
        let _ = ca.send(b"fills the send look-ahead", b"");
        let shown = format!("{ca:?}");
        assert_eq!(
            shown,
            "SecureChannel { send_seq: 1, recv_seq: 0, generation: 0, .. }"
        );
        // Not one look-ahead head's bytes, nor a key's, in any rendering.
        let mut secrets = vec![ca.send.key.to_vec(), ca.recv.key.to_vec()];
        for seq in 0..aead::heads_per_pass() as u64 {
            for counter in 0..2 {
                secrets.push(
                    gendpr_crypto::chacha20::block(&ca.send.key, counter, &seq_nonce(seq)).to_vec(),
                );
            }
        }
        for secret in &secrets {
            let hex: String = secret[..4].iter().map(|b| format!("{b:02x}")).collect();
            let list = format!("{:?}", &secret[..4]);
            assert!(!shown.contains(&hex) && !shown.contains(&list[1..list.len() - 1]));
        }
    }

    #[test]
    fn aad_mismatch_rejected() {
        let mut s = setup("gendpr", "gendpr");
        let (mut ca, mut cb) = establish(&mut s);
        let ct = ca.send(b"data", b"phase1");
        assert_eq!(
            cb.recv(&ct, b"phase2"),
            Err(TeeError::ChannelMessageRejected)
        );
    }
}
