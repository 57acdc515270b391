//! Length-prefixed message I/O for client ↔ daemon streams.
//!
//! The federation's member links frame [`crate::transport::Envelope`]s;
//! the assessment service's *client* protocol (submit / status / results)
//! is simpler: one [`crate::wire`]-encoded message per frame, framed as
//! `[u32 LE length][body]` over a plain [`Read`]/[`Write`] stream. The
//! length prefix is capped at [`crate::tcp::MAX_FRAME_BYTES`] so a
//! hostile peer cannot make either side allocate unboundedly.

use crate::tcp::MAX_FRAME_BYTES;
use crate::wire::{self, Decode, Encode, WireError};
use std::io::{self, Read, Write};

/// Writes one length-prefixed message and flushes the stream.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the encoded message exceeds
/// [`MAX_FRAME_BYTES`]; otherwise whatever the underlying stream fails
/// with.
pub fn write_message<T: Encode>(stream: &mut impl Write, message: &T) -> io::Result<()> {
    let body = wire::to_bytes(message);
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "message exceeds the frame limit",
        ));
    }
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(&body)?;
    stream.flush()
}

/// Reads one length-prefixed message.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the claimed length exceeds
/// [`MAX_FRAME_BYTES`] or the body fails to decode;
/// [`io::ErrorKind::UnexpectedEof`] when the peer closed mid-frame.
pub fn read_message<T: Decode>(stream: &mut impl Read) -> io::Result<T> {
    read_message_capped(stream, MAX_FRAME_BYTES)
}

/// Like [`read_message`], for a reader that knows its largest valid
/// message: a header claiming more than `max_len` body bytes (or more
/// than [`MAX_FRAME_BYTES`]) is refused before anything is allocated.
///
/// # Errors
///
/// See [`read_message`].
pub fn read_message_capped<T: Decode>(stream: &mut impl Read, max_len: usize) -> io::Result<T> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len.min(MAX_FRAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds the limit",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    wire::from_bytes(&body).map_err(|e: WireError| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed message: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_message(&mut buf, &vec![1u32, 2, 3]).unwrap();
        write_message(&mut buf, &"hello".to_string()).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let nums: Vec<u32> = read_message(&mut cursor).unwrap();
        assert_eq!(nums, vec![1, 2, 3]);
        let text: String = read_message(&mut cursor).unwrap();
        assert_eq!(text, "hello");
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_message(&mut buf, &vec![7u64; 4]).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = io::Cursor::new(buf);
        let err = read_message::<Vec<u64>>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_claim_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        let err = read_message::<Vec<u8>>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_capped_reader_refuses_a_frame_over_its_own_bound() {
        let mut buf = Vec::new();
        write_message(&mut buf, &vec![7u32; 8]).unwrap();
        let err = read_message_capped::<Vec<u32>>(&mut io::Cursor::new(&buf), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let nums: Vec<u32> = read_message_capped(&mut io::Cursor::new(&buf), 64).unwrap();
        assert_eq!(nums, vec![7; 8]);
    }

    #[test]
    fn garbage_body_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF; 4]);
        let mut cursor = io::Cursor::new(buf);
        let err = read_message::<String>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
