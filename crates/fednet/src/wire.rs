//! Hand-rolled binary wire codec.
//!
//! GenDPR's enclaves exchange typed messages (count vectors, LD moments,
//! LR matrices). No serde *format* crate is in the sanctioned dependency
//! set, so this module defines a small, explicit little-endian codec:
//! fixed-width integers/floats, length-prefixed sequences and strings, and
//! a [`wire_struct!`](crate::wire_struct) helper macro that derives `Encode`/`Decode` for plain
//! structs. Decoding is strict — trailing bytes and truncation are errors,
//! and every length prefix is validated against the remaining input so a
//! malicious peer cannot trigger huge allocations. A `Vec<u8>` — a sealed
//! frame body, a TCP payload — encodes as `u64 len ‖ bytes` with one slice
//! copy each way ([`Encode::encode_all`], [`Decode::decode_all`]).

use std::error::Error;
use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input.
    LengthOverrun {
        /// Claimed number of elements.
        claimed: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Bytes were left over after a complete decode.
    TrailingBytes(usize),
    /// An enum discriminant or validated value was out of range.
    InvalidValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd => f.write_str("input ended unexpectedly"),
            Self::LengthOverrun { claimed, remaining } => {
                write!(
                    f,
                    "length prefix {claimed} exceeds remaining {remaining} bytes"
                )
            }
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            Self::InvalidValue(what) => write!(f, "invalid value for {what}"),
        }
    }
}

impl Error for WireError {}

/// A cursor over the bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data` for decoding.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Value that can be written to the wire.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back: the body of a
    /// `Vec<Self>` after its length prefix. Element by element unless the
    /// type knows better; bytes go in as one slice copy.
    fn encode_all(items: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
}

/// Value that can be read back from the wire.
pub trait Decode: Sized {
    /// Lower bound on the encoded size of any value of this type, in
    /// bytes. Containers multiply this into their length-prefix check so a
    /// hostile prefix claiming millions of multi-byte elements is rejected
    /// *before* `Vec::with_capacity` reserves memory the frame body could
    /// never fill. The default of 1 is always sound; types with a known
    /// fixed or prefixed encoding override it (u32 → 4, u64 → 8, `Vec`
    /// → 8 for its own length prefix, …).
    const MIN_WIRE_SIZE: usize = 1;

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes `len` values back to back: the body of a `Vec<Self>`, whose
    /// length prefix the caller has already checked against the input.
    /// Element by element unless the type knows better; bytes come out as
    /// one slice copy, failing exactly where the element-wise loop would.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode_all(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value, requiring the input to be fully consumed.
///
/// # Errors
///
/// Any [`WireError`], including [`WireError::TrailingBytes`].
pub fn from_bytes<T: Decode>(data: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(data);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            /// One reserve, then one pass of `to_le_bytes` over the slice.
            fn encode_all(items: &[Self], buf: &mut Vec<u8>) {
                const SIZE: usize = std::mem::size_of::<$t>();
                let start = buf.len();
                buf.resize(start + items.len() * SIZE, 0);
                for (out, item) in buf[start..].chunks_exact_mut(SIZE).zip(items) {
                    out.copy_from_slice(&item.to_le_bytes());
                }
            }
        }
        impl Decode for $t {
            const MIN_WIRE_SIZE: usize = std::mem::size_of::<$t>();

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact size")))
            }

            /// One `take` of the whole body, then one pass of
            /// `from_le_bytes`. Where the input cannot hold the body, the
            /// element-wise loop would take every whole element left and
            /// then end short: this takes the same bytes and returns the
            /// same error, without reserving for `len` elements.
            fn decode_all(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                const SIZE: usize = std::mem::size_of::<$t>();
                let Some(bytes) = len.checked_mul(SIZE).filter(|&n| n <= r.remaining()) else {
                    r.take(r.remaining() / SIZE * SIZE)?;
                    return Err(WireError::UnexpectedEnd);
                };
                let body = r.take(bytes)?;
                Ok(body
                    .chunks_exact(SIZE)
                    .map(|b| <$t>::from_le_bytes(b.try_into().expect("exact size")))
                    .collect())
            }
        }
    )*};
}

impl_wire_int!(u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn encode_all(items: &[Self], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("bool")),
        }
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    /// Encoded as a fixed-width `u64` regardless of platform.
    const MIN_WIRE_SIZE: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::InvalidValue("usize"))
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    const MIN_WIRE_SIZE: usize = N;

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take(N)?;
        Ok(bytes.try_into().expect("exact size"))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        T::encode_all(self, buf);
    }
}

impl<T: Decode> Decode for Vec<T> {
    /// A `Vec` encodes as at least its own 8-byte length prefix.
    const MIN_WIRE_SIZE: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        // Floor the element size at 1 so zero-size elements (e.g. `[u8; 0]`)
        // cannot smuggle an unbounded iteration count past the check.
        let element = T::MIN_WIRE_SIZE.max(1) as u64;
        match len.checked_mul(element) {
            Some(need) if need <= r.remaining() as u64 => {}
            _ => {
                return Err(WireError::LengthOverrun {
                    claimed: len,
                    remaining: r.remaining(),
                })
            }
        }
        T::decode_all(r, len as usize)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    /// A `String` encodes as at least its own 8-byte length prefix.
    const MIN_WIRE_SIZE: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        if len > r.remaining() as u64 {
            return Err(WireError::LengthOverrun {
                claimed: len,
                remaining: r.remaining(),
            });
        }
        let bytes = r.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidValue("utf-8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => false.encode(buf),
            Some(v) => {
                true.encode(buf);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if bool::decode(r)? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_WIRE_SIZE: usize = A::MIN_WIRE_SIZE + B::MIN_WIRE_SIZE;

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Implements [`Encode`]/[`Decode`] for a plain struct, field by field in
/// declaration order.
///
/// A struct whose fields are all one fixed-width number type names it,
/// `wire_struct!(Name: [u64] { a, b })`, and its vectors also get one-pass
/// bulk codecs: the same bytes, and the same error at the same reader
/// position wherever the field-by-field loop fails (it fails only by
/// running out of input, after taking every whole field left).
///
/// ```
/// use gendpr_fednet::wire_struct;
/// use gendpr_fednet::wire::{to_bytes, from_bytes};
///
/// #[derive(Debug, PartialEq)]
/// pub struct Counts { pub snps: Vec<u64>, pub total: u64 }
/// wire_struct!(Counts { snps, total });
///
/// let c = Counts { snps: vec![1, 2], total: 3 };
/// let back: Counts = from_bytes(&to_bytes(&c)).unwrap();
/// assert_eq!(back, c);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident: [$word:ty] { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(buf.extend_from_slice(&<$word>::to_le_bytes(self.$field));)+
            }

            fn encode_all(items: &[Self], buf: &mut Vec<u8>) {
                const WIDTH: usize = std::mem::size_of::<$word>();
                const FIELDS: usize = [$(stringify!($field)),+].len();
                buf.reserve(items.len() * FIELDS * WIDTH);
                for item in items {
                    $(buf.extend_from_slice(&<$word>::to_le_bytes(item.$field));)+
                }
            }
        }
        impl $crate::wire::Decode for $name {
            // `MIN_WIRE_SIZE` keeps the default, so a `Vec`'s length-prefix
            // check, and its error, stay the field-by-field struct's.
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: <$word as $crate::wire::Decode>::decode(r)?,)+
                })
            }

            fn decode_all(
                r: &mut $crate::wire::Reader<'_>,
                len: usize,
            ) -> Result<Vec<Self>, $crate::wire::WireError> {
                const WIDTH: usize = std::mem::size_of::<$word>();
                const SIZE: usize = [$(stringify!($field)),+].len() * WIDTH;
                let Some(bytes) = len.checked_mul(SIZE).filter(|&n| n <= r.remaining()) else {
                    r.take(r.remaining() / WIDTH * WIDTH)?;
                    return Err($crate::wire::WireError::UnexpectedEnd);
                };
                let body = r.take(bytes)?;
                Ok(body
                    .chunks_exact(SIZE)
                    .map(|item| {
                        let mut words = item
                            .chunks_exact(WIDTH)
                            .map(|b| <$word>::from_le_bytes(b.try_into().expect("exact size")));
                        Self {
                            $($field: words.next().expect("one word per field"),)+
                        }
                    })
                    .collect())
            }
        }
    };
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Encode::encode(&self.$field, buf);)+
            }
        }
        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: $crate::wire::Decode::decode(r)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(123_456u32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.25f64);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(true);
        roundtrip(false);
        roundtrip(42usize);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip("héllo wörld".to_string());
        roundtrip(String::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, vec![2.5f64, 3.5]));
        roundtrip([7u8; 32]);
        roundtrip(vec![vec![1u32], vec![], vec![2, 3]]);
    }

    #[test]
    fn little_endian_layout() {
        assert_eq!(to_bytes(&0x0102_0304u32), vec![4, 3, 2, 1]);
        assert_eq!(to_bytes(&1u64)[0], 1);
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = to_bytes(&123_456u32);
        assert_eq!(
            from_bytes::<u32>(&bytes[..3]).unwrap_err(),
            WireError::UnexpectedEnd
        );
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = to_bytes(&1u8);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u8>(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        // Claims 2^60 elements with 0 bytes of payload.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }), "{err:?}");
        let err2 = from_bytes::<String>(&bytes).unwrap_err();
        assert!(matches!(err2, WireError::LengthOverrun { .. }));
    }

    #[test]
    fn multibyte_length_prefix_cannot_overreserve() {
        // 1000 claimed u64 elements over a 2 KiB body: a flat 1-byte
        // element minimum accepts this and reserves 8 KB for a body that
        // can hold at most 256 elements; scaled to the 64 MiB frame cap
        // that is a ~512 MiB reserve. The per-type minimum rejects it.
        let mut bytes = Vec::new();
        (1000u64).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 2048]);
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }), "{err:?}");
        // Same prefix is fine for a type whose elements really are 1 byte.
        let ok = {
            let mut r = Reader::new(&bytes[..]);
            Vec::<u8>::decode(&mut r).unwrap()
        };
        assert_eq!(ok.len(), 1000);
    }

    #[test]
    fn length_prefix_times_element_size_cannot_overflow() {
        // len * 8 would wrap around u64 without checked multiplication.
        let mut bytes = Vec::new();
        (u64::MAX / 2).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 64]);
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }), "{err:?}");
    }

    #[test]
    fn min_wire_sizes_reflect_encodings() {
        assert_eq!(<u32 as Decode>::MIN_WIRE_SIZE, 4);
        assert_eq!(<u64 as Decode>::MIN_WIRE_SIZE, 8);
        assert_eq!(<f64 as Decode>::MIN_WIRE_SIZE, 8);
        assert_eq!(<usize as Decode>::MIN_WIRE_SIZE, 8);
        assert_eq!(<Vec<u8> as Decode>::MIN_WIRE_SIZE, 8);
        assert_eq!(<String as Decode>::MIN_WIRE_SIZE, 8);
        assert_eq!(<[u8; 32] as Decode>::MIN_WIRE_SIZE, 32);
        assert_eq!(<(u32, u64) as Decode>::MIN_WIRE_SIZE, 12);
        assert_eq!(<Option<u64> as Decode>::MIN_WIRE_SIZE, 1);
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        assert_eq!(
            from_bytes::<bool>(&[2]).unwrap_err(),
            WireError::InvalidValue("bool")
        );
        let mut bytes = Vec::new();
        (2u64).encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            from_bytes::<String>(&bytes).unwrap_err(),
            WireError::InvalidValue("utf-8 string")
        );
    }

    #[test]
    fn wire_struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Msg {
            id: u32,
            payload: Vec<f64>,
            label: String,
        }
        wire_struct!(Msg { id, payload, label });
        let m = Msg {
            id: 9,
            payload: vec![1.0, -2.0],
            label: "ld-moments".into(),
        };
        let back: Msg = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nested_option_vec() {
        roundtrip(vec![Some(1u64), None, Some(3)]);
    }
}
