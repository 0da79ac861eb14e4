//! LEB128 variable-length integer encoding.
//!
//! Posting lists in the inverted index store document-id deltas and term
//! frequencies as varints, which is where most of the index compression in
//! `qb-index` comes from.

use crate::error::{QbError, QbResult};

/// Append the LEB128 encoding of `value` to `out`. Returns the number of
/// bytes written (1..=10).
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        } else {
            out.push(byte | 0x80);
        }
    }
}

/// Decode a LEB128 value from `buf` starting at `pos`. Returns the value and
/// the new position.
pub fn decode_u64(buf: &[u8], pos: usize) -> QbResult<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut p = pos;
    loop {
        let byte = *buf
            .get(p)
            .ok_or_else(|| QbError::Codec("truncated varint".into()))?;
        p += 1;
        if shift >= 64 {
            return Err(QbError::Codec("varint overflow".into()));
        }
        let low = (byte & 0x7f) as u64;
        // Reject bits that would be shifted out of range.
        if shift == 63 && low > 1 {
            return Err(QbError::Codec("varint overflow".into()));
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, p));
        }
        shift += 7;
    }
}

/// Number of bytes the LEB128 encoding of `value` occupies.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        let mut out = Vec::new();
        assert_eq!(encode_u64(0, &mut out), 1);
        assert_eq!(out, vec![0x00]);
        out.clear();
        assert_eq!(encode_u64(127, &mut out), 1);
        assert_eq!(out, vec![0x7f]);
        out.clear();
        assert_eq!(encode_u64(128, &mut out), 2);
        assert_eq!(out, vec![0x80, 0x01]);
        out.clear();
        assert_eq!(encode_u64(300, &mut out), 2);
        assert_eq!(out, vec![0xac, 0x02]);
    }

    #[test]
    fn max_value_round_trips() {
        let mut out = Vec::new();
        encode_u64(u64::MAX, &mut out);
        assert_eq!(out.len(), 10);
        let (v, p) = decode_u64(&out, 0).unwrap();
        assert_eq!(v, u64::MAX);
        assert_eq!(p, 10);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut out = Vec::new();
        encode_u64(1 << 40, &mut out);
        out.pop();
        assert!(matches!(decode_u64(&out, 0), Err(QbError::Codec(_))));
        assert!(matches!(decode_u64(&[], 0), Err(QbError::Codec(_))));
    }

    #[test]
    fn overflowing_input_is_an_error() {
        // 11 continuation bytes can never be a valid u64.
        let buf = vec![0xffu8; 11];
        assert!(matches!(decode_u64(&buf, 0), Err(QbError::Codec(_))));
    }

    #[test]
    fn encoded_len_matches_actual() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            let n = encode_u64(v, &mut out);
            assert_eq!(n, encoded_len(v), "value {v}");
            assert_eq!(out.len(), encoded_len(v));
        }
    }

    proptest! {
        #[test]
        fn round_trip_single(v in any::<u64>()) {
            let mut out = Vec::new();
            encode_u64(v, &mut out);
            let (decoded, pos) = decode_u64(&out, 0).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn round_trip_sequence(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut buf = Vec::new();
            for &v in &values {
                encode_u64(v, &mut buf);
            }
            let mut pos = 0;
            for &v in &values {
                let (decoded, next) = decode_u64(&buf, pos).unwrap();
                prop_assert_eq!(decoded, v);
                pos = next;
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
