//! Minimal lowercase hexadecimal encoding/decoding.

const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

/// Encode bytes as a lowercase hex string.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(HEX_CHARS[(b >> 4) as usize] as char);
        out.push(HEX_CHARS[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decode a hex string (upper- or lowercase). Returns `None` on odd length or
/// non-hex characters. Only tests decode: they check `encode` against it.
#[cfg(test)]
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = hex_val(pair[0])?;
        let lo = hex_val(pair[1])?;
        out.push((hi << 4) | lo);
    }
    Some(out)
}

#[cfg(test)]
fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known() {
        assert_eq!(encode(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn decode_known() {
        assert_eq!(decode("00ff10"), Some(vec![0x00, 0xff, 0x10]));
        assert_eq!(decode("00FF10"), Some(vec![0x00, 0xff, 0x10]));
        assert_eq!(decode(""), Some(vec![]));
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(decode("0"), None);
        assert_eq!(decode("zz"), None);
        assert_eq!(decode("0g"), None);
    }

    proptest! {
        #[test]
        fn round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(decode(&encode(&data)), Some(data));
        }
    }
}
