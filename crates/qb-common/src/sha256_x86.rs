//! SHA-256 compression on the x86-64 SHA extensions.
//!
//! `sha256rnds2` runs two rounds on a state split across two registers
//! (`ABEF` and `CDGH`), and `sha256msg1` / `sha256msg2` extend the message
//! schedule four words at a time. The state stays in those two registers
//! across every block of a call. [`compress_blocks`] may only run on a CPU
//! where [`detected`] holds; `hash.rs` checks before calling it, and its
//! tests prove the result bit-identical to the portable compression.

use crate::hash::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

/// Whether this CPU has every extension [`compress_blocks`] is compiled
/// for. The standard library caches the answer, so this is a load.
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Fold `blocks` into `state`, exactly as the portable compression does.
///
/// # Safety
///
/// A caller not compiled with these features must call it only when
/// [`detected`] returns `true`; on a CPU without them the instructions
/// are undefined behaviour.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let word = |i: usize| state[i] as i32;
    let abcd = _mm_set_epi32(word(3), word(2), word(1), word(0));
    let efgh = _mm_set_epi32(word(7), word(6), word(5), word(4));
    let cdab = _mm_shuffle_epi32::<0xB1>(abcd);
    let hgfe = _mm_shuffle_epi32::<0x1B>(efgh);
    let mut abef = _mm_alignr_epi8::<8>(cdab, hgfe);
    let mut cdgh = _mm_blend_epi16::<0xF0>(hgfe, cdab);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = std::array::from_fn::<_, 4, _>(|i| message_words(block, i));
        for quad in 0..16 {
            let words = if quad < 4 {
                w[quad]
            } else {
                let next = schedule(w);
                w = [w[1], w[2], w[3], next];
                next
            };
            let kw = |i: usize| K[4 * quad + i] as i32;
            let wk = _mm_add_epi32(words, _mm_set_epi32(kw(3), kw(2), kw(1), kw(0)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let abcd = _mm_blend_epi16::<0xF0>(feba, dchg);
    let efgh = _mm_alignr_epi8::<8>(dchg, feba);
    *state = [
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<0>(efgh) as u32,
        _mm_extract_epi32::<1>(efgh) as u32,
        _mm_extract_epi32::<2>(efgh) as u32,
        _mm_extract_epi32::<3>(efgh) as u32,
    ];
}

/// Message words `4 * quad .. 4 * quad + 4` of `block`, big-endian, the
/// first in the lowest lane.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn message_words(block: &[u8; 64], quad: usize) -> __m128i {
    let word = |i: usize| {
        let at = 16 * quad + 4 * i;
        u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
    };
    _mm_set_epi32(word(3), word(2), word(1), word(0))
}

/// The next four schedule words from the previous sixteen
/// (`w[0]` oldest): `σ0` by `sha256msg1`, the `w[t-7]` term by aligning
/// across `w[2]` and `w[3]`, `σ1` by `sha256msg2`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w: [__m128i; 4]) -> __m128i {
    let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
    let minus7 = _mm_alignr_epi8::<4>(w[3], w[2]);
    _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, minus7), w[3])
}
