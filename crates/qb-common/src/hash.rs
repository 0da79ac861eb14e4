//! SHA-256 and the 256-bit digest type used for content addressing.
//!
//! The DWeb's tamper-proof property rests entirely on content being addressed
//! by a cryptographic hash. We implement SHA-256 (FIPS 180-4) directly rather
//! than pulling an external crate; the implementation is validated against
//! the official test vectors in the unit tests below.
//!
//! [`Sha256`] hands every run of whole 64-byte blocks, read in place, to one
//! compression call, which takes one of two paths:
//!
//! - **Hardware.** On an x86-64 CPU with the SHA extensions (and SSSE3 and
//!   SSE4.1), `sha256rnds2` / `sha256msg1` / `sha256msg2` compress the
//!   blocks with the state held in two registers throughout. The check is
//!   made at run time, once per call; nothing configures it.
//! - **Portable.** Every other host runs the FIPS 180-4 compression word by
//!   word.
//!
//! Both paths produce identical digests: every known-answer test below runs
//! through each, and a property test compares their states on random
//! states and blocks. A digest never depends on the host that made it.

use crate::hex;
#[cfg(target_arch = "x86_64")]
use crate::sha256_x86;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A 256-bit digest. Used as the content identifier of blocks and pages, as
/// DHT keys and as node identifiers (all share the same key space, exactly as
/// in Kademlia-based systems such as IPFS).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct Hash256(pub [u8; 32]);

/// A digest is already uniform, so it hashes as its first eight bytes: a
/// map keyed by digests (block cids, DHT keys) pays for one word, not for
/// thirty-two bytes and a length. Equal digests have equal prefixes, so
/// this agrees with `Eq`.
impl Hash for Hash256 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f, g, h, ..] = self.0;
        state.write_u64(u64::from_le_bytes([a, b, c, d, e, f, g, h]));
    }
}

impl Hash256 {
    /// The all-zero digest; used as a sentinel (e.g. "no previous version").
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Hash arbitrary bytes.
    pub fn digest(data: &[u8]) -> Hash256 {
        sha256(data)
    }

    /// Hash the concatenation of several byte strings (used for domain
    /// separation, e.g. `Hash256::digest_parts(&[b"idx:", term.as_bytes()])`).
    pub fn digest_parts(parts: &[&[u8]]) -> Hash256 {
        let mut hasher = Sha256::new();
        for p in parts {
            hasher.update(p);
        }
        Hash256(hasher.finalize())
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The digest as four big-endian 64-bit words, most significant first:
    /// the form ids, key prefixes and the XOR metric read it in.
    pub fn words(&self) -> [u64; 4] {
        let [a0, a1, a2, a3, a4, a5, a6, a7, rest @ ..] = self.0;
        let [b0, b1, b2, b3, b4, b5, b6, b7, rest @ ..] = rest;
        let [c0, c1, c2, c3, c4, c5, c6, c7, d0, d1, d2, d3, d4, d5, d6, d7] = rest;
        [
            u64::from_be_bytes([a0, a1, a2, a3, a4, a5, a6, a7]),
            u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
            u64::from_be_bytes([c0, c1, c2, c3, c4, c5, c6, c7]),
            u64::from_be_bytes([d0, d1, d2, d3, d4, d5, d6, d7]),
        ]
    }

    /// Construct from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Hash256 {
        Hash256(bytes)
    }

    /// Lowercase hex representation (64 chars).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Short prefix used in log output and tables.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }

    /// Parse from a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 32 {
            return None;
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes);
        Some(Hash256(out))
    }

    /// XOR distance between two digests interpreted as 256-bit integers
    /// (the Kademlia metric).
    pub fn xor(&self, other: &Hash256) -> Distance {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (self.words(), other.words());
        Distance([a0 ^ b0, a1 ^ b1, a2 ^ b2, a3 ^ b3])
    }

    /// Number of leading zero bits of the XOR distance to `other`; equals
    /// 256 when the two digests are identical. Used to select k-buckets.
    pub fn common_prefix_len(&self, other: &Hash256) -> usize {
        let mut count = 0;
        for word in self.xor(other).0 {
            count += word.leading_zeros() as usize;
            if word != 0 {
                break;
            }
        }
        count
    }

    /// Compare XOR distances: is `self` closer to `target` than `other` is?
    pub fn closer_to(&self, other: &Hash256, target: &Hash256) -> bool {
        self.xor(target) < other.xor(target)
    }
}

/// An XOR distance ([`Hash256::xor`]): the 256-bit value as four big-endian
/// words, most significant first, so the derived order is the integer order
/// and a comparison is four word compares. Compute it once per contact and
/// keep it beside the contact; never re-derive it inside a comparator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Distance([u64; 4]);

/// The hasher for keys that are already ids — a doc id (64 bits of
/// SHA-256), a sequential RPC handle, a digest ([`DigestMap`]): they need
/// no SipHash, only a spread.
/// `finish` multiplies by the 64-bit golden-ratio constant, so sequential
/// keys reach the high bits a `HashMap` takes its control byte from, while
/// the low bits it takes the slot from stay a bijection of the key's.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

/// A map keyed by ids, hashed by [`IdHasher`].
pub type IdHashMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A map keyed by a digest ([`Hash256`] or a type wrapping one, such as a
/// block cid or a DHT key), hashed by [`IdHasher`] from the digest's first
/// eight bytes. Unkeyed, like [`IdHashMap`] over doc ids: aiming a key at
/// a chosen slot costs about as many SHA-256 evaluations as the map has
/// slots, which no simulated peer spends; a map fed digests a real
/// adversary chose keeps the default hasher.
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Convenience function: SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(data);
    Hash256(hasher.finalize())
}

/// The round constants (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher (FIPS 180-4).
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish and return the digest bytes.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress_blocks)
    }

    #[inline]
    fn update_with(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        self.absorb(data, compress);
    }

    #[inline]
    fn finalize_with(mut self, compress: Compress) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // The 0x80 terminator, zeros up to 56 mod 64, then the bit length:
        // at most 1 + 63 + 8 bytes, so the padding lives on the stack.
        let rem = (self.buffer_len + 1 + 8) % 64;
        let zeros = if rem == 0 { 0 } else { 64 - rem };
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[1 + zeros..1 + zeros + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&tail[..1 + zeros + 8], compress);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Buffer `data` and compress every full block (message bytes and
    /// padding alike; only [`Sha256::update`] counts towards the length).
    /// Whole blocks of `data` are compressed where they lie, all in one
    /// call; only a partial block is copied into the buffer.
    #[inline]
    fn absorb(&mut self, data: &[u8], compress: Compress) {
        let mut input = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            }
        }
        let (blocks, rest) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }
}

/// A compression function: folds whole 64-byte blocks into the state.
type Compress = fn(&mut [u32; 8], &[[u8; 64]]);

/// Fold `blocks` into `state` on the fastest path this CPU has.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if !compress_hardware(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// Fold `blocks` into `state` on the SHA extensions and return `true`, or
/// return `false` and leave `state` alone when this CPU lacks them.
#[cfg(target_arch = "x86_64")]
fn compress_hardware(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !sha256_x86::detected() {
        return false;
    }
    // SAFETY: `detected()` has just confirmed, through
    // `is_x86_feature_detected!`, that this CPU supports `sha`, `ssse3` and
    // `sse4.1` (`sse2` is part of the x86-64 baseline), which are exactly
    // the features `compress_blocks` is compiled with.
    #[allow(unsafe_code)]
    unsafe {
        sha256_x86::compress_blocks(state, blocks);
    }
    true
}

/// No SHA extensions off x86-64: the portable path runs.
#[cfg(not(target_arch = "x86_64"))]
fn compress_hardware(_state: &mut [u32; 8], _blocks: &[[u8; 64]]) -> bool {
    false
}

/// The portable compression (FIPS 180-4 §6.2.2), one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress_block(state, block);
    }
}

fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hardware compression, or `None` on a CPU without the SHA
    /// extensions — after a printed note, since the caller's hardware half
    /// is then skipped. A probe over no blocks changes nothing and reports
    /// whether the hardware path would run.
    fn hardware() -> Option<Compress> {
        if compress_hardware(&mut [0; 8], &[]) {
            Some(|state, blocks| assert!(compress_hardware(state, blocks)))
        } else {
            eprintln!("note: no SHA extensions on this CPU; hardware SHA-256 path not tested");
            None
        }
    }

    /// Assert that `data` hashes to `expected` through the public API and
    /// through each compression path this CPU has: the portable one always
    /// (called directly, so a CPU with SHA extensions tests it too), the
    /// hardware one where the CPU has them.
    fn assert_digest(data: &[u8], expected: &str) {
        assert_eq!(sha256(data).to_hex(), expected, "{} bytes", data.len());
        let portable: Compress = compress_portable;
        for (path, compress) in [("portable", Some(portable)), ("hardware", hardware())] {
            let Some(compress) = compress else { continue };
            let mut h = Sha256::new();
            h.update_with(data, compress);
            let digest = Hash256(h.finalize_with(compress)).to_hex();
            assert_eq!(digest, expected, "{path} path, {} bytes", data.len());
        }
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string_vector() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn words_read_the_digest_big_endian() {
        let abc = Hash256::digest(b"abc");
        let words = [
            0xba78_16bf_8f01_cfea,
            0x4141_40de_5dae_2223,
            0xb003_61a3_9617_7a9c,
            0xb410_ff61_f200_15ad,
        ];
        assert_eq!(abc.words(), words);
        // The XOR metric reads the same words.
        assert_eq!(abc.xor(&Hash256::ZERO).0, words);
        let ones = Hash256([0xff; 32]);
        assert_eq!(abc.xor(&ones).0, words.map(|w| !w));
    }

    #[test]
    fn two_block_vector() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Known answers (`sha256sum`) on either side of every padding boundary:
    /// 55 bytes is the longest message whose padding fits its own block, 56
    /// the shortest that spills into a second one, 64 a full block.
    #[test]
    fn padding_boundary_vectors() {
        let vectors = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ];
        for (len, digest) in vectors {
            assert_digest(&vec![b'a'; len], digest);
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = sha256(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(Hash256(h.finalize()), one_shot);
    }

    #[test]
    fn digest_parts_matches_concat() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(Hash256::digest_parts(&[a, b]), sha256(b"hello world"));
    }

    #[test]
    fn hex_round_trip() {
        let h = sha256(b"round trip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex("ab"), None); // too short
    }

    #[test]
    fn xor_distance_properties_basic() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_eq!(a.xor(&a), Distance::default());
        assert_eq!(a.xor(&b), b.xor(&a));
        assert_eq!(a.common_prefix_len(&a), 256);
    }

    #[test]
    fn sequential_ids_spread_over_the_high_bits() {
        let hash = |id: u64| {
            let mut h = IdHasher::default();
            h.write_u64(id);
            h.finish()
        };
        // The top seven bits (a map's control byte) differ across a run
        // of sequential handles, and the low bits stay one-to-one.
        let tops: std::collections::BTreeSet<u64> = (0..128).map(|id| hash(id) >> 57).collect();
        assert!(tops.len() > 64, "{} distinct control values", tops.len());
        let lows: std::collections::BTreeSet<u64> = (0..256).map(|id| hash(id) & 0xff).collect();
        assert_eq!(lows.len(), 256);
    }

    #[test]
    fn closer_to_is_a_strict_order() {
        let t = sha256(b"target");
        let a = sha256(b"a");
        let b = sha256(b"b");
        if a != b {
            assert_ne!(a.closer_to(&b, &t), b.closer_to(&a, &t));
        }
        assert!(!a.closer_to(&a, &t));
    }

    proptest! {
        /// Streaming in chunks of one byte, one short of a block, a block,
        /// one past it, one short of two, and a random size: chunks that
        /// split a block, fill it exactly and straddle its end.
        #[test]
        fn streaming_equals_oneshot_prop(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                          chunk in 1usize..130) {
            let one_shot = sha256(&data);
            for size in [1, 63, 64, 65, 127, chunk] {
                let mut h = Sha256::new();
                for c in data.chunks(size) {
                    h.update(c);
                }
                prop_assert_eq!(Hash256(h.finalize()), one_shot);
            }
        }

        /// From a random state, 1–8 random blocks compress to the same
        /// state on the hardware path as on the portable one.
        #[test]
        fn hardware_and_portable_compress_alike(
            state in any::<[u8; 32]>(),
            bytes in proptest::collection::vec(any::<u8>(), 512..513),
            count in 1usize..9,
        ) {
            let Some(hardware) = hardware() else { return };
            let state: [u32; 8] = std::array::from_fn(|i| {
                u32::from_le_bytes([state[4 * i], state[4 * i + 1], state[4 * i + 2], state[4 * i + 3]])
            });
            let (blocks, _) = bytes[..64 * count].as_chunks::<64>();
            let (mut portable, mut accelerated) = (state, state);
            compress_portable(&mut portable, blocks);
            hardware(&mut accelerated, blocks);
            prop_assert_eq!(accelerated, portable);
        }

        #[test]
        fn different_inputs_different_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                              b in proptest::collection::vec(any::<u8>(), 0..256)) {
            if a != b {
                prop_assert_ne!(sha256(&a), sha256(&b));
            } else {
                prop_assert_eq!(sha256(&a), sha256(&b));
            }
        }

        #[test]
        fn common_prefix_len_symmetric(a in any::<[u8;32]>(), b in any::<[u8;32]>()) {
            let ha = Hash256(a);
            let hb = Hash256(b);
            prop_assert_eq!(ha.common_prefix_len(&hb), hb.common_prefix_len(&ha));
        }
    }
}
