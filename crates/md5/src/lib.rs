//! MD5 message digest, implemented from scratch per RFC 1321.
//!
//! The ModChecker paper hashes every extracted PE header and executable
//! section with OpenSSL's MD5. This crate is the substitution: a dependency-
//! free MD5 with both a one-shot ([`md5`]) and an incremental ([`Md5`]) API,
//! validated against the RFC 1321 test suite.
//!
//! MD5 is used here exactly as the paper uses it — as a fast fingerprint for
//! cross-VM *consistency* checking, not as a collision-resistant commitment.
//!
//! # Examples
//!
//! ```
//! let d = mc_md5::md5(b"abc");
//! assert_eq!(d.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
//!
//! let mut ctx = mc_md5::Md5::new();
//! ctx.update(b"ab");
//! ctx.update(b"c");
//! assert_eq!(ctx.finalize(), d);
//! ```

#![warn(missing_docs)]

mod digest;

pub use digest::Digest;

/// Per-round shift amounts (RFC 1321 section 3.4), one row per round.
const S: [[u32; 4]; 4] = [
    [7, 12, 17, 22],
    [5, 9, 14, 20],
    [4, 11, 16, 23],
    [6, 10, 15, 21],
];

/// Sine-derived constants `K[i] = floor(2^32 * abs(sin(i + 1)))`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Initial state (RFC 1321 section 3.3), little-endian word order A, B, C, D.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Incremental MD5 context.
///
/// Feed arbitrary chunks with [`Md5::update`] and call [`Md5::finalize`] once
/// at the end. The digest is independent of how the input is split across
/// `update` calls (verified by property test).
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64, as RFC allows).
    len: u64,
    /// Partial block carried between `update` calls.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // The partial buffer absorbed all of `data`; nothing may fall
                // through to the tail logic below or it would clobber
                // `buf_len`.
                debug_assert!(rest.is_empty());
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Applies RFC 1321 padding and returns the final digest, consuming the
    /// context.
    pub fn finalize(mut self) -> Digest {
        // Padding: a single 0x80 byte, zeros to 56 mod 64, then the 64-bit
        // little-endian message bit length. Written into the block buffer
        // directly: one compression, or two when the 0x80 byte leaves no
        // room for the length.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_le_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// The four auxiliary functions of RFC 1321 section 3.4. `f` saves an
/// operation over the textbook form; `g` adds its two halves (their bits
/// are disjoint, so `+` equals `|`), which lets the half that does not
/// depend on the previous step's result join the step's sum early.
#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    z ^ (x & (y ^ z))
}

#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    (x & z).wrapping_add(y & !z)
}

#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

#[inline(always)]
fn i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

/// Four MD5 steps starting at step `$k`: each names its boolean
/// function, the message words it reads and the round's four shifts.
macro_rules! steps {
    ($fun:ident, $m:ident, [$a:ident, $b:ident, $c:ident, $d:ident], $k:expr,
     [$g0:expr, $g1:expr, $g2:expr, $g3:expr], $s:expr) => {
        $a = step($fun($b, $c, $d), $a, $b, $m[$g0], K[$k], $s[0]);
        $d = step($fun($a, $b, $c), $d, $a, $m[$g1], K[$k + 1], $s[1]);
        $c = step($fun($d, $a, $b), $c, $d, $m[$g2], K[$k + 2], $s[2]);
        $b = step($fun($c, $d, $a), $b, $c, $m[$g3], K[$k + 3], $s[3]);
    };
}

/// `b + ((a + fun + m + k) <<< s)`, the body of every step.
#[inline(always)]
fn step(fun: u32, a: u32, b: u32, m: u32, k: u32, s: u32) -> u32 {
    b.wrapping_add(
        a.wrapping_add(fun)
            .wrapping_add(m)
            .wrapping_add(k)
            .rotate_left(s),
    )
}

/// One 64-byte block of the MD5 compression function, unrolled into its
/// four 16-step rounds.
#[inline]
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }

    let [mut a, mut b, mut c, mut d] = *state;
    steps!(f, m, [a, b, c, d], 0, [0, 1, 2, 3], S[0]);
    steps!(f, m, [a, b, c, d], 4, [4, 5, 6, 7], S[0]);
    steps!(f, m, [a, b, c, d], 8, [8, 9, 10, 11], S[0]);
    steps!(f, m, [a, b, c, d], 12, [12, 13, 14, 15], S[0]);
    steps!(g, m, [a, b, c, d], 16, [1, 6, 11, 0], S[1]);
    steps!(g, m, [a, b, c, d], 20, [5, 10, 15, 4], S[1]);
    steps!(g, m, [a, b, c, d], 24, [9, 14, 3, 8], S[1]);
    steps!(g, m, [a, b, c, d], 28, [13, 2, 7, 12], S[1]);
    steps!(h, m, [a, b, c, d], 32, [5, 8, 11, 14], S[2]);
    steps!(h, m, [a, b, c, d], 36, [1, 4, 7, 10], S[2]);
    steps!(h, m, [a, b, c, d], 40, [13, 0, 3, 6], S[2]);
    steps!(h, m, [a, b, c, d], 44, [9, 12, 15, 2], S[2]);
    steps!(i, m, [a, b, c, d], 48, [0, 7, 14, 5], S[3]);
    steps!(i, m, [a, b, c, d], 52, [12, 3, 10, 1], S[3]);
    steps!(i, m, [a, b, c, d], 56, [8, 15, 6, 13], S[3]);
    steps!(i, m, [a, b, c, d], 60, [4, 11, 2, 9], S[3]);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// One-shot MD5 of `data`.
pub fn md5(data: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rolled MD5 written straight from RFC 1321: one loop over the 64
    /// steps that picks the boolean function and the message index per
    /// step, and padding fed through `update` one byte at a time. The
    /// differential oracle for the unrolled kernel.
    mod reference {
        use super::super::{Digest, INIT, K, S};

        pub struct RolledMd5 {
            state: [u32; 4],
            len: u64,
            buf: [u8; 64],
            buf_len: usize,
        }

        impl RolledMd5 {
            pub fn new() -> Self {
                RolledMd5 {
                    state: INIT,
                    len: 0,
                    buf: [0u8; 64],
                    buf_len: 0,
                }
            }

            pub fn update(&mut self, data: &[u8]) {
                self.len = self.len.wrapping_add(data.len() as u64);
                let mut rest = data;
                if self.buf_len > 0 {
                    let take = rest.len().min(64 - self.buf_len);
                    self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
                    self.buf_len += take;
                    rest = &rest[take..];
                    if self.buf_len < 64 {
                        return;
                    }
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
                let mut chunks = rest.chunks_exact(64);
                for block in &mut chunks {
                    let mut b = [0u8; 64];
                    b.copy_from_slice(block);
                    self.compress(&b);
                }
                let tail = chunks.remainder();
                self.buf[..tail.len()].copy_from_slice(tail);
                self.buf_len = tail.len();
            }

            pub fn finalize(mut self) -> Digest {
                let bit_len = self.len.wrapping_mul(8);
                self.update(&[0x80]);
                while self.buf_len != 56 {
                    self.update(&[0]);
                }
                self.update(&bit_len.to_le_bytes());
                let mut out = [0u8; 16];
                for (i, word) in self.state.iter().enumerate() {
                    out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
                }
                Digest(out)
            }

            fn compress(&mut self, block: &[u8; 64]) {
                let mut m = [0u32; 16];
                for (i, word) in m.iter_mut().enumerate() {
                    *word = u32::from_le_bytes([
                        block[i * 4],
                        block[i * 4 + 1],
                        block[i * 4 + 2],
                        block[i * 4 + 3],
                    ]);
                }
                let [mut a, mut b, mut c, mut d] = self.state;
                for i in 0..64 {
                    let (f, g) = match i / 16 {
                        0 => ((b & c) | (!b & d), i),
                        1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                        2 => (b ^ c ^ d, (3 * i + 5) % 16),
                        _ => (c ^ (b | !d), (7 * i) % 16),
                    };
                    let tmp = d;
                    d = c;
                    c = b;
                    b = b.wrapping_add(
                        a.wrapping_add(f)
                            .wrapping_add(K[i])
                            .wrapping_add(m[g])
                            .rotate_left(S[i / 16][i % 4]),
                    );
                    a = tmp;
                }
                for (s, v) in self.state.iter_mut().zip([a, b, c, d]) {
                    *s = s.wrapping_add(v);
                }
            }
        }

        pub fn md5(data: &[u8]) -> Digest {
            let mut ctx = RolledMd5::new();
            ctx.update(data);
            ctx.finalize()
        }
    }

    /// Deterministic filler bytes (no two adjacent blocks alike).
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn unrolled_kernel_matches_the_rolled_reference_at_every_short_length() {
        // Every length through two blocks plus padding: each position of
        // the 0x80 byte and each one- and two-block padding case.
        for len in 0..=130 {
            let data = filler(len, len as u64);
            assert_eq!(md5(&data), reference::md5(&data), "len {len}");
        }
    }

    #[test]
    fn unrolled_kernel_matches_the_rolled_reference_on_a_page_and_a_mebibyte() {
        for len in [4096usize, 1 << 20] {
            let data = filler(len, 0x5EED);
            assert_eq!(md5(&data), reference::md5(&data), "len {len}");
            let mut ctx = Md5::new();
            for chunk in data.chunks(4096) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finalize(), reference::md5(&data), "paged len {len}");
        }
    }

    /// RFC 1321 appendix A.5 test suite.
    const VECTORS: &[(&str, &str)] = &[
        ("", "d41d8cd98f00b204e9800998ecf8427e"),
        ("a", "0cc175b9c0f1b6a831c399e269772661"),
        ("abc", "900150983cd24fb0d6963f7d28e17f72"),
        ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (
            "abcdefghijklmnopqrstuvwxyz",
            "c3fcd3d76192e4007dfb496cca67e13b",
        ),
        (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];

    #[test]
    fn rfc1321_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(md5(input.as_bytes()).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_on_block_boundaries() {
        // Lengths chosen to straddle the 56-byte padding threshold and the
        // 64-byte block size.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let oneshot = md5(&data);
            let mut ctx = Md5::new();
            for chunk in data.chunks(7) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finalize(), oneshot, "len {len}");
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let data = vec![0xAAu8; 300];
        let base = md5(&data);
        for byte in [0usize, 150, 299] {
            let mut flipped = data.clone();
            flipped[byte] ^= 1;
            assert_ne!(md5(&flipped), base, "flip at byte {byte}");
        }
    }

    #[test]
    fn digest_roundtrips_through_hex() {
        let d = md5(b"roundtrip");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn empty_update_calls_are_identity() {
        let mut ctx = Md5::new();
        ctx.update(b"");
        ctx.update(b"abc");
        ctx.update(b"");
        assert_eq!(ctx.finalize().to_hex(), "900150983cd24fb0d6963f7d28e17f72");
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut ctx = Md5::new();
        ctx.update(b"common prefix ");
        let fork = ctx.clone();
        ctx.update(b"left");
        let mut right = fork;
        right.update(b"right");
        assert_eq!(ctx.finalize(), md5(b"common prefix left"));
        assert_eq!(right.finalize(), md5(b"common prefix right"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Splitting the input arbitrarily across update calls never
            /// changes the digest.
            #[test]
            fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                          cuts in proptest::collection::vec(0usize..4096, 0..8)) {
                let oneshot = md5(&data);
                let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
                points.sort_unstable();
                let mut ctx = Md5::new();
                let mut prev = 0;
                for p in points {
                    ctx.update(&data[prev..p]);
                    prev = p;
                }
                ctx.update(&data[prev..]);
                prop_assert_eq!(ctx.finalize(), oneshot);
            }

            /// The unrolled kernel and one-shot padding agree with the
            /// rolled reference for any length up to 65 blocks, however
            /// the input is split across `update` calls on either side.
            #[test]
            fn unrolled_kernel_matches_the_rolled_reference(
                data in proptest::collection::vec(any::<u8>(), 0..4161),
                cuts in proptest::collection::vec(0usize..4161, 0..8),
                ref_cuts in proptest::collection::vec(0usize..4161, 0..8),
            ) {
                let split = |cuts: Vec<usize>| {
                    let mut points: Vec<usize> =
                        cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
                    points.sort_unstable();
                    points.push(data.len());
                    points
                };
                let mut fast = Md5::new();
                let mut prev = 0;
                for p in split(cuts) {
                    fast.update(&data[prev..p]);
                    prev = p;
                }
                let mut rolled = reference::RolledMd5::new();
                let mut prev = 0;
                for p in split(ref_cuts) {
                    rolled.update(&data[prev..p]);
                    prev = p;
                }
                prop_assert_eq!(fast.finalize(), rolled.finalize());
            }

            /// Distinct short inputs produce distinct digests (no accidental
            /// state-reset bug that maps everything to one value).
            #[test]
            fn length_extension_distinct(data in proptest::collection::vec(any::<u8>(), 0..256)) {
                let mut extended = data.clone();
                extended.push(0);
                prop_assert_ne!(md5(&extended), md5(&data));
            }
        }
    }
}
