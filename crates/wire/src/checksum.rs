//! Checksums: the Internet checksum (RFC 1071) for transport headers and
//! the IEEE 802.3 CRC-32 as a software stand-in for the Ethernet FCS.
//!
//! On the paper's hardware the frame check sequence was computed by the
//! 3-Com interface; a corrupted frame was simply dropped by the receiver,
//! which is why the paper models errors as packet *loss* with probability
//! `p_n` rather than byte corruption.  Our simulated and UDP channels do
//! the same: `blast-sim` drops frames outright, and `blast-udp`'s
//! fault injector corrupts octets which then fail these checksums and are
//! dropped by the demultiplexer — converting corruption into loss exactly
//! as real Ethernet hardware did.
//!
//! [`crc32`] takes a carry-less-multiply kernel on x86-64 CPUs that
//! have one (512-bit VPCLMULQDQ for inputs of 256 bytes or more, where
//! the CPU has AVX-512; 128-bit PCLMULQDQ otherwise), and slicing-by-8
//! tables everywhere else; all compute the same bits, and [`Crc32`]
//! streams through the same paths.

/// Compute the 16-bit ones-complement Internet checksum (RFC 1071) of a
/// byte slice.
///
/// The returned value is the checksum field value to place in the packet:
/// the ones-complement of the ones-complement sum.  Verifying a packet
/// whose checksum field is filled yields `0xffff` from [`sum`] or,
/// equivalently, [`verify`] returns `true`.
///
/// ```
/// let mut data = *b"blast protocol!!";
/// let c = blast_wire::checksum::internet(&data);
/// // Append the checksum and the total now verifies.
/// let mut with = data.to_vec();
/// with.extend_from_slice(&c.to_be_bytes());
/// assert!(blast_wire::checksum::verify(&with));
/// ```
pub fn internet(data: &[u8]) -> u16 {
    !fold(sum(data))
}

/// Raw 32-bit accumulating ones-complement sum of a byte slice (big-endian
/// 16-bit words, odd trailing byte padded with zero).
pub fn sum(data: &[u8]) -> u32 {
    let mut acc: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Fold a 32-bit accumulator into a 16-bit ones-complement value.
pub fn fold(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Verify a buffer that *includes* its checksum field: the folded sum of a
/// correct buffer is `0xffff`.
///
/// The all-zero buffer also folds to a passing value; callers that care
/// should reject empty/all-zero packets at a higher layer (the blast
/// header's magic field does this for us).
pub fn verify(data: &[u8]) -> bool {
    fold(sum(data)) == 0xffff
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of a byte
/// slice — the same polynomial the Ethernet FCS uses.
///
/// The FCS is computed once per datagram on each side of every
/// transfer, so its cost is part of the paper's "per-packet software
/// overhead".  On x86-64 the kernel is chosen at run time: inputs of
/// 256 bytes or more go through a 512-bit carry-less-multiply folding
/// kernel where the CPU has VPCLMULQDQ and AVX-512F (≈ 40–50 ns for a
/// 1 436-byte datagram on a 2-vCPU Xeon), and inputs of 64 bytes or
/// more through a 128-bit one where it has PCLMULQDQ and SSE4.1
/// (≈ 50–60 ns per KB, 75–105 ns for the same datagram).  Shorter
/// inputs, other CPUs and the kernels' last < 16 bytes use slicing-by-8
/// tables, ≈ 700–800 ns per KB on the same box.  Every path computes
/// the same bits.
pub fn crc32(data: &[u8]) -> u32 {
    !update(CRC32_INIT, data)
}

/// Incremental CRC-32 state for streaming use; any split of the input
/// gives the same result as one [`crc32`] call, through the same path.
///
/// ```
/// use blast_wire::checksum::{crc32, Crc32};
/// let mut s = Crc32::new();
/// s.update(b"hello ");
/// s.update(b"world");
/// assert_eq!(s.finish(), crc32(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: CRC32_INIT }
    }

    /// Absorb more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

const CRC32_INIT: u32 = 0xffff_ffff;
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Advance the raw (un-inverted) CRC register over `data`: a kernel
/// where the CPU has one, the tables everywhere else.
fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = clmul::update(state, data) {
        return state;
    }
    table(state, data)
}

/// Slicing-by-8 lookup tables: `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table reads advance the
/// state by eight input bytes.  Generated at compile time from the
/// bitwise definition of the polynomial.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = if crc & 1 != 0 { CRC32_POLY } else { 0 };
            crc = (crc >> 1) ^ mask;
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The portable path: advance the raw CRC register over `data` with
/// slicing-by-8, then byte at a time over the last < 8 bytes.
fn table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication (Intel, "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", 2009), with the
/// bit-reflected IEEE 802.3 constants, at two widths: a 512-bit kernel
/// (VPCLMULQDQ on AVX-512) for inputs of 256 bytes or more, and a
/// 128-bit one (PCLMULQDQ) for the rest of 64 bytes or more.  Both end
/// in the same 128-bit tail ([`finish`](clmul::finish)).
///
/// Every fold constant is x^n mod P(x), bit-reflected and shifted left
/// by one, for n = d + 32 (the low quadword's multiplier) and n = d − 32
/// (the high one's), where d is the fold distance in bits
/// (a test derives every one).
///
/// The crate's one `unsafe` surface: the kernels are
/// `#[target_feature]` functions, which are `unsafe` to call, and
/// [`update`](clmul::update) calls one only after detecting every
/// feature it enables on the running CPU.  Loads go through
/// `i64::from_le_bytes`, so no raw pointer is ever formed.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_set_epi64,
        _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm_and_si128, _mm_clmulepi64_si128,
        _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// Shortest input the 128-bit kernel takes: its first step loads
    /// four 16-byte blocks.
    pub(super) const MIN_LEN: usize = 64;

    /// Shortest input the 512-bit kernel takes: its first step loads
    /// four 64-byte blocks.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    // The fold constants (see the module docs): distances of 4×512 bits
    // (K1_WIDE, K2_WIDE), 4×128 bits (K1, K2), 128 bits (K3, K4) and
    // 64 bits (K5, x^64 alone).
    pub(super) const K1_WIDE: i64 = 0x1_1542_778a;
    pub(super) const K2_WIDE: i64 = 0x1_322d_1430;
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// P(x), bit-reflected, and μ = ⌊x^64 / P(x)⌋ for the Barrett step.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The code path [`crc32`](super::crc32) takes for an input, chosen
    /// by its length and the running CPU.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Kernel {
        /// 512-bit carry-less multiplication (VPCLMULQDQ, AVX-512F).
        Wide,
        /// 128-bit carry-less multiplication (PCLMULQDQ, SSE4.1).
        Narrow,
        /// Slicing-by-8 tables.
        Table,
    }

    /// The kernel an input of `len` bytes takes on this CPU.
    pub(super) fn kernel(len: usize) -> Kernel {
        let narrow = || is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let wide = || is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq");
        if len >= WIDE_MIN_LEN && narrow() && wide() {
            Kernel::Wide
        } else if len >= MIN_LEN && narrow() {
            Kernel::Narrow
        } else {
            Kernel::Table
        }
    }

    /// Advance the raw CRC register over `data` by carry-less
    /// multiplication, or `None` when [`kernel`] sends `data` to the
    /// tables.
    pub(super) fn update(state: u32, data: &[u8]) -> Option<u32> {
        match kernel(data.len()) {
            // SAFETY: `kernel` returns `Wide` only after detecting
            // `avx512f`, `vpclmulqdq`, `pclmulqdq` and `sse4.1` on this
            // CPU — every feature `fold_wide` enables — and only for
            // at least `WIDE_MIN_LEN` bytes.
            Kernel::Wide => Some(unsafe { fold_wide(state, data) }),
            // SAFETY: `kernel` returns `Narrow` only after detecting
            // `pclmulqdq` and `sse4.1`, the features `fold` enables, and
            // only for at least `MIN_LEN` bytes.
            Kernel::Narrow => Some(unsafe { fold(state, data) }),
            Kernel::Table => None,
        }
    }

    /// Folds 4×512 bits at a time in four zmm accumulators, then those
    /// four into one and 512 bits at a time, and hands its four 128-bit
    /// lanes and the < 64-byte rest to [`finish`].  Panics if `data` is
    /// shorter than `WIDE_MIN_LEN`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`, `vpclmulqdq`, `pclmulqdq` and
    /// `sse4.1`.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    unsafe fn fold_wide(state: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(256);
        let first = blocks.next().expect("at least WIDE_MIN_LEN bytes");
        let state = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, i64::from(state));
        let mut z0 = _mm512_xor_si512(load_wide(first, 0), state);
        let mut z1 = load_wide(first, 1);
        let mut z2 = load_wide(first, 2);
        let mut z3 = load_wide(first, 3);

        let k_wide = wide_keys(K1_WIDE, K2_WIDE);
        for block in &mut blocks {
            z0 = fold_wide_into(z0, load_wide(block, 0), k_wide);
            z1 = fold_wide_into(z1, load_wide(block, 1), k_wide);
            z2 = fold_wide_into(z2, load_wide(block, 2), k_wide);
            z3 = fold_wide_into(z3, load_wide(block, 3), k_wide);
        }

        // Each accumulator is 512 bits ahead of the one before it: the
        // 128-bit kernel's 4×128-bit distance, lane by lane.
        let k1k2 = wide_keys(K1, K2);
        let mut z = fold_wide_into(z0, z1, k1k2);
        z = fold_wide_into(z, z2, k1k2);
        z = fold_wide_into(z, z3, k1k2);
        let mut quads = blocks.remainder().chunks_exact(64);
        for quad in &mut quads {
            z = fold_wide_into(z, load_wide(quad, 0), k1k2);
        }

        let lanes = [
            _mm512_extracti32x4_epi32(z, 0),
            _mm512_extracti32x4_epi32(z, 1),
            _mm512_extracti32x4_epi32(z, 2),
            _mm512_extracti32x4_epi32(z, 3),
        ];
        finish(lanes, quads.remainder())
    }

    /// Folds 4×128 bits at a time, then hands the four accumulators and
    /// the < 64-byte rest to [`finish`].  Panics if `data` is shorter
    /// than `MIN_LEN`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        let mut quads = data.chunks_exact(64);
        let first = quads.next().expect("at least MIN_LEN bytes");
        let mut x0 = _mm_xor_si128(load(first, 0), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(first, 1);
        let mut x2 = load(first, 2);
        let mut x3 = load(first, 3);

        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            x0 = fold_into(x0, load(quad, 0), k1k2);
            x1 = fold_into(x1, load(quad, 1), k1k2);
            x2 = fold_into(x2, load(quad, 2), k1k2);
            x3 = fold_into(x3, load(quad, 3), k1k2);
        }
        finish([x0, x1, x2, x3], quads.remainder())
    }

    /// The tail both kernels share: folds four accumulators, each
    /// 128 bits ahead of the one before it, into one, then 128 bits at
    /// a time over `rest`, then 128 → 64 bits, and takes the last
    /// 64 → 32 bits with a Barrett reduction; the < 16-byte tail of
    /// `rest` goes to the tables.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn finish(acc: [__m128i; 4], rest: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        let mut blocks = rest.chunks_exact(16);
        for block in &mut blocks {
            x = fold_into(x, load(block, 0), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett: 64 → 32 bits.  Bit-reflected, so the remainder lands
        // in the upper half of the low 64 bits.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::table(crc, blocks.remainder())
    }

    /// `acc` carried 128 bits further along (multiplied by the two
    /// halves of `keys`), plus the next block.
    ///
    /// # Safety
    ///
    /// As for [`fold`].
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// [`fold_into`] on each of the four 128-bit lanes at once, the
    /// three-way XOR in one ternary-logic instruction.
    ///
    /// # Safety
    ///
    /// As for [`fold_wide`].
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn fold_wide_into(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, keys, 0x11);
        // 0x96: a ^ b ^ c.
        _mm512_ternarylogic_epi64(next, lo, hi, 0x96)
    }

    /// `lo` in the low and `hi` in the high quadword of every 128-bit
    /// lane.
    ///
    /// # Safety
    ///
    /// As for [`fold_wide`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn wide_keys(lo: i64, hi: i64) -> __m512i {
        _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo)
    }

    /// The `i`-th 16-byte block of `bytes`, little-endian.
    ///
    /// # Safety
    ///
    /// As for [`fold`].
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn load(bytes: &[u8], i: usize) -> __m128i {
        let block = &bytes[16 * i..16 * i + 16];
        let lo = i64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// The `i`-th 64-byte block of `bytes`, little-endian.
    ///
    /// # Safety
    ///
    /// As for [`fold_wide`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_wide(bytes: &[u8], i: usize) -> __m512i {
        let block: &[u8; 64] = bytes[64 * i..64 * i + 64].try_into().expect("64 bytes");
        let q = |j: usize| i64::from_le_bytes(block[8 * j..8 * j + 8].try_into().expect("8 bytes"));
        _mm512_set_epi64(q(7), q(6), q(5), q(4), q(3), q(2), q(1), q(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_checksum_rfc1071_example() {
        // The classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7
        // sum to 0xddf2 before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum(&data)), 0xddf2);
        assert_eq!(internet(&data), !0xddf2);
    }

    #[test]
    fn internet_checksum_odd_length() {
        // A trailing odd byte is padded on the right with zero.
        assert_eq!(sum(&[0xab]), sum(&[0xab, 0x00]));
        let data = [1, 2, 3];
        let c = internet(&data);
        let mut with = data.to_vec();
        // Append pad byte then checksum so words align for verification.
        with.push(0);
        with.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&with));
    }

    #[test]
    fn verify_detects_single_bit_flips() {
        let mut data = b"the quick brown fox jumps over!!".to_vec();
        let c = internet(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert!(!verify(&bad), "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn internet_checksum_is_order_sensitive_within_words_only() {
        // Ones-complement addition commutes across 16-bit words: swapping
        // whole words leaves the checksum unchanged (a known weakness).
        let a = [0x12, 0x34, 0x56, 0x78];
        let b = [0x56, 0x78, 0x12, 0x34];
        assert_eq!(internet(&a), internet(&b));
        // ...but swapping bytes within a word changes it.
        let c = [0x34, 0x12, 0x56, 0x78];
        assert_ne!(internet(&a), internet(&c));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE, through both paths.
        for (data, want) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(data), want);
            assert_eq!(!table(CRC32_INIT, data), want);
        }
        // Long enough for the kernel: any message followed by its own
        // CRC (little-endian) has the standard residue 0x2144DF1C.
        for len in [64, 1436, 4096] {
            let mut framed = pseudo_random(len, 3);
            framed.extend_from_slice(&crc32(&framed).to_le_bytes());
            assert_eq!(crc32(&framed), 0x2144_DF1C, "length {len}");
            assert_eq!(!table(CRC32_INIT, &framed), 0x2144_DF1C, "length {len}");
        }
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 7, 128, 255, 256] {
            let mut s = Crc32::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), crc32(&data), "split at {split}");
        }
    }

    /// Seeded bytes: xorshift64, so the same vector on every run.
    fn pseudo_random(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn kernel_matches_table_at_every_length_and_offset() {
        let data = pseudo_random(4096 + 16, 0x9e37_79b9_7f4a_7c15);
        for offset in 0..16 {
            for len in 0..=4096 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    update(CRC32_INIT, slice),
                    table(CRC32_INIT, slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn kernel_carries_any_incoming_state() {
        let data = pseudo_random(1436, 7);
        for state in [0, 1, 0x8000_0000, 0xdead_beef, CRC32_INIT] {
            assert_eq!(update(state, &data), table(state, &data), "{state:#x}");
        }
    }

    /// Which kernel each length reaches on the running CPU: the 512-bit
    /// one from 256 bytes where the CPU has VPCLMULQDQ and AVX-512F, the
    /// 128-bit one from 64 bytes where it has PCLMULQDQ and SSE4.1, the
    /// tables below that.  Run with `--nocapture` to see this host's.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_takes_exactly_the_inputs_it_should() {
        use clmul::Kernel;
        let narrow = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let wide = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq");
        let mut taken = Vec::new();
        for len in [0, 15, 63, 64, 255, 256, 1436, 4096] {
            let want = if len >= 256 && narrow && wide {
                Kernel::Wide
            } else if len >= 64 && narrow {
                Kernel::Narrow
            } else {
                Kernel::Table
            };
            assert_eq!(clmul::kernel(len), want, "length {len}");
            assert_eq!(
                clmul::update(CRC32_INIT, &vec![0x5a; len]).is_some(),
                want != Kernel::Table,
                "length {len}"
            );
            taken.push(format!("{len} B: {want:?}"));
        }
        println!("CRC-32 kernel on this CPU: {}", taken.join(", "));
    }

    /// x^n mod P(x), bit-reflected and shifted left by one: the rule
    /// every fold constant follows.
    #[cfg(target_arch = "x86_64")]
    fn fold_constant(n: u32) -> i64 {
        const P_NORMAL: u64 = 0x1_04c1_1db7;
        let mut r: u64 = 1;
        for _ in 0..n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P_NORMAL;
            }
        }
        i64::from((r as u32).reverse_bits()) << 1
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_follow_their_rule() {
        for (name, value, n) in [
            ("K1_WIDE", clmul::K1_WIDE, 2048 + 32),
            ("K2_WIDE", clmul::K2_WIDE, 2048 - 32),
            ("K1", clmul::K1, 512 + 32),
            ("K2", clmul::K2, 512 - 32),
            ("K3", clmul::K3, 128 + 32),
            ("K4", clmul::K4, 128 - 32),
            ("K5", clmul::K5, 64),
        ] {
            assert_eq!(fold_constant(n), value, "{name} = x^{n} mod P");
        }
    }

    proptest::proptest! {
        #[test]
        fn kernel_matches_table_on_random_vectors(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=65536),
        ) {
            proptest::prop_assert_eq!(update(CRC32_INIT, &data), table(CRC32_INIT, &data));
        }
    }

    #[test]
    fn crc32_detects_corruption() {
        let data = vec![0xa5u8; 1024];
        let good = crc32(&data);
        let mut bad = data.clone();
        bad[512] ^= 0x01;
        assert_ne!(crc32(&bad), good);
    }

    #[test]
    fn fold_handles_large_accumulators() {
        assert_eq!(fold(0), 0);
        assert_eq!(fold(0xffff), 0xffff);
        assert_eq!(fold(0x1_0000), 1);
        assert_eq!(fold(0xffff_ffff), 0xffff);
    }
}
