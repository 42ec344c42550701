//! AES-128 block cipher (FIPS-197), encryption direction only.
//!
//! Counter-mode encryption never needs the inverse cipher: both encryption
//! and decryption XOR the data with `AES_K(seed)`. Three implementation
//! tiers live here:
//!
//! * **Hardware** — on x86-64 with AES-NI (runtime-detected once per key
//!   expansion), [`Aes128::encrypt_block`] uses the `AESENC`/`AESENCLAST`
//!   instructions. Its `unsafe` is confined to the private `aesni` module
//!   and guarded by `is_x86_feature_detected!`. The only other `unsafe` in
//!   the repository is the benchmark's timestamp-counter read;
//!   `scripts/ci.sh` fails if `unsafe` appears in any other file.
//! * **T-tables** — [`Aes128::encrypt_block_tables`], the portable fast
//!   path and the fallback when AES-NI is absent. Four 256×u32 T-tables
//!   (generated by a `const fn` at compile time) fuse SubBytes, ShiftRows
//!   and MixColumns into four table lookups plus XORs per column per round,
//!   the classic software formulation from the Rijndael reference code.
//!   [`Aes128::encrypt_blocks4`] runs four independent blocks through the
//!   rounds together so the four pad chunks of a 64 B memory block overlap
//!   their table lookups (or their `AESENC` latencies on hardware).
//! * **Scalar** — [`scalar::Aes128`], the original byte-oriented FIPS-197
//!   transcription, retained as the differential-testing reference.
//!
//! All tiers are validated against the FIPS-197 Appendix A/B/C vectors and
//! against each other (see `tests/crypto_props.rs`).

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by `x` in GF(2^8) modulo the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Generates T0: entry `x` packs `(2·S[x], S[x], S[x], 3·S[x])` big-endian,
/// i.e. the MixColumns contribution of a row-0 byte after SubBytes.
const fn gen_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

/// Byte-rotates every entry of a T-table: T1/T2/T3 are T0 rotated right by
/// 8/16/24 bits (the MixColumns matrix is circulant).
const fn rotr_table(t: [u32; 256], n: u32) -> [u32; 256] {
    let mut out = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        out[i] = t[i].rotate_right(n);
        i += 1;
    }
    out
}

/// Fused SubBytes+ShiftRows+MixColumns tables, one per state row.
static T0: [u32; 256] = gen_t0();
static T1: [u32; 256] = rotr_table(gen_t0(), 8);
static T2: [u32; 256] = rotr_table(gen_t0(), 16);
static T3: [u32; 256] = rotr_table(gen_t0(), 24);

/// Applies the S-box to each byte of a key-schedule word.
#[inline]
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// One T-table round over the four state columns (`a` holds column `c` with
/// row 0 in the top byte; ShiftRows is fused into the column rotation of the
/// lookup arguments).
#[inline(always)]
fn tround(s: [u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    #[inline(always)]
    fn col(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
        T0[(a >> 24) as usize]
            ^ T1[((b >> 16) & 0xff) as usize]
            ^ T2[((c >> 8) & 0xff) as usize]
            ^ T3[(d & 0xff) as usize]
            ^ k
    }
    [
        col(s[0], s[1], s[2], s[3], rk[0]),
        col(s[1], s[2], s[3], s[0], rk[1]),
        col(s[2], s[3], s[0], s[1], rk[2]),
        col(s[3], s[0], s[1], s[2], rk[3]),
    ]
}

/// The final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
#[inline(always)]
fn tround_last(s: [u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    #[inline(always)]
    fn col(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
        (((SBOX[(a >> 24) as usize] as u32) << 24)
            | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
            | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
            | (SBOX[(d & 0xff) as usize] as u32))
            ^ k
    }
    [
        col(s[0], s[1], s[2], s[3], rk[0]),
        col(s[1], s[2], s[3], s[0], rk[1]),
        col(s[2], s[3], s[0], s[1], rk[2]),
        col(s[3], s[0], s[1], s[2], rk[3]),
    ]
}

#[inline(always)]
fn load_state(block: &[u8; 16], rk: &[u32; 4]) -> [u32; 4] {
    let mut s = [0u32; 4];
    for c in 0..4 {
        s[c] = u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ rk[c];
    }
    s
}

#[inline(always)]
fn store_state(s: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for c in 0..4 {
        out[4 * c..4 * c + 4].copy_from_slice(&s[c].to_be_bytes());
    }
    out
}

/// An expanded AES-128 key schedule over the T-table cipher.
///
/// # Examples
///
/// ```
/// use ivl_crypto::aes::Aes128;
/// let aes = Aes128::new([0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    /// Key schedule as 11 round keys of four big-endian words each
    /// (FIPS-197 §5.2); the fixed-size rows keep round-key access free of
    /// bounds checks.
    rk: [[u32; 4]; 11],
    /// The same schedule in natural FIPS byte order (row `r` is the 16-byte
    /// round key), the layout `AESENC` consumes directly.
    rk_bytes: [[u8; 16]; 11],
    /// Whether this CPU has AES-NI; detected once at key expansion so the
    /// per-block dispatch is a predictable branch.
    use_ni: bool,
}

#[cfg(target_arch = "x86_64")]
fn detect_aesni() -> bool {
    std::is_x86_feature_detected!("aes")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_aesni() -> bool {
    false
}

impl Aes128 {
    /// Expands `key` into the 44 words of the AES-128 key schedule.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for i in 0..4 {
            w[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut rk = [[0u32; 4]; 11];
        for (r, round_key) in rk.iter_mut().enumerate() {
            round_key.copy_from_slice(&w[4 * r..4 * r + 4]);
        }
        let mut rk_bytes = [[0u8; 16]; 11];
        for (r, row) in rk_bytes.iter_mut().enumerate() {
            for c in 0..4 {
                row[4 * c..4 * c + 4].copy_from_slice(&rk[r][c].to_be_bytes());
            }
        }
        Aes128 {
            rk,
            rk_bytes,
            use_ni: detect_aesni(),
        }
    }

    /// The expanded key schedule (FIPS-197 Appendix A word order).
    pub fn key_schedule_words(&self) -> [u32; 44] {
        let mut w = [0u32; 44];
        for (r, round_key) in self.rk.iter().enumerate() {
            w[4 * r..4 * r + 4].copy_from_slice(round_key);
        }
        w
    }

    /// Encrypts one 16-byte block, dispatching to AES-NI when the CPU has
    /// it and to the T-table path otherwise.
    #[inline]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is only true when `is_x86_feature_detected!`
            // reported AES-NI support at key expansion.
            return unsafe { aesni::encrypt_block(&self.rk_bytes, block) };
        }
        self.encrypt_block_tables(block)
    }

    /// Encrypts one 16-byte block through the portable T-table path,
    /// regardless of hardware support. Known-answer and differential tests
    /// call this directly so the software tier stays verified even on
    /// machines where [`Aes128::encrypt_block`] dispatches to AES-NI.
    #[inline]
    pub fn encrypt_block_tables(&self, block: [u8; 16]) -> [u8; 16] {
        // Manually unrolled: the nine table rounds are short enough that a
        // counted loop costs measurable overhead per block.
        let mut s = load_state(&block, &self.rk[0]);
        s = tround(s, &self.rk[1]);
        s = tround(s, &self.rk[2]);
        s = tround(s, &self.rk[3]);
        s = tround(s, &self.rk[4]);
        s = tround(s, &self.rk[5]);
        s = tround(s, &self.rk[6]);
        s = tround(s, &self.rk[7]);
        s = tround(s, &self.rk[8]);
        s = tround(s, &self.rk[9]);
        store_state(tround_last(s, &self.rk[10]))
    }

    /// Encrypts four independent blocks in one batched call. The four
    /// states advance through the rounds together, so their table lookups
    /// (or `AESENC` latencies) overlap — this is the counter-mode fast path
    /// that derives all four pad chunks of a 64 B memory block from one
    /// expanded key schedule.
    #[inline]
    pub fn encrypt_blocks4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is only true when `is_x86_feature_detected!`
            // reported AES-NI support at key expansion.
            return unsafe { aesni::encrypt_blocks4(&self.rk_bytes, blocks) };
        }
        self.encrypt_blocks4_tables(blocks)
    }

    /// The T-table tier of [`Aes128::encrypt_blocks4`]; see
    /// [`Aes128::encrypt_block_tables`] for why it stays callable.
    #[inline]
    pub fn encrypt_blocks4_tables(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let mut s = [[0u32; 4]; 4];
        for lane in 0..4 {
            s[lane] = load_state(&blocks[lane], &self.rk[0]);
        }
        for r in 1..10 {
            let rk = &self.rk[r];
            for lane in &mut s {
                *lane = tround(*lane, rk);
            }
        }
        let mut out = [[0u8; 16]; 4];
        for lane in 0..4 {
            out[lane] = store_state(tround_last(s[lane], &self.rk[10]));
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod aesni {
    //! Hardware AES round functions. Every function requires the `aes`
    //! target feature, which callers prove via `is_x86_feature_detected!`
    //! (cached in `Aes128::use_ni`) before they call in. Round keys
    //! arrive pre-expanded in natural FIPS byte order, which is exactly the
    //! operand layout of `AESENC`.

    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    #[inline(always)]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `_mm_loadu_si128` has no alignment requirement and reads
        // exactly 16 bytes, the size of `bytes`.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(v: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `_mm_storeu_si128` has no alignment requirement and
        // writes exactly 16 bytes into the 16-byte `out`.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
        out
    }

    /// Encrypts one block with `AESENC`/`AESENCLAST`.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_block(rk: &[[u8; 16]; 11], block: [u8; 16]) -> [u8; 16] {
        let mut s = _mm_xor_si128(load(&block), load(&rk[0]));
        for round_key in &rk[1..10] {
            s = _mm_aesenc_si128(s, load(round_key));
        }
        store(_mm_aesenclast_si128(s, load(&rk[10])))
    }

    /// Encrypts four independent blocks, interleaved so the four `AESENC`
    /// chains hide each other's latency.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_blocks4(rk: &[[u8; 16]; 11], blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let rk0 = load(&rk[0]);
        let mut s = [
            _mm_xor_si128(load(&blocks[0]), rk0),
            _mm_xor_si128(load(&blocks[1]), rk0),
            _mm_xor_si128(load(&blocks[2]), rk0),
            _mm_xor_si128(load(&blocks[3]), rk0),
        ];
        for round_key in &rk[1..10] {
            let k = load(round_key);
            for lane in &mut s {
                *lane = _mm_aesenc_si128(*lane, k);
            }
        }
        let last = load(&rk[10]);
        [
            store(_mm_aesenclast_si128(s[0], last)),
            store(_mm_aesenclast_si128(s[1], last)),
            store(_mm_aesenclast_si128(s[2], last)),
            store(_mm_aesenclast_si128(s[3], last)),
        ]
    }
}

pub mod scalar {
    //! Byte-oriented FIPS-197 transcription, retained as the differential
    //! reference for the T-table cipher (and for readers following the
    //! standard's worked examples step by step).

    use super::{xtime, RCON, SBOX};

    /// An expanded AES-128 key schedule over the byte-wise cipher.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivl_crypto::aes::{self, scalar};
    /// let fast = aes::Aes128::new([7u8; 16]);
    /// let slow = scalar::Aes128::new([7u8; 16]);
    /// assert_eq!(fast.encrypt_block([1u8; 16]), slow.encrypt_block([1u8; 16]));
    /// ```
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Aes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl Aes128 {
        /// Expands `key` into the 11 round keys of AES-128.
        pub fn new(key: [u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / 4 - 1];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            Aes128 { round_keys }
        }

        /// The 11 expanded round keys.
        pub fn round_keys(&self) -> &[[u8; 16]; 11] {
            &self.round_keys
        }

        /// Encrypts one 16-byte block.
        pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            let mut state = block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[10]);
            state
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State layout: `state[r + 4c]` is row `r`, column `c` (FIPS-197
    /// column-major byte order, which matches the natural byte order of the
    /// input block).
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: rotate left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: rotate left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: rotate left by 3 (== right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// Known-answer block vectors: FIPS-197 Appendix B (worked example) and
    /// Appendix C.1 (example vector), run against both implementations.
    const BLOCK_VECTORS: [(&str, &str, &str); 2] = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ];

    #[test]
    fn fips197_block_vectors_ttable() {
        for (key, pt, ct) in BLOCK_VECTORS {
            let aes = Aes128::new(hex16(key));
            assert_eq!(aes.encrypt_block_tables(hex16(pt)), hex16(ct), "key {key}");
        }
    }

    #[test]
    fn fips197_block_vectors_dispatch() {
        // Exercises whichever tier `encrypt_block` selects on this machine
        // (AES-NI where available, T-tables otherwise).
        for (key, pt, ct) in BLOCK_VECTORS {
            let aes = Aes128::new(hex16(key));
            assert_eq!(aes.encrypt_block(hex16(pt)), hex16(ct), "key {key}");
        }
    }

    #[test]
    fn fips197_block_vectors_scalar() {
        for (key, pt, ct) in BLOCK_VECTORS {
            let aes = scalar::Aes128::new(hex16(key));
            assert_eq!(aes.encrypt_block(hex16(pt)), hex16(ct), "key {key}");
        }
    }

    #[test]
    fn fips197_appendix_a_key_schedule_words() {
        // Key expansion of the Appendix A.1 cipher key, spot-checked at the
        // first derived words of rounds 1, 2 and 10.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let w = aes.key_schedule_words();
        assert_eq!(&w[0..4], &[0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c]);
        assert_eq!(&w[4..8], &[0xa0fafe17, 0x88542cb1, 0x23a33939, 0x2a6c7605]);
        assert_eq!(&w[8..12], &[0xf2c295f2, 0x7a96b943, 0x5935807a, 0x7359f67f]);
        assert_eq!(
            &w[40..44],
            &[0xd014f9a8, 0xc9ee2589, 0xe13f0cc8, 0xb6630ca6]
        );
    }

    #[test]
    fn key_schedules_agree_across_implementations() {
        for key in [
            [0u8; 16],
            [0xFFu8; 16],
            hex16("000102030405060708090a0b0c0d0e0f"),
        ] {
            let fast = Aes128::new(key);
            let slow = scalar::Aes128::new(key);
            for (r, rk) in slow.round_keys().iter().enumerate() {
                for c in 0..4 {
                    let word = u32::from_be_bytes([
                        rk[4 * c],
                        rk[4 * c + 1],
                        rk[4 * c + 2],
                        rk[4 * c + 3],
                    ]);
                    assert_eq!(fast.key_schedule_words()[4 * r + c], word, "round {r}");
                }
            }
        }
    }

    #[test]
    fn ttable_matches_scalar_on_varied_inputs() {
        // A cheap LCG drives keys and blocks; the property tests cover the
        // same equivalence with shrinking on top.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next16 = || {
            let mut out = [0u8; 16];
            for b in &mut out {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            out
        };
        for _ in 0..64 {
            let key = next16();
            let block = next16();
            let fast = Aes128::new(key);
            let slow = scalar::Aes128::new(key);
            let expected = slow.encrypt_block(block);
            assert_eq!(fast.encrypt_block_tables(block), expected);
            // The dispatching entry point must agree too — on AES-NI
            // machines this pins hardware output to the scalar reference.
            assert_eq!(fast.encrypt_block(block), expected);
        }
    }

    #[test]
    fn batched_encrypt_matches_single_blocks() {
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let blocks = [[1u8; 16], [2u8; 16], [3u8; 16], [4u8; 16]];
        let batched = aes.encrypt_blocks4(blocks);
        let batched_tables = aes.encrypt_blocks4_tables(blocks);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(batched[i], aes.encrypt_block(*b), "lane {i}");
            assert_eq!(batched_tables[i], aes.encrypt_block_tables(*b), "lane {i}");
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new([0u8; 16]);
        let b = Aes128::new([1u8; 16]);
        let pt = [0x42u8; 16];
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    #[test]
    fn encryption_is_deterministic() {
        let aes = Aes128::new([3u8; 16]);
        assert_eq!(aes.encrypt_block([9u8; 16]), aes.encrypt_block([9u8; 16]));
    }

    #[test]
    fn xtime_matches_gf_doubling() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }

    #[test]
    fn ttables_are_rotations_of_t0() {
        for i in 0..256 {
            assert_eq!(T1[i], T0[i].rotate_right(8));
            assert_eq!(T2[i], T0[i].rotate_right(16));
            assert_eq!(T3[i], T0[i].rotate_right(24));
        }
    }
}
