//! Keccak-256 as used by Ethereum (original Keccak padding `0x01`, *not*
//! the NIST SHA-3 `0x06` padding), implemented from the specification.
//!
//! Keccak-256 drives every hash in the workspace: transaction ids, block
//! ids, Merkle trees, hash-to-point for the TSQC signatures, and the gas
//! accounting of the `KECCAK256` EVM opcode.

/// Rate in bytes for Keccak-256 (1600-bit state, 512-bit capacity).
pub const KECCAK256_RATE: usize = 136;

/// Output size in bytes.
pub const KECCAK256_OUTPUT: usize = 32;

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// The Keccak-f\[1600\] permutation.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in RC.iter() {
        // θ
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ ((!row[(x + 1) % 5]) & row[(x + 2) % 5]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// The Keccak-f\[1600\] permutation over **four independent states** held
/// as interleaved lanes: `states[i][s]` is lane `i` of hash stream `s`.
///
/// Every θ/ρ/π/χ/ι operation runs across the four streams back-to-back,
/// so the four permutations share one pass over the round structure and
/// each `[u64; 4]` op is one 256-bit vector op. The kernel is chosen by
/// what the CPU reports (detection is cached by std) and by nothing
/// else: AVX-512VL, else AVX2, else a portable safe-Rust body that
/// auto-vectorizes on targets whose baseline has wide enough registers.
/// All versions are bit-identical — integer ops only, no
/// platform-dependent rounding anywhere.
pub fn keccak_f1600_x4(states: &mut [[u64; 4]; 25]) {
    #[cfg(target_arch = "x86_64")]
    {
        // The AVX-512VL kernel stays on 256-bit registers, so it pays no
        // 512-bit licence downclock (a 512-bit variant measured slower
        // than AVX2); what it gains is one instruction per rotation, χ
        // and three-way XOR, and 32 registers for the 25-lane state.
        if std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            // SAFETY: both features the kernel enables were just detected.
            return unsafe { x86::keccak_f1600_x4_avx512vl(states) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature the kernel enables was just detected.
            return unsafe { x86::keccak_f1600_x4_avx2(states) };
        }
    }
    keccak_f1600_x4_portable(states)
}

/// The hand-scheduled x86-64 kernels: one round body over three
/// primitives, instantiated for AVX2 and for 256-bit AVX-512VL.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{RC, ROUNDS};
    use std::arch::x86_64::*;

    macro_rules! rol_avx2 {
        ($v:expr, $r:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi64::<$r>($v),
                _mm256_srli_epi64::<{ 64 - $r }>($v),
            )
        };
    }
    macro_rules! xor5_avx2 {
        ($a:expr, $b:expr, $c:expr, $d:expr, $e:expr) => {
            _mm256_xor_si256(
                _mm256_xor_si256(_mm256_xor_si256($a, $b), _mm256_xor_si256($c, $d)),
                $e,
            )
        };
    }
    // χ on three consecutive-in-row lanes: b0 ^ (!b1 & b2)
    macro_rules! chi_avx2 {
        ($b0:expr, $b1:expr, $b2:expr) => {
            _mm256_xor_si256($b0, _mm256_andnot_si256($b1, $b2))
        };
    }

    macro_rules! rol_avx512vl {
        ($v:expr, $r:literal) => {
            _mm256_rol_epi64::<$r>($v)
        };
    }
    // truth table 0x96 is a ^ b ^ c
    macro_rules! xor5_avx512vl {
        ($a:expr, $b:expr, $c:expr, $d:expr, $e:expr) => {
            _mm256_ternarylogic_epi64::<0x96>(_mm256_ternarylogic_epi64::<0x96>($a, $b, $c), $d, $e)
        };
    }
    // truth table 0xD2 is a ^ (!b & c)
    macro_rules! chi_avx512vl {
        ($b0:expr, $b1:expr, $b2:expr) => {
            _mm256_ternarylogic_epi64::<0xD2>($b0, $b1, $b2)
        };
    }

    /// One full round from buffer `$a` into buffer `$e`, over the `$rol` /
    /// `$xor5` / `$chi` primitives of one instruction set. The (source lane,
    /// rotation) pairs per output plane are the standard fused θρπ tables —
    /// the same mapping the portable body walks via PI/RHO.
    macro_rules! round_x4 {
        ($rol:ident, $xor5:ident, $chi:ident, $a:ident, $e:ident, $rc:expr) => {{
            let c0 = $xor5!($a[0], $a[5], $a[10], $a[15], $a[20]);
            let c1 = $xor5!($a[1], $a[6], $a[11], $a[16], $a[21]);
            let c2 = $xor5!($a[2], $a[7], $a[12], $a[17], $a[22]);
            let c3 = $xor5!($a[3], $a[8], $a[13], $a[18], $a[23]);
            let c4 = $xor5!($a[4], $a[9], $a[14], $a[19], $a[24]);
            let d0 = _mm256_xor_si256(c4, $rol!(c1, 1));
            let d1 = _mm256_xor_si256(c0, $rol!(c2, 1));
            let d2 = _mm256_xor_si256(c1, $rol!(c3, 1));
            let d3 = _mm256_xor_si256(c2, $rol!(c4, 1));
            let d4 = _mm256_xor_si256(c3, $rol!(c0, 1));

            let b0 = _mm256_xor_si256($a[0], d0);
            let b1 = $rol!(_mm256_xor_si256($a[6], d1), 44);
            let b2 = $rol!(_mm256_xor_si256($a[12], d2), 43);
            let b3 = $rol!(_mm256_xor_si256($a[18], d3), 21);
            let b4 = $rol!(_mm256_xor_si256($a[24], d4), 14);
            $e[0] = _mm256_xor_si256($chi!(b0, b1, b2), _mm256_set1_epi64x($rc as i64));
            $e[1] = $chi!(b1, b2, b3);
            $e[2] = $chi!(b2, b3, b4);
            $e[3] = $chi!(b3, b4, b0);
            $e[4] = $chi!(b4, b0, b1);

            let b0 = $rol!(_mm256_xor_si256($a[3], d3), 28);
            let b1 = $rol!(_mm256_xor_si256($a[9], d4), 20);
            let b2 = $rol!(_mm256_xor_si256($a[10], d0), 3);
            let b3 = $rol!(_mm256_xor_si256($a[16], d1), 45);
            let b4 = $rol!(_mm256_xor_si256($a[22], d2), 61);
            $e[5] = $chi!(b0, b1, b2);
            $e[6] = $chi!(b1, b2, b3);
            $e[7] = $chi!(b2, b3, b4);
            $e[8] = $chi!(b3, b4, b0);
            $e[9] = $chi!(b4, b0, b1);

            let b0 = $rol!(_mm256_xor_si256($a[1], d1), 1);
            let b1 = $rol!(_mm256_xor_si256($a[7], d2), 6);
            let b2 = $rol!(_mm256_xor_si256($a[13], d3), 25);
            let b3 = $rol!(_mm256_xor_si256($a[19], d4), 8);
            let b4 = $rol!(_mm256_xor_si256($a[20], d0), 18);
            $e[10] = $chi!(b0, b1, b2);
            $e[11] = $chi!(b1, b2, b3);
            $e[12] = $chi!(b2, b3, b4);
            $e[13] = $chi!(b3, b4, b0);
            $e[14] = $chi!(b4, b0, b1);

            let b0 = $rol!(_mm256_xor_si256($a[4], d4), 27);
            let b1 = $rol!(_mm256_xor_si256($a[5], d0), 36);
            let b2 = $rol!(_mm256_xor_si256($a[11], d1), 10);
            let b3 = $rol!(_mm256_xor_si256($a[17], d2), 15);
            let b4 = $rol!(_mm256_xor_si256($a[23], d3), 56);
            $e[15] = $chi!(b0, b1, b2);
            $e[16] = $chi!(b1, b2, b3);
            $e[17] = $chi!(b2, b3, b4);
            $e[18] = $chi!(b3, b4, b0);
            $e[19] = $chi!(b4, b0, b1);

            let b0 = $rol!(_mm256_xor_si256($a[2], d2), 62);
            let b1 = $rol!(_mm256_xor_si256($a[8], d3), 55);
            let b2 = $rol!(_mm256_xor_si256($a[14], d4), 39);
            let b3 = $rol!(_mm256_xor_si256($a[15], d0), 41);
            let b4 = $rol!(_mm256_xor_si256($a[21], d1), 2);
            $e[20] = $chi!(b0, b1, b2);
            $e[21] = $chi!(b1, b2, b3);
            $e[22] = $chi!(b2, b3, b4);
            $e[23] = $chi!(b3, b4, b0);
            $e[24] = $chi!(b4, b0, b1);
        }};
    }

    /// Instantiates the hand-scheduled x86-64 kernel for one instruction
    /// set: each `[u64; 4]` lane group is one ymm register, and a round is
    /// computed χ-plane by χ-plane — the five post-ρπ lanes a plane needs
    /// are built in registers (θ's d-application fused into ρ's rotate) and
    /// consumed immediately, ping-ponging between two 25-lane buffers across
    /// rounds. Every temporary dies within its plane, which bounds spills
    /// where the 25-ymm working set cannot fit the register file (AVX2's
    /// 16; the auto-vectorized portable body, which keeps whole 25-lane
    /// intermediate arrays live, spill-thrashes at ~2× the time).
    ///
    /// Bit-identical to [`keccak_f1600_x4_portable`]: same θ/ρ/π/χ/ι
    /// algebra, integer ops only.
    macro_rules! kernel_x4 {
        ($name:ident, $features:literal, $rol:ident, $xor5:ident, $chi:ident) => {
            /// # Safety
            /// The CPU must support the target features this kernel enables.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name(states: &mut [[u64; 4]; 25]) {
                // [[u64; 4]; 25] is exactly 25 unaligned ymm lane groups in
                // memory.
                let p = states.as_mut_ptr() as *mut __m256i;
                let mut a = [_mm256_setzero_si256(); 25];
                for (i, lane) in a.iter_mut().enumerate() {
                    *lane = _mm256_loadu_si256(p.add(i));
                }
                let mut e = [_mm256_setzero_si256(); 25];
                let mut r = 0;
                while r < ROUNDS {
                    round_x4!($rol, $xor5, $chi, a, e, RC[r]);
                    round_x4!($rol, $xor5, $chi, e, a, RC[r + 1]);
                    r += 2;
                }
                for (i, lane) in a.iter().enumerate() {
                    _mm256_storeu_si256(p.add(i), *lane);
                }
            }
        };
    }

    kernel_x4!(keccak_f1600_x4_avx2, "avx2", rol_avx2, xor5_avx2, chi_avx2);
    kernel_x4!(
        keccak_f1600_x4_avx512vl,
        "avx512f,avx512vl",
        rol_avx512vl,
        xor5_avx512vl,
        chi_avx512vl
    );
}

#[inline(always)]
fn keccak_f1600_x4_portable(states: &mut [[u64; 4]; 25]) {
    for &rc in RC.iter() {
        // θ
        let mut c = [[0u64; 4]; 5];
        for x in 0..5 {
            for s in 0..4 {
                c[x][s] = states[x][s]
                    ^ states[x + 5][s]
                    ^ states[x + 10][s]
                    ^ states[x + 15][s]
                    ^ states[x + 20][s];
            }
        }
        for x in 0..5 {
            let mut d = [0u64; 4];
            for s in 0..4 {
                d[s] = c[(x + 4) % 5][s] ^ c[(x + 1) % 5][s].rotate_left(1);
            }
            for y in 0..5 {
                for s in 0..4 {
                    states[x + 5 * y][s] ^= d[s];
                }
            }
        }
        // ρ and π — the same in-place walk as the scalar permutation,
        // lifted to `[u64; 4]` lane groups. (A two-buffer variant with
        // all-independent writes was tried and measured slower both here
        // and in the scalar body: the `last` carry is renamed away by
        // out-of-order execution, so the walk is not actually serial,
        // and the extra buffer only adds memory traffic.)
        let mut last = states[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = states[j];
            for s in 0..4 {
                states[j][s] = last[s].rotate_left(RHO[i]);
            }
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row = [
                states[5 * y],
                states[5 * y + 1],
                states[5 * y + 2],
                states[5 * y + 3],
                states[5 * y + 4],
            ];
            for x in 0..5 {
                for s in 0..4 {
                    states[5 * y + x][s] =
                        row[x][s] ^ ((!row[(x + 1) % 5][s]) & row[(x + 2) % 5][s]);
                }
            }
        }
        // ι
        for s in 0..4 {
            states[0][s] ^= rc;
        }
    }
}

/// Copies bytes `[start, start + rate)` of the virtual concatenation of
/// `parts` into `block` (zero-filled past the message end) and applies
/// the Keccak `0x01 … 0x80` padding when the message ends inside this
/// block. XOR-applied padding handles the coincidence case (message
/// length ≡ 135 mod 136 puts both pad bytes in the last position).
fn load_padded_block(
    parts: &[&[u8]],
    start: usize,
    msg_len: usize,
    block: &mut [u8; KECCAK256_RATE],
) {
    block.fill(0);
    let end = start + KECCAK256_RATE;
    let mut pos = 0usize;
    for part in parts {
        let (pstart, pend) = (pos, pos + part.len());
        pos = pend;
        if pend <= start || pstart >= end {
            continue;
        }
        let from = start.max(pstart);
        let to = end.min(pend);
        block[from - start..to - start].copy_from_slice(&part[from - pstart..to - pstart]);
    }
    if msg_len < end {
        // final block of this message: pad starts right after the payload
        block[msg_len - start] ^= 0x01;
        block[KECCAK256_RATE - 1] ^= 0x80;
    }
}

/// Four independent Keccak-256 hashes computed in lockstep through
/// [`keccak_f1600_x4`], each message given as concatenated parts (so
/// callers batch domain-tagged hashes without materializing preimages).
///
/// Messages may have different lengths: each stream absorbs its own
/// block sequence and its digest is captured right after its final
/// (padded) block's permutation; a finished stream's lanes keep churning
/// until the longest message completes, which is wasted work only when
/// lengths are very unequal. Digests are bit-identical to four
/// [`keccak256_concat`] calls — the batching is a pure scheduling
/// change.
pub fn keccak256_x4_concat(streams: [&[&[u8]]; 4]) -> [[u8; 32]; 4] {
    let mut lens = [0usize; 4];
    let mut nblocks = [0usize; 4];
    for s in 0..4 {
        lens[s] = streams[s].iter().map(|p| p.len()).sum();
        // padding always adds at least one byte, so a rate-aligned
        // message gains a whole extra block
        nblocks[s] = lens[s] / KECCAK256_RATE + 1;
    }
    let max_blocks = nblocks.iter().copied().max().expect("four streams");

    let mut states = [[0u64; 4]; 25];
    let mut out = [[0u8; 32]; 4];
    let mut block = [0u8; KECCAK256_RATE];
    for b in 0..max_blocks {
        for s in 0..4 {
            if b >= nblocks[s] {
                continue;
            }
            load_padded_block(streams[s], b * KECCAK256_RATE, lens[s], &mut block);
            for (i, lanes) in states.iter_mut().take(KECCAK256_RATE / 8).enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&block[8 * i..8 * (i + 1)]);
                lanes[s] ^= u64::from_le_bytes(bytes);
            }
        }
        keccak_f1600_x4(&mut states);
        for s in 0..4 {
            if b + 1 == nblocks[s] {
                for i in 0..4 {
                    out[s][8 * i..8 * (i + 1)].copy_from_slice(&states[i][s].to_le_bytes());
                }
            }
        }
    }
    out
}

/// Four one-shot Keccak-256 hashes through the interleaved permutation.
/// Bit-identical to four [`keccak256`] calls.
pub fn keccak256_x4(msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    keccak256_x4_concat([&[msgs[0]], &[msgs[1]], &[msgs[2]], &[msgs[3]]])
}

/// Streaming Keccak-256 hasher.
///
/// ```
/// use ammboost_crypto::keccak::Keccak256;
/// let mut h = Keccak256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), ammboost_crypto::keccak::keccak256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Keccak256 {
    state: [u64; 25],
    buf: [u8; KECCAK256_RATE],
    buf_len: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Keccak256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keccak256")
            .field("buffered", &self.buf_len)
            .finish()
    }
}

impl Keccak256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [0u64; 25],
            buf: [0u8; KECCAK256_RATE],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the sponge. Once the carry buffer is clear,
    /// whole rate blocks absorb straight from the input slice — only the
    /// sub-block head and tail ever touch the buffer.
    pub fn update(&mut self, data: &[u8]) {
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (KECCAK256_RATE - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == KECCAK256_RATE {
                let block = self.buf;
                absorb_into(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= KECCAK256_RATE {
            let (block, tail) = rest.split_at(KECCAK256_RATE);
            absorb_into(&mut self.state, block.try_into().expect("rate-sized"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Keccak padding: 0x01 .. 0x80 within the rate block.
        self.buf[self.buf_len..].fill(0);
        self.buf[self.buf_len] ^= 0x01;
        self.buf[KECCAK256_RATE - 1] ^= 0x80;
        let block = self.buf;
        absorb_into(&mut self.state, &block);
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * (i + 1)].copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }
}

/// XORs one rate block into the sponge state lane-wise and permutes.
fn absorb_into(state: &mut [u64; 25], block: &[u8; KECCAK256_RATE]) {
    for (i, lane) in state.iter_mut().take(KECCAK256_RATE / 8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&block[8 * i..8 * (i + 1)]);
        *lane ^= u64::from_le_bytes(bytes);
    }
    keccak_f1600(state);
}

/// One-shot Keccak-256.
///
/// ```
/// let digest = ammboost_crypto::keccak::keccak256(b"");
/// assert_eq!(hex(&digest), "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    let mut h = Keccak256::new();
    h.update(data);
    h.finalize()
}

/// Keccak-256 over the concatenation of several byte slices, avoiding an
/// intermediate allocation.
pub fn keccak256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Keccak256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn fox_vector() {
        assert_eq!(
            hex(&keccak256(b"The quick brown fox jumps over the lazy dog")),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 7, 64, 135, 136, 137, 500] {
            let mut h = Keccak256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), keccak256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn rate_boundary_lengths() {
        // Hash inputs straddling the 136-byte rate boundary; mostly a
        // regression guard for padding logic.
        for len in [0usize, 1, 135, 136, 137, 271, 272, 273] {
            let data = vec![0xA5u8; len];
            let d1 = keccak256(&data);
            let mut h = Keccak256::new();
            h.update(&data);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn concat_matches_join() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(keccak256_concat(&[a, b]), keccak256(b"hello world"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(keccak256(b"a"), keccak256(b"b"));
    }

    #[test]
    fn x4_permutation_matches_four_scalar_permutations() {
        // a deterministic pseudo-random state per stream
        let mut scalar = [[0u64; 25]; 4];
        let mut interleaved = [[0u64; 4]; 25];
        for s in 0..4 {
            for i in 0..25 {
                let v = (s as u64 + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(i as u64 + 1);
                scalar[s][i] = v;
                interleaved[i][s] = v;
            }
        }
        for state in scalar.iter_mut() {
            keccak_f1600(state);
        }
        keccak_f1600_x4(&mut interleaved);
        for s in 0..4 {
            for i in 0..25 {
                assert_eq!(interleaved[i][s], scalar[s][i], "stream {s} lane {i}");
            }
        }
    }

    type Kernel = fn(&mut [[u64; 4]; 25]);

    /// Every ×4 kernel this host can run, called directly rather than
    /// through the dispatch (which would only ever reach the best one).
    fn x4_kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", keccak_f1600_x4_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was just detected.
                kernels.push(("avx2", |s| unsafe { x86::keccak_f1600_x4_avx2(s) }));
            }
            if std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512f")
            {
                // SAFETY: avx512f and avx512vl were just detected.
                kernels.push(("avx512vl", |s| unsafe { x86::keccak_f1600_x4_avx512vl(s) }));
            }
        }
        kernels
    }

    #[test]
    fn every_x4_kernel_matches_four_scalar_permutations() {
        let kernels = x4_kernels();
        let names: Vec<&str> = kernels.iter().map(|(name, _)| *name).collect();
        println!(
            "keccak x4 kernels covered on this host: {}",
            names.join(", ")
        );
        // splitmix64: random states, chained so every trial differs
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..64 {
            let mut scalar = [[0u64; 25]; 4];
            let mut interleaved = [[0u64; 4]; 25];
            for s in 0..4 {
                for i in 0..25 {
                    // the first trial is the all-zero state
                    let v = if trial == 0 { 0 } else { next() };
                    scalar[s][i] = v;
                    interleaved[i][s] = v;
                }
            }
            for state in scalar.iter_mut() {
                keccak_f1600(state);
            }
            for (name, kernel) in &kernels {
                let mut got = interleaved;
                kernel(&mut got);
                for s in 0..4 {
                    for i in 0..25 {
                        assert_eq!(got[i][s], scalar[s][i], "{name}: stream {s} lane {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn known_vectors_through_every_lane_of_every_x4_kernel() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
            ),
            (
                b"abc",
                "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
            ),
        ];
        for (name, kernel) in x4_kernels() {
            for (msg, want) in vectors {
                for slot in 0..4 {
                    // the vector's one padded block in `slot`, different
                    // traffic in the other three lanes
                    let mut states = [[0u64; 4]; 25];
                    for (i, lanes) in states.iter_mut().enumerate() {
                        for (s, lane) in lanes.iter_mut().enumerate() {
                            *lane = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 << s);
                        }
                    }
                    let mut block = [0u8; KECCAK256_RATE];
                    load_padded_block(&[msg], 0, msg.len(), &mut block);
                    for (i, lanes) in states.iter_mut().enumerate() {
                        lanes[slot] = match block.get(8 * i..8 * i + 8) {
                            Some(b) => u64::from_le_bytes(b.try_into().unwrap()),
                            None => 0,
                        };
                    }
                    kernel(&mut states);
                    let digest: Vec<u8> =
                        (0..4).flat_map(|i| states[i][slot].to_le_bytes()).collect();
                    assert_eq!(hex(&digest), want, "{name}: slot {slot}");
                }
            }
        }
    }

    #[test]
    fn known_vectors_through_every_x4_lane() {
        // each known-answer vector rides each of the four interleave
        // slots, surrounded by different traffic in the other slots
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
            ),
            (
                b"abc",
                "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
            ),
        ];
        let noise: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 200]).collect();
        for (msg, want) in vectors {
            for slot in 0..4 {
                let mut msgs: [&[u8]; 4] = [&noise[0], &noise[1], &noise[2], &noise[3]];
                msgs[slot] = msg;
                let out = keccak256_x4(msgs);
                assert_eq!(hex(&out[slot]), want, "slot {slot}");
                for (s, other) in out.iter().enumerate() {
                    if s != slot {
                        assert_eq!(*other, keccak256(msgs[s]), "noise slot {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn x4_matches_scalar_across_unequal_lengths() {
        // lengths straddling every rate boundary, deliberately unequal
        // per slot so early-finishing streams are exercised
        let lens = [0usize, 1, 135, 136, 137, 271, 272, 273, 500];
        let data: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        for w in lens.windows(4) {
            let msgs: [&[u8]; 4] = [&data[..w[0]], &data[..w[1]], &data[..w[2]], &data[..w[3]]];
            let got = keccak256_x4(msgs);
            for s in 0..4 {
                assert_eq!(got[s], keccak256(msgs[s]), "len {}", msgs[s].len());
            }
        }
    }

    #[test]
    fn x4_concat_matches_scalar_concat() {
        let a = b"ammboost-".as_slice();
        let parts: [&[&[u8]]; 4] = [
            &[a, b"one"],
            &[b"", a, b"two", b""],
            &[b"three"],
            &[a, a, a],
        ];
        let got = keccak256_x4_concat(parts);
        for s in 0..4 {
            assert_eq!(got[s], keccak256_concat(parts[s]), "stream {s}");
        }
    }
}
