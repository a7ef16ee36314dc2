//! The AVX2 body of the GF(2^8) region kernels: the nibble-shuffle
//! (`PSHUFB`) technique GF-Complete uses for its SPLIT(8,4) SIMD path.
//!
//! Each 32-byte block of the source is split into its low and high
//! nibbles, every nibble is looked up in the constant's 16-entry product
//! table with one `_mm256_shuffle_epi8`, and the two lookups are XORed:
//! `c·b = lo[b & 15] ^ hi[b >> 4]`, 32 bytes per shuffle pair.
//!
//! The kernel is chosen at run time by `is_x86_feature_detected!("avx2")`
//! and by nothing else. On other CPUs and targets [`region`] does nothing
//! and returns 0, and the caller's scalar split-table loop handles the
//! whole region; it always handles the sub-32-byte tail. The scalar loop
//! is also the reference the unit tests compare this kernel against.
//!
//! This module is the only place in the workspace where `unsafe` appears
//! (`stair-check` lint `unsafe-confined`).

/// Runs the dispatched kernel over the longest prefix of `dst`/`src`
/// that is a multiple of 32 bytes, computing `dst ^= c·src` when `XOR`
/// is true and `dst = c·src` otherwise, where `lo`/`hi` are `c`'s
/// SPLIT(8,4) tables. Returns how many bytes it processed: `len / 32 * 32`
/// with AVX2, 0 without.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub(crate) fn region<const XOR: bool>(
    dst: &mut [u8],
    src: &[u8],
    lo: &[u8; 16],
    hi: &[u8; 16],
) -> usize {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2 (checked just above), which is the
        // only feature `avx2::region` is compiled for. `dst` and `src` have
        // equal length (asserted above), and every load and store in
        // `avx2::region` goes through a 32-byte chunk of `chunks_exact`, so
        // all accesses stay below `len / 32 * 32` of both slices; the two
        // table loads read exactly the 16 bytes of `lo` and `hi`.
        return unsafe { avx2::region::<XOR>(dst, src, lo, hi) };
    }
    // No AVX2 (or not x86_64): the caller's scalar loop does every byte.
    let _ = (dst, src, lo, hi);
    0
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// The AVX2 loop over whole 32-byte chunks; returns the bytes done.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `dst.len()` must equal `src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn region<const XOR: bool>(
        dst: &mut [u8],
        src: &[u8],
        lo: &[u8; 16],
        hi: &[u8; 16],
    ) -> usize {
        // The 16-byte tables, repeated in both 128-bit lanes: PSHUFB looks
        // up within a lane.
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let mut done = 0;
        for (d, s) in dst.chunks_exact_mut(32).zip(src.chunks_exact(32)) {
            let s = _mm256_loadu_si256(s.as_ptr().cast::<__m256i>());
            let low = _mm256_and_si256(s, mask);
            let high = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
            let mut p =
                _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high));
            if XOR {
                p = _mm256_xor_si256(p, _mm256_loadu_si256(d.as_ptr().cast::<__m256i>()));
            }
            _mm256_storeu_si256(d.as_mut_ptr().cast::<__m256i>(), p);
            done += 32;
        }
        done
    }
}
