//! GF(2^8): the default field for STAIR coding (the paper uses w = 8 for all
//! STAIR experiments, valid while `n + m' ≤ 256` and `r + e_max ≤ 256`).

use std::sync::OnceLock;

use crate::counters;
use crate::field::{sealed::Sealed, Field};
use crate::simd;
use crate::tables::{build, Tables};

/// Tag type for GF(2^8) with the primitive polynomial `x^8+x^4+x^3+x^2+1`
/// (0x11d), the same default as GF-Complete and Jerasure.
///
/// # Example
///
/// ```
/// use stair_gf::{Field, Gf8};
///
/// let a = Gf8::elem(7);
/// assert_eq!(Gf8::mul(a, Gf8::inv(a).unwrap()), Gf8::one());
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub struct Gf8;

impl Sealed for Gf8 {}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| build(8, Gf8::POLY))
}

impl Field for Gf8 {
    type Elem = u8;

    const W: u32 = 8;
    const ORDER: usize = 256;
    const POLY: usize = 0x11d;
    const ELEM_BYTES: usize = 1;

    #[inline]
    fn zero() -> u8 {
        0
    }

    #[inline]
    fn one() -> u8 {
        1
    }

    #[inline]
    fn elem(value: usize) -> u8 {
        assert!(
            value < Self::ORDER,
            "value {value} out of range for GF(2^8)"
        );
        value as u8
    }

    #[inline]
    fn value(e: u8) -> usize {
        e as usize
    }

    #[inline]
    fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    #[inline]
    fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[(t.log[a as usize] + t.log[b as usize]) as usize] as u8
    }

    #[inline]
    fn inv(a: u8) -> Option<u8> {
        if a == 0 {
            return None;
        }
        let t = tables();
        Some(t.exp[255 - t.log[a as usize] as usize] as u8)
    }

    #[inline]
    fn div(a: u8, b: u8) -> Option<u8> {
        let ib = Self::inv(b)?;
        Some(Self::mul(a, ib))
    }

    #[inline]
    fn exp(i: usize) -> u8 {
        tables().exp[i % 255] as u8
    }

    #[inline]
    fn log(a: u8) -> Option<usize> {
        if a == 0 {
            None
        } else {
            Some(tables().log[a as usize] as usize)
        }
    }

    fn mult_xor_region(dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        counters::record(src.len());
        match c {
            0 => {}
            1 => Self::xor_region(dst, src),
            _ => region::<true>(dst, src, c),
        }
    }

    fn mult_region(dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        counters::record(src.len());
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => region::<false>(dst, src, c),
        }
    }
}

/// `dst ^= c·src` (`XOR`) or `dst = c·src`: the dispatched SIMD kernel
/// ([`simd::region`]) over whole 32-byte blocks, the scalar split-table loop
/// over whatever it leaves (all of it without AVX2).
fn region<const XOR: bool>(dst: &mut [u8], src: &[u8], c: u8) {
    let (lo, hi) = split_tables(c);
    let done = simd::region::<XOR>(dst, src, lo, hi);
    scalar_region::<XOR>(&mut dst[done..], &src[done..], lo, hi);
}

/// The portable split-table loop over `c`'s tables `lo`/`hi`: the fallback
/// for CPUs without AVX2, the sub-32-byte tail, and the reference the SIMD
/// kernel is tested against.
fn scalar_region<const XOR: bool>(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let p = lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize];
        *d = if XOR { *d ^ p } else { p };
    }
}

/// The `(lo, hi)` nibble product tables of one constant.
type SplitTables = ([u8; 16], [u8; 16]);

/// The SPLIT(8,4) product tables of a constant `c`: `lo[x] = c·x` and
/// `hi[x] = c·(x << 4)`, so `c·b = lo[b & 15] ^ hi[b >> 4]` for any byte `b`
/// by the distributivity of field multiplication over XOR. All 256 pairs
/// (8 KiB) are built once: building them per call cost about a third of a
/// 4 KiB `Mult_XOR` once the SIMD kernel made the multiply itself cheap.
fn split_tables(c: u8) -> &'static SplitTables {
    static ALL: OnceLock<Box<[SplitTables; 256]>> = OnceLock::new();
    let all = ALL.get_or_init(|| {
        let mut all = Box::new([([0u8; 16], [0u8; 16]); 256]);
        for (c, (lo, hi)) in (0..=255u8).zip(all.iter_mut()) {
            for x in 0..16u8 {
                lo[x as usize] = Gf8::mul(c, x);
                hi[x as usize] = Gf8::mul(c, x << 4);
            }
        }
        all
    });
    &all[c as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiply with reduction, as an oracle.
    fn slow_mul(mut a: u16, mut b: u16) -> u8 {
        let mut p = 0u16;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= 0x11d;
            }
            b >>= 1;
        }
        p as u8
    }

    #[test]
    fn mul_matches_slow_oracle_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf8::mul(a, b), slow_mul(a as u16, b as u16), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf8::inv(a).expect("nonzero element must be invertible");
            assert_eq!(Gf8::mul(a, inv), 1);
        }
        assert_eq!(Gf8::inv(0), None);
    }

    #[test]
    fn div_undoes_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(Gf8::div(Gf8::mul(a, b), b), Some(a));
            }
        }
        assert_eq!(Gf8::div(3, 0), None);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x53, 0xff] {
            let mut acc = 1u8;
            for n in 0..20 {
                assert_eq!(Gf8::pow(a, n), if n == 0 { 1 } else { acc }, "a={a} n={n}");
                acc = Gf8::mul(acc, a);
            }
        }
        // Fermat: a^(2^8 - 1) = 1 for a != 0.
        for a in 1..=255u8 {
            assert_eq!(Gf8::pow(a, 255), 1);
        }
    }

    #[test]
    fn mult_xor_region_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x53, 0xe7] {
            let mut dst = vec![0xAA; 256];
            let mut expect = dst.clone();
            Gf8::mult_xor_region(&mut dst, &src, c);
            for (e, &s) in expect.iter_mut().zip(&src) {
                *e ^= Gf8::mul(c, s);
            }
            assert_eq!(dst, expect, "c={c}");
        }
    }

    /// Deterministic non-constant bytes (an LCG), so every nibble value
    /// reaches both shuffle tables.
    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (x >> 16) as u8
            })
            .collect()
    }

    /// Checks both dispatched kernels against the scalar split-table loop
    /// on `dst`/`src` for constant `c`.
    fn assert_matches_scalar(dst: &[u8], src: &[u8], c: u8) {
        let (lo, hi) = split_tables(c);
        let mut got = dst.to_vec();
        let mut want = dst.to_vec();
        Gf8::mult_xor_region(&mut got, src, c);
        scalar_region::<true>(&mut want, src, lo, hi);
        assert_eq!(got, want, "mult_xor_region c={c} len={}", src.len());
        let mut got = dst.to_vec();
        let mut want = dst.to_vec();
        Gf8::mult_region(&mut got, src, c);
        scalar_region::<false>(&mut want, src, lo, hi);
        assert_eq!(got, want, "mult_region c={c} len={}", src.len());
    }

    #[test]
    fn dispatched_kernels_match_scalar_for_every_constant() {
        let src = pattern(4096 + 31, 1);
        let dst = pattern(4096 + 31, 2);
        for c in 0..=255u8 {
            for len in [0, 1, 31, 32, 33, 64, 4095, 4096, 4096 + 31] {
                assert_matches_scalar(&dst[..len], &src[..len], c);
            }
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_for_every_length() {
        // 0..=4200 covers every tail length 0..=31 after many whole blocks,
        // and exactly one 4 KiB sector.
        let src = pattern(4200, 3);
        let dst = pattern(4200, 4);
        for len in 0..=4200 {
            for c in [0u8, 1, 2, 0x53, 0xe7, 0xff] {
                assert_matches_scalar(&dst[..len], &src[..len], c);
            }
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_on_unaligned_sub_slices() {
        let src = pattern(4096 + 64, 5);
        let dst = pattern(4096 + 64, 6);
        for off in 1..=31 {
            for len in [31, 32, 100, 4096] {
                // Different offsets for the two regions, so neither the
                // loads nor the stores share an alignment.
                let d = 32 - off;
                for c in [2u8, 0x1d, 0x8e] {
                    assert_matches_scalar(&dst[d..d + len], &src[off..off + len], c);
                }
            }
        }
    }

    #[test]
    fn mult_region_overwrites() {
        let src = [9u8; 32];
        let mut dst = [0xFF; 32];
        Gf8::mult_region(&mut dst, &src, 3);
        assert!(dst.iter().all(|&d| d == Gf8::mul(3, 9)));
        Gf8::mult_region(&mut dst, &src, 0);
        assert!(dst.iter().all(|&d| d == 0));
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn region_length_mismatch_panics() {
        let mut dst = [0u8; 4];
        Gf8::mult_xor_region(&mut dst, &[0u8; 5], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn elem_out_of_range_panics() {
        let _ = Gf8::elem(256);
    }
}
