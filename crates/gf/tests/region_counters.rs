//! Every GF(2^8) region call counts as exactly one `Mult_XOR` over `len`
//! bytes, whichever kernel the CPU selects. The §5.3 cost check
//! (measured `Mult_XOR`s per stripe equal to the analytic count) relies
//! on it.
//!
//! The counters are process-wide, so this file holds a single test: no
//! other test can run region kernels in the same process meanwhile.

use stair_gf::{counters, Field, Gf8};

#[test]
fn each_region_call_counts_one_mult_xor_and_its_length() {
    let src: Vec<u8> = (0..4200u32).map(|i| (i * 29 + 3) as u8).collect();
    let mut dst = vec![0x5Au8; 4200];
    for c in 0..=255u8 {
        for len in [0, 1, 31, 32, 33, 4096, 4200] {
            for xor in [true, false] {
                let (m0, b0) = (counters::mult_xors(), counters::region_bytes());
                if xor {
                    Gf8::mult_xor_region(&mut dst[..len], &src[..len], c);
                } else {
                    Gf8::mult_region(&mut dst[..len], &src[..len], c);
                }
                assert_eq!(counters::mult_xors() - m0, 1, "c={c} len={len} xor={xor}");
                assert_eq!(
                    counters::region_bytes() - b0,
                    len as u64,
                    "c={c} len={len} xor={xor}"
                );
            }
        }
    }
}
