//! A small self-contained sector checksum (Fletcher-32 over 16-bit words),
//! used to *detect* latent sector errors; the erasure code then repairs
//! them. Real arrays use exactly this split: detection by checksum or
//! drive error, correction by redundancy.
//!
//! This is the single implementation shared by the store engine and the
//! archive tool (`stair_cli::checksum` re-exports it).

/// Fletcher-32 over the byte stream (odd trailing byte zero-padded).
pub fn fletcher32(data: &[u8]) -> u32 {
    let mut sum1: u32 = 0xFFFF;
    let mut sum2: u32 = 0xFFFF;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        let word = u16::from_le_bytes([w[0], w[1]]) as u32;
        sum1 = (sum1 + word) % 65535;
        sum2 = (sum2 + sum1) % 65535;
    }
    if let [last] = chunks.remainder() {
        sum1 = (sum1 + *last as u32) % 65535;
        sum2 = (sum2 + sum1) % 65535;
    }
    (sum2 << 16) | sum1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_single_byte_changes() {
        let a = vec![1u8; 512];
        let mut b = a.clone();
        b[300] ^= 0x40;
        assert_ne!(fletcher32(&a), fletcher32(&b));
    }

    #[test]
    fn stable_for_known_input() {
        // Known answers, pinned: checksums are stored in sector headers and
        // sent on the wire, so any rewrite of `fletcher32` must keep them.
        assert_eq!(fletcher32(b"abcde"), 0xF04F_C729);
        assert_eq!(fletcher32(b""), 0xFFFF_FFFF);
        assert_eq!(fletcher32(&[0x5A]), 0x005A_005A);
        let sector: Vec<u8> = (0..4096u32).map(|i| (i * 29 + 3) as u8).collect();
        assert_eq!(fletcher32(&sector), 0x90F7_03FC);
        assert_ne!(fletcher32(b"abcde"), fletcher32(b"abcdf"));
    }

    #[test]
    fn odd_length_handled() {
        assert_ne!(fletcher32(&[1, 2, 3]), fletcher32(&[1, 2]));
    }
}
