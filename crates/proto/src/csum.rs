//! The Internet checksum (RFC 1071).
//!
//! Checksum inheritance (paper §1) — reusing a cached payload's checksum
//! when the packet is substituted into a new reply, instead of
//! recomputing it per transmission — is charged, not computed: a reply
//! that inherits counts one avoided pass in the copy ledger's
//! `csum_inherited` tally and pays no checksum CPU for it. No header is rewritten in
//! place, so there is no incremental update (RFC 1624) here. What this
//! module computes for real is the per-chunk checksum NCache's fault
//! recovery stores and verifies before a chunk rides a reply.

/// Sums `data` as big-endian 16-bit words into a 32-bit accumulator
/// (no folding). Odd trailing bytes are padded with zero, per RFC 1071.
///
/// The hot loop accumulates eight bytes at a time into four u64 lanes
/// (one per 16-bit column of the u64 word) with a 4-way unroll; the
/// one's-complement sum is commutative and associative, so any grouping
/// of the 16-bit words folds to the same value as the byte-wise walk —
/// `prop_u64_path_equals_bytewise_path` proves it against
/// [`sum_words_bytewise`] on arbitrary input.
pub fn sum_words(data: &[u8]) -> u32 {
    // Word-at-a-time path. A big-endian u64 read of 8 bytes holds four
    // 16-bit words; masking out the odd and even columns gives two
    // 32-bit-spaced lanes that can absorb many additions without
    // overflow (each lane value < 2^16, so a u64 lane pair overflows
    // only after ~2^32 words — far beyond any packet).
    const MASK: u64 = 0x0000_ffff_0000_ffff;
    let mut even = 0u64; // words 0 and 2 of each u64
    let mut odd = 0u64; // words 1 and 3 of each u64
    let mut chunks32 = data.chunks_exact(32);
    for c in &mut chunks32 {
        // 4-way unroll: 32 bytes per trip.
        let a = u64::from_be_bytes(c[0..8].try_into().expect("8-byte chunk"));
        let b = u64::from_be_bytes(c[8..16].try_into().expect("8-byte chunk"));
        let d = u64::from_be_bytes(c[16..24].try_into().expect("8-byte chunk"));
        let e = u64::from_be_bytes(c[24..32].try_into().expect("8-byte chunk"));
        even += (a >> 16) & MASK;
        odd += a & MASK;
        even += (b >> 16) & MASK;
        odd += b & MASK;
        even += (d >> 16) & MASK;
        odd += d & MASK;
        even += (e >> 16) & MASK;
        odd += e & MASK;
    }
    let mut rest = chunks32.remainder();
    let mut chunks8 = rest.chunks_exact(8);
    for c in &mut chunks8 {
        let a = u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
        even += (a >> 16) & MASK;
        odd += a & MASK;
    }
    rest = chunks8.remainder();
    // Fold the four u64 lanes (each < 2^48) into one u64, then to u32
    // with end-around carries preserved: sums of 16-bit words fit u64
    // exactly, and the final fold to 32 bits keeps every carry.
    let mut total = (even & 0xffff_ffff)
        + (even >> 32)
        + (odd & 0xffff_ffff)
        + (odd >> 32);
    // Tail bytes (< 8), byte-wise as before.
    let mut chunks2 = rest.chunks_exact(2);
    for c in &mut chunks2 {
        total += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks2.remainder() {
        total += u64::from(u16::from_be_bytes([*last, 0]));
    }
    // total < (number of words) * 2^16 + carries — collapse to the same
    // 32-bit accumulator shape the byte-wise version produces, folding
    // the overflow above 32 bits back in (end-around carry, which the
    // one's-complement sum is invariant under).
    while total >> 32 != 0 {
        total = (total & 0xffff_ffff) + (total >> 32);
    }
    total as u32
}

/// The scalar reference: sums `data` two bytes at a time. This is the
/// version the paper-era code used; [`sum_words`] must fold to the same
/// checksum on every input (proven by property test), it just gets there
/// eight bytes per step.
pub fn sum_words_bytewise(data: &[u8]) -> u32 { // test-api: the reference the fast checksum is tested against
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum = sum.wrapping_add(u32::from(u16::from_be_bytes([c[0], c[1]])));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds a 32-bit accumulator to 16 bits with end-around carry.
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// The Internet checksum of `data`: the one's-complement of the folded
/// one's-complement sum.
///
/// # Examples
///
/// ```
/// // RFC 1071's worked example.
/// let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(proto::csum::checksum(&data), !0xddf2);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    #[test]
    fn rfc1071_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(sum_words(&data), 0x2ddf0);
        assert_eq!(fold(0x2ddf0), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_data() {
        assert_eq!(checksum(&[]), 0xffff);
        assert_eq!(fold(sum_words(&[])), 0);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    property! {
        fn prop_u64_path_equals_bytewise_path(data in bytes(0..600)) {
            // Lengths in 0..600 cross every boundary in the word path:
            // the 32-byte unroll, the 8-byte tail loop, the 2-byte tail
            // and the odd final byte. The accumulators differ in shape
            // (u64 lanes vs a wrapping u32), so compare the folded
            // one's-complement value, which is what any caller uses.
            prop_assert_eq!(
                fold(sum_words(&data)),
                fold(sum_words_bytewise(&data))
            );
        }
    }
}
