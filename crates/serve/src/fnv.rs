//! The FNV-1a fold shared by the result store and `build.rs`.

/// Seeded FNV-1a 64-bit fold — stable across processes and platforms,
/// dependency-free, and fast enough that hashing a report is noise next
/// to the simulation that produced it.
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
