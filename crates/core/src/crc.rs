//! CRC32C (Castagnoli), the checksum of wire format v2 and of every
//! protocol frame.
//!
//! CRC32C's reflected polynomial `0x82F63B78` is the variant with hardware
//! support on modern CPUs and single-burst error detection up to 32 bits —
//! which means *any* single-byte corruption of a checksummed section is
//! detected with certainty, the guarantee the corruption sweep in
//! `tests/corruption.rs` asserts.
//!
//! Two implementations compute the same function:
//!
//! * **SSE4.2** — the `crc32` instruction, eight bytes per step. Used on
//!   x86-64 builds with the `simd` feature when the CPU has SSE4.2 and the
//!   bitpack kernel dispatch is not forced to scalar (`SCC_KERNEL=scalar`
//!   forces the table path here too, so one variable selects the scalar
//!   reference for every kernel in the process).
//! * **Slicing-by-8** over compile-time tables — portable, no `unsafe`,
//!   and the reference the hardware arm is differential-tested against.
//!
//! Every frame the server sends or receives is checksummed whole, so this
//! sits on the bulk path: the table arm costs about half a nanosecond per
//! byte, the hardware arm about a tenth.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Eight 256-entry tables for slicing-by-8, built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32C of `data` (standard init `!0`, final xor `!0`).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends a running CRC32C with more data: `crc32c_append(crc32c(a), b)
/// == crc32c(ab)`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if hardware() {
        // SAFETY: `hardware()` just confirmed this CPU executes SSE4.2,
        // the one target feature `crc32c_append_sse42` enables.
        return unsafe { crc32c_append_sse42(crc, data) };
    }
    crc32c_append_table(crc, data)
}

/// Whether [`crc32c_append`] takes the SSE4.2 arm.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn hardware() -> bool {
    use scc_bitpack::kernel::{active, KernelClass};
    is_x86_feature_detected!("sse4.2") && active() != KernelClass::Scalar
}

/// The `crc32` instruction over eight bytes at a time, then byte steps
/// for the tail. Callers confirm SSE4.2 first: that is what makes the
/// call sound.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "sse4.2")]
fn crc32c_append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut wide = u64::from(!crc);
    for chunk in &mut chunks {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut crc = wide as u32;
    for &byte in chunks.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    !crc
}

/// Slicing-by-8: the portable arm and the reference.
fn crc32c_append_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Pseudo-random bytes from a fixed LCG.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// A named `crc32c_append` implementation.
    type Arm = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every arm this build and CPU can run, the table first.
    fn arms() -> Vec<Arm> {
        #[allow(unused_mut)]
        let mut arms: Vec<Arm> = vec![("table", crc32c_append_table)];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was detected on this CPU just above.
            arms.push(("sse4.2", |crc, data| unsafe { crc32c_append_sse42(crc, data) }));
        }
        arms
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / SSE4.2 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn matches_bitwise_reference() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data = noise(len);
            for (arm, f) in arms() {
                assert_eq!(f(0, &data), crc32c_reference(&data), "{arm} len {len}");
            }
            assert_eq!(crc32c(&data), crc32c_reference(&data), "dispatched, len {len}");
        }
    }

    #[test]
    fn hardware_arm_matches_table_at_every_length_and_offset() {
        let data = noise(1100 + 8);
        // The table arm is the reference; every other arm is checked.
        for (arm, f) in arms().into_iter().skip(1) {
            for start in 0..8 {
                for len in 0..=1100 {
                    let slice = &data[start..start + len];
                    assert_eq!(
                        f(0, slice),
                        crc32c_append_table(0, slice),
                        "{arm} start {start} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_composes() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for (arm, f) in arms() {
            for split in [0, 1, 7, 8, 9, 17, data.len()] {
                let (a, b) = data.split_at(split);
                assert_eq!(f(f(0, a), b), crc32c(data), "{arm} split {split}");
            }
        }
        for split in [0, 1, 8, 17, data.len()] {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(data), "dispatched, split {split}");
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn scalar_kernel_class_forces_the_table_arm() {
        use scc_bitpack::kernel::{active, KernelClass};
        let forced_scalar = active() == KernelClass::Scalar;
        assert_eq!(hardware(), !forced_scalar && is_x86_feature_detected!("sse4.2"));
    }

    #[test]
    fn every_single_byte_flip_changes_the_crc() {
        let base: Vec<u8> = (0..200u16).map(|i| (i * 31) as u8).collect();
        let crc = crc32c(&base);
        let mut copy = base.clone();
        for i in 0..copy.len() {
            for mask in [0x01u8, 0x80, 0xA5, 0xFF] {
                copy[i] ^= mask;
                assert_ne!(crc32c(&copy), crc, "flip {mask:#x} at {i} undetected");
                copy[i] ^= mask;
            }
        }
        assert_eq!(crc32c(&copy), crc);
    }
}
