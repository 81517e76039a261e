//! Conformance tests for `docs/FORMAT.md`: the wire layout is parsed
//! byte-by-byte, independently of `Segment::from_bytes`, so the document
//! and the implementation cannot drift apart silently.

use scc::core::{crc32c, pfor, pfordelta, Layout, Segment};

/// Sections start after the 32-byte header plus the 24-byte checksum
/// block.
const SECTIONS: usize = 56;

fn rd32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

#[test]
fn header_fields_match_the_spec() {
    let values: Vec<u32> = (0..300).map(|i| if i % 50 == 7 { 1 << 30 } else { i % 32 }).collect();
    let seg = pfor::compress(&values, 0, 5);
    let bytes = seg.to_bytes();

    assert_eq!(&bytes[0..4], b"SCCS", "magic");
    assert_eq!(bytes[4], 2, "version");
    assert_eq!(bytes[5], 1, "scheme tag: PFOR");
    assert_eq!(bytes[6], 1, "value type tag: u32");
    assert_eq!(bytes[7], 5, "bit width");
    assert_eq!(rd32(&bytes, 8), 300, "n");
    assert_eq!(rd32(&bytes, 12) as usize, seg.exception_count(), "n_exc");
    assert_eq!(rd32(&bytes, 16), 0, "n_dict (not PDICT)");
    assert_eq!(rd32(&bytes, 20) as usize, scc::bitpack::packed_words(300, 5), "codes_words");
    assert_eq!(rd32(&bytes, 24), 0, "base low word");
}

#[test]
fn v2_checksum_block_matches_recomputed_crcs() {
    let values: Vec<u32> =
        (0..1000).map(|i| if i % 83 == 0 { i * 4093 } else { i % 100 }).collect();
    let seg = pfor::compress(&values, 0, 7);
    let bytes = seg.to_bytes();
    // Offsets 32..56 hold six CRC32C words: header, entries, delta
    // bases, dict, codes, exceptions — in file order.
    assert_eq!(rd32(&bytes, 32), crc32c(&bytes[0..32]), "header checksum");
    let n = rd32(&bytes, 8) as usize;
    let n_exc = rd32(&bytes, 12) as usize;
    let codes_words = rd32(&bytes, 20) as usize;
    let n_blocks = n.div_ceil(128);
    let entries = SECTIONS..SECTIONS + n_blocks * 4;
    let codes = entries.end..entries.end + codes_words * 4;
    let exc = codes.end..codes.end + n_exc * 4;
    assert_eq!(rd32(&bytes, 36), crc32c(&bytes[entries]), "entries checksum");
    assert_eq!(rd32(&bytes, 40), crc32c(&[]), "delta bases checksum (empty for PFOR)");
    assert_eq!(rd32(&bytes, 44), crc32c(&[]), "dict checksum (empty for PFOR)");
    assert_eq!(rd32(&bytes, 48), crc32c(&bytes[codes]), "codes checksum");
    assert_eq!(rd32(&bytes, 52), crc32c(&bytes[exc.clone()]), "exceptions checksum");
    assert_eq!(exc.end, bytes.len(), "sections cover the file exactly");
}

#[test]
fn section_sizes_add_up() {
    let values: Vec<u32> = (0..1000).map(|i| if i % 97 == 0 { i * 5000 } else { i % 64 }).collect();
    let seg = pfor::compress(&values, 0, 6);
    let bytes = seg.to_bytes();
    let n = rd32(&bytes, 8) as usize;
    let n_exc = rd32(&bytes, 12) as usize;
    let codes_words = rd32(&bytes, 20) as usize;
    let n_blocks = n.div_ceil(128);
    // PFOR u32: header + checksums + entries + codes + exceptions, no
    // delta bases, no dictionary.
    let expect = SECTIONS + n_blocks * 4 + codes_words * 4 + n_exc * 4;
    assert_eq!(bytes.len(), expect);
}

#[test]
fn entry_points_are_monotone_and_start_lists() {
    let values: Vec<u32> = (0..1024).map(|i| if i % 10 == 3 { 1 << 29 } else { 1 }).collect();
    let seg = pfor::compress(&values, 0, 4);
    let bytes = seg.to_bytes();
    let n = rd32(&bytes, 8) as usize;
    let n_exc = rd32(&bytes, 12) as usize;
    let n_blocks = n.div_ceil(128);
    let mut prev_start = 0u32;
    for blk in 0..n_blocks {
        let e = rd32(&bytes, SECTIONS + blk * 4);
        let patch_start = e & 0x7f;
        let exc_start = e >> 7;
        assert!(exc_start >= prev_start, "monotone at block {blk}");
        assert!(exc_start - prev_start <= 128);
        assert!(patch_start < 128);
        prev_start = exc_start;
    }
    assert!(prev_start as usize <= n_exc);
}

#[test]
fn exceptions_are_written_backwards() {
    // One exception with a known value: it must be the last 4 bytes.
    let mut values = vec![1u32; 256];
    values[200] = 0xDEAD_BEEF;
    let seg = pfor::compress(&values, 0, 2);
    assert_eq!(seg.exception_count(), 1);
    let bytes = seg.to_bytes();
    let last4 = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    assert_eq!(last4, 0xDEAD_BEEF);
}

#[test]
fn delta_bases_follow_entry_points() {
    let values: Vec<u32> = (0..512).map(|i| i * 3).collect();
    let seg = pfordelta::compress(&values, 0, 3, 1);
    let bytes = seg.to_bytes();
    assert_eq!(bytes[5], 2, "scheme tag: PFOR-DELTA");
    let n_blocks = 512usize.div_ceil(128);
    // Delta bases sit right after the entry points: block k's restart is
    // the value at index 128k - 1 (seed 0 for block 0).
    let db_off = SECTIONS + n_blocks * 4;
    assert_eq!(rd32(&bytes, db_off), 0, "block 0 seed");
    for blk in 1..n_blocks {
        assert_eq!(rd32(&bytes, db_off + blk * 4), values[blk * 128 - 1], "block {blk} restart");
    }
}

/// Independent reference for the v3 vertical code layout: value `i` of a
/// full 128-value block lives in lane `i % 4`, row `i / 4`; each lane is
/// an LSB-first `b`-word stream; lane streams interleave word-wise
/// (physical word `4w + l` is word `w` of lane `l`). The trailing
/// partial block is horizontal (logical order, LSB-first 32-value
/// groups). Hand-rolled here so FORMAT.md and `scc-bitpack` cannot
/// drift apart silently.
fn vertical_pack_reference(codes: &[u32], b: u32) -> Vec<u32> {
    assert!(b > 0 && b < 32, "reference covers the interior widths");
    let msk = (1u64 << b) - 1;
    let mut out = vec![0u32; scc::bitpack::packed_words(codes.len(), b)];
    let full = codes.len() / 128;
    for blk in 0..full {
        let word_base = blk * 4 * b as usize;
        for lane in 0..4 {
            let (mut acc, mut bits, mut w) = (0u64, 0usize, 0usize);
            for row in 0..32 {
                acc |= ((codes[blk * 128 + 4 * row + lane] as u64) & msk) << bits;
                bits += b as usize;
                if bits >= 32 {
                    out[word_base + 4 * w + lane] = acc as u32;
                    w += 1;
                    acc >>= 32;
                    bits -= 32;
                }
            }
        }
    }
    // Horizontal tail: logical order, one 32-value group per `b` words.
    let tail = &codes[full * 128..];
    let tail_base = full * 4 * b as usize;
    for (g, group) in tail.chunks(32).enumerate() {
        let (mut acc, mut bits, mut w) = (0u64, 0usize, g * b as usize);
        for &c in group {
            acc |= ((c as u64) & msk) << bits;
            bits += b as usize;
            if bits >= 32 {
                out[tail_base + w] = acc as u32;
                w += 1;
                acc >>= 32;
                bits -= 32;
            }
        }
        if bits > 0 {
            out[tail_base + w] = acc as u32;
        }
    }
    out
}

#[test]
fn v3_vertical_codes_match_reference_layout() {
    // 300 values = 2 full vertical blocks + a 44-value horizontal tail.
    let values: Vec<u32> = (0..300).map(|i| (i * 7919) % 64).collect();
    let seg = pfor::compress_in(&values, 0, 6, Default::default(), Layout::Vertical);
    assert_eq!(seg.exception_count(), 0, "codes are the values themselves");
    let bytes = seg.to_bytes();
    assert_eq!(bytes[4], 3, "version");
    assert_eq!(bytes[5], 1 | 0x80, "scheme tag PFOR with the layout bit");
    assert_eq!(bytes[7], 6, "bit width");
    let n_blocks = 300usize.div_ceil(128);
    let codes_words = rd32(&bytes, 20) as usize;
    assert_eq!(codes_words, scc::bitpack::packed_words(300, 6), "same word count as horizontal");
    let codes_off = SECTIONS + n_blocks * 4;
    let got: Vec<u32> = (0..codes_words).map(|w| rd32(&bytes, codes_off + w * 4)).collect();
    assert_eq!(got, vertical_pack_reference(&values, 6), "vertical code section layout");
    // And the segment still round-trips through the public reader.
    assert_eq!(Segment::<u32>::from_bytes(&bytes).unwrap().decompress(), values);
}

#[test]
fn v3_delta_bases_carry_four_seeds_per_block() {
    let values: Vec<u32> = (0..512).map(|i| i * 3).collect();
    let seg = pfordelta::compress_vertical(&values, 0);
    let bytes = seg.to_bytes();
    assert_eq!(bytes[4], 3, "version");
    assert_eq!(bytes[5], 2 | 0x80, "scheme tag PFOR-DELTA with the layout bit");
    let n_blocks = 512usize.div_ceil(128);
    let db_off = SECTIONS + n_blocks * 4;
    // Lane `l` of block `k` restarts from the value 4 lanes back:
    // values[128k + l - 4], or the seed for the first four values.
    for lane in 0..4 {
        assert_eq!(rd32(&bytes, db_off + lane * 4), 0, "block 0 lane {lane} seed");
    }
    for blk in 1..n_blocks {
        for lane in 0..4 {
            assert_eq!(
                rd32(&bytes, db_off + (blk * 4 + lane) * 4),
                values[blk * 128 + lane - 4],
                "block {blk} lane {lane} restart"
            );
        }
    }
}

#[test]
fn v3_checksum_block_matches_recomputed_crcs() {
    let values: Vec<u32> = (0..1000).map(|i| i * 2 + (i % 5)).collect();
    let seg = pfordelta::compress_vertical(&values, 0);
    let bytes = seg.to_bytes();
    assert_eq!(rd32(&bytes, 32), crc32c(&bytes[0..32]), "header checksum");
    let n = rd32(&bytes, 8) as usize;
    let n_exc = rd32(&bytes, 12) as usize;
    let codes_words = rd32(&bytes, 20) as usize;
    let n_blocks = n.div_ceil(128);
    let entries = SECTIONS..SECTIONS + n_blocks * 4;
    // v3 vertical PFOR-DELTA: four delta bases per block.
    let deltas = entries.end..entries.end + n_blocks * 4 * 4;
    let codes = deltas.end..deltas.end + codes_words * 4;
    let exc = codes.end..codes.end + n_exc * 4;
    assert_eq!(rd32(&bytes, 36), crc32c(&bytes[entries]), "entries checksum");
    assert_eq!(rd32(&bytes, 40), crc32c(&bytes[deltas]), "delta bases checksum");
    assert_eq!(rd32(&bytes, 44), crc32c(&[]), "dict checksum (empty)");
    assert_eq!(rd32(&bytes, 48), crc32c(&bytes[codes]), "codes checksum");
    assert_eq!(rd32(&bytes, 52), crc32c(&bytes[exc.clone()]), "exceptions checksum");
    assert_eq!(exc.end, bytes.len(), "sections cover the file exactly");
}

#[test]
fn format_is_stable_for_a_pinned_input() {
    // A golden sanity check: the same input must serialize identically
    // across runs (and, by policy, across versions of this crate at the
    // same format version).
    let values: Vec<u32> = (0..640).map(|i| (i * 7919) % 1000).collect();
    let a = pfor::compress(&values, 0, 10).to_bytes();
    let b = pfor::compress(&values, 0, 10).to_bytes();
    assert_eq!(a, b);
    // And reloading + reserializing is canonical.
    let reloaded = Segment::<u32>::from_bytes(&a).unwrap();
    assert_eq!(reloaded.to_bytes(), a);
}
