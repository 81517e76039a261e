// Byte-identity tests for the resident wire image, pulled into
// `scc-core`'s wire tests with `include!` (the includer brings the wire
// constants, `Segment` and its private sections into scope).

/// The section-by-section serializer that wrote every segment before
/// segments were kept as their sealed wire image. It copies each section
/// out of the decoded fields and checksums the result, so it is an
/// independent reference for the image's bytes.
fn reference_bytes<V: Value>(seg: &Segment<V>) -> Vec<u8> {
    let vertical = seg.layout() == SegLayout::Vertical;
    let version = if vertical { VERSION_V3 } else { VERSION };
    let scheme_byte = seg.scheme.tag() | if vertical { LAYOUT_FLAG } else { 0 };
    let w = V::byte_width();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(scheme_byte);
    out.push(vtype_tag::<V>());
    out.push(seg.b as u8);
    out.extend_from_slice(&(seg.n as u32).to_le_bytes());
    out.extend_from_slice(&(seg.exceptions.len() as u32).to_le_bytes());
    out.extend_from_slice(&(seg.dict.len() as u32).to_le_bytes());
    out.extend_from_slice(&(seg.codes().len() as u32).to_le_bytes());
    let mut base8 = [0u8; 8];
    let mut tmp = Vec::with_capacity(8);
    seg.base.write_le(&mut tmp);
    base8[..w].copy_from_slice(&tmp);
    out.extend_from_slice(&base8);
    assert_eq!(out.len(), HEADER_BYTES);
    out.extend_from_slice(&[0u8; CHECKSUM_BYTES]);
    let entries_off = out.len();
    for e in &seg.entries {
        out.extend_from_slice(&e.0.to_le_bytes());
    }
    let deltas_off = out.len();
    for &v in &seg.delta_bases {
        v.write_le(&mut out);
    }
    let dict_off = out.len();
    for &v in &seg.dict {
        v.write_le(&mut out);
    }
    let codes_off = out.len();
    for &word in seg.codes() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let exc_off = out.len();
    for &v in seg.exceptions.iter().rev() {
        v.write_le(&mut out);
    }
    let crcs = [
        crc32c(&out[..HEADER_BYTES]),
        crc32c(&out[entries_off..deltas_off]),
        crc32c(&out[deltas_off..dict_off]),
        crc32c(&out[dict_off..codes_off]),
        crc32c(&out[codes_off..exc_off]),
        crc32c(&out[exc_off..]),
    ];
    for (i, crc) in crcs.iter().enumerate() {
        out[HEADER_BYTES + i * 4..HEADER_BYTES + (i + 1) * 4].copy_from_slice(&crc.to_le_bytes());
    }
    out
}

/// Every scheme x layout x value type x {no exceptions, exceptions} x
/// tail length of the last block: the sealed image equals the reference
/// bytes, `to_bytes` equals `wire_bytes`, and loading the bytes gives
/// back the same image and the same segment.
#[test]
fn sealed_image_equals_the_section_by_section_reference() {
    fn check<V: Value>() -> usize {
        let k = crate::pfor::CompressKernel::default();
        let mut cases = 0;
        for tail in [0usize, 1, 77, 127] {
            let n = 3 * crate::patch::BLOCK + tail;
            for with_exceptions in [false, true] {
                // Codes below 13 fit 8 bits (so do vertical DELTA's
                // lane-stride deltas); every 17th value jumps far out.
                let far = |i: u64| with_exceptions && i % 17 == 5;
                let raw: Vec<u64> =
                    (0..n as u64).map(|i| if far(i) { 1 << 20 | i } else { i % 13 }).collect();
                let values: Vec<V> = raw.iter().map(|&v| V::from_u64_lossy(v)).collect();
                let rising: Vec<V> = raw
                    .iter()
                    .scan(0u64, |sum, &d| {
                        *sum += d;
                        Some(V::from_u64_lossy(*sum))
                    })
                    .collect();
                let dict = Dictionary::new((0..13).map(V::from_u64_lossy).collect());
                let zero = V::default();
                for layout in [SegLayout::Horizontal, SegLayout::Vertical] {
                    let delta = match layout {
                        SegLayout::Horizontal => {
                            crate::pfordelta::compress_with(&rising, zero, zero, 8, k)
                        }
                        SegLayout::Vertical => {
                            crate::pfordelta::compress_vertical_with(&rising, zero, zero, 8, k)
                        }
                    };
                    let segs = [
                        crate::pfor::compress_in(&values, zero, 8, k, layout),
                        delta,
                        crate::pdict::compress_in(&values, &dict, 8, k, layout),
                    ];
                    for seg in segs {
                        let label = format!(
                            "{} {:?} {layout:?} n={n} exceptions={with_exceptions}",
                            V::NAME,
                            seg.scheme()
                        );
                        assert_eq!(seg.exception_count() > 0, with_exceptions, "{label}");
                        let want = reference_bytes(&seg);
                        assert_eq!(seg.wire_bytes(), &want[..], "{label}");
                        assert_eq!(seg.to_bytes(), want, "{label}");
                        assert_eq!(seg.compressed_bytes(), want.len(), "{label}");
                        let back = Segment::<V>::from_bytes(&want).expect(&label);
                        assert_eq!(back.wire_bytes(), &want[..], "{label}");
                        // The code section starts 16-byte aligned in memory.
                        assert_eq!(seg.code_words.start % 4, 0, "{label}");
                        assert_eq!(back.code_words.start % 4, 0, "{label}");
                        assert_eq!(back, seg, "{label}");
                        cases += 1;
                    }
                }
            }
        }
        cases
    }
    assert_eq!(check::<i32>() + check::<i64>() + check::<u32>(), 3 * 4 * 2 * 2 * 3);
}
