//! Corruption sweep: the decode path must never panic on damaged input.
//!
//! Every byte of a segment is covered by one of the six section
//! checksums (the checksum block itself is covered by virtue of being
//! compared against recomputed values), so *every* single-byte flip must
//! surface as a typed error from `try_from_bytes` / `wire::verify`. Behind
//! the checksums, the structural checks and the decoder must still hold
//! when a flip is *resealed* (its CRCs recomputed, as a crafted file
//! would be): typed error or values, never a panic.

use scc::core::wire::{verify, VerifyFailure, VerifyReport, WireError};
use scc::core::{pdict, pfor, pfordelta, Dictionary, Layout, Segment, Value};
use scc::storage::{FaultPlan, FaultyDisk, ReadOutcome};

include!("../crates/core/tests/support/reseal.rs");

/// One segment per (scheme, exception-rate) cell of the sweep matrix.
fn corpus_u32() -> Vec<(&'static str, Vec<u8>)> {
    let clean: Vec<u32> = (0..640).map(|i| i % 32).collect();
    let exc: Vec<u32> = (0..640).map(|i| if i % 9 == 0 { i << 20 } else { i % 32 }).collect();
    let rising: Vec<u32> = (0..640).map(|i| i * 3 + (i % 7)).collect();
    let dict = Dictionary::new((0..10u32).map(|i| i * 1000).collect());
    let coded: Vec<u32> =
        (0..640).map(|i| if i % 13 == 0 { 777_777 } else { (i % 10) * 1000 }).collect();
    let k = scc::core::CompressKernel::default();
    vec![
        ("pfor/u32/no-exceptions", pfor::compress(&clean, 0, 5).to_bytes()),
        ("pfor/u32/11%-exceptions", pfor::compress(&exc, 0, 5).to_bytes()),
        ("pfordelta/u32", pfordelta::compress(&rising, 0, 3, 3).to_bytes()),
        ("pdict/u32/exceptions", pdict::compress(&coded, &dict).to_bytes()),
        // Format v3: same data in the vertical layout. Every byte is still
        // under a section checksum, so the sweep guarantee carries over.
        ("pfor/u32/v3-vertical", pfor::compress_in(&exc, 0, 5, k, Layout::Vertical).to_bytes()),
        ("pfordelta/u32/v3-vertical", pfordelta::compress_vertical(&rising, 0).to_bytes()),
        (
            "pdict/u32/v3-vertical",
            pdict::compress_in(&coded, &dict, dict.min_width(), k, Layout::Vertical).to_bytes(),
        ),
    ]
}

fn corpus_i64() -> Vec<(&'static str, Vec<u8>)> {
    let wide: Vec<i64> =
        (0..384).map(|i| -1_000_000 + i * 17 + if i % 11 == 0 { 1 << 40 } else { 0 }).collect();
    let rising: Vec<i64> = (0..384).map(|i| i * 64).collect();
    vec![
        ("pfor/i64/exceptions", pfor::compress(&wide, -1_000_000, 12).to_bytes()),
        ("pfordelta/i64", pfordelta::compress(&rising, 0, 64, 1).to_bytes()),
        (
            "pfor/i64/v3-vertical",
            pfor::compress_in(&wide, -1_000_000, 12, Default::default(), Layout::Vertical)
                .to_bytes(),
        ),
        ("pfordelta/i64/v3-vertical", pfordelta::compress_vertical(&rising, 0).to_bytes()),
    ]
}

/// Applies `check` to every single-bit and whole-byte flip of `bytes`.
fn sweep_flips(bytes: &[u8], mut check: impl FnMut(usize, u8, &[u8])) {
    let mut work = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in [1u8 << (i % 8), 0xFF] {
            work[i] ^= mask;
            check(i, mask, &work);
            work[i] ^= mask;
        }
    }
}

fn assert_flip_detected<V: Value>(label: &str, bytes: &[u8]) {
    assert!(Segment::<V>::try_from_bytes(bytes).is_ok(), "{label}: pristine decode");
    assert!(verify(bytes).is_ok(), "{label}: pristine verify");
    sweep_flips(bytes, |i, mask, corrupted| {
        assert!(
            Segment::<V>::try_from_bytes(corrupted).is_err(),
            "{label}: flip of byte {i} (mask {mask:#04x}) decoded without error"
        );
        assert!(
            verify(corrupted).is_err(),
            "{label}: flip of byte {i} (mask {mask:#04x}) verified without error"
        );
    });
}

#[test]
fn every_single_byte_flip_in_v2_is_detected() {
    for (label, bytes) in corpus_u32() {
        assert_flip_detected::<u32>(label, &bytes);
    }
    for (label, bytes) in corpus_i64() {
        assert_flip_detected::<i64>(label, &bytes);
    }
}

#[test]
fn every_truncation_is_detected() {
    for (label, bytes) in corpus_u32() {
        for cut in 0..bytes.len() {
            assert!(
                Segment::<u32>::try_from_bytes(&bytes[..cut]).is_err(),
                "{label}: truncation to {cut} bytes decoded without error"
            );
            assert!(
                verify(&bytes[..cut]).is_err(),
                "{label}: truncation to {cut} bytes verified without error"
            );
        }
    }
}

/// Flips every byte of `bytes`, reseals the checksums and drives any
/// segment that then loads through the typed range decode. Returns how
/// many flips loaded: those reached the decoder with garbage inside.
fn resealed_flips_loaded<V: Value>(label: &str, bytes: &[u8]) -> usize {
    let mut loaded = 0usize;
    sweep_flips(bytes, |i, mask, corrupted| {
        let mut owned = corrupted.to_vec();
        let outcome = std::panic::catch_unwind(move || {
            let sealed = reseal(&mut owned).is_ok();
            let seg = Segment::<V>::try_from_bytes(&owned).ok()?;
            let mut all = vec![V::default(); seg.len()];
            let _ = seg.try_decode_range(0, &mut all);
            Some(sealed)
        });
        match outcome {
            Ok(None) => {}
            Ok(Some(sealed)) => {
                assert!(sealed, "{label}: flip of byte {i} (mask {mask:#04x}) loads unverified");
                loaded += 1;
            }
            Err(_) => panic!("{label}: resealed flip of byte {i} (mask {mask:#04x}) panicked"),
        }
    });
    loaded
}

#[test]
fn resealed_flips_decode_or_fail_typed() {
    let mut loaded = 0;
    for (label, bytes) in corpus_u32() {
        loaded += resealed_flips_loaded::<u32>(label, &bytes);
    }
    for (label, bytes) in corpus_i64() {
        loaded += resealed_flips_loaded::<i64>(label, &bytes);
    }
    // Payload flips pass every structural check once resealed, so the
    // sweep really does reach the decoder.
    assert!(loaded > 0, "expected some resealed flips to load");
}

#[test]
fn truncated_sections_surface_typed_errors_not_panics() {
    // The kernel-dispatch rework routes every block decode through
    // `bitpack::try_unpack`-style length validation, so a code section
    // shorter than the layout promises yields `Error::CorruptCodes`
    // instead of an index panic in a server worker.
    use scc::bitpack::{self, UnpackError};

    // Public bitpack surface: malformed requests are typed.
    let packed = bitpack::pack_vec(&(0..256u32).collect::<Vec<_>>(), 9);
    let mut out = vec![0u32; 256];
    assert!(bitpack::try_unpack(&packed, 9, &mut out).is_ok());
    assert!(matches!(
        bitpack::try_unpack(&packed[..packed.len() / 2], 9, &mut out),
        Err(UnpackError::TooShort { .. })
    ));
    assert!(matches!(
        bitpack::try_unpack(&packed, 33, &mut out),
        Err(UnpackError::WidthOutOfRange { .. })
    ));

    // Whole-pipeline sweep: truncate v2 and v3 byte streams at every
    // length and drive any segment that still parses through the typed
    // block/range decode entry points. Nothing may panic.
    for (label, bytes) in corpus_u32() {
        for cut in 0..bytes.len() {
            let owned = bytes[..cut].to_vec();
            let outcome = std::panic::catch_unwind(move || {
                if let Ok(seg) = Segment::<u32>::try_from_bytes(&owned) {
                    let mut block = vec![0u32; 128];
                    for blk in 0..seg.n_blocks() {
                        let _ = seg.try_decode_block(blk, &mut block[..seg.block_len(blk)]);
                    }
                    let mut all = vec![0u32; seg.len()];
                    let _ = seg.try_decode_range(0, &mut all);
                }
            });
            assert!(outcome.is_ok(), "{label}: truncation to {cut} bytes panicked the decoder");
        }
    }
}

#[test]
fn faulty_disk_corrupts_real_bytes_that_checksums_catch() {
    // End-to-end over the modeled disk: a corrupted copy of a real v2
    // segment must fail wire verification, and the injection must be
    // byte-for-byte deterministic for a fixed seed.
    let seg = pfor::compress(&(0..640u32).map(|i| i % 32).collect::<Vec<_>>(), 0, 5);
    let payload = seg.to_bytes();
    let plan = FaultPlan { seed: 42, bit_flip: 1.0, truncate: 0.0, transient_fail: 0.0 };
    let mut a = FaultyDisk::new(scc::storage::Disk::low_end(), plan);
    let mut b = FaultyDisk::new(scc::storage::Disk::low_end(), plan);
    use scc::storage::DiskRead;
    let id = (7, 0, 3);
    match (a.read_chunk(id, 1, Some(&payload)), b.read_chunk(id, 1, Some(&payload))) {
        (ReadOutcome::Corrupted(x), ReadOutcome::Corrupted(y)) => {
            assert_eq!(x, y, "same seed, same damage");
            assert_ne!(x, payload);
            assert!(verify(&x).is_err(), "checksums must catch the injected flip");
        }
        other => panic!("bit_flip=1.0 must corrupt: {other:?}"),
    }
}
