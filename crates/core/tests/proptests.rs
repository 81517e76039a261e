//! Property-based tests for the patched compression schemes.

use proptest::prelude::*;
use scc_core::{analyze, pdict, pfor, pfordelta, AnalyzeOpts, CompressKernel, Dictionary, Segment};

/// Skewed generator: mostly small values, occasional outliers — the data
/// shape the patched schemes are designed for.
fn skewed_values(len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            8 => 0u32..500,
            1 => any::<u32>(),
        ],
        0..len,
    )
}

proptest! {
    #[test]
    fn pfor_roundtrip(values in skewed_values(800), base in 0u32..100, b in 0u32..=32) {
        let seg = pfor::compress(&values, base, b);
        prop_assert_eq!(seg.decompress(), values);
    }

    #[test]
    fn pfor_kernels_agree(values in skewed_values(600), b in 0u32..=16) {
        let a = pfor::compress_with(&values, 0, b, CompressKernel::Naive);
        let p = pfor::compress_with(&values, 0, b, CompressKernel::Predicated);
        let d = pfor::compress_with(&values, 0, b, CompressKernel::DoubleCursor);
        prop_assert_eq!(&a, &p);
        prop_assert_eq!(&p, &d);
    }

    #[test]
    fn pfor_fine_grained_matches(values in skewed_values(500), b in 0u32..=12) {
        let seg = pfor::compress(&values, 0, b);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(seg.get(i), v);
        }
    }

    #[test]
    fn pfordelta_roundtrip(values in prop::collection::vec(any::<u32>(), 0..800), seed in any::<u32>(), dbase in 0u32..10, b in 0u32..=32) {
        let seg = pfordelta::compress(&values, seed, dbase, b);
        prop_assert_eq!(seg.decompress(), values);
    }

    #[test]
    fn pfordelta_fine_grained_matches(values in prop::collection::vec(0u32..10_000, 1..400), b in 0u32..=10) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let seg = pfordelta::compress(&sorted, 0, 0, b);
        for (i, &v) in sorted.iter().enumerate() {
            prop_assert_eq!(seg.get(i), v);
        }
    }

    #[test]
    fn pdict_roundtrip(indices in prop::collection::vec(0usize..40, 0..600), extra in prop::collection::vec(any::<u32>(), 0..30), b in 0u32..=6) {
        // Dictionary of 40 spread-out values plus out-of-dictionary noise.
        let dict_vals: Vec<u32> = (0..40u32).map(|i| i * 1000 + 7).collect();
        let mut values: Vec<u32> = indices.iter().map(|&i| dict_vals[i]).collect();
        values.extend(extra.iter().map(|&v| v | 1)); // odd => never in dict
        let dict = Dictionary::new(dict_vals);
        let seg = pdict::compress_with(&values, &dict, b, CompressKernel::default());
        prop_assert_eq!(seg.decompress(), values);
    }

    #[test]
    fn wire_roundtrip_pfor(values in skewed_values(500), b in 0u32..=16) {
        let seg = pfor::compress(&values, 0, b);
        let back = Segment::<u32>::from_bytes(&seg.to_bytes()).unwrap();
        prop_assert_eq!(back, seg);
    }

    #[test]
    fn wire_roundtrip_pfordelta(values in prop::collection::vec(any::<u32>(), 0..400), b in 0u32..=16) {
        let seg = pfordelta::compress(&values, 0, 0, b);
        let back = Segment::<u32>::from_bytes(&seg.to_bytes()).unwrap();
        prop_assert_eq!(back.decompress(), values);
    }

    #[test]
    fn decode_range_matches_full(values in skewed_values(1000), b in 0u32..=10, start_blk in 0usize..4) {
        let seg = pfor::compress(&values, 0, b);
        let start = start_blk * 128;
        if start < values.len() {
            let len = (values.len() - start).min(300);
            let mut out = vec![0u32; len];
            seg.try_decode_range(start, &mut out).unwrap();
            prop_assert_eq!(&out[..], &values[start..start + len]);
        }
    }

    #[test]
    fn auto_always_roundtrips(values in skewed_values(2000)) {
        if let Some((seg, _plan)) = scc_core::compress_auto(&values) {
            prop_assert_eq!(seg.decompress(), values);
        }
    }

    #[test]
    fn analyzer_estimates_bound_reality(values in prop::collection::vec(0u32..2000, 200..1500)) {
        // For every candidate, compressing with its plan must roundtrip and
        // land within a couple of bits/value of the estimate.
        let analysis = analyze(&values, &AnalyzeOpts::default());
        for cand in analysis.candidates.iter().take(3) {
            let seg = scc_core::compress_with_plan(&values, &cand.plan);
            prop_assert_eq!(seg.decompress(), values.clone());
            let real = seg.stats().bits_per_value;
            // Header amortization and sampling explain small gaps; large
            // gaps would mean the model is wrong.
            prop_assert!(
                real < cand.est_bits_per_value + 6.0,
                "plan {} estimated {:.2} but realized {:.2}",
                cand.plan.name(), cand.est_bits_per_value, real
            );
        }
    }

    #[test]
    fn exception_rate_zero_when_range_fits(values in prop::collection::vec(0u32..256, 1..500)) {
        let seg = pfor::compress(&values, 0, 8);
        prop_assert_eq!(seg.exception_count(), 0);
    }

    #[test]
    fn signed_roundtrip(values in prop::collection::vec(any::<i64>(), 0..400), b in 0u32..=32) {
        let seg = pfor::compress(&values, -100i64, b);
        prop_assert_eq!(seg.decompress(), values);
    }
}

proptest! {
    /// Random byte soup never parses (no magic), and single-byte
    /// corruptions of a valid segment either fail to parse or decode
    /// without undefined behaviour (wrong values or a clean panic are
    /// acceptable; memory safety is Rust's, structural checks are ours).
    #[test]
    fn wire_rejects_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Never starts with the magic (we skip the astronomically
        // unlikely collision by checking).
        if bytes.len() < 4 || &bytes[..4] != b"SCCS" {
            prop_assert!(Segment::<u32>::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn wire_survives_single_byte_corruption(
        values in prop::collection::vec(0u32..1000, 100..400),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let seg = pfor::compress(&values, 0, 7);
        let mut bytes = seg.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = bytes[pos].wrapping_add(delta);
        // Either a parse error, or a segment whose decode is memory-safe
        // (may produce wrong values or panic cleanly; catch the panic).
        if let Ok(corrupt) = Segment::<u32>::from_bytes(&bytes) {
            let _ = std::panic::catch_unwind(move || {
                let _ = corrupt.decompress();
            });
        }
    }
}
