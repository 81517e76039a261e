//! Range-access differentials: `try_decode_range` and `try_select_range`
//! against whole-segment decode.
//!
//! Whole blocks decode (and compare) straight into the caller's slice and
//! only a trailing partial take goes through a stack block, so every
//! range shape matters: empty, one value, a block minus one, exactly a
//! block, a block plus one, many blocks, and everything to the end of a
//! segment whose last block is partial. Covered: PFOR, PFOR-DELTA and
//! PDICT × vertical and horizontal layout × with and without exceptions,
//! from every block-aligned start.

use std::collections::HashSet;

use scc_core::predicate::{PredOp, ValuePred};
use scc_core::{
    pdict, pfor, pfordelta, CompressKernel, Dictionary, Error, Layout, SchemeKind, Segment, BLOCK,
};

/// Twenty full blocks and a 77-value tail.
const N: usize = 20 * BLOCK + 77;

fn mix(i: usize) -> usize {
    i.wrapping_mul(2_654_435_761) >> 7
}

/// One segment per (scheme, layout, exceptions) cell.
fn corpus() -> Vec<(String, Segment<u32>)> {
    let k = CompressKernel::default();
    let mut out = Vec::new();
    for layout in [Layout::Horizontal, Layout::Vertical] {
        for exceptions in [false, true] {
            let wild = |i: usize| exceptions && i % 37 == 5;
            // PFOR: 7-bit offsets from 1000; wild values far above the window.
            let pfor_vals: Vec<u32> = (0..N)
                .map(|i| if wild(i) { 900_000 + i as u32 } else { 1000 + (mix(i) % 128) as u32 })
                .collect();
            // PFOR-DELTA: rising by 1..=8, with rare jumps of 50 000.
            let mut acc = 0u32;
            let delta_vals: Vec<u32> = (0..N)
                .map(|i| {
                    acc += if wild(i) { 50_000 } else { 1 + (mix(i) % 8) as u32 };
                    acc
                })
                .collect();
            // PDICT: ten dictionary values; wild values are not in it.
            let dict = Dictionary::new((0..10u32).map(|d| d * 1000 + 7).collect());
            let dict_vals: Vec<u32> = (0..N)
                .map(|i| if wild(i) { 3 + i as u32 } else { (mix(i) % 10) as u32 * 1000 + 7 })
                .collect();
            let delta = match layout {
                // Value-stride deltas lie in 1..=8: base 1, width 3.
                Layout::Horizontal => pfordelta::compress(&delta_vals, 0, 1, 3),
                // Lane-stride deltas sum up to four of them: 1..=32.
                Layout::Vertical => pfordelta::compress_vertical_with(&delta_vals, 0, 1, 5, k),
            };
            for (scheme, seg) in [
                ("pfor", pfor::compress_in(&pfor_vals, 1000, 7, k, layout)),
                ("pfordelta", delta),
                ("pdict", pdict::compress_in(&dict_vals, &dict, dict.min_width(), k, layout)),
            ] {
                assert_eq!(seg.layout(), layout);
                assert_eq!(seg.len(), N);
                assert_eq!(seg.exception_count() > 0, exceptions, "{scheme} {layout:?}");
                out.push((format!("{scheme}/{layout:?}/exceptions={exceptions}"), seg));
            }
        }
    }
    out
}

/// Every block-aligned start × {0, 1, 127, 128, 129, 1000, to end}, as
/// `(start, len)` pairs that fit the segment.
fn ranges(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for start in (0..=n).step_by(BLOCK) {
        for len in [0, 1, 127, 128, 129, 1000, n - start] {
            if start + len <= n {
                out.push((start, len));
            }
        }
    }
    out
}

fn predicates() -> Vec<ValuePred<u32>> {
    let mut out: Vec<ValuePred<u32>> = [1000, 1063, 2007, 5007]
        .into_iter()
        .flat_map(|lit| PredOp::ALL.into_iter().map(move |op| ValuePred::Cmp { op, lit }))
        .collect();
    out.push(ValuePred::InSet(HashSet::from([1003u64, 3007, 9007])));
    out
}

#[test]
fn decode_range_equals_the_slice_of_decompress() {
    for (label, seg) in corpus() {
        let full = seg.decompress();
        for (start, len) in ranges(seg.len()) {
            // A sentinel fill shows a range writes every slot it covers.
            let mut out = vec![u32::MAX; len];
            seg.try_decode_range(start, &mut out).unwrap();
            assert_eq!(out, full[start..start + len], "{label}: start {start} len {len}");
        }
    }
}

#[test]
fn select_range_equals_decode_then_test() {
    let mut compiled = 0;
    for (label, seg) in corpus() {
        let full = seg.decompress();
        for pred in predicates() {
            let Some(cp) = seg.compile_predicate(&pred) else {
                assert_eq!(seg.scheme(), SchemeKind::PforDelta, "{label}: {pred:?} not compiled");
                continue;
            };
            compiled += 1;
            for (start, len) in ranges(seg.len()) {
                let want: Vec<bool> =
                    full[start..start + len].iter().map(|&v| pred.test(v)).collect();
                // Both sentinels, so a slot left unwritten cannot pass.
                for fill in [false, true] {
                    let mut got = vec![fill; len];
                    seg.try_select_range(&cp, start, &mut got).unwrap();
                    assert_eq!(got, want, "{label}: {pred:?} start {start} len {len}");
                }
            }
        }
    }
    assert!(compiled > 0, "no predicate compiled");
}

#[test]
fn bad_ranges_are_typed_errors_and_leave_the_output_untouched() {
    for (label, seg) in corpus() {
        let n = seg.len();
        let mut out = vec![7u32; 129];
        let err = seg.try_decode_range(64, &mut out).unwrap_err();
        assert_eq!(err, Error::UnalignedRange { start: 64 }, "{label}");
        let start = (n / BLOCK) * BLOCK;
        let err = seg.try_decode_range(start, &mut out).unwrap_err();
        assert_eq!(err, Error::RangeOutOfBounds { start, len: 129, n }, "{label}");
        assert!(out.iter().all(|&v| v == 7), "{label}: a rejected range wrote values");
    }
}

/// The same differentials over a signed 64-bit column, whose PFOR base
/// is negative.
#[test]
fn i64_ranges_match_decompress() {
    let k = CompressKernel::default();
    let vals: Vec<i64> = (0..N)
        .map(|i| if i % 41 == 3 { 1 << 40 } else { -5000 + (mix(i) % 4096) as i64 })
        .collect();
    for layout in [Layout::Horizontal, Layout::Vertical] {
        let seg = pfor::compress_in(&vals, -5000, 12, k, layout);
        assert!(seg.exception_count() > 0);
        let pred = ValuePred::Cmp { op: PredOp::Lt, lit: -3000 };
        let cp = seg.compile_predicate(&pred).expect("ordered window compiles");
        for (start, len) in ranges(N) {
            let mut out = vec![i64::MIN; len];
            seg.try_decode_range(start, &mut out).unwrap();
            assert_eq!(out, vals[start..start + len], "{layout:?}: start {start} len {len}");
            let mut sel = vec![false; len];
            seg.try_select_range(&cp, start, &mut sel).unwrap();
            let want: Vec<bool> = out.iter().map(|&v| pred.test(v)).collect();
            assert_eq!(sel, want, "{layout:?}: start {start} len {len}");
        }
    }
}
