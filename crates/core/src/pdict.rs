//! PDICT — Patched Dictionary compression.
//!
//! Integer codes index a per-segment dictionary holding the *frequent*
//! values; infrequent values become exceptions. This generalizes classic
//! dictionary ("enumerated storage") compression: on skewed frequency
//! distributions the coded domain shrinks to the hot values and the bit
//! width drops accordingly, and new rare values never force a global
//! recompression — they are simply stored as exceptions.
//!
//! The paper compresses with a "super-scalar perfect hash" whose details it
//! omits for space; we use a power-of-two open-addressing table with
//! Fibonacci hashing and linear probing, which keeps the probe loop short
//! and branch-light (documented substitution, see DESIGN.md §2).

use crate::error::Error;
use crate::pfor::CompressKernel;
use crate::segment::{Layout, SchemeKind, Segment, SegmentAssembly};
use crate::value::Value;

/// An encode-side dictionary: the code array plus a value→code hash table.
#[derive(Debug, Clone)]
pub struct Dictionary<V: Value> {
    entries: Vec<V>,
    /// Open-addressing table storing `code + 1` (0 = empty slot).
    table: Vec<u32>,
    mask: usize,
}

impl<V: Value> Dictionary<V> {
    /// Builds a dictionary from distinct values, in code order (code `i`
    /// maps to `entries[i]`). Typically the values are ordered by
    /// descending frequency by the analyzer.
    ///
    /// # Panics
    /// Panics if `entries` is empty, contains duplicates, or holds more
    /// than 2^25 values.
    pub fn new(entries: Vec<V>) -> Self {
        assert!(!entries.is_empty(), "dictionary must not be empty");
        assert!(entries.len() <= 1 << 25, "dictionary too large");
        let cap = (entries.len() * 2).next_power_of_two();
        let mut table = vec![0u32; cap];
        let mask = cap - 1;
        for (code, v) in entries.iter().enumerate() {
            let mut slot = Self::hash(*v) & mask;
            loop {
                if table[slot] == 0 {
                    table[slot] = code as u32 + 1;
                    break;
                }
                assert_ne!(
                    entries[(table[slot] - 1) as usize],
                    *v,
                    "duplicate dictionary entry {v:?}"
                );
                slot = (slot + 1) & mask;
            }
        }
        Self { entries, table, mask }
    }

    #[inline(always)]
    fn hash(v: V) -> usize {
        // Fibonacci hashing on the raw bits.
        (v.to_u64_lossy().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Number of dictionary entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary has no entries (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The code for `v`, or `None` when `v` is not in the dictionary.
    #[inline]
    pub fn code_of(&self, v: V) -> Option<u32> {
        let mut slot = Self::hash(v) & self.mask;
        loop {
            let e = self.table[slot];
            if e == 0 {
                return None;
            }
            let code = e - 1;
            if self.entries[code as usize] == v {
                return Some(code);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The value for a code, or [`Error::CorruptDictCode`] when the code
    /// does not address a dictionary entry. Codes reaching a decode path
    /// come from bit-packed sections that can hold any `b`-bit pattern,
    /// so an in-width but out-of-dictionary code is reachable from
    /// corrupt input and must surface as a typed error (`index` is not
    /// known at this layer and reports 0).
    #[inline]
    pub fn try_value_of(&self, code: u32) -> Result<V, Error> {
        self.entries.get(code as usize).copied().ok_or(Error::CorruptDictCode {
            index: 0,
            code: code as u64,
            dict_len: self.entries.len(),
        })
    }

    /// The value for a code.
    ///
    /// Infallible [`try_value_of`](Self::try_value_of): panics with the
    /// typed error's message on an out-of-dictionary code. Call sites
    /// that hold untrusted codes must use the fallible form.
    #[inline]
    pub fn value_of(&self, code: u32) -> V {
        match self.try_value_of(code) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// The code array (consumed into the segment at compression time).
    pub fn entries(&self) -> &[V] {
        &self.entries
    }

    /// Smallest width that can address every dictionary code.
    pub fn min_width(&self) -> u32 {
        scc_bitpack::width_of(self.entries.len().saturating_sub(1) as u32)
    }
}

/// Compresses `values` with PDICT at width `b` using `dict`, packing the
/// codes in the requested [`Layout`]. Values not in the dictionary (or
/// with codes `>= 2^b`, if the caller passes a width smaller than
/// [`Dictionary::min_width`]) become exceptions.
pub fn compress_in<V: Value>(
    values: &[V],
    dict: &Dictionary<V>,
    b: u32,
    kernel: CompressKernel,
    layout: Layout,
) -> Segment<V> {
    assert!(b <= 32, "bit width {b} out of range");
    let lim = 1u64 << b;
    let n = values.len();
    let mut codes = vec![0u32; n];
    let mut miss: Vec<u32> = Vec::new();
    // The dictionary probe itself contains a loop, so the naive/predicated
    // distinction applies to the miss-list append only; kernels are kept
    // for symmetry with PFOR.
    match kernel {
        CompressKernel::Naive => {
            for (i, &v) in values.iter().enumerate() {
                match dict.code_of(v) {
                    Some(c) if (c as u64) < lim => codes[i] = c,
                    _ => miss.push(i as u32),
                }
            }
        }
        _ => {
            miss.resize(n, 0);
            let mut j = 0usize;
            for (i, &v) in values.iter().enumerate() {
                let (code, ok) = match dict.code_of(v) {
                    Some(c) if (c as u64) < lim => (c, false),
                    _ => (0, true),
                };
                codes[i] = code;
                miss[j] = i as u32;
                j += ok as usize;
            }
            miss.truncate(j);
        }
    }
    let dict_slice: Vec<V> = dict.entries.clone();
    SegmentAssembly {
        scheme: SchemeKind::Pdict,
        b,
        base: V::default(),
        codes: &mut codes,
        miss: &miss,
        delta_bases: Vec::new(),
        dict: dict_slice,
        layout,
    }
    .finish(|pos| values[pos])
}

/// Compresses `values` with PDICT at width `b` using `dict`, in the
/// byte-stable horizontal layout.
pub fn compress_with<V: Value>(
    values: &[V],
    dict: &Dictionary<V>,
    b: u32,
    kernel: CompressKernel,
) -> Segment<V> {
    compress_in(values, dict, b, kernel, Layout::Horizontal)
}

/// Compresses with the default kernel at the dictionary's natural width.
pub fn compress<V: Value>(values: &[V], dict: &Dictionary<V>) -> Segment<V> {
    compress_with(values, dict, dict.min_width(), CompressKernel::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_codes_roundtrip() {
        let dict = Dictionary::new(vec![10u32, 20, 30, 40, 50]);
        assert_eq!(dict.len(), 5);
        assert_eq!(dict.min_width(), 3);
        for (code, v) in [(0u32, 10u32), (1, 20), (4, 50)] {
            assert_eq!(dict.code_of(v), Some(code));
            assert_eq!(dict.value_of(code), v);
        }
        assert_eq!(dict.code_of(11), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_entries_rejected() {
        Dictionary::new(vec![1u32, 2, 1]);
    }

    #[test]
    fn frequent_values_coded_rare_ones_excepted() {
        // 95% of values from a 128-value hot set, 5% long tail. At b=7 the
        // patch list can bridge any in-block gap, so the exception count
        // is exactly the data-driven one.
        let hot: Vec<u32> = (0..128u32).map(|i| i * 3).collect();
        let values: Vec<u32> = (0..2000u32)
            .map(|i| if i % 20 == 19 { 1_000_000 + i } else { hot[i as usize % 128] })
            .collect();
        let dict = Dictionary::new(hot);
        let seg = compress(&values, &dict);
        assert_eq!(seg.decompress(), values);
        assert_eq!(seg.bit_width(), 7);
        assert_eq!(seg.exception_count(), 100);
    }

    #[test]
    fn narrow_width_incurs_compulsory_exceptions() {
        // At b=2 the patch list can only bridge gaps of 4, so exceptions
        // spaced 20 apart force compulsory stepping stones.
        let values: Vec<u32> = (0..2000u32)
            .map(|i| if i % 20 == 19 { 1_000 + i } else { [7, 13, 42, 99][i as usize % 4] })
            .collect();
        let dict = Dictionary::new(vec![7, 13, 42, 99]);
        let seg = compress(&values, &dict);
        assert_eq!(seg.decompress(), values);
        assert_eq!(seg.bit_width(), 2);
        assert!(seg.exception_count() > 400, "got {}", seg.exception_count());
    }

    #[test]
    fn all_values_in_dictionary() {
        let values: Vec<i64> = (0..1000).map(|i| [(-5i64), 0, 5][i % 3]).collect();
        let dict = Dictionary::new(vec![-5i64, 0, 5]);
        let seg = compress(&values, &dict);
        assert_eq!(seg.decompress(), values);
        assert_eq!(seg.exception_count(), 0);
        assert_eq!(seg.bit_width(), 2);
    }

    #[test]
    fn width_narrower_than_dictionary() {
        // Force b=1: only codes 0 and 1 remain addressable; other dict
        // values fall out as exceptions.
        let values: Vec<u32> = (0..400u32).map(|i| i % 4).collect();
        let dict = Dictionary::new(vec![0u32, 1, 2, 3]);
        let seg = compress_with(&values, &dict, 1, CompressKernel::DoubleCursor);
        assert_eq!(seg.decompress(), values);
        assert!(seg.exception_count() >= 200);
    }

    #[test]
    fn fine_grained_get() {
        let values: Vec<u32> =
            (0..500u32).map(|i| if i % 50 == 0 { i + 10_000 } else { i % 8 }).collect();
        let dict = Dictionary::new((0..8u32).collect());
        let seg = compress(&values, &dict);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(seg.get(i), v, "index {i}");
        }
    }

    #[test]
    fn oversized_code_at_non_exception_position_is_corruption() {
        use crate::error::Error;
        // A 5-entry dictionary at b=3 leaves codes 5..=7 unaddressed, and
        // none of these values is an exception, so every stored code must
        // be < 5.
        let values: Vec<u32> = (0..640u32).map(|i| [3, 9, 27, 81, 243][i as usize % 5]).collect();
        let dict = Dictionary::new(vec![3, 9, 27, 81, 243]);
        let mut seg = compress(&values, &dict);
        assert_eq!(seg.exception_count(), 0);
        assert_eq!(seg.try_get(7), Ok(values[7]));
        // Plant an out-of-range dictionary index at position 7.
        let mut codes = scc_bitpack::unpack_vec(seg.codes(), seg.b, seg.n);
        codes[7] = 6;
        let words = seg.code_words.clone();
        scc_bitpack::pack(&codes, seg.b, &mut seg.image[words]);
        match seg.try_get(7) {
            Err(Error::CorruptDictCode { index: 7, code: 6, dict_len: 5 }) => {}
            other => panic!("expected CorruptDictCode, got {other:?}"),
        }
        // Neighbouring positions are unaffected.
        assert_eq!(seg.try_get(6), Ok(values[6]));
        assert_eq!(seg.try_get(8), Ok(values[8]));
        // LOOP1 of the block decode still clamps: pre-patch gap codes
        // legitimately exceed the dictionary there, so the bulk path
        // cannot distinguish this corruption and must not panic on it.
        let mut out = vec![0u32; seg.len()];
        assert!(seg.try_decode_range(0, &mut out).is_ok());
        assert_eq!(out[7], 243);
    }

    #[test]
    fn single_entry_dictionary_b0() {
        let values = vec![77u32; 300];
        let dict = Dictionary::new(vec![77u32]);
        let seg = compress(&values, &dict);
        assert_eq!(seg.bit_width(), 0);
        assert_eq!(seg.decompress(), values);
    }

    #[test]
    fn naive_and_predicated_agree() {
        let values: Vec<u32> = (0..3000u32).map(|i| i % 300).collect();
        let dict = Dictionary::new((0..256u32).collect());
        let a = compress_with(&values, &dict, 8, CompressKernel::Naive);
        let b = compress_with(&values, &dict, 8, CompressKernel::Predicated);
        assert_eq!(a, b);
        assert_eq!(a.decompress(), values);
    }
}
