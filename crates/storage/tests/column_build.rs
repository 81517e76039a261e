//! Column construction: string dictionaries against sort + dedup, and the
//! analyzer decision counters for an automatically compressed column.
//! Its own binary because the obs registry is process-global; the
//! dictionary test builds plain code columns so it never runs the
//! analyzer beside the counter test.

use scc_storage::{ColumnStore, Compression, StrColumn};

fn assert_sorted_dictionary(values: &[String]) {
    let mut want_dict = values.to_vec();
    want_dict.sort_unstable();
    want_dict.dedup();
    let want_codes: Vec<u32> =
        values.iter().map(|s| want_dict.binary_search(s).expect("in dict") as u32).collect();
    let col = StrColumn::build(values, 128, &Compression::None);
    assert_eq!(col.dict, want_dict);
    assert_eq!(col.codes.values(), want_codes);
}

#[test]
fn string_dictionary_is_sorted_distinct_values() {
    let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_sorted_dictionary(&[]);
    assert_sorted_dictionary(&strings(&["only"; 300]));
    assert_sorted_dictionary(&strings(&["", "b", "", "a", "b", ""]));
    assert_sorted_dictionary(&strings(&["ζ", "été", "Zürich", "ascii", "été", "日本", "", "ζ"]));
    // First-seen order far from sorted order, across several segments.
    let shuffled: Vec<String> = (0..5000u32).map(|i| format!("k{}", (i * 7919) % 613)).collect();
    assert_sorted_dictionary(&shuffled);
}

#[test]
fn auto_build_counts_each_analyzer_decision() {
    scc_obs::set_enabled(true);
    let registry = scc_obs::global();
    let (compress, plain) =
        (registry.counter("core.analyze.compress"), registry.counter("core.analyze.plain"));
    let (compress0, plain0) = (compress.get(), plain.get());

    // One compressible segment, then one of full-width noise.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let values: Vec<i64> = (0..2048)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i < 1024 {
                i % 100
            } else {
                x as i64
            }
        })
        .collect();
    let col = ColumnStore::build(values, 1024, &Compression::Auto);
    assert_eq!(col.n_segments(), 2);
    assert_eq!((compress.get() - compress0, plain.get() - plain0), (1, 1));
    scc_obs::set_enabled(false);
}
