//! Figure 2 — compression ratio, compression speed and decompression
//! speed of general-purpose codecs vs PFOR on four TPC-H lineitem
//! columns (L_ORDERKEY, L_LINENUMBER, L_COMMITDATE, L_EXTENDEDPRICE).
//!
//! `zlib`, `bzip2` and `lzop` are represented by our from-scratch
//! deflate-like, BWT-block and LZSS codecs (DESIGN.md §4, substitution
//! 2), with classic LZW added for the §2.1 related-work comparison. PFOR
//! runs through the scc-core analyzer exactly as the storage layer
//! would.
//!
//! Environment: `SCC_SF` (default 0.05) scales the dataset.

use scc_baselines::{
    bwt::BwtCodec, deflate_like::DeflateLike, lzrw1::Lzrw1, lzss::Lzss, lzw::Lzw, ByteCodec,
};
use scc_bench::data::{to_le_bytes_i32, to_le_bytes_i64};
use scc_bench::{env_f64, mb_per_sec, time_median};
use scc_core::{analyze, compress_with_plan, AnalyzeOpts};

struct ColumnCase {
    name: &'static str,
    bytes: Vec<u8>,
    as_i64: Option<Vec<i64>>,
    as_i32: Option<Vec<i32>>,
}

fn measure_byte_codec(codec: &dyn ByteCodec, input: &[u8]) -> (f64, f64, f64) {
    let mut compressed = Vec::new();
    let comp_t = time_median(3, || {
        compressed.clear();
        codec.compress(input, &mut compressed);
    });
    let mut out = Vec::with_capacity(input.len());
    let dec_t = time_median(3, || {
        out.clear();
        codec.decompress(&compressed, input.len(), &mut out);
    });
    assert_eq!(out, input, "{} roundtrip", codec.name());
    let ratio = input.len() as f64 / compressed.len() as f64;
    (ratio, mb_per_sec(input.len(), comp_t), mb_per_sec(input.len(), dec_t))
}

fn measure_pfor_i64(values: &[i64]) -> (f64, f64, f64) {
    let analysis = analyze(values, &AnalyzeOpts::default());
    let plan = analysis.best().expect("analyzable").plan.clone();
    let mut seg = compress_with_plan(values, &plan);
    let comp_t = time_median(3, || {
        seg = compress_with_plan(values, &plan);
    });
    let mut out: Vec<i64> = Vec::with_capacity(values.len());
    let dec_t = time_median(5, || {
        out.clear();
        seg.decompress_into(&mut out);
    });
    assert_eq!(out, values);
    let raw = values.len() * 8;
    let ratio = raw as f64 / seg.compressed_bytes() as f64;
    (ratio, mb_per_sec(raw, comp_t), mb_per_sec(raw, dec_t))
}

fn measure_pfor_i32(values: &[i32]) -> (f64, f64, f64) {
    let analysis = analyze(values, &AnalyzeOpts::default());
    let plan = analysis.best().expect("analyzable").plan.clone();
    let mut seg = compress_with_plan(values, &plan);
    let comp_t = time_median(3, || {
        seg = compress_with_plan(values, &plan);
    });
    let mut out: Vec<i32> = Vec::with_capacity(values.len());
    let dec_t = time_median(5, || {
        out.clear();
        seg.decompress_into(&mut out);
    });
    assert_eq!(out, values);
    let raw = values.len() * 4;
    let ratio = raw as f64 / seg.compressed_bytes() as f64;
    (ratio, mb_per_sec(raw, comp_t), mb_per_sec(raw, dec_t))
}

fn main() {
    let metrics = scc_bench::metrics::init();
    let sf = env_f64("SCC_SF", 0.05);
    eprintln!("generating TPC-H at SF {sf}...");
    let raw = scc_tpch::generate(sf, 42);
    let cases = vec![
        ColumnCase {
            name: "L_ORDERKEY",
            bytes: to_le_bytes_i64(&raw.lineitem.orderkey),
            as_i64: Some(raw.lineitem.orderkey.clone()),
            as_i32: None,
        },
        ColumnCase {
            name: "L_LINENUMBER",
            bytes: to_le_bytes_i32(&raw.lineitem.linenumber),
            as_i64: None,
            as_i32: Some(raw.lineitem.linenumber.clone()),
        },
        ColumnCase {
            name: "L_COMMITDATE",
            bytes: to_le_bytes_i32(&raw.lineitem.commitdate),
            as_i64: None,
            as_i32: Some(raw.lineitem.commitdate.clone()),
        },
        ColumnCase {
            name: "L_EXTENDEDPRICE",
            bytes: to_le_bytes_i64(&raw.lineitem.extendedprice),
            as_i64: Some(raw.lineitem.extendedprice.clone()),
            as_i32: None,
        },
    ];
    let byte_codecs: Vec<(&str, Box<dyn ByteCodec>)> = vec![
        ("zlib-class (deflate-like)", Box::new(DeflateLike)),
        ("bzip2-class (bwt)", Box::new(BwtCodec)),
        ("lzw", Box::new(Lzw)),
        ("lzrw1", Box::new(Lzrw1)),
        ("lzop-class (lzss)", Box::new(Lzss)),
    ];
    println!("Figure 2: codec comparison on TPC-H columns (SF {sf})");
    println!("paper shape: LZ-family decompresses at 200-500 MB/s and compresses far");
    println!("slower; PFOR exceeds 1 GB/s compression and multi-GB/s decompression.");
    for case in &cases {
        println!("\n=== {} ({} MB raw) ===", case.name, case.bytes.len() / (1024 * 1024));
        println!("{:<28} {:>7} {:>12} {:>12}", "codec", "ratio", "comp MB/s", "dec MB/s");
        for (label, codec) in &byte_codecs {
            let (r, c, d) = measure_byte_codec(codec.as_ref(), &case.bytes);
            println!("{label:<28} {r:>7.2} {c:>12.1} {d:>12.1}");
        }
        let (r, c, d) = match (&case.as_i64, &case.as_i32) {
            (Some(v), _) => measure_pfor_i64(v),
            (_, Some(v)) => measure_pfor_i32(v),
            _ => unreachable!(),
        };
        println!("{:<28} {r:>7.2} {c:>12.1} {d:>12.1}", "PFOR (auto scheme)");
    }
    metrics.finish();
}
