//! Kernel benchmark baseline: scalar vs SIMD vs fused decompression.
//!
//! Two sweeps, both written to `results/BENCH_kernels.json` (same
//! top-level shape as `BENCH_server.json`: `bench`/`command`/params plus
//! a `sweeps` array of `{params..., report: {...}}` rows):
//!
//! 1. **Kernel sweep** — width × operation × kernel tier × layout over
//!    raw packed buffers: plain `unpack`, fused `unpack_for32/64`, fused
//!    `unpack_delta32/64`, `pack`, and their vertical-layout (`v*`)
//!    counterparts, reporting values/cycle (rdtsc) and GB/s of decoded
//!    output. The working set is L1-resident on purpose: beyond L1 every
//!    tier saturates the same store-bandwidth ceiling and the numbers
//!    measure the cache hierarchy instead of the kernels.
//! 2. **Segment sweep** — scheme × exception-rate × kernel tier through
//!    `Segment::try_decode_range`, i.e. the whole two-loop decode the
//!    scan path runs.
//!
//! A class that runs an op on another class's routine (horizontal `sse41`
//! is the scalar set, vertical `avx2` is the 128-bit `sse41` set) gets no
//! row for it: both sweeps record each implementation once.
//!
//! The summary block records the fused-SIMD-vs-scalar speedup per width
//! (the ISSUE acceptance bar is ≥ 1.5× at widths 4–16) and the
//! vertical-vs-horizontal fused decode ratio (target ≥ 2× at widths
//! 1–12; widths where horizontal already runs at ≥ 6 values/cycle sit
//! against the store-port limit and cannot double — the bench prints a
//! warning for those rather than pretending).
//!
//! Flags: `--smoke` (tiny sizes, CI), `--out <path>` (default
//! `results/BENCH_kernels.json`).

use scc_bench::time_median;
use scc_bitpack::kernel::{self, KernelClass};
use scc_bitpack::{mask, pack_vec};
use scc_core::{pdict, pfor, pfordelta, Dictionary, Layout, Segment};
use scc_obs::json::Json;

#[cfg(target_arch = "x86_64")]
fn cycles() -> u64 {
    // SAFETY: RDTSC has no memory effects and is available on every
    // x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn cycles() -> u64 {
    0
}

struct Measure {
    seconds: f64,
    cycles_per_call: f64,
}

/// Median wall time plus a cycle count for one call of `f`.
fn measure(reps: usize, mut f: impl FnMut()) -> Measure {
    let seconds = time_median(3, || {
        for _ in 0..reps {
            f();
        }
    }) / reps as f64;
    let c0 = cycles();
    let n = reps.max(1);
    for _ in 0..n {
        f();
    }
    let dc = cycles().wrapping_sub(c0);
    Measure { seconds, cycles_per_call: dc as f64 / n as f64 }
}

fn report(m: &Measure, values: usize, out_bytes: usize) -> Json {
    let vpc = if m.cycles_per_call > 0.0 { values as f64 / m.cycles_per_call } else { 0.0 };
    Json::Obj(vec![
        ("ns_per_call".into(), Json::F64(m.seconds * 1e9)),
        ("values_per_cycle".into(), Json::F64(vpc)),
        ("values_per_sec".into(), Json::F64(values as f64 / m.seconds)),
        ("gb_per_sec".into(), Json::F64(scc_bench::gb_per_sec(out_bytes, m.seconds))),
    ])
}

fn get_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// `Some(other)` when `class` runs `op` (a `v*` name is a vertical-layout
/// op) on `other`'s routine — the table in `scc_bitpack::kernel`. Such a
/// row would repeat `other`'s measurement under a second name, so the
/// sweeps skip it and the console table prints `=other`.
fn alias_of(class: KernelClass, op: &str) -> Option<KernelClass> {
    match (class, op.starts_with('v')) {
        (KernelClass::Sse41, false) => Some(KernelClass::Scalar),
        (KernelClass::Avx2, false) if op == "pack" => Some(KernelClass::Scalar),
        (KernelClass::Avx2, true) => Some(KernelClass::Sse41),
        _ => None,
    }
}

/// Raw kernel sweep over one width for every available tier. Returns
/// the `unpack_for32` (horizontal) and `vunpack_for32` (vertical)
/// reports as `(op, class, report)` rows for the summary block.
fn kernel_sweep(
    b: u32,
    n: usize,
    reps: usize,
    sweeps: &mut Vec<Json>,
) -> Vec<(String, String, Json)> {
    let codes: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9) & mask(b)).collect();
    let packed = pack_vec(&codes, b);
    let vpacked = scc_bitpack::vert::pack_vec(&codes, b);
    let seeds = [7u32; 4];
    let seeds64 = [7u64; 4];
    let mut out32 = vec![0u32; n];
    let mut out64 = vec![0u64; n];
    let mut pbuf = vec![0u32; packed.len()];
    let mut per_class: Vec<(String, String, Json)> = Vec::new();
    for class in KernelClass::ALL {
        let Some(k) = kernel::kernels_for(class) else { continue };
        let mut row = |op: &str, bytes: usize, f: &mut dyn FnMut()| {
            if alias_of(class, op).is_some() {
                return;
            }
            let rep = report(&measure(reps, f), n, bytes);
            if op == "unpack_for32" || op == "vunpack_for32" {
                per_class.push((op.into(), class.name().to_string(), rep.clone()));
            }
            sweeps.push(Json::Obj(vec![
                ("kind".into(), Json::Str("kernel".into())),
                ("op".into(), Json::Str(op.into())),
                ("b".into(), Json::U64(b as u64)),
                ("class".into(), Json::Str(class.name().into())),
                ("report".into(), rep),
            ]));
        };
        row("unpack", 4 * n, &mut || k.unpack(&packed, b, &mut out32));
        row("unpack_for32", 4 * n, &mut || k.unpack_for32(&packed, b, 3, &mut out32));
        row("unpack_for64", 8 * n, &mut || k.unpack_for64(&packed, b, 3, &mut out64));
        row("unpack_delta32", 4 * n, &mut || k.unpack_delta32(&packed, b, 1, 7, &mut out32));
        row("unpack_delta64", 8 * n, &mut || k.unpack_delta64(&packed, b, 1, 7, &mut out64));
        row("pack", 4 * n, &mut || k.pack(&codes, b, &mut pbuf));
        row("vunpack", 4 * n, &mut || k.vunpack(&vpacked, b, &mut out32));
        row("vunpack_for32", 4 * n, &mut || k.vunpack_for32(&vpacked, b, 3, &mut out32));
        row("vunpack_for64", 8 * n, &mut || k.vunpack_for64(&vpacked, b, 3, &mut out64));
        row("vunpack_delta32", 4 * n, &mut || {
            k.vunpack_delta32(&vpacked, b, 1, &seeds, &mut out32)
        });
        row("vunpack_delta64", 8 * n, &mut || {
            k.vunpack_delta64(&vpacked, b, 1, &seeds64, &mut out64)
        });
        row("vpack", 4 * n, &mut || k.vpack(&codes, b, &mut pbuf));
    }
    std::hint::black_box((&out32, &out64, &pbuf));
    per_class
}

/// One segment per (scheme, exception-rate) cell: u32 values at width 8
/// with the requested fraction of uncodable outliers.
fn build_segment(scheme: &str, exc_pct: usize, n: usize, layout: Layout) -> Segment<u32> {
    let outlier = |i: usize| exc_pct > 0 && i * exc_pct % 100 < exc_pct;
    match scheme {
        "pfor" => {
            let values: Vec<u32> = (0..n)
                .map(|i| if outlier(i) { 1 << 20 | i as u32 } else { i as u32 % 200 })
                .collect();
            pfor::compress_in(&values, 0, 8, Default::default(), layout)
        }
        "pfordelta" => {
            let mut acc = 0u32;
            let values: Vec<u32> = (0..n)
                .map(|i| {
                    acc = acc.wrapping_add(if outlier(i) { 50_000 } else { i as u32 % 200 });
                    acc
                })
                .collect();
            match layout {
                Layout::Horizontal => pfordelta::compress(&values, 0, 0, 8),
                Layout::Vertical => pfordelta::compress_vertical(&values, 0),
            }
        }
        "pdict" => {
            let dict = Dictionary::new((0..200u32).map(|i| i * 1000).collect());
            let values: Vec<u32> = (0..n)
                .map(|i| if outlier(i) { 999_999_999 } else { (i as u32 % 200) * 1000 })
                .collect();
            pdict::compress_in(&values, &dict, dict.min_width(), Default::default(), layout)
        }
        other => unreachable!("unknown scheme {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_kernels.json".into());

    // The kernel sweep decodes into a 32 KiB (L1-resident) buffer: with
    // a larger working set every tier saturates the same store
    // bandwidth ceiling and the sweep measures the cache hierarchy, not
    // the kernels (observed here: horizontal and vertical AVX2 both
    // flatline at the machine-dependent 26-45 GB/s once the output
    // spills L1, while L1-resident they differ by up to 3x).
    let (n, reps, widths): (usize, usize, Vec<u32>) = if smoke {
        (4 * 1024, 8, vec![0, 1, 5, 8, 13, 32])
    } else {
        (8 * 1024, 1500, (0..=32).collect())
    };
    let detected = kernel::active();
    println!("bench_kernels: n={n} reps={reps} detected={detected} smoke={smoke}");
    println!(
        "{:<6} {:>3} {:>10} {:>10}  (fused unpack_for32, GB/s)",
        "class", "b", "horizontal", "vertical"
    );

    let mut sweeps: Vec<Json> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    let mut bar_ok = true;
    let mut vert_bar_ok = true;
    for &b in &widths {
        let per_class = kernel_sweep(b, n, reps, &mut sweeps);
        let pick = |op: &str, class: &str, key: &str| -> f64 {
            per_class
                .iter()
                .find(|(o, c, _)| o == op && c == class)
                .map(|(_, _, r)| get_f64(r, key))
                .unwrap_or(0.0)
        };
        let best = |op: &str, key: &str| -> f64 {
            per_class
                .iter()
                .filter(|(o, c, _)| o == op && c != "scalar")
                .map(|(_, _, r)| get_f64(r, key))
                .fold(0.0f64, f64::max)
        };
        for class in KernelClass::ALL {
            if kernel::kernels_for(class).is_none() {
                continue;
            }
            let cell = |op: &str| match alias_of(class, op) {
                Some(other) => format!("={other}"),
                None => format!("{:.2}", pick(op, class.name(), "gb_per_sec")),
            };
            println!(
                "{:<6} {b:>3} {:>10} {:>10}",
                class.name(),
                cell("unpack_for32"),
                cell("vunpack_for32")
            );
        }
        let scalar_vps = pick("unpack_for32", "scalar", "values_per_sec");
        let best_simd = best("unpack_for32", "values_per_sec");
        let gbps_scalar = pick("unpack_for32", "scalar", "gb_per_sec");
        let gbps_simd = best("unpack_for32", "gb_per_sec");
        let gbps_vert_scalar = pick("vunpack_for32", "scalar", "gb_per_sec");
        let gbps_vert_simd = best("vunpack_for32", "gb_per_sec");
        if scalar_vps > 0.0 && best_simd > 0.0 {
            let speedup = best_simd / scalar_vps;
            let vert_vs_horiz = if gbps_simd > 0.0 { gbps_vert_simd / gbps_simd } else { 0.0 };
            speedups.push(Json::Obj(vec![
                ("b".into(), Json::U64(b as u64)),
                ("fused_simd_vs_scalar".into(), Json::F64(speedup)),
                ("gbps_scalar".into(), Json::F64(gbps_scalar)),
                ("gbps_simd".into(), Json::F64(gbps_simd)),
                ("gbps_vertical_scalar".into(), Json::F64(gbps_vert_scalar)),
                ("gbps_vertical_simd".into(), Json::F64(gbps_vert_simd)),
                ("vertical_vs_horizontal".into(), Json::F64(vert_vs_horiz)),
            ]));
            if (4..=16).contains(&b) && speedup < 1.5 && !smoke {
                bar_ok = false;
                println!("  !! width {b}: fused SIMD speedup {speedup:.2}x below the 1.5x bar");
            }
            if (1..=12).contains(&b) && vert_vs_horiz < 2.0 && !smoke {
                vert_bar_ok = false;
                println!(
                    "  !! width {b}: vertical/horizontal {vert_vs_horiz:.2}x below the 2x bar"
                );
            }
        }
    }

    let seg_n = if smoke { 16 * 1024 } else { 1 << 19 };
    let seg_reps = if smoke { 2 } else { 8 };
    let mut out = vec![0u32; seg_n];
    println!(
        "\n{:<10} {:>5} {:<10} {:<6} {:>10}  (segment decode)",
        "scheme", "exc%", "layout", "class", "GB/s"
    );
    for scheme in ["pfor", "pfordelta", "pdict"] {
        for exc_pct in [0usize, 1, 5, 20] {
            for layout in [Layout::Horizontal, Layout::Vertical] {
                let seg = build_segment(scheme, exc_pct, seg_n, layout);
                // A segment decode runs the layout's decoders.
                let decode_op = if layout == Layout::Vertical { "vunpack" } else { "unpack" };
                for class in KernelClass::ALL {
                    if alias_of(class, decode_op).is_some() || kernel::force(class).is_err() {
                        continue;
                    }
                    let m = measure(seg_reps, || {
                        seg.try_decode_range(0, &mut out).expect("well-formed segment");
                    });
                    let rep = report(&m, seg_n, 4 * seg_n);
                    println!(
                        "{scheme:<10} {exc_pct:>5} {:<10} {:<6} {:>10.2}",
                        layout.name(),
                        class.name(),
                        get_f64(&rep, "gb_per_sec")
                    );
                    sweeps.push(Json::Obj(vec![
                        ("kind".into(), Json::Str("segment".into())),
                        ("scheme".into(), Json::Str(scheme.into())),
                        ("exception_pct".into(), Json::U64(exc_pct as u64)),
                        ("layout".into(), Json::Str(layout.name().into())),
                        ("class".into(), Json::Str(class.name().into())),
                        ("report".into(), rep),
                    ]));
                }
            }
        }
    }
    let _ = kernel::force(detected);
    std::hint::black_box(&out);

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("decompression kernel sweep".into())),
        (
            "command".into(),
            Json::Str(format!(
                "bench_kernels{} (width x op x tier over raw buffers, scheme x exception-rate x \
                 tier over Segment::try_decode_range)",
                if smoke { " --smoke" } else { "" }
            )),
        ),
        ("values_n".into(), Json::U64(n as u64)),
        ("segment_values_n".into(), Json::U64(seg_n as u64)),
        ("reps".into(), Json::U64(reps as u64)),
        ("detected_kernel".into(), Json::Str(detected.name().into())),
        ("smoke".into(), Json::U64(smoke as u64)),
        ("speedup_by_width".into(), Json::Arr(speedups)),
        ("sweeps".into(), Json::Arr(sweeps)),
    ]);
    let text = doc.pretty();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, &text).expect("write results json");
    // Self-validate: the written file must parse back with the expected
    // top-level keys (CI runs `--smoke` and relies on this check).
    let back = scc_obs::json::parse(&text).expect("output json parses");
    assert!(back.get("bench").is_some() && back.get("sweeps").is_some(), "schema keys missing");
    println!("\nwrote {out_path}");
    if !bar_ok {
        println!("WARNING: fused SIMD unpack below 1.5x scalar on some widths in 4..=16");
    }
    if !vert_bar_ok {
        println!("WARNING: vertical SIMD unpack below 2x horizontal on some widths in 1..=12");
    }
}
