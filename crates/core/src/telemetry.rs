//! Compression telemetry: per-scheme encode/decode metrics published to
//! the [`scc_obs`] global registry.
//!
//! Everything here is gated on [`scc_obs::enabled`], which is a constant
//! `false` when the registry is compiled out — the hot decode loops pay a
//! single predictable branch when telemetry is off and nothing at all in
//! `--features scc-obs/off` builds.
//!
//! Metric names are dynamic in the scheme (`core.decode.pfor.ns`,
//! `core.decode.pdict.ns`, …), so the macro-level per-callsite caches in
//! `scc-obs` don't apply; instead all handles are resolved once into a
//! [`OnceLock`]-backed struct. Registry [`reset`](scc_obs::Registry::reset)
//! zeroes metrics in place, so cached handles survive resets.
//!
//! | Metric | Kind | Meaning |
//! |---|---|---|
//! | `core.encode.<scheme>.segments` | counter | segments assembled |
//! | `core.encode.<scheme>.values` | counter | values encoded |
//! | `core.encode.<scheme>.exceptions` | counter | exceptions stored (incl. compulsory) |
//! | `core.encode.<scheme>.bit_width` | histogram | chosen code width per segment |
//! | `core.decode.<scheme>.ns` | counter | wall time in decode entry points |
//! | `core.decode.<scheme>.values` | counter | values decoded |
//! | `core.decode.<scheme>.blocks` | counter | 128-value blocks decoded |
//! | `core.decode.kernel.<class>.blocks` | counter | blocks decoded per kernel tier (scalar/sse41/avx2) |
//! | `core.decode.kernel_class` | gauge | active kernel tier index (0=scalar, 1=sse41, 2=avx2) |
//! | `core.encode.layout.horizontal` | counter | segments assembled in horizontal layout |
//! | `core.encode.layout.vertical` | counter | segments assembled in vertical layout |
//! | `core.analyze.compress` | counter | analyze runs choosing compression |
//! | `core.analyze.plain` | counter | analyze runs keeping plain storage |
//!
//! [`publish_derived`] folds the raw counters into the gauges
//! `core.decode.<scheme>.ns_per_value` and
//! `core.encode.<scheme>.exception_rate`; call it once before exporting
//! the registry.

use crate::segment::{Layout, SchemeKind};
use scc_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Lower-case scheme slug used in metric names.
pub fn scheme_slug(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Pfor => "pfor",
        SchemeKind::PforDelta => "pfordelta",
        SchemeKind::Pdict => "pdict",
    }
}

/// All scheme slugs, in tag order (useful for reports).
pub const SCHEME_SLUGS: [&str; 3] = ["pfor", "pfordelta", "pdict"];

struct SchemeHandles {
    enc_segments: Arc<Counter>,
    enc_values: Arc<Counter>,
    enc_exceptions: Arc<Counter>,
    enc_bit_width: Arc<Histogram>,
    dec_ns: Arc<Counter>,
    dec_values: Arc<Counter>,
    dec_blocks: Arc<Counter>,
}

impl SchemeHandles {
    fn resolve(slug: &str) -> Self {
        let r = scc_obs::global();
        Self {
            enc_segments: r.counter(&format!("core.encode.{slug}.segments")),
            enc_values: r.counter(&format!("core.encode.{slug}.values")),
            enc_exceptions: r.counter(&format!("core.encode.{slug}.exceptions")),
            enc_bit_width: r.histogram(&format!("core.encode.{slug}.bit_width")),
            dec_ns: r.counter(&format!("core.decode.{slug}.ns")),
            dec_values: r.counter(&format!("core.decode.{slug}.values")),
            dec_blocks: r.counter(&format!("core.decode.{slug}.blocks")),
        }
    }
}

struct Handles {
    pfor: SchemeHandles,
    pfordelta: SchemeHandles,
    pdict: SchemeHandles,
    analyze_compress: Arc<Counter>,
    analyze_plain: Arc<Counter>,
    /// Segments assembled per layout, `[horizontal, vertical]`.
    layout_segments: [Arc<Counter>; 2],
    /// Blocks decoded per kernel tier, indexed by
    /// [`scc_bitpack::kernel::KernelClass::index`].
    kernel_blocks: [Arc<Counter>; 3],
    /// Active kernel tier index at the last decode.
    kernel_class: Arc<Gauge>,
}

fn handles() -> &'static Handles {
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = scc_obs::global();
        Handles {
            pfor: SchemeHandles::resolve("pfor"),
            pfordelta: SchemeHandles::resolve("pfordelta"),
            pdict: SchemeHandles::resolve("pdict"),
            analyze_compress: r.counter("core.analyze.compress"),
            analyze_plain: r.counter("core.analyze.plain"),
            layout_segments: [
                r.counter("core.encode.layout.horizontal"),
                r.counter("core.encode.layout.vertical"),
            ],
            kernel_blocks: scc_bitpack::kernel::KernelClass::ALL
                .map(|c| r.counter(&format!("core.decode.kernel.{}.blocks", c.name()))),
            kernel_class: r.gauge("core.decode.kernel_class"),
        }
    })
}

fn scheme_handles(scheme: SchemeKind) -> &'static SchemeHandles {
    let h = handles();
    match scheme {
        SchemeKind::Pfor => &h.pfor,
        SchemeKind::PforDelta => &h.pfordelta,
        SchemeKind::Pdict => &h.pdict,
    }
}

/// Records one assembled segment on the encode side.
#[inline]
pub fn record_encode(
    scheme: SchemeKind,
    layout: Layout,
    values: u64,
    exceptions: u64,
    bit_width: u32,
) {
    if !scc_obs::enabled() {
        return;
    }
    let h = scheme_handles(scheme);
    h.enc_segments.add(1);
    h.enc_values.add(values);
    h.enc_exceptions.add(exceptions);
    h.enc_bit_width.record(bit_width as u64);
    let idx = match layout {
        Layout::Horizontal => 0,
        Layout::Vertical => 1,
    };
    handles().layout_segments[idx].add(1);
}

/// Segments assembled per layout so far, `(horizontal, vertical)`.
pub fn layout_counts() -> (u64, u64) {
    let h = handles();
    (h.layout_segments[0].get(), h.layout_segments[1].get())
}

/// Records one decode entry-point call (whole-segment or vector range).
#[inline]
pub fn record_decode(scheme: SchemeKind, values: u64, blocks: u64, ns: u64) {
    if !scc_obs::enabled() {
        return;
    }
    let h = scheme_handles(scheme);
    h.dec_ns.add(ns);
    h.dec_values.add(values);
    h.dec_blocks.add(blocks);
    let class = scc_bitpack::kernel::active();
    let hs = handles();
    hs.kernel_blocks[class.index()].add(blocks);
    hs.kernel_class.set(class.index() as f64);
}

/// Records one automatic scheme-selection decision.
#[inline]
pub fn record_analyze(compressed: bool) {
    if !scc_obs::enabled() {
        return;
    }
    let h = handles();
    if compressed { &h.analyze_compress } else { &h.analyze_plain }.add(1);
}

/// Computes the derived per-scheme gauges from the raw counters:
/// `core.decode.<scheme>.ns_per_value` and
/// `core.encode.<scheme>.exception_rate`. Schemes with no recorded
/// activity publish no gauge. Call this once before exporting the
/// registry (the bench `--metrics-json` path does).
pub fn publish_derived() {
    let r = scc_obs::global();
    for (scheme, slug) in [
        (SchemeKind::Pfor, "pfor"),
        (SchemeKind::PforDelta, "pfordelta"),
        (SchemeKind::Pdict, "pdict"),
    ] {
        let h = scheme_handles(scheme);
        let dec_values = h.dec_values.get();
        if dec_values > 0 {
            let g: Arc<Gauge> = r.gauge(&format!("core.decode.{slug}.ns_per_value"));
            g.set(h.dec_ns.get() as f64 / dec_values as f64);
        }
        let enc_values = h.enc_values.get();
        if enc_values > 0 {
            let g: Arc<Gauge> = r.gauge(&format!("core.encode.{slug}.exception_rate"));
            g.set(h.enc_exceptions.get() as f64 / enc_values as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry and enabled flag are shared across parallel
    // tests: assertions are on *deltas*, and tests that toggle the flag
    // serialize on this lock.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn encode_decode_and_derived_gauges() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        scc_obs::set_enabled(true);
        let h = scheme_handles(SchemeKind::Pfor);
        let (v0, e0, ns0, dv0) =
            (h.enc_values.get(), h.enc_exceptions.get(), h.dec_ns.get(), h.dec_values.get());

        record_encode(SchemeKind::Pfor, Layout::Horizontal, 1000, 25, 8);
        record_decode(SchemeKind::Pfor, 1000, 8, 5_000);
        assert_eq!(h.enc_values.get() - v0, 1000);
        assert_eq!(h.enc_exceptions.get() - e0, 25);
        assert_eq!(h.dec_ns.get() - ns0, 5_000);
        assert_eq!(h.dec_values.get() - dv0, 1000);

        publish_derived();
        let reg = scc_obs::global();
        let rate = reg.gauge("core.encode.pfor.exception_rate").get();
        assert!(rate > 0.0 && rate <= 1.0, "exception rate {rate}");
        let npv = reg.gauge("core.decode.pfor.ns_per_value").get();
        assert!(npv > 0.0, "ns/value {npv}");
        scc_obs::set_enabled(false);
    }

    #[test]
    fn decode_records_kernel_class() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        scc_obs::set_enabled(true);
        let class = scc_bitpack::kernel::active();
        let h = handles();
        let before = h.kernel_blocks[class.index()].get();
        record_decode(SchemeKind::Pfor, 256, 2, 1_000);
        assert_eq!(h.kernel_blocks[class.index()].get() - before, 2);
        assert_eq!(h.kernel_class.get(), class.index() as f64);
        scc_obs::set_enabled(false);
    }

    #[test]
    fn disabled_encode_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        scc_obs::set_enabled(false);
        let h = scheme_handles(SchemeKind::Pdict);
        let before = h.enc_values.get();
        record_encode(SchemeKind::Pdict, Layout::Vertical, 999, 1, 4);
        assert_eq!(h.enc_values.get(), before);
    }

    #[test]
    fn layout_counters_move_when_enabled() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        scc_obs::set_enabled(true);
        let (h0, v0) = layout_counts();
        record_encode(SchemeKind::Pfor, Layout::Vertical, 128, 0, 5);
        record_encode(SchemeKind::Pfor, Layout::Horizontal, 128, 0, 5);
        let (h1, v1) = layout_counts();
        assert_eq!((h1 - h0, v1 - v0), (1, 1));
        scc_obs::set_enabled(false);
    }

    #[test]
    fn slugs_cover_all_schemes() {
        assert_eq!(scheme_slug(SchemeKind::Pfor), "pfor");
        assert_eq!(scheme_slug(SchemeKind::PforDelta), "pfordelta");
        assert_eq!(scheme_slug(SchemeKind::Pdict), "pdict");
        assert_eq!(SCHEME_SLUGS.len(), 3);
    }
}
