//! Runtime kernel dispatch, and the one table of which (layout ×
//! class × op) combinations the crate maintains.
//!
//! The pack, unpack, fused-decode and compare entry points of this crate
//! route through a per-process dispatch table chosen once at first use.
//! On x86-64 with the `simd` feature (default), the highest class the CPU
//! supports wins:
//!
//! | class | horizontal layout | vertical layout |
//! |---|---|---|
//! | `scalar` | scalar, every op (the reference) | scalar, every op (the reference) |
//! | `sse41` | scalar, every op | the 128-bit set in `vsimd.rs`, every op |
//! | `avx2` | AVX2 decoders in `simd.rs` (unpack, FOR, DELTA, prefix sum); scalar pack and compare | the same 128-bit set |
//!
//! The vertical layout is four 32-bit lanes — natively one 128-bit
//! register — so both SIMD classes share one kernel set. The horizontal
//! layout is what v1/v2 files and the direct compressors hold; it keeps
//! its AVX2 decoders so those still decode at speed, and nothing else
//! (pre-AVX2 x86 lacks the per-lane variable shifts a horizontal unpack
//! needs). The statics below are that table; `SSE41` and `AVX2` point at
//! the same [`VertOps`].
//!
//! Every class is byte-identical: all arithmetic is wrapping and the
//! dispatch only changes instruction selection, never results. The
//! differential property tests in `tests/` assert this for every width,
//! including ragged tails.
//!
//! Selection can be overridden with the `SCC_KERNEL` environment variable
//! (`scalar`, `sse41`, `avx2`; read once at first dispatch). An override
//! naming an unknown or unsupported class is not honoured — detection
//! runs instead and says so on stderr — so a forced kernel never executes
//! unsupported instructions.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel class serves the dispatch table. See the module docs for
/// what each class vectorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Portable scalar kernels; the only tier off x86-64 or with the
    /// `simd` feature disabled.
    Scalar,
    /// 128-bit vertical kernels; scalar horizontal kernels.
    Sse41,
    /// The same vertical kernels plus the AVX2 horizontal decoders.
    Avx2,
}

impl KernelClass {
    /// All classes, lowest tier first.
    pub const ALL: [KernelClass; 3] = [KernelClass::Scalar, KernelClass::Sse41, KernelClass::Avx2];

    /// Stable lower-case name used in metrics and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Scalar => "scalar",
            KernelClass::Sse41 => "sse41",
            KernelClass::Avx2 => "avx2",
        }
    }

    /// Stable numeric tag (0/1/2) used by the `core.decode.kernel_class`
    /// gauge.
    pub fn index(self) -> usize {
        match self {
            KernelClass::Scalar => 0,
            KernelClass::Sse41 => 1,
            KernelClass::Avx2 => 2,
        }
    }

    /// The class an `SCC_KERNEL` value names, if any.
    pub fn from_name(name: &str) -> Option<KernelClass> {
        match name {
            "scalar" => Some(KernelClass::Scalar),
            "sse41" | "sse4.1" => Some(KernelClass::Sse41),
            "avx2" => Some(KernelClass::Avx2),
            _ => None,
        }
    }

    fn from_index(i: u8) -> KernelClass {
        match i {
            0 => KernelClass::Scalar,
            1 => KernelClass::Sse41,
            _ => KernelClass::Avx2,
        }
    }
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tier's vertical-layout implementations (see [`crate::vert`]).
/// Same validation contract as [`Driver`]; the delta/prefix kernels take
/// four lane seeds instead of one because vertical DELTA uses
/// lane-stride deltas.
pub(crate) struct VertOps {
    pub(crate) pack: fn(&[u32], u32, &mut [u32]),
    pub(crate) unpack: fn(&[u32], u32, &mut [u32]),
    pub(crate) for32: fn(&[u32], u32, u32, &mut [u32]),
    pub(crate) for64: fn(&[u32], u32, u64, &mut [u64]),
    pub(crate) delta32: fn(&[u32], u32, u32, &[u32; 4], &mut [u32]),
    pub(crate) delta64: fn(&[u32], u32, u64, &[u64; 4], &mut [u64]),
    pub(crate) prefix32: fn(&mut [u32], &[u32; 4]),
    pub(crate) prefix64: fn(&mut [u64], &[u64; 4]),
    pub(crate) cmp_range: fn(&[u32], u32, u32, u32, bool, &mut [bool]),
    pub(crate) cmp_in_set: fn(&[u32], u32, &[u64], &mut [bool]),
}

static VERT_SCALAR: VertOps = VertOps {
    pack: crate::vert::vpack_scalar,
    unpack: crate::vert::vunpack_scalar,
    for32: crate::vert::vfor32_scalar,
    for64: crate::vert::vfor64_scalar,
    delta32: crate::vert::vdelta32_scalar,
    delta64: crate::vert::vdelta64_scalar,
    prefix32: crate::vert::vprefix_sum32_scalar,
    prefix64: crate::vert::vprefix_sum64_scalar,
    cmp_range: crate::vert::vcmp_range_scalar,
    cmp_in_set: crate::vert::vcmp_in_set_scalar,
};

/// One tier's implementations. All functions assume the caller validated
/// `b <= 32` and `packed.len() >= packed_words(out.len(), b)`; the public
/// wrappers in the crate root and [`Kernels`] enforce that.
pub(crate) struct Driver {
    pub(crate) class: KernelClass,
    pub(crate) pack: fn(&[u32], u32, &mut [u32]),
    pub(crate) unpack: fn(&[u32], u32, &mut [u32]),
    pub(crate) unpack_for32: fn(&[u32], u32, u32, &mut [u32]),
    pub(crate) unpack_for64: fn(&[u32], u32, u64, &mut [u64]),
    pub(crate) unpack_delta32: fn(&[u32], u32, u32, u32, &mut [u32]),
    pub(crate) unpack_delta64: fn(&[u32], u32, u64, u64, &mut [u64]),
    pub(crate) prefix_sum32: fn(&mut [u32], u32),
    pub(crate) prefix_sum64: fn(&mut [u64], u64),
    pub(crate) cmp_range: fn(&[u32], u32, u32, u32, bool, &mut [bool]),
    pub(crate) cmp_in_set: fn(&[u32], u32, &[u64], &mut [bool]),
    pub(crate) vert: &'static VertOps,
}

static SCALAR: Driver = Driver {
    class: KernelClass::Scalar,
    pack: crate::pack_scalar,
    unpack: crate::fused::unpack_scalar,
    unpack_for32: crate::fused::for32_scalar,
    unpack_for64: crate::fused::for64_scalar,
    unpack_delta32: crate::fused::delta32_scalar,
    unpack_delta64: crate::fused::delta64_scalar,
    prefix_sum32: crate::fused::prefix_sum32_scalar,
    prefix_sum64: crate::fused::prefix_sum64_scalar,
    cmp_range: crate::cmp::cmp_range_scalar,
    cmp_in_set: crate::cmp::cmp_in_set_scalar,
    vert: &VERT_SCALAR,
};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
static VERT_SIMD: VertOps = VertOps {
    pack: crate::vsimd::vpack_sse41,
    unpack: crate::vsimd::vunpack_sse41,
    for32: crate::vsimd::vfor32_sse41,
    for64: crate::vsimd::vfor64_sse41,
    delta32: crate::vsimd::vdelta32_sse41,
    delta64: crate::vsimd::vdelta64_sse41,
    prefix32: crate::vsimd::vprefix32_sse41,
    prefix64: crate::vsimd::vprefix64_sse41,
    cmp_range: crate::vsimd::vcmp_range_sse41,
    cmp_in_set: crate::vsimd::vcmp_in_set_sse41,
};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
static SSE41: Driver = Driver { class: KernelClass::Sse41, vert: &VERT_SIMD, ..SCALAR };

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
static AVX2: Driver = Driver {
    class: KernelClass::Avx2,
    unpack: crate::simd::unpack_avx2,
    unpack_for32: crate::simd::for32_avx2,
    unpack_for64: crate::simd::for64_avx2,
    unpack_delta32: crate::simd::delta32_avx2,
    unpack_delta64: crate::simd::delta64_avx2,
    prefix_sum32: crate::simd::prefix_sum32_avx2,
    prefix_sum64: crate::simd::prefix_sum64_avx2,
    vert: &VERT_SIMD,
    ..SCALAR
};

/// `0` = not yet detected; otherwise `KernelClass::index() + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// True when the tier's instructions can execute on this CPU/build.
pub fn available(class: KernelClass) -> bool {
    match class {
        KernelClass::Scalar => true,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelClass::Sse41 => is_x86_feature_detected!("sse4.1"),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Also licenses the vertical set's SSE4.1 code: `avx2` implies
        // `sse4.1` (rustc's target-feature implications assume the same).
        KernelClass::Avx2 => is_x86_feature_detected!("avx2"),
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => false,
    }
}

fn detect() -> KernelClass {
    let best = if available(KernelClass::Avx2) {
        KernelClass::Avx2
    } else if available(KernelClass::Sse41) {
        KernelClass::Sse41
    } else {
        KernelClass::Scalar
    };
    let Ok(v) = std::env::var("SCC_KERNEL") else {
        return best;
    };
    match KernelClass::from_name(&v) {
        Some(c) if available(c) => c,
        other => {
            let why = match other {
                Some(_) => "is not available on this CPU/build",
                None => "names no kernel class (scalar|sse41|avx2)",
            };
            eprintln!("scc-bitpack: SCC_KERNEL={v} {why}; using {best}");
            best
        }
    }
}

/// The kernel class currently serving dispatch. Detected once (CPUID +
/// `SCC_KERNEL` override) and cached.
pub fn active() -> KernelClass {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let c = detect();
            ACTIVE.store(c.index() as u8 + 1, Ordering::Relaxed);
            c
        }
        v => KernelClass::from_index(v - 1),
    }
}

pub(crate) fn driver_for(class: KernelClass) -> Option<&'static Driver> {
    match class {
        KernelClass::Scalar => Some(&SCALAR),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelClass::Sse41 => available(class).then_some(&SSE41),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelClass::Avx2 => available(class).then_some(&AVX2),
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => None,
    }
}

pub(crate) fn driver() -> &'static Driver {
    driver_for(active()).unwrap_or(&SCALAR)
}

/// A handle to one tier's kernels; obtained from [`kernels`] (the active
/// tier) or [`kernels_for`] (a specific tier, for differential testing
/// and per-tier benchmarking).
#[derive(Clone, Copy)]
pub struct Kernels {
    d: &'static Driver,
}

/// The active tier's kernels.
pub fn kernels() -> Kernels {
    Kernels { d: driver() }
}

/// The kernels of a specific tier, or `None` when the tier is
/// unavailable on this CPU/build.
pub fn kernels_for(class: KernelClass) -> Option<Kernels> {
    driver_for(class).map(|d| Kernels { d })
}

impl Kernels {
    /// The tier these kernels belong to.
    pub fn class(self) -> KernelClass {
        self.d.class
    }

    /// Per-tier [`crate::unpack`]; same contract and panics.
    pub fn unpack(self, packed: &[u32], b: u32, out: &mut [u32]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.unpack)(packed, b, out);
    }

    /// Fused unpack + frame-of-reference add on 32-bit lanes:
    /// `out[i] = base.wrapping_add(code_i)`.
    pub fn unpack_for32(self, packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.unpack_for32)(packed, b, base, out);
    }

    /// Fused unpack + frame-of-reference add, codes widened to 64-bit:
    /// `out[i] = base.wrapping_add(code_i as u64)`.
    pub fn unpack_for64(self, packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.unpack_for64)(packed, b, base, out);
    }

    /// Fused unpack + delta decode on 32-bit lanes: the running sum
    /// `out[i] = seed + Σ_{j<=i} (delta_base + code_j)` (wrapping).
    pub fn unpack_delta32(
        self,
        packed: &[u32],
        b: u32,
        delta_base: u32,
        seed: u32,
        out: &mut [u32],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.unpack_delta32)(packed, b, delta_base, seed, out);
    }

    /// Fused unpack + delta decode, 64-bit accumulation.
    pub fn unpack_delta64(
        self,
        packed: &[u32],
        b: u32,
        delta_base: u64,
        seed: u64,
        out: &mut [u64],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.unpack_delta64)(packed, b, delta_base, seed, out);
    }

    /// In-place inclusive wrapping prefix sum seeded with `seed`
    /// (`out[i] = seed + Σ_{j<=i} out[j]`), 32-bit lanes.
    pub fn prefix_sum32(self, out: &mut [u32], seed: u32) {
        (self.d.prefix_sum32)(out, seed);
    }

    /// In-place inclusive wrapping prefix sum, 64-bit lanes.
    pub fn prefix_sum64(self, out: &mut [u64], seed: u64) {
        (self.d.prefix_sum64)(out, seed);
    }

    /// Per-tier [`crate::cmp_range`]; same contract and panics.
    pub fn cmp_range(
        self,
        packed: &[u32],
        b: u32,
        lo: u32,
        hi: u32,
        negate: bool,
        out: &mut [bool],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.cmp_range)(packed, b, lo, hi, negate, out);
    }

    /// Per-tier [`crate::cmp_in_set`]; same contract and panics.
    pub fn cmp_in_set(self, packed: &[u32], b: u32, bits: &[u64], out: &mut [bool]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.cmp_in_set)(packed, b, bits, out);
    }

    /// Per-tier [`crate::pack`]; same contract and panics.
    pub fn pack(self, values: &[u32], b: u32, out: &mut [u32]) {
        assert!(b <= 32, "bit width {b} out of range");
        assert_eq!(out.len(), crate::packed_words(values.len(), b), "bad output length");
        (self.d.pack)(values, b, out);
    }

    /// Per-tier [`crate::vert::pack`]; same contract and panics.
    pub fn vpack(self, values: &[u32], b: u32, out: &mut [u32]) {
        assert!(b <= 32, "bit width {b} out of range");
        assert_eq!(out.len(), crate::packed_words(values.len(), b), "bad output length");
        (self.d.vert.pack)(values, b, out);
    }

    /// Per-tier [`crate::vert::unpack`]; same contract and panics.
    pub fn vunpack(self, packed: &[u32], b: u32, out: &mut [u32]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.unpack)(packed, b, out);
    }

    /// Per-tier [`crate::vert::unpack_for32`]; same contract and panics.
    pub fn vunpack_for32(self, packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.for32)(packed, b, base, out);
    }

    /// Per-tier [`crate::vert::unpack_for64`]; same contract and panics.
    pub fn vunpack_for64(self, packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.for64)(packed, b, base, out);
    }

    /// Per-tier [`crate::vert::unpack_delta32`]; same contract and panics.
    pub fn vunpack_delta32(
        self,
        packed: &[u32],
        b: u32,
        delta_base: u32,
        seeds: &[u32; 4],
        out: &mut [u32],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.delta32)(packed, b, delta_base, seeds, out);
    }

    /// Per-tier [`crate::vert::unpack_delta64`]; same contract and panics.
    pub fn vunpack_delta64(
        self,
        packed: &[u32],
        b: u32,
        delta_base: u64,
        seeds: &[u64; 4],
        out: &mut [u64],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.delta64)(packed, b, delta_base, seeds, out);
    }

    /// Per-tier [`crate::vert::prefix_sum32`] (lane-stride, 4 seeds).
    pub fn vprefix_sum32(self, out: &mut [u32], seeds: &[u32; 4]) {
        (self.d.vert.prefix32)(out, seeds);
    }

    /// Per-tier [`crate::vert::prefix_sum64`] (lane-stride, 4 seeds).
    pub fn vprefix_sum64(self, out: &mut [u64], seeds: &[u64; 4]) {
        (self.d.vert.prefix64)(out, seeds);
    }

    /// Per-tier [`crate::vert::cmp_range`]; same contract and panics.
    pub fn vcmp_range(
        self,
        packed: &[u32],
        b: u32,
        lo: u32,
        hi: u32,
        negate: bool,
        out: &mut [bool],
    ) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.cmp_range)(packed, b, lo, hi, negate, out);
    }

    /// Per-tier [`crate::vert::cmp_in_set`]; same contract and panics.
    pub fn vcmp_in_set(self, packed: &[u32], b: u32, bits: &[u64], out: &mut [bool]) {
        crate::check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
        (self.d.vert.cmp_in_set)(packed, b, bits, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(available(KernelClass::Scalar));
        assert!(kernels_for(KernelClass::Scalar).is_some());
        assert_eq!(kernels_for(KernelClass::Scalar).unwrap().class(), KernelClass::Scalar);
    }

    #[test]
    fn active_tier_is_available_and_stable() {
        let a = active();
        assert!(available(a), "active tier {a} must be executable");
        assert_eq!(active(), a, "detection is cached");
        assert_eq!(kernels().class(), a);
    }

    #[test]
    fn names_and_indices_are_stable() {
        assert_eq!(KernelClass::Scalar.name(), "scalar");
        assert_eq!(KernelClass::Sse41.name(), "sse41");
        assert_eq!(KernelClass::Avx2.name(), "avx2");
        for (i, c) in KernelClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn simd_classes_share_one_vertical_set() {
        assert!(std::ptr::eq(SSE41.vert, AVX2.vert));
    }

    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    #[test]
    fn simd_tiers_unavailable_without_feature() {
        assert!(!available(KernelClass::Sse41));
        assert!(!available(KernelClass::Avx2));
        assert_eq!(active(), KernelClass::Scalar);
    }
}
