//! Differential property tests for the unpack kernel tiers.
//!
//! For every bit width 0..=32 and random inputs — including lengths
//! that are not a multiple of the 32-value group — the scalar kernels,
//! every runtime-available SIMD tier, and the fused variants must
//! produce bit-identical output. `get_one` random access is checked
//! against the same reference. On machines (or builds) without a SIMD
//! tier the differential loop degenerates to scalar-vs-scalar, which
//! still exercises the dispatch plumbing.

use proptest::prelude::*;
use scc_bitpack::kernel::{kernels_for, KernelClass};
use scc_bitpack::{fused, get_one, mask, pack_vec};

/// The kernel tiers available on this machine (scalar always is).
fn tiers() -> Vec<scc_bitpack::kernel::Kernels> {
    KernelClass::ALL.iter().filter_map(|&c| kernels_for(c)).collect()
}

/// Scalar reference for the fused FOR decode.
fn ref_for32(codes: &[u32], base: u32) -> Vec<u32> {
    codes.iter().map(|&c| base.wrapping_add(c)).collect()
}

fn ref_delta64(codes: &[u32], delta_base: u64, seed: u64) -> Vec<u64> {
    let mut acc = seed;
    codes
        .iter()
        .map(|&c| {
            acc = acc.wrapping_add(delta_base).wrapping_add(c as u64);
            acc
        })
        .collect()
}

proptest! {
    #[test]
    fn every_tier_unpacks_identically(values in prop::collection::vec(any::<u32>(), 0..600), b in 0u32..=32) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&codes, b);
        for k in tiers() {
            let mut out = vec![0u32; codes.len()];
            k.unpack(&packed, b, &mut out);
            prop_assert_eq!(&out, &codes, "{} unpack at b={}", k.class(), b);
        }
        // Random access agrees with the bulk kernels.
        for (i, &c) in codes.iter().enumerate().step_by(7) {
            prop_assert_eq!(get_one(&packed, b, i), c);
        }
    }

    #[test]
    fn fused_for_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..600),
        b in 0u32..=32,
        base32 in any::<u32>(),
        base64 in any::<u64>(),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&codes, b);
        let want32 = ref_for32(&codes, base32);
        let want64: Vec<u64> =
            codes.iter().map(|&c| base64.wrapping_add(c as u64)).collect();
        for k in tiers() {
            let mut o32 = vec![0u32; codes.len()];
            k.unpack_for32(&packed, b, base32, &mut o32);
            prop_assert_eq!(&o32, &want32, "{} for32 at b={}", k.class(), b);
            let mut o64 = vec![0u64; codes.len()];
            k.unpack_for64(&packed, b, base64, &mut o64);
            prop_assert_eq!(&o64, &want64, "{} for64 at b={}", k.class(), b);
        }
        // The dispatched public entry point agrees with the reference too.
        let mut via_dispatch = vec![0u32; codes.len()];
        fused::unpack_for32(&packed, b, base32, &mut via_dispatch);
        prop_assert_eq!(&via_dispatch, &want32);
    }

    #[test]
    fn fused_delta_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..600),
        b in 0u32..=32,
        delta_base in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&codes, b);
        let mut acc = seed as u32;
        let want32: Vec<u32> = codes
            .iter()
            .map(|&c| {
                acc = acc.wrapping_add(delta_base).wrapping_add(c);
                acc
            })
            .collect();
        let want64 = ref_delta64(&codes, delta_base as u64, seed);
        for k in tiers() {
            let mut o32 = vec![0u32; codes.len()];
            k.unpack_delta32(&packed, b, delta_base, seed as u32, &mut o32);
            prop_assert_eq!(&o32, &want32, "{} delta32 at b={}", k.class(), b);
            let mut o64 = vec![0u64; codes.len()];
            k.unpack_delta64(&packed, b, delta_base as u64, seed, &mut o64);
            prop_assert_eq!(&o64, &want64, "{} delta64 at b={}", k.class(), b);
        }
    }

    #[test]
    fn prefix_sums_match_on_every_tier(values in prop::collection::vec(any::<u32>(), 0..400), seed in any::<u32>()) {
        let mut want = values.clone();
        fused::prefix_sum32(&mut want, seed);
        let wide: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        let mut want64 = wide.clone();
        fused::prefix_sum64(&mut want64, seed as u64);
        for k in tiers() {
            let mut got = values.clone();
            k.prefix_sum32(&mut got, seed);
            prop_assert_eq!(&got, &want, "{} prefix_sum32", k.class());
            let mut got64 = wide.clone();
            k.prefix_sum64(&mut got64, seed as u64);
            prop_assert_eq!(&got64, &want64, "{} prefix_sum64", k.class());
        }
    }

    #[test]
    fn cmp_range_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..1500),
        b in 0u32..=32,
        bounds in (any::<u32>(), any::<u32>()),
        negate in any::<bool>(),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&codes, b);
        // Bias the band towards the code domain so matches actually occur.
        let (a, c) = (bounds.0 & mask(b), bounds.1);
        let (lo, hi) = if a <= c { (a, c) } else { (c, a) };
        let want: Vec<bool> = codes.iter().map(|&v| ((v >= lo) & (v <= hi)) != negate).collect();
        for k in tiers() {
            let mut out = vec![false; codes.len()];
            k.cmp_range(&packed, b, lo, hi, negate, &mut out);
            prop_assert_eq!(&out, &want, "{} cmp_range b={} lo={} hi={} neg={}", k.class(), b, lo, hi, negate);
        }
    }

    #[test]
    fn cmp_in_set_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..1500),
        b in 0u32..=32,
        bits in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&codes, b);
        let has = |c: u32| bits.get((c >> 6) as usize).is_some_and(|w| (w >> (c & 63)) & 1 != 0);
        let want: Vec<bool> = codes.iter().map(|&v| has(v)).collect();
        for k in tiers() {
            let mut out = vec![false; codes.len()];
            k.cmp_in_set(&packed, b, &bits, &mut out);
            prop_assert_eq!(&out, &want, "{} cmp_in_set b={}", k.class(), b);
        }
    }
}

/// Scalar reference for the vertical lane-stride DELTA decode: four
/// independent running sums, value `i` extending lane `i % 4`.
fn ref_vdelta64(codes: &[u32], delta_base: u64, seeds: &[u64; 4]) -> Vec<u64> {
    let mut s = *seeds;
    codes
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            s[i & 3] = s[i & 3].wrapping_add(delta_base).wrapping_add(c as u64);
            s[i & 3]
        })
        .collect()
}

proptest! {
    // Vertical layout (format v3): every tier must produce the same
    // *packed words* (the layout is pinned by the wire format, so pack
    // itself is differential, not just unpack) and the same decoded
    // values, across full 128-value blocks and the horizontal tail.
    #[test]
    fn vertical_pack_and_unpack_match_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..600),
        b in 0u32..=32,
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = scc_bitpack::vert::pack_vec(&codes, b);
        for k in tiers() {
            let mut p = vec![0u32; packed.len()];
            k.vpack(&codes, b, &mut p);
            prop_assert_eq!(&p, &packed, "{} vpack at b={}", k.class(), b);
            let mut out = vec![0u32; codes.len()];
            k.vunpack(&packed, b, &mut out);
            prop_assert_eq!(&out, &codes, "{} vunpack at b={}", k.class(), b);
        }
        for (i, &c) in codes.iter().enumerate().step_by(7) {
            prop_assert_eq!(scc_bitpack::vert::get_one(&packed, b, codes.len(), i), c);
        }
    }

    #[test]
    fn vertical_fused_for_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..600),
        b in 0u32..=32,
        base32 in any::<u32>(),
        base64 in any::<u64>(),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = scc_bitpack::vert::pack_vec(&codes, b);
        let want32 = ref_for32(&codes, base32);
        let want64: Vec<u64> = codes.iter().map(|&c| base64.wrapping_add(c as u64)).collect();
        for k in tiers() {
            let mut o32 = vec![0u32; codes.len()];
            k.vunpack_for32(&packed, b, base32, &mut o32);
            prop_assert_eq!(&o32, &want32, "{} vfor32 at b={}", k.class(), b);
            let mut o64 = vec![0u64; codes.len()];
            k.vunpack_for64(&packed, b, base64, &mut o64);
            prop_assert_eq!(&o64, &want64, "{} vfor64 at b={}", k.class(), b);
        }
        let mut via_dispatch = vec![0u32; codes.len()];
        scc_bitpack::vert::unpack_for32(&packed, b, base32, &mut via_dispatch);
        prop_assert_eq!(&via_dispatch, &want32);
    }

    #[test]
    fn vertical_delta_and_prefix_match_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..600),
        b in 0u32..=32,
        delta_base in any::<u32>(),
        seed_tuple in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = scc_bitpack::vert::pack_vec(&codes, b);
        let seeds = [seed_tuple.0, seed_tuple.1, seed_tuple.2, seed_tuple.3];
        let seeds64 = seeds.map(|s| s as u64);
        let want64 = ref_vdelta64(&codes, delta_base as u64, &seeds64);
        let want32: Vec<u32> = {
            let mut s = seeds;
            codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    s[i & 3] = s[i & 3].wrapping_add(delta_base).wrapping_add(c);
                    s[i & 3]
                })
                .collect()
        };
        for k in tiers() {
            let mut o32 = vec![0u32; codes.len()];
            k.vunpack_delta32(&packed, b, delta_base, &seeds, &mut o32);
            prop_assert_eq!(&o32, &want32, "{} vdelta32 at b={}", k.class(), b);
            let mut o64 = vec![0u64; codes.len()];
            k.vunpack_delta64(&packed, b, delta_base as u64, &seeds64, &mut o64);
            prop_assert_eq!(&o64, &want64, "{} vdelta64 at b={}", k.class(), b);
            // prefix_sum over raw deltas (delta_base folded in) must agree
            // with the fused decode: this is the patch-path recombination.
            let mut p32: Vec<u32> =
                codes.iter().map(|&c| c.wrapping_add(delta_base)).collect();
            k.vprefix_sum32(&mut p32, &seeds);
            prop_assert_eq!(&p32, &want32, "{} vprefix_sum32", k.class());
            let mut p64: Vec<u64> =
                codes.iter().map(|&c| (c as u64).wrapping_add(delta_base as u64)).collect();
            k.vprefix_sum64(&mut p64, &seeds64);
            prop_assert_eq!(&p64, &want64, "{} vprefix_sum64", k.class());
        }
    }

    #[test]
    fn vertical_compare_matches_on_every_tier(
        values in prop::collection::vec(any::<u32>(), 0..1500),
        b in 0u32..=32,
        bounds in (any::<u32>(), any::<u32>()),
        negate in any::<bool>(),
        bits in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = scc_bitpack::vert::pack_vec(&codes, b);
        let (a, c) = (bounds.0 & mask(b), bounds.1);
        let (lo, hi) = if a <= c { (a, c) } else { (c, a) };
        let want: Vec<bool> = codes.iter().map(|&v| ((v >= lo) & (v <= hi)) != negate).collect();
        let has = |c: u32| bits.get((c >> 6) as usize).is_some_and(|w| (w >> (c & 63)) & 1 != 0);
        let want_set: Vec<bool> = codes.iter().map(|&v| has(v)).collect();
        for k in tiers() {
            let mut out = vec![false; codes.len()];
            k.vcmp_range(&packed, b, lo, hi, negate, &mut out);
            prop_assert_eq!(&out, &want, "{} vcmp_range b={} lo={} hi={}", k.class(), b, lo, hi);
            let mut out_set = vec![false; codes.len()];
            k.vcmp_in_set(&packed, b, &bits, &mut out_set);
            prop_assert_eq!(&out_set, &want_set, "{} vcmp_in_set b={}", k.class(), b);
        }
    }
}

/// Non-random sweep pinning the exact tail lengths the SIMD drivers
/// hand back to the scalar remainder loop: every width crossed with
/// lengths around the 32-value group and 8-lane boundaries.
#[test]
fn tail_lengths_are_exact_for_every_width() {
    let values: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    for b in 0..=32u32 {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        for n in [0usize, 1, 7, 8, 31, 32, 33, 63, 64, 95, 96, 127, 128, 129, 255, 256, 257] {
            let codes = &codes[..n];
            let packed = pack_vec(codes, b);
            for k in tiers() {
                let mut out = vec![0u32; n];
                k.unpack(&packed, b, &mut out);
                assert_eq!(out, codes, "{} unpack b={b} n={n}", k.class());
                let mut f = vec![0u32; n];
                k.unpack_for32(&packed, b, 3, &mut f);
                let want: Vec<u32> = codes.iter().map(|&c| c.wrapping_add(3)).collect();
                assert_eq!(f, want, "{} for32 b={b} n={n}", k.class());
            }
        }
    }
}

/// Same sweep for the vertical layout: the lengths that matter are the
/// 128-value block boundary (full vertical blocks) and the horizontal
/// tail on either side of it.
#[test]
fn vertical_tail_lengths_are_exact_for_every_width() {
    let values: Vec<u32> = (0..600u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    for b in 0..=32u32 {
        let codes: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        for n in [0usize, 1, 3, 4, 5, 31, 32, 33, 127, 128, 129, 131, 255, 256, 257, 511, 512] {
            let codes = &codes[..n];
            let packed = scc_bitpack::vert::pack_vec(codes, b);
            for k in tiers() {
                let mut out = vec![0u32; n];
                k.vunpack(&packed, b, &mut out);
                assert_eq!(out, codes, "{} vunpack b={b} n={n}", k.class());
                let mut f = vec![0u32; n];
                k.vunpack_for32(&packed, b, 3, &mut f);
                let want: Vec<u32> = codes.iter().map(|&c| c.wrapping_add(3)).collect();
                assert_eq!(f, want, "{} vfor32 b={b} n={n}", k.class());
            }
        }
    }
}

/// A kernel-matrix leg (`SCC_KERNEL=<class> cargo test ...`) must run on
/// the class it names: an unknown name, or a class this machine cannot
/// execute, makes the dispatcher fall back, and the leg would otherwise
/// pass having tested a different tier.
#[test]
fn forced_tier_is_the_active_tier() {
    let Ok(v) = std::env::var("SCC_KERNEL") else {
        return;
    };
    let class = KernelClass::from_name(&v)
        .unwrap_or_else(|| panic!("SCC_KERNEL={v} names no kernel class"));
    assert_eq!(scc_bitpack::kernel::active(), class, "SCC_KERNEL={v} was not honoured");
}
