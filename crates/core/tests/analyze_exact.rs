//! The analyzer is exact: `analyze` must return the candidate list the
//! sort-based analysis returns — same plans, same order, bit-identical
//! estimates — and `compress_vertical` must pick the lane-delta width the
//! per-width sweep over the sorted lane deltas picks. The references below
//! sort the sample and run `pfor_analyze_bits` once per width.

use scc_core::analyze::{effective_exception_rate, pfor_analyze_bits};
use scc_core::pfordelta::{compress_vertical, compress_vertical_with};
use scc_core::{analyze, AnalyzeOpts, Candidate, CompressKernel, Plan, Value, BLOCK};

const ENTRY_BITS_PER_VALUE: f64 = 32.0 / BLOCK as f64;

fn reference_widths<V: Value>(sorted: &[V], out: &mut Vec<(V, u32, f64)>) {
    let s = sorted.len();
    for b in 0..=32u32.min(V::BITS) {
        let (lo, len) = pfor_analyze_bits(sorted, b);
        let e = (s - len) as f64 / s as f64;
        out.push((sorted[lo], b, e));
        if len == s {
            break;
        }
    }
}

fn reference_analyze<V: Value>(sample: &[V], opts: &AnalyzeOpts) -> Vec<Candidate<V>> {
    let sample = &sample[..sample.len().min(opts.sample_size)];
    let w = V::BITS as f64;
    let mut candidates: Vec<Candidate<V>> = Vec::new();
    if sample.is_empty() {
        return candidates;
    }
    let amortize = if opts.amortize_over == 0 { sample.len() } else { opts.amortize_over };

    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let mut widths = Vec::new();
    reference_widths(&sorted, &mut widths);
    for &(base, b, e) in &widths {
        let e_eff = effective_exception_rate(e, b);
        let bits = b as f64 + e_eff * w + ENTRY_BITS_PER_VALUE;
        candidates.push(Candidate {
            plan: Plan::Pfor { base, b },
            est_bits_per_value: bits,
            est_exception_rate: e_eff,
        });
    }

    if sample.len() >= 2 {
        let mut deltas: Vec<V> = Vec::with_capacity(sample.len() - 1);
        for w in sample.windows(2) {
            deltas.push(w[1].wrapping_sub_v(w[0]));
        }
        deltas.sort_unstable();
        let mut dwidths = Vec::new();
        reference_widths(&deltas, &mut dwidths);
        for &(dbase, b, e) in &dwidths {
            let e_eff = effective_exception_rate(e, b);
            let bits = b as f64 + e_eff * w + ENTRY_BITS_PER_VALUE + w / BLOCK as f64;
            candidates.push(Candidate {
                plan: Plan::PforDelta { delta_base: dbase, b },
                est_bits_per_value: bits,
                est_exception_rate: e_eff,
            });
        }
    }

    let mut hist: Vec<(V, usize)> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] == v {
            j += 1;
        }
        hist.push((v, j - i));
        i = j;
    }
    hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let s = sample.len() as f64;
    let mut covered = 0usize;
    let mut prefix: Vec<usize> = Vec::with_capacity(hist.len() + 1);
    prefix.push(0);
    for &(_, c) in &hist {
        covered += c;
        prefix.push(covered);
    }
    for b in 0..=opts.max_dict_bits {
        let k = (1usize << b).min(hist.len());
        let e = 1.0 - prefix[k] as f64 / s;
        let e_eff = effective_exception_rate(e, b);
        let dict_bits = (k as f64 * w) / amortize as f64;
        let bits = b as f64 + e_eff * w + ENTRY_BITS_PER_VALUE + dict_bits;
        candidates.push(Candidate {
            plan: Plan::Pdict { entries: hist[..k].iter().map(|&(v, _)| v).collect(), b },
            est_bits_per_value: bits,
            est_exception_rate: e_eff,
        });
        if k == hist.len() {
            break;
        }
    }

    candidates.sort_by(|a, b| {
        a.est_bits_per_value.partial_cmp(&b.est_bits_per_value).expect("cost is never NaN")
    });
    candidates
}

/// The lane-delta `(delta_base, b)` minimizing `b + E'(b)·W` over the
/// sorted stride-4 deltas of the first 64 Ki values.
fn reference_lane_width<V: Value>(values: &[V], seed: V) -> (V, u32) {
    let mut sorted: Vec<V> = (0..values.len().min(64 * 1024))
        .map(|i| values[i].wrapping_sub_v(if i >= 4 { values[i - 4] } else { seed }))
        .collect();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return (V::default(), 0);
    }
    let mut widths = Vec::new();
    reference_widths(&sorted, &mut widths);
    let mut best = (V::default(), 32, f64::INFINITY);
    for (base, b, e) in widths {
        let bits = b as f64 + effective_exception_rate(e, b) * V::BITS as f64;
        if bits < best.2 {
            best = (base, b, bits);
        }
    }
    (best.0, best.1)
}

fn assert_exact_with<V: Value>(sample: &[V], opts: &AnalyzeOpts, what: &str) {
    let got = analyze(sample, opts).candidates;
    let want = reference_analyze(sample, opts);
    assert_eq!(got.len(), want.len(), "{what}: candidate count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.plan, w.plan, "{what}: candidate {i}");
        assert_eq!(
            g.est_bits_per_value.to_bits(),
            w.est_bits_per_value.to_bits(),
            "{what}: candidate {i} bits/value"
        );
        assert_eq!(
            g.est_exception_rate.to_bits(),
            w.est_exception_rate.to_bits(),
            "{what}: candidate {i} exception rate"
        );
    }
}

fn assert_exact<V: Value>(sample: &[V], what: &str) {
    assert_exact_with(sample, &AnalyzeOpts::default(), what);
}

fn assert_lane_width_exact<V: Value>(values: &[V], seed: V, what: &str) {
    let (base, b) = reference_lane_width(values, seed);
    let want = compress_vertical_with(values, seed, base, b, CompressKernel::default());
    assert_eq!(compress_vertical(values, seed).to_bytes(), want.to_bytes(), "{what}");
}

/// xorshift64*: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` values `base + (0..2^w)`, a fraction `e` of them full-width outliers.
fn clustered<V: Value>(rng: &mut Rng, n: usize, w: u32, e: f64) -> Vec<V> {
    let base = V::from_u64_lossy(rng.next());
    (0..n)
        .map(|_| {
            if (rng.below(1 << 20) as f64) < e * (1 << 20) as f64 {
                V::from_u64_lossy(rng.next())
            } else {
                base.wrapping_add_v(V::from_u64_lossy(rng.below(1u64 << w)))
            }
        })
        .collect()
}

fn monotone<V: Value>(rng: &mut Rng, n: usize, max_gap: u64) -> Vec<V> {
    let mut acc = V::from_u64_lossy(rng.next());
    (0..n)
        .map(|_| {
            acc = acc.wrapping_add_v(V::from_u64_lossy(rng.below(max_gap)));
            acc
        })
        .collect()
}

fn few_distinct<V: Value>(rng: &mut Rng, n: usize, k: u64) -> Vec<V> {
    let pool: Vec<V> = (0..k).map(|_| V::from_u64_lossy(rng.next())).collect();
    // Skewed: the first entries are drawn far more often.
    (0..n).map(|_| pool[rng.below(k).min(rng.below(k)) as usize]).collect()
}

fn every_width_and_exception_rate<V: Value>(seed: u64) {
    let mut rng = Rng(seed);
    for w in 0..=32 {
        for e in [0.0, 0.05, 0.5] {
            let values: Vec<V> = clustered(&mut rng, 2048, w, e);
            assert_exact(&values, &format!("{} w={w} e={e}", V::NAME));
        }
    }
}

#[test]
fn every_width_and_exception_rate_i32() {
    every_width_and_exception_rate::<i32>(1);
}

#[test]
fn every_width_and_exception_rate_i64() {
    every_width_and_exception_rate::<i64>(2);
}

#[test]
fn every_width_and_exception_rate_u32() {
    every_width_and_exception_rate::<u32>(3);
}

fn shapes_at_every_length<V: Value>(seed: u64) {
    let mut rng = Rng(seed);
    for n in [1usize, 2, 127, 128, 65_536, 70_000] {
        let name = V::NAME;
        assert_exact(&clustered::<V>(&mut rng, n, 12, 0.01), &format!("{name} clustered n={n}"));
        assert_exact(&clustered::<V>(&mut rng, n, 20, 0.0), &format!("{name} wide n={n}"));
        assert_exact(&monotone::<V>(&mut rng, n, 50), &format!("{name} monotone n={n}"));
        assert_exact(&few_distinct::<V>(&mut rng, n, 8), &format!("{name} 8 distinct n={n}"));
        assert_exact(&vec![V::from_u64_lossy(7); n], &format!("{name} all equal n={n}"));
    }
}

#[test]
fn shapes_at_every_length_i32() {
    shapes_at_every_length::<i32>(4);
}

#[test]
fn shapes_at_every_length_i64() {
    shapes_at_every_length::<i64>(5);
}

#[test]
fn shapes_at_every_length_u32() {
    shapes_at_every_length::<u32>(6);
}

#[test]
fn wrapped_negative_u32_deltas() {
    let mut rng = Rng(7);
    // Falling: every delta wraps to the top of the u32 domain.
    let falling: Vec<u32> = (0..20_000u32).map(|i| 4_000_000 - 3 * i - (i % 3)).collect();
    assert_exact(&falling, "falling u32");
    // Jitter around a level: deltas of both signs, the negative ones huge.
    let jitter: Vec<u32> = (0..20_000).map(|_| 1_000 + rng.below(64) as u32).collect();
    assert_exact(&jitter, "jitter u32");
}

#[test]
fn min_max_spans() {
    let mut rng = Rng(8);
    let mut i32s: Vec<i32> = clustered(&mut rng, 5000, 6, 0.0);
    i32s.extend([i32::MIN, i32::MAX, i32::MIN, 0, i32::MAX]);
    assert_exact(&i32s, "i32 MIN/MAX");
    let mut i64s: Vec<i64> = clustered(&mut rng, 5000, 6, 0.0);
    i64s.extend([i64::MIN, i64::MAX, -1, 1]);
    assert_exact(&i64s, "i64 MIN/MAX");
    let mut u32s: Vec<u32> = clustered(&mut rng, 5000, 6, 0.0);
    u32s.extend([0, u32::MAX, u32::MAX - 1, 1]);
    assert_exact(&u32s, "u32 0/MAX");
    assert_exact(&[i64::MIN, i64::MAX], "i64 two extremes");
    assert_exact(&[u32::MAX, 0, u32::MAX, 0], "u32 alternating extremes");
}

#[test]
fn equal_length_windows_break_to_the_first() {
    // Distinct values (runs > s/4): the one-pass sweep.
    let distinct = [0u32, 1, 2, 3, 100, 101, 102, 103];
    assert_exact(&distinct, "distinct tie");
    // Repeated values (runs <= s/4): the two-pointer sweep over runs.
    let repeated: Vec<u32> = [0u32, 1, 100, 101].iter().flat_map(|&v| [v; 4]).collect();
    assert_exact(&repeated, "repeated tie");
    for (values, b) in [(&distinct[..], 2), (&repeated[..], 1)] {
        let pfor = analyze(values, &AnalyzeOpts::default())
            .candidates
            .into_iter()
            .find(|c| matches!(c.plan, Plan::Pfor { b: cb, .. } if cb == b))
            .expect("a PFOR candidate at the tie width");
        assert_eq!(pfor.plan, Plan::Pfor { base: 0, b });
    }
}

#[test]
fn sample_size_and_dictionary_options() {
    let mut rng = Rng(9);
    let values: Vec<i64> = few_distinct(&mut rng, 10_000, 300);
    let opts = AnalyzeOpts { sample_size: 3000, max_dict_bits: 4, amortize_over: 1 << 20 };
    assert_exact_with(&values, &opts, "custom options");
}

#[test]
fn lane_delta_width_matches_the_sorted_sweep() {
    let mut rng = Rng(10);
    for n in [0usize, 1, 2, 127, 128, 65_536, 70_000] {
        assert_lane_width_exact(&monotone::<u32>(&mut rng, n, 50), 0, &format!("monotone n={n}"));
    }
    for w in [0, 3, 9, 17, 32] {
        let values: Vec<i64> = clustered(&mut rng, 4096, w, 0.02);
        assert_lane_width_exact(&values, -5, &format!("i64 clustered w={w}"));
    }
    let falling: Vec<u32> = (0..10_000u32).map(|i| 4_000_000 - 3 * i - (i % 3)).collect();
    assert_lane_width_exact(&falling, 0, "falling u32");
    assert_lane_width_exact(&few_distinct::<i32>(&mut rng, 10_000, 8), 0, "8 distinct i32");
}
