//! Compression-scheme analysis and automatic selection (§3.1, "Choosing
//! Compression Schemes").
//!
//! The table materialization operator gathers a sample (64 Ki values by
//! default) and collapses it into ascending `(value, count)` runs — a
//! counting pass when the sample's span is under `4·s`, otherwise one sort
//! (`O(s log s)`) — then evaluates every applicable (scheme, bit-width)
//! pair against the runs:
//!
//! * **PFOR** — `PFOR_ANALYZE_BITS`: the longest stretch of the sorted
//!   sample representable in `b` bits; everything outside the stretch is
//!   an exception. Every width's stretch comes from one pass: a
//!   count-weighted two-pointer sweep per width over the runs when they
//!   are at most a quarter of the sample, otherwise a single branch-free
//!   pass over the sorted sample that advances all widths' windows
//!   together. Both return exactly what [`pfor_analyze_bits`] returns.
//! * **PFOR-DELTA** — the same analysis on the *differences* of the sample
//!   (taken in original order).
//! * **PDICT** — the runs are the frequency histogram; sorted descending by
//!   frequency, the top `2^b` values are coded.
//!
//! Estimated cost per value is `b + E'(b) · W` bits plus fixed overheads,
//! where `E'` is the *effective* exception rate after compulsory
//! exceptions.

use crate::patch::BLOCK;
use crate::pdict::Dictionary;
use crate::segment::{Layout, Segment};
use crate::value::Value;
use crate::{pdict, pfor, pfordelta};

/// Entry-point overhead per value in bits (one `u32` per 128 values).
const ENTRY_BITS_PER_VALUE: f64 = 32.0 / BLOCK as f64;

/// Effective exception rate `E'` after compulsory exceptions, for a
/// data-driven exception rate `e` at width `b` (the Figure 6 model).
/// With per-block list restarts, widths `b >= 7` never need compulsory
/// exceptions.
pub fn effective_exception_rate(e: f64, b: u32) -> f64 {
    if e <= 0.0 {
        return 0.0;
    }
    if b >= 7 {
        return e.min(1.0);
    }
    let k = BLOCK as f64 * e;
    let compulsory = ((k - 1.0).max(0.0) / k) * (2.0f64).powi(-(b as i32));
    e.max(compulsory).min(1.0)
}

/// A concrete compression plan produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan<V: Value> {
    /// PFOR with the given base and width.
    Pfor {
        /// The frame-of-reference base value.
        base: V,
        /// Code width in bits.
        b: u32,
    },
    /// PFOR-DELTA with the given delta base and width.
    PforDelta {
        /// The FOR base in the delta domain.
        delta_base: V,
        /// Code width in bits.
        b: u32,
    },
    /// PDICT with the given dictionary entries (descending frequency) and
    /// width.
    Pdict {
        /// Dictionary values in code order.
        entries: Vec<V>,
        /// Code width in bits.
        b: u32,
    },
}

impl<V: Value> Plan<V> {
    /// Short scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Plan::Pfor { .. } => "PFOR",
            Plan::PforDelta { .. } => "PFOR-DELTA",
            Plan::Pdict { .. } => "PDICT",
        }
    }

    /// The plan's code width.
    pub fn bit_width(&self) -> u32 {
        match self {
            Plan::Pfor { b, .. } | Plan::PforDelta { b, .. } | Plan::Pdict { b, .. } => *b,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate<V: Value> {
    /// The plan to execute.
    pub plan: Plan<V>,
    /// Estimated compressed bits per value (including exception storage,
    /// entry points and amortized dictionary).
    pub est_bits_per_value: f64,
    /// Estimated effective exception rate.
    pub est_exception_rate: f64,
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzeOpts {
    /// Maximum sample length considered (prefix of the input).
    pub sample_size: usize,
    /// Maximum PDICT width (bounds dictionary memory).
    pub max_dict_bits: u32,
    /// Values the dictionary cost is amortized over (defaults to the
    /// sample length when 0).
    pub amortize_over: usize,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        Self { sample_size: 64 * 1024, max_dict_bits: 16, amortize_over: 0 }
    }
}

/// Analysis result: candidates sorted by estimated cost, best first.
#[derive(Debug, Clone)]
pub struct Analysis<V: Value> {
    /// All evaluated candidates, best (cheapest) first.
    pub candidates: Vec<Candidate<V>>,
    /// Plain-storage cost in bits per value, for comparison.
    pub plain_bits_per_value: f64,
}

impl<V: Value> Analysis<V> {
    /// The cheapest candidate, if any scheme is applicable.
    pub fn best(&self) -> Option<&Candidate<V>> {
        self.candidates.first()
    }

    /// True when the best candidate actually beats plain storage.
    pub fn worthwhile(&self) -> bool {
        self.best().is_some_and(|c| c.est_bits_per_value < self.plain_bits_per_value)
    }
}

/// The paper's `PFOR_ANALYZE_BITS`: on a sorted sample, the longest stretch
/// of values whose span is representable in `b` bits (the first one, on a
/// tie). Returns `(start_index, length)`. This is the per-width reference:
/// [`analyze`] finds every width's stretch in one pass and must return
/// exactly these.
pub fn pfor_analyze_bits<V: Value>(sorted: &[V], b: u32) -> (usize, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let lim = 1u64 << b;
    let mut best = (0usize, 1usize);
    let mut lo = 0usize;
    for hi in 0..sorted.len() {
        while sorted[hi].wrapping_offset(sorted[lo]) >= lim {
            lo += 1;
        }
        if hi - lo + 1 > best.1 {
            best = (lo, hi - lo + 1);
        }
    }
    best
}

/// PFOR's choice per width on a sample given as its [`runs_of`]:
/// `(base, b, exception_rate)` for `b = 0, 1, …` up to the first width
/// that codes every value (at most 32) — at each width the window
/// [`pfor_analyze_bits`] finds on the sorted sample, ties included.
pub(crate) fn pfor_widths<V: Value>(runs: &[(V, usize)]) -> Vec<(V, u32, f64)> {
    let s: usize = runs.iter().map(|&(_, c)| c).sum();
    let span = runs[runs.len() - 1].0.wrapping_offset(runs[0].0);
    let top = (u64::BITS - span.leading_zeros()).min(32);
    let windows = if runs.len() <= s / 4 {
        (0..=top).map(|b| run_window(runs, b)).collect()
    } else {
        sweep_windows(runs, top)
    };
    (0..=top).zip(windows).map(|(b, (base, len))| (base, b, (s - len) as f64 / s as f64)).collect()
}

/// A non-empty sample as ascending `(value, count)` runs: the sorted
/// sample with equal values collapsed.
pub(crate) fn runs_of<V: Value>(mut values: Vec<V>) -> Vec<(V, usize)> {
    let (min, max) =
        values.iter().fold((values[0], values[0]), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = max.wrapping_offset(min);
    if span < (4 * values.len() as u64).min(u32::MAX.into()) {
        let mut counts = vec![0usize; span as usize + 1];
        for &v in &values {
            counts[v.wrapping_offset(min) as usize] += 1;
        }
        return (0u32..)
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(off, c)| (V::apply_offset(min, off), c))
            .collect();
    }
    values.sort_unstable();
    values.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect()
}

/// The first longest `b`-bit window over `runs` as `(base, length)`: a
/// two-pointer sweep weighted by the run counts.
fn run_window<V: Value>(runs: &[(V, usize)], b: u32) -> (V, usize) {
    let (mut lo, mut len, mut best) = (0, 0, (runs[0].0, 0));
    for &(v, c) in runs {
        len += c;
        while v.wrapping_offset(runs[lo].0) >> b != 0 {
            len -= runs[lo].1;
            lo += 1;
        }
        if len > best.1 {
            best = (runs[lo].0, len);
        }
    }
    best
}

/// [`run_window`] for every width `0..=top` in one pass over the sorted
/// values. A window never shrinks: each value either extends width `b`'s
/// window (a new longest, whose start is recorded) or slides it by one.
fn sweep_windows<V: Value>(runs: &[(V, usize)], top: u32) -> Vec<(V, usize)> {
    let sorted: Vec<V> = runs.iter().flat_map(|&(v, c)| std::iter::repeat_n(v, c)).collect();
    let widths = top as usize + 1;
    let (mut lo, mut best) = ([0usize; 33], [0usize; 33]);
    for &x in &sorted {
        for b in 0..widths {
            let grow = x.wrapping_offset(sorted[lo[b]]) >> b == 0;
            lo[b] += usize::from(!grow);
            best[b] = if grow { lo[b] } else { best[b] };
        }
    }
    (0..widths).map(|b| (sorted[best[b]], sorted.len() - lo[b])).collect()
}

/// Fast single-pass width choice for non-negative data coded from base 0
/// (d-gap streams, counts): builds a bit-width histogram and picks the
/// width minimizing `b + E'(b)·W`, without sorting. Returns the chosen
/// width and its estimated bits/value.
///
/// This is the per-chunk adaptive path for inverted-file compression,
/// where re-running the full sort-based analysis per chunk would dominate
/// compression time.
pub fn choose_width_base0(values: &[u32]) -> (u32, f64) {
    if values.is_empty() {
        return (0, 0.0);
    }
    let mut width_counts = [0usize; 33];
    for &v in values {
        width_counts[scc_bitpack::width_of(v) as usize] += 1;
    }
    // suffix[b] = values needing more than b bits = exceptions at width b.
    let n = values.len() as f64;
    let mut best = (32u32, f64::INFINITY);
    let mut exceptions = values.len();
    for b in 0..=32u32 {
        // Entering width b: values of width exactly b become codable.
        exceptions -= width_counts[b as usize];
        let e = exceptions as f64 / n;
        let e_eff = effective_exception_rate(e, b);
        let bits = b as f64 + e_eff * 32.0 + ENTRY_BITS_PER_VALUE;
        if bits < best.1 {
            best = (b, bits);
        }
        if exceptions == 0 {
            break;
        }
    }
    best
}

/// Analyzes a contiguous sample of column values and ranks the applicable
/// schemes. The sample should be a *contiguous run* of the column so that
/// the delta analysis is meaningful.
pub fn analyze<V: Value>(sample: &[V], opts: &AnalyzeOpts) -> Analysis<V> {
    let sample = &sample[..sample.len().min(opts.sample_size)];
    let w = V::BITS as f64;
    let mut candidates: Vec<Candidate<V>> = Vec::new();
    if sample.is_empty() {
        return Analysis { candidates, plain_bits_per_value: w };
    }
    let amortize = if opts.amortize_over == 0 { sample.len() } else { opts.amortize_over };

    // --- PFOR ---
    let mut hist = runs_of(sample.to_vec());
    for (base, b, e) in pfor_widths(&hist) {
        let e_eff = effective_exception_rate(e, b);
        let bits = b as f64 + e_eff * w + ENTRY_BITS_PER_VALUE;
        candidates.push(Candidate {
            plan: Plan::Pfor { base, b },
            est_bits_per_value: bits,
            est_exception_rate: e_eff,
        });
    }

    // --- PFOR-DELTA ---
    // Deltas in original order, seeded with the first value so the seed
    // itself does not distort the distribution.
    if sample.len() >= 2 {
        let deltas = sample.windows(2).map(|w| w[1].wrapping_sub_v(w[0])).collect();
        for (dbase, b, e) in pfor_widths(&runs_of(deltas)) {
            let e_eff = effective_exception_rate(e, b);
            // Delta restarts add one value per block.
            let bits = b as f64 + e_eff * w + ENTRY_BITS_PER_VALUE + w / BLOCK as f64;
            candidates.push(Candidate {
                plan: Plan::PforDelta { delta_base: dbase, b },
                est_bits_per_value: bits,
                est_exception_rate: e_eff,
            });
        }
    }

    // --- PDICT ---
    // The sample's runs are its frequency histogram; most frequent first.
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
    Analysis { candidates, plain_bits_per_value: w }
}

/// Executes a plan against a full column run in an explicit [`Layout`].
pub fn compress_with_plan_in<V: Value>(values: &[V], plan: &Plan<V>, layout: Layout) -> Segment<V> {
    match plan {
        Plan::Pfor { base, b } => pfor::compress_in(values, *base, *b, Default::default(), layout),
        Plan::PforDelta { delta_base, b } => {
            // Seed with the first value so delta[0] = 0 (always codable
            // when delta_base covers 0; otherwise one exception).
            let seed = values.first().copied().unwrap_or_default();
            match layout {
                Layout::Horizontal => pfordelta::compress(values, seed, *delta_base, *b),
                // The plan's (delta_base, b) describe stride-1 deltas;
                // vertical DELTA codes stride-4 lane deltas, so the width
                // is re-derived from that distribution.
                Layout::Vertical => pfordelta::compress_vertical(values, seed),
            }
        }
        Plan::Pdict { entries, b } => {
            let dict = Dictionary::new(entries.clone());
            pdict::compress_in(values, &dict, *b, Default::default(), layout)
        }
    }
}

/// Executes a plan against a full column run in the vertical layout, the
/// only one the automatic write path produces ([`compress_with_plan_in`]
/// still writes horizontal on request).
pub fn compress_with_plan<V: Value>(values: &[V], plan: &Plan<V>) -> Segment<V> {
    compress_with_plan_in(values, plan, Layout::Vertical)
}

/// Wrinkle for PFOR-DELTA plans: the seed used by [`compress_with_plan`]
/// is the first value of the run, which fine-grained consumers must know.
/// This helper returns it.
pub fn plan_seed<V: Value>(values: &[V], plan: &Plan<V>) -> V {
    match plan {
        Plan::PforDelta { .. } => values.first().copied().unwrap_or_default(),
        _ => V::default(),
    }
}

/// Analyzes (a sample of) `values` and compresses with the best plan.
/// Returns `None` when no scheme is expected to beat plain storage.
pub fn compress_auto<V: Value>(values: &[V]) -> Option<(Segment<V>, Plan<V>)> {
    let analysis = analyze(values, &AnalyzeOpts::default());
    if !analysis.worthwhile() {
        crate::telemetry::record_analyze(false);
        return None;
    }
    crate::telemetry::record_analyze(true);
    let plan = analysis.best()?.plan.clone();
    Some((compress_with_plan(values, &plan), plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_bits_finds_longest_window() {
        let sorted = vec![1u32, 2, 3, 4, 100, 101, 102, 103, 104, 105];
        // b=3: window span < 8. Best is 100..=105 (6 values).
        assert_eq!(pfor_analyze_bits(&sorted, 3), (4, 6));
        // b=7: span < 128 covers everything.
        assert_eq!(pfor_analyze_bits(&sorted, 7), (0, 10));
    }

    #[test]
    fn effective_rate_model() {
        assert_eq!(effective_exception_rate(0.0, 1), 0.0);
        assert_eq!(effective_exception_rate(0.1, 8), 0.1);
        // b=1, E=0.1: compulsories dominate.
        let e = effective_exception_rate(0.1, 1);
        assert!(e > 0.4 && e <= 0.5, "got {e}");
        // Larger widths shrink the compulsory term.
        assert!(effective_exception_rate(0.1, 4) < effective_exception_rate(0.1, 2));
    }

    #[test]
    fn clustered_data_prefers_pfor() {
        // Pseudo-random values in a narrow window: deltas are wide, so
        // PFOR-DELTA cannot win; frequencies are flat, so PDICT gains
        // nothing over PFOR.
        let mut x = 1u32;
        let values: Vec<u32> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                5000 + (x >> 16) % 256
            })
            .collect();
        let a = analyze(&values, &AnalyzeOpts::default());
        let best = a.best().unwrap();
        assert!(a.worthwhile());
        assert!(matches!(best.plan, Plan::Pfor { .. }), "got {}", best.plan.name());
        assert!(best.est_bits_per_value < 10.0);
    }

    #[test]
    fn monotone_data_prefers_delta() {
        let values: Vec<u32> = (0..10_000u32).map(|i| i * 1000).collect();
        let a = analyze(&values, &AnalyzeOpts::default());
        assert!(matches!(a.best().unwrap().plan, Plan::PforDelta { .. }));
    }

    #[test]
    fn skewed_frequencies_prefer_pdict() {
        // Two hot values scattered over a huge domain.
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| if i % 2 == 0 { 123_456_789_000 } else { 987_654_321_000 })
            .collect();
        let a = analyze(&values, &AnalyzeOpts::default());
        let best = a.best().unwrap();
        assert!(matches!(best.plan, Plan::Pdict { .. }), "got {:?}", best.plan.name());
        assert!(best.est_bits_per_value < 3.0);
    }

    #[test]
    fn auto_roundtrips_and_predicts_size() {
        let values: Vec<u32> =
            (0..20_000).map(|i| if i % 101 == 0 { i * 7919 } else { 300 + i % 64 }).collect();
        let (seg, plan) = compress_auto(&values).expect("compressible");
        assert_eq!(seg.decompress(), values);
        // Realized size should be in the ballpark of the estimate.
        let est = analyze(&values, &AnalyzeOpts::default())
            .candidates
            .iter()
            .find(|c| c.plan == plan)
            .unwrap()
            .est_bits_per_value;
        let real = seg.stats().bits_per_value;
        assert!((real - est).abs() < 4.0, "est {est:.2} vs real {real:.2}");
    }

    #[test]
    fn incompressible_data_returns_none() {
        // Full-width pseudo-random u32s: nothing to gain.
        let mut x = 0x12345678u32;
        let values: Vec<u32> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        assert!(compress_auto(&values).is_none());
    }

    #[test]
    fn empty_sample() {
        let a = analyze::<u32>(&[], &AnalyzeOpts::default());
        assert!(a.best().is_none());
        assert!(!a.worthwhile());
    }

    #[test]
    fn constant_column_is_nearly_free() {
        let values = vec![9u32; 50_000];
        let (seg, _) = compress_auto(&values).unwrap();
        assert!(seg.stats().bits_per_value < 1.0);
        assert_eq!(seg.decompress(), values);
    }
}
