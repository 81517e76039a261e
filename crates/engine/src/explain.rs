//! Per-operator execution profiles and EXPLAIN ANALYZE trees.
//!
//! Every [`Operator`](crate::ops::Operator) keeps an [`OpProfile`] —
//! calls, vectors produced, rows produced, and (when
//! [`scc_obs::enabled()`] telemetry is on) inclusive wall time — and
//! can describe itself *after execution* as an [`ExplainNode`] tree.
//! The `scc explain` CLI subcommand renders that tree in the style of
//! `EXPLAIN ANALYZE`.
//!
//! Vector/row counts are plain integer adds and are always maintained;
//! the wall clock is only read when telemetry is enabled, so pipelines
//! in benches pay nothing for the instrumentation by default.

use std::fmt;

/// Execution counters for one operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// `try_next` invocations (including the final `None`).
    pub calls: u64,
    /// Non-empty batches produced.
    pub vectors: u64,
    /// Total rows produced.
    pub rows: u64,
    /// Inclusive wall time spent in `try_next` (self + children), in
    /// nanoseconds. Zero unless telemetry was enabled during the run.
    pub wall_ns: u64,
    /// Values this operator decoded from compressed columns (full
    /// materializations plus block-granular survivor gathers).
    pub values_decoded: u64,
    /// Values this operator consumed *without* decoding: answered in
    /// code space by a compressed-domain predicate, or pruned before
    /// materialization. Only a filter fused into a scan books any.
    pub values_skipped: u64,
}

impl OpProfile {
    /// Folds one `try_next` outcome into the profile. `start` is the
    /// probe from [`scc_obs::clock()`] taken before the call body
    /// (`None` when telemetry is disabled).
    #[inline]
    pub fn record<E>(
        &mut self,
        start: Option<std::time::Instant>,
        result: &Result<Option<crate::batch::Batch>, E>,
    ) {
        self.record_rows(start, result.as_ref().ok().and_then(|b| b.as_ref().map(|b| b.len())));
    }

    /// [`Self::record`] for a call that produced `rows` rows (`None`:
    /// end of stream, or an error).
    #[inline]
    pub fn record_rows(&mut self, start: Option<std::time::Instant>, rows: Option<usize>) {
        self.calls += 1;
        if let Some(t) = start {
            self.wall_ns += scc_obs::elapsed_ns(t);
        }
        if let Some(rows) = rows {
            self.vectors += 1;
            self.rows += rows as u64;
        }
    }

    /// Sums two profiles (a plan that runs in phases, or in fragments on
    /// several threads).
    pub fn merge(&mut self, other: &OpProfile) {
        self.calls += other.calls;
        self.vectors += other.vectors;
        self.rows += other.rows;
        self.wall_ns += other.wall_ns;
        self.values_decoded += other.values_decoded;
        self.values_skipped += other.values_skipped;
    }
}

/// One node of an EXPLAIN ANALYZE tree: an operator label, its
/// profile, and its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Operator description, e.g. `HashAggregate(keys=2, aggs=8)`.
    pub label: String,
    /// The operator's execution counters.
    pub profile: OpProfile,
    /// Input operators (build/right side last).
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// A node with children.
    pub fn new(label: impl Into<String>, profile: OpProfile, children: Vec<ExplainNode>) -> Self {
        Self { label: label.into(), profile, children }
    }

    /// A node without children.
    pub fn leaf(label: impl Into<String>, profile: OpProfile) -> Self {
        Self::new(label, profile, Vec::new())
    }

    /// Groups the root trees of a multi-phase plan (e.g. TPC-H Q15
    /// materializes a view, then runs a second pipeline over it) under
    /// one synthetic parent. The parent carries no profile of its own
    /// and renders without counters.
    pub fn phases(label: impl Into<String>, phases: Vec<ExplainNode>) -> Self {
        Self::new(label, OpProfile::default(), phases)
    }

    /// Sums another run of the same plan shape into this tree, node by
    /// node (the exchange folds its workers' fragment trees this way).
    pub fn merge(&mut self, other: &ExplainNode) {
        self.profile.merge(&other.profile);
        for (mine, theirs) in self.children.iter_mut().zip(&other.children) {
            mine.merge(theirs);
        }
    }

    /// Compressed-domain accounting summed over the whole subtree:
    /// `(values_decoded, values_skipped)`. Skipped values were consumed
    /// without ever being decompressed — answered in code space by a
    /// pushed-down predicate or pruned before materialization.
    pub fn values_totals(&self) -> (u64, u64) {
        self.children.iter().fold(
            (self.profile.values_decoded, self.profile.values_skipped),
            |(d, s), c| {
                let (cd, cs) = c.values_totals();
                (d + cd, s + cs)
            },
        )
    }

    /// Wall time excluding children, in nanoseconds.
    pub fn self_ns(&self) -> u64 {
        self.profile.wall_ns.saturating_sub(self.children.iter().map(|c| c.profile.wall_ns).sum())
    }

    /// Full EXPLAIN ANALYZE rendering: one line per operator with
    /// rows, vectors, calls, inclusive (`total`) and exclusive
    /// (`self`) wall time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", "", true);
        out
    }

    /// Deterministic rendering for golden tests: the tree shape,
    /// labels, rows and vectors — no wall times.
    pub fn render_structure(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", "", false);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, branch: &str, timed: bool) {
        use fmt::Write as _;
        let _ = write!(out, "{prefix}{branch}{}", self.label);
        if self.profile.calls > 0 {
            let _ = write!(out, "  rows={} vectors={}", self.profile.rows, self.profile.vectors);
            if timed {
                let _ = write!(
                    out,
                    " calls={} total={} self={}",
                    self.profile.calls,
                    fmt_ns(self.profile.wall_ns),
                    fmt_ns(self.self_ns())
                );
                // Compressed-domain accounting, shown only where a scan
                // decoded or filtered codes (and only in the timed rendering,
                // so structure goldens stay stable).
                if self.profile.values_decoded + self.profile.values_skipped > 0 {
                    let _ = write!(
                        out,
                        " values_decoded={} values_skipped={}",
                        self.profile.values_decoded, self.profile.values_skipped
                    );
                }
            }
        }
        out.push('\n');
        let child_prefix = if branch.is_empty() {
            prefix.to_string()
        } else if branch.starts_with("├") {
            format!("{prefix}│  ")
        } else {
            format!("{prefix}   ")
        };
        for (i, child) in self.children.iter().enumerate() {
            let last = i + 1 == self.children.len();
            child.render_into(out, &child_prefix, if last { "└─ " } else { "├─ " }, timed);
        }
    }
}

/// Human-scale duration formatting (`842ns`, `13.4µs`, `2.1ms`, `1.35s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(rows: u64, vectors: u64, wall_ns: u64) -> OpProfile {
        OpProfile { calls: vectors + 1, vectors, rows, wall_ns, ..Default::default() }
    }

    #[test]
    fn decode_counters_render_only_when_timed_and_nonzero() {
        let mut p = profile(10, 1, 500);
        let node = ExplainNode::leaf("Select", p);
        assert!(!node.render().contains("values_decoded"), "zero counters stay hidden");
        p.values_decoded = 256;
        p.values_skipped = 768;
        let node = ExplainNode::leaf("Select", p);
        assert!(node.render().contains(" values_decoded=256 values_skipped=768"));
        // The structure rendering (golden-test surface) never shows them.
        assert!(!node.render_structure().contains("values_decoded"));
        // merge folds them like the other counters.
        let mut acc = OpProfile::default();
        acc.merge(&p);
        acc.merge(&p);
        assert_eq!((acc.values_decoded, acc.values_skipped), (512, 1536));
    }

    #[test]
    fn self_time_subtracts_children() {
        let child = ExplainNode::leaf("Scan", profile(100, 1, 700));
        let root = ExplainNode::new("Select", profile(10, 1, 1000), vec![child]);
        assert_eq!(root.self_ns(), 300);
        // Never underflows even if children over-report.
        let child = ExplainNode::leaf("Scan", profile(100, 1, 2000));
        let root = ExplainNode::new("Select", profile(10, 1, 1000), vec![child]);
        assert_eq!(root.self_ns(), 0);
    }

    #[test]
    fn structure_rendering_is_deterministic() {
        let tree = ExplainNode::new(
            "HashJoin(Inner, keys=1)",
            profile(5, 1, 10),
            vec![
                ExplainNode::new(
                    "Select",
                    profile(8, 2, 5),
                    vec![ExplainNode::leaf("Scan(t1)", profile(20, 2, 3))],
                ),
                ExplainNode::leaf("Scan(t2)", profile(4, 1, 2)),
            ],
        );
        let expected = "\
HashJoin(Inner, keys=1)  rows=5 vectors=1
├─ Select  rows=8 vectors=2
│  └─ Scan(t1)  rows=20 vectors=2
└─ Scan(t2)  rows=4 vectors=1
";
        assert_eq!(tree.render_structure(), expected);
    }

    #[test]
    fn phase_nodes_render_without_counters() {
        let tree = ExplainNode::phases(
            "Q15 (2 phases)",
            vec![
                ExplainNode::leaf("HashAggregate(keys=1, aggs=1)", profile(3, 1, 10)),
                ExplainNode::leaf("OrderBy(keys=1)", profile(1, 1, 10)),
            ],
        );
        let text = tree.render_structure();
        assert!(text.starts_with("Q15 (2 phases)\n"), "{text}");
        assert!(text.contains("├─ HashAggregate"));
        assert!(text.contains("└─ OrderBy"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(842), "842ns");
        assert_eq!(fmt_ns(13_400), "13.4µs");
        assert_eq!(fmt_ns(2_100_000), "2.1ms");
        assert_eq!(fmt_ns(1_350_000_000), "1.35s");
    }
}
