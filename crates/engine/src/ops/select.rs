//! Selection: filters rows by a mask-valued expression and compacts the
//! survivors into dense output vectors.
//!
//! A filter directly over a table scan is fused into the scan instead
//! (`scc-storage`'s `Scan::into_plan`), where it can test packed codes;
//! this operator filters decoded values.

use crate::batch::Batch;
use crate::explain::{ExplainNode, OpProfile};
use crate::expr::Expr;
use crate::ops::Operator;

/// Filter operator. Empty result vectors are skipped, so downstream
/// operators always see non-empty batches.
pub struct Select {
    input: Box<dyn Operator>,
    predicate: Expr,
    profile: OpProfile,
}

/// The positions of the set entries of `mask`, ascending.
pub fn selected_rows(mask: &[bool]) -> Vec<usize> {
    // Predicated compaction (§2.2 / Ross PODS'02): always store the
    // index, advance the cursor by the boolean — no data-dependent
    // branch for the CPU to mispredict.
    let mut rows = vec![0usize; mask.len()];
    let mut j = 0usize;
    for (i, &m) in mask.iter().enumerate() {
        rows[j] = i;
        j += m as usize;
    }
    rows.truncate(j);
    rows
}

impl Select {
    /// Builds a filter over `input`.
    pub fn new(input: impl Operator + 'static, predicate: Expr) -> Self {
        Self { input: Box::new(input), predicate, profile: OpProfile::default() }
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        while let Some(batch) = self.input.try_next()? {
            let rows = selected_rows(self.predicate.eval_ref(&batch).as_mask());
            match rows.len() {
                0 => continue,
                n if n == batch.len() => return Ok(Some(batch)),
                _ => return Ok(Some(batch.gather(&rows))),
            }
        }
        Ok(None)
    }
}

impl Operator for Select {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        "Select".into()
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(self.label(), self.profile, vec![self.input.explain()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Vector;
    use crate::ops::{collect, source::MemSource};

    #[test]
    fn filters_and_compacts() {
        let src = MemSource::from_i64(vec![(0..100).collect()], 7);
        let mut sel = Select::new(Box::new(src), Expr::col(0).lt(Expr::lit_i64(10)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &(0..10).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn all_pass_short_circuits() {
        let src = MemSource::from_i64(vec![(0..50).collect()], 50);
        let mut sel = Select::new(Box::new(src), Expr::col(0).ge(Expr::lit_i64(0)));
        assert_eq!(sel.next().unwrap().len(), 50);
    }

    #[test]
    fn none_pass_yields_none() {
        let src = MemSource::from_i64(vec![(0..50).collect()], 8);
        let mut sel = Select::new(Box::new(src), Expr::col(0).lt(Expr::lit_i64(0)));
        assert!(sel.next().is_none());
    }

    #[test]
    fn multi_column_rows_stay_aligned() {
        let src = MemSource::new(
            vec![
                Vector::I64((0..20).collect()),
                Vector::F64((0..20).map(|i| i as f64 * 0.5).collect()),
            ],
            6,
        );
        let mut sel = Select::new(Box::new(src), Expr::col(0).ge(Expr::lit_i64(15)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &[15, 16, 17, 18, 19]);
        assert_eq!(out.col(1).as_f64(), &[7.5, 8.0, 8.5, 9.0, 9.5]);
    }
}
