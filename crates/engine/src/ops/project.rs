//! Projection: computes one output vector per expression.

use crate::batch::Batch;
use crate::explain::{ExplainNode, OpProfile};
use crate::expr::Expr;
use crate::ops::Operator;

/// Map operator: output columns are the given expressions evaluated over
/// each input vector.
pub struct Project {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
    profile: OpProfile,
}

impl Project {
    /// Builds a projection over `input`.
    pub fn new(input: impl Operator + 'static, exprs: Vec<Expr>) -> Self {
        Self { input: Box::new(input), exprs, profile: OpProfile::default() }
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let Some(batch) = self.input.try_next()? else {
            return Ok(None);
        };
        Ok(Some(Batch::new(self.exprs.iter().map(|e| e.eval(&batch)).collect())))
    }
}

impl Operator for Project {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("Project(exprs={})", self.exprs.len())
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
    use crate::ops::{collect, source::MemSource};

    #[test]
    fn computes_expressions() {
        let src = MemSource::from_i64(vec![(1..=4).collect()], 2);
        let mut proj =
            Project::new(Box::new(src), vec![Expr::col(0), Expr::col(0).mul(Expr::col(0))]);
        let out = collect(&mut proj);
        assert_eq!(out.col(0).as_i64(), &[1, 2, 3, 4]);
        assert_eq!(out.col(1).as_i64(), &[1, 4, 9, 16]);
    }

    #[test]
    fn can_drop_and_reorder_columns() {
        let src = MemSource::from_i64(vec![vec![1, 2], vec![10, 20], vec![100, 200]], 8);
        let mut proj = Project::new(Box::new(src), vec![Expr::col(2), Expr::col(0)]);
        let out = collect(&mut proj);
        assert_eq!(out.col(0).as_i64(), &[100, 200]);
        assert_eq!(out.col(1).as_i64(), &[1, 2]);
    }
}
