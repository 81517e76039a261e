//! Volcano-style vector-at-a-time operators.

use crate::batch::Batch;
use crate::explain::{ExplainNode, OpProfile};
use scc_core::Error;

pub mod aggregate;
pub mod exchange;
pub mod join;
pub mod merge_join;
pub mod project;
pub mod select;
pub mod sort;
pub mod source;

/// A vectorized Volcano operator: pulls yield a [`Batch`] of tuples
/// (typically [`crate::VECTOR_SIZE`] rows) or `None` at end of stream.
///
/// [`try_next`](Operator::try_next) is the required method: operators that
/// read storage surface corruption and I/O failures as [`Error`] instead
/// of panicking, and every relational operator propagates its child's
/// errors, so a checksum mismatch deep in a scan travels intact to the
/// root of the pipeline. [`next`](Operator::next) is the infallible
/// convenience wrapper used by bench kernels and trusted in-memory
/// pipelines; it panics with the error's message.
pub trait Operator {
    /// Pulls the next vector of tuples, or the first error raised beneath
    /// this operator.
    fn try_next(&mut self) -> Result<Option<Batch>, Error>;

    /// Infallible [`try_next`](Operator::try_next); panics on error.
    fn next(&mut self) -> Option<Batch> {
        self.try_next().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Short human-readable description for EXPLAIN output, e.g.
    /// `HashAggregate(keys=2, aggs=8)`.
    fn label(&self) -> String {
        "Operator".into()
    }

    /// This operator's execution counters so far. The default (for
    /// operators that predate instrumentation or don't track one)
    /// reports an empty profile.
    fn profile(&self) -> OpProfile {
        OpProfile::default()
    }

    /// The EXPLAIN ANALYZE tree rooted at this operator, reflecting
    /// execution so far. Call after draining the plan for a complete
    /// picture.
    fn explain(&self) -> ExplainNode {
        ExplainNode::leaf(self.label(), self.profile())
    }
}

impl<T: Operator + ?Sized> Operator for Box<T> {
    fn try_next(&mut self) -> Result<Option<Batch>, Error> {
        (**self).try_next()
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn profile(&self) -> OpProfile {
        (**self).profile()
    }

    fn explain(&self) -> ExplainNode {
        (**self).explain()
    }
}

/// Drains an operator into a single materialized batch (test/report
/// helper, not a pipeline stage); panics on pipeline errors.
pub fn collect(op: &mut dyn Operator) -> Batch {
    try_collect(op).unwrap_or_else(|e| panic!("{e}"))
}

/// Drains an operator into a single materialized batch, stopping at the
/// first error raised anywhere in the pipeline.
pub fn try_collect(op: &mut dyn Operator) -> Result<Batch, Error> {
    let mut out: Option<Batch> = None;
    while let Some(batch) = op.try_next()? {
        match &mut out {
            None => out = Some(batch),
            Some(acc) => {
                for (a, b) in acc.columns.iter_mut().zip(batch.columns.iter()) {
                    a.append(b);
                }
            }
        }
    }
    Ok(out.unwrap_or_else(|| Batch::new(vec![])))
}
