//! A MonetDB/X100-style vectorized query engine (§2.3).
//!
//! Volcano-style operators exchange *vectors* of ~1024 tuples instead of
//! single tuples: each [`Operator::next`] call returns a [`Batch`] whose
//! columns are plain arrays, and all computation happens in tight,
//! branch-light loops over those arrays ("primitives"). Function-call
//! overhead is paid once per vector, and the compiler loop-pipelines the
//! primitives — the properties the paper's compression kernels share.
//!
//! Strings never reach the engine: string columns are dictionary-encoded
//! at the storage layer and predicates on them arrive as code-set
//! predicates (see `scc-storage`), so every vector is numeric.
//!
//! ```
//! use scc_engine::{Batch, ColType, Expr, MemSource, Operator, Select, Project};
//!
//! let ids: Vec<i64> = (0..10_000).collect();
//! let vals: Vec<i64> = (0..10_000).map(|i| i * 3).collect();
//! let source = MemSource::from_i64(vec![ids, vals], 1024);
//! let filtered = Select::new(Box::new(source), Expr::col(1).ge(Expr::lit_i64(15_000)));
//! let mut proj = Project::new(
//!     Box::new(filtered),
//!     vec![Expr::col(0), Expr::col(1).mul(Expr::lit_i64(2))],
//! );
//! let mut rows = 0;
//! while let Some(batch) = proj.next() {
//!     rows += batch.len();
//! }
//! assert_eq!(rows, 5_000);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod explain;
pub mod expr;
pub mod ops;

pub use batch::{Batch, ColType, Vector};
pub use explain::{ExplainNode, OpProfile};
pub use expr::Expr;
pub use ops::aggregate::{AggExpr, HashAggregate};
pub use ops::exchange::{Exchange, Partition};
pub use ops::join::{HashJoin, JoinKind};
pub use ops::merge_join::MergeJoin;
pub use ops::project::Project;
pub use ops::select::Select;
pub use ops::sort::{OrderBy, SortKey, TopN};
pub use ops::source::MemSource;
pub use ops::Operator;

/// Default vector length ("a few hundreds of tuples" per the paper; 1024
/// keeps per-vector state comfortably inside L1/L2).
pub const VECTOR_SIZE: usize = 1024;
