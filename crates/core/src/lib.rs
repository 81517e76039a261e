//! # Super-scalar patched compression: PFOR, PFOR-DELTA and PDICT
//!
//! A from-scratch implementation of the compression schemes of
//! *Super-Scalar RAM-CPU Cache Compression* (Zukowski, Héman, Nes and
//! Boncz; ICDE 2006). All three schemes classify input values as *coded*
//! (small `b`-bit integers) or *exceptions* (stored uncompressed), and
//! share the design rules that make them fast on super-scalar CPUs:
//!
//! 1. values are (de)compressed in tight loops over small arrays;
//! 2. no `if-then-else` inside those loops;
//! 3. loop iterations are independent.
//!
//! Instead of escaping exceptions in-band (which forces a branch per
//! value), decompression decodes *everything* branch-free and then
//! *patches* the exceptions in a second loop that walks a linked list
//! threaded through the exception slots — hence the "P" in the names.
//!
//! ## Quick start
//!
//! ```
//! use scc_core::{compress_auto, pfor};
//!
//! // Explicit: PFOR at 8 bits from base 1000.
//! let values: Vec<u32> = (0..10_000).map(|i| 1000 + i % 200).collect();
//! let seg = pfor::compress(&values, 1000, 8);
//! assert_eq!(seg.decompress(), values);
//! assert!(seg.stats().ratio > 3.0);
//!
//! // Automatic: sample, analyze, pick the best scheme.
//! let (seg, plan) = compress_auto(&values).unwrap();
//! assert_eq!(seg.decompress(), values);
//! println!("chose {} at {} bits/value", plan.name(), seg.stats().bits_per_value);
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`pfor`] | §3.1 | Patched frame-of-reference; NAIVE/PRED/DC kernels |
//! | [`pfordelta`] | §3.1 | PFOR on deltas + per-block running-sum restarts |
//! | [`pdict`] | §3.1 | Patched dictionary + encode hash |
//! | [`naive`] | Fig. 4 | Branchy escape-code comparator |
//! | [`patch`] | §3.1 | Linked exception lists, compulsory exceptions |
//! | [`segment`] | Fig. 3 | Segment layout, entry points, fine-grained access |
//! | [`analyze`] | §3.1 | `PFOR_ANALYZE_BITS`, histogram analysis, auto choice |
//! | [`predicate`] | — | Compressed-domain predicates: literal re-encoding, code-space select |
//! | [`wire`] | Fig. 3 | Byte serialization (v2: per-section CRC32C checksums) |
//! | [`crc`] | — | Hand-rolled CRC32C (slicing-by-8) |
//! | [`frame`] | — | Checksummed length-prefixed framing (container + server) |
//! | [`error`] | — | Unified [`Error`] type for the fallible decode path |
//! | [`telemetry`] | — | Per-scheme encode/decode metrics (`scc-obs` registry) |

#![warn(missing_docs)]

pub mod analyze;
pub mod crc;
pub mod error;
pub mod float;
pub mod frame;
pub mod naive;
pub mod patch;
pub mod pdict;
pub mod pfor;
pub mod pfordelta;
pub mod predicate;
pub mod segment;
pub mod telemetry;
pub mod value;
pub mod wire;

pub use analyze::{
    analyze, compress_auto, compress_with_plan, compress_with_plan_in, Analysis, AnalyzeOpts,
    Candidate, Plan,
};
pub use crc::{crc32c, crc32c_append};
pub use error::{ChunkRef, Error};
pub use float::{compress_f64_auto, FloatPlan, FloatSegment};
pub use frame::FrameError;
pub use naive::NaiveSegment;
pub use patch::{EntryPoint, BLOCK, MAX_SEGMENT_VALUES};
pub use pdict::Dictionary;
pub use pfor::CompressKernel;
pub use predicate::{const_outcome, type_literal, CodePredicate, PredOp, TypedLit, ValuePred};
pub use segment::{Layout, SchemeKind, Segment, SegmentStats};
pub use value::Value;
pub use wire::WireError;
