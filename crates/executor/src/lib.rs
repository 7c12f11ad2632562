//! Transaction execution engines for Thunderbolt.
//!
//! This crate implements the paper's **Concurrent Executor** (`CE`,
//! Sections 7–8): executor workers on the shared [`pool`] each speculate one
//! contiguous chunk of a batch, and one serial pass in batch order keeps
//! every outcome whose reads match that order and re-executes the rest, so
//! a block does not depend on the worker count. The CE needs no prior
//! knowledge of read/write sets — they are *outputs* of the preplay, and
//! the block ships the reads for later validation. Unlike the paper's CE it
//! keeps no runtime dependency graph and reschedules nothing
//! (docs/PIPELINE.md).
//!
//! It also implements the evaluation baselines (Section 11.1):
//!
//! * [`occ`] — optimistic concurrency control with a central verifier,
//! * [`two_pl`] — 2PL-No-Wait with a central lock table,
//! * [`serial`] — in-order execution (what Tusk does after consensus),
//!
//! and the post-consensus [`validation`] pass (Section 4), which replays
//! each transaction of a block over the reads it declares, in parallel,
//! derives its writes, and checks the declared reads against the state
//! before it.

// `deny` rather than `forbid`: the worker pool is the single sanctioned
// exception (lifetime erasure for borrowed tasks, like any scoped pool);
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod ce;
pub mod occ;
#[allow(unsafe_code)]
pub mod pool;
pub mod serial;
pub mod traits;
pub mod two_pl;
pub mod validation;

pub use batch::BatchResult;
pub use ce::ConcurrentExecutor;
pub use occ::OccExecutor;
pub use pool::WorkerPool;
pub use serial::SerialExecutor;
pub use traits::{available_cores, effective_workers, BatchExecutor};
pub use two_pl::TwoPlNoWaitExecutor;
pub use validation::{validate_block, validate_blocks, ValidationConfig, ValidationReport};
