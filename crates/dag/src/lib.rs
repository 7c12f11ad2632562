//! Narwhal/Tusk-style DAG substrate (paper Section 2).
//!
//! The protocol proceeds in rounds. Every round each replica proposes one
//! vertex (a block plus references to at least `2f + 1` certificates of the
//! previous round); once `2f + 1` replicas acknowledge it, the vertex is
//! certified and can be referenced by the next round. A leader vertex is
//! elected every two rounds; it commits once `2f + 1` vertices of the next
//! round exist locally and at least `f + 1` of them reference it. Committing
//! a leader delivers its entire undelivered causal history in a
//! deterministic order, which is identical on every honest replica.
//!
//! # What a commit costs
//!
//! Delivering a leader means walking back from it through parent references
//! ([`DagStore::causal_history`]). The walk never enters a vertex the
//! [`Committer`] has already delivered, and that loses nothing: the delivered
//! set is *closed under ancestry*. It starts empty, and the only thing ever
//! added to it is the result of such a walk — a vertex together with every
//! stored ancestor of it that was not in the set yet — so whenever a vertex
//! is in the set, its whole stored history is too, and nothing undelivered
//! can hide behind a delivered vertex. The walk therefore expands exactly
//! the vertices it delivers, and a commit costs in proportion to the sub-DAG
//! it delivers, not to the depth of the DAG under it. The order within a
//! sub-DAG is `(round, author)`, read from the vertices themselves. The full
//! history is the same walk over an empty set; the tests use it, and a
//! delivery-blind reachability walk, as the reference.
//!
//! Ancestry checks for indirect commits ([`DagStore::is_ancestor`]) are
//! bounded the other way: parents belong to earlier rounds
//! ([`DagStore::insert`] refuses a vertex that references anything else), so
//! a search stops at the ancestor's round instead of running to the first
//! round when the answer is no — which is the answer for every skipped
//! leader.
//!
//! This crate contains the *local* DAG machinery — the store, the commit
//! rule and test builders. Message exchange (broadcasting headers, collecting
//! acknowledgements, fetching missing vertices) lives in the `thunderbolt`
//! crate, which drives these structures over the simulated network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod committer;
pub mod store;

pub use builder::DagBuilder;
pub use committer::{CommittedSubDag, Committer};
pub use store::{DagError, DagStore};
