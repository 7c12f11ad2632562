//! Smart-contract execution for the Thunderbolt reproduction.
//!
//! The paper assumes Turing-complete contracts whose read/write sets are
//! unknown before execution (Section 3.1). This crate provides:
//!
//! * [`StateAccess`] — the narrow interface a running contract uses to read
//!   and write state. Every concurrency control in `tb-executor` (the
//!   concurrent executor, OCC, 2PL-No-Wait, serial execution and the
//!   post-consensus validator) implements it, so the *same* contract code is
//!   executed on every path, exactly like re-executing a block during
//!   validation.
//! * The native [SmallBank](smallbank) procedures used by the evaluation
//!   workload.
//! * A small stack-machine [interpreter] whose programs compute
//!   the keys they access at run time — the property that makes read/write
//!   set pre-declaration impossible.
//! * [`execute_call`] — the dispatcher turning a
//!   [`tb_types::ContractCall`] into reads/writes against a [`StateAccess`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interpreter;
pub mod runner;
pub mod smallbank;
pub mod state;

pub use interpreter::{Instr, Program, ProgramBuilder};
pub use runner::{execute_call, execute_ops};
pub use smallbank::SMALLBANK_DEFAULT_BALANCE;
pub use state::{CallResult, ExecError, MapState, StateAccess, TrackingState};
