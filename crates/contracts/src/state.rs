//! The state-access interface contracts execute against.

use std::collections::HashMap;
use std::fmt;
use tb_types::{ExecOutcome, Key, Value};

/// Errors surfaced to a running contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The concurrency control decided to abort the transaction (e.g. it was
    /// invalidated by a conflicting writer). The executor must stop and
    /// re-execute the transaction from scratch.
    Aborted {
        /// Human-readable reason, for diagnostics.
        reason: String,
    },
    /// The contract program is malformed (bad opcode, stack underflow, out of
    /// gas, ...). Such transactions commit as no-ops with
    /// `logically_aborted = true` so that the client still gets a response.
    InvalidProgram {
        /// Description of the defect.
        reason: String,
    },
}

impl ExecError {
    /// Convenience constructor for concurrency-control aborts.
    pub fn aborted(reason: impl Into<String>) -> Self {
        ExecError::Aborted {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for program errors.
    pub fn invalid(reason: impl Into<String>) -> Self {
        ExecError::InvalidProgram {
            reason: reason.into(),
        }
    }

    /// True if the error is a concurrency-control abort (i.e. the transaction
    /// should be retried).
    pub fn is_abort(&self) -> bool {
        matches!(self, ExecError::Aborted { .. })
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Aborted { reason } => write!(f, "transaction aborted: {reason}"),
            ExecError::InvalidProgram { reason } => write!(f, "invalid program: {reason}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a successful contract call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallResult {
    /// Value returned to the client (e.g. the queried balance).
    pub return_value: Value,
    /// True if the contract's own logic rejected the call (e.g. insufficient
    /// funds). The transaction still commits — as a no-op if it performed no
    /// writes — so the client receives a deterministic response.
    pub logically_aborted: bool,
}

impl CallResult {
    /// A successful call returning `value`.
    pub fn ok(value: Value) -> Self {
        CallResult {
            return_value: value,
            logically_aborted: false,
        }
    }

    /// A call rejected by contract logic.
    pub fn rejected() -> Self {
        CallResult {
            return_value: Value::None,
            logically_aborted: true,
        }
    }
}

/// The interface a running contract uses to touch state.
///
/// Implementations decide *which* value a read observes (committed state,
/// uncommitted values of other transactions in the concurrent executor,
/// snapshot values in OCC, ...) and may abort the transaction at any
/// operation by returning [`ExecError::Aborted`].
pub trait StateAccess {
    /// Reads the current value of `key`.
    fn read(&mut self, key: Key) -> Result<Value, ExecError>;

    /// Writes `value` to `key`.
    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError>;
}

impl<S: StateAccess + ?Sized> StateAccess for &mut S {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        (**self).read(key)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        (**self).write(key, value)
    }
}

/// A simple map-backed [`StateAccess`] used by unit tests, examples and the
/// deterministic re-execution paths (validation, cross-shard execution).
///
/// Reads fall back to a base lookup function when the key has not been
/// written locally, so the same type serves both "fresh state" tests and
/// "overlay on committed storage" execution.
pub struct MapState<'a> {
    local: HashMap<Key, Value>,
    base: Box<dyn Fn(&Key) -> Value + 'a>,
}

impl fmt::Debug for MapState<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapState")
            .field("local_keys", &self.local.len())
            .finish()
    }
}

impl Default for MapState<'static> {
    fn default() -> Self {
        Self::new()
    }
}

impl MapState<'static> {
    /// Creates an empty state (all keys read as [`Value::None`]).
    pub fn new() -> Self {
        MapState {
            local: HashMap::new(),
            base: Box::new(|_| Value::None),
        }
    }

    /// Creates a state seeded with the given entries.
    pub fn with_entries(entries: impl IntoIterator<Item = (Key, Value)>) -> Self {
        let mut s = Self::new();
        for (k, v) in entries {
            s.local.insert(k, v);
        }
        s
    }
}

impl<'a> MapState<'a> {
    /// Creates an overlay over a base lookup (typically committed storage).
    pub fn over(base: impl Fn(&Key) -> Value + 'a) -> Self {
        MapState {
            local: HashMap::new(),
            base: Box::new(base),
        }
    }

    /// Reads without recording, used by assertions in tests.
    pub fn peek(&self, key: &Key) -> Value {
        self.local
            .get(key)
            .cloned()
            .unwrap_or_else(|| (self.base)(key))
    }
}

impl StateAccess for MapState<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        Ok(self.peek(&key))
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        self.local.insert(key, value);
        Ok(())
    }
}

/// Wraps any [`StateAccess`] and records the read/write sets into an
/// [`ExecOutcome`] (first read / last write per key, in execution order):
/// the reads a shard proposer ships in its block, and the writes it applies.
pub struct TrackingState<S> {
    inner: S,
    outcome: ExecOutcome,
}

impl<S: StateAccess> TrackingState<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TrackingState {
            inner,
            outcome: ExecOutcome::default(),
        }
    }

    /// Returns the recorded outcome and the inner state.
    pub fn finish(self) -> (ExecOutcome, S) {
        (self.outcome, self.inner)
    }
}

impl<S: StateAccess> StateAccess for TrackingState<S> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        let value = self.inner.read(key)?;
        // Record the first read of the key only when the transaction has not
        // itself overwritten it — a read-after-own-write observes the local
        // value and is not part of the externally visible read set.
        if self.outcome.written_value(&key).is_none() {
            self.outcome.record_read(key, value.clone());
        }
        Ok(value)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        self.inner.write(key, value.clone())?;
        self.outcome.record_write(key, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_state_reads_fall_back_to_base() {
        let mut s = MapState::over(|k| {
            if *k == Key::scratch(1) {
                Value::int(7)
            } else {
                Value::None
            }
        });
        assert_eq!(s.read(Key::scratch(1)).unwrap(), Value::int(7));
        assert_eq!(s.read(Key::scratch(2)).unwrap(), Value::None);
        s.write(Key::scratch(1), Value::int(9)).unwrap();
        assert_eq!(s.read(Key::scratch(1)).unwrap(), Value::int(9));
        assert_eq!(s.local.len(), 1);
    }

    #[test]
    fn with_entries_seeds_local_values() {
        let mut s = MapState::with_entries([(Key::checking(1), Value::int(50))]);
        assert_eq!(s.read(Key::checking(1)).unwrap(), Value::int(50));
        assert_eq!(s.peek(&Key::checking(2)), Value::None);
    }

    #[test]
    fn tracking_records_first_read_and_last_write() {
        let inner = MapState::with_entries([(Key::scratch(1), Value::int(3))]);
        let mut t = TrackingState::new(inner);
        assert_eq!(t.read(Key::scratch(1)).unwrap(), Value::int(3));
        t.write(Key::scratch(1), Value::int(4)).unwrap();
        t.write(Key::scratch(1), Value::int(5)).unwrap();
        // Read-after-own-write is not added to the read set.
        assert_eq!(t.read(Key::scratch(1)).unwrap(), Value::int(5));
        let (outcome, _) = t.finish();
        assert_eq!(
            *outcome.read_set,
            [tb_types::AccessRecord::new(Key::scratch(1), Value::int(3))]
        );
        assert_eq!(
            outcome.written_value(&Key::scratch(1)),
            Some(&Value::int(5))
        );
    }

    #[test]
    fn tracking_skips_read_set_for_keys_written_first() {
        let mut t = TrackingState::new(MapState::new());
        t.write(Key::scratch(2), Value::int(1)).unwrap();
        let _ = t.read(Key::scratch(2)).unwrap();
        let (outcome, _) = t.finish();
        assert!(outcome.read_set.is_empty());
        assert_eq!(outcome.write_set.len(), 1);
    }

    #[test]
    fn exec_error_helpers() {
        assert!(ExecError::aborted("x").is_abort());
        assert!(!ExecError::invalid("y").is_abort());
        assert_eq!(
            ExecError::aborted("conflict").to_string(),
            "transaction aborted: conflict"
        );
        assert_eq!(
            ExecError::invalid("bad op").to_string(),
            "invalid program: bad op"
        );
    }

    #[test]
    fn call_result_constructors() {
        assert_eq!(CallResult::ok(Value::int(1)).return_value, Value::int(1));
        assert!(CallResult::rejected().logically_aborted);
    }
}
