//! Error and abort types used by the STM.

use std::error::Error;
use std::fmt;

/// The reason a transaction attempt could not commit.
///
/// A value of this type flowing out of a transaction body (via `?`) causes
/// the enclosing [`crate::Stm::run`] loop to retry the transaction, or
/// [`crate::Stm::try_once`] to report failure to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxAbort {
    /// A read observed a location that was locked or modified since the
    /// transaction began.
    ReadConflict,
    /// A write could not acquire the location's ownership record because
    /// another transaction owns it, or the location changed since it was
    /// read.
    WriteConflict,
    /// Commit-time validation of the read set failed.
    ValidationFailed,
    /// The transaction body requested an explicit abort (and retry).
    Explicit,
    /// A read-only attempt tried to write.  [`crate::Stm::run_read_only`]
    /// re-runs the body at once as an ordinary attempt; this cause is
    /// counted as an upgrade, not as an abort.
    Upgrade,
}

impl TxAbort {
    /// Short human-readable label for statistics output.
    pub fn label(self) -> &'static str {
        match self {
            TxAbort::ReadConflict => "read-conflict",
            TxAbort::WriteConflict => "write-conflict",
            TxAbort::ValidationFailed => "validation-failed",
            TxAbort::Explicit => "explicit",
            TxAbort::Upgrade => "read-only-write",
        }
    }
}

impl fmt::Display for TxAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Error for TxAbort {}

/// Result type returned by transactional operations and transaction bodies.
///
/// # Contract
///
/// An `Err(TxAbort)` means the current transaction *attempt* observed an
/// inconsistent snapshot and must not continue.  Bodies must propagate it
/// with `?` — never match on it, log it, or substitute a default — so that
/// the enclosing [`crate::Stm::run`] loop can retry the whole body from the
/// top (or [`crate::Stm::try_once`] can report the failure).  Values read
/// before the abort may be torn relative to each other; discard them.
pub type TxResult<T> = Result<T, TxAbort>;

/// Error returned by [`crate::Stm::try_once`] when the single attempt aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleAttemptFailed {
    /// Why the attempt aborted.
    pub cause: TxAbort,
}

impl fmt::Display for SingleAttemptFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction attempt aborted: {}", self.cause)
    }
}

impl Error for SingleAttemptFailed {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_labels_are_distinct() {
        let labels = [
            TxAbort::ReadConflict.label(),
            TxAbort::WriteConflict.label(),
            TxAbort::ValidationFailed.label(),
            TxAbort::Explicit.label(),
            TxAbort::Upgrade.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(TxAbort::ReadConflict.to_string(), "read-conflict");
        let err = SingleAttemptFailed {
            cause: TxAbort::Explicit,
        };
        assert!(err.to_string().contains("explicit"));
    }
}
