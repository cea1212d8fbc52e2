//! Error type for the predicate framework's query paths.
//!
//! Predicate plans are constructed in `build()` against catalogs the same
//! constructor registers, so at query time they are infallible *by
//! construction* — but "by construction" is an argument, not a guarantee the
//! type system sees. Every predicate therefore exposes the fallible
//! [`Predicate::try_rank`](crate::Predicate::try_rank) returning this error,
//! and the infallible [`Predicate::rank`](crate::Predicate::rank) wrapper
//! documents where the panic would come from if the argument were ever
//! violated.

use std::fmt;

/// Errors surfaced by predicate query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DaspError {
    /// The relational engine rejected a plan (unknown table/column, missing
    /// index, unbound parameter, arithmetic failure, ...).
    Engine(relq::RelqError),
    /// A result table did not have the `(tid, score)` shape the ranking
    /// conversion expects.
    MalformedResult(String),
    /// A prepared [`Query`](crate::engine::Query) was executed against a
    /// different engine than the one whose corpus tokenized it — its token
    /// ids would resolve against the wrong dictionary.
    EngineMismatch,
    /// The request's execution panicked. The serving layer catches the
    /// unwind at the per-request boundary, so one poisoned request becomes
    /// this typed error on its own slot while the pool and every other slot
    /// keep working. Carries the panic payload when it was a string.
    Panicked(String),
    /// The request was shed by admission control: its queue wait already
    /// exceeded its deadline, so executing it could only produce an answer
    /// the caller had given up on.
    Timeout {
        /// How long the request had already waited when it was claimed.
        waited: std::time::Duration,
        /// The deadline it carried.
        deadline: std::time::Duration,
    },
    /// A threshold request ([`Exec::Threshold`](crate::Exec::Threshold) or
    /// [`Exec::ThresholdScan`](crate::Exec::ThresholdScan)) carried a NaN
    /// τ, which no score compares with.
    NanThreshold,
}

impl fmt::Display for DaspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaspError::Engine(e) => write!(f, "engine error: {e}"),
            DaspError::MalformedResult(m) => write!(f, "malformed result table: {m}"),
            DaspError::EngineMismatch => {
                write!(f, "query was prepared against a different engine's corpus")
            }
            DaspError::Panicked(payload) => {
                write!(f, "request execution panicked: {payload}")
            }
            DaspError::Timeout { waited, deadline } => {
                write!(
                    f,
                    "request shed by admission control: waited {waited:?} past its {deadline:?} deadline"
                )
            }
            DaspError::NanThreshold => write!(f, "threshold request with a NaN τ"),
        }
    }
}

impl std::error::Error for DaspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaspError::Engine(e) => Some(e),
            DaspError::MalformedResult(_)
            | DaspError::EngineMismatch
            | DaspError::Panicked(_)
            | DaspError::Timeout { .. }
            | DaspError::NanThreshold => None,
        }
    }
}

impl From<relq::RelqError> for DaspError {
    fn from(e: relq::RelqError) -> Self {
        DaspError::Engine(e)
    }
}

/// Convenience alias for predicate query paths.
pub type Result<T> = std::result::Result<T, DaspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: DaspError = relq::RelqError::UnknownTable("t".to_string()).into();
        assert!(e.to_string().contains("t"));
        assert!(std::error::Error::source(&e).is_some());
        let e = DaspError::MalformedResult("no score column".to_string());
        assert!(e.to_string().contains("no score column"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
