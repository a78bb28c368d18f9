//! The unified facade error type.
//!
//! Every fallible facade entry point — [`EngineBuilder::build`],
//! [`Engine::session`], [`Session`] methods, and the one-shot free functions
//! — returns [`Error`], so applications match on **one** enum instead of
//! juggling `cfd_store::StoreError`, `cfd_relation::RelationError` and
//! `cfd_core::CfdError` per call site. The layer-specific errors convert in
//! via `From` and remain inspectable through the corresponding variants (and
//! [`std::error::Error::source`]).
//!
//! [`EngineBuilder::build`]: crate::EngineBuilder::build
//! [`Engine::session`]: crate::Engine::session
//! [`Session`]: crate::Session

use cfd_core::CfdError;
use cfd_relation::RelationError;
use cfd_store::StoreError;
use std::fmt;

/// Convenient result alias for facade operations.
pub type Result<T> = std::result::Result<T, Error>;

/// The single error type of the facade API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Building or reasoning about the rule set failed (pattern arity,
    /// mixed schemas, normalization, …).
    Rules(CfdError),
    /// The rule set is inconsistent: no nonempty instance satisfies it
    /// (Section 3.1). Raised at **builder time**, before any data is
    /// touched — an engine serving such rules would flag every tuple.
    InconsistentRules,
    /// An invalid engine configuration (see
    /// [`EngineConfigBuilder::build`](crate::EngineConfigBuilder::build)
    /// for the validated combinations).
    Config(String),
    /// The session data's schema differs from the schema the rules were
    /// compiled against.
    SchemaMismatch {
        /// Schema name of the compiled rules.
        rules: String,
        /// Schema name of the offered data.
        data: String,
    },
    /// A [`RepairResult`](cfd_repair::RepairResult) was handed to
    /// [`Session::commit_repair`](crate::Session::commit_repair) after the
    /// session's instance had moved on: its row indices describe a snapshot
    /// that no longer exists. Nothing was edited; repair again and commit
    /// the fresh result.
    StaleResult {
        /// The session generation the result was computed against.
        result: u64,
        /// The session's current generation.
        session: u64,
    },
    /// A worker thread executing a request panicked. The panic was
    /// contained (the serving layer's pool catches it) — the session and
    /// every other session of the process remain usable; re-running the
    /// request re-executes the work. In a multi-tenant deployment this is
    /// the variant that keeps one tenant's fault from taking down the
    /// others.
    WorkerPanicked,
    /// An error bubbled up from the relational substrate.
    Relation(RelationError),
    /// An error bubbled up from the disk-backed storage layer (I/O,
    /// corruption, pool exhaustion, stored-schema mismatch).
    Store(StoreError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Rules(e) => write!(f, "rule error: {e}"),
            Error::InconsistentRules => write!(
                f,
                "inconsistent rule set: no nonempty instance satisfies it (Section 3.1)"
            ),
            Error::Config(msg) => write!(f, "invalid engine configuration: {msg}"),
            Error::SchemaMismatch { rules, data } => write!(
                f,
                "schema mismatch: rules compiled for `{rules}`, data is `{data}`"
            ),
            Error::StaleResult { result, session } => write!(
                f,
                "stale repair result: computed against generation {result}, \
                 the session is at generation {session}"
            ),
            Error::WorkerPanicked => {
                write!(f, "a worker thread panicked; the session remains usable")
            }
            Error::Relation(e) => write!(f, "relation error: {e}"),
            Error::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Rules(e) => Some(e),
            Error::Relation(e) => Some(e),
            Error::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CfdError> for Error {
    fn from(e: CfdError) -> Self {
        match e {
            CfdError::Inconsistent => Error::InconsistentRules,
            // A relation error is the same problem wherever it was raised:
            // it always surfaces as `Error::Relation`, never nested inside
            // the rules variant.
            CfdError::Relation(e) => Error::Relation(e),
            other => Error::Rules(other),
        }
    }
}

impl From<RelationError> for Error {
    fn from(e: RelationError) -> Self {
        Error::Relation(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        // A relation error is the same problem wherever it was raised.
        match e {
            StoreError::Relation(e) => Error::Relation(e),
            other => Error::Store(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_sources() {
        let rules: Error = CfdError::EmptyRhs.into();
        assert!(matches!(rules, Error::Rules(_)));
        assert!(rules.to_string().contains("right-hand side"));
        assert!(rules.source().is_some());

        let inconsistent: Error = CfdError::Inconsistent.into();
        assert_eq!(inconsistent, Error::InconsistentRules);
        assert!(inconsistent.to_string().contains("inconsistent"));
        assert!(inconsistent.source().is_none());

        // A relation error surfaces as Error::Relation no matter which
        // layer raised it.
        let via_core: Error = CfdError::Relation(RelationError::Parse("bad".into())).into();
        let direct: Error = RelationError::Parse("bad".into()).into();
        assert_eq!(via_core, direct);
        assert!(matches!(via_core, Error::Relation(_)));

        let rel: Error = RelationError::Parse("bad".into()).into();
        assert!(rel.to_string().contains("bad"));
        assert!(rel.source().is_some());

        let cfg = Error::Config("shards must be > 0".into());
        assert!(cfg.to_string().contains("shards"));

        let mismatch = Error::SchemaMismatch {
            rules: "cust".into(),
            data: "tax".into(),
        };
        assert!(mismatch.to_string().contains("cust"));
        assert!(mismatch.to_string().contains("tax"));

        let stale = Error::StaleResult {
            result: 2,
            session: 5,
        };
        assert!(stale.to_string().contains("generation 2"));
        assert!(stale.to_string().contains("generation 5"));
        assert!(stale.source().is_none());

        let panicked = Error::WorkerPanicked;
        assert!(panicked.to_string().contains("panicked"));
        assert!(panicked.source().is_none());

        let store: Error = StoreError::InvalidOp {
            detail: "bad slot".into(),
        }
        .into();
        assert!(matches!(store, Error::Store(_)));
        assert!(store.to_string().contains("bad slot"));
        assert!(store.source().is_some());

        // A relation error surfaces as Error::Relation even via the store.
        let via_store: Error = StoreError::Relation(RelationError::Parse("bad".into())).into();
        assert!(matches!(via_store, Error::Relation(_)));
    }
}
