//! [`DsmError`]: what the DSM reports when the fabric stays broken.
//!
//! Transient verb failures are absorbed by the retry machinery and are
//! invisible to programs (beyond virtual time and the `verb_retries`
//! counter). Only an *exhausted* retry budget surfaces, as a `DsmError`
//! from the `try_*` flavor of whichever public operation was underway; the
//! panicking flavors translate it into an abort with the same message.

use rma::{RetryExhausted, SpanId, VerbClass, VerbError};
use std::fmt;

/// A remote verb kept failing until its retry budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmError {
    /// Which protocol verb class gave up.
    pub class: VerbClass,
    /// Verb issues attempted (the class budget).
    pub attempts: u32,
    /// The failure observed on the final attempt.
    pub last_error: VerbError,
    /// Node that was issuing the verb.
    pub node: u16,
    /// Node the verb targeted.
    pub target: u16,
    /// The Lyra span the failing verb ran under ([`SpanId::NONE`] when the
    /// failure happened outside a traced verb). Volans failover records its
    /// epoch bump under this span, so the trace draws a flow arrow from the
    /// exhausted verb to the membership change it triggered.
    pub span: SpanId,
}

impl DsmError {
    pub(crate) fn new(e: RetryExhausted, node: u16, target: u16, span: SpanId) -> Self {
        DsmError {
            class: e.class,
            attempts: e.attempts,
            last_error: e.last_error,
            node,
            target,
            span,
        }
    }

    /// The fail-fast error for a route known dead before any verb is
    /// issued (`attempts: 0`): `target` left the membership, or the page
    /// was re-homed away from it under the accessor. Volans' failover
    /// retry absorbs it by re-running the operation against the new home.
    pub(crate) fn departed(class: VerbClass, node: u16, target: u16, span: SpanId) -> Self {
        DsmError { class, attempts: 0, last_error: VerbError::Departed, node, target, span }
    }
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} verb from n{} to n{} failed after {} attempts (last error: {})",
            self.class, self.node, self.target, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for DsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_route_and_class() {
        let e = DsmError {
            class: VerbClass::PageFetch,
            attempts: 10,
            last_error: VerbError::NicStall,
            node: 2,
            target: 0,
            span: SpanId::NONE,
        };
        let s = e.to_string();
        assert!(s.contains("page_fetch"));
        assert!(s.contains("n2"));
        assert!(s.contains("n0"));
        assert!(s.contains("10 attempts"));
        assert!(s.contains("nic_stall"));
    }
}
