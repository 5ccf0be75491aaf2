//! [`DsmError`]: what the DSM reports when the fabric stays broken.
//!
//! Transient verb failures are absorbed by the retry machinery and are
//! invisible to programs (beyond virtual time and the `verb_retries`
//! counter). Only an *exhausted* retry budget surfaces, as a `DsmError`
//! from the `try_*` flavor of whichever public operation was underway; the
//! panicking flavors translate it into an abort with the same message.

use rma::{RetryExhausted, VerbClass, VerbError};
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
}

impl DsmError {
    pub(crate) fn new(e: RetryExhausted, node: u16, target: u16) -> Self {
        DsmError { class: e.class, attempts: e.attempts, last_error: e.last_error, node, target }
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
        };
        let s = e.to_string();
        assert!(s.contains("page_fetch"));
        assert!(s.contains("n2"));
        assert!(s.contains("n0"));
        assert!(s.contains("10 attempts"));
        assert!(s.contains("nic_stall"));
    }
}
