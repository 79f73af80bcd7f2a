//! Cooperative cancellation for long-running compilations.
//!
//! A [`CancelToken`] is a cheaply cloneable handle shared between a
//! compilation and whoever may want to abandon it (a serving layer, a
//! user-facing Ctrl-C handler). Cancellation is *cooperative*: the pipeline
//! polls the token at every pass boundary (see
//! [`PassManager::run`](crate::pass::PassManager::run)), once per stage-2
//! greedy epoch, inside the ordering loop and between deepening rounds, and
//! a fired token ends the compile at its next poll with
//! [`PhoenixError::Cancelled`](crate::PhoenixError::Cancelled) — no state
//! is ever observed half-rewritten. A token never transitions back to live.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, lock-free cancellation flag polled by the pipeline.
///
/// Clones share state: cancelling any clone cancels them all. Equality is
/// *identity* (two tokens are equal iff they share state), which keeps
/// [`PhoenixOptions`](crate::PhoenixOptions)'s derived `PartialEq`
/// meaningful without making cancellation state part of option equality.
///
/// ```
/// use phoenix_core::cancel::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!token.is_cancelled());
/// watcher.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Later calls are no-ops.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.fired, &other.fired)
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }
}
