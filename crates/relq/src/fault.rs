//! A process-global fault-injection hook for the scoring hot paths.
//!
//! Production code never pays more than one relaxed atomic load per site:
//! the hook is behind an [`AtomicBool`] that is only set while a harness
//! (e.g. `dasp_core::fault`) has installed a callback. The callback is a
//! plain `fn` pointer — any state it needs (seeds, rates, counters) lives on
//! the installing side — and it may panic (injected crash) or sleep
//! (injected delay); the call sites sit *between* candidates, so a panic
//! unwinding from one never leaves a partially-scored result behind.
//!
//! Installation is process-global and intended for tests that serialize
//! themselves around it; `set_fault_hook(None)` restores the inert state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HOOK: RwLock<Option<fn(&'static str)>> = RwLock::new(None);

/// Invoke the installed fault hook (if any) at a named site. Inert — one
/// relaxed load — unless a harness has installed a hook.
#[inline]
pub fn fault_point(site: &'static str) {
    if ENABLED.load(Ordering::Relaxed) {
        fire(site);
    }
}

#[cold]
fn fire(site: &'static str) {
    // Recover from poisoning: an injected panic unwinding through a reader
    // cannot poison (readers don't), but be safe against a panicking writer.
    let hook = *HOOK.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hook) = hook {
        hook(site);
    }
}

/// Install (`Some`) or clear (`None`) the process-global fault hook.
pub fn set_fault_hook(hook: Option<fn(&'static str)>) {
    let mut slot = HOOK.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = hook;
    ENABLED.store(hook.is_some(), Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static HITS: AtomicU64 = AtomicU64::new(0);

    fn count(_site: &'static str) {
        HITS.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn hook_fires_only_while_installed() {
        fault_point("relq.test"); // inert: no hook
        assert_eq!(HITS.load(Ordering::SeqCst), 0);
        set_fault_hook(Some(count));
        fault_point("relq.test");
        fault_point("relq.test");
        set_fault_hook(None);
        fault_point("relq.test");
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
    }
}
