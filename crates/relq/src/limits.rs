//! Cooperative execution limits: deadline / candidate budgets threaded into
//! the operators that enumerate scoring candidates.
//!
//! An [`ExecLimits`] is created per *request* and carried by reference
//! through the execution context. The counters are relaxed atomics, so one
//! `ExecLimits` may be shared across threads and across operators: the live
//! and sharded engines thread one through every part of a budgeted request,
//! so the budget bounds the request as a whole, not each part. Operators
//! that score candidates call
//! [`charge_candidate`](ExecLimits::charge_candidate) *before* evaluating
//! each one and stop cleanly when it returns `false`, leaving whatever they
//! have produced so far as the **anytime answer**: every emitted `(tid,
//! score)` pair is fully scored (bit-identical to the exhaustive run's entry
//! for that tid), the budget only truncates *which* candidates were visited.
//!
//! Exhaustion is sticky: once a cap trips, every later charge refuses, so a
//! multi-operator pipeline (or a multi-part execution sharing one
//! `ExecLimits`) stops everywhere without re-checking clocks.
//!
//! Two caps exist:
//!
//! * `max_candidates` — a hard count of scored candidates, checked on every
//!   charge (deterministic under serial execution: a given corpus/query/cap
//!   always visits the same candidate prefix, so partial results are
//!   byte-stable; under concurrent sharing the *total* stays exact — a
//!   compare-exchange loop grants exactly `max` charges — but which worker
//!   wins each slot is scheduling-dependent).
//! * `deadline` — a wall-clock bound. While less than half the deadline has
//!   elapsed it is polled every [`DEADLINE_CHECK_MASK`]+1 charges to keep
//!   `Instant::now` off the per-candidate hot path; once a poll observes the
//!   halfway point, **every** subsequent charge polls, so a request
//!   verifying expensive candidates (edit distance, GES) overshoots its
//!   deadline by at most one in-flight verification — not by 63 of them.
//!   (Inherently nondeterministic in *where* it cuts, but every cut point is
//!   a valid anytime answer.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How often the deadline is polled on the cheap path: on every charge where
/// `candidates & MASK == 0` (so the very first charge always polls — an
/// already-expired deadline stops the operator before any work). Once a poll
/// lands past the deadline's halfway point the mask no longer applies and
/// every charge polls.
const DEADLINE_CHECK_MASK: u64 = 63;

/// Per-request cooperative budget. See the module docs.
#[derive(Debug)]
pub struct ExecLimits {
    start: Instant,
    deadline: Option<Instant>,
    /// The deadline's halfway point: the instant after which the polling
    /// mask is abandoned and every charge checks the clock.
    half_deadline: Option<Instant>,
    max_candidates: Option<u64>,
    candidates: AtomicU64,
    postings: AtomicU64,
    exhausted: AtomicBool,
    /// Sticky flag: a deadline poll has observed `half_deadline` passing.
    past_half: AtomicBool,
}

/// What one limited execution actually did — attached to degraded results so
/// callers can report how far the operator got before the budget cut it off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Candidates that reached the scoring path.
    pub candidates: u64,
    /// Posting entries consumed while scoring them.
    pub postings: u64,
    /// Wall-clock time since the limits were created.
    pub elapsed: Duration,
    /// Whether any cap tripped (the result is a partial, anytime answer).
    pub exhausted: bool,
}

impl ExecLimits {
    /// Start the budget clock now. `deadline` is relative to this call.
    pub fn new(deadline: Option<Duration>, max_candidates: Option<u64>) -> Self {
        let start = Instant::now();
        ExecLimits {
            start,
            deadline: deadline.map(|d| start + d),
            half_deadline: deadline.map(|d| start + d / 2),
            max_candidates,
            candidates: AtomicU64::new(0),
            postings: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
            past_half: AtomicBool::new(false),
        }
    }

    /// A budget with no caps: charges always succeed, only the counters run.
    pub fn unlimited() -> Self {
        Self::new(None, None)
    }

    /// Ask permission to score one more candidate. `true` means go ahead
    /// (and the candidate is counted); `false` means a cap has tripped — the
    /// operator must stop and return what it has. Counted candidates are
    /// exactly the scored ones: a refused charge is not counted, and with a
    /// `max_candidates` cap exactly `max` charges are granted even when the
    /// limits are shared across threads.
    #[inline]
    pub fn charge_candidate(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(deadline) = self.deadline {
            let every = self.past_half.load(Ordering::Relaxed);
            if every || self.candidates.load(Ordering::Relaxed) & DEADLINE_CHECK_MASK == 0 {
                let now = Instant::now();
                if now >= deadline {
                    self.exhausted.store(true, Ordering::Relaxed);
                    return false;
                }
                if !every && self.half_deadline.is_some_and(|half| now >= half) {
                    self.past_half.store(true, Ordering::Relaxed);
                }
            }
        }
        if let Some(max) = self.max_candidates {
            // Compare-exchange so concurrent sharers together get exactly
            // `max` grants — a fetch_add would overcount refused charges.
            let mut n = self.candidates.load(Ordering::Relaxed);
            loop {
                if n >= max {
                    self.exhausted.store(true, Ordering::Relaxed);
                    return false;
                }
                match self.candidates.compare_exchange_weak(
                    n,
                    n + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(current) => n = current,
                }
            }
        } else {
            self.candidates.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Record `n` posting entries consumed (pure accounting, never refuses).
    #[inline]
    pub fn charge_postings(&self, n: u64) {
        self.postings.fetch_add(n, Ordering::Relaxed);
    }

    /// Trip the budget unconditionally (fault injection / forced
    /// degradation). Every later charge refuses.
    pub fn force_exhaust(&self) {
        self.exhausted.store(true, Ordering::Relaxed);
    }

    /// Whether any cap has tripped so far.
    pub fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Snapshot the work counters (see [`ExecReport`]).
    pub fn report(&self) -> ExecReport {
        ExecReport {
            candidates: self.candidates.load(Ordering::Relaxed),
            postings: self.postings.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_grants() {
        let l = ExecLimits::unlimited();
        for _ in 0..10_000 {
            assert!(l.charge_candidate());
        }
        let r = l.report();
        assert_eq!(r.candidates, 10_000);
        assert!(!r.exhausted);
    }

    #[test]
    fn candidate_cap_grants_exactly_max_then_sticks() {
        let l = ExecLimits::new(None, Some(3));
        assert!(l.charge_candidate());
        assert!(l.charge_candidate());
        assert!(l.charge_candidate());
        assert!(!l.charge_candidate());
        assert!(!l.charge_candidate()); // sticky
        let r = l.report();
        assert_eq!(r.candidates, 3); // refused charges are not counted
        assert!(r.exhausted);
        assert!(l.exhausted());
    }

    #[test]
    fn candidate_cap_is_exact_when_shared_across_threads() {
        let l = ExecLimits::new(None, Some(1000));
        let granted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..600 {
                        if l.charge_candidate() {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(granted.load(Ordering::Relaxed), 1000);
        assert_eq!(l.report().candidates, 1000);
        assert!(l.exhausted());
    }

    #[test]
    fn expired_deadline_refuses_the_first_charge() {
        let l = ExecLimits::new(Some(Duration::ZERO), None);
        assert!(!l.charge_candidate());
        assert!(l.exhausted());
        assert_eq!(l.report().candidates, 0);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let l = ExecLimits::new(Some(Duration::from_secs(3600)), None);
        for _ in 0..1000 {
            assert!(l.charge_candidate());
        }
        assert!(!l.exhausted());
    }

    /// Satellite regression: past the deadline's halfway point every charge
    /// polls the clock, so the first charge after expiry refuses — the old
    /// mask-only polling could grant up to 63 post-deadline verifications
    /// when the count sat mid-mask.
    #[test]
    fn past_half_deadline_the_first_expired_charge_refuses() {
        let deadline = Duration::from_millis(40);
        let l = ExecLimits::new(Some(deadline), None);
        // Charge through the first half: the tight loop polls every 64
        // charges, so a poll lands past the halfway point well before the
        // deadline and flips the every-charge mode on.
        while l.report().elapsed < deadline / 2 + Duration::from_millis(5) {
            assert!(l.charge_candidate(), "deadline must not trip before expiry");
        }
        // Park the count mid-mask: under the old scheme the next 63 charges
        // would skip the clock entirely.
        while l.report().candidates & DEADLINE_CHECK_MASK != 1 {
            assert!(l.charge_candidate());
        }
        let before = l.report().candidates;
        std::thread::sleep(deadline); // comfortably past expiry now
        assert!(
            !l.charge_candidate(),
            "first charge after expiry must refuse once past half-deadline"
        );
        assert!(l.exhausted());
        assert_eq!(l.report().candidates, before, "refused charges are not counted");
    }

    #[test]
    fn force_exhaust_is_sticky() {
        let l = ExecLimits::unlimited();
        assert!(l.charge_candidate());
        l.force_exhaust();
        assert!(!l.charge_candidate());
        assert_eq!(l.report().candidates, 1);
        assert!(l.report().exhausted);
    }

    #[test]
    fn postings_are_pure_accounting() {
        let l = ExecLimits::new(None, Some(1));
        l.charge_postings(5);
        assert!(l.charge_candidate());
        assert!(!l.charge_candidate());
        l.charge_postings(2);
        assert_eq!(l.report().postings, 7);
    }
}
