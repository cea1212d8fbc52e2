//! Cooperative execution limits: deadline / candidate budgets threaded into
//! the operators that enumerate scoring candidates.
//!
//! An [`ExecLimits`] is created per *request* — always; an
//! [`unlimited`](ExecLimits::unlimited) one only counts — and carried by
//! reference through the execution context. The counters are relaxed
//! atomics, so one `ExecLimits` may be shared across threads and operators:
//! the live engine threads one through every segment of a request, its
//! tid-range shards included, so the budget bounds the request as a whole,
//! not each segment. Operators
//! that score candidates call
//! [`charge_candidates`](ExecLimits::charge_candidates) *before* evaluating
//! a batch (a cheap window or aggregation at once, an expensive
//! verification one candidate at a time), emit only the granted prefix and
//! stop once a charge is cut short, leaving what they have produced as the
//! **anytime answer**: every emitted `(tid, score)` pair is fully scored
//! (bit-identical to the exhaustive run's entry for that tid), the budget
//! only truncates *which* candidates were visited.
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
//!   compare-exchange loop grants exactly `max` candidates — but which
//!   worker wins each slot is scheduling-dependent).
//! * `deadline` — a wall-clock bound. While less than half the deadline has
//!   elapsed it is polled only by charges whose candidate range holds a
//!   multiple of [`DEADLINE_CHECK_MASK`]+1, keeping `Instant::now` off the
//!   hot path; once a poll observes the halfway point, **every** charge
//!   polls, so a request verifying expensive candidates (edit distance,
//!   GES) overshoots its deadline by at most one in-flight verification.
//!   (Nondeterministic in *where* it cuts, but every cut point is a valid
//!   anytime answer.)
//!
//! A stage that generates candidates without scoring them (the GES filter's
//! per-query-word estimate) calls [`poll_deadline`](ExecLimits::poll_deadline)
//! instead: the deadline alone, counting nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How often the deadline is polled on the cheap path: on every charge whose
/// candidate range holds a multiple of `MASK + 1` (so the very first charge
/// always polls — an already-expired deadline stops the operator before any
/// work). Once a poll lands past the deadline's halfway point the mask no
/// longer applies and every charge polls.
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

    /// Whether any cap is set. An uncapped budget never refuses a charge,
    /// so its sharers may run concurrently without changing the answer.
    pub fn is_capped(&self) -> bool {
        self.deadline.is_some() || self.max_candidates.is_some()
    }

    /// Ask permission to score one more candidate:
    /// `charge_candidates(1) == 1`.
    #[inline]
    pub fn charge_candidate(&self) -> bool {
        self.charge_candidates(1) == 1
    }

    /// Ask permission to score the next `n` candidates. Returns how many
    /// are granted (and counted): all `n`, or — once a cap trips — the
    /// prefix that still fits; the operator emits only that prefix and
    /// stops. With a `max_candidates` cap exactly `max` candidates are
    /// granted in total, even across threads. A charge cut short exhausts
    /// the budget; one that exactly fills the cap does not (the next charge
    /// does), just as `n` single charges would.
    #[inline]
    pub fn charge_candidates(&self, n: u64) -> u64 {
        if n == 0 || self.exhausted.load(Ordering::Relaxed) {
            return 0;
        }
        if let Some(deadline) = self.deadline {
            let every = self.past_half.load(Ordering::Relaxed);
            // Poll when `[count, count + n)` holds a multiple of the poll
            // period — for `n = 1`, every 64th charge.
            let count = self.candidates.load(Ordering::Relaxed);
            if every || (count + n - 1) & !DEADLINE_CHECK_MASK >= count {
                let now = Instant::now();
                if now >= deadline {
                    self.exhausted.store(true, Ordering::Relaxed);
                    return 0;
                }
                if !every && self.half_deadline.is_some_and(|half| now >= half) {
                    self.past_half.store(true, Ordering::Relaxed);
                }
            }
        }
        // Compare-exchange so concurrent sharers together get exactly `max`
        // grants — a fetch_add would overcount refused charges.
        let max = self.max_candidates.unwrap_or(u64::MAX);
        let mut granted = 0;
        let _ = self.candidates.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |count| {
            granted = n.min(max.saturating_sub(count));
            (granted > 0).then_some(count + granted)
        });
        if granted < n {
            self.exhausted.store(true, Ordering::Relaxed);
        }
        granted
    }

    /// Check the deadline alone, for a stage that scores no candidates (a
    /// candidate generator's per-query-word work). Returns whether the
    /// request may go on; an expired deadline exhausts the budget exactly as
    /// a refused charge does. Counts no candidates and no postings.
    pub fn poll_deadline(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Record `n` posting entries consumed (pure accounting, never refuses).
    #[inline]
    pub fn charge_postings(&self, n: u64) {
        self.postings.fetch_add(n, Ordering::Relaxed);
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
        assert_eq!(l.charge_candidates(5_000), 5_000);
        let r = l.report();
        assert_eq!(r.candidates, 15_000);
        assert!(!r.exhausted);
        assert!(!l.is_capped());
    }

    #[test]
    fn candidate_cap_grants_exactly_max_then_sticks() {
        let l = ExecLimits::new(None, Some(3));
        assert!(l.is_capped());
        assert!(l.charge_candidate());
        assert!(l.charge_candidate());
        assert!(l.charge_candidate());
        assert!(!l.charge_candidate());
        assert!(!l.charge_candidate()); // sticky
        let r = l.report();
        assert_eq!(r.candidates, 3); // refused charges are not counted
        assert!(r.exhausted);
        assert!(l.exhausted());

        // A batch is granted the prefix that fits; only a cut-short charge
        // exhausts, not one that exactly fills the cap.
        let l = ExecLimits::new(None, Some(5));
        assert_eq!(l.charge_candidates(0), 0);
        assert_eq!(l.charge_candidates(3), 3);
        assert_eq!(l.charge_candidates(2), 2);
        assert!(!l.exhausted());
        assert_eq!(l.charge_candidates(4), 0);
        assert!(l.exhausted());
        let l = ExecLimits::new(None, Some(5));
        assert_eq!(l.charge_candidates(3), 3);
        assert_eq!(l.charge_candidates(4), 2);
        assert!(l.exhausted());
        assert_eq!(l.charge_candidates(1), 0); // sticky
        assert_eq!(l.report().candidates, 5);
    }

    #[test]
    fn candidate_cap_is_exact_when_shared_across_threads() {
        for batch in [1, 7] {
            let l = ExecLimits::new(None, Some(1000));
            let granted = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..600 {
                            granted.fetch_add(l.charge_candidates(batch), Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(granted.load(Ordering::Relaxed), 1000, "batch {batch}");
            assert_eq!(l.report().candidates, 1000, "batch {batch}");
            assert!(l.exhausted());
        }
    }

    #[test]
    fn expired_deadline_refuses_the_first_charge() {
        for batch in [1, 100] {
            let l = ExecLimits::new(Some(Duration::ZERO), None);
            assert_eq!(l.charge_candidates(batch), 0);
            assert!(l.exhausted());
            assert_eq!(l.report().candidates, 0);
        }
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let l = ExecLimits::new(Some(Duration::from_secs(3600)), None);
        for _ in 0..1000 {
            assert!(l.charge_candidate());
        }
        assert_eq!(l.charge_candidates(1000), 1000);
        assert!(!l.exhausted());
    }

    /// Past the deadline's halfway point every charge polls the clock, so
    /// the first charge after expiry refuses — mask-only polling could
    /// grant up to 63 post-deadline verifications when the count sat
    /// mid-mask. A batch whose range crosses no poll point polls too.
    #[test]
    fn past_half_deadline_the_first_expired_charge_refuses() {
        for batch in [1, 2] {
            let deadline = Duration::from_millis(40);
            let l = ExecLimits::new(Some(deadline), None);
            // Charge through the first half: the tight loop polls every 64
            // charges, so a poll lands past the halfway point well before
            // the deadline and flips the every-charge mode on.
            while l.report().elapsed < deadline / 2 + Duration::from_millis(5) {
                assert!(l.charge_candidate(), "deadline must not trip before expiry");
            }
            // Park the count mid-mask: under mask-only polling the next 63
            // charges would skip the clock entirely.
            while l.report().candidates & DEADLINE_CHECK_MASK != 1 {
                assert!(l.charge_candidate());
            }
            let before = l.report().candidates;
            std::thread::sleep(deadline); // comfortably past expiry now
            assert_eq!(
                l.charge_candidates(batch),
                0,
                "first charge after expiry must refuse once past half-deadline"
            );
            assert!(l.exhausted());
            assert_eq!(l.report().candidates, before, "refused charges are not counted");
        }
    }

    #[test]
    fn deadline_poll_exhausts_without_counting() {
        let l = ExecLimits::new(Some(Duration::from_secs(3600)), Some(1));
        assert!(l.poll_deadline());
        assert!(!l.exhausted());
        let l = ExecLimits::new(Some(Duration::ZERO), None);
        assert!(!l.poll_deadline());
        assert!(l.exhausted());
        assert!(!l.charge_candidate(), "exhaustion is sticky");
        let r = l.report();
        assert_eq!((r.candidates, r.postings), (0, 0));
        // A tripped candidate cap stops the poll too.
        let l = ExecLimits::new(None, Some(0));
        assert!(l.poll_deadline());
        assert!(!l.charge_candidate());
        assert!(!l.poll_deadline());
        assert!(ExecLimits::unlimited().poll_deadline());
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
