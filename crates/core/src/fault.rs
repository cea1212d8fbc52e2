//! Deterministic fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] installs a process-global hook at the named fault sites
//! the hot paths expose ([`relq::fault_point`] — the bounded operators,
//! aggregate assembly, and the serving request boundary). Each time
//! execution passes a site the plan draws one deterministic decision from
//! `splitmix64(seed ^ hash(site) ^ counter)` and either does nothing,
//! injects a **panic** (exercising the serving layer's per-request
//! isolation), or injects a **delay** (exercising deadlines and admission
//! control). [`maybe_exhaust_budget`] separately forces budget exhaustion
//! by shrinking a request's effective [`ExecBudget`] to one candidate.
//!
//! The module is always compiled but runtime-inert: with no plan installed
//! the relq hook is unset and every entry point is a cheap early return.
//! It exists for the `engine_chaos` integration tier and is **not** part of
//! the serving contract — production code never installs a plan.
//!
//! Installation is process-global, so tests that install plans must
//! serialize (the chaos tier holds a lock across each scenario). The seed
//! is pinned in CI via the `DASP_FAULT_SEED` environment variable
//! ([`seed_env`]) so a failing run reproduces exactly.

use crate::params::ExecBudget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

/// A seeded fault-injection plan: per-site-evaluation probabilities of each
/// fault class. Rates are independent draws per fault site passage; a
/// passage injects at most one fault (panic wins over delay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic per-(site, counter) decisions.
    pub seed: u64,
    /// Probability that a site passage panics.
    pub panic_rate: f64,
    /// Probability that a site passage sleeps for [`delay`](Self::delay).
    pub delay_rate: f64,
    /// The injected delay length.
    pub delay: Duration,
    /// Probability that [`maybe_exhaust_budget`] forces a request's budget
    /// to one candidate (drawn once per request, not per site passage).
    pub exhaust_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; enable classes with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_micros(200),
            exhaust_rate: 0.0,
        }
    }

    /// Set the panic-injection rate.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Set the delay-injection rate and length.
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Set the forced-budget-exhaustion rate.
    pub fn with_exhaust_rate(mut self, rate: f64) -> Self {
        self.exhaust_rate = rate;
        self
    }
}

/// Counters of what an installed plan actually injected (and how often it
/// was consulted) — chaos tests assert faults really fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Fault-site passages evaluated against the plan.
    pub evaluations: u64,
    /// Panics injected.
    pub panics: u64,
    /// Delays injected.
    pub delays: u64,
    /// Budgets forcibly exhausted.
    pub exhausts: u64,
}

static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
static COUNTER: AtomicU64 = AtomicU64::new(0);
static EVALUATIONS: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static DELAYS: AtomicU64 = AtomicU64::new(0);
static EXHAUSTS: AtomicU64 = AtomicU64::new(0);

fn plan() -> Option<FaultPlan> {
    *PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Install `plan` process-wide and arm the relq fault hook. Replaces any
/// previous plan and resets [`stats`].
pub fn install(plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    COUNTER.store(0, Ordering::Relaxed);
    EVALUATIONS.store(0, Ordering::Relaxed);
    PANICS.store(0, Ordering::Relaxed);
    DELAYS.store(0, Ordering::Relaxed);
    EXHAUSTS.store(0, Ordering::Relaxed);
    relq::set_fault_hook(Some(relq_hook));
}

/// Disarm the hook and remove the installed plan. Injection stops
/// immediately; [`stats`] keep their final values until the next
/// [`install`].
pub fn clear() {
    relq::set_fault_hook(None);
    *PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Injection counters of the currently / most recently installed plan.
pub fn stats() -> FaultStats {
    FaultStats {
        evaluations: EVALUATIONS.load(Ordering::Relaxed),
        panics: PANICS.load(Ordering::Relaxed),
        delays: DELAYS.load(Ordering::Relaxed),
        exhausts: EXHAUSTS.load(Ordering::Relaxed),
    }
}

/// Parse a `DASP_FAULT_SEED` environment value: any integer (zero included
/// — 0 is a valid seed) pins the chaos seed; unset/empty means the caller
/// picks its own, and unparsable input warns once to stderr (see
/// [`crate::envknob`]). Separated from `std::env` for tests (same pattern
/// as the posting-block / segment-seal / shards overrides).
pub fn seed_env(var: Option<&str>) -> Option<u64> {
    crate::envknob::any_u64("DASP_FAULT_SEED", var)
}

/// The chaos seed: `DASP_FAULT_SEED` if set (CI pins it), else the default.
pub fn seed_from_env_or(default: u64) -> u64 {
    seed_env(std::env::var("DASP_FAULT_SEED").ok().as_deref()).unwrap_or(default)
}

/// Shrink `budget` to a one-candidate budget if the installed plan decides
/// to force exhaustion for this request. Identity when no plan is
/// installed. The serving layer calls this once per request, so the
/// exhaustion rate is per request — forced-exhausted requests exercise the
/// degraded anytime path end to end.
pub fn maybe_exhaust_budget(site: &'static str, budget: ExecBudget) -> ExecBudget {
    let Some(plan) = plan() else { return budget };
    if plan.exhaust_rate <= 0.0 {
        return budget;
    }
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    if uniform(plan.seed, site, n) < plan.exhaust_rate {
        EXHAUSTS.fetch_add(1, Ordering::Relaxed);
        return ExecBudget {
            max_candidates: Some(budget.max_candidates.map_or(1, |c| c.min(1))),
            ..budget
        };
    }
    budget
}

/// The hook handed to [`relq::set_fault_hook`]: one deterministic draw per
/// site passage, panic or delay by the installed rates.
fn relq_hook(site: &'static str) {
    let Some(plan) = plan() else { return };
    if plan.panic_rate <= 0.0 && plan.delay_rate <= 0.0 {
        return;
    }
    EVALUATIONS.fetch_add(1, Ordering::Relaxed);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let u = uniform(plan.seed, site, n);
    if u < plan.panic_rate {
        PANICS.fetch_add(1, Ordering::Relaxed);
        panic!("injected fault at {site} (draw #{n})");
    }
    if u < plan.panic_rate + plan.delay_rate {
        DELAYS.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(plan.delay);
    }
}

/// splitmix64 of `seed ^ fnv(site) ^ counter`, folded to a uniform in
/// `[0, 1)`.
fn uniform(seed: u64, site: &str, counter: u64) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut z = seed ^ h ^ counter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        for n in 0..1000 {
            let u = uniform(42, "relq.topk.candidate", n);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, uniform(42, "relq.topk.candidate", n));
        }
        // Different seeds decorrelate.
        assert_ne!(uniform(1, "s", 0), uniform(2, "s", 0));
    }

    #[test]
    fn seed_env_parses_like_the_other_overrides() {
        assert_eq!(seed_env(None), None);
        assert_eq!(seed_env(Some("")), None);
        assert_eq!(seed_env(Some("banana")), None);
        assert_eq!(seed_env(Some(" 7 ")), Some(7));
        assert_eq!(seed_env(Some("0")), Some(0));
    }

    #[test]
    fn exhaust_budget_is_identity_without_a_plan() {
        let b = ExecBudget { max_candidates: Some(500), ..ExecBudget::default() };
        assert_eq!(maybe_exhaust_budget("serve.request", b), b);
        assert_eq!(
            maybe_exhaust_budget("serve.request", ExecBudget::unlimited()).max_candidates,
            None
        );
    }
}
