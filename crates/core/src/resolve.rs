//! RFC 8461 §3.3 policy resolution: the one place the sender decides,
//! per recipient domain, which policy governs right now.
//!
//! The rule (paper §2.4, §2.6): serve a fresh cached policy whose `id`
//! matches the `_mta-sts` record; keep serving it when the record
//! lookup fails (TOFU downgrade protection); refetch on first contact,
//! an `id` change or expiry; and when that refresh fails or returns
//! garbage, let a still-fresh cached policy keep governing. A record
//! lookup that fails (SERVFAIL-class, not NXDOMAIN) keeps *any*
//! retained entry governing, even past `max_age` — a sender cannot tell
//! attacker-blocked DNS from an outage — while genuine removal (no
//! record) releases the domain.
//!
//! The rule is split in two so concurrent callers can put their own
//! machinery between the halves:
//!
//! - [`classify`] reads the cache and the record lookup and either
//!   answers ([`Classified::Served`]) or asks for the HTTPS fetch
//!   ([`Classified::NeedsFetch`]);
//! - [`settle`] interprets a fetch result: parse and store, or fall back
//!   to a still-fresh entry, or give up.
//!
//! [`resolve`] composes the two for callers with nothing in between.
//! [`crate::engine::SenderEngine`], the delivery queue and the
//! resolution daemon all resolve through this module.

use crate::cache::{CacheDecision, PolicyCache};
use crate::engine::{StsFailure, StsOutcome};
use crate::policy::{parse_policy, Policy};
use crate::record::{evaluate_record_set, RecordError, StsRecord};
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};

/// Which policy governs a recipient domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedPolicy {
    /// No `_mta-sts` record and nothing cached: MTA-STS does not apply.
    NotApplicable,
    /// A record exists but is invalid — counts as not deployed
    /// (RFC 8461 §3.1); no protection applies.
    RecordInvalid(RecordError),
    /// The record was fine but no policy could be fetched and nothing
    /// fresh was cached; delivery proceeds unprotected.
    Unavailable {
        /// Human-readable fetch/parse failure.
        reason: String,
    },
    /// A policy governs the domain.
    Active {
        /// The governing policy.
        policy: Policy,
        /// Whether it came from cache rather than a fresh fetch.
        from_cache: bool,
        /// True when a refresh failed (lookup, fetch or parse) and a
        /// retained cached policy took over — §3.3 stale fallback.
        stale: bool,
    },
}

impl ResolvedPolicy {
    /// The governing policy, when one applies.
    pub fn policy(&self) -> Option<&Policy> {
        match self {
            ResolvedPolicy::Active { policy, .. } => Some(policy),
            _ => None,
        }
    }
}

/// How a resolution was satisfied — the ledger-facing classification
/// behind the resolution service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// Fresh cache entry, record id unchanged.
    Hit,
    /// Fresh cache entry despite a failed record lookup (TOFU
    /// downgrade protection).
    HitDespiteDns,
    /// A completed HTTPS fetch.
    Fetched,
    /// Parked on another caller's in-flight fetch and reused its result.
    Coalesced,
    /// Refresh failed; a retained cached policy governs (RFC 8461 §3.3).
    StaleFallback,
    /// No record (or NXDOMAIN): MTA-STS does not apply.
    Undeployed,
    /// A record exists but is invalid (counts as not deployed, §3.1).
    RecordInvalid,
    /// Fetch failed and nothing cached could take over.
    Unavailable,
    /// Admission control refused the fetch leg (token bucket empty or
    /// delay past the bound).
    Shed,
}

/// What [`classify`] concluded before any HTTPS traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classified {
    /// Answered from the cache and the record lookup alone.
    Served(ResolvedPolicy, Disposition),
    /// A valid record demands the HTTPS fetch; hand its result to
    /// [`settle`].
    NeedsFetch(StsRecord),
}

fn active(policy: Policy, from_cache: bool, stale: bool) -> ResolvedPolicy {
    ResolvedPolicy::Active {
        policy,
        from_cache,
        stale,
    }
}

/// The fetch-free half of resolution: the `_mta-sts` TXT lookup
/// (`None` = lookup failed, `Some(vec![])` = no record) against the
/// cache at `now`. Takes one shard read lock and writes nothing but the
/// cache's hit counter.
pub fn classify(
    cache: &PolicyCache,
    domain: &DomainName,
    record_txts: Option<&[String]>,
    now: SimInstant,
) -> Classified {
    let record = record_txts.map(evaluate_record_set);
    let record_id = match &record {
        Some(Ok(r)) => Some(r.id.as_str()),
        _ => None,
    };
    let (resolved, disposition) = match cache.assess(domain, record_id, now) {
        CacheDecision::UseCached(entry) => (active(entry.policy, true, false), Disposition::Hit),
        CacheDecision::UseCachedDespiteDns(entry) => (
            active(entry.policy, true, false),
            Disposition::HitDespiteDns,
        ),
        CacheDecision::Fetch(_) => match record {
            // The lookup failed and no fresh entry answered: a retained
            // expired one keeps governing (disposal belongs to
            // `PolicyCache::evict_expired`).
            None => match cache.peek(domain) {
                Some(entry) => (active(entry.policy, true, true), Disposition::StaleFallback),
                None => (ResolvedPolicy::NotApplicable, Disposition::Undeployed),
            },
            Some(Err(RecordError::NoRecord)) => {
                (ResolvedPolicy::NotApplicable, Disposition::Undeployed)
            }
            Some(Err(e)) => (ResolvedPolicy::RecordInvalid(e), Disposition::RecordInvalid),
            Some(Ok(record)) => return Classified::NeedsFetch(record),
        },
    };
    Classified::Served(resolved, disposition)
}

/// The fetch half of resolution: interprets the HTTPS result for
/// `record`, fetched at `at`. A parsed policy is stored and governs; a
/// failed fetch or an unparsable body lets a still-fresh cached entry
/// keep governing (an expired one never resurrects here — the record
/// was readable, so the domain demonstrably still publishes MTA-STS).
pub fn settle(
    cache: &PolicyCache,
    domain: &DomainName,
    record: &StsRecord,
    fetched: Result<String, String>,
    at: SimInstant,
) -> (ResolvedPolicy, Disposition) {
    let reason = match fetched.map(|body| parse_policy(&body)) {
        Ok(Ok(policy)) => {
            cache.store(domain.clone(), policy.clone(), &record.id, at);
            return (active(policy, false, false), Disposition::Fetched);
        }
        Ok(Err(e)) => format!("policy parse failure: {e}"),
        Err(e) => format!("policy fetch failure: {e}"),
    };
    match cache.peek(domain).filter(|e| e.is_fresh(at)) {
        Some(entry) => (active(entry.policy, true, true), Disposition::StaleFallback),
        None => (
            ResolvedPolicy::Unavailable { reason },
            Disposition::Unavailable,
        ),
    }
}

/// Resolves `domain` at `now`: [`classify`], then — only when a fetch is
/// needed — `fetch` (the strict-TLS HTTPS leg, returning the raw policy
/// body) and [`settle`].
pub fn resolve(
    cache: &PolicyCache,
    domain: &DomainName,
    record_txts: Option<&[String]>,
    fetch: impl FnOnce() -> Result<String, String>,
    now: SimInstant,
) -> (ResolvedPolicy, Disposition) {
    match classify(cache, domain, record_txts, now) {
        Classified::Served(resolved, disposition) => (resolved, disposition),
        Classified::NeedsFetch(record) => settle(cache, domain, &record, fetch(), now),
    }
}

/// The protocol outcome of one delivery under `resolution`, given the
/// MX/TLS verdict (`soft_failure`, `None` when validation passed or
/// never ran) — what TLSRPT and the ledgers record.
pub fn report_outcome(
    resolution: Option<&ResolvedPolicy>,
    soft_failure: Option<&StsFailure>,
) -> StsOutcome {
    match resolution {
        None | Some(ResolvedPolicy::NotApplicable) => StsOutcome::NotApplicable,
        Some(ResolvedPolicy::RecordInvalid(e)) => StsOutcome::RecordInvalid(e.clone()),
        Some(ResolvedPolicy::Unavailable { reason }) => StsOutcome::PolicyUnavailable {
            reason: reason.clone(),
        },
        Some(ResolvedPolicy::Active {
            policy, from_cache, ..
        }) => match soft_failure {
            Some(failure) => StsOutcome::Failed {
                mode: policy.mode,
                failure: failure.clone(),
                from_cache: *from_cache,
            },
            None => StsOutcome::Validated {
                mode: policy.mode,
                from_cache: *from_cache,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Mode, MxPattern};
    use netbase::{Duration, SimDate};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    fn record(id: &str) -> Vec<String> {
        vec![format!("v=STSv1; id={id};")]
    }

    const GOOD_POLICY: &str =
        "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n";

    fn resolved(
        cache: &PolicyCache,
        txts: Option<&[String]>,
        fetch: impl FnOnce() -> Result<String, String>,
        now: SimInstant,
    ) -> ResolvedPolicy {
        resolve(cache, &n("example.com"), txts, fetch, now).0
    }

    fn short_enforce() -> Policy {
        Policy::new(
            Mode::Enforce,
            3600,
            vec![MxPattern::parse("mx.example.com").unwrap()],
        )
    }

    #[test]
    fn first_contact_fetches_and_stores() {
        let cache = PolicyCache::default();
        let r = resolved(
            &cache,
            Some(&record("a1")),
            || Ok(GOOD_POLICY.to_string()),
            t0(),
        );
        assert!(
            matches!(&r, ResolvedPolicy::Active { from_cache: false, stale: false, policy } if policy.mode == Mode::Enforce)
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fresh_hit_never_calls_fetch() {
        let cache = PolicyCache::default();
        let _ = resolved(
            &cache,
            Some(&record("a1")),
            || Ok(GOOD_POLICY.to_string()),
            t0(),
        );
        let r = resolved(
            &cache,
            Some(&record("a1")),
            || panic!("fresh hit must not fetch"),
            t0() + Duration::days(1),
        );
        assert!(matches!(
            r,
            ResolvedPolicy::Active {
                from_cache: true,
                stale: false,
                ..
            }
        ));
    }

    #[test]
    fn dns_outage_with_fresh_cache_keeps_enforcing() {
        // Record lookup fails entirely; the TOFU cache still governs.
        let cache = PolicyCache::default();
        let _ = resolved(
            &cache,
            Some(&record("a1")),
            || Ok(GOOD_POLICY.to_string()),
            t0(),
        );
        let r = resolved(
            &cache,
            None,
            || panic!("no record id, fresh cache: no fetch"),
            t0() + Duration::days(2),
        );
        assert!(matches!(
            r,
            ResolvedPolicy::Active {
                from_cache: true,
                ..
            }
        ));
    }

    #[test]
    fn id_change_with_failed_fetch_falls_back_stale() {
        let cache = PolicyCache::default();
        let _ = resolved(
            &cache,
            Some(&record("a1")),
            || Ok(GOOD_POLICY.to_string()),
            t0(),
        );
        // The id rolled but the policy host is dark: §3.3 says keep the
        // fresh cached policy.
        let r = resolved(
            &cache,
            Some(&record("a2")),
            || Err("tcp reset".to_string()),
            t0() + Duration::hours(1),
        );
        assert!(matches!(
            r,
            ResolvedPolicy::Active {
                from_cache: true,
                stale: true,
                ..
            }
        ));
    }

    #[test]
    fn garbage_refresh_document_falls_back_stale() {
        let cache = PolicyCache::default();
        let _ = resolved(
            &cache,
            Some(&record("a1")),
            || Ok(GOOD_POLICY.to_string()),
            t0(),
        );
        let r = resolved(
            &cache,
            Some(&record("a2")),
            || Ok("<html>defaced</html>".to_string()),
            t0() + Duration::hours(1),
        );
        assert!(matches!(
            r,
            ResolvedPolicy::Active {
                from_cache: true,
                stale: true,
                ..
            }
        ));
    }

    #[test]
    fn expired_entry_never_resurrects() {
        let cache = PolicyCache::default();
        cache.store(n("example.com"), short_enforce(), "a1", t0());
        let r = resolved(
            &cache,
            Some(&record("a1")),
            || Err("tcp reset".to_string()),
            t0() + Duration::days(1),
        );
        assert!(matches!(r, ResolvedPolicy::Unavailable { .. }));
    }

    #[test]
    fn dns_outage_at_expiry_keeps_stale_policy() {
        // Regression for the stale-fallback erasure: DNS outage
        // coinciding with cache expiry used to evict the entry inside
        // the decision, so enforcement silently dropped to opportunistic
        // at the exact moment an attacker blocking DNS would want it to.
        let cache = PolicyCache::default();
        cache.store(n("example.com"), short_enforce(), "a1", t0());
        let r = resolved(
            &cache,
            None, // lookup failed (SERVFAIL-class), not NXDOMAIN
            || panic!("no valid record: no fetch"),
            t0() + Duration::days(1), // well past max_age
        );
        assert!(
            matches!(
                &r,
                ResolvedPolicy::Active {
                    from_cache: true,
                    stale: true,
                    policy,
                } if policy.mode == Mode::Enforce
            ),
            "expired entry must keep governing through a DNS outage, got {r:?}"
        );
        // Genuine removal (NXDOMAIN → empty record set) still releases
        // the domain even with the entry retained.
        let r = resolved(
            &cache,
            Some(&[]),
            || panic!("no record: no fetch"),
            t0() + Duration::days(1),
        );
        assert_eq!(r, ResolvedPolicy::NotApplicable);
    }

    #[test]
    fn no_record_and_invalid_record_resolve_as_undeployed() {
        let cache = PolicyCache::default();
        let r = resolved(&cache, Some(&[]), || panic!("no record: no fetch"), t0());
        assert_eq!(r, ResolvedPolicy::NotApplicable);
        let r = resolved(
            &cache,
            Some(&["v=STSv1".to_string()]),
            || panic!("invalid record: no fetch"),
            t0(),
        );
        assert!(matches!(r, ResolvedPolicy::RecordInvalid(_)));
    }

    #[test]
    fn parse_failures_render_with_display() {
        let cache = PolicyCache::default();
        let r = resolved(&cache, Some(&record("a1")), || Ok(String::new()), t0());
        let ResolvedPolicy::Unavailable { reason } = &r else {
            panic!("expected Unavailable, got {r:?}")
        };
        assert!(reason.starts_with("policy parse failure: "), "{reason}");
        assert!(reason.contains("empty"), "{reason}");
    }

    #[test]
    fn report_outcome_types_soft_failures() {
        let active = ResolvedPolicy::Active {
            policy: Policy::new(
                Mode::Testing,
                604_800,
                vec![MxPattern::parse("mx.example.com").unwrap()],
            ),
            from_cache: true,
            stale: false,
        };
        let out = report_outcome(Some(&active), Some(&StsFailure::StartTlsUnavailable));
        assert!(matches!(
            out,
            StsOutcome::Failed {
                mode: Mode::Testing,
                failure: StsFailure::StartTlsUnavailable,
                from_cache: true,
            }
        ));
        assert!(matches!(
            report_outcome(Some(&active), None),
            StsOutcome::Validated { .. }
        ));
        assert!(matches!(
            report_outcome(None, None),
            StsOutcome::NotApplicable
        ));
    }
}
