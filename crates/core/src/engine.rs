//! The sender decision procedure: RFC 8461 §4/§5 end to end.
//!
//! Given the observations a sending MTA makes — the `_mta-sts` TXT lookup,
//! the HTTPS policy fetch, the chosen MX host, and the STARTTLS certificate
//! verdict — the engine produces the protocol outcome and the final action
//! (deliver / refuse). It owns the TOFU [`PolicyCache`] and resolves
//! through [`crate::resolve`](mod@crate::resolve), so repeated
//! deliveries to the same domain exercise caching, `id`-triggered refresh
//! and the downgrade protections the paper discusses (§2.4, §2.6) exactly
//! as the delivery queue and the resolution daemon do.
//!
//! The engine is deliberately transport-free: the `sender` and `simnet`
//! crates plug in real lookups; unit tests script the observations.

use crate::cache::PolicyCache;
use crate::matching::mx_matches_policy;
use crate::policy::Mode;
use crate::record::RecordError;
use crate::resolve::{report_outcome, resolve, ResolvedPolicy};
use netbase::{DomainName, SimInstant};
use pkix::CertError;
use serde::{Deserialize, Serialize};

/// Why MTA-STS validation failed for a delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StsFailure {
    /// The selected MX matches no `mx` pattern.
    MxNotListed,
    /// The MX does not offer STARTTLS at all.
    StartTlsUnavailable,
    /// The MX certificate failed PKIX validation.
    CertInvalid(CertError),
    /// DANE governed the attempt (TLSA records present, RFC 7672
    /// precedence) and the presented chain failed DANE validation.
    DaneInvalid {
        /// The DANE validation error, rendered.
        reason: String,
    },
}

impl StsFailure {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            StsFailure::MxNotListed => "mx-not-listed",
            StsFailure::StartTlsUnavailable => "starttls-unavailable",
            StsFailure::CertInvalid(_) => "cert-invalid",
            StsFailure::DaneInvalid { .. } => "dane-invalid",
        }
    }
}

/// The protocol-level outcome of evaluating one delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StsOutcome {
    /// The domain does not use MTA-STS (no record, nothing cached).
    NotApplicable,
    /// A record exists but is invalid — MTA-STS counts as not deployed
    /// (RFC 8461 §3.1), so no protection applies.
    RecordInvalid(RecordError),
    /// The record was fine but the policy could not be fetched or parsed
    /// and nothing usable was cached; the sender proceeds unprotected
    /// (this is the "TLS fallback" degradation the paper highlights).
    PolicyUnavailable {
        /// Human-readable fetch/parse failure.
        reason: String,
    },
    /// Validation ran and passed.
    Validated {
        /// The policy's mode.
        mode: Mode,
        /// Whether the policy came from cache (vs a fresh fetch).
        from_cache: bool,
    },
    /// Validation ran and failed; the action depends on the mode.
    Failed {
        /// The policy's mode.
        mode: Mode,
        /// What failed.
        failure: StsFailure,
        /// Whether the policy came from cache.
        from_cache: bool,
    },
}

/// The final action for the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SenderAction {
    /// Deliver; MTA-STS validated successfully.
    Deliver,
    /// Deliver without MTA-STS protection (no/invalid policy, or a failure
    /// under `testing`/`none`).
    DeliverUnvalidated,
    /// Do not deliver (failure under `enforce`). The message is queued or
    /// bounced — the delivery failures §4.4/Figure 7-8 quantify.
    Refuse,
}

/// Derives the action from the protocol outcome (RFC 8461 §5.3).
pub fn action_for(outcome: &StsOutcome) -> SenderAction {
    match outcome {
        StsOutcome::NotApplicable
        | StsOutcome::RecordInvalid(_)
        | StsOutcome::PolicyUnavailable { .. } => SenderAction::DeliverUnvalidated,
        StsOutcome::Validated { mode, .. } => match mode {
            // A `none` policy means "do not validate" — the successful
            // validation is vacuous, the message is simply delivered.
            Mode::None => SenderAction::DeliverUnvalidated,
            _ => SenderAction::Deliver,
        },
        StsOutcome::Failed { mode, .. } => match mode {
            Mode::Enforce => SenderAction::Refuse,
            Mode::Testing | Mode::None => SenderAction::DeliverUnvalidated,
        },
    }
}

/// The observations the engine needs for one delivery attempt.
pub struct DeliveryObservation<'a, FetchFn, CertFn>
where
    FetchFn: FnOnce() -> Result<String, String>,
    CertFn: FnOnce() -> Result<(), StsFailure>,
{
    /// The recipient domain.
    pub domain: &'a DomainName,
    /// The TXT strings at `_mta-sts.<domain>` (none when the name does
    /// not exist), or `None` when the lookup failed.
    pub record_txts: Option<&'a [String]>,
    /// Fetches the policy document over HTTPS (strict TLS per the RFC).
    pub fetch_policy: FetchFn,
    /// The MX host selected for this delivery.
    pub mx_host: &'a DomainName,
    /// Establishes STARTTLS to the MX and validates its certificate.
    pub check_mx_tls: CertFn,
    /// Current time.
    pub now: SimInstant,
}

/// A stateful MTA-STS-validating sender.
#[derive(Debug, Default)]
pub struct SenderEngine {
    cache: PolicyCache,
    fetch_fallbacks: u64,
}

impl SenderEngine {
    /// A fresh engine with an empty cache.
    pub fn new() -> SenderEngine {
        SenderEngine::default()
    }

    /// Access to the cache (instrumentation; the `cache` bench reads
    /// hit/fetch counters).
    pub fn cache(&self) -> &PolicyCache {
        &self.cache
    }

    /// Drops any cached policy for `domain` (the always-refetch ablation).
    pub fn evict(&mut self, domain: &DomainName) -> bool {
        self.cache.evict(domain)
    }

    /// How many times a retained cached policy governed after a failed
    /// refresh or record lookup (RFC 8461 §3.3 degraded mode).
    pub fn fetch_fallbacks(&self) -> u64 {
        self.fetch_fallbacks
    }

    /// Evaluates one delivery, updating the cache, and returns the
    /// protocol outcome plus the action to take. The policy comes from
    /// [`resolve`]; this adds the MX/TLS half.
    pub fn evaluate<FetchFn, CertFn>(
        &mut self,
        obs: DeliveryObservation<'_, FetchFn, CertFn>,
    ) -> (StsOutcome, SenderAction)
    where
        FetchFn: FnOnce() -> Result<String, String>,
        CertFn: FnOnce() -> Result<(), StsFailure>,
    {
        let (resolved, _) = resolve(
            &self.cache,
            obs.domain,
            obs.record_txts,
            obs.fetch_policy,
            obs.now,
        );
        let failure = match &resolved {
            ResolvedPolicy::Active { policy, stale, .. } => {
                self.fetch_fallbacks += u64::from(*stale);
                if policy.mode == Mode::None {
                    // `none` mode: no validation at all.
                    None
                } else if !mx_matches_policy(obs.mx_host, policy) {
                    // MX pattern matching precedes the TLS session (§2.4).
                    Some(StsFailure::MxNotListed)
                } else {
                    // STARTTLS + certificate validation.
                    (obs.check_mx_tls)().err()
                }
            }
            _ => None,
        };
        let outcome = report_outcome(Some(&resolved), failure.as_ref());
        let action = action_for(&outcome);
        (outcome, action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::{Duration, SimDate};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    fn record() -> Vec<String> {
        vec!["v=STSv1; id=20240601;".to_string()]
    }

    fn doc(mode: &str) -> String {
        format!("version: STSv1\r\nmode: {mode}\r\nmx: mx.example.com\r\nmax_age: 604800\r\n")
    }

    fn eval(
        engine: &mut SenderEngine,
        txts: Option<Vec<String>>,
        fetch: Result<String, String>,
        mx: &str,
        cert: Result<(), StsFailure>,
        now: SimInstant,
    ) -> (StsOutcome, SenderAction) {
        let domain = n("example.com");
        let mx = n(mx);
        engine.evaluate(DeliveryObservation {
            domain: &domain,
            record_txts: txts.as_deref(),
            fetch_policy: move || fetch,
            mx_host: &mx,
            check_mx_tls: move || cert,
            now,
        })
    }

    #[test]
    fn no_record_means_not_applicable() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(vec![]),
            Err("unused".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert_eq!(outcome, StsOutcome::NotApplicable);
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn invalid_record_means_not_deployed() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=2024-06-01;".to_string()]),
            Err("unused".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::RecordInvalid(RecordError::InvalidId(_))
        ));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn happy_path_enforce_validates_and_delivers() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: false
            }
        );
        assert_eq!(action, SenderAction::Deliver);
    }

    #[test]
    fn second_delivery_hits_cache() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, _) = eval(
            &mut e,
            Some(record()),
            Err("network should not be touched".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(1),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        );
    }

    #[test]
    fn id_change_refetches() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // New id, new policy says testing.
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=20240701;".to_string()]),
            Ok(doc("testing")),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(2),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Testing,
                from_cache: false
            }
        );
    }

    #[test]
    fn dns_blocking_cannot_downgrade_cached_domain() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Attacker blocks the record lookup; MX fails validation.
        let (outcome, action) = eval(
            &mut e,
            None,
            Err("blocked".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::days(1),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        ));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn enforce_refuses_on_bad_cert() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Err(StsFailure::CertInvalid(CertError::Expired)),
            t0(),
        );
        assert!(matches!(outcome, StsOutcome::Failed { .. }));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn testing_delivers_despite_failure() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("testing")),
            "mx.example.com",
            Err(StsFailure::CertInvalid(CertError::SelfSigned)),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Testing,
                ..
            }
        ));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn none_mode_skips_validation() {
        let mut e = SenderEngine::new();
        let doc_none = "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n".to_string();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc_none),
            "anything.anywhere.net",
            Err(StsFailure::StartTlsUnavailable), // would fail, but never runs
            t0(),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::None,
                from_cache: false
            }
        );
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn fetch_failure_means_unprotected_delivery() {
        // The degradation the paper warns about: validation failure at
        // fetch time falls back to opportunistic behaviour.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Err("tls handshake failed: certificate expired".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(outcome, StsOutcome::PolicyUnavailable { .. }));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn empty_policy_file_behaves_like_none() {
        // DMARCReport's opt-out artefact (§5): empty file → parse failure →
        // unprotected delivery.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(String::new()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let StsOutcome::PolicyUnavailable { reason } = &outcome else {
            panic!("expected PolicyUnavailable, got {outcome:?}")
        };
        assert!(reason.contains("empty"), "{reason}");
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn mx_not_listed_under_enforce_refuses() {
        // The lucidgrow incident shape (§4.4): policy lists patterns that
        // match none of the real MXes, mode enforce → delivery failure.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.lucidgrow-customer.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                failure: StsFailure::MxNotListed,
                ..
            }
        ));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn starttls_unavailable_under_enforce_refuses() {
        let mut e = SenderEngine::new();
        let (_, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Err(StsFailure::StartTlsUnavailable),
            t0(),
        );
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn tofu_refresh_race_keeps_old_policy() {
        // Satellite: record id changed (attacker- or operator-initiated)
        // while the HTTPS fetch is faulted. RFC 8461 §3.3: the still-fresh
        // cached policy must keep applying — the engine must NOT drop to
        // unprotected delivery.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Id changed + fetch faulted + attacker-chosen MX: still refused.
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker1;".to_string()]),
            Err("tls: certificate: unknown issuer".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::hours(3),
        );
        assert_eq!(action, SenderAction::Refuse);
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 1);
        // The legitimate MX still validates and delivers under the old
        // policy during the outage.
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker1;".to_string()]),
            Err("still down".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(4),
        );
        assert_eq!(action, SenderAction::Deliver);
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 2);
    }

    #[test]
    fn garbage_refresh_document_keeps_old_policy() {
        // Same race, but the fetch "succeeds" with attacker-fed garbage.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker2;".to_string()]),
            Ok("HTTP garbage, not a policy".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(1),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 1);
    }

    #[test]
    fn expired_cache_does_not_fall_back() {
        // The fallback is bounded by max_age: once the cached policy
        // expires, a failed fetch degrades to unprotected delivery — the
        // attacker has outwaited the cache.
        let mut e = SenderEngine::new();
        let short = "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 3600\r\n";
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(short.to_string()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Err("blocked".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(2),
        );
        assert!(matches!(outcome, StsOutcome::PolicyUnavailable { .. }));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
        assert_eq!(e.fetch_fallbacks(), 0);
    }

    #[test]
    fn lookup_failure_after_expiry_keeps_enforcing() {
        // A `_mta-sts` lookup that fails (not NXDOMAIN) after `max_age`
        // must not release the domain to an attacker-chosen MX: the
        // retained enforce policy keeps governing, as in the queue and
        // the resolution daemon, and counts as a stale fallback.
        let mut e = SenderEngine::new();
        let short = "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 3600\r\n";
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(short.to_string()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, action) = eval(
            &mut e,
            None,
            Err("blocked".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::days(1),
        );
        assert_eq!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        );
        assert_eq!(action, SenderAction::Refuse);
        assert_eq!(e.fetch_fallbacks(), 1);
    }

    #[test]
    fn proper_removal_sequence_releases_domain() {
        // §2.6: publish none-mode policy with small max_age, new id, wait,
        // then remove everything.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Step 1-2: new id, none policy, max_age one day.
        let none_doc = "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n".to_string();
        let t1 = t0() + Duration::days(1);
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=removal1;".to_string()]),
            Ok(none_doc),
            "mx.example.com",
            Ok(()),
            t1,
        );
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::None,
                ..
            }
        ));
        // Step 3-4: after the old+new max_age elapsed, everything removed.
        let t2 = t1 + Duration::days(2);
        let (outcome, action) = eval(
            &mut e,
            Some(vec![]),
            Err("gone".into()),
            "mx.example.com",
            Ok(()),
            t2,
        );
        assert_eq!(outcome, StsOutcome::NotApplicable);
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }
}
