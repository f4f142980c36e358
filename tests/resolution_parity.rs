//! One scripted policy world driven through all three sender-side
//! callers of the RFC 8461 §3.3 resolution rule — the per-message
//! `SenderEngine`, the queue's `resolve_shared`, and the daemon's
//! `PolicyResolver::resolve_batch` — which must agree at every step.
//!
//! The script walks one domain through first contact, a warm hit, an
//! `id` change with a dark policy host, a garbage refresh, a record
//! lookup failure while the policy is fresh, the same failure after
//! `max_age`, and finally removal (NXDOMAIN).
//!
//! ```sh
//! cargo test --release --test resolution_parity
//! ```

use mtasts::{DeliveryObservation, Mode, SenderEngine, StsOutcome};
use netbase::{DomainName, Duration, SimInstant};
use sender::{
    resolve_shared, Disposition, PolicyResolver, PolicySource, ResolverConfig, ShardedPolicyCache,
};

fn n(s: &str) -> DomainName {
    s.parse().unwrap()
}

fn t0() -> SimInstant {
    SimInstant::from_unix_secs(1_717_200_000)
}

const ENFORCE_ONE_DAY: &str =
    "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 86400\r\n";

/// What a caller concluded for one step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Class {
    Active {
        mode: Mode,
        from_cache: bool,
        stale: bool,
    },
    NotApplicable,
    RecordInvalid,
    Unavailable,
}

/// One step of the script: what DNS and the policy host answer.
struct Step {
    name: &'static str,
    at: SimInstant,
    record: Option<Vec<String>>,
    body: Result<String, String>,
    want: Class,
}

impl PolicySource for Step {
    fn record_txts(&self, _domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        self.record.clone()
    }

    fn fetch_policy(&self, _domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        self.body.clone()
    }
}

fn record(id: &str) -> Option<Vec<String>> {
    Some(vec![format!("v=STSv1; id={id};")])
}

fn script() -> Vec<Step> {
    let active = |from_cache, stale| Class::Active {
        mode: Mode::Enforce,
        from_cache,
        stale,
    };
    vec![
        Step {
            name: "first contact",
            at: t0(),
            record: record("id1"),
            body: Ok(ENFORCE_ONE_DAY.to_string()),
            want: active(false, false),
        },
        Step {
            name: "warm hit",
            at: t0() + Duration::hours(1),
            record: record("id1"),
            body: Err("warm hit must not fetch".to_string()),
            want: active(true, false),
        },
        Step {
            name: "id change, dark policy host",
            at: t0() + Duration::hours(2),
            record: record("id2"),
            body: Err("connection refused".to_string()),
            want: active(true, true),
        },
        Step {
            name: "garbage refresh",
            at: t0() + Duration::hours(3),
            record: record("id3"),
            body: Ok("<html>defaced</html>".to_string()),
            want: active(true, true),
        },
        Step {
            name: "SERVFAIL while fresh",
            at: t0() + Duration::hours(4),
            record: None,
            body: Err("no record id: no fetch".to_string()),
            want: active(true, false),
        },
        Step {
            name: "SERVFAIL after expiry",
            at: t0() + Duration::days(2),
            record: None,
            body: Err("no record id: no fetch".to_string()),
            want: active(true, true),
        },
        Step {
            name: "NXDOMAIN removal",
            at: t0() + Duration::days(2) + Duration::hours(1),
            record: Some(Vec::new()),
            body: Err("no record: no fetch".to_string()),
            want: Class::NotApplicable,
        },
    ]
}

fn engine_class(engine: &mut SenderEngine, step: &Step, domain: &DomainName) -> Class {
    let fallbacks = engine.fetch_fallbacks();
    let mx = n("mx.example.com");
    let (outcome, _) = engine.evaluate(DeliveryObservation {
        domain,
        record_txts: step.record.as_deref(),
        fetch_policy: || step.body.clone(),
        mx_host: &mx,
        check_mx_tls: || Ok(()),
        now: step.at,
    });
    let stale = engine.fetch_fallbacks() > fallbacks;
    match outcome {
        StsOutcome::Validated { mode, from_cache }
        | StsOutcome::Failed {
            mode, from_cache, ..
        } => Class::Active {
            mode,
            from_cache,
            stale,
        },
        StsOutcome::NotApplicable => Class::NotApplicable,
        StsOutcome::RecordInvalid(_) => Class::RecordInvalid,
        StsOutcome::PolicyUnavailable { .. } => Class::Unavailable,
    }
}

fn shared_class(cache: &ShardedPolicyCache, step: &Step, domain: &DomainName) -> Class {
    match resolve_shared(cache, step, domain, step.at).0 {
        mtasts::ResolvedPolicy::Active {
            policy,
            from_cache,
            stale,
        } => Class::Active {
            mode: policy.mode,
            from_cache,
            stale,
        },
        mtasts::ResolvedPolicy::NotApplicable => Class::NotApplicable,
        mtasts::ResolvedPolicy::RecordInvalid(_) => Class::RecordInvalid,
        mtasts::ResolvedPolicy::Unavailable { .. } => Class::Unavailable,
    }
}

fn batch_class(resolver: &PolicyResolver, step: &Step, domain: &DomainName) -> Class {
    let rows = resolver.resolve_batch(step, std::slice::from_ref(domain), step.at);
    let row = &rows[0];
    let active = |from_cache| Class::Active {
        mode: row.mode.expect("an active row carries its mode"),
        from_cache,
        stale: row.stale,
    };
    match row.disposition {
        Disposition::Fetched => active(false),
        Disposition::Hit | Disposition::HitDespiteDns | Disposition::StaleFallback => active(true),
        Disposition::Undeployed => Class::NotApplicable,
        Disposition::RecordInvalid => Class::RecordInvalid,
        Disposition::Unavailable | Disposition::Shed => Class::Unavailable,
        Disposition::Coalesced => unreachable!("a one-domain batch has no followers"),
    }
}

#[test]
fn engine_queue_and_daemon_resolve_alike() {
    let domain = n("example.com");
    let mut engine = SenderEngine::new();
    let cache = ShardedPolicyCache::new(ResolverConfig::default().shards);
    let resolver = PolicyResolver::new(ResolverConfig::default(), t0());
    for step in script() {
        let got = [
            engine_class(&mut engine, &step, &domain),
            shared_class(&cache, &step, &domain),
            batch_class(&resolver, &step, &domain),
        ];
        for (caller, class) in ["engine", "resolve_shared", "resolve_batch"]
            .iter()
            .zip(&got)
        {
            assert_eq!(class, &step.want, "step '{}': {caller}", step.name);
        }
    }
    // Every caller's cache ends with the same single entry.
    assert_eq!(engine.cache().snapshot(), cache.snapshot());
    assert_eq!(cache.snapshot(), resolver.cache().snapshot());
}
