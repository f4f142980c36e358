//! The sender-side policy cache: trust-on-first-use with `max_age` expiry
//! and `id`-triggered refresh (RFC 8461 §3.3, paper §2.4).
//!
//! Senders cache a fetched policy for up to `max_age` seconds. On each
//! delivery they look up the `_mta-sts` record; when the record's `id`
//! differs from the cached one they refetch over HTTPS. When the *record*
//! lookup fails but a non-expired cached policy exists, the cached policy
//! still applies — that property is what makes a DNS-blocking attacker
//! unable to downgrade an already-seen domain (and what makes improper
//! removal, §2.6, cause lingering delivery failures).
//!
//! [`PolicyCache`] is the one cache type: the per-message engine, the
//! delivery queue and the resolution daemon all hold it, and
//! [`crate::resolve`](mod@crate::resolve) is the one place that acts on
//! its decisions.

use crate::policy::Policy;
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cached policy and its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedPolicy {
    /// The policy document.
    pub policy: Policy,
    /// The record `id` in effect when the policy was fetched.
    pub record_id: String,
    /// When the policy was fetched.
    pub fetched_at: SimInstant,
}

impl CachedPolicy {
    /// When this entry expires (`fetched_at + max_age`).
    ///
    /// Saturates: a hostile or nonsensical `max_age` (up to `u64::MAX`)
    /// must clamp to "the end of simulated time", never wrap into the
    /// past — a wrapped expiry would silently drop downgrade protection.
    pub fn expires_at(&self) -> SimInstant {
        let age_secs = i64::try_from(self.policy.max_age).unwrap_or(i64::MAX);
        SimInstant::from_unix_secs(self.fetched_at.unix_secs().saturating_add(age_secs))
    }

    /// Whether the entry is still fresh at `now`. `max_age = 0` entries
    /// are never fresh (the strict `<` makes the expiry boundary
    /// exclusive), so they can never be served from cache.
    pub fn is_fresh(&self, now: SimInstant) -> bool {
        now < self.expires_at()
    }
}

/// Why the cache asks the caller to fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshReason {
    /// Nothing cached for the domain.
    NoEntry,
    /// The cached entry has passed `max_age`.
    Expired,
    /// The DNS record's `id` changed.
    IdChanged,
}

/// What the cache says about a domain before a delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheDecision {
    /// Use this cached policy; no fetch needed.
    UseCached(CachedPolicy),
    /// Fetch (or refetch) the policy over HTTPS.
    Fetch(RefreshReason),
    /// The cached policy applies even though the current record is absent
    /// or unreadable (TOFU protection against downgrade-by-DNS-blocking).
    UseCachedDespiteDns(CachedPolicy),
}

/// The sender's policy cache, safe to share between threads.
///
/// Entries live in `RwLock`-per-shard maps: decisions take one shard
/// read lock and never write, so the warm path runs concurrently; a
/// store touches exactly one shard. A domain's shard is FNV-1a over its
/// labels, stable across runs and processes. Shard count changes
/// nothing observable: decisions, counters and [`snapshot`] bytes are
/// those of a one-shard cache.
///
/// `hits` counts decisions served from cache; `fetches` counts
/// **completed** fetches (a [`store`]) — a recommended fetch whose HTTPS
/// leg then fails does not inflate the counter, so `stats()` stays
/// reconcilable with TLSRPT/ledger totals.
///
/// [`snapshot`]: PolicyCache::snapshot
/// [`store`]: PolicyCache::store
#[derive(Debug)]
pub struct PolicyCache {
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    fetches: AtomicU64,
}

impl Default for PolicyCache {
    /// A one-shard cache (single-caller use).
    fn default() -> PolicyCache {
        PolicyCache::new(1)
    }
}

type Shard = HashMap<DomainName, CachedPolicy>;

/// FNV-1a 64-bit, fed incrementally.
fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard a domain maps to among `n` shards (`n` a power of two).
fn shard_index_for(domain: &DomainName, n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for label in domain.labels() {
        h = fnv64(h, label.as_bytes());
        h = fnv64(h, b".");
    }
    (h as usize) & (n - 1)
}

impl PolicyCache {
    /// An empty cache with `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> PolicyCache {
        PolicyCache::from_snapshot(Vec::new(), shards)
    }

    /// Rebuilds a cache from a [`snapshot`](PolicyCache::snapshot).
    /// Duplicate domains keep the last entry; counters start at zero —
    /// seeding is not traffic.
    pub fn from_snapshot(entries: Vec<(DomainName, CachedPolicy)>, shards: usize) -> PolicyCache {
        let n = shards.max(1).next_power_of_two();
        let mut maps: Vec<Shard> = (0..n).map(|_| Shard::new()).collect();
        for (domain, entry) in entries {
            maps[shard_index_for(&domain, n)].insert(domain, entry);
        }
        PolicyCache {
            shards: maps.into_iter().map(RwLock::new).collect(),
            hits: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `domain` lives in.
    pub fn shard_index(&self, domain: &DomainName) -> usize {
        shard_index_for(domain, self.shards.len())
    }

    fn read(&self, domain: &DomainName) -> RwLockReadGuard<'_, Shard> {
        self.shards[self.shard_index(domain)]
            .read()
            .expect("shard lock poisoned")
    }

    fn write(&self, domain: &DomainName) -> RwLockWriteGuard<'_, Shard> {
        self.shards[self.shard_index(domain)]
            .write()
            .expect("shard lock poisoned")
    }

    /// The decision for `domain`, given the outcome of the `_mta-sts`
    /// record lookup (`Some(id)` when a valid record was read, `None`
    /// when the record was absent or unreadable), under one shard read
    /// lock. Counts a hit when the decision is served from cache; fetch
    /// completions are counted by [`store`]. The entry is borrowed for
    /// the whole classification; a `Policy` clone happens only in the
    /// `UseCached*` arms that hand it out.
    ///
    /// Expired entries are **never** evicted here, whatever the record
    /// lookup said: when a DNS outage coincides with expiry the entry is
    /// exactly what the RFC 8461 §3.3 stale fallback needs, so disposal
    /// belongs to the caller ([`evict`] / [`evict_expired`]), not to the
    /// decision.
    ///
    /// [`store`]: PolicyCache::store
    /// [`evict`]: PolicyCache::evict
    /// [`evict_expired`]: PolicyCache::evict_expired
    pub fn assess(
        &self,
        domain: &DomainName,
        current_record_id: Option<&str>,
        now: SimInstant,
    ) -> CacheDecision {
        let decision = match (self.read(domain).get(domain), current_record_id) {
            (Some(cached), Some(id)) if cached.is_fresh(now) && cached.record_id == id => {
                CacheDecision::UseCached(cached.clone())
            }
            (Some(cached), Some(_id_changed)) if cached.is_fresh(now) => {
                CacheDecision::Fetch(RefreshReason::IdChanged)
            }
            (Some(cached), None) if cached.is_fresh(now) => {
                // Record gone/unreadable but policy still valid: keep
                // enforcing (this is the RFC's protection, and the §2.6
                // removal-ordering hazard).
                CacheDecision::UseCachedDespiteDns(cached.clone())
            }
            (Some(_expired), _) => CacheDecision::Fetch(RefreshReason::Expired),
            (None, _) => CacheDecision::Fetch(RefreshReason::NoEntry),
        };
        if !matches!(decision, CacheDecision::Fetch(_)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    /// Stores a freshly fetched policy. This is the fetch-completion
    /// point: the `fetches` counter increments here, not when a fetch is
    /// merely *recommended*, so failed HTTPS legs never inflate it.
    pub fn store(&self, domain: DomainName, policy: Policy, record_id: &str, now: SimInstant) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let entry = CachedPolicy {
            policy,
            record_id: record_id.to_string(),
            fetched_at: now,
        };
        self.write(&domain).insert(domain, entry);
    }

    /// A copy of the raw entry, fresh or not (stale fallback, tests).
    pub fn peek(&self, domain: &DomainName) -> Option<CachedPolicy> {
        self.read(domain).get(domain).cloned()
    }

    /// Removes the entry for `domain`.
    pub fn evict(&self, domain: &DomainName) -> bool {
        self.write(domain).remove(domain).is_some()
    }

    /// Removes every expired entry; returns how many were dropped.
    pub fn evict_expired(&self, now: SimInstant) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let mut map = shard.write().expect("shard lock poisoned");
                let before = map.len();
                map.retain(|_, e| e.is_fresh(now));
                before - map.len()
            })
            .sum()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(cache uses, completed fetches)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.fetches.load(Ordering::Relaxed),
        )
    }

    /// A serializable snapshot of every entry, sorted by domain so the
    /// bytes are canonical whatever the shard count (checkpoint digests
    /// depend on it). Counters are deliberately excluded: they are
    /// run-local instrumentation, not protocol state.
    pub fn snapshot(&self) -> Vec<(DomainName, CachedPolicy)> {
        let mut entries = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let map = shard.read().expect("shard lock poisoned");
            entries.extend(map.iter().map(|(d, e)| (d.clone(), e.clone())));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Mode, MxPattern, Policy};
    use netbase::{Duration, SimDate};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn policy(max_age: u64) -> Policy {
        Policy::new(
            Mode::Enforce,
            max_age,
            vec![MxPattern::parse("mx.example.com").unwrap()],
        )
    }

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    #[test]
    fn first_contact_fetches() {
        let cache = PolicyCache::default();
        assert_eq!(
            cache.assess(&n("example.com"), Some("id1"), t0()),
            CacheDecision::Fetch(RefreshReason::NoEntry)
        );
    }

    #[test]
    fn fresh_entry_with_same_id_is_used() {
        let cache = PolicyCache::default();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        let later = t0() + Duration::days(3);
        let CacheDecision::UseCached(entry) = cache.assess(&n("example.com"), Some("id1"), later)
        else {
            panic!("expected cached use")
        };
        assert_eq!(entry.record_id, "id1");
    }

    #[test]
    fn id_change_triggers_refetch() {
        let cache = PolicyCache::default();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        assert_eq!(
            cache.assess(&n("example.com"), Some("id2"), t0() + Duration::hours(1)),
            CacheDecision::Fetch(RefreshReason::IdChanged)
        );
    }

    #[test]
    fn expiry_triggers_refetch() {
        let cache = PolicyCache::default();
        cache.store(n("example.com"), policy(3600), "id1", t0());
        assert_eq!(
            cache.assess(&n("example.com"), Some("id1"), t0() + Duration::hours(2)),
            CacheDecision::Fetch(RefreshReason::Expired)
        );
    }

    #[test]
    fn dns_outage_does_not_downgrade() {
        // Record lookup fails, but the cached policy is fresh: MTA-STS
        // still applies (TOFU downgrade protection).
        let cache = PolicyCache::default();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        let decision = cache.assess(&n("example.com"), None, t0() + Duration::days(1));
        assert!(matches!(decision, CacheDecision::UseCachedDespiteDns(_)));
    }

    #[test]
    fn record_removed_and_cache_expired_recommends_fetch_but_keeps_entry() {
        // Regression (stale-fallback erasure): the old `decide` evicted
        // the entry in the (expired, no-record) arm, so a DNS outage
        // coinciding with expiry erased exactly the entry the §3.3
        // stale fallback needs. The decision still says Fetch(Expired);
        // disposal is the caller's (`evict_expired`), not the decision's.
        let cache = PolicyCache::default();
        cache.store(n("example.com"), policy(3600), "id1", t0());
        let decision = cache.assess(&n("example.com"), None, t0() + Duration::days(1));
        assert_eq!(decision, CacheDecision::Fetch(RefreshReason::Expired));
        assert!(
            cache.peek(&n("example.com")).is_some(),
            "expired entry must survive the decision for stale fallback"
        );
        // Explicit disposal still works.
        assert_eq!(cache.evict_expired(t0() + Duration::days(1)), 1);
        assert!(cache.peek(&n("example.com")).is_none());
    }

    #[test]
    fn eviction() {
        let cache = PolicyCache::default();
        cache.store(n("a.com"), policy(3600), "1", t0());
        cache.store(n("b.com"), policy(604_800), "1", t0());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evict_expired(t0() + Duration::hours(2)), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.evict(&n("b.com")));
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_count_uses_and_completed_fetches() {
        let cache = PolicyCache::default();
        let _ = cache.assess(&n("a.com"), Some("1"), t0()); // fetch recommended
        cache.store(n("a.com"), policy(3600), "1", t0()); // fetch completed
        let _ = cache.assess(&n("a.com"), Some("1"), t0()); // hit
        let _ = cache.assess(&n("a.com"), Some("2"), t0()); // fetch recommended (id)
                                                            // Only the completed fetch counts; the two recommendations alone
                                                            // don't.
        assert_eq!(cache.stats(), (1, 1));
        cache.store(n("a.com"), policy(3600), "2", t0());
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn failed_fetch_does_not_inflate_fetch_counter() {
        // Regression (counter drift): a caller whose HTTPS fetch fails
        // after `assess` recommended one must not shift `stats()` away
        // from the TLSRPT/ledger totals — the counter moves on `store`.
        let cache = PolicyCache::default();
        for _ in 0..5 {
            let d = cache.assess(&n("a.com"), Some("1"), t0());
            assert!(matches!(d, CacheDecision::Fetch(_)));
            // Simulated fetch failure: the caller never stores.
        }
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn max_age_zero_is_never_served() {
        let cache = PolicyCache::default();
        cache.store(n("a.com"), policy(0), "1", t0());
        // Not even at the very instant it was stored.
        assert_eq!(
            cache.assess(&n("a.com"), Some("1"), t0()),
            CacheDecision::Fetch(RefreshReason::Expired)
        );
        // And a record outage must not serve it either: the entry is
        // expired, so the decision is a fetch (the entry itself survives
        // for the caller's stale-fallback policy to dispose of).
        cache.store(n("a.com"), policy(0), "1", t0());
        assert_eq!(
            cache.assess(&n("a.com"), None, t0()),
            CacheDecision::Fetch(RefreshReason::Expired)
        );
        assert!(cache.peek(&n("a.com")).is_some());
    }

    #[test]
    fn huge_max_age_saturates_instead_of_overflowing() {
        // u32::MAX seconds (~136 years) and u64::MAX (which does not even
        // fit i64) must both clamp, not wrap into the past.
        for max_age in [u64::from(u32::MAX), u64::MAX] {
            let cache = PolicyCache::default();
            cache.store(n("a.com"), policy(max_age), "1", t0());
            let entry = cache.peek(&n("a.com")).unwrap();
            assert!(
                entry.expires_at() > t0(),
                "max_age={max_age} wrapped into the past"
            );
            let far_future = t0() + Duration::days(365 * 100);
            assert!(entry.is_fresh(far_future), "max_age={max_age}");
            assert!(matches!(
                cache.assess(&n("a.com"), Some("1"), far_future),
                CacheDecision::UseCached(_)
            ));
        }
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        let cache = PolicyCache::default();
        cache.store(n("a.com"), policy(3600), "1", t0());
        let exactly = t0() + Duration::seconds(3600);
        // At exactly max_age the entry is expired (strict <).
        assert_eq!(
            cache.assess(&n("a.com"), Some("1"), exactly),
            CacheDecision::Fetch(RefreshReason::Expired)
        );
    }
}
