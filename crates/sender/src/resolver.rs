//! The shared-concurrency policy-resolution service: "how do I deliver
//! to domain X right now?" for millions of queued messages (paper
//! §2.4/§3.3).
//!
//! The resolution rule itself lives once, in
//! [`mtasts::resolve`](mod@mtasts::resolve); the per-message engine and
//! the queue's per-wave resolution call it one domain at a time. A long-running MTA answers the question for
//! hundreds of concurrent delivery workers, and the sender-side
//! measurements ("Lazy Gatekeepers", PAPERS.md) show that *this* layer —
//! what the cache does under live traffic — decides how much protection
//! MTA-STS actually delivers. This module wraps the rule in that
//! service:
//!
//! - **Shared cache** — one [`PolicyCache`], `RwLock`-per-shard: reads
//!   (the overwhelmingly common warm-path operation) take a shard read
//!   lock and never write, so they proceed concurrently; writes touch
//!   exactly one shard.
//! - **Single-flight refresh** — a thundering herd of N workers
//!   resolving the same cold domain triggers exactly **one** policy
//!   fetch: the first caller becomes the flight leader, the other N−1
//!   park on the in-flight slot (a condvar) and reuse the leader's
//!   result. Coalesced waits are counted.
//! - **Request admission** — the HTTPS fetch leg (the part that can
//!   hammer a small policy host) is gated by a
//!   [`netbase::rate::TokenBucket`]. The deterministic batch driver
//!   plans admission instants with [`TokenBucket::plan_admissions`],
//!   exactly as the parallel scanner's per-shard clocks do, and sheds
//!   requests whose admission would be delayed past the configured
//!   bound.
//! - **Kumomta egress semantics** — answers are the existing
//!   [`ResolvedPolicy`] / [`crate::enforce::TlsRequirement`] types, so
//!   cached policy *mode* adjusts the effective TLS requirement and the
//!   DANE/TLSA precedence rule of the queue is untouched (DANE is
//!   per-MX-host and stays with the attempt planner).
//! - **`/metrics`** — the service's counters (hits, fetches, coalesced
//!   waits, stale fallbacks, shed requests, …) render through the
//!   `obsv` Prometheus exporter; [`ResolverDaemon`] serves them over a
//!   real TCP socket.
//!
//! # Determinism contract
//!
//! Live concurrent [`PolicyResolver::resolve`] calls are scheduled by
//! the OS and make no ordering promise beyond single-flight. The
//! **batch** driver [`PolicyResolver::resolve_batch`] is the
//! deterministic surface: for a fixed `(cache state, source behaviour,
//! batch, submit instant)` its resolution ledger — and therefore
//! [`resolution_digest`] — is byte-identical at every `SCAN_THREADS`,
//! because classification is a pure read phase, fetch admission is
//! planned once on the single logical bucket, and stores fold back in
//! submission order.

use crate::pipeline::MxTransport;
use mtasts::{classify, settle, CachedPolicy, Classified, Mode, PolicyCache, ResolvedPolicy};
pub use mtasts::{Disposition, PolicyCache as ShardedPolicyCache};
use netbase::{map_sharded, DomainName, Duration, SimInstant, TokenBucket};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------
// Policy source
// ---------------------------------------------------------------------

/// Where policies come from: the `_mta-sts` TXT lookup and the
/// strict-TLS HTTPS fetch. Both must be pure functions of
/// `(domain, now)` for the batch driver's determinism contract to hold.
pub trait PolicySource: Sync {
    /// The `_mta-sts.<domain>` TXT strings; `None` when the lookup
    /// failed (SERVFAIL-class), `Some(vec![])` when the name does not
    /// exist.
    fn record_txts(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>>;

    /// Fetches the raw policy document over strict-TLS HTTPS.
    fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String>;
}

/// Adapts any queue transport into a [`PolicySource`], so the delivery
/// pipeline and the daemon resolve through one cache implementation.
pub struct TransportSource<'a, T: MxTransport + ?Sized>(pub &'a T);

impl<T: MxTransport + ?Sized> PolicySource for TransportSource<'_, T> {
    fn record_txts(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        self.0.sts_record(domain, now)
    }

    fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        self.0.fetch_sts_policy(domain, now)
    }
}

/// Sequential resolution through the shared cache — the delivery
/// pipeline's per-wave entry point (no admission, no flight: wave
/// resolution is already one-caller-per-domain by construction).
pub fn resolve_shared<S: PolicySource + ?Sized>(
    cache: &PolicyCache,
    source: &S,
    domain: &DomainName,
    now: SimInstant,
) -> (ResolvedPolicy, Disposition) {
    let txts = source.record_txts(domain, now);
    mtasts::resolve(
        cache,
        domain,
        txts.as_deref(),
        || source.fetch_policy(domain, now),
        now,
    )
}

/// The answer for a fetch the admission control refused.
fn shed() -> (ResolvedPolicy, Disposition) {
    (
        ResolvedPolicy::Unavailable {
            reason: "fetch shed by admission control".to_string(),
        },
        Disposition::Shed,
    )
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// The resolver's service counters. Monotonic, relaxed atomics: totals
/// are exact (every event increments exactly once), order is not
/// meaningful.
#[derive(Debug, Default)]
struct Metrics {
    requests: AtomicU64,
    hits: AtomicU64,
    hits_despite_dns: AtomicU64,
    fetches: AtomicU64,
    coalesced: AtomicU64,
    stale_fallbacks: AtomicU64,
    shed: AtomicU64,
    undeployed: AtomicU64,
    record_invalid: AtomicU64,
    unavailable: AtomicU64,
    evicted: AtomicU64,
    sweeps: AtomicU64,
    /// Wall-clock latency of live [`PolicyResolver::resolve`] calls in
    /// microseconds. A service observable (the `/metrics` surface
    /// reports p50/p95/p99 from it), never part of any deterministic
    /// ledger — which is why it may hold real timings.
    latency_us: Mutex<obsv::Histogram>,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// Total resolve calls answered (batch rows included).
    pub requests: u64,
    /// Decisions served from a fresh cache entry.
    pub hits: u64,
    /// Hits served through a failed record lookup (TOFU protection).
    pub hits_despite_dns: u64,
    /// Completed HTTPS policy fetches.
    pub fetches: u64,
    /// Callers that parked on an in-flight fetch and reused its result.
    pub coalesced: u64,
    /// RFC 8461 §3.3 stale fallbacks served.
    pub stale_fallbacks: u64,
    /// Fetches refused by admission control.
    pub shed: u64,
    /// Resolutions concluding MTA-STS does not apply.
    pub undeployed: u64,
    /// Resolutions hitting an invalid `_mta-sts` record.
    pub record_invalid: u64,
    /// Resolutions with no usable policy and no fallback.
    pub unavailable: u64,
    /// Entries dropped by expiry sweeps.
    pub evicted: u64,
    /// Expiry sweeps run.
    pub sweeps: u64,
    /// Live cache entries at snapshot time.
    pub cache_entries: u64,
}

impl Metrics {
    fn count(&self, disposition: Disposition) {
        let slot = match disposition {
            Disposition::Hit => &self.hits,
            Disposition::HitDespiteDns => &self.hits_despite_dns,
            Disposition::Fetched => &self.fetches,
            Disposition::Coalesced => &self.coalesced,
            Disposition::StaleFallback => &self.stale_fallbacks,
            Disposition::Shed => &self.shed,
            Disposition::Undeployed => &self.undeployed,
            Disposition::RecordInvalid => &self.record_invalid,
            Disposition::Unavailable => &self.unavailable,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Resolver
// ---------------------------------------------------------------------

/// Admission control for the fetch leg.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Sustained fetches per second.
    pub rate_per_sec: f64,
    /// Burst capacity.
    pub burst: u32,
    /// Batch driver: a fetch whose planned admission instant would lie
    /// more than this far past its submit instant is shed instead of
    /// queued. The live path sheds when no token is immediately
    /// available (a parked delivery worker cannot wait out a refill).
    pub max_delay: Duration,
}

/// Resolver tuning.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Cache shards (rounded up to a power of two).
    pub shards: usize,
    /// Fetch admission; `None` disables shedding entirely.
    pub admission: Option<AdmissionConfig>,
    /// Worker threads for [`PolicyResolver::resolve_batch`]
    /// (0 = read `SCAN_THREADS`, default 1).
    pub threads: usize,
}

impl Default for ResolverConfig {
    fn default() -> ResolverConfig {
        ResolverConfig {
            shards: 16,
            admission: None,
            threads: 0,
        }
    }
}

impl ResolverConfig {
    fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::env::var("SCAN_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    }
}

/// One in-flight fetch slot: the leader publishes its result here and
/// wakes every parked follower.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<(ResolvedPolicy, Disposition)>>,
    ready: Condvar,
}

/// One row of the resolution ledger — serializable, so the batch
/// driver's output digests like the delivery ledger does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resolution {
    /// Submission index within the batch (stable across thread counts).
    pub seq: u64,
    /// The recipient domain resolved.
    pub domain: DomainName,
    /// How the resolution was satisfied.
    pub disposition: Disposition,
    /// The governing policy's mode, when one applies.
    pub mode: Option<Mode>,
    /// Whether §3.3 stale fallback supplied the policy.
    pub stale: bool,
    /// The instant the resolution was performed at (admission clock for
    /// fetch leaders, submit instant otherwise).
    pub resolved_unix_secs: i64,
}

/// FNV-1a 64-bit over the serialized resolution ledger — the
/// byte-identity witness the 1-vs-8-thread tests and `exp_resolver`
/// compare.
pub fn resolution_digest(rows: &[Resolution]) -> String {
    let payload = serde_json::to_string(rows).expect("ledger serializes");
    format!("{:016x}", obsv::health::fnv64(payload.as_bytes()))
}

fn row_for(
    seq: u64,
    domain: &DomainName,
    resolved: &ResolvedPolicy,
    disposition: Disposition,
    at: SimInstant,
) -> Resolution {
    let (mode, stale) = match resolved {
        ResolvedPolicy::Active { policy, stale, .. } => (Some(policy.mode), *stale),
        _ => (None, false),
    };
    Resolution {
        seq,
        domain: domain.clone(),
        disposition,
        mode,
        stale,
        resolved_unix_secs: at.unix_secs(),
    }
}

/// The concurrent policy-resolution service.
pub struct PolicyResolver {
    cfg: ResolverConfig,
    cache: PolicyCache,
    /// Per-shard in-flight fetch slots (single-flight).
    inflight: Vec<Mutex<HashMap<DomainName, Arc<Flight>>>>,
    /// The single logical admission bucket (per-shard clocks are
    /// *planned* from it, as the scan engine does).
    bucket: Option<Mutex<TokenBucket>>,
    metrics: Metrics,
}

impl PolicyResolver {
    /// A resolver with an empty cache. `epoch` starts the admission
    /// bucket's clock.
    pub fn new(cfg: ResolverConfig, epoch: SimInstant) -> PolicyResolver {
        PolicyResolver::with_cache(cfg, epoch, Vec::new())
    }

    /// A resolver seeded from a cache snapshot (checkpoint resume, warm
    /// starts). Seeding never touches counters.
    pub fn with_cache(
        cfg: ResolverConfig,
        epoch: SimInstant,
        entries: Vec<(DomainName, CachedPolicy)>,
    ) -> PolicyResolver {
        let cache = PolicyCache::from_snapshot(entries, cfg.shards);
        let inflight = (0..cache.shard_count()).map(|_| Mutex::default()).collect();
        let bucket = cfg
            .admission
            .as_ref()
            .map(|a| Mutex::new(TokenBucket::new(a.rate_per_sec, a.burst, epoch)));
        PolicyResolver {
            cfg,
            cache,
            inflight,
            bucket,
            metrics: Metrics::default(),
        }
    }

    /// The underlying sharded cache (snapshots, sweeps, tests).
    pub fn cache(&self) -> &PolicyCache {
        &self.cache
    }

    /// A copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.metrics.requests.load(Ordering::Relaxed),
            hits: self.metrics.hits.load(Ordering::Relaxed),
            hits_despite_dns: self.metrics.hits_despite_dns.load(Ordering::Relaxed),
            fetches: self.metrics.fetches.load(Ordering::Relaxed),
            coalesced: self.metrics.coalesced.load(Ordering::Relaxed),
            stale_fallbacks: self.metrics.stale_fallbacks.load(Ordering::Relaxed),
            shed: self.metrics.shed.load(Ordering::Relaxed),
            undeployed: self.metrics.undeployed.load(Ordering::Relaxed),
            record_invalid: self.metrics.record_invalid.load(Ordering::Relaxed),
            unavailable: self.metrics.unavailable.load(Ordering::Relaxed),
            evicted: self.metrics.evicted.load(Ordering::Relaxed),
            sweeps: self.metrics.sweeps.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
        }
    }

    /// The counters as an `obsv` collector — the `/metrics` surface
    /// renders this through [`obsv::export::prometheus_text`].
    pub fn metrics_collector(&self) -> obsv::Collector {
        let snap = self.metrics();
        let mut c = obsv::Collector::new();
        let pairs: [(&'static str, u64); 13] = [
            ("resolver.requests", snap.requests),
            ("resolver.hits", snap.hits),
            ("resolver.hits_despite_dns", snap.hits_despite_dns),
            ("resolver.fetches", snap.fetches),
            ("resolver.coalesced_waits", snap.coalesced),
            ("resolver.stale_fallbacks", snap.stale_fallbacks),
            ("resolver.shed_requests", snap.shed),
            ("resolver.undeployed", snap.undeployed),
            ("resolver.record_invalid", snap.record_invalid),
            ("resolver.unavailable", snap.unavailable),
            ("resolver.evicted", snap.evicted),
            ("resolver.sweeps", snap.sweeps),
            ("resolver.cache_entries", snap.cache_entries),
        ];
        for (name, value) in pairs {
            *c.counters.entry(name).or_default() += value;
        }
        if let Ok(h) = self.metrics.latency_us.lock() {
            if h.count > 0 {
                c.histograms.insert("resolver.latency_us", h.clone());
            }
        }
        c
    }

    /// The Prometheus text exposition of the service counters.
    pub fn metrics_text(&self) -> String {
        obsv::export::prometheus_text(&self.metrics_collector())
    }

    /// Removes expired entries (the disposal path the decision logic
    /// deliberately does not take).
    pub fn sweep(&self, now: SimInstant) -> usize {
        let evicted = self.cache.evict_expired(now);
        self.metrics.sweeps.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        obsv::counter!("resolver.sweep_evicted", evicted as u64);
        evicted
    }

    /// Live concurrent resolution with single-flight refresh: any
    /// number of threads may call this; a cold domain triggers exactly
    /// one policy fetch, with every other caller parked on the flight
    /// slot and reusing the leader's result.
    pub fn resolve<S: PolicySource>(
        &self,
        source: &S,
        domain: &DomainName,
        now: SimInstant,
    ) -> (ResolvedPolicy, Disposition) {
        let started = std::time::Instant::now();
        let out = self.resolve_inner(source, domain, now);
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Ok(mut h) = self.metrics.latency_us.lock() {
            h.record(us);
        }
        out
    }

    fn resolve_inner<S: PolicySource>(
        &self,
        source: &S,
        domain: &DomainName,
        now: SimInstant,
    ) -> (ResolvedPolicy, Disposition) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let txts = source.record_txts(domain, now);

        // Warm path: one shard read lock, no writes anywhere.
        if let Classified::Served(resolved, disposition) =
            classify(&self.cache, domain, txts.as_deref(), now)
        {
            self.metrics.count(disposition);
            if matches!(disposition, Disposition::Hit | Disposition::HitDespiteDns) {
                obsv::counter!("resolver.hit");
            }
            return (resolved, disposition);
        }

        // Cold path: join or lead the flight for this domain.
        let shard = self.cache.shard_index(domain);
        let (flight, leader) = {
            let mut map = self.inflight[shard].lock().expect("inflight lock poisoned");
            match map.get(domain) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    map.insert(domain.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            // Park until the leader publishes, then reuse its result.
            let mut slot = flight.result.lock().expect("flight lock poisoned");
            while slot.is_none() {
                slot = flight.ready.wait(slot).expect("flight lock poisoned");
            }
            let (resolved, _) = slot.clone().expect("slot filled");
            self.metrics.count(Disposition::Coalesced);
            obsv::counter!("resolver.coalesced_wait");
            return (resolved, Disposition::Coalesced);
        }

        // Leader: classify again (the cache may have been filled between
        // the warm path and taking leadership — a just-landed policy
        // turns this flight into a hit without a second fetch).
        let outcome = match classify(&self.cache, domain, txts.as_deref(), now) {
            Classified::Served(resolved, disposition) => (resolved, disposition),
            Classified::NeedsFetch(record) => {
                let admitted = match &self.bucket {
                    Some(bucket) => bucket
                        .lock()
                        .expect("bucket lock poisoned")
                        .try_acquire(now),
                    None => true,
                };
                if admitted {
                    settle(
                        &self.cache,
                        domain,
                        &record,
                        source.fetch_policy(domain, now),
                        now,
                    )
                } else {
                    shed()
                }
            }
        };
        {
            let mut slot = flight.result.lock().expect("flight lock poisoned");
            *slot = Some(outcome.clone());
            flight.ready.notify_all();
        }
        self.inflight[shard]
            .lock()
            .expect("inflight lock poisoned")
            .remove(domain);
        self.metrics.count(outcome.1);
        if matches!(outcome.1, Disposition::Fetched) {
            obsv::counter!("resolver.fetch");
        }
        outcome
    }

    /// Deterministic batch resolution: resolves `domains` (a wave of
    /// requests submitted at `submitted`) and returns one ledger row
    /// per request, in submission order.
    ///
    /// Within the batch, duplicates of a domain that needs a fetch
    /// coalesce onto the first occurrence's fetch — the batch-mode face
    /// of single-flight.
    /// Fetch admission instants are planned once on the logical bucket
    /// via [`TokenBucket::plan_admissions`] (or the shedding variant
    /// when a delay bound is configured), so the ledger — and
    /// [`resolution_digest`] — is byte-identical at every thread count.
    pub fn resolve_batch<S: PolicySource>(
        &self,
        source: &S,
        domains: &[DomainName],
        submitted: SimInstant,
    ) -> Vec<Resolution> {
        let batch_started = std::time::Instant::now();
        let threads = self.cfg.effective_threads();
        self.metrics
            .requests
            .fetch_add(domains.len() as u64, Ordering::Relaxed);

        // Phase A (parallel, pure reads): record lookup + classification
        // per request. No entry is written in this phase, so every thread
        // count observes the same pre-wave cache.
        let classified: Vec<Classified> = map_sharded(threads, domains, |_, domain| {
            let txts = source.record_txts(domain, submitted);
            classify(&self.cache, domain, txts.as_deref(), submitted)
        });

        // Phase B (sequential): the first occurrence of each domain that
        // needs a fetch leads; later occurrences coalesce. Admission
        // plan: one instant per leader, from the single logical bucket
        // (deterministic per-shard clocks, as in the parallel scanner).
        // `None` = shed.
        let mut leader_of: HashMap<&DomainName, usize> = HashMap::new();
        let mut leaders: Vec<usize> = Vec::new();
        for (i, class) in classified.iter().enumerate() {
            if matches!(class, Classified::NeedsFetch(_)) {
                leader_of.entry(&domains[i]).or_insert_with(|| {
                    leaders.push(i);
                    i
                });
            }
        }
        let admissions: Vec<Option<SimInstant>> = match (&self.bucket, &self.cfg.admission) {
            (Some(bucket), Some(adm)) => {
                let mut bucket = bucket.lock().expect("bucket lock poisoned");
                leaders
                    .iter()
                    .map(|_| {
                        let wait = bucket.time_until_available(submitted);
                        if wait > adm.max_delay {
                            None
                        } else {
                            Some(bucket.acquire_at(submitted))
                        }
                    })
                    .collect()
            }
            _ => leaders.iter().map(|_| Some(submitted)).collect(),
        };

        // Phase C (parallel, pure in `(domain, instant)`): the fetches.
        let fetch_inputs: Vec<(usize, SimInstant)> = leaders
            .iter()
            .zip(&admissions)
            .filter_map(|(&i, at)| at.map(|at| (i, at)))
            .collect();
        let mut fetched = map_sharded(threads, &fetch_inputs, |_, &(i, at)| {
            source.fetch_policy(&domains[i], at)
        })
        .into_iter();

        // Phase D (sequential, submission order): settle leaders, folding
        // stores into the cache, then emit rows — coalesced followers
        // reuse their leader's resolution.
        let mut leader_outcome: HashMap<usize, (ResolvedPolicy, Disposition, SimInstant)> =
            HashMap::new();
        for (&i, admission) in leaders.iter().zip(&admissions) {
            let Classified::NeedsFetch(record) = &classified[i] else {
                unreachable!("leaders need a fetch by construction");
            };
            let ((resolved, disposition), at) = match *admission {
                None => (shed(), submitted),
                Some(at) => {
                    let body = fetched.next().expect("fetch ran for admitted leader");
                    (settle(&self.cache, &domains[i], record, body, at), at)
                }
            };
            leader_outcome.insert(i, (resolved, disposition, at));
        }

        let mut rows = Vec::with_capacity(domains.len());
        for (i, class) in classified.iter().enumerate() {
            let domain = &domains[i];
            let row = match class {
                Classified::Served(resolved, disposition) => {
                    self.metrics.count(*disposition);
                    row_for(i as u64, domain, resolved, *disposition, submitted)
                }
                Classified::NeedsFetch(_) => {
                    let leader = leader_of[domain];
                    let (resolved, disposition, at) =
                        leader_outcome.get(&leader).expect("leader resolved");
                    if leader == i {
                        self.metrics.count(*disposition);
                        row_for(i as u64, domain, resolved, *disposition, *at)
                    } else {
                        self.metrics.count(Disposition::Coalesced);
                        row_for(i as u64, domain, resolved, Disposition::Coalesced, *at)
                    }
                }
            };
            rows.push(row);
        }
        // Latency accounting: one sample per row at the batch's mean
        // per-row wall cost (individual rows aren't separately timed —
        // they run fused inside shard workers). Service observable only;
        // the ledger above is already sealed.
        if !rows.is_empty() {
            let us = u64::try_from(batch_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mean = us / rows.len() as u64;
            if let Ok(mut h) = self.metrics.latency_us.lock() {
                for _ in 0..rows.len() {
                    h.record(mean);
                }
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Daemon loop + /metrics
// ---------------------------------------------------------------------

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Simulated seconds between ticks.
    pub tick: Duration,
    /// Run an expiry sweep every this many ticks (0 = never).
    pub sweep_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            tick: Duration::minutes(1),
            sweep_every: 60,
        }
    }
}

/// Rolling daemon health, updated once per tick and served at
/// `/healthz`. Rides the flight recorder's [`obsv::timeseries::WindowSeries`]:
/// each tick folds its counter deltas into a tick-keyed window and sets
/// the cache-occupancy gauge, so "shed rate over the last window" is the
/// most recent window's delta, not a lifetime total.
#[derive(Debug, Default)]
pub struct DaemonHealth {
    /// Tick-keyed windows of per-tick counter deltas + gauges.
    pub windows: obsv::timeseries::WindowSeries,
    /// Ticks completed.
    pub ticks: u64,
    /// Ticks since the last expiry sweep ran.
    pub last_sweep_age_ticks: u64,
    /// Counter snapshot at the previous tick (delta base).
    last_shed: u64,
    last_requests: u64,
}

impl DaemonHealth {
    fn observe(&mut self, snap: &MetricsSnapshot, swept: bool) {
        let key = self.ticks as i64;
        let mut delta = obsv::timeseries::Window::default();
        let shed = snap.shed.saturating_sub(self.last_shed);
        let requests = snap.requests.saturating_sub(self.last_requests);
        if shed > 0 {
            delta.counters.insert("resolver.shed_requests", shed);
        }
        if requests > 0 {
            delta.counters.insert("resolver.requests", requests);
        }
        delta
            .gauges
            .insert("resolver.cache_entries", snap.cache_entries);
        self.windows.fold(key, &delta);
        self.last_shed = snap.shed;
        self.last_requests = snap.requests;
        self.ticks += 1;
        self.last_sweep_age_ticks = if swept {
            0
        } else {
            self.last_sweep_age_ticks + 1
        };
    }

    /// The `/healthz` body: current cache occupancy, last-window shed
    /// rate, and sweep recency, as one JSON object.
    pub fn to_json(&self) -> String {
        let last = self
            .windows
            .iter()
            .last()
            .map(|(_, w)| w.clone())
            .unwrap_or_default();
        let shed = last.counter("resolver.shed_requests");
        let requests = last.counter("resolver.requests");
        let cache_entries = last.gauge("resolver.cache_entries").unwrap_or(0);
        // Degraded when the last window shed more than half its load.
        let status = if requests > 0 && shed * 2 > requests {
            "degraded"
        } else {
            "ok"
        };
        format!(
            "{{\"status\":\"{status}\",\"ticks\":{},\"cache_entries\":{cache_entries},\
             \"shed_last_window\":{shed},\"requests_last_window\":{requests},\
             \"last_sweep_age_ticks\":{}}}\n",
            self.ticks, self.last_sweep_age_ticks
        )
    }
}

/// The long-running resolution service: a shared [`PolicyResolver`]
/// plus a deterministic tick loop (resolve the queued batch, advance
/// the clock, periodically sweep expired entries) and a `/metrics` +
/// `/healthz` endpoint pair served over TCP.
pub struct ResolverDaemon {
    cfg: DaemonConfig,
    resolver: Arc<PolicyResolver>,
    now: SimInstant,
    ticks: u64,
    health: Arc<Mutex<DaemonHealth>>,
}

impl ResolverDaemon {
    /// A daemon over an existing resolver, starting its clock at `now`.
    pub fn new(
        cfg: DaemonConfig,
        resolver: Arc<PolicyResolver>,
        now: SimInstant,
    ) -> ResolverDaemon {
        ResolverDaemon {
            cfg,
            resolver,
            now,
            ticks: 0,
            health: Arc::new(Mutex::new(DaemonHealth::default())),
        }
    }

    /// The shared resolver (hand clones to delivery workers).
    pub fn resolver(&self) -> Arc<PolicyResolver> {
        Arc::clone(&self.resolver)
    }

    /// The shared health state (hand clones to the serving thread).
    pub fn health(&self) -> Arc<Mutex<DaemonHealth>> {
        Arc::clone(&self.health)
    }

    /// The daemon's current simulated instant.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// One daemon tick: resolve the batch of requests that arrived
    /// since the last tick, advance the clock, and sweep expired
    /// entries on the configured cadence. Returns the tick's ledger.
    pub fn tick<S: PolicySource>(
        &mut self,
        source: &S,
        requests: &[DomainName],
    ) -> Vec<Resolution> {
        let rows = self.resolver.resolve_batch(source, requests, self.now);
        self.ticks += 1;
        let swept = self.cfg.sweep_every != 0 && self.ticks.is_multiple_of(self.cfg.sweep_every);
        if swept {
            self.resolver.sweep(self.now);
        }
        if let Ok(mut health) = self.health.lock() {
            health.observe(&self.resolver.metrics(), swept);
        }
        self.now += self.cfg.tick;
        rows
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `/metrics` — the
    /// resolver's counters in Prometheus text exposition — answering up
    /// to `max_requests` connections before returning (`None` = serve
    /// forever). Returns the bound local address via the callback so
    /// callers using port 0 learn the real port before serving starts.
    pub fn serve_metrics(
        resolver: Arc<PolicyResolver>,
        addr: &str,
        max_requests: Option<usize>,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> std::io::Result<()> {
        ResolverDaemon::serve(resolver, Arc::default(), addr, max_requests, on_bound)
    }

    /// Binds `addr` and serves both endpoints: `/metrics` (Prometheus
    /// exposition, latency quantiles included) and `/healthz` (cache
    /// occupancy, last-window shed rate, sweep recency — the state
    /// [`ResolverDaemon::tick`] maintains in the shared
    /// [`DaemonHealth`]). Answers up to `max_requests` connections
    /// before returning (`None` = serve forever); reports the bound
    /// address via `on_bound` so port-0 callers learn the real port.
    pub fn serve(
        resolver: Arc<PolicyResolver>,
        health: Arc<Mutex<DaemonHealth>>,
        addr: &str,
        max_requests: Option<usize>,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> std::io::Result<()> {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let mut served = 0usize;
        for stream in listener.incoming() {
            let mut stream = stream?;
            let mut buf = [0u8; 1024];
            let n = stream.read(&mut buf).unwrap_or(0);
            let request = String::from_utf8_lossy(&buf[..n]);
            let path = request
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap_or("/");
            let (status, content_type, body) = match path {
                "/metrics" => (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    resolver.metrics_text(),
                ),
                "/healthz" => {
                    let body = health
                        .lock()
                        .map(|h| h.to_json())
                        .unwrap_or_else(|_| String::from("{\"status\":\"poisoned\"}\n"));
                    ("200 OK", "application/json", body)
                }
                _ => (
                    "404 Not Found",
                    "text/plain; version=0.0.4",
                    String::from("see /metrics or /healthz\n"),
                ),
            };
            let response = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
            served += 1;
            if matches!(max_requests, Some(max) if served >= max) {
                break;
            }
        }
        Ok(())
    }
}
