//! `sender-queue`: the outbound queue with MTA-STS enforcement, over an
//! enforce-mode scenario world whose first primary MX of every domain
//! flaps, fed a skewed recipient mix — a few hot domains, a body of warm
//! ones and a long tail of single-message domains.

use crate::measure::{median, metric, secs, slope, timed, Rng};
use crate::{
    check_pin, run_passes, timed_outcome, trace_overhead_pct, traced_outcome, Opts, Outcome,
    PassSummary, WORKER_THREADS,
};
use mtasts::Mode;
use netbase::{DomainName, Duration, SimInstant};
use sender::scenario::{build, Degradation, Scenario, ScenarioSpec, StsDeployment};
use sender::{
    ledger_digest, resolve_shared, AdmissionConfig, DeliveryQueue, EnforcementConfig,
    FastTransport, MetricsSnapshot, PolicyResolver, QueueConfig, QueueOutcome, QueuedMessage,
    ResolverConfig, ShardedPolicyCache, TransportSource,
};
use std::time::Instant;

/// Ledger digest of the seed-42 full-size queue run (600 domains).
const QUEUE_PIN: &str = "94f6007924fa8815";

/// Recipient domains and messages of the full-size workload. The mix
/// below (a few hot domains, a warm body, a long tail) is an assumed
/// shape, not fitted to a measured recipient-domain distribution; what
/// it fixes is the number of distinct domains, which drives the queue's
/// cost. The size keeps one pass near 80 ms and its working set small.
/// On a shared 2-core host, the fastest pass over 3,000 domains (16,000
/// messages) took 0.85 s in quiet stretches and 2.2 s in slow ones that
/// outlasted a run. In six rounds of interleaved runs its fastest pass
/// ranged over 28% where that of a 300-domain pass ranged over 8%; in
/// four later rounds, a 600-domain pass ranged over 10%.
const DOMAINS: usize = 600;
const MESSAGES: usize = 3_200;
/// Hot domains, and messages per warm domain.
const HOT: usize = 8;
const WARM_EACH: usize = 8;

fn epoch() -> SimInstant {
    SimInstant::from_unix_secs(1_717_200_000)
}

/// The scenario world: `domains` enforce-mode recipient domains, each
/// with two preference-10 exchanges and a backup, the first of which
/// flaps (10 minutes down, 10 up) for the whole drain.
fn world(seed: u64, domains: usize, messages: usize) -> Scenario {
    let admission = QueueConfig::default().admission_spacing_secs;
    let span_secs = messages as i64 * admission;
    build(
        ScenarioSpec {
            seed,
            domains,
            messages_per_domain: 1,
            degradation: Degradation::FlappingMx {
                down_secs: 600,
                up_secs: 600,
                cycles: u32::try_from(span_secs / 1_200 + 1).expect("cycle count fits"),
            },
            sts: StsDeployment::None,
            epoch: epoch(),
        }
        .with_sts(Mode::Enforce),
    )
}

/// The skewed recipient mix: two thirds of the domains get one message
/// each, `HOT` domains share what the warm body (`WARM_EACH` messages
/// per domain) leaves over. Which domain lands in which tier, and the
/// submission order, come from the seed.
pub fn recipient_mix(seed: u64, domains: usize, messages: usize) -> Vec<QueuedMessage> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..domains).collect();
    rng.shuffle(&mut order);
    let tail = domains * 2 / 3;
    let warm = domains - tail - HOT;
    let hot_total = messages - tail - warm * WARM_EACH;
    let mut recipients: Vec<usize> = Vec::with_capacity(messages);
    for (rank, &d) in order.iter().enumerate() {
        let n = if rank < HOT {
            hot_total / HOT + usize::from(rank < hot_total % HOT)
        } else if rank < HOT + warm {
            WARM_EACH
        } else {
            1
        };
        recipients.extend(std::iter::repeat_n(d, n));
    }
    rng.shuffle(&mut recipients);
    recipients
        .iter()
        .enumerate()
        .map(|(seq, &d)| {
            QueuedMessage::new(
                &format!("m{seq}"),
                "queue@sender.test",
                &format!("user{seq}@d{d}.test"),
                &format!("benchmark message {seq}"),
            )
        })
        .collect()
}

fn queue_config(opts: &Opts) -> QueueConfig {
    QueueConfig {
        seed: opts.seed,
        threads: WORKER_THREADS,
        enforcement: Some(EnforcementConfig::default()),
        ..QueueConfig::default()
    }
}

fn summarize(out: QueueOutcome, messages: usize) -> Result<PassSummary, String> {
    let s = &out.stats;
    let n = messages as u64;
    if s.processed != n || out.records.len() != messages || out.suspended {
        return Err(format!("queue processed {} of {n} messages", s.processed));
    }
    if s.delivered != n {
        return Err(format!("queue delivered {} of {n} messages", s.delivered));
    }
    if s.intercepted != 0 {
        return Err(format!(
            "{} deliveries intercepted under enforce",
            s.intercepted
        ));
    }
    if s.delivered_validated != n {
        return Err(format!(
            "{} of {n} deliveries were MTA-STS validated",
            s.delivered_validated
        ));
    }
    Ok(PassSummary {
        digest: ledger_digest(&out.records),
        counts: vec![
            ("queue.attempts", s.attempts),
            ("queue.requeues", s.requeues),
            ("queue.failovers", s.failovers),
            ("queue.breaker_skips", s.breaker_skips),
            ("queue.stale_fallbacks", s.stale_fallbacks),
            ("queue.policy_ladder_skips", s.policy_ladder_skips),
        ],
        parts_ms: Vec::new(),
        attempted: n,
        failed: n - s.delivered,
    })
}

/// Cold then warm `resolve_shared` over every recipient domain, then
/// `ShardedPolicyCache::snapshot` of the filled cache: mean µs per
/// resolution and median ms per snapshot.
fn replay_cache(scenario: &Scenario) -> (f64, f64) {
    let transport = FastTransport::new(&scenario.world);
    let source = TransportSource(&transport);
    let cache = ShardedPolicyCache::new(ResolverConfig::default().shards);
    let domains: Vec<&DomainName> = scenario.topologies.iter().map(|t| &t.domain).collect();
    let started = Instant::now();
    for round in 0..2 {
        let now = epoch() + Duration::seconds(round * 60);
        for d in &domains {
            std::hint::black_box(resolve_shared(&cache, &source, d, now));
        }
    }
    let resolve_us = secs(started) * 1e6 / (2 * domains.len()) as f64;
    let snapshots: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cache.snapshot());
            secs(t) * 1e3
        })
        .collect();
    (resolve_us, median(&snapshots))
}

pub fn sender_queue(opts: &Opts) -> Result<Outcome, String> {
    let (domains, messages) = if opts.tiny {
        (60, 400)
    } else {
        (DOMAINS, MESSAGES)
    };
    let build = || {
        (
            world(opts.seed, domains, messages),
            recipient_mix(opts.seed, domains, messages),
        )
    };
    let (first_setup, (scenario, mix)) = timed(build);
    let transport = FastTransport::new(&scenario.world);
    let queue = DeliveryQueue::new(queue_config(opts));
    let passes = run_passes(
        "sender-queue",
        opts,
        first_setup,
        || timed(build).0,
        |t| {
            scenario.world.flush_dns_cache();
            t.next_run();
            t.part("sender.queue", |_| queue.run(&transport, &mix))
        },
        |out| summarize(out, messages),
    )?;
    let first = passes.first();
    check_pin("sender-queue", opts, &first.digest, QUEUE_PIN)?;
    let mut notes = vec![format!(
        "sender-queue: seed {}, {messages} messages to {domains} domains ({HOT} hot, {} warm x {WARM_EACH}, {} single), ledger digest {}",
        opts.seed,
        domains - domains * 2 / 3 - HOT,
        domains * 2 / 3,
        first.digest
    )];
    if !opts.trace {
        return Ok(timed_outcome(
            &passes,
            messages as f64,
            "sender.queue",
            notes,
        ));
    }

    let (resolve_us, snapshot_ms) = replay_cache(&scenario);
    let (batch_ms, resolver) = replay_resolver(&scenario, &mix);
    let (_, again) = replay_resolver(&scenario, &mix);
    if again != resolver {
        return Err(format!(
            "resolver work counters differ between replays: {resolver:?} vs {again:?}"
        ));
    }
    // Scale slope: the same replay over a quarter of the recipients.
    let quarter = world(opts.seed, domains / 4, messages / 4);
    let (_, quarter_snapshot_ms) = replay_cache(&quarter);
    let layers = vec![
        metric("bench.trace_overhead_pct", trace_overhead_pct(&passes), "%"),
        metric(
            "sender.queue_ms",
            median(&passes.tracer.durations_ms("sender.queue")),
            "ms",
        ),
        metric("sender.resolve_shared_us", resolve_us, "us"),
        metric("sender.cache_snapshot_ms", snapshot_ms, "ms"),
        metric(
            "sender.attempts_per_message",
            first.count("queue.attempts") as f64 / messages as f64,
            "ratio",
        ),
        metric(
            "sender.attempts",
            first.count("queue.attempts") as f64,
            "count",
        ),
        metric(
            "sender.failovers",
            first.count("queue.failovers") as f64,
            "count",
        ),
        metric(
            "sender.breaker_skips",
            first.count("queue.breaker_skips") as f64,
            "count",
        ),
        metric(
            "sender.stale_fallbacks",
            first.count("queue.stale_fallbacks") as f64,
            "count",
        ),
        metric(
            "sender.cache_snapshot.slope",
            slope(
                (domains / 4) as f64,
                quarter_snapshot_ms,
                domains as f64,
                snapshot_ms,
            ),
            "ratio",
        ),
        metric("resolver.batch_ms", batch_ms, "ms"),
        metric(
            "resolver.hit_ratio",
            resolver.hits as f64 / resolver.requests as f64,
            "ratio",
        ),
        metric("resolver.fetches", resolver.fetches as f64, "count"),
        metric("resolver.coalesced", resolver.coalesced as f64, "count"),
        metric("resolver.shed", resolver.shed as f64, "count"),
        metric(
            "resolver.stale_fallbacks",
            resolver.stale_fallbacks as f64,
            "count",
        ),
        metric("resolver.unavailable", resolver.unavailable as f64, "count"),
    ];
    notes.push(format!(
        "replay: resolve_shared cold and warm over {domains} domains, snapshot of a {domains}-entry cache (slope against {} entries), resolve_batch over the recipient stream in queue-wave batches",
        domains / 4
    ));
    Ok(traced_outcome(
        &passes,
        layers,
        format!(
            "{} resolver.requests={} resolver.hits={} resolver.fetches={} resolver.coalesced={} resolver.shed={}",
            first.counters_text(),
            resolver.requests,
            resolver.hits,
            resolver.fetches,
            resolver.coalesced,
            resolver.shed
        ),
        notes,
    ))
}

/// The policy-resolution service's batch engine on the workload's own
/// inputs: `PolicyResolver::resolve_batch` over the recipient stream, one
/// batch per queue wave at that wave's admission instant, with fetch
/// admission on. Returns the median ms per batch and the service
/// counters.
fn replay_resolver(scenario: &Scenario, mix: &[QueuedMessage]) -> (f64, MetricsSnapshot) {
    let transport = FastTransport::new(&scenario.world);
    let source = TransportSource(&transport);
    let config = ResolverConfig {
        shards: ResolverConfig::default().shards,
        // Generous enough that no batch's fetches are shed.
        admission: Some(AdmissionConfig {
            rate_per_sec: 200.0,
            burst: 1_000,
            max_delay: Duration::seconds(30),
        }),
        threads: WORKER_THREADS,
    };
    let resolver = PolicyResolver::new(config, epoch());
    let queue = QueueConfig::default();
    let batch_ms: Vec<f64> = mix
        .chunks(queue.wave_size)
        .enumerate()
        .map(|(w, wave)| {
            let domains: Vec<DomainName> = wave
                .iter()
                .filter_map(QueuedMessage::recipient_domain)
                .collect();
            let offset = (w * queue.wave_size) as i64 * queue.admission_spacing_secs;
            let started = Instant::now();
            std::hint::black_box(resolver.resolve_batch(
                &source,
                &domains,
                epoch() + Duration::seconds(offset),
            ));
            secs(started) * 1e3
        })
        .collect();
    (median(&batch_ms), resolver.metrics())
}
