//! The repository benchmark: two workloads that drive the program's
//! public API end to end, with a timed mode for end-to-end metrics and
//! a traced mode for per-layer metrics.
//!
//! - `paper-study`: the paper reproduction at scale 0.01, from the
//!   generated ecosystem to every table and figure (`exp_all`'s work);
//! - `sender-queue`: the outbound queue with MTA-STS enforcement over a
//!   flapping-MX world and a skewed recipient mix.
//!
//! Every workload takes its inputs from the seed, checks its outputs
//! (a failed check is an `Err`, and no metric is printed), and reports
//! exact work counters that must repeat from pass to pass.

mod measure;
mod queue;
mod study;

pub use measure::Metric;

use measure::{median, metric, min, tail, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["paper-study", "sender-queue"];

/// End-to-end metrics, printed by every timed run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("items_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A workload that
/// makes no call into a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("bench.trace_overhead_pct", "%"),
    ("ecosystem.generate_ms", "ms"),
    ("ecosystem.advance_us", "us"),
    ("ecosystem.dirty", "count"),
    ("ecosystem.installed", "count"),
    ("ecosystem.reinstalled", "count"),
    ("simnet.resolve_us", "us"),
    ("simnet.fetch_policy_us", "us"),
    ("simnet.probe_mx_us", "us"),
    ("pkix.cert_verdict_us", "us"),
    ("core.parse_policy_us", "us"),
    ("core.record_eval_us", "us"),
    ("scanner.scan_domain_p50_us", "us"),
    ("scanner.scan_domain_tail_us", "us"),
    ("scanner.snapshot_ms", "ms"),
    ("scanner.snapshot_us_per_domain", "us"),
    ("scanner.cache_hit_ratio", "ratio"),
    ("scanner.cache_hits", "count"),
    ("scanner.cache_misses", "count"),
    ("scanner.weekly_ms", "ms"),
    ("scanner.weekly_reobserved", "count"),
    ("analysis.ms", "ms"),
    ("sender.queue_ms", "ms"),
    ("sender.resolve_shared_us", "us"),
    ("sender.cache_snapshot_ms", "ms"),
    ("sender.attempts_per_message", "ratio"),
    ("sender.attempts", "count"),
    ("sender.failovers", "count"),
    ("sender.breaker_skips", "count"),
    ("sender.stale_fallbacks", "count"),
    ("resolver.batch_ms", "ms"),
    ("resolver.hit_ratio", "ratio"),
    ("resolver.fetches", "count"),
    ("resolver.coalesced", "count"),
    ("resolver.shed", "count"),
    ("resolver.stale_fallbacks", "count"),
    ("resolver.unavailable", "count"),
    ("simnet.fetch_policy.slope", "ratio"),
    ("ecosystem.advance.slope", "ratio"),
    ("scanner.snapshot.slope", "ratio"),
    ("sender.cache_snapshot.slope", "ratio"),
];

/// Worker threads handed to the program's drivers, whose outputs are the
/// same for every count. One leaves a 2-core host's second core to the
/// rest of the machine.
pub(crate) const WORKER_THREADS: usize = 1;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the passes of one run measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub tiny: bool,
}

/// What one pass leaves behind once its output was checked.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PassSummary {
    /// Digest of the pass's outputs.
    pub digest: String,
    /// Exact work counters, by name.
    pub counts: Vec<(&'static str, u64)>,
    /// The driver calls the pass is made of, by name, with their wall
    /// time in ms, in call order.
    pub parts_ms: Vec<(&'static str, f64)>,
    /// Operations attempted and failed in the pass.
    pub attempted: u64,
    pub failed: u64,
}

impl PassSummary {
    /// The value of the work counter `name` (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The work counters as one canonical line.
    pub fn counters_text(&self) -> String {
        self.counts
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A workload's result, before it is printed.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run),
    /// in catalogue order.
    pub metrics: Vec<Metric>,
    /// The exact work counters every pass repeated.
    pub counters: String,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON lines.
    pub spans: Option<String>,
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "paper-study" => study::paper_study(opts),
        "sender-queue" => queue::sender_queue(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Checks that every pass produced the same outputs and work counters.
pub(crate) fn check_repeat(what: &str, passes: &[PassSummary]) -> Result<(), String> {
    let first = passes
        .first()
        .ok_or_else(|| format!("{what}: no pass ran"))?;
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.digest != first.digest {
            return Err(format!(
                "{what}: pass {i} output digest {} differs from pass 0's {}",
                p.digest, first.digest
            ));
        }
        if p.counts != first.counts {
            return Err(format!(
                "{what}: pass {i} work counters differ from pass 0's:\n  {}\n  {}",
                p.counters_text(),
                first.counters_text()
            ));
        }
    }
    Ok(())
}

/// Checks a digest against the value pinned for the default seed at full
/// size; other seeds and the self-test's tiny inputs have no pin and rely
/// on the repeat and ground-truth checks.
pub fn check_pin(what: &str, opts: &Opts, digest: &str, pinned: &str) -> Result<(), String> {
    if opts.seed == DEFAULT_SEED && !opts.tiny && digest != pinned {
        return Err(format!(
            "{what}: digest {digest} differs from the pinned seed-{DEFAULT_SEED} value {pinned}"
        ));
    }
    Ok(())
}

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 42;

/// The end-to-end metrics of a timed run: the median set-up, the pass
/// time, work items per second of it, the latency of the workload's
/// repeated driver call `call` (the median and the tail over the calls
/// of a pass), peak memory and the share of operations that did not
/// fail.
///
/// Every driver call of a pass is timed by its fastest time over the
/// passes, and the pass time is the sum of these: every pass makes the
/// same calls on the same inputs, and the host only ever adds time to
/// them, so the fastest time is the estimate least moved by the host
/// (Chen and Revels, "Robust benchmarking in noisy environments", 2016),
/// and taking it per call lets each call skip the host's slow moments on
/// its own. On a shared 2-core host, identical passes ran up to 3x
/// slower in some stretches, with user CPU time equal to wall time; the
/// minimum removes the slow stretches that last seconds, not the ones
/// that outlast a run.
fn end_to_end(passes: &Passes, items_per_pass: f64, call: &str) -> (Vec<Metric>, Vec<String>) {
    let plain = &passes.plain;
    let walls: Vec<f64> = plain.iter().map(|(w, _)| *w).collect();
    let parts = &plain[0].1.parts_ms;
    let best_parts: Vec<f64> = (0..parts.len())
        .map(|i| {
            let times: Vec<f64> = plain
                .iter()
                .map(|(_, p)| {
                    assert_eq!(
                        p.parts_ms.len(),
                        parts.len(),
                        "every pass makes the same calls"
                    );
                    assert_eq!(
                        p.parts_ms[i].0, parts[i].0,
                        "every pass makes the same calls"
                    );
                    p.parts_ms[i].1
                })
                .collect();
            min(&times)
        })
        .collect();
    let best_calls: Vec<f64> = parts
        .iter()
        .zip(&best_parts)
        .filter(|((name, _), _)| *name == call)
        .map(|(_, &ms)| ms)
        .collect();
    assert!(!best_calls.is_empty(), "a pass makes no {call} call");
    let calls = best_calls.len();
    let (attempted, failed) = passes.totals();
    let pass_s = best_parts.iter().sum::<f64>() / 1e3;
    let (pct, tail_ms) = tail(&best_calls);
    let metrics = vec![
        metric("setup_s", passes.setup_s(), "s"),
        metric("pass_s", pass_s, "s"),
        metric("items_per_s", items_per_pass / pass_s, "1/s"),
        metric("call_p50_ms", median(&best_calls), "ms"),
        metric("call_tail_ms", tail_ms, "ms"),
        metric("peak_rss_mb", measure::peak_rss_mb(), "MB"),
        metric(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let notes = vec![
        format!(
            "passes {} (wall s: {}); pass_s {pass_s:.6} s sums the fastest time of each of the {} driver calls of a pass; set-ups {}, median {:.6} s",
            walls.len(),
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            parts.len(),
            passes.setups.len(),
            passes.setup_s()
        ),
        format!(
            "calls: {call}, {calls} per pass, each timed by its fastest pass; call_tail_ms is their p{pct:.2} (the highest up to p99 with at least 10 calls beyond it; the slowest call below 21 calls)"
        ),
        format!(
            "fastest ms per driver call: {}",
            parts
                .iter()
                .zip(&best_parts)
                .map(|((name, _), ms)| format!("{name}={ms:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("items per pass {items_per_pass}; attempted {attempted}, failed {failed}"),
    ];
    (metrics, notes)
}

/// The outcome of a timed run: its end-to-end metrics, with `call` the
/// name of the part whose latency `call_p50_ms` and `call_tail_ms` give.
pub(crate) fn timed_outcome(
    passes: &Passes,
    items_per_pass: f64,
    call: &str,
    mut notes: Vec<String>,
) -> Outcome {
    let (metrics, more) = end_to_end(passes, items_per_pass, call);
    notes.extend(more);
    let (attempted, failed) = passes.totals();
    Outcome {
        attempted,
        failed,
        metrics,
        counters: passes.first().counters_text(),
        notes,
        spans: None,
    }
}

/// The outcome of a traced run: the per-layer catalogue filled from what
/// it measured, its work counters and its spans.
pub(crate) fn traced_outcome(
    passes: &Passes,
    layers: Vec<Metric>,
    counters: String,
    notes: Vec<String>,
) -> Outcome {
    let (attempted, failed) = passes.totals();
    Outcome {
        attempted,
        failed,
        metrics: per_layer(layers),
        counters,
        notes,
        spans: Some(passes.tracer.to_jsonl()),
    }
}

/// Fills the per-layer catalogue from the metrics a traced run measured:
/// each measured metric must be in the catalogue with the same unit, and
/// every layer the workload does not call reports 0.
fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        let known = PER_LAYER.iter().find(|(n, _)| *n == m.name);
        assert_eq!(
            known.map(|(_, u)| *u),
            Some(m.unit),
            "{} is not in the per-layer catalogue with unit {}",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

/// The trace overhead: how much slower the traced passes ran than the
/// plain passes of the same run, fastest against fastest, in percent.
pub(crate) fn trace_overhead_pct(passes: &Passes) -> f64 {
    let fastest = |v: &[(f64, PassSummary)]| min(&v.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    100.0 * (fastest(&passes.traced) / fastest(&passes.plain) - 1.0)
}

/// The passes of one run: untimed-checked summaries of the plain passes
/// and, in a traced run, of the passes made under the tracer, with the
/// run's set-up times.
pub(crate) struct Passes {
    pub plain: Vec<(f64, PassSummary)>,
    pub traced: Vec<(f64, PassSummary)>,
    pub tracer: Tracer,
    pub setups: Vec<f64>,
}

impl Passes {
    /// The first pass's summary (every pass repeats it).
    pub fn first(&self) -> &PassSummary {
        &self.plain[0].1
    }

    /// Operations attempted and failed over every pass.
    pub fn totals(&self) -> (u64, u64) {
        self.plain
            .iter()
            .chain(&self.traced)
            .fold((0, 0), |(a, f), (_, p)| (a + p.attempted, f + p.failed))
    }

    /// The median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }
}

/// Set-ups timed before the first pass.
pub(crate) const MIN_SETUPS: usize = 5;

/// Set-up time kept at this share of the measured pass time: set-ups
/// repeat between passes, so that their median spans the whole run
/// rather than the few seconds before it. A single set-up lasts
/// 2–15 ms, short enough for one slow stretch of the host to move it
/// by half.
pub(crate) const SETUP_SHARE: f64 = 0.05;

/// Passes every run makes at least, whatever `--seconds` says.
pub(crate) const MIN_PASSES: usize = 3;

/// Runs a workload's passes until they have measured the run's seconds
/// (checks between passes do not count), after one warm-up pass that is
/// checked but not timed. A traced run alternates plain and traced
/// passes, so both see the same machine state. Each pass is checked by
/// `summarize` outside the timed window, and every pass must repeat the
/// first one's digest and work counters. A pass times its driver calls
/// with [`Tracer::part`] and must make at least one. Each round of
/// passes runs on the next of the process's CPUs ([`measure::Cpus`]).
///
/// `first_setup` is the time of the set-up that built the passes'
/// inputs; `setup` builds them again, drops them and returns the time it
/// took. It runs until `MIN_SETUPS` set-ups are timed, then between
/// passes to keep set-up time at `SETUP_SHARE` of the measured time.
pub(crate) fn run_passes<T>(
    what: &str,
    opts: &Opts,
    first_setup: f64,
    mut setup: impl FnMut() -> f64,
    mut pass: impl FnMut(&mut Tracer) -> T,
    mut summarize: impl FnMut(T) -> Result<PassSummary, String>,
) -> Result<Passes, String> {
    let mut setups = vec![first_setup];
    while setups.len() < MIN_SETUPS {
        setups.push(setup());
    }
    let mut off = Tracer::off();
    let mut tracer = Tracer::new();
    let mut cpus = measure::Cpus::allowed();
    let mut timed = |t: &mut Tracer| -> Result<(f64, PassSummary), String> {
        let (wall, out) = measure::timed(|| pass(t));
        let mut s = summarize(out)?;
        s.parts_ms = t.take_parts();
        if s.parts_ms.is_empty() {
            return Err(format!("{what}: a pass timed no driver call"));
        }
        Ok((wall, s))
    };
    let warm_up = timed(&mut off)?.1;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while plain.len() < MIN_PASSES || measured < opts.seconds {
        cpus.rotate();
        let pass = timed(&mut off)?;
        measured += pass.0;
        plain.push(pass);
        if opts.trace {
            let pass = timed(&mut tracer)?;
            measured += pass.0;
            traced.push(pass);
        }
        while setups.iter().sum::<f64>() < SETUP_SHARE * measured {
            setups.push(setup());
        }
    }
    cpus.release();
    let all: Vec<PassSummary> = std::iter::once(warm_up)
        .chain(plain.iter().chain(&traced).map(|(_, p)| p.clone()))
        .collect();
    check_repeat(what, &all)?;
    Ok(Passes {
        plain,
        traced,
        tracer,
        setups,
    })
}

/// The stamp a result is only comparable under: host cores, compiler,
/// build profile, worker threads, seed, workload and mode.
pub fn stamp(workload: &str, opts: &Opts) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cores\":{cores},\"rustc\":\"{}\",\"profile\":\"{}\",\"threads\":{},\"seed\":{},\"workload\":\"{workload}\",\"trace\":{}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        WORKER_THREADS,
        opts.seed,
        u8::from(opts.trace)
    )
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with all their digits.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// A metric as read back from a saved output: name, value, unit.
type SavedMetric = (String, f64, String);

/// The stamp and metrics of one saved run output.
fn parse_output(text: &str) -> Result<(String, Vec<SavedMetric>), String> {
    let stamp = text
        .lines()
        .find_map(|l| l.strip_prefix("stamp "))
        .ok_or("output has no stamp line")?;
    let last = text.lines().last().ok_or("output is empty")?;
    let value: serde::Value =
        serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let serde::Value::Map(fields) = value else {
        return Err("result line is not an object".to_string());
    };
    let metrics = fields
        .into_iter()
        .find(|(k, _)| k == "metrics")
        .map(|(_, v)| v)
        .ok_or("result line has no metrics")?;
    let serde::Value::Map(metrics) = metrics else {
        return Err("metrics is not an object".to_string());
    };
    let mut out = Vec::new();
    for (name, m) in metrics {
        let serde::Value::Map(kv) = m else {
            return Err(format!("metric {name} is not an object"));
        };
        let mut value = None;
        let mut unit = String::new();
        for (k, v) in kv {
            match (k.as_str(), v) {
                ("value", serde::Value::F64(x)) => value = Some(x),
                ("value", serde::Value::I64(x)) => value = Some(x as f64),
                ("value", serde::Value::U64(x)) => value = Some(x as f64),
                ("unit", serde::Value::Str(u)) => unit = u,
                _ => {}
            }
        }
        out.push((
            name.clone(),
            value.ok_or(format!("metric {name} has no value"))?,
            unit,
        ));
    }
    Ok((stamp.to_string(), out))
}

/// Compares two saved run outputs metric by metric. Results whose
/// stamps differ were made under different conditions and are refused.
pub fn compare_outputs(a: &str, b: &str) -> Result<String, String> {
    let (stamp_a, metrics_a) = parse_output(a)?;
    let (stamp_b, metrics_b) = parse_output(b)?;
    if stamp_a != stamp_b {
        return Err(format!(
            "stamps differ, results are not comparable:\n  {stamp_a}\n  {stamp_b}"
        ));
    }
    let mut out = format!("stamp {stamp_a}\n");
    for (name, va, unit) in &metrics_a {
        let Some((_, vb, _)) = metrics_b.iter().find(|(n, _, _)| n == name) else {
            return Err(format!("metric {name} is missing from the second result"));
        };
        let change = if *va == 0.0 {
            String::new()
        } else {
            format!("{:+.2}%", 100.0 * (vb / va - 1.0))
        };
        out.push_str(&format!(
            "{name:<34} {va:>16.6} {vb:>16.6} {unit:<6} {change}\n"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall: f64, parts_ms: &[(&'static str, f64)]) -> (f64, PassSummary) {
        let summary = PassSummary {
            digest: String::new(),
            counts: Vec::new(),
            parts_ms: parts_ms.to_vec(),
            attempted: 4,
            failed: 0,
        };
        (wall, summary)
    }

    #[test]
    fn every_call_is_timed_by_its_fastest_pass() {
        let passes = Passes {
            plain: vec![
                pass(
                    0.0125,
                    &[("prep", 2.0), ("call", 1.0), ("call", 5.0), ("call", 2.0)],
                ),
                pass(
                    0.0095,
                    &[("prep", 2.5), ("call", 2.0), ("call", 4.0), ("call", 1.0)],
                ),
            ],
            traced: Vec::new(),
            tracer: Tracer::off(),
            setups: vec![0.3, 0.1, 0.2],
        };
        let (metrics, _) = end_to_end(&passes, 0.04, "call");
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 0.2);
        // Fastest time of each part: 2.0, 1.0, 4.0, 1.0 ms.
        assert!((value("pass_s") - 0.008).abs() < 1e-15);
        assert!((value("items_per_s") - 5.0).abs() < 1e-9);
        assert_eq!(value("call_p50_ms"), 1.0);
        assert_eq!(value("call_tail_ms"), 4.0);
        assert_eq!(value("ok_share"), 1.0);
    }
}
