//! Timing, statistics and span recording shared by every workload.
//!
//! Spans are the benchmark's own: they wrap calls into the program's
//! public API from outside, so the program itself carries no
//! instrumentation. They are kept in memory and written out once, when
//! the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One named metric with its unit, as printed in the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a metric list without repeating the struct name.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (the mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `values`, up to the 99th, that still has
/// at least ten samples beyond it, as `(percentile, value)`. The cap
/// keeps thousands of samples from pushing the tail out to a few
/// scheduler hiccups. Below 21 samples no percentile above the median
/// has ten samples beyond it, and the maximum is reported as the 100th
/// percentile instead.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 20 {
        return (100.0, v[n - 1]);
    }
    // Ten samples lie strictly above index n - 11; the 99th percentile
    // sits at index ceil(0.99 n) - 1.
    let k = (n - 11).min((n * 99).div_ceil(100) - 1);
    (100.0 * (k + 1) as f64 / n as f64, v[k])
}

/// Log-log slope of cost between two sizes: 0 means the cost per call
/// is flat in the size, 1 means it grows linearly with it.
pub fn slope(size_small: f64, cost_small: f64, size_large: f64, cost_large: f64) -> f64 {
    (cost_large / cost_small).ln() / (size_large / size_small).ln()
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` once and returns its duration in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (secs(started), value)
}

/// Smallest of `values`.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `VmHWM` of this process in MB: the peak resident set.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on, visited in turn. Moving the
/// measuring thread to the next one between passes lets every driver
/// call's fastest time sample each core: on a shared host the cores
/// given to a process can be slowed by other tenants at different times,
/// and the scheduler keeps a lone busy thread on one core.
pub struct Cpus {
    allowed: Vec<usize>,
    next: usize,
}

impl Cpus {
    /// The CPUs the calling thread may run on now.
    pub fn allowed() -> Cpus {
        Cpus {
            allowed: affinity::get(),
            next: 0,
        }
    }

    /// Moves the calling thread onto the next allowed CPU.
    pub fn rotate(&mut self) {
        if self.allowed.len() > 1 {
            affinity::set(&self.allowed[self.next..=self.next]);
            self.next = (self.next + 1) % self.allowed.len();
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if self.allowed.len() > 1 {
            affinity::set(&self.allowed);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Bytes of a `cpu_set_t`: 1,024 CPUs.
    const SET_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    /// The calling thread's CPUs; empty if they cannot be read.
    pub fn get() -> Vec<usize> {
        let mut mask = [0u8; SET_BYTES];
        // SAFETY: `mask` is writable and as long as the size passed.
        if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..SET_BYTES * 8)
            .filter(|c| mask[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`. A refusal leaves the
    /// thread where it was, which only costs the benchmark its sampling
    /// of every core.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u8; SET_BYTES];
        for &c in cpus {
            mask[c / 8] |= 1 << (c % 8);
        }
        // SAFETY: `mask` is readable and as long as the size passed.
        unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_: &[usize]) {}
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// depend on the seed alone and not on the program's RNG streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One recorded span: a call into a layer, timed from outside.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. `open`/`close` nest like a call stack; the
/// innermost open span is the parent of the next one opened. A tracer
/// made with [`Tracer::off`] records no span, so the timed passes and the
/// traced passes share one driver; both time the driver calls a pass is
/// made of ([`Tracer::part`]).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    parts: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            parts: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Starts a new run id: spans of one pass share it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Runs `f`, one driver call a pass is made of, inside a span named
    /// `name`, and keeps its wall time in ms, in both modes. Parts do not
    /// nest.
    pub fn part<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let started = Instant::now();
        let out = self.span(name, f);
        self.parts.push((name, secs(started) * 1e3));
        out
    }

    /// The parts timed since the last call, in call order.
    pub fn take_parts(&mut self) -> Vec<(&'static str, f64)> {
        std::mem::take(&mut self.parts)
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Each span's self time: its duration minus the part of it its
    /// child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines: name, start, end, parent, run id and
    /// self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (100.0, 20.0));
        // Past 1,100 samples the 99th percentile caps the tail.
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 4950.0));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!(inner.parent, Some(0));
        let own = t.self_ns();
        assert_eq!(own[0], outer.duration_ns() - inner.duration_ns());
        assert_eq!(own[1], inner.duration_ns());
        assert!(t.to_jsonl().contains(&format!("\"self_ns\":{}", own[0])));
    }

    #[test]
    fn slope_of_linear_and_flat_costs() {
        assert!((slope(1.0, 2.0, 4.0, 8.0) - 1.0).abs() < 1e-12);
        assert!(slope(1.0, 2.0, 4.0, 2.0).abs() < 1e-12);
    }
}
