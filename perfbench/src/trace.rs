//! In-memory spans around each call the benchmark makes into a layer, the
//! percentile rule the timings are reported by, and the counting allocator
//! of the traced build.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (`add_peers`, `round`, `snapshot`, ...).
    pub name: &'static str,
    /// The engine the call went to.
    pub engine: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans kept in memory and written out once, at the end of the run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// Runs `f` and records its wall time as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        engine: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, engine, start_ns, dur_ns });
        out
    }

    /// Wall seconds of the latest span.
    pub fn last_secs(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur_ns as f64 / 1e9)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.ms_since(name, 0)
    }

    /// [`Spans::ms`] over the spans recorded since span number `since`.
    pub fn ms_since(&self, name: &str, since: usize) -> Vec<f64> {
        let spans = &self.spans[since..];
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"name":"{}","engine":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.name, s.engine, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `v` that has at least ten samples beyond it
/// (the largest sample when there are fewer than eleven).
pub fn tail(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.len().checked_sub(11).or(s.len().checked_sub(1)).map_or(0.0, |i| s[i])
}

/// Allocations and bytes requested since the process started (the traced
/// build's counting allocator; zero in the timed build).
pub fn allocations() -> (u64, u64) {
    #[cfg(feature = "trace")]
    {
        (nylon_bench::counting_alloc::allocations(), nylon_bench::counting_alloc::bytes_allocated())
    }
    #[cfg(not(feature = "trace"))]
    {
        (0, 0)
    }
}
