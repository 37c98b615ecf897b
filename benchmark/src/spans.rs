//! In-memory span recorder for the traced run.
//!
//! Every public call the benchmark makes into a layer in a traced pass is
//! wrapped in a span named `layer.function`. Spans stay in memory until
//! the workload ends; then they are written out as JSON lines and folded
//! into per-layer self times. A span's self time is its duration minus
//! the part of its interval that its child spans cover (children may run
//! concurrently on other threads, so covered time is an interval union).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are offsets from the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// `layer.function`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Job, kernel or request id the span belongs to.
    pub job: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id (for a parent whose children start before it ends).
    pub fn open(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved `id`.
    pub fn close(&self, id: u64, parent: u64, name: &'static str, job: u64, start: Instant) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            job,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, parent, name, job, start);
        out
    }

    /// All spans recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let iv: Vec<(Duration, Duration)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            s.duration().saturating_sub(union_len(iv))
        })
        .collect()
}

/// Wall time during which at least one span was open, on any thread.
pub fn covered(spans: &[Span]) -> Duration {
    union_len(spans.iter().map(|s| (s.start, s.end)).collect())
}

/// Per-name and per-layer aggregates of one traced pass.
#[derive(Debug, Default)]
pub struct Profile {
    /// Durations of every span, by name.
    pub durations: HashMap<&'static str, Vec<Duration>>,
    /// Summed self time, by layer.
    pub layer_self: HashMap<&'static str, Duration>,
}

impl Profile {
    /// Fold a span list.
    pub fn of(spans: &[Span]) -> Profile {
        let mut p = Profile::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            p.durations.entry(s.name).or_default().push(s.duration());
            *p.layer_self.entry(s.layer()).or_default() += own;
        }
        p
    }

    /// Durations of `name` in a unit given by `scale` (e.g. [`crate::stats::ms`]).
    pub fn samples(&self, name: &str, scale: fn(Duration) -> f64) -> Vec<f64> {
        self.durations
            .get(name)
            .map(|v| v.iter().map(|d| scale(*d)).collect())
            .unwrap_or_default()
    }

    /// Summed self time of every layer.
    pub fn total_self(&self) -> Duration {
        self.layer_self.values().sum()
    }

    /// Self time of `layer` as a share of all attributed self time.
    pub fn share(&self, layer: &str) -> f64 {
        let total = self.total_self().as_secs_f64();
        let own = self.layer_self.get(layer).copied().unwrap_or_default();
        crate::stats::ratio(own.as_secs_f64(), total)
    }

    /// Human-readable per-layer table.
    pub fn render(&self) -> String {
        let mut layers: Vec<(&&str, &Duration)> = self.layer_self.iter().collect();
        layers.sort_by(|a, b| b.1.cmp(a.1));
        let mut out = String::new();
        for (layer, d) in layers {
            let _ = writeln!(
                out,
                "  {layer:<10} self {:>10.3} ms  ({:>5.1}%)",
                crate::stats::ms(*d),
                100.0 * self.share(layer)
            );
        }
        out
    }
}

/// Spans as JSON lines (one object per span), for offline inspection.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"job\":{}}}",
            s.id,
            s.parent,
            s.name,
            crate::stats::us(s.start),
            crate::stats::us(s.end),
            s.job
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100 with children 10..40 and 30..60 (overlapping, as two
        // worker threads would) and 80..120 (clipped to the parent);
        // grandchild 15..20 under the first child.
        let spans = vec![
            span(1, 0, "runner.batch", 0, 100),
            span(2, 1, "runner.job", 10, 40),
            span(3, 1, "runner.job", 30, 60),
            span(4, 1, "runner.job", 80, 120),
            span(5, 2, "sim.run_compiled", 15, 20),
        ];
        let own = self_times(&spans);
        let ms = |d: Duration| d.as_millis();
        assert_eq!(ms(own[0]), 100 - 50 - 20);
        assert_eq!(ms(own[1]), 30 - 5);
        assert_eq!(ms(own[2]), 30);
        assert_eq!(ms(own[3]), 40);
        assert_eq!(ms(own[4]), 5);
        let p = Profile::of(&spans);
        assert_eq!(ms(p.layer_self["runner"]), 30 + 25 + 30 + 40);
        assert_eq!(ms(p.layer_self["sim"]), 5);
        assert_eq!(ms(p.total_self()), 130);
        assert_eq!(ms(covered(&spans)), 120);
        assert_eq!(ms(covered(&spans[2..5])), 30 + 40 + 5);
    }

    #[test]
    fn tracer_nests_ids() {
        let t = Tracer::default();
        t.span("a.outer", 0, 7, |outer| {
            t.span("b.inner", outer, 7, |_| ());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(t.take().is_empty());
    }
}
