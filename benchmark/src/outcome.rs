//! What one workload run hands back to `main`: operation counts, the
//! correctness verdict, metric values and a human-readable report.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::{median, percentile, quartiles};

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed: permutes or draws the inputs, nothing else.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Scratch directory for journals and stores; removed at exit.
    pub work: PathBuf,
    /// Repository checkout root (holds `results/`).
    pub root: PathBuf,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub report: String,
}

impl Outcome {
    /// Record one operation and whether its output was right.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Append a report line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        let _ = writeln!(self.report, "{}", text.as_ref());
    }

    /// Report a per-pass sample series with its median and quartiles.
    pub fn series(&mut self, label: &str, unit: &str, values: &[f64]) {
        let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
        self.line(format!(
            "{label:<28} median {:>10.4} {unit:<8} q1 {q1:>10.4}  q3 {q3:>10.4}  n={}",
            median(values),
            values.len()
        ));
    }
}

/// Percentile for a per-layer metric: reported even when thin, with the
/// sample count in the report so a thin tail is visible; 0 when empty.
pub fn layer_percentile(out: &mut Outcome, name: &str, values: &[f64], p: f64) {
    match percentile(values, p) {
        Some(pc) => {
            let note = if pc.supported() {
                ""
            } else {
                "  (fewer than 10 beyond: indicative)"
            };
            out.line(format!(
                "  {name:<36} {:>12.4}  n={} beyond={}{note}",
                pc.value, pc.n, pc.beyond
            ));
            out.metric(name, pc.value);
        }
        None => {
            out.line(format!("  {name:<36} {:>12}  n=0 (layer not exercised)", 0));
            out.metric(name, 0.0);
        }
    }
}

/// Run measured passes until the time budget is spent: at least `min`
/// passes, and no new pass once the next one would overrun the budget
/// (judged by the slowest pass so far, set-up and checks included).
pub fn passes(ctx: &Ctx, min: usize, mut pass: impl FnMut(usize)) -> usize {
    let budget = std::time::Duration::from_secs_f64(ctx.seconds);
    let started = std::time::Instant::now();
    let mut slowest = std::time::Duration::ZERO;
    let mut n = 0;
    while n < min || started.elapsed() + slowest <= budget {
        let t = std::time::Instant::now();
        pass(n);
        slowest = slowest.max(t.elapsed());
        n += 1;
    }
    n
}
