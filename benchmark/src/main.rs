//! The RegMutex reproduction's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-matrix|fuzz-campaign|serve-mixed|fleet-journal> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` runs the workload untraced once and
//! traced once and prints the per-layer metrics. The human-readable
//! report goes to stderr; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong output
//! counts as a failed operation and makes the exit code non-zero.

mod catalogue;
mod fleet_journal;
mod fuzz_campaign;
mod host;
mod layers;
mod outcome;
mod paper_matrix;
mod serve_mixed;
mod spans;
mod stats;

use outcome::{Ctx, Outcome};
use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: regmutex-benchmark --workload <paper-matrix|fuzz-campaign|serve-mixed|fleet-journal> \
--seed <n> --seconds <s> --trace <0|1>\n       regmutex-benchmark --bless-reference";

#[derive(Debug, PartialEq)]
enum Cmd {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Bless,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args == ["--bless-reference"] {
        return Ok(Cmd::Bless);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !catalogue::WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}'"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Cmd::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checkout root: the current directory, which must hold the
/// repository (the goldens under `results/` and the crates).
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    for need in ["results/fig07_occupancy_boost.txt", "crates"] {
        if !root.join(need).exists() {
            return Err(format!("run from the repository root: {} is missing", need));
        }
    }
    Ok(root)
}

/// Write a traced pass's spans to `.bench_work/spans-<workload>.jsonl`
/// (next to the run's scratch directory, which is removed at exit).
pub fn write_spans(ctx: &Ctx, spans: &[spans::Span]) {
    let Some(dir) = ctx.work.parent() else { return };
    let path = dir.join(format!("spans-{}.jsonl", ctx.workload));
    if let Err(e) = std::fs::write(&path, spans::to_json_lines(spans)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// The traced run's bookkeeping: median untraced and traced pass walls
/// and the tracing overhead (their difference); then, for the last traced
/// pass, the summed layer self time of `spans` (the spans of its timed
/// part) and the share of its wall they cover. The rest of that wall is
/// unattributed: no traced call was running on any thread.
pub fn trace_summary(out: &mut Outcome, untraced: &[f64], traced: &[f64], spans: &[spans::Span]) {
    let n = traced.len();
    let last = traced.last().copied().unwrap_or(0.0);
    let (untraced, traced) = (stats::median(untraced), stats::median(traced));
    let overhead = traced - untraced;
    let self_s = spans::Profile::of(spans).total_self().as_secs_f64();
    let covered = spans::covered(spans).as_secs_f64();
    out.line(format!(
        "untraced wall {untraced:.4} s | traced wall {traced:.4} s (medians of {n} pair(s)) | \
         tracing overhead {overhead:+.4} s"
    ));
    out.line(format!(
        "last traced pass: wall {last:.4} s, spans cover {covered:.4} s, unattributed {:.4} s | \
         layer self time {self_s:.4} s summed over threads",
        last - covered
    ));
    out.metric("trace.overhead_s", overhead);
    out.metric("trace.self_time_s", self_s);
    out.metric("trace.unattributed_s", last - covered);
    out.metric("trace.untraced_wall_s", untraced);
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let names: Vec<(String, &'static str)> = if trace {
        catalogue::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalogue::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut parts = Vec::new();
    for (name, unit) in names {
        // A per-layer metric of a layer this workload does not drive reads
        // 0 (an end-to-end metric is always measured: `main` checks).
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = match checkout_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (workload, seed, seconds, trace) = match cmd {
        Cmd::Bless => {
            let path = root.join("benchmark/reference/paper_matrix_digests.txt");
            std::fs::write(&path, paper_matrix::render_reference())
                .expect("write the reference file");
            eprintln!("wrote {}", path.display());
            return;
        }
        Cmd::Run {
            workload,
            seed,
            seconds,
            trace,
        } => (workload, seed, seconds, trace),
    };
    let work = root
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        work: work.clone(),
        root,
    };
    let host = host::Host::detect();
    eprintln!("{}", host.line());
    eprintln!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    let out = match workload.as_str() {
        "paper-matrix" => paper_matrix::run(&ctx),
        "fuzz-campaign" => fuzz_campaign::run(&ctx),
        "serve-mixed" => serve_mixed::run(&ctx),
        "fleet-journal" => fleet_journal::run(&ctx),
        _ => unreachable!("validated by parse"),
    };
    let mut out = out;
    if trace {
        if !out
            .metrics
            .iter()
            .any(|(n, _)| n == "workloads.suite_build_ms")
        {
            let t = std::time::Instant::now();
            let built = regmutex_workloads::suite::all();
            out.metric("workloads.suite_build_ms", stats::ms(t.elapsed()));
            assert_eq!(built.len(), 16);
        }
    } else {
        for m in catalogue::END_TO_END {
            let value = out.metrics.iter().find(|(n, _)| n == m.name).map(|m| m.1);
            if !value.is_some_and(|v| v.is_finite() && v > 0.0) {
                out.attempted += 1;
                out.fail(format!("end-to-end metric {} reads {value:?}", m.name));
            }
        }
    }
    remove_work(&work);
    eprint!("{}", out.report);
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    eprintln!(
        "{} attempted, {} failed (failed_share {:.6})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", json_line(&out, trace));
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

fn remove_work(work: &Path) {
    if let Err(e) = std::fs::remove_dir_all(work) {
        eprintln!("warning: cannot remove {}: {e}", work.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            parse(&args(
                "--workload serve-mixed --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Cmd::Run {
                workload: "serve-mixed".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(parse(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse(&args("--workload serve-mixed --seed x --seconds 10")).is_err());
        assert!(parse(&args(
            "--workload serve-mixed --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&args("--workload serve-mixed --seconds 10")).is_err());
    }
}
