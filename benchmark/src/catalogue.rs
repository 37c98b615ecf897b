//! The metric catalogue: every metric the benchmark can print, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names,
//! units and directions (a self-test keeps the two in step).

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper-matrix",
    "fuzz-campaign",
    "serve-mixed",
    "fleet-journal",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. Every workload reports every one of them.
#[derive(Debug, Clone)]
// `better` and `bound` are read by the self-test that keeps
// BENCHMARK.json in step with this table.
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics (untraced runs).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// One per-layer metric (traced runs; no bound).
#[derive(Debug, Clone)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics, grouped by layer (crate) name.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher as H, Lower as L};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
    };
    add("workloads.suite_build_ms", "ms", L);

    add("model.regmutex_cycle_reduction_pct", "%", H);
    add("model.half_rf_cycle_increase_pct", "%", L);

    add("compiler.calls", "count", L);
    add("compiler.ms.p50", "ms", L);
    add("compiler.ms.p99", "ms", L);
    add("compiler.share", "ratio", L);
    add("compiler.transformed_ratio", "ratio", H);

    add("sim.calls", "count", L);
    add("sim.ms.p50", "ms", L);
    add("sim.ms.p99", "ms", L);
    add("sim.share", "ratio", L);
    add("sim.mcycles_per_s", "Mcycles/s", H);
    add("sim.minstr_per_s", "Minstr/s", H);
    add("sim.skipped_cycle_share", "ratio", H);
    add("sim.step_calls_per_kcycle", "1/kcycle", L);

    add("core.acquire_attempts", "count", L);
    add("core.acquire_success_rate", "ratio", H);
    add("core.spills", "count", L);
    add("core.achieved_occupancy_warps", "warps", H);
    add("core.empty_scheduler_share", "ratio", L);
    for reason in regmutex_sim::StallReason::ALL {
        add(
            &format!("core.stall_cpi.{}", reason.as_str()),
            "cycles/instr",
            L,
        );
    }

    add("runner.fingerprint_us.p50", "us", L);
    add("runner.cache_hits", "count", H);
    add("runner.cache_misses", "count", L);
    add("runner.hit_ratio", "ratio", H);
    add("runner.evictions", "count", L);
    add("runner.busy_share", "ratio", H);
    add("runner.tail_ms", "ms", L);

    add("fuzz.generate_us.p50", "us", L);
    add("fuzz.oracle_us.p50", "us", L);
    add("fuzz.runs_per_kernel", "runs", L);
    add("fuzz.escalations", "count", L);
    add("fuzz.divergences", "count", L);

    add("server.http_parse_us.p50", "us", L);
    add("server.decode_us.p50", "us", L);
    add("server.encode_us.p50", "us", L);
    add("server.queue_wait_ms.p90", "ms", L);
    add("server.warm_p50_ms", "ms", L);
    add("server.warm_p99_ms", "ms", L);
    add("server.cold_p50_ms", "ms", L);
    add("server.cold_p90_ms", "ms", L);
    add("server.max_rate_rps", "1/s", H);
    add("server.cache_hit_ratio", "ratio", H);
    add("server.rejected_total", "count", L);
    add("server.requests_per_connection", "requests", H);
    add("loadgen.lag_ms.p99", "ms", L);
    add("loadgen.failed_share", "ratio", L);
    for step in ["reference", "ladder"] {
        add(&format!("loadgen.{step}.sent"), "count", H);
        add(&format!("loadgen.{step}.ok"), "count", H);
        add(&format!("loadgen.{step}.rejected_429"), "count", L);
        add(&format!("loadgen.{step}.failed"), "count", L);
        add(&format!("loadgen.{step}.lag_ms.p99"), "ms", L);
        add(&format!("loadgen.{step}.queue_depth_end"), "jobs", L);
    }
    add("loadgen.ladder.rungs", "count", H);

    add("fleet.dispatch_ms.p50", "ms", L);
    add("fleet.dispatch_overhead_ms.p50", "ms", L);
    add("fleet.attempts_per_job", "attempts", L);
    add("fleet.affinity_hit_ratio", "ratio", H);
    add("fleet.backoff_s", "s", L);

    add("durable.journal_append_us.p50", "us", L);
    add("durable.journal_sync_ms.p50", "ms", L);
    add("durable.journal_sync_ms.p99", "ms", L);
    add("durable.store_put_ms.p50", "ms", L);
    add("durable.store_put_ms.p99", "ms", L);
    add("durable.store_get_us.p50", "us", L);
    add("durable.replay_ms", "ms", L);
    add("durable.bytes_written", "bytes", L);
    add("durable.degradations", "count", L);

    add("trace.overhead_s", "s", L);
    add("trace.self_time_s", "s", L);
    add("trace.unattributed_s", "s", L);
    add("trace.untraced_wall_s", "s", L);
    out
}

#[cfg(test)]
/// True for names made of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_server::json::{self, Json};
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_well_formed_and_carry_units() {
        let mut seen = HashSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name.to_string(), m.unit));
        let layered = per_layer().into_iter().map(|m| (m.name, m.unit));
        for (name, unit) in e2e.chain(layered) {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "{name}: bad unit {unit}"
            );
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            v.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        let want_layer: Vec<_> = per_layer()
            .into_iter()
            .map(|m| {
                (
                    m.name,
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(names("per_layer"), want_layer);
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
