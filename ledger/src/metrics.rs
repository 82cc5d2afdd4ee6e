//! The ledger's metric and workload definitions, and where each per-layer
//! value comes from in a traced pass.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

use mtsim_core::SwitchModel;

use crate::trace::Tracer;

/// A named workload and why it is in the ledger.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One sentence on why the workload was chosen.
    pub why: &'static str,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "ref-grid",
        why: "reference sweep: 8 apps x 9 models x P=4 x T=1,2,4,8 at scale small, 1 worker, \
              streamed; engine-bound, every model runs, machine reuse never fires",
    },
    WorkloadDef {
        name: "served",
        why: "closed-loop client on an in-process server: short same-shape sweeps on a warm \
              cache, so per-job overhead (fsync, cache lookups, HTTP) dominates; no SMT",
    },
    WorkloadDef {
        name: "check",
        why: "deep digest wall then a seeded fuzz campaign: fresh tiny machines with no cache or \
              reuse, the oracle, and mem/net paths ref-grid never touches",
    },
];

/// An end-to-end metric (untraced passes).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// Every end-to-end metric; each workload reports all of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "wall_s", unit: "s", better: "lower" },
    EndToEnd { name: "setup_s", unit: "s", better: "lower" },
    EndToEnd { name: "units_per_s", unit: "1/s", better: "higher" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower" },
];

/// Where a per-layer value is read from.
#[derive(Clone, Copy)]
pub enum Source {
    /// Summed self time (ms) of spans with this name (or `name.tag`).
    SelfMs(&'static str),
    /// Number of spans with this name.
    Spans(&'static str),
    /// A counter the workload recorded on the tracer.
    Counter(&'static str),
    /// Summed self time (ms) of `core.run` spans under one model.
    RunMs(SwitchModel),
    /// Simulated instructions per second of `core.run` under one model.
    InstPerS(SwitchModel),
    /// Self time of root spans: traced wall no traced call accounts for.
    Unattributed,
    /// Traced wall over untraced wall; filled in by the runner.
    Overhead,
}

/// A per-layer metric (traced pass).
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
    /// Where the value comes from.
    pub source: Source,
}

const ENGINE: &str = "wall_s and units_per_s on ref-grid";
const SETUP_MOVES: &str = "units_per_s on check (fresh machines per case); under 2% of ref-grid";
const CACHE: &str = "wall_s on ref-grid and served latency (wall_s) on served";
const CKPT: &str = "served latency (wall_s, units_per_s) on served; about 4% of ref-grid";
const BUILD: &str = "setup_s on ref-grid";
const CHECK: &str = "wall_s and units_per_s on check";
const SERVE: &str = "served latency (wall_s, units_per_s) on served";
const SIMULATED: &str = "none: simulated counts must repeat exactly under a host-only change";

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let m = |name: &str, unit, better, moves, source| PerLayer {
        name: name.to_string(),
        unit,
        better,
        moves,
        source,
    };
    let mut v = vec![
        m("core.run_ms", "ms", "lower", ENGINE, Source::SelfMs("core.run")),
        m("core.sim_insts", "count", "lower", ENGINE, Source::Counter("core.sim_insts")),
        m("core.sim_cycles", "count", "lower", ENGINE, Source::Counter("core.sim_cycles")),
    ];
    for model in SwitchModel::ALL {
        let name = format!("core.run_ms.{}", model.name());
        v.push(m(&name, "ms", "lower", ENGINE, Source::RunMs(model)));
    }
    for model in SwitchModel::ALL {
        let name = format!("core.run_inst_per_s.{}", model.name());
        v.push(m(&name, "1/s", "higher", ENGINE, Source::InstPerS(model)));
    }
    v.extend([
        m("core.setup_ms", "ms", "lower", SETUP_MOVES, Source::SelfMs("core.setup")),
        m("core.setups", "count", "lower", SETUP_MOVES, Source::Spans("core.setup")),
        m("core.decode_ms", "ms", "lower", SETUP_MOVES, Source::SelfMs("core.decode")),
        m("core.decodes", "count", "lower", SETUP_MOVES, Source::Spans("core.decode")),
        m("sweep.cache.lookup_ms", "ms", "lower", CACHE, Source::SelfMs("sweep.cache.lookup")),
        m("sweep.cache.hits", "count", "higher", CACHE, Source::Counter("sweep.cache.hits")),
        m("sweep.cache.misses", "count", "lower", CACHE, Source::Counter("sweep.cache.misses")),
        m(
            "sweep.checkpoint.append_ms",
            "ms",
            "lower",
            CKPT,
            Source::SelfMs("sweep.checkpoint.append"),
        ),
        m(
            "sweep.checkpoint.appends",
            "count",
            "lower",
            CKPT,
            Source::Spans("sweep.checkpoint.append"),
        ),
        m(
            "sweep.machine_reuse_ratio",
            "ratio",
            "higher",
            "wall_s on served (ref-grid never reuses)",
            Source::Counter("sweep.machine_reuse_ratio"),
        ),
        m("sweep.serialize_ms", "ms", "lower", CACHE, Source::SelfMs("sweep.serialize")),
        m(
            "sweep.unattributed_ms",
            "ms",
            "lower",
            "wall_s on ref-grid and served",
            Source::Unattributed,
        ),
        m("apps.build_ms", "ms", "lower", BUILD, Source::SelfMs("apps.build")),
        m("apps.builds", "count", "lower", BUILD, Source::Spans("apps.build")),
        m("apps.verify_ms", "ms", "lower", BUILD, Source::SelfMs("apps.verify")),
        m("opt.group_ms", "ms", "lower", BUILD, Source::SelfMs("opt.group")),
        m("opt.groups", "count", "lower", BUILD, Source::Spans("opt.group")),
        m("check.deep_ms", "ms", "lower", CHECK, Source::SelfMs("check.deep")),
        m("check.generate_ms", "ms", "lower", CHECK, Source::SelfMs("check.generate")),
        m("check.case_ms", "ms", "lower", CHECK, Source::SelfMs("check.case")),
        m("check.replay_ms", "ms", "lower", CHECK, Source::SelfMs("check.replay")),
        m("check.engine_runs", "count", "higher", CHECK, Source::Counter("check.engine_runs")),
        m("check.oracle_runs", "count", "higher", CHECK, Source::Counter("check.oracle_runs")),
        m("serve.submit_ms", "ms", "lower", SERVE, Source::SelfMs("serve.submit")),
        m("serve.poll_ms", "ms", "lower", SERVE, Source::SelfMs("serve.poll")),
        m("serve.results_ms", "ms", "lower", SERVE, Source::SelfMs("serve.results")),
        m(
            "serve.polls_per_sweep",
            "count",
            "lower",
            SERVE,
            Source::Counter("serve.polls_per_sweep"),
        ),
        m("serve.http_errors", "count", "lower", SERVE, Source::Counter("serve.http_errors")),
        m("serve.cache_hits", "count", "higher", SERVE, Source::Counter("serve.cache_hits")),
        m(
            "serve.machine_reuses",
            "count",
            "higher",
            SERVE,
            Source::Counter("serve.machine_reuses"),
        ),
        m("mem.reads_issued", "count", "lower", SIMULATED, Source::Counter("mem.reads_issued")),
        m("mem.retries", "count", "lower", SIMULATED, Source::Counter("mem.retries")),
        m("net.requests", "count", "lower", SIMULATED, Source::Counter("net.requests")),
        m("net.queue_cycles", "count", "lower", SIMULATED, Source::Counter("net.queue_cycles")),
        m("net.fa_combined", "count", "lower", SIMULATED, Source::Counter("net.fa_combined")),
        m(
            "obs.trace_overhead_ratio",
            "ratio",
            "lower",
            "none: traced wall over untraced wall of the same workload",
            Source::Overhead,
        ),
    ]);
    v
}

/// Reads every per-layer value from one traced pass. The overhead ratio
/// needs untraced passes too, so it is left at 0 for the runner to fill.
pub fn layer_values(tracer: &Tracer) -> BTreeMap<String, f64> {
    let table = tracer.layer_table();
    let self_ms = |name: &str| table.get(name).map_or(0.0, |e| e.0);
    per_layer()
        .into_iter()
        .map(|metric| {
            let value = match metric.source {
                Source::SelfMs(name) => self_ms(name),
                Source::RunMs(model) => self_ms(&format!("core.run.{}", model.name())),
                Source::Spans(name) => table.get(name).map_or(0.0, |e| e.1 as f64),
                Source::Counter(name) => tracer.counter(name),
                Source::InstPerS(model) => {
                    let ms = self_ms(&format!("core.run.{}", model.name()));
                    let insts = tracer.counter(&format!("core.sim_insts.{}", model.name()));
                    if ms > 0.0 {
                        insts / (ms / 1e3)
                    } else {
                        0.0
                    }
                }
                Source::Unattributed => tracer.unattributed_ms(),
                Source::Overhead => 0.0,
            };
            (metric.name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_sweep::checkpoint::{parse_json, Jv};

    fn benchmark_json() -> Jv {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the ledger");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn entries(doc: &Jv, key: &str) -> Vec<(String, String, String)> {
        let Some(Jv::Arr(items)) = doc.get(key) else { panic!("{key} is not an array") };
        items
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Jv::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), layers);
        let Some(Jv::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads") };
        let got: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Jv::as_str).unwrap_or_default();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names: std::collections::BTreeSet<String> =
            per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names.len(), per_layer().len());
    }
}
