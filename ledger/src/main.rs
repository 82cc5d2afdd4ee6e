//! # mtsim-ledger
//!
//! One benchmark for `mtsim`, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload ref-grid|served|check|all --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats fixed-size *passes* of one workload (inputs derived from
//! the seed) for `--seconds`, after one warm-up pass, and checks every
//! pass's output. `--trace 0` reports the end-to-end metrics as medians
//! over untraced passes. `--trace 1` alternates untraced passes with
//! traced ones — which time each layer call from the ledger's own code —
//! requires both to produce identical results, and reports the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! lines before it are a readable report with provenance. Spans of traced
//! passes are written to `ledger/out/`.

mod check;
mod host;
mod metrics;
mod pass;
mod refgrid;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{layer_values, per_layer, END_TO_END, WORKLOADS};
use pass::{Pass, Workload};
use stats::{median, percentile, Summary};
use trace::Tracer;

/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("bad --seed {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(args)
}

/// The ledger's own directory (spans and scratch files go under `out/`).
fn ledger_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn make_workload(name: &str, seed: u64, work: &Path) -> Box<dyn Workload> {
    match name {
        "ref-grid" => Box::new(refgrid::RefGrid::new(work.to_path_buf())),
        "served" => Box::new(served::Served::new(seed, work.to_path_buf())),
        "check" => Box::new(check::Check::new(seed, check::CASES)),
        _ => unreachable!("workload names are validated in parse_args"),
    }
}

/// Everything a run measured.
struct Run {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    layers: Vec<BTreeMap<String, f64>>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Peak resident set after the warm-up and first measured pass, MiB.
    peak_rss_mb: f64,
}

/// Warm-up pass, then measured passes until `seconds` have passed.
fn measure(w: &mut dyn Workload, seconds: u64, trace: bool, spans_out: &Path) -> Run {
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        layers: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut spans = String::new();
    let mut reference: Option<String> = None;
    let mut record = |run: &mut Run, pass: &Pass, label: &str| {
        run.attempted += pass.attempted;
        run.failed += pass.failed;
        run.problems.extend(pass.problems.iter().map(|p| format!("{label}: {p}")));
        match &reference {
            None => reference = Some(pass.results.clone()),
            Some(r) if *r != pass.results => {
                run.problems.push(format!("{label}: results differ from the first pass"))
            }
            Some(_) => {}
        }
    };
    let warm = w.pass(None);
    record(&mut run, &warm, "warm-up pass");
    loop {
        let pass = w.pass(None);
        record(&mut run, &pass, "untraced pass");
        run.untraced.push(pass);
        if run.untraced.len() == 1 {
            // Read at a fixed amount of work, not at the end: how many
            // passes fit in the run must not move the figure.
            run.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
        if trace {
            let mut tracer = Tracer::new();
            let pass = w.pass(Some(&mut tracer));
            record(&mut run, &pass, "traced pass");
            run.layers.push(layer_values(&tracer));
            spans.push_str(&tracer.to_jsonl(run.traced.len()));
            run.traced.push(pass);
        }
        if run.untraced.len() >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    if trace {
        if let Err(e) = std::fs::write(spans_out, spans) {
            eprintln!("warning: cannot write {}: {e}", spans_out.display());
        }
    }
    run
}

/// The end-to-end metrics of a run, from its untraced passes.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { run.untraced.iter().map(f).collect() };
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&col(|p| p.wall_s)));
    m.insert("setup_s", median(&col(|p| p.setup_s)));
    m.insert("units_per_s", median(&col(|p| p.units as f64 / p.units_s)));
    m.insert("peak_rss_mb", run.peak_rss_mb);
    m
}

/// The per-layer metrics of a run: medians over traced passes, plus the
/// tracing overhead against the untraced passes.
fn per_layer_values(run: &Run) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for metric in per_layer() {
        let samples: Vec<f64> = run.layers.iter().map(|l| l[&metric.name]).collect();
        out.insert(metric.name, median(&samples));
    }
    let traced = median(&run.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let untraced = median(&run.untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.insert("obs.trace_overhead_ratio".into(), traced / untraced);
    out
}

/// The readable report printed before the result line.
fn report(name: &str, args: &Args, fp: &host::Fingerprint, w: &dyn Workload, run: &Run) -> String {
    let mut r = String::new();
    let why = WORKLOADS.iter().find(|d| d.name == name).map_or("", |d| d.why);
    let _ = writeln!(
        r,
        "== mtsim ledger: workload {name}, seed {}, trace {}",
        args.seed, args.trace as u8
    );
    let _ = writeln!(
        r,
        "host: nproc={} rustc=\"{}\" profile={} commit={}",
        fp.nproc, fp.rustc, fp.profile, fp.commit
    );
    let _ = writeln!(r, "why: {why}");
    for line in w.describe() {
        let _ = writeln!(r, "input: {line}");
    }
    let _ = writeln!(
        r,
        "passes: {} untraced, {} traced (+1 warm-up); attempted {} units, failed {} (failed_ratio {})",
        run.untraced.len(),
        run.traced.len(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    let line = |r: &mut String, metric: &str, unit: &str, samples: &[f64]| {
        if let Some(s) = Summary::of(samples) {
            let _ = writeln!(
                r,
                "  {metric:<22} median {:>14.6} {unit:<4} tail {:<18} n={}",
                s.median,
                s.tail_label(),
                s.n
            );
        }
    };
    let _ = writeln!(r, "end to end (untraced passes; the result line carries {}):", {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{} [{}, {} is better]", m.name, m.unit, m.better))
            .collect();
        names.join(", ")
    });
    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { run.untraced.iter().map(f).collect() };
    line(&mut r, "wall_s", "s", &col(|p| p.wall_s));
    line(&mut r, "setup_s", "s", &col(|p| p.setup_s));
    line(&mut r, "units_per_s", "1/s", &col(|p| p.units as f64 / p.units_s));
    if run.untraced.iter().any(|p| p.sim_insts > 0) {
        line(&mut r, "sim_inst_per_s", "1/s", &col(|p| p.sim_insts as f64 / p.units_s));
    }
    let latencies: Vec<f64> =
        run.untraced.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    line(&mut r, "unit_latency_ms", "ms", &latencies);
    if !latencies.is_empty() {
        let _ = writeln!(
            r,
            "  {:<22} p50 {:.4} ms, p90 {:.4} ms over {} submissions",
            "unit_latency_ms",
            percentile(&latencies, 500),
            percentile(&latencies, 900),
            latencies.len()
        );
    }
    let _ = writeln!(
        r,
        "  {:<22} {:.1} MB after the warm-up and first measured pass (whole process)",
        "peak_rss_mb", run.peak_rss_mb
    );
    if !run.layers.is_empty() {
        let values = per_layer_values(run);
        let _ = writeln!(
            r,
            "per layer (traced passes; self time per pass; better) -> what it should move:"
        );
        for metric in per_layer() {
            let _ = writeln!(
                r,
                "  {:<40} {:>18.4} {:<5} ({}) -> {}",
                metric.name, values[&metric.name], metric.unit, metric.better, metric.moves
            );
        }
    }
    r
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Runs one workload and returns its result line fields.
fn run_workload(
    name: &str,
    args: &Args,
    fp: &host::Fingerprint,
) -> (bool, usize, usize, Vec<Metric>) {
    let out = ledger_dir().join("out");
    let work = out.join(format!("work-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the ledger's work directory");
    let mut w = make_workload(name, args.seed, &work);
    let spans_out = out.join(format!("spans-{name}-seed{}.jsonl", args.seed));
    let run = measure(w.as_mut(), args.seconds, args.trace, &spans_out);
    let _ = std::fs::remove_dir_all(&work);

    print!("{}", report(name, args, fp, w.as_ref(), &run));
    let correct = run.problems.is_empty() && run.failed == 0;
    if !correct {
        for p in &run.problems {
            eprintln!("CHECK FAILED [{name}] {p}");
        }
        return (false, run.attempted, run.failed.max(1), Vec::new());
    }
    let metrics = if args.trace {
        let values = per_layer_values(&run);
        per_layer().into_iter().map(|m| (m.name.clone(), values[&m.name], m.unit)).collect()
    } else {
        let values = end_to_end(&run);
        END_TO_END.iter().map(|m| (m.name.to_string(), values[m.name], m.unit)).collect()
    };
    (true, run.attempted, run.failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mtsim-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = host::Fingerprint::read(&ledger_dir().join(".."));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed, mut entries) = (true, 0, 0, Vec::new());
    for name in &names {
        let (ok, a, f, metrics) = run_workload(name, &args, &fp);
        correct &= ok;
        attempted += a;
        failed += f;
        for (metric, value, unit) in metrics {
            // With several workloads, prefix each name to keep it unique.
            let key = if names.len() == 1 { metric } else { format!("{name}.{metric}") };
            entries.push(format!("\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
    }
    if !correct {
        println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
    ExitCode::SUCCESS
}
