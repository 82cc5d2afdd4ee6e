//! Sweep-engine throughput benchmark: runs a fixed grid serially
//! (`--jobs 1`) and in parallel (machine default), checks the result
//! tables are byte-identical, and writes the speedup to
//! `BENCH_sweep.json` so future changes get a perf trajectory. Also runs
//! a small network-saturation grid and writes the per-topology latency
//! numbers to `BENCH_net.json`.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin sweep_bench [--scale tiny|small|full] [--jobs N]`

use mtsim_apps::AppKind;
use mtsim_bench::experiments::net_contention;
use mtsim_bench::{jobs_from_args, scale_from_args};
use mtsim_core::SwitchModel;
use mtsim_sweep::json::JsonBuilder;
use mtsim_sweep::{default_workers, run_sweep, SweepOpts, SweepSpec};

fn main() {
    let scale = scale_from_args();
    let spec = SweepSpec {
        apps: vec![AppKind::Sieve, AppKind::Sor, AppKind::Water, AppKind::Ugray],
        models: vec![SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch],
        procs: vec![2],
        threads: vec![1, 2, 4],
        scale,
        ..SweepSpec::default()
    };
    let workers = jobs_from_args().unwrap_or_else(default_workers);
    println!("sweep_bench: {} grid points (scale {scale:?}), 1 vs {workers} worker(s)", spec.len());

    let serial =
        run_sweep(&spec, &SweepOpts { workers: Some(1), progress: false, ..SweepOpts::default() })
            .expect("spec");
    let parallel = run_sweep(
        &spec,
        &SweepOpts { workers: Some(workers), progress: false, ..SweepOpts::default() },
    )
    .expect("spec");
    assert_eq!(
        serial.results_json(),
        parallel.results_json(),
        "parallel sweep diverged from the serial result table"
    );

    // Crash-safety tax: the same parallel sweep streaming every completed
    // job to a fsync'd checkpoint (DESIGN.md §18). The overhead budget is
    // generous — one sealed line + fdatasync per job — but tracking it
    // keeps the "streaming is effectively free" claim honest.
    let ckpt_dir = mtsim_sweep::unique_temp_dir("sweep-bench").expect("create a temp dir");
    let ckpt = ckpt_dir.join("ckpt.jsonl").to_string_lossy().into_owned();
    let streamed = run_sweep(
        &spec,
        &SweepOpts {
            workers: Some(workers),
            progress: false,
            stream: Some(ckpt.clone()),
            ..SweepOpts::default()
        },
    )
    .expect("spec");
    assert_eq!(
        serial.results_json(),
        streamed.results_json(),
        "streamed sweep diverged from the serial result table"
    );
    std::fs::remove_dir_all(&ckpt_dir).ok();

    let serial_s = serial.wall.as_secs_f64();
    let parallel_s = parallel.wall.as_secs_f64();
    let streamed_s = streamed.wall.as_secs_f64();
    let speedup = if parallel_s > 0.0 { serial_s / parallel_s } else { 0.0 };
    let overhead = if parallel_s > 0.0 { streamed_s / parallel_s - 1.0 } else { 0.0 };
    println!("  serial:   {}", serial.summary_line());
    println!("  parallel: {}", parallel.summary_line());
    println!("  streamed: {}", streamed.summary_line());
    println!("  speedup: {speedup:.2}x, checkpoint overhead: {:.1}%", overhead * 100.0);
    if overhead > 0.10 {
        println!("  WARNING: checkpoint streaming cost more than the 10% budget");
    }

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("sweep");
    j.key("scale").string(scale.name());
    j.key("grid_points").u64(spec.len() as u64);
    j.key("workers").u64(workers as u64);
    j.key("serial_ms").f64(serial_s * 1e3);
    j.key("parallel_ms").f64(parallel_s * 1e3);
    j.key("streamed_ms").f64(streamed_s * 1e3);
    j.key("speedup").f64(speedup);
    j.key("checkpoint_overhead").f64(overhead);
    j.key("jobs_per_sec").f64(parallel.jobs_per_sec());
    j.key("sim_cycles_per_sec").f64(parallel.sim_cycles_per_sec());
    j.key("cache_hits").u64(parallel.cache_hits);
    j.key("cache_misses").u64(parallel.cache_misses);
    j.key("ok").u64(parallel.ok_count() as u64);
    j.key("failed").u64(parallel.failed_count() as u64);
    j.end();
    std::fs::write("BENCH_sweep.json", j.finish() + "\n").expect("write BENCH_sweep.json");
    println!("  wrote BENCH_sweep.json");

    // Network saturation numbers: a small offered-load sweep per topology,
    // so the contention model's trajectory is tracked alongside the sweep
    // engine's throughput.
    let ts = [1, 2, 4];
    let curves = net_contention(AppKind::Sieve, scale, 4, &ts, Some(workers));
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("net");
    j.key("scale").string(scale.name());
    j.key("app").string(AppKind::Sieve.name());
    j.key("procs").u64(4);
    j.key("curves").begin_array();
    for c in &curves {
        j.begin_object();
        j.key("model").string(c.model.name());
        j.key("net").string(c.topology.name());
        j.key("combining").bool(c.combining);
        j.key("points").begin_array();
        for p in &c.points {
            j.begin_object();
            j.key("t").u64(p.threads_per_proc as u64);
            j.key("cycles").u64(p.cycles);
            j.key("mean_latency").f64(p.net_mean_latency);
            j.key("queue_cycles").u64(p.net_queue_cycles);
            j.key("fa_combined").u64(p.net_fa_combined);
            j.end();
        }
        j.end();
        j.end();
    }
    j.end();
    j.end();
    std::fs::write("BENCH_net.json", j.finish() + "\n").expect("write BENCH_net.json");
    println!("  wrote BENCH_net.json ({} saturation curves)", curves.len());
}
