//! `ref-grid`: the reference sweep, as `mtsim sweep --out` runs it.
//!
//! Every paper app plus replay × all nine models × P=4 × T=1,2,4,8 at
//! scale `small`: 288 jobs on one worker with checkpoint streaming on.
//! The grid is fixed — the seed does not change it — so the digest of
//! its result table can be pinned here.
//!
//! Set-up warms a fresh artifact cache with every build, grouping and
//! decode the grid needs; the timed region is `run_sweep` plus
//! `results_json`. The traced pass performs the same per-job calls that
//! `run_sweep` makes on one worker (cache lookups, machine set-up, run,
//! verify, checkpoint append, serialization), each under its own span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mtsim_asm::Program;
use mtsim_core::{Machine, MachineScratch, NoopRecorder};
use mtsim_sweep::checkpoint::fnv1a64;
use mtsim_sweep::{
    run_sweep, spec_hash, ArtifactCache, JobError, JobOutcome, JobSpec, OptChoice, StreamWriter,
    SweepOpts, SweepOutcome, SweepSpec,
};

use crate::pass::{Pass, Workload};
use crate::trace::{Tracer, NO_ID};

/// FNV-1a-64 of the grid's `results_json` (the `mtsim sweep --out` file
/// without its final newline), pinned from a verified run.
pub const RESULTS_DIGEST: u64 = 0xf5e6_57db_e67f_345b;

/// The reference grid, spelled as the CLI flags that select it.
pub fn reference_spec() -> SweepSpec {
    let mut spec = SweepSpec::default();
    for (key, value) in
        [("apps", "all"), ("models", "all"), ("p", "4"), ("t", "1,2,4,8"), ("scale", "small")]
    {
        spec.set(key, value).expect("the reference grid is a valid spec");
    }
    spec
}

/// The `ref-grid` workload.
pub struct RefGrid {
    spec: SweepSpec,
    jobs: Vec<JobSpec>,
    stream: PathBuf,
    digest: Option<u64>,
}

impl RefGrid {
    /// The reference grid, streaming its checkpoint into `work`.
    pub fn new(work: PathBuf) -> RefGrid {
        RefGrid::with_spec(reference_spec(), work, Some(RESULTS_DIGEST))
    }

    /// Any grid of `auto`-optimized jobs; `digest` pins its results.
    pub fn with_spec(spec: SweepSpec, work: PathBuf, digest: Option<u64>) -> RefGrid {
        let jobs = spec.expand();
        assert!(jobs.iter().all(|j| j.opt == OptChoice::Auto && !j.attr));
        RefGrid { spec, jobs, stream: work.join("ref-grid.jsonl"), digest }
    }

    /// Looks up every artifact the grid needs, so the timed run only hits.
    fn warm(&self, cache: &ArtifactCache, mut tracer: Option<&mut Tracer>) {
        let mut keys = Vec::new();
        for j in &self.jobs {
            let key = (j.app, j.nthreads(), j.model.uses_explicit_switch());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        for (app, nthreads, explicit) in keys {
            // A miss is charged to the layer that built the artifact; a
            // hit is pure cache overhead.
            let (built, _) =
                lookup(&mut tracer, "apps.build", || cache.built(app, self.spec.scale, nthreads));
            if explicit {
                let (grouped, _) = lookup(&mut tracer, "opt.group", || {
                    cache.grouped(app, self.spec.scale, nthreads)
                });
                lookup(&mut tracer, "core.decode", || cache.decoded(&grouped));
            } else {
                lookup(&mut tracer, "core.decode", || cache.decoded(&built.program));
            }
        }
    }

    fn stream_path(&self) -> String {
        self.stream.to_str().expect("work directory path is utf-8").to_string()
    }

    fn untraced(&self) -> (f64, f64, SweepOutcome, String) {
        let t = Instant::now();
        let cache = Arc::new(ArtifactCache::new());
        self.warm(&cache, None);
        let setup = t.elapsed().as_secs_f64();
        let opts = SweepOpts {
            workers: Some(1),
            stream: Some(self.stream_path()),
            cache: Some(cache),
            ..SweepOpts::default()
        };
        let t = Instant::now();
        let out = run_sweep(&self.spec, &opts).expect("the reference sweep streams");
        let json = out.results_json();
        (setup, t.elapsed().as_secs_f64(), out, json)
    }

    fn traced(&self, tracer: &mut Tracer) -> (f64, f64, SweepOutcome, String) {
        let root = tracer.open("setup", NO_ID);
        let cache = ArtifactCache::new();
        self.warm(&cache, Some(tracer));
        tracer.close(root);
        let setup = tracer.spans()[root].dur_ns() as f64 / 1e9;

        let root = tracer.open("run", NO_ID);
        let t = Instant::now();
        self.spec.validate().expect("the grid validates");
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let mut writer = tracer.time("sweep.checkpoint.create", NO_ID, || {
            StreamWriter::create(&self.stream_path(), spec_hash(&self.spec), self.jobs.len())
        });
        let mut scratch = MachineScratch::new();
        let mut reuses = 0u64;
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let depth = tracer.depth();
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_job(job, &cache, &mut scratch, &mut reuses, tracer)
            }));
            let outcome = run.unwrap_or_else(|payload| {
                tracer.unwind_to(depth);
                let message = panic_text(payload.as_ref());
                JobOutcome::once(*job, Err(JobError::Panic { message }))
            });
            if let Ok(w) = writer.as_mut() {
                let id = job.id as u64;
                if let Err(e) = tracer.time("sweep.checkpoint.append", id, || w.append(&outcome)) {
                    writer = Err(e);
                }
            }
            outcomes.push(outcome);
        }
        writer.expect("the traced sweep streams");
        let out = SweepOutcome {
            jobs: outcomes,
            workers: 1,
            wall: t.elapsed(),
            cache_hits: cache.hits() - hits0,
            cache_misses: cache.misses() - misses0,
            machine_reuses: reuses,
        };
        let json = tracer.time("sweep.serialize", NO_ID, || out.results_json());
        tracer.close(root);
        let wall = tracer.spans()[root].dur_ns() as f64 / 1e9;

        tracer.count("sweep.cache.hits", cache.hits() as f64);
        tracer.count("sweep.cache.misses", cache.misses() as f64);
        tracer.count("sweep.machine_reuse_ratio", reuses as f64 / self.jobs.len().max(1) as f64);
        count_simulated(tracer, &job_stats(&out));
        (setup, wall, out, json)
    }
}

impl Workload for RefGrid {
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass {
        let _ = std::fs::remove_file(&self.stream);
        let (setup_s, wall_s, out, json) = match tracer {
            None => self.untraced(),
            Some(t) => self.traced(t),
        };
        let mut problems = Vec::new();
        let failed = out.failed_count();
        if failed > 0 {
            problems.push(format!("{failed} of {} jobs failed", out.jobs.len()));
        }
        let digest = fnv1a64(json.as_bytes());
        if let Some(want) = self.digest {
            if digest != want {
                problems.push(format!("results_json digest {digest:#018x}, pinned {want:#018x}"));
            }
        }
        Pass {
            setup_s,
            wall_s,
            units: out.jobs.len(),
            units_s: wall_s,
            attempted: out.jobs.len(),
            failed,
            latencies_ms: Vec::new(),
            sim_insts: job_stats(&out).iter().map(|(_, s)| s.instructions).sum(),
            results: json,
            problems,
        }
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "grid: {} jobs ({}), 1 worker, checkpoint streamed; seed-independent, results digest pinned",
            self.jobs.len(),
            self.spec.canonical().replace('\n', " ")
        )]
    }
}

/// Successful jobs' statistics, tagged with their model.
pub fn job_stats(out: &SweepOutcome) -> Vec<(mtsim_core::SwitchModel, mtsim_core::RunStats)> {
    out.jobs.iter().filter_map(|j| j.result.as_ref().ok().map(|s| (j.spec.model, *s))).collect()
}

/// Records the simulated counts of `stats` on the tracer.
pub fn count_simulated(
    tracer: &mut Tracer,
    stats: &[(mtsim_core::SwitchModel, mtsim_core::RunStats)],
) {
    for (model, s) in stats {
        tracer.count("core.sim_insts", s.instructions as f64);
        tracer.count(&format!("core.sim_insts.{}", model.name()), s.instructions as f64);
        tracer.count("core.sim_cycles", s.cycles as f64);
        tracer.count("mem.reads_issued", s.reads_issued as f64);
        tracer.count("mem.retries", s.retries as f64);
        tracer.count("net.requests", s.net_requests as f64);
        tracer.count("net.queue_cycles", s.net_queue_cycles as f64);
        tracer.count("net.fa_combined", s.net_fa_combined as f64);
    }
}

/// Times one artifact-cache lookup, naming the span after the layer that
/// did the work: `built_as` on a miss, `sweep.cache.lookup` on a hit.
fn lookup<T>(
    tracer: &mut Option<&mut Tracer>,
    built_as: &'static str,
    f: impl FnOnce() -> (T, bool),
) -> (T, bool) {
    let Some(t) = tracer.as_deref_mut() else { return f() };
    let span = t.open("sweep.cache.lookup", NO_ID);
    let (value, hit) = f();
    t.close(span);
    if !hit {
        t.rename(span, built_as, "");
    }
    (value, hit)
}

/// Scratch-reuse key: app, scale, thread count and the address of the
/// artifact run, as the sweep's own workers key their parked machines.
fn scratch_key(job: &JobSpec, program: &Program, variant: u8) -> u64 {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(job.app.name().as_bytes());
    buf.push(b'/');
    buf.extend_from_slice(job.scale.name().as_bytes());
    buf.extend_from_slice(&(job.nthreads() as u64).to_le_bytes());
    buf.extend_from_slice(&(program as *const Program as usize as u64).to_le_bytes());
    buf.push(variant);
    fnv1a64(&buf).max(1)
}

/// One grid point, as a sweep worker runs it, with a span per layer call.
fn run_job(
    job: &JobSpec,
    cache: &ArtifactCache,
    scratch: &mut MachineScratch,
    reuses: &mut u64,
    tracer: &mut Tracer,
) -> JobOutcome {
    let id = job.id as u64;
    let (app, mut cache_hit) =
        tracer.time("sweep.cache.lookup", id, || cache.built(job.app, job.scale, job.nthreads()));
    let cfg = job.config();
    if cfg.total_threads() != app.nthreads {
        let message = format!(
            "app was built for {} threads, config asks for {}",
            app.nthreads,
            cfg.total_threads()
        );
        return JobOutcome::once(*job, Err(JobError::Sim { kind: "config", message }));
    }
    let grouped;
    let (program, variant): (&Program, u8) = if cfg.model.uses_explicit_switch() {
        let (g, hit) = tracer
            .time("sweep.cache.lookup", id, || cache.grouped(job.app, job.scale, job.nthreads()));
        cache_hit &= hit;
        grouped = g;
        (&grouped, 1)
    } else {
        (&app.program, 0)
    };
    let key = scratch_key(job, program, variant);
    let (decoded, hit) = tracer.time("sweep.cache.lookup", id, || cache.decoded(program));
    cache_hit &= hit;

    let model = cfg.model.name();
    let machine = tracer.time("core.setup", id, || {
        Machine::try_new_predecoded(cfg, program, &decoded, app.shared.clone(), key, scratch)
    });
    let run = machine.and_then(|(machine, reused)| {
        *reuses += u64::from(reused);
        let span = tracer.open("core.run", id);
        tracer.rename(span, "core.run", model);
        let run = machine.run_reusing(&mut NoopRecorder, key, scratch);
        tracer.close(span);
        run
    });
    let result = match run {
        Err(err) => Err(JobError::from_sim(&err)),
        Ok(lean) => match tracer.time("apps.verify", id, || app.verify(&lean.shared)) {
            Err(message) => Err(JobError::Verify { message }),
            Ok(()) => Ok(lean.result.stats()),
        },
    };
    JobOutcome { cache_hit, ..JobOutcome::once(*job, result) }
}

/// The message of a caught panic.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{assert_traced_matches_untraced, test_dir};

    #[test]
    fn traced_grid_reproduces_run_sweep_byte_for_byte() {
        // A reduced grid with an implicit, an explicit-switch and the SMT
        // model, so grouping, reuse keys and every span kind appear.
        let mut spec = SweepSpec::default();
        for (key, value) in [
            ("apps", "sieve,sor"),
            ("models", "switch-on-load,explicit-switch,smt"),
            ("p", "2"),
            ("t", "1,2"),
            ("scale", "tiny"),
        ] {
            spec.set(key, value).unwrap();
        }
        let dir = test_dir("refgrid");
        let mut w = RefGrid::with_spec(spec, dir.clone(), None);
        let tracer = assert_traced_matches_untraced(&mut w);
        let table = tracer.layer_table();
        assert_eq!(table["core.run"].1, 12);
        assert_eq!(table["core.setup"].1, 12);
        assert_eq!(table["sweep.checkpoint.append"].1, 12);
        assert!(table.contains_key("core.run.smt"));
        assert!(table.contains_key("opt.group"), "explicit-switch needs a grouping build");
        assert!(tracer.counter("core.sim_insts") > 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reference_grid_is_the_roadmap_grid() {
        let jobs = reference_spec().expand();
        assert_eq!(jobs.len(), 288);
        assert!(jobs.iter().all(|j| j.procs == 4 && j.scale.name() == "small"));
    }
}
