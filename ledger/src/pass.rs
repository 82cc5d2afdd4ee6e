//! What one pass of a workload produces, and the interface every
//! workload implements.

use crate::trace::Tracer;

/// One pass: a fixed amount of work derived from the workload seed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up time before the timed region, seconds.
    pub setup_s: f64,
    /// Timed region, seconds.
    pub wall_s: f64,
    /// Units of work completed (grid jobs, served sweeps, fuzz cases).
    pub units: usize,
    /// Seconds the units took (the timed region, or the part of it that
    /// processes units).
    pub units_s: f64,
    /// Units attempted, for failure accounting.
    pub attempted: usize,
    /// Units that failed: failed or quarantined jobs, verify errors,
    /// non-2xx replies, digest mismatches, fuzz failures or panics.
    pub failed: usize,
    /// Per-unit latencies in milliseconds, where the workload has them.
    pub latencies_ms: Vec<f64>,
    /// Simulated instructions in the results, where visible.
    pub sim_insts: u64,
    /// Canonical rendering of the results; every pass of a run, traced
    /// or not, must produce the same string.
    pub results: String,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// A workload: deterministic inputs from a seed, run pass after pass.
pub trait Workload {
    /// Runs one pass. With a tracer, the pass calls each layer's public
    /// functions itself and records a span around every call; it must
    /// produce the same [`Pass::results`] as an untraced pass.
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass;

    /// Lines describing the inputs, for the report.
    fn describe(&self) -> Vec<String>;
}

/// A fresh scratch directory under `out/` for one test.
#[cfg(test)]
pub fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

/// Runs an untraced then a traced pass and checks they agree.
#[cfg(test)]
pub fn assert_traced_matches_untraced(w: &mut dyn Workload) -> Tracer {
    let plain = w.pass(None);
    assert!(plain.problems.is_empty(), "{:?}", plain.problems);
    assert_eq!(plain.failed, 0);
    let mut tracer = Tracer::new();
    let traced = w.pass(Some(&mut tracer));
    assert!(traced.problems.is_empty(), "{:?}", traced.problems);
    assert_eq!(traced.results, plain.results, "traced results differ from untraced");
    assert_eq!(traced.units, plain.units);
    assert_eq!(tracer.depth(), 0, "every span closed");
    tracer
}
