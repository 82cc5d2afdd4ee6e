//! `check`: the deep digest wall, then a seeded fuzz campaign.
//!
//! The untraced pass calls `mtsim_check::deep` and `mtsim_check::fuzz`
//! with one job each. The traced pass makes the calls `fuzz` makes per
//! case — `generate`, `check_program`, and `check_replay` on every fifth
//! case — under their own spans, and must report the same engine and
//! oracle run counts. Set-up derives the campaign's case seeds and
//! generates every case program.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mtsim_check::{
    case_seeds, check_program, check_replay, deep, fuzz, generate, DeepConfig, FuzzConfig,
    DEFAULT_BUDGET,
};
use mtsim_rng::Rng;

use crate::pass::{Pass, Workload};
use crate::refgrid::panic_text;
use crate::trace::{Tracer, NO_ID};

/// Fuzz cases per pass.
pub const CASES: usize = 400;

/// Campaign totals that traced and untraced passes must agree on.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    deep_entries: usize,
    cases: usize,
    replay_cases: usize,
    engine_runs: usize,
    oracle_runs: usize,
    opt_images: usize,
}

/// The `check` workload.
pub struct Check {
    seed: u64,
    cases: usize,
}

impl Check {
    /// A campaign of `cases` cases from `seed`.
    pub fn new(seed: u64, cases: usize) -> Check {
        Check { seed, cases }
    }

    fn setup(&self) -> f64 {
        let t = Instant::now();
        for s in case_seeds(self.seed, self.cases) {
            black_box(generate(s));
        }
        t.elapsed().as_secs_f64()
    }

    fn untraced(&self, problems: &mut Vec<String>) -> (f64, f64, Totals, usize) {
        let t = Instant::now();
        let wall = deep(DeepConfig { bless: false, jobs: 1 });
        let t_fuzz = Instant::now();
        let summary = fuzz(FuzzConfig {
            cases: self.cases,
            seed: self.seed,
            jobs: 1,
            shrink_budget: DEFAULT_BUDGET,
        });
        let units_s = t_fuzz.elapsed().as_secs_f64();
        let wall_s = t.elapsed().as_secs_f64();
        problems
            .extend(wall.mismatches.iter().chain(&wall.shape_errors).map(|m| format!("deep: {m}")));
        problems.extend(summary.panics.iter().map(|p| format!("fuzz panic: {p}")));
        problems.extend(
            summary
                .failures
                .iter()
                .map(|f| format!("fuzz seed {:#x}: {}", f.case_seed, f.failure.label)),
        );
        let failed = wall.mismatches.len()
            + wall.shape_errors.len()
            + summary.panics.len()
            + summary.failures.len();
        let totals = Totals {
            deep_entries: wall.entries,
            cases: summary.cases,
            replay_cases: summary.replay_cases,
            engine_runs: summary.engine_runs,
            oracle_runs: summary.oracle_runs,
            opt_images: summary.opt_images,
        };
        (wall_s, units_s, totals, failed)
    }

    fn traced(&self, tracer: &mut Tracer, problems: &mut Vec<String>) -> (f64, f64, Totals, usize) {
        let root = tracer.open("run", NO_ID);
        let wall = tracer.time("check.deep", NO_ID, || deep(DeepConfig { bless: false, jobs: 1 }));
        problems
            .extend(wall.mismatches.iter().chain(&wall.shape_errors).map(|m| format!("deep: {m}")));
        let mut failed = wall.mismatches.len() + wall.shape_errors.len();
        let mut totals =
            Totals { deep_entries: wall.entries, cases: self.cases, ..Totals::default() };

        let t_fuzz = Instant::now();
        for (idx, case_seed) in case_seeds(self.seed, self.cases).into_iter().enumerate() {
            let id = idx as u64;
            let depth = tracer.depth();
            let case = catch_unwind(AssertUnwindSafe(|| {
                let tp = tracer.time("check.generate", id, || generate(case_seed));
                // The fault seed `fuzz` pairs with each case seed.
                let fault_seed = Rng::derive(case_seed, "check-fault-seed").next_u64();
                let report = tracer.time("check.case", id, || check_program(&tp, fault_seed))?;
                let replay = if idx % 5 == 4 {
                    Some(tracer.time("check.replay", id, || check_replay(case_seed, fault_seed))?)
                } else {
                    None
                };
                Ok::<_, mtsim_check::CaseFailure>((report, replay))
            }));
            match case {
                Ok(Ok((report, replay))) => {
                    totals.engine_runs += report.engine_runs;
                    totals.oracle_runs += report.oracle_runs;
                    totals.opt_images += report.opt_images;
                    if let Some(r) = replay {
                        totals.replay_cases += 1;
                        totals.engine_runs += r.engine_runs;
                    }
                }
                Ok(Err(failure)) => {
                    failed += 1;
                    problems.push(format!("fuzz seed {case_seed:#x}: {}", failure.label));
                }
                Err(payload) => {
                    tracer.unwind_to(depth);
                    failed += 1;
                    problems.push(format!(
                        "fuzz panic at seed {case_seed:#x}: {}",
                        panic_text(payload.as_ref())
                    ));
                }
            }
        }
        let units_s = t_fuzz.elapsed().as_secs_f64();
        tracer.close(root);
        let wall_s = tracer.spans()[root].dur_ns() as f64 / 1e9;
        tracer.count("check.engine_runs", totals.engine_runs as f64);
        tracer.count("check.oracle_runs", totals.oracle_runs as f64);
        (wall_s, units_s, totals, failed)
    }
}

impl Workload for Check {
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass {
        let mut problems = Vec::new();
        let (setup_s, (wall_s, units_s, totals, failed)) = match tracer {
            None => (self.setup(), self.untraced(&mut problems)),
            Some(t) => {
                let root = t.open("setup", NO_ID);
                let setup_s = t.time("check.setup", NO_ID, || self.setup());
                t.close(root);
                (setup_s, self.traced(t, &mut problems))
            }
        };
        Pass {
            setup_s,
            wall_s,
            units: totals.cases,
            units_s,
            attempted: totals.deep_entries + totals.cases,
            failed,
            latencies_ms: Vec::new(),
            sim_insts: 0,
            results: format!("{totals:?}"),
            problems,
        }
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "deep wall (1 job) then fuzz: {} cases from seed {:#x}, 1 job; a unit is one fuzz case",
            self.cases, self.seed
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::assert_traced_matches_untraced;

    #[test]
    fn traced_campaign_counts_match_fuzz() {
        // Ten cases: two of them also run the replay differential.
        let mut w = Check::new(0xB00, 10);
        let tracer = assert_traced_matches_untraced(&mut w);
        let table = tracer.layer_table();
        assert_eq!(table["check.case"].1, 10);
        assert_eq!(table["check.replay"].1, 2);
        assert!(tracer.counter("check.engine_runs") > 0.0);
    }
}
