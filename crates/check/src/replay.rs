//! The replay differential: synthetic traces compiled by `mtsim-replay`
//! held to their host-predicted final image across the model grid.
//!
//! Replay programs are race-free by construction (reads never feed
//! stores; all updates are commutative fetch-and-adds), so unlike the
//! generated-program differential the ground truth here is computed
//! host-side — `TraceProgram::expected` — and *every* configuration must
//! reproduce it exactly: all nine switch models, every SMT issue width
//! tested, grouped images, fault injection, and modeled interconnects.
//! Replay programs contain no locks or barriers, so every model makes
//! progress at every latency and nothing in the grid is skipped.

use crate::diff::{fault_profile, splits, CaseFailure, Image, Runner};
use mtsim_core::{MachineConfig, NetworkConfig, SwitchModel, Topology};
use mtsim_replay::{compile, synthesize, SynthConfig, TraceProgram};
use mtsim_rng::Rng;

/// Statistics from a passing replay case.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayReport {
    /// Engine runs executed and verified against the predicted image.
    pub engine_runs: usize,
}

/// The synthetic trace a replay case runs — shape varies with the seed.
pub fn replay_config(seed: u64) -> SynthConfig {
    let mut r = Rng::derive(seed, "check-replay");
    SynthConfig {
        seed,
        threads: 1 + r.below(6) as usize,
        events_per_thread: 12 + r.below(20) as usize,
        addr_words: 128,
        locality: r.range_f64(0.0, 1.0),
        sharing: r.range_f64(0.0, 0.6),
        ..SynthConfig::default()
    }
}

/// The compiled program for a replay case seed (used by the fuzz driver
/// to print a failing case's listing).
pub fn replay_program(seed: u64) -> TraceProgram {
    compile(&synthesize(&replay_config(seed)))
        .expect("synthetic traces stay within the replay caps")
}

/// Checks one synthetic-trace replay case across the model grid.
///
/// # Errors
///
/// Returns the first configuration whose final image diverged from the
/// host-side prediction. Labels are prefixed `replay` so the fuzz driver
/// can tell these failures from generated-program ones.
pub fn check_replay(seed: u64, fault_seed: u64) -> Result<ReplayReport, CaseFailure> {
    let tp = replay_program(seed);
    let n = tp.nthreads;
    let image = Image::new(tp.program.clone());
    let shared = tp.shared();
    let mut runner = Runner::default();
    let fail = |label: String, detail: String| CaseFailure { label, detail, nthreads: n };

    for (procs, tpp) in splits(n) {
        let who = |tag: &str, model: SwitchModel, lat: u64| {
            format!("replay seed={seed:#x} p={procs} t={tpp} {tag} {} lat={lat}", model.name())
        };
        let mut check = |cfg: MachineConfig, label: String| -> Result<(), CaseFailure> {
            let run = runner
                .run(cfg, &image, &shared)
                .map_err(|e| fail(label.clone(), format!("engine error: {e}")))?;
            tp.verify(&run.shared).map_err(|d| fail(label, d))?;
            Ok(())
        };

        // Full model grid on the compiled image (no skips: replay
        // programs are sync-free, so progress is guaranteed everywhere).
        for model in SwitchModel::ALL {
            for lat in [0, 200] {
                let cfg = MachineConfig::new(model, procs, tpp).with_latency(lat);
                check(cfg, who("trace", model, lat))?;
            }
        }

        // Every SMT issue width tested, not just the default.
        for w in [1usize, 2, 8] {
            let cfg = MachineConfig::new(SwitchModel::Smt, procs, tpp)
                .with_issue_width(w)
                .with_latency(200);
            check(cfg, who(&format!("trace-w{w}"), SwitchModel::Smt, 200))?;
        }

        // An unreliable network and a modeled interconnect change timing,
        // never the image.
        let fcfg = MachineConfig::new(SwitchModel::Smt, procs, tpp)
            .with_latency(200)
            .with_faults(fault_profile(Rng::derive(fault_seed, "replay-fault").next_u64()));
        check(fcfg, who("trace-fault", SwitchModel::Smt, 200))?;
        let ncfg = MachineConfig::new(SwitchModel::SwitchOnUseMiss, procs, tpp)
            .with_latency(200)
            .with_net(NetworkConfig::new(Topology::Butterfly).with_combining(true));
        check(ncfg, who("trace-net", SwitchModel::SwitchOnUseMiss, 200))?;
    }

    Ok(ReplayReport { engine_runs: runner.runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_replay_seeds_pass_the_grid() {
        for seed in 0..4 {
            let report = check_replay(seed, seed)
                .unwrap_or_else(|f| panic!("seed {seed} failed at {}: {}", f.label, f.detail));
            assert!(report.engine_runs > 0);
        }
    }

    #[test]
    fn replay_config_varies_with_the_seed() {
        let shapes: std::collections::HashSet<_> =
            (0..16).map(|s| replay_config(s).threads).collect();
        assert!(shapes.len() > 1, "thread counts never vary");
    }
}
