//! The differential harness: one generated case versus the oracle across
//! the full model grid.
//!
//! For every thread-count variant and processor split of a
//! [`TestProgram`], the harness runs the engine under **every** switch
//! model, at latencies {0, 200, 1000}, on the compiler-natural and the
//! grouped (`mtsim_opt::group_shared_loads`) program images **plus the
//! inter-block optimizer pipelines** (`OptLevel::Inter` and
//! `OptLevel::InterPipeline`, deduped by listing when a pass left the
//! program alone), plus a set of fault-injected runs — and demands that
//! each run's final architectural state equals the sequential oracle's.
//! This checks the paper's central claim at the semantics level: switch
//! models, latency, instruction reorganization, and an unreliable
//! network may change *timing*, never *results*.
//!
//! Metamorphic invariants layered on top:
//!
//! * a repeated run under an identical configuration is bit-identical,
//!   including its cycle count (engine determinism);
//! * with one processor, one thread, no faults, and the ungrouped image,
//!   the engine executes exactly the oracle's dynamic instruction count
//!   (generated programs are spin-free when single-threaded);
//! * every optimizer pipeline is semantics-preserving (each optimized
//!   image's runs are held to the same oracle — including full register
//!   files and local memories when the case is register-comparable, so
//!   the pipelining pass's shadow-register bookkeeping must be exact).

use crate::generate::{EmittedCase, TestProgram};
use crate::oracle::{run_oracle, OracleRun};
use mtsim_asm::Program;
use mtsim_core::{
    DecodedProgram, FinishedRun, LeanRun, Machine, MachineConfig, MachineScratch, NetworkConfig,
    NoopRecorder, SimError, SwitchModel, ThreadImage, ThreadView, Topology,
};
use mtsim_mem::{FaultConfig, LatencyDist, SharedMemory};
use mtsim_opt::{group_shared_loads, optimize, OptLevel};
use mtsim_rng::Rng;

/// Latencies every non-fault configuration is exercised at.
pub const LATENCIES: [u64; 3] = [0, 200, 1000];

/// Cycle budget per engine run. Generated programs are tiny; hitting this
/// means the engine hung (reported as a mismatch, not a panic).
const MAX_CYCLES: u64 = 20_000_000;

/// Instruction budget for the oracle (its deadlock stand-in).
const ORACLE_FUEL: u64 = 5_000_000;

/// A reproducible description of one failing engine configuration.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Which run diverged, e.g. `"n=4 p=2 t=2 grouped switch_on_use lat=200"`.
    pub label: String,
    /// First observed divergence, human-readable.
    pub detail: String,
    /// Thread count of the failing variant.
    pub nthreads: usize,
}

/// Statistics from a passing case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Engine runs executed and compared.
    pub engine_runs: usize,
    /// Oracle executions (one per thread-count variant × split).
    pub oracle_runs: usize,
    /// Extra optimizer images checked beyond ungrouped/grouped — i.e.
    /// splits where the inter-block passes actually changed the program
    /// (identical images are deduped, not rerun).
    pub opt_images: usize,
}

/// Processor/thread splits exercised for a given total thread count.
pub(crate) fn splits(n: usize) -> Vec<(usize, usize)> {
    let mut out = vec![(1, n)];
    if n > 1 {
        out.push((n, 1));
    }
    if n >= 4 && n.is_multiple_of(2) {
        out.push((2, n / 2));
    }
    out
}

/// Thread-count variants of a case: always the single-threaded
/// re-emission (oracle-exact, registers comparable) plus the case's own
/// thread count.
fn variants(tp: &TestProgram) -> Vec<TestProgram> {
    if tp.nthreads == 1 {
        vec![tp.clone()]
    } else {
        vec![tp.with_nthreads(1), tp.clone()]
    }
}

/// Whether a configuration guarantees forward progress for a program that
/// spin-waits (locks/barriers). Cooperative switch models only let a
/// spinning thread's same-processor siblings run if the spin loop
/// actually yields:
///
/// * `SwitchOnUse`/`SwitchOnUseMiss` yield at the use of a *pending*
///   value — at zero latency nothing is ever pending, so a spinner
///   monopolizes its processor;
/// * the explicit-switch models yield only at `Switch` instructions,
///   which ungrouped (compiler-natural) code does not contain, and even
///   grouped code's `Switch` is a no-op when the group's replies already
///   arrived (zero latency).
///
/// These are properties of the modeled hardware (the paper's machines
/// hide *latency*; with none, cooperative switching has nothing to hook
/// on), not engine bugs — so the harness skips exactly these
/// combinations. With one thread per processor there is no sibling to
/// starve and every combination must terminate.
pub(crate) fn progress_guaranteed(
    model: SwitchModel,
    latency: u64,
    grouped: bool,
    has_sync: bool,
    tpp: usize,
) -> bool {
    if !has_sync || tpp == 1 {
        return true;
    }
    match model {
        SwitchModel::Ideal
        | SwitchModel::SwitchEveryCycle
        | SwitchModel::SwitchOnLoad
        | SwitchModel::SwitchOnMiss => true,
        SwitchModel::SwitchOnUse | SwitchModel::SwitchOnUseMiss => latency > 0,
        SwitchModel::ExplicitSwitch | SwitchModel::ConditionalSwitch => grouped && latency > 0,
        // The SMT issue loop advances its round-robin cursor past the
        // first issuer every cycle, so a spinner's siblings always get
        // lanes — even at zero latency, where nothing is ever pending.
        SwitchModel::Smt => true,
    }
}

/// The fault profile used for fault-seed runs: drops, delays and
/// duplicates all enabled, geometric extra latency.
pub fn fault_profile(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_rate: 0.05,
        delay_rate: 0.10,
        dup_rate: 0.05,
        dist: LatencyDist::Geometric { min: 1, p: 0.25 },
        ..FaultConfig::default()
    }
}

/// The key every harness machine is parked under. Reuse is decided by
/// decode identity ([`Machine::try_new_predecoded`]); the key only opts
/// in.
const SCRATCH_KEY: u64 = 1;

/// A program image, decoded once and shared by every run that names it.
pub(crate) struct Image {
    program: Program,
    decoded: DecodedProgram,
    /// Whether the image contains explicit `Switch` instructions (what
    /// [`progress_guaranteed`] calls "grouped").
    switches: bool,
}

impl Image {
    pub(crate) fn new(program: Program) -> Image {
        let decoded = DecodedProgram::decode(&program);
        let switches = program.switch_count() > 0;
        Image { program, decoded, switches }
    }
}

/// Runs the engine for one case on one machine's recycled buffers:
/// consecutive runs of an image reuse its decode and every thread
/// buffer, and the last run's final thread states stay readable through
/// [`Runner::threads`].
#[derive(Default)]
pub(crate) struct Runner {
    scratch: MachineScratch,
    /// Successful runs so far.
    pub(crate) runs: usize,
}

impl Runner {
    /// Runs `image` under `cfg` (with the harness's cycle budget) over a
    /// copy of `shared`.
    pub(crate) fn run(
        &mut self,
        mut cfg: MachineConfig,
        image: &Image,
        shared: &SharedMemory,
    ) -> Result<LeanRun, SimError> {
        cfg.max_cycles = MAX_CYCLES;
        let scratch = &mut self.scratch;
        let (machine, _) = Machine::try_new_predecoded(
            cfg,
            &image.program,
            &image.decoded,
            shared.clone(),
            SCRATCH_KEY,
            scratch,
        )?;
        let run = machine.run_reusing(&mut NoopRecorder, SCRATCH_KEY, scratch)?;
        self.runs += 1;
        Ok(run)
    }

    /// Final state of every thread of the last successful run.
    pub(crate) fn threads(&self) -> impl ExactSizeIterator<Item = ThreadView<'_>> {
        self.scratch.threads()
    }

    /// [`Runner::threads`], copied out.
    pub(crate) fn thread_images(&self) -> Vec<ThreadImage> {
        let image =
            |t: ThreadView| ThreadImage { regs: *t.regs, fregs: t.fregs, local: t.local.to_vec() };
        self.threads().map(image).collect()
    }
}

fn view(t: &ThreadImage) -> ThreadView<'_> {
    ThreadView { regs: &t.regs, fregs: t.fregs, local: &t.local }
}

/// One thread-count variant, emitted and optimized once: every processor
/// split runs the same images.
struct Variant {
    case: EmittedCase,
    has_sync: bool,
    /// The grid's images: compiler-natural, grouped, then each optimizer
    /// image that differs from the one before it.
    images: Vec<(Image, &'static str)>,
    /// The `InterPipeline` image when the dedup left it out of `images`
    /// (the fault grid runs it either way).
    pipelined: Option<Image>,
}

impl Variant {
    fn new(tp: &TestProgram) -> Variant {
        let case = tp.emit();
        let grouped = group_shared_loads(&case.program).program;
        // Optimizer-pipeline images (DESIGN.md §21). `Intra` is
        // `group_shared_loads` verbatim, so `grouped` covers it; the
        // inter-block levels are deduped by listing — on programs the
        // extra passes leave alone they are byte-identical to `grouped`
        // and rerunning them would grow the grid for nothing.
        let inter = optimize(&case.program, OptLevel::Inter).program;
        let interp = optimize(&case.program, OptLevel::InterPipeline).program;
        let inter_distinct = inter.listing() != grouped.listing();
        let interp_distinct = interp.listing() != inter.listing();
        let mut images =
            vec![(Image::new(case.program.clone()), "ungrouped"), (Image::new(grouped), "grouped")];
        if inter_distinct {
            images.push((Image::new(inter), "opt-inter"));
        }
        let mut pipelined = Some(Image::new(interp));
        if interp_distinct {
            images.extend(pipelined.take().map(|image| (image, "opt-inter-pipe")));
        }
        Variant { case, has_sync: tp.uses_lock() || tp.uses_barrier(), images, pipelined }
    }

    fn ungrouped(&self) -> &Image {
        &self.images[0].0
    }

    fn grouped(&self) -> &Image {
        &self.images[1].0
    }

    fn pipelined(&self) -> &Image {
        self.pipelined.as_ref().unwrap_or_else(|| &self.images[self.images.len() - 1].0)
    }
}

/// Checks one generated case against the oracle over the whole grid.
///
/// Returns the run counts on success, or the first divergence found. The
/// `fault_seed` parameterizes the fault-injected runs (the differential
/// property must hold for *every* fault seed; the fuzz driver derives one
/// per case).
pub fn check_program(tp: &TestProgram, fault_seed: u64) -> Result<CaseReport, CaseFailure> {
    let mut report = CaseReport::default();
    let mut runner = Runner::default();
    for var in variants(tp) {
        let var = Variant::new(&var);
        for (procs, tpp) in splits(var.case.nthreads) {
            check_split(&var, procs, tpp, fault_seed, &mut runner, &mut report)?;
        }
    }
    report.engine_runs = runner.runs;
    Ok(report)
}

fn check_split(
    var: &Variant,
    procs: usize,
    tpp: usize,
    fault_seed: u64,
    runner: &mut Runner,
    report: &mut CaseReport,
) -> Result<(), CaseFailure> {
    let case = &var.case;
    let n = case.nthreads;
    let who = |tag: &str, model: SwitchModel, lat: u64| {
        format!("n={n} p={procs} t={tpp} {tag} {} lat={lat}", model.name())
    };
    let fail = |label: String, detail: String| CaseFailure { label, detail, nthreads: n };

    let local_words = MachineConfig::new(SwitchModel::Ideal, 1, 1)
        .local_mem_words
        .max(case.program.local_words());
    let oracle = run_oracle(&case.program, case.shared.clone(), n, local_words, ORACLE_FUEL)
        .map_err(|e| fail(format!("n={n} oracle"), e.to_string()))?;
    report.oracle_runs += 1;
    report.opt_images += var.images.len() - 2;

    // One engine run held to the oracle; `label` names it in a failure.
    let check = |runner: &mut Runner, cfg, image: &Image, label: &dyn Fn() -> String| {
        let run = runner
            .run(cfg, image, &case.shared)
            .map_err(|e| fail(label(), format!("engine error: {e}")))?;
        compare_state(&oracle, &run.shared, runner.threads(), case.regs_comparable)
            .map_err(|d| fail(label(), d))?;
        Ok::<_, CaseFailure>(run)
    };

    for (image, tag) in &var.images {
        for model in SwitchModel::ALL {
            for lat in LATENCIES {
                // Every optimized image ends with the grouping pass, so
                // "has explicit switches" is what progress depends on.
                if !progress_guaranteed(model, lat, image.switches, var.has_sync, tpp) {
                    continue;
                }
                let cfg = MachineConfig::new(model, procs, tpp).with_latency(lat);
                let run = check(runner, cfg, image, &|| who(tag, model, lat))?;

                // Metamorphic: single-threaded, zero-latency, ungrouped
                // runs are spin-free, so the engine must execute exactly
                // the oracle's dynamic instruction count.
                if n == 1
                    && lat == 0
                    && *tag == "ungrouped"
                    && model == SwitchModel::Ideal
                    && run.result.instructions != oracle.instructions
                {
                    return Err(fail(
                        who(tag, model, lat),
                        format!(
                            "instruction count diverged: engine {} vs oracle {}",
                            run.result.instructions, oracle.instructions
                        ),
                    ));
                }
            }
        }
    }

    // SMT issue-width sweep: the default width (4) is already in the main
    // grid via `MachineConfig::new`; the differential property must hold
    // at *every* width, so also check 1 (degenerate single-lane SMT),
    // 2, and 8 (wider than any generated thread count — lanes go unfilled
    // every cycle). Progress is guaranteed at any width: the round-robin
    // cursor always rotates past the first issuer.
    for w in [1usize, 2, 8] {
        let label = || format!("n={n} p={procs} t={tpp} smt-w{w} lat=200");
        let cfg =
            MachineConfig::new(SwitchModel::Smt, procs, tpp).with_issue_width(w).with_latency(200);
        check(runner, cfg, var.ungrouped(), &label)?;
    }

    // Engine determinism: an identical configuration twice must reproduce
    // the run bit-for-bit, cycle count included.
    {
        let model = SwitchModel::SwitchOnUse;
        let mk = || MachineConfig::new(model, procs, tpp).with_latency(200);
        let engine_error =
            |tag: &str, e: SimError| fail(who(tag, model, 200), format!("engine error: {e}"));
        let a = runner
            .run(mk(), var.ungrouped(), &case.shared)
            .map_err(|e| engine_error("det-a", e))?;
        let a_threads = runner.thread_images();
        let b = runner
            .run(mk(), var.ungrouped(), &case.shared)
            .map_err(|e| engine_error("det-b", e))?;
        if a.result.cycles != b.result.cycles || !runner.threads().eq(a_threads.iter().map(view)) {
            return Err(fail(
                who("determinism", model, 200),
                format!("repeated run diverged: {} vs {} cycles", a.result.cycles, b.result.cycles),
            ));
        }
    }

    // Fault-injected runs: drops/delays/duplicates change traffic and
    // timing, never architecture.
    let fault_grid: [(SwitchModel, &Image, &str); 4] = [
        (SwitchModel::SwitchOnLoad, var.ungrouped(), "fault-ungrouped"),
        (SwitchModel::ExplicitSwitch, var.grouped(), "fault-grouped"),
        (SwitchModel::ConditionalSwitch, var.grouped(), "fault-grouped"),
        // The most aggressive pipeline must also survive an unreliable
        // network (use-miss switching makes progress at any latency).
        (SwitchModel::SwitchOnUseMiss, var.pipelined(), "fault-opt"),
    ];
    for (i, (model, image, tag)) in fault_grid.into_iter().enumerate() {
        let seed = Rng::derive(fault_seed, "fault-run").next_u64().wrapping_add(i as u64);
        let cfg = MachineConfig::new(model, procs, tpp)
            .with_latency(200)
            .with_faults(fault_profile(seed));
        check(runner, cfg, image, &|| who(tag, model, 200))?;
    }

    // Network-topology runs (PR 4): a modeled interconnect — queueing,
    // routing, combining — changes timing, never results. Every contention
    // topology must still match the oracle byte-for-byte. (`Constant` is
    // already the whole grid above: an inactive network is the identity.)
    let net_grid: [(Topology, bool, SwitchModel, &Image); 4] = [
        (Topology::Crossbar, false, SwitchModel::SwitchOnLoad, var.ungrouped()),
        (Topology::Mesh, false, SwitchModel::SwitchOnLoad, var.ungrouped()),
        (Topology::Butterfly, false, SwitchModel::SwitchOnLoad, var.ungrouped()),
        (Topology::Butterfly, true, SwitchModel::ExplicitSwitch, var.grouped()),
    ];
    for (topology, combining, model, image) in net_grid {
        let label = || {
            format!(
                "n={n} p={procs} t={tpp} net-{topology}{} {} lat=200",
                if combining { "+comb" } else { "" },
                model.name()
            )
        };
        let cfg = MachineConfig::new(model, procs, tpp)
            .with_latency(200)
            .with_net(NetworkConfig::new(topology).with_combining(combining));
        check(runner, cfg, image, &label)?;
    }

    Ok(())
}

/// Compares an engine run against the oracle: full shared memory always;
/// registers, FP bit patterns, and local memory when the case is
/// interleaving-independent at the register level.
pub fn compare(oracle: &OracleRun, run: &FinishedRun, regs_comparable: bool) -> Result<(), String> {
    compare_state(oracle, &run.shared, run.threads.iter().map(view), regs_comparable)
}

/// [`compare`] over a run's final shared memory and a view of its
/// threads' final states (e.g. read from a parked machine).
pub(crate) fn compare_state<'a>(
    oracle: &OracleRun,
    shared: &SharedMemory,
    threads: impl ExactSizeIterator<Item = ThreadView<'a>>,
    regs_comparable: bool,
) -> Result<(), String> {
    if oracle.shared.len() != shared.len() {
        return Err(format!(
            "shared size diverged: oracle {} vs engine {} words",
            oracle.shared.len(),
            shared.len()
        ));
    }
    for addr in 0..oracle.shared.len() {
        let (o, e) = (oracle.shared.read(addr), shared.read(addr));
        if o != e {
            return Err(format!(
                "shared[{addr}] diverged: oracle {o:#x} ({}) vs engine {e:#x} ({})",
                o as i64, e as i64
            ));
        }
    }
    if !regs_comparable {
        return Ok(());
    }
    if oracle.threads.len() != threads.len() {
        return Err(format!(
            "thread count diverged: oracle {} vs engine {}",
            oracle.threads.len(),
            threads.len()
        ));
    }
    for (t, (o, e)) in oracle.threads.iter().zip(threads).enumerate() {
        if let Some(r) = (0..o.regs.len()).find(|&r| o.regs[r] != e.regs[r]) {
            return Err(format!(
                "thread {t} r{r} diverged: oracle {} vs engine {}",
                o.regs[r], e.regs[r]
            ));
        }
        if let Some(r) = (0..o.fregs.len()).find(|&r| o.fregs[r] != e.fregs[r]) {
            return Err(format!(
                "thread {t} f{r} diverged: oracle {:#x} vs engine {:#x}",
                o.fregs[r], e.fregs[r]
            ));
        }
        if o.local != e.local {
            let w = (0..o.local.len().min(e.local.len()))
                .find(|&w| o.local[w] != e.local[w])
                .unwrap_or(0);
            return Err(format!(
                "thread {t} local[{w}] diverged: oracle {:#x} vs engine {:#x}",
                o.local.get(w).copied().unwrap_or(0),
                e.local.get(w).copied().unwrap_or(0)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn splits_cover_the_paper_shapes() {
        assert_eq!(splits(1), vec![(1, 1)]);
        assert_eq!(splits(2), vec![(1, 2), (2, 1)]);
        assert_eq!(splits(4), vec![(1, 4), (4, 1), (2, 2)]);
    }

    #[test]
    fn a_handful_of_seeds_pass_the_full_grid() {
        for seed in 0..6 {
            let tp = generate(seed);
            let report = check_program(&tp, seed)
                .unwrap_or_else(|f| panic!("seed {seed} failed at {}: {}", f.label, f.detail));
            assert!(report.engine_runs > 0);
        }
    }
}
