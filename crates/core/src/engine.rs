//! The discrete-event multiprocessor engine.
//!
//! Each processor interleaves its resident threads in round-robin order.
//! Between shared accesses a processor executes private (local) code
//! directly — nothing another processor does can affect it — so the event
//! loop only needs to interleave processors at shared-access boundaries.
//! Shared operations are applied to memory in global time order (ties
//! broken deterministically by event sequence), which, under the paper's
//! constant-latency network, is identical to memory-arrival order.
//!
//! Hot-path structure (DESIGN.md §20): the engine executes a
//! [`DecodedProgram`] — per-instruction costs, def/use register masks,
//! and scheduling flags resolved once at build time — over [`Threads`]'
//! struct-of-arrays state, and interleaves processors through an
//! [`EventQueue`] whose pops *jump* the global clock over idle gaps
//! rather than ticking through them.

use std::collections::VecDeque;

use crate::decode::{DInst, DecodedProgram};
use crate::events::EventQueue;
use crate::model::{MachineConfig, SwitchModel};
use crate::stats::{DeadlockWaiter, ProcStats, RunLengthHist, RunResult, SimError};
use crate::thread::{PendingReg, Thread, Threads};
use mtsim_asm::Program;
use mtsim_isa::{AccessHint, AluOp, BCond, CmpOp, FpuOp, Inst, Pc, Space};
use mtsim_mem::{
    message_bits, CoherentCaches, FaultPlan, MsgClass, Network, SharedMemory, TraceEvent,
    TraceKind, Traffic,
};
use mtsim_obs::{Cat, EventKind, Metric, NoopRecorder, Recorder, SwitchCause};

#[derive(Debug, Default)]
struct Counters {
    taken: u64,
    skipped: u64,
    forced: u64,
    reads: u64,
    stalls: u64,
    instructions: u64,
    /// Shared-memory mutations (stores, fetch-and-adds) applied so far;
    /// the deadlock detector's clock.
    mutations: u64,
    /// Set when a thread's spin loop was just proven periodic — tells
    /// `step_proc` to run the machine-wide deadlock scan.
    spin_confirm: bool,
}

#[derive(Debug)]
struct Proc {
    queue: VecDeque<usize>,
    current: Option<usize>,
    time: u64,
    stats: ProcStats,
    /// Round-robin cursor for the SMT issue loop: the resident offset the
    /// per-cycle ready scan starts from, advanced past the first issuer
    /// each cycle so no ready context can monopolize the lanes. Unused by
    /// the switching models (they rotate through `queue`).
    rr: usize,
}

enum Outcome {
    Continue,
    Yield { wake: u64, cause: SwitchCause },
    Halt,
}

enum StepOut {
    Reschedule(u64),
    Done,
}

/// A configured machine ready to run one program to completion.
///
/// # Example
///
/// ```
/// use mtsim_asm::ProgramBuilder;
/// use mtsim_core::{Machine, MachineConfig, SwitchModel};
/// use mtsim_mem::SharedMemory;
///
/// // Each thread adds its id into a shared counter.
/// let mut b = ProgramBuilder::new("count");
/// b.fetch_add_discard(b.const_i(0), b.tid() + 1, mtsim_isa::AccessHint::Data);
/// let prog = b.finish();
///
/// let config = MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 2);
/// let run = Machine::new(config, &prog, SharedMemory::new(1)).run().unwrap();
/// assert_eq!(run.shared.read_i64(0), 1 + 2 + 3 + 4);
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    /// The pre-decoded program the hot loop executes.
    decoded: DecodedProgram,
    shared: SharedMemory,
    threads: Threads,
    procs: Vec<Proc>,
    caches: Option<CoherentCaches>,
    traffic: Traffic,
    run_lengths: RunLengthHist,
    counters: Counters,
    trace: Option<Vec<TraceEvent>>,
    fault: Option<FaultPlan>,
    /// Present only when a contention topology (or combining) is
    /// configured; `None` leaves the paper's constant-latency path —
    /// and every existing golden number — untouched.
    net: Option<Network>,
    /// External cancel token, polled from the step loop. `None` (the
    /// default) costs one predictable branch per step; a supervisor that
    /// sets the flag turns the run into [`SimError::Cancelled`].
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// The SMT issue loop's per-cycle ready list, owned here so the scan
    /// that fills it once per simulated cycle allocates only on first use.
    smt_ready: Vec<usize>,
}

/// A completed run: statistics plus the final shared-memory image (for
/// result verification).
#[derive(Debug)]
pub struct FinishedRun {
    /// Simulation statistics.
    pub result: RunResult,
    /// Shared memory at completion.
    pub shared: SharedMemory,
    /// Final architectural state of every thread, indexed by thread id
    /// (used by `mtsim-check` to compare runs against the reference
    /// interpreter).
    pub threads: Vec<ThreadImage>,
}

/// The architectural state a thread retires with: both register files
/// (floats as bit patterns, so NaNs compare exactly) and private memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadImage {
    /// Integer registers (`r0` always zero).
    pub regs: [i64; mtsim_isa::Reg::COUNT],
    /// FP registers as IEEE-754 bit patterns.
    pub fregs: [u64; mtsim_isa::FReg::COUNT],
    /// Local (private) memory words.
    pub local: Vec<u64>,
}

/// A completed run without the per-thread architectural images: the
/// variant [`Machine::run_reusing`] returns when the caller only needs
/// statistics plus the final shared memory (e.g. for result
/// verification) and wants the thread buffers recycled instead of
/// imaged.
#[derive(Debug)]
pub struct LeanRun {
    /// Simulation statistics.
    pub result: RunResult,
    /// Shared memory at completion.
    pub shared: SharedMemory,
}

/// Recyclable machine buffers: the per-thread state (dominated by each
/// thread's local memory vector) and the decoded program of a finished
/// run. A caller that runs many machines in a row keeps one of these, so
/// consecutive builds allocate no thread state and re-derive no decode.
///
/// The scratch holds at most one parked machine — sweeps iterate grids
/// in axis order, so consecutive jobs on a worker overwhelmingly share
/// a shape and a deeper cache would mostly hold dead buffers.
#[derive(Debug, Default)]
pub struct MachineScratch {
    key: u64,
    threads: Threads,
    decoded: Option<DecodedProgram>,
}

impl MachineScratch {
    /// An empty scratch: the first build through it allocates fresh.
    pub fn new() -> MachineScratch {
        MachineScratch::default()
    }

    /// The final state of every thread of the run last parked here,
    /// indexed by thread id; empty when nothing is parked.
    pub fn threads(&self) -> impl ExactSizeIterator<Item = ThreadView<'_>> {
        let parked = if self.key != 0 { &self.threads.cold[..] } else { &[] };
        parked.iter().map(|t| ThreadView {
            regs: &t.regs,
            fregs: t.fregs.map(f64::to_bits),
            local: &t.local,
        })
    }
}

/// A [`ThreadImage`]'s content borrowed from parked buffers, without
/// copying local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadView<'a> {
    /// Integer registers (`r0` always zero).
    pub regs: &'a [i64; mtsim_isa::Reg::COUNT],
    /// FP registers as IEEE-754 bit patterns.
    pub fregs: [u64; mtsim_isa::FReg::COUNT],
    /// Local (private) memory words.
    pub local: &'a [u64],
}

impl Machine {
    /// Builds a machine running `program` on every thread over `shared`.
    ///
    /// Thread ids are assigned contiguously per processor: processor `p`
    /// hosts threads `p*T .. (p+1)*T`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]). [`Machine::try_new`] reports the
    /// problem as a [`SimError::Config`] instead.
    pub fn new(config: MachineConfig, program: &Program, shared: SharedMemory) -> Machine {
        Machine::try_new(config, program, shared).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine, rejecting an invalid configuration as
    /// [`SimError::Config`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when
    /// [`MachineConfig::try_validate`] fails.
    pub fn try_new(
        config: MachineConfig,
        program: &Program,
        shared: SharedMemory,
    ) -> Result<Machine, SimError> {
        let mut scratch = MachineScratch::new();
        Machine::try_new_reusing(config, program, shared, 0, &mut scratch).map(|(m, _)| m)
    }

    /// Builds a machine like [`Machine::try_new`], but recycling the
    /// buffers parked in `scratch` by a previous [`Machine::run_reusing`].
    /// Returns the machine and whether the parked decode was reused.
    ///
    /// The key is only a hint: the parked decode is reused when `key` is
    /// non-zero, equals the parked key, **and** the decode was made from
    /// exactly `program`'s instructions, so a colliding key costs a
    /// decode, never correctness. Parked thread buffers are always
    /// recycled — every build resets them to a fresh machine's state.
    /// Key 0 never reuses a decode and never parks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when
    /// [`MachineConfig::try_validate`] fails.
    pub fn try_new_reusing(
        config: MachineConfig,
        program: &Program,
        shared: SharedMemory,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<(Machine, bool), SimError> {
        Machine::try_new_inner(config, program, None, shared, key, scratch)
    }

    /// Builds a machine like [`Machine::try_new_reusing`], but with the
    /// program's decode supplied by the caller instead of recomputed —
    /// the artifact-cache path: `mtsim-sweep` decodes each built program
    /// once and every grid point that runs it clones the shared table
    /// (an `Arc` bump) rather than re-deriving it.
    ///
    /// `decoded` must be the decode of `program`; the pairing is the
    /// caller's contract, checked under `debug-invariants`. A parked
    /// decode is reused only if it shares `decoded`'s table allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when
    /// [`MachineConfig::try_validate`] fails.
    pub fn try_new_predecoded(
        config: MachineConfig,
        program: &Program,
        decoded: &DecodedProgram,
        shared: SharedMemory,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<(Machine, bool), SimError> {
        Machine::try_new_inner(config, program, Some(decoded), shared, key, scratch)
    }

    fn try_new_inner(
        config: MachineConfig,
        program: &Program,
        predecoded: Option<&DecodedProgram>,
        shared: SharedMemory,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<(Machine, bool), SimError> {
        config.try_validate().map_err(|detail| SimError::Config { detail })?;
        let nthreads = config.total_threads();
        let local_words = config.local_mem_words.max(program.local_words());
        let parked = scratch.decoded.take().filter(|d| {
            key != 0
                && scratch.key == key
                && predecoded.map_or_else(|| d.same_code(program), |given| d.shares_table(given))
        });
        scratch.key = 0;
        let reused = parked.is_some();
        let decoded = parked
            .or_else(|| predecoded.cloned())
            .unwrap_or_else(|| DecodedProgram::decode(program));
        #[cfg(feature = "debug-invariants")]
        assert_eq!(
            decoded.len(),
            program.len(),
            "decoded program does not match the program image"
        );
        let mut threads = std::mem::take(&mut scratch.threads);
        threads.reset(nthreads, local_words);
        let procs = (0..config.processors)
            .map(|p| Proc {
                queue: (p * config.threads_per_proc..(p + 1) * config.threads_per_proc).collect(),
                current: None,
                time: 0,
                stats: ProcStats::default(),
                rr: 0,
            })
            .collect();
        let caches =
            config.model.uses_cache().then(|| CoherentCaches::new(config.processors, config.cache));
        let collect_trace = config.collect_trace;
        let fault = config.fault.is_active().then(|| FaultPlan::new(config.fault));
        let net = config
            .net
            .is_active()
            .then(|| Network::new(config.net, config.processors, config.latency));
        let machine = Machine {
            config,
            decoded,
            shared,
            threads,
            procs,
            caches,
            traffic: Traffic::new(),
            run_lengths: RunLengthHist::new(),
            counters: Counters::default(),
            trace: collect_trace.then(Vec::new),
            fault,
            net,
            cancel: None,
            smt_ready: Vec::new(),
        };
        Ok((machine, reused))
    }

    /// Attaches an external cancel token. A supervisor thread (e.g. the
    /// sweep pool's per-job wall-clock watchdog) stores `true` into the
    /// token; the engine polls it from the step loop and aborts the run
    /// with [`SimError::Cancelled`] within a few simulated instructions.
    /// Without a token the poll compiles to a single never-taken branch,
    /// so undecorated runs stay on the measured fast path.
    #[must_use]
    pub fn with_cancel_token(
        mut self,
        token: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Machine {
        self.cancel = Some(token);
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs all threads to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] when every live thread is proven stuck in
    ///   a spin loop no remaining thread can release, reported with the
    ///   full cycle of waiters;
    /// * [`SimError::Watchdog`] when the configured cycle limit elapses
    ///   first (livelock the detector cannot prove);
    /// * [`SimError::Fault`] when a shared-memory request exhausts its
    ///   retry budget under fault injection;
    /// * [`SimError::BadProgram`] when the simulated program performs a
    ///   wild memory access or runs off the end of its code.
    pub fn run(self) -> Result<FinishedRun, SimError> {
        self.run_with(&mut NoopRecorder)
    }

    /// Runs all threads to completion with an observability [`Recorder`]
    /// attached. The engine is monomorphized per recorder type:
    /// [`Machine::run`] passes the no-op recorder, whose empty inline
    /// hooks compile away, so the undecorated path is the seed engine —
    /// bit-identical results, no measurable overhead. A real recorder
    /// (e.g. `mtsim_obs::ObsRecorder`) observes events, per-thread cycle
    /// attribution, and histogram samples without feeding anything back
    /// into the simulation, so results are identical either way.
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::run`].
    pub fn run_with<R: Recorder>(self, rec: &mut R) -> Result<FinishedRun, SimError> {
        let (result, shared, threads, _) = self.run_to_completion(rec)?;
        let threads = threads
            .cold
            .into_iter()
            .map(|t| ThreadImage { regs: t.regs, fregs: t.fregs.map(f64::to_bits), local: t.local })
            .collect();
        Ok(FinishedRun { result, shared, threads })
    }

    /// Runs to completion like [`Machine::run_with`], then parks the
    /// machine's buffers in `scratch` under `key` for the next build.
    /// Returns statistics plus final shared memory; the threads' final
    /// state stays parked, readable through [`MachineScratch::threads`].
    /// On error nothing is parked.
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::run`].
    pub fn run_reusing<R: Recorder>(
        self,
        rec: &mut R,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<LeanRun, SimError> {
        let (result, shared, threads, decoded) = self.run_to_completion(rec)?;
        if key != 0 {
            scratch.key = key;
            scratch.threads = threads;
            scratch.decoded = Some(decoded);
        }
        Ok(LeanRun { result, shared })
    }

    /// The shared run loop: drives every processor to completion and
    /// hands the result back along with the moved-out buffers, so the
    /// public variants decide whether to image or recycle the threads.
    fn run_to_completion<R: Recorder>(
        mut self,
        rec: &mut R,
    ) -> Result<(RunResult, SharedMemory, Threads, DecodedProgram), SimError> {
        let mut events = EventQueue::new();
        for p in 0..self.procs.len() {
            events.push(0, p);
        }
        // Skip-ahead loop: each pop *jumps* the popped processor's clock
        // to the event time (idle gaps are never ticked through), and
        // `peek_time` is the horizon it may run ahead of other
        // processors before its next shared access.
        let smt = self.config.model == SwitchModel::Smt;
        while let Some((t, p)) = events.pop() {
            self.procs[p].time = self.procs[p].time.max(t);
            let peek = events.peek_time();
            loop {
                let step = if smt {
                    self.step_proc_smt(p, peek, rec)?
                } else {
                    self.step_proc(p, peek, rec)?
                };
                match step {
                    // Strictly earlier than every queued event: a push
                    // would pop straight back (equal times must queue —
                    // the older event pops first). Skip the round trip
                    // and keep driving the same processor; `peek` is
                    // unchanged because nothing was pushed.
                    StepOut::Reschedule(at) if at < peek => continue,
                    StepOut::Reschedule(at) => {
                        events.push(at, p);
                        break;
                    }
                    StepOut::Done => break,
                }
            }
        }
        #[cfg(feature = "debug-invariants")]
        events.assert_drained();
        debug_assert!(self.threads.halted.iter().all(|&h| h), "event queue drained early");

        let cycles = self.procs.iter().map(|p| p.stats.finish_time).max().unwrap_or(0);
        if R::ENABLED {
            // End-of-run slack: a processor that finished early idles until
            // the machine-wide completion cycle. Everything before its
            // finish time was already charged cycle-by-cycle, so this
            // closes the attribution conservation law.
            if smt {
                // SMT accounting law (DESIGN.md §22): the per-thread wait
                // categories do not exist (nothing yields), so the only
                // per-thread charge is Busy — one slot-cycle per issued
                // cost cycle of lane occupancy, which excludes each
                // thread's final `Halt` (it frees its lane at issue). The
                // residual W×finish − occupied is the processor's
                // unfilled issue slots; end-of-run slack is still
                // whole-processor idle, scaled by W in the conservation
                // law, not here.
                let w = self.config.issue_width as u64;
                let tpp = self.config.threads_per_proc;
                rec.set_issue_width(w);
                for (p, proc) in self.procs.iter().enumerate() {
                    let halts: u64 = self.threads.cold[p * tpp..(p + 1) * tpp]
                        .iter()
                        .map(|th| self.decoded.inst(th.pc as usize - 1).cost as u64)
                        .sum();
                    let occupied = proc.stats.busy - halts;
                    debug_assert!(
                        w * proc.stats.finish_time >= occupied,
                        "smt lane overflow: {occupied} lane-cycles > {w} lanes × finish {}",
                        proc.stats.finish_time
                    );
                    let slots = (w * proc.stats.finish_time).saturating_sub(occupied);
                    rec.charge_issue_idle(p, slots);
                    rec.charge_idle(p, cycles - proc.stats.finish_time);
                }
            } else {
                for (p, proc) in self.procs.iter().enumerate() {
                    rec.charge_idle(p, cycles - proc.stats.finish_time);
                }
            }
            rec.finish_run(cycles);
        }
        let one_line = self
            .threads
            .cold
            .iter()
            .fold((0, 0), |(h, a), t| (h + t.one_line.hits(), a + t.one_line.accesses()));
        let result = RunResult {
            cycles,
            per_proc: self.procs.iter().map(|p| p.stats).collect(),
            run_lengths: self.run_lengths,
            switches_taken: self.counters.taken,
            switches_skipped: self.counters.skipped,
            forced_switches: self.counters.forced,
            reads_issued: self.counters.reads,
            traffic: self.traffic,
            cache: self.caches.as_ref().map(|c| c.total_stats()),
            one_line,
            scoreboard_stalls: self.counters.stalls,
            instructions: self.counters.instructions,
            trace: self.trace,
            net: self.net.as_ref().map(|n| n.stats()),
        };
        Ok((result, self.shared, self.threads, self.decoded))
    }

    /// Executes processor `p` from its current time until it must hand
    /// control back to the event loop.
    fn step_proc<R: Recorder>(
        &mut self,
        p: usize,
        peek: u64,
        rec: &mut R,
    ) -> Result<StepOut, SimError> {
        // Split borrows once for the whole batch.
        let config = &self.config;
        let decoded = &self.decoded;
        let shared = &mut self.shared;
        let ths = &mut self.threads;
        let caches = &mut self.caches;
        let traffic = &mut self.traffic;
        let run_lengths = &mut self.run_lengths;
        let counters = &mut self.counters;
        let trace = &mut self.trace;
        let fault = &mut self.fault;
        let net = &mut self.net;
        let cancel = self.cancel.as_deref();
        let proc = &mut self.procs[p];

        #[cfg(feature = "debug-invariants")]
        let mut last_time = proc.time;
        loop {
            #[cfg(feature = "debug-invariants")]
            {
                assert!(
                    proc.time >= last_time,
                    "processor {p} clock ran backwards: {} < {last_time}",
                    proc.time
                );
                last_time = proc.time;
                assert_step_invariants(p, proc, ths, config);
            }
            if proc.time > config.max_cycles {
                return Err(SimError::Watchdog {
                    max_cycles: config.max_cycles,
                    halted_threads: ths.halted.iter().filter(|&&h| h).count(),
                    total_threads: ths.len(),
                });
            }
            if let Some(token) = cancel {
                if token.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::Cancelled { cycle: proc.time });
                }
            }

            // Pick a thread if none is running: first runnable in
            // round-robin order.
            if proc.current.is_none() {
                if proc.queue.is_empty() {
                    proc.stats.finish_time = proc.time;
                    return Ok(StepOut::Done);
                }
                let now = proc.time;
                // Round-robin over runnable threads; with priority
                // scheduling enabled, a runnable higher-priority thread
                // (e.g. one inside a critical region) is taken first.
                let pick = if config.priority_scheduling {
                    proc.queue
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| ths.wake[t] <= now)
                        .max_by_key(|&(i, &t)| (ths.prio[t], std::cmp::Reverse(i)))
                        .map(|(i, _)| i)
                } else {
                    proc.queue.iter().position(|&t| ths.wake[t] <= now)
                };
                match pick {
                    Some(i) => {
                        proc.current = proc.queue.remove(i);
                        if R::ENABLED {
                            rec.event(
                                proc.time,
                                p,
                                proc.current.expect("picked"),
                                EventKind::SwitchIn,
                            );
                        }
                    }
                    None => {
                        // `min_by_key` keeps the first of equal wakes, so
                        // the chosen (wake, thread) pair is deterministic
                        // and the wake value matches the former plain
                        // `min()` over wake times.
                        let (wtid, wake) = proc
                            .queue
                            .iter()
                            .map(|&t| (t, ths.wake[t]))
                            .min_by_key(|&(_, w)| w)
                            .expect("nonempty");
                        // No lost wakeups: a sleep is only legal when every
                        // resident thread really wakes strictly later.
                        #[cfg(feature = "debug-invariants")]
                        assert!(
                            wake > now,
                            "lost wakeup on processor {p}: thread runnable at {now} but not picked"
                        );
                        // Attribution: the sleep ends when its earliest
                        // thread wakes, so the whole gap is that thread's
                        // wait — memory stall (including fault-retry
                        // backoff, which merely pushes the wake time out),
                        // lock spin, or barrier wait, as tagged when it
                        // yielded. True idle is only end-of-run slack.
                        rec.charge(wtid, ths.cold[wtid].wait, wake - proc.time);
                        proc.stats.idle += wake - proc.time;
                        proc.time = wake;
                        return Ok(StepOut::Reschedule(wake));
                    }
                }
            }
            let tid = proc.current.expect("current thread");

            // Fast path (DESIGN.md §20): burn through an unbroken run of
            // local-only instructions without re-entering the scheduler.
            // Gated off when recording (per-step charges must land) and
            // under `debug-invariants` (the strict loop asserts every
            // step); SwitchEveryCycle is excluded because it rotates
            // after every instruction. Each iteration replays the slow
            // path's per-instruction order exactly — scoreboard
            // (reap / purge / stall-in-place), then `exec`'s preamble
            // (cost, pc, spin reset, register kill), then the semantic
            // body — with the accounting accumulated and flushed in one
            // shot, so results are bit-identical. The SwitchOnUse models'
            // scoreboard hit is *their switch point*: the loop breaks and
            // hands that instruction back to the slow path untouched
            // (the ready-purge it re-runs is idempotent).
            #[cfg(not(feature = "debug-invariants"))]
            if !R::ENABLED && config.model != SwitchModel::SwitchEveryCycle {
                let th = &mut ths.cold[tid];
                let insts = decoded.insts();
                let mut time = proc.time;
                let mut busy = 0u64;
                let mut stall = 0u64;
                let mut steps = 0u64;
                let mut fast_err = None;
                // Bounded so a local-only spin (cost-0 loops included)
                // still reaches the outer loop's watchdog and cancel
                // checks at the same observable points as the slow path.
                while steps < 65_536 {
                    let Some(di) = insts.get(th.pc as usize) else { break };
                    if !di.is_local_exec() || time > config.max_cycles {
                        break;
                    }
                    if let Some(token) = cancel {
                        if token.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                    }
                    if !th.pending.is_empty() {
                        if time >= th.outstanding {
                            th.reap_all_pending();
                        } else if let Some(ready) =
                            th.pending_ready_for_masks(time, di.int_use_mask, di.fp_use_mask)
                        {
                            if matches!(
                                config.model,
                                SwitchModel::SwitchOnUse | SwitchModel::SwitchOnUseMiss
                            ) {
                                break;
                            }
                            // Contract violation (or deliberate use
                            // before switch): stall in place.
                            stall += ready - time;
                            time = ready;
                        }
                    } else {
                        // Straight-line block: the scoreboard is empty
                        // and stays empty across local-only fall-through
                        // instructions (only shared loads add entries),
                        // so a whole decoded run executes with no
                        // per-instruction scheduler, scoreboard,
                        // watchdog, or cancel checks — those hold
                        // block-entry-to-block-exit. Bodies and
                        // accounting are the same per-instruction
                        // sequence as below, so results are identical.
                        let run = decoded.straight_run(th.pc as usize).min(65_536 - steps as u32);
                        if run >= 2 {
                            let start = th.pc as usize;
                            let mut pc = th.pc;
                            let mut cycles = 0u64;
                            for bdi in &insts[start..start + run as usize] {
                                cycles += bdi.cost as u64;
                                let pc0 = pc;
                                pc += 1;
                                if bdi.resets_spin() {
                                    th.reset_spin();
                                }
                                // `th.pc` is committed after the loop:
                                // straight-line bodies never read it, and
                                // a failing instruction reports `pc0`.
                                if let Err(e) = exec_local(bdi, th, tid, pc0) {
                                    fast_err = Some(e);
                                    break;
                                }
                            }
                            th.pc = pc;
                            time += cycles;
                            busy += cycles;
                            th.run_cycles += cycles;
                            steps += (pc as u64) - (start as u64);
                            if fast_err.is_some() {
                                break;
                            }
                            continue;
                        }
                    }
                    steps += 1;
                    match issue_local(di, th, tid) {
                        Ok(c) => {
                            time += c;
                            busy += c;
                        }
                        Err(e) => {
                            fast_err = Some(e);
                            break;
                        }
                    }
                }
                if steps > 0 {
                    proc.time = time;
                    proc.stats.busy += busy;
                    proc.stats.stall += stall;
                    counters.stalls += stall;
                    counters.instructions += steps;
                    if let Some(e) = fast_err {
                        return Err(e);
                    }
                    continue;
                }
            }

            let pc = ths.cold[tid].pc;
            if pc as usize >= decoded.len() {
                return Err(SimError::BadProgram {
                    thread: tid,
                    pc: pc as u64,
                    detail: format!(
                        "program counter ran past the end of the code ({} instructions)",
                        decoded.len()
                    ),
                });
            }
            let di = decoded.inst(pc as usize);

            // Event boundary: shared accesses must execute in global time
            // order. If we have run ahead of the next event, hand control
            // back and resume when we are earliest again.
            if di.is_shared_access() && proc.time > peek {
                return Ok(StepOut::Reschedule(proc.time));
            }

            // Split-phase scoreboard: reading an in-flight value.
            if !ths.cold[tid].pending.is_empty() {
                let th = &mut ths.cold[tid];
                if proc.time >= th.outstanding {
                    th.reap_all_pending();
                } else if let Some(ready) =
                    th.pending_ready_for_masks(proc.time, di.int_use_mask, di.fp_use_mask)
                {
                    match config.model {
                        SwitchModel::SwitchOnUse | SwitchModel::SwitchOnUseMiss => {
                            // This *is* the model's switch point.
                            let overhead = if config.model.pays_switch_cost() {
                                config.switch_cost
                            } else {
                                0
                            };
                            proc.stats.overhead += overhead;
                            proc.time += overhead;
                            rec.charge(tid, Cat::SwitchOverhead, overhead);
                            yield_thread(
                                proc,
                                ths,
                                tid,
                                ready,
                                run_lengths,
                                counters,
                                p,
                                SwitchCause::Use,
                                rec,
                            );
                            continue;
                        }
                        _ => {
                            // Contract violation (or deliberate use
                            // before switch): stall in place.
                            let wait = ready - proc.time;
                            proc.stats.stall += wait;
                            counters.stalls += wait;
                            rec.charge(tid, Cat::MemoryStall, wait);
                            proc.time = ready;
                        }
                    }
                }
            }

            // Execute one instruction.
            let outcome = if LOCAL_ISSUE && !R::ENABLED && di.is_local_exec() {
                let c = issue_local(di, &mut ths.cold[tid], tid)?;
                proc.time += c;
                proc.stats.busy += c;
                counters.instructions += 1;
                Outcome::Continue
            } else {
                exec(
                    config, di, p, tid, ths, proc, shared, caches, traffic, counters, trace, fault,
                    net, rec,
                )?
            };
            // A spin loop was just proven periodic: if every live thread
            // is in that state (and has seen the latest mutation), nobody
            // can ever write the words they wait on — a real deadlock.
            if counters.spin_confirm {
                counters.spin_confirm = false;
                if let Some(err) =
                    detect_deadlock(ths, config.threads_per_proc, counters.mutations, proc.time)
                {
                    return Err(err);
                }
            }
            match outcome {
                Outcome::Continue => {
                    if config.model == SwitchModel::SwitchEveryCycle {
                        let wake = proc.time;
                        yield_thread(
                            proc,
                            ths,
                            tid,
                            wake,
                            run_lengths,
                            counters,
                            p,
                            SwitchCause::Rotation,
                            rec,
                        );
                    }
                }
                Outcome::Yield { wake, cause } => {
                    if config.model.pays_switch_cost() {
                        proc.stats.overhead += config.switch_cost;
                        proc.time += config.switch_cost;
                        rec.charge(tid, Cat::SwitchOverhead, config.switch_cost);
                    }
                    yield_thread(proc, ths, tid, wake, run_lengths, counters, p, cause, rec);
                }
                Outcome::Halt => {
                    let th = &mut ths.cold[tid];
                    if th.run_cycles > 0 {
                        run_lengths.record(th.run_cycles);
                        rec.sample(Metric::RunLength, th.run_cycles);
                        th.run_cycles = 0;
                    }
                    ths.halted[tid] = true;
                    proc.current = None;
                    rec.event(proc.time, p, tid, EventKind::Halt);
                }
            }
        }
    }

    /// Executes processor `p` under [`SwitchModel::Smt`]: a per-cycle
    /// issue loop instead of the switching models' run-until-yield
    /// scheduler (DESIGN.md §22).
    ///
    /// Lane-occupancy model: every thread executes its issued instruction
    /// to completion on a functional-unit lane, so at time `now` a thread
    /// with `wake > now` *is* a busy lane (wake is only ever set to
    /// issue-time + cost). Each cycle the scan counts busy lanes, collects
    /// threads that are awake, in-bounds, and scoreboard-clear, and issues
    /// up to `issue_width − busy_lanes` of them in round-robin order from
    /// the `rr` cursor. A thread whose operand is still in flight simply
    /// does not compete that cycle — nothing yields, nothing pays a switch
    /// cost, and the scheduler queue is never touched (residents stay
    /// parked in `queue`; `current` stays `None`).
    ///
    /// One scan per cycle: issuing updates the scan's busy-lane count,
    /// earliest wake and live count in place, which is exactly what a
    /// rescan at the same `now` would find — unless an issue cost 0
    /// cycles (its thread competes again this cycle) or a `Halt` freed a
    /// lane while ready threads still wait; only then does the cycle scan
    /// again.
    ///
    /// Time only advances in the wait path (no ready thread or no free
    /// lane), jumping straight to the earliest wake/scoreboard-ready time,
    /// so `proc.stats.idle` is never charged mid-run: a gap with no ready
    /// thread can still have lanes draining earlier multi-cycle issues,
    /// and the unfilled-slot residual is computed once at end of run
    /// (`W × finish − busy`) by `run_to_completion`.
    fn step_proc_smt<R: Recorder>(
        &mut self,
        p: usize,
        peek: u64,
        rec: &mut R,
    ) -> Result<StepOut, SimError> {
        let config = &self.config;
        let decoded = &self.decoded;
        let shared = &mut self.shared;
        let ths = &mut self.threads;
        let caches = &mut self.caches;
        let traffic = &mut self.traffic;
        let run_lengths = &mut self.run_lengths;
        let counters = &mut self.counters;
        let trace = &mut self.trace;
        let fault = &mut self.fault;
        let net = &mut self.net;
        let cancel = self.cancel.as_deref();
        let ready = &mut self.smt_ready;
        let proc = &mut self.procs[p];

        let tpp = config.threads_per_proc;
        let lo = p * tpp;
        let hi = lo + tpp;
        let width = config.issue_width;

        #[cfg(feature = "debug-invariants")]
        let mut last_time = proc.time;
        loop {
            #[cfg(feature = "debug-invariants")]
            {
                assert!(
                    proc.time >= last_time,
                    "processor {p} clock ran backwards: {} < {last_time}",
                    proc.time
                );
                last_time = proc.time;
            }
            if proc.time > config.max_cycles {
                return Err(SimError::Watchdog {
                    max_cycles: config.max_cycles,
                    halted_threads: ths.halted.iter().filter(|&&h| h).count(),
                    total_threads: ths.len(),
                });
            }
            if let Some(token) = cancel {
                if token.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::Cancelled { cycle: proc.time });
                }
            }
            let now = proc.time;
            // Whole-cycle global-order guard: a cycle may contain shared
            // accesses, so it only runs while this processor is earliest.
            if now > peek {
                return Ok(StepOut::Reschedule(now));
            }

            // Per-cycle scan, round-robin from the cursor: count busy
            // lanes, find the earliest future wake/ready time, and collect
            // issuable threads.
            ready.clear();
            let mut busy_lanes = 0usize;
            let mut earliest = u64::MAX;
            let mut live = 0usize;
            let mut next = lo + proc.rr;
            for _ in 0..tpp {
                let tid = next;
                next = if next + 1 == hi { lo } else { next + 1 };
                if ths.halted[tid] {
                    continue;
                }
                live += 1;
                if ths.wake[tid] > now {
                    busy_lanes += 1;
                    earliest = earliest.min(ths.wake[tid]);
                    continue;
                }
                let pc = ths.cold[tid].pc;
                if pc as usize >= decoded.len() {
                    return Err(SimError::BadProgram {
                        thread: tid,
                        pc: pc as u64,
                        detail: format!(
                            "program counter ran past the end of the code ({} instructions)",
                            decoded.len()
                        ),
                    });
                }
                let di = decoded.inst(pc as usize);
                let th = &mut ths.cold[tid];
                if !th.pending.is_empty() {
                    if now >= th.outstanding {
                        th.reap_all_pending();
                    } else if let Some(at) =
                        th.pending_ready_for_masks(now, di.int_use_mask, di.fp_use_mask)
                    {
                        // Operand still in flight: sits out this cycle
                        // without yielding or occupying a lane.
                        earliest = earliest.min(at);
                        continue;
                    }
                }
                ready.push(tid);
            }

            if !ready.is_empty() && busy_lanes < width {
                // Issue phase: up to `width − busy_lanes` ready threads
                // execute this cycle. The scan order already rotates via
                // the cursor; priority scheduling (§6.2) promotes
                // critical-region threads first (stable sort keeps the
                // round-robin order within a level).
                if config.priority_scheduling {
                    ready.sort_by_key(|&t| std::cmp::Reverse(ths.prio[t]));
                }
                let issued = ready.len().min(width - busy_lanes);
                let mut rescan = false;
                for &tid in &ready[..issued] {
                    let di = decoded.inst(ths.cold[tid].pc as usize);
                    let cost = di.cost as u64;
                    let outcome = if LOCAL_ISSUE && !R::ENABLED && di.is_local_exec() {
                        issue_local(di, &mut ths.cold[tid], tid)?;
                        proc.stats.busy += cost;
                        counters.instructions += 1;
                        Outcome::Continue
                    } else {
                        let outcome = exec(
                            config, di, p, tid, ths, proc, shared, caches, traffic, counters,
                            trace, fault, net, rec,
                        )?;
                        // `exec` advanced the clock by `cost` (the
                        // switching models' serial semantics); SMT lanes
                        // run concurrently, so the cycle stays at `now`
                        // and the drain is tracked per thread through
                        // its wake time instead.
                        proc.time = now;
                        outcome
                    };
                    ths.wake[tid] = now + cost;
                    if counters.spin_confirm {
                        counters.spin_confirm = false;
                        if let Some(err) = detect_deadlock(ths, tpp, counters.mutations, now) {
                            return Err(err);
                        }
                    }
                    match outcome {
                        // The issuer now holds a lane until `now + cost`;
                        // a 0-cycle issue leaves it free to compete again.
                        Outcome::Continue if cost == 0 => rescan = true,
                        Outcome::Continue => {
                            busy_lanes += 1;
                            earliest = earliest.min(now + cost);
                        }
                        Outcome::Halt => {
                            let th = &mut ths.cold[tid];
                            if th.run_cycles > 0 {
                                run_lengths.record(th.run_cycles);
                                rec.sample(Metric::RunLength, th.run_cycles);
                                th.run_cycles = 0;
                            }
                            ths.halted[tid] = true;
                            live -= 1;
                            rec.event(now, p, tid, EventKind::Halt);
                        }
                        Outcome::Yield { .. } => {
                            unreachable!("the smt model never yields a context")
                        }
                    }
                }
                // Fairness: start the next cycle's scan just past this
                // cycle's first issuer.
                proc.rr = (ready[0] - lo + 1) % tpp;
                // A halted issuer frees its lane at once: a ready thread
                // left waiting may take it in this same cycle.
                if rescan || (ready.len() > issued && busy_lanes < width) {
                    continue;
                }
            }

            if live == 0 {
                // All residents halted. The drain time of the last issued
                // instructions (their wake times) is part of the run, just
                // as the switching models' `proc.time += cost` on the halt
                // instruction is.
                let drain = ths.wake[lo..hi].iter().copied().max().unwrap_or(now).max(now);
                proc.time = drain;
                proc.stats.finish_time = drain;
                return Ok(StepOut::Done);
            }

            // Nothing (more) can issue this cycle: jump to the earliest
            // lane drain or scoreboard arrival. Live threads guarantee the
            // bound is finite (a live thread is busy, blocked on a finite
            // reply, or ready — and ready is only unusable when every lane
            // is busy).
            debug_assert!(earliest != u64::MAX, "smt wait with nothing to wait for");
            proc.time = earliest;
            if earliest > peek {
                return Ok(StepOut::Reschedule(earliest));
            }
        }
    }
}

/// Rotates `tid` to the back of the round-robin queue.
#[allow(clippy::too_many_arguments)]
fn yield_thread<R: Recorder>(
    proc: &mut Proc,
    ths: &mut Threads,
    tid: usize,
    wake: u64,
    run_lengths: &mut RunLengthHist,
    counters: &mut Counters,
    p: usize,
    cause: SwitchCause,
    rec: &mut R,
) {
    let th = &mut ths.cold[tid];
    if th.run_cycles > 0 {
        run_lengths.record(th.run_cycles);
        rec.sample(Metric::RunLength, th.run_cycles);
        th.run_cycles = 0;
    }
    ths.wake[tid] = wake;
    proc.queue.push_back(tid);
    proc.current = None;
    counters.taken += 1;
    rec.event(proc.time, p, tid, EventKind::SwitchOut { cause });
}

/// Issues a blocking shared read under the configured model.
#[allow(clippy::too_many_arguments)]
#[inline]
fn read_dispatch(
    config: &MachineConfig,
    th: &mut Thread,
    counters: &mut Counters,
    dests: &[(bool, u8)],
    cache_hit: bool,
    oneline_hit: bool,
    reply: u64,
) -> Outcome {
    counters.reads += 1;
    match config.model {
        // Zero-latency rotation: free, and keeps round-robin fairness so
        // same-processor spin loops cannot starve their peers.
        SwitchModel::Ideal => Outcome::Yield { wake: reply, cause: SwitchCause::Load },
        SwitchModel::SwitchEveryCycle | SwitchModel::SwitchOnLoad => {
            Outcome::Yield { wake: reply, cause: SwitchCause::Load }
        }
        SwitchModel::SwitchOnUse => {
            push_pending(th, dests, reply);
            Outcome::Continue
        }
        // Split-phase like SwitchOnUse, but a pending use never yields:
        // the SMT issue loop just skips the thread until the reply lands.
        SwitchModel::Smt => {
            push_pending(th, dests, reply);
            Outcome::Continue
        }
        SwitchModel::ExplicitSwitch => {
            th.group_reads += 1;
            if config.interblock_estimate && oneline_hit {
                // §5.2: this load would have been grouped with the
                // preceding reference — its latency is already covered by
                // the previous group's switch.
                Outcome::Continue
            } else {
                if config.interblock_estimate {
                    th.group_all_oneline = false;
                }
                push_pending(th, dests, reply);
                Outcome::Continue
            }
        }
        SwitchModel::SwitchOnMiss => {
            if cache_hit {
                Outcome::Continue
            } else {
                Outcome::Yield { wake: reply, cause: SwitchCause::Miss }
            }
        }
        SwitchModel::SwitchOnUseMiss => {
            if !cache_hit {
                push_pending(th, dests, reply);
            }
            Outcome::Continue
        }
        SwitchModel::ConditionalSwitch => {
            th.group_reads += 1;
            if !cache_hit {
                th.pending_miss = true;
                push_pending(th, dests, reply);
            }
            Outcome::Continue
        }
    }
}

#[inline]
fn push_pending(th: &mut Thread, dests: &[(bool, u8)], reply: u64) {
    for &(fp, idx) in dests {
        th.pending.push(PendingReg { fp, idx, ready: reply });
        th.issued_entries += 1;
    }
    th.outstanding = th.outstanding.max(reply);
}

/// The `debug-invariants` per-step machine check: run before every
/// instruction of every processor batch. Verifies the thread-state
/// machine, queue integrity, scoreboard-entry sanity, and the
/// issued-vs-retired conservation law for split-phase requests.
#[cfg(feature = "debug-invariants")]
fn assert_step_invariants(p: usize, proc: &Proc, ths: &Threads, config: &MachineConfig) {
    let lo = p * config.threads_per_proc;
    let hi = lo + config.threads_per_proc;
    for &q in &proc.queue {
        assert!(
            (lo..hi).contains(&q),
            "processor {p} queue holds foreign thread {q} (residents are {lo}..{hi})"
        );
    }
    if let Some(cur) = proc.current {
        assert!((lo..hi).contains(&cur), "processor {p} is running foreign thread {cur}");
    }
    assert!(
        ths.wake.len() == ths.len() && ths.prio.len() == ths.len() && ths.halted.len() == ths.len(),
        "SoA arrays out of step with the thread population"
    );
    for tid in lo..hi {
        let th = &ths.cold[tid];
        let queued = proc.queue.iter().filter(|&&t| t == tid).count();
        let running = usize::from(proc.current == Some(tid));
        if ths.halted[tid] {
            assert!(
                queued + running == 0,
                "halted thread {tid} still schedulable on processor {p}"
            );
        } else {
            assert!(
                queued + running == 1,
                "thread {tid} appears {} times in processor {p}'s scheduler (want exactly 1)",
                queued + running
            );
        }
        for pend in &th.pending {
            let limit = if pend.fp { mtsim_isa::FReg::COUNT } else { mtsim_isa::Reg::COUNT };
            assert!(
                (pend.idx as usize) < limit,
                "thread {tid}: pending entry names register {} out of range",
                pend.idx
            );
            assert!(
                pend.fp || pend.idx != 0,
                "thread {tid}: r0 can never carry an in-flight value"
            );
        }
        assert!(
            th.issued_entries == th.reaped_entries + th.pending.len() as u64,
            "thread {tid}: scoreboard conservation broken \
             (issued {} != reaped {} + live {})",
            th.issued_entries,
            th.reaped_entries,
            th.pending.len()
        );
    }
}

/// Whether the non-recording paths issue local-only instructions through
/// [`issue_local`] rather than [`exec`]. Off under `debug-invariants`, so
/// the strict build runs every instruction through `exec`.
const LOCAL_ISSUE: bool = cfg!(not(feature = "debug-invariants"));

/// Issues one *local-only* instruction ([`DInst::is_local_exec`]) on
/// thread `tid`: `exec`'s preamble — cost, pc, spin reset, register
/// kill — then [`exec_local`], without `exec`'s recorder, memory and
/// network arguments. Returns the instruction's cost; the caller charges
/// it to its processor (clock, `busy`) and counts the instruction.
#[inline]
fn issue_local(di: &DInst, th: &mut Thread, tid: usize) -> Result<u64, SimError> {
    let pc0 = th.pc;
    let c = di.cost as u64;
    th.run_cycles += c;
    th.pc += 1;
    if di.resets_spin() {
        th.reset_spin();
    }
    if !th.pending.is_empty() {
        th.kill_pending_masks(di.int_def, di.fp_def_mask);
    }
    exec_local(di, th, tid, pc0)?;
    Ok(c)
}

/// Executes one *local-only* instruction ([`DInst::is_local_exec`]) on
/// the current thread: the semantic core shared by the fast path,
/// [`issue_local`] and [`exec`]. It touches nothing but `th`. The caller
/// has already done the shared accounting (`cost`, `pc += 1`, spin
/// reset) exactly as `exec`'s preamble does.
#[inline(never)]
fn exec_local(di: &DInst, th: &mut Thread, tid: usize, pc0: Pc) -> Result<(), SimError> {
    match di.inst {
        Inst::Alu { op, rd, rs, rt } => {
            let v = alu(op, th.rget(rs), th.rget(rt));
            th.rset(rd, v);
        }
        Inst::AluI { op, rd, rs, imm } => {
            let v = alu(op, th.rget(rs), imm);
            th.rset(rd, v);
        }
        Inst::Fpu { op, fd, fs, ft } => {
            let a = th.fget(fs);
            let b = th.fget(ft);
            let v = match op {
                FpuOp::Add => a + b,
                FpuOp::Sub => a - b,
                FpuOp::Mul => a * b,
                FpuOp::Div => a / b,
                FpuOp::Min => a.min(b),
                FpuOp::Max => a.max(b),
            };
            th.fset(fd, v);
        }
        Inst::FpuCmp { op, rd, fs, ft } => {
            let a = th.fget(fs);
            let b = th.fget(ft);
            let v = match op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            };
            th.rset(rd, v as i64);
        }
        Inst::FLi { fd, val } => th.fset(fd, val),
        Inst::CvtIF { fd, rs } => th.fset(fd, th.rget(rs) as f64),
        Inst::CvtFI { rd, fs } => th.rset(rd, th.fget(fs) as i64),
        Inst::MovIF { fd, rs } => th.fset(fd, f64::from_bits(th.rget(rs) as u64)),
        Inst::MovFI { rd, fs } => th.rset(rd, th.fget(fs).to_bits() as i64),
        Inst::FSqrt { fd, fs } => th.fset(fd, th.fget(fs).sqrt()),
        Inst::Load { space: Space::Local, rd, base, offset, .. } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = local_read_checked(th, tid, pc0, a)? as i64;
            th.rset(rd, v);
        }
        Inst::Store { space: Space::Local, rs, base, offset, .. } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.rget(rs) as u64;
            local_write_checked(th, tid, pc0, a, v)?;
        }
        Inst::FLoad { space: Space::Local, fd, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = f64::from_bits(local_read_checked(th, tid, pc0, a)?);
            th.fset(fd, v);
        }
        Inst::FStore { space: Space::Local, fs, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.fget(fs).to_bits();
            local_write_checked(th, tid, pc0, a, v)?;
        }
        Inst::LoadPair { space: Space::Local, fd1, fd2, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v1 = f64::from_bits(local_read_checked(th, tid, pc0, a)?);
            let v2 = f64::from_bits(local_read_checked(th, tid, pc0, a + 1)?);
            th.fset(fd1, v1);
            th.fset(fd2, v2);
        }
        Inst::StorePair { space: Space::Local, fs1, fs2, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let (v1, v2) = (th.fget(fs1).to_bits(), th.fget(fs2).to_bits());
            local_write_checked(th, tid, pc0, a, v1)?;
            local_write_checked(th, tid, pc0, a + 1, v2)?;
        }
        Inst::Branch { cond, rs, rt, target } => {
            let a = th.rget(rs);
            let b = th.rget(rt);
            let take = match cond {
                BCond::Eq => a == b,
                BCond::Ne => a != b,
                BCond::Lt => a < b,
                BCond::Le => a <= b,
                BCond::Gt => a > b,
                BCond::Ge => a >= b,
            };
            if take {
                th.pc = target.pc();
            }
        }
        Inst::Jump { target } => th.pc = target.pc(),
        Inst::Nop => {}
        // F_LOCAL_EXEC covers exactly the arms above (pinned by the
        // decode tests); anything else never reaches the fast path.
        _ => unreachable!("non-local instruction in fast path: {:?}", di.inst),
    }
    Ok(())
}

/// Executes one decoded instruction, advancing the processor clock.
/// Per-step derived facts (cost, def/use masks, spin classification)
/// come from the [`DInst`]; the semantic dispatch matches its embedded
/// [`Inst`].
#[allow(clippy::too_many_arguments)]
fn exec<R: Recorder>(
    config: &MachineConfig,
    di: &DInst,
    p: usize,
    tid: usize,
    ths: &mut Threads,
    proc: &mut Proc,
    shared: &mut SharedMemory,
    caches: &mut Option<CoherentCaches>,
    traffic: &mut Traffic,
    counters: &mut Counters,
    trace: &mut Option<Vec<TraceEvent>>,
    fault: &mut Option<FaultPlan>,
    net: &mut Option<Network>,
    rec: &mut R,
) -> Result<Outcome, SimError> {
    let Threads { cold, prio, .. } = ths;
    let th = &mut cold[tid];
    let inst = di.inst;
    let record =
        |trace: &mut Option<Vec<TraceEvent>>, time: u64, kind: TraceKind, addr: u64, spin: bool| {
            if let Some(tr) = trace.as_mut() {
                tr.push(TraceEvent { time, proc: p as u32, thread: tid as u32, kind, addr, spin });
            }
        };
    let t0 = proc.time;
    let pc0 = th.pc;
    let c = di.cost as u64;
    proc.time += c;
    proc.stats.busy += c;
    th.run_cycles += c;
    counters.instructions += 1;
    // Under SMT a `Halt` retires without holding its lane (the same cycle
    // may issue another context on it), so its cost is no slot-cycle of
    // work; `run_to_completion` books it as an unfilled slot instead.
    if config.model != SwitchModel::Smt || !matches!(inst, Inst::Halt) {
        rec.charge(tid, Cat::Busy, c);
    }
    let latency = if config.model == SwitchModel::Ideal { 0 } else { config.latency };
    th.pc += 1;

    // Deadlock tracking: an instruction that mutates state outside the
    // spin snapshot's domain (local memory, shared memory, priority)
    // invalidates any periodicity evidence for this thread.
    if di.resets_spin() {
        if R::ENABLED && th.spin_addr.is_some() {
            rec.event(t0, p, tid, EventKind::SpinEnd);
        }
        th.reset_spin();
    }

    // Overwriting a register kills any in-flight value headed for it.
    if !th.pending.is_empty() {
        th.kill_pending_masks(di.int_def, di.fp_def_mask);
    }

    // Local-only instructions share the fast path's semantic core.
    if di.is_local_exec() {
        exec_local(di, th, tid, pc0)?;
        return Ok(Outcome::Continue);
    }

    match inst {
        Inst::Load { space: Space::Shared, rd, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let raw = shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load", addr, shared.len()))?;
            let spin = hint.is_poll();
            // Spin-loop polls re-read one address forever. Counting them as
            // one-line hits would let the §5.2 estimator skip every switch
            // in the loop, and letting them hit the cache would let a
            // spinner monopolize its processor under the cache models —
            // both starve the thread being waited on. Real machines need a
            // non-spinning primitive here (paper footnote 2); we model the
            // poll as always going to memory.
            let oneline_hit = if spin { false } else { th.one_line.access(addr) };
            let cache_hit = if spin {
                traffic.record_load(1, true);
                false
            } else {
                lookup_cache(caches, p, addr, config, traffic, spin)
            };
            record(trace, t0, TraceKind::Read, addr, spin);
            th.rset(rd, raw as i64);
            if R::ENABLED {
                th.wait = match hint {
                    AccessHint::Spin => Cat::LockSpin,
                    AccessHint::Barrier => Cat::BarrierWait,
                    _ => Cat::MemoryStall,
                };
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
                if spin && th.spin_addr != Some(addr) {
                    let barrier = hint == AccessHint::Barrier;
                    rec.event(t0, p, tid, EventKind::SpinBegin { addr, barrier });
                }
            }
            if spin {
                let mutated = counters.mutations != th.seen_mutations;
                th.seen_mutations = counters.mutations;
                if th.note_spin_poll(addr, raw, t0, mutated) {
                    counters.spin_confirm = true;
                }
            }
            let shape = load_shape(caches.is_some() && !spin, cache_hit, 1, config);
            let q0 = net_queue_cycles::<R>(net);
            let base = net_base(net, latency, t0, p, addr, cache_hit, &shape);
            if R::ENABLED && !cache_hit {
                observe_net_queue(rec, net, q0, t0, p, tid, addr);
            }
            let reply = reply_time(
                fault,
                t0,
                base,
                addr,
                shape,
                spin,
                p,
                tid,
                pc0,
                &mut proc.stats,
                traffic,
                rec,
            )?;
            if R::ENABLED && !cache_hit {
                rec.sample(Metric::LoadLatency, reply - t0);
                rec.event(reply, p, tid, EventKind::LoadReply { addr, latency: reply - t0 });
            }
            let dests = [(false, rd.index() as u8)];
            let dests: &[(bool, u8)] = if rd.is_zero() { &[] } else { &dests };
            Ok(read_dispatch(config, th, counters, dests, cache_hit, oneline_hit, reply))
        }
        Inst::FLoad { space: Space::Shared, fd, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let raw = shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load", addr, shared.len()))?;
            let oneline_hit = th.one_line.access(addr);
            let cache_hit = lookup_cache(caches, p, addr, config, traffic, false);
            record(trace, t0, TraceKind::Read, addr, false);
            th.fset(fd, f64::from_bits(raw));
            if R::ENABLED {
                th.wait = Cat::MemoryStall;
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
            }
            let shape = load_shape(caches.is_some(), cache_hit, 1, config);
            let q0 = net_queue_cycles::<R>(net);
            let base = net_base(net, latency, t0, p, addr, cache_hit, &shape);
            if R::ENABLED && !cache_hit {
                observe_net_queue(rec, net, q0, t0, p, tid, addr);
            }
            let reply = reply_time(
                fault,
                t0,
                base,
                addr,
                shape,
                false,
                p,
                tid,
                pc0,
                &mut proc.stats,
                traffic,
                rec,
            )?;
            if R::ENABLED && !cache_hit {
                rec.sample(Metric::LoadLatency, reply - t0);
                rec.event(reply, p, tid, EventKind::LoadReply { addr, latency: reply - t0 });
            }
            let dests = [(true, fd.index() as u8)];
            Ok(read_dispatch(config, th, counters, &dests, cache_hit, oneline_hit, reply))
        }
        Inst::LoadPair { space: Space::Shared, fd1, fd2, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let raw1 = shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load-pair", addr, shared.len()))?;
            let raw2 = shared
                .try_read(addr + 1)
                .ok_or_else(|| bad_access(tid, pc0, "shared load-pair", addr + 1, shared.len()))?;
            let oneline_hit = th.one_line.access(addr);
            let cache_hit = if let Some(c) = caches.as_mut() {
                let h1 = c.load(p, addr);
                let h2 = c.load(p, addr + 1);
                if !h1 {
                    traffic.record_line_fill(config.cache.line_words, false);
                }
                if !h2 && addr / config.cache.line_words != (addr + 1) / config.cache.line_words {
                    traffic.record_line_fill(config.cache.line_words, false);
                }
                h1 && h2
            } else {
                traffic.record_load(2, false);
                false
            };
            record(trace, t0, TraceKind::ReadPair, addr, false);
            th.fset(fd1, f64::from_bits(raw1));
            th.fset(fd2, f64::from_bits(raw2));
            if R::ENABLED {
                th.wait = Cat::MemoryStall;
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
            }
            let shape = load_shape(caches.is_some(), cache_hit, 2, config);
            let q0 = net_queue_cycles::<R>(net);
            let base = net_base(net, latency, t0, p, addr, cache_hit, &shape);
            if R::ENABLED && !cache_hit {
                observe_net_queue(rec, net, q0, t0, p, tid, addr);
            }
            let reply = reply_time(
                fault,
                t0,
                base,
                addr,
                shape,
                false,
                p,
                tid,
                pc0,
                &mut proc.stats,
                traffic,
                rec,
            )?;
            if R::ENABLED && !cache_hit {
                rec.sample(Metric::LoadLatency, reply - t0);
                rec.event(reply, p, tid, EventKind::LoadReply { addr, latency: reply - t0 });
            }
            let dests = [(true, fd1.index() as u8), (true, fd2.index() as u8)];
            Ok(read_dispatch(config, th, counters, &dests, cache_hit, oneline_hit, reply))
        }
        Inst::FetchAdd { rd, rs, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let spin = hint == AccessHint::Spin;
            let inc = th.rget(rs);
            let old = shared
                .try_fetch_add(addr, inc)
                .ok_or_else(|| bad_access(tid, pc0, "fetch-and-add", addr, shared.len()))?
                as i64;
            counters.mutations += 1;
            traffic.record_fetch_add(spin);
            if let Some(c) = caches.as_mut() {
                let inv = c.store(p, addr);
                traffic.record_invalidations(inv);
            }
            record(trace, t0, TraceKind::FetchAdd, addr, spin);
            th.rset(rd, old);
            let shape = MsgShape {
                req: MsgClass::FetchAddReq,
                req_words: 1,
                reply: MsgClass::FetchAddReply,
                reply_words: 1,
            };
            // Every F&A crosses the network (even fire-and-forget ones):
            // it occupies links and, under combining, can merge with or
            // open a combining window for concurrent same-address adds.
            let q0 = net_queue_cycles::<R>(net);
            let fa0 =
                if R::ENABLED { net.as_ref().map_or(0, |n| n.stats().fa_combined) } else { 0 };
            let fa_base = net
                .as_mut()
                .map(|n| n.fetch_add(t0, p, addr, shape.req_bits(), shape.reply_bits()) - t0);
            if R::ENABLED {
                th.wait = if hint == AccessHint::Spin { Cat::LockSpin } else { Cat::MemoryStall };
                let combined = net.as_ref().is_some_and(|n| n.stats().fa_combined > fa0);
                rec.event(t0, p, tid, EventKind::FetchAdd { addr, combined });
                if hint == AccessHint::Release {
                    rec.event(t0, p, tid, EventKind::BarrierArrive { addr });
                }
                observe_net_queue(rec, net, q0, t0, p, tid, addr);
            }
            if rd.is_zero() {
                // Fire-and-forget arrival (barrier-style): no reply is
                // awaited, so there is nothing for fault injection to drop
                // that anyone waits on.
                Ok(match config.model {
                    SwitchModel::SwitchEveryCycle => {
                        Outcome::Yield { wake: proc.time, cause: SwitchCause::Rotation }
                    }
                    _ => Outcome::Continue,
                })
            } else {
                let reply = reply_time(
                    fault,
                    t0,
                    fa_base.unwrap_or(latency),
                    addr,
                    shape,
                    spin,
                    p,
                    tid,
                    pc0,
                    &mut proc.stats,
                    traffic,
                    rec,
                )?;
                if R::ENABLED {
                    rec.sample(Metric::LoadLatency, reply - t0);
                    rec.event(reply, p, tid, EventKind::LoadReply { addr, latency: reply - t0 });
                }
                let dests = [(false, rd.index() as u8)];
                // Fetch-and-add always goes to memory: never a cache hit.
                Ok(read_dispatch(config, th, counters, &dests, false, false, reply))
            }
        }

        Inst::Store { space: Space::Shared, rs, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let spin = hint == AccessHint::Spin;
            let v = th.rget(rs) as u64;
            shared
                .try_write(addr, v)
                .ok_or_else(|| bad_access(tid, pc0, "shared store", addr, shared.len()))?;
            counters.mutations += 1;
            shared_store(config, net, t0, p, addr, caches, traffic, spin, 1, tid, rec);
            record(trace, t0, TraceKind::Write, addr, spin);
            if R::ENABLED && hint == AccessHint::Release {
                rec.event(t0, p, tid, EventKind::BarrierRelease { addr });
            }
            Ok(store_outcome(config, proc))
        }
        Inst::FStore { space: Space::Shared, fs, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.fget(fs).to_bits();
            shared
                .try_write(addr, v)
                .ok_or_else(|| bad_access(tid, pc0, "shared store", addr, shared.len()))?;
            counters.mutations += 1;
            shared_store(config, net, t0, p, addr, caches, traffic, false, 1, tid, rec);
            record(trace, t0, TraceKind::Write, addr, false);
            Ok(store_outcome(config, proc))
        }
        Inst::StorePair { space: Space::Shared, fs1, fs2, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let (v1, v2) = (th.fget(fs1).to_bits(), th.fget(fs2).to_bits());
            shared
                .try_write(addr, v1)
                .ok_or_else(|| bad_access(tid, pc0, "shared store-pair", addr, shared.len()))?;
            shared
                .try_write(addr + 1, v2)
                .ok_or_else(|| bad_access(tid, pc0, "shared store-pair", addr + 1, shared.len()))?;
            counters.mutations += 1;
            record(trace, t0, TraceKind::WritePair, addr, false);
            shared_store(config, net, t0, p, addr, caches, traffic, false, 2, tid, rec);
            if let Some(c) = caches.as_mut() {
                if addr / config.cache.line_words != (addr + 1) / config.cache.line_words {
                    let inv = c.store(p, addr + 1);
                    traffic.record_invalidations(inv);
                }
            }
            Ok(store_outcome(config, proc))
        }

        Inst::SetPrio { level } => {
            prio[tid] = level;
            Ok(Outcome::Continue)
        }
        Inst::Switch => Ok(switch_outcome(config, th, proc, counters)),
        Inst::Halt => Ok(Outcome::Halt),
        _ => unreachable!("local-only instruction past the local dispatch: {inst:?}"),
    }
}

/// `BadProgram` for a wild memory access.
fn bad_access(tid: usize, pc: Pc, what: &str, addr: u64, len: u64) -> SimError {
    SimError::BadProgram {
        thread: tid,
        pc: pc as u64,
        detail: format!("{what} out of range: word {addr} >= {len}"),
    }
}

/// Effective-address computation that turns a negative address into
/// `BadProgram` instead of wrapping or panicking.
#[inline]
fn ea_checked(
    th: &Thread,
    tid: usize,
    pc: Pc,
    base: mtsim_isa::Reg,
    offset: i64,
) -> Result<u64, SimError> {
    th.try_ea(base, offset).ok_or_else(|| SimError::BadProgram {
        thread: tid,
        pc: pc as u64,
        detail: format!(
            "negative effective address {} ({base} + {offset})",
            th.rget(base).wrapping_add(offset)
        ),
    })
}

/// Checked local-memory load.
#[inline]
fn local_read_checked(th: &Thread, tid: usize, pc: Pc, addr: u64) -> Result<u64, SimError> {
    th.try_local_read(addr)
        .ok_or_else(|| bad_access(tid, pc, "local load", addr, th.local.len() as u64))
}

/// Checked local-memory store.
#[inline]
fn local_write_checked(
    th: &mut Thread,
    tid: usize,
    pc: Pc,
    addr: u64,
    v: u64,
) -> Result<(), SimError> {
    let len = th.local.len() as u64;
    th.try_local_write(addr, v).ok_or_else(|| bad_access(tid, pc, "local store", addr, len))
}

/// The request/reply message pair one shared access puts on the wire —
/// drives both fault-recovery traffic accounting (resends and duplicates
/// are billed as the *real* messages, not generic word loads) and network
/// serialization delays.
#[derive(Debug, Clone, Copy)]
struct MsgShape {
    req: MsgClass,
    req_words: u64,
    reply: MsgClass,
    reply_words: u64,
}

impl MsgShape {
    fn req_bits(&self) -> u64 {
        message_bits(self.req, self.req_words)
    }

    fn reply_bits(&self) -> u64 {
        message_bits(self.reply, self.reply_words)
    }
}

/// Message shape of a shared read of `words` words: a cache miss fetches
/// a whole line; everything else (no caches, spin polls, and hits — whose
/// reply is served locally and unused) is a plain word-load pair.
#[inline]
fn load_shape(cached: bool, cache_hit: bool, words: u64, config: &MachineConfig) -> MsgShape {
    if cached && !cache_hit {
        MsgShape {
            req: MsgClass::LineReq,
            req_words: 0,
            reply: MsgClass::LineReply,
            reply_words: config.cache.line_words,
        }
    } else {
        MsgShape {
            req: MsgClass::LoadReq,
            req_words: 0,
            reply: MsgClass::LoadReply,
            reply_words: words,
        }
    }
}

/// Base (fault-free) reply latency of one shared access: a modeled
/// network round trip when a contention topology is active and the
/// access really goes to memory, otherwise the configured constant.
/// Cache hits are served locally and never touch the network.
#[inline]
fn net_base(
    net: &mut Option<Network>,
    constant: u64,
    t0: u64,
    p: usize,
    addr: u64,
    cache_hit: bool,
    shape: &MsgShape,
) -> u64 {
    match net.as_mut() {
        Some(n) if !cache_hit => {
            n.round_trip(t0, p, addr, shape.req_bits(), shape.reply_bits()) - t0
        }
        _ => constant,
    }
}

/// Computes the reply time of one reply-bearing shared request, running
/// the retry protocol when fault injection is active. Faults are timing
/// and traffic events only: the value was already taken from shared memory
/// in global order, so a request that survives its retries observes
/// exactly what a fault-free run would have.
#[allow(clippy::too_many_arguments)]
fn reply_time<R: Recorder>(
    fault: &mut Option<FaultPlan>,
    t0: u64,
    latency: u64,
    addr: u64,
    shape: MsgShape,
    spin: bool,
    p: usize,
    tid: usize,
    pc: Pc,
    stats: &mut ProcStats,
    traffic: &mut Traffic,
    rec: &mut R,
) -> Result<u64, SimError> {
    let Some(plan) = fault.as_mut() else {
        return Ok(t0 + latency);
    };
    match plan.request(latency) {
        Ok(out) => {
            if out.retries > 0 || out.timeouts > 0 || out.duplicates > 0 {
                traffic.record_fault_recovery(
                    out.retries,
                    out.timeouts,
                    out.duplicates,
                    shape.req,
                    shape.req_words,
                    shape.reply,
                    shape.reply_words,
                    spin,
                );
            }
            if R::ENABLED && (out.retries > 0 || out.timeouts > 0) {
                rec.event(
                    t0,
                    p,
                    tid,
                    EventKind::FaultRetry {
                        addr,
                        retries: out.retries as u64,
                        timeouts: out.timeouts as u64,
                    },
                );
            }
            stats.retries += out.retries as u64;
            stats.timeouts += out.timeouts as u64;
            stats.fault_wait += out.delay.saturating_sub(latency);
            Ok(t0 + out.delay)
        }
        Err(e) => Err(SimError::Fault {
            proc: p,
            thread: tid,
            pc: pc as u64,
            addr,
            attempts: e.attempts,
            cycle: t0 + e.wasted,
        }),
    }
}

/// Machine-wide deadlock scan, run the moment some thread's spin loop is
/// proven periodic. Deadlock is declared only when **every** live thread
/// holds a periodicity proof that is current (`seen_mutations` equals the
/// global count — no shared write landed after the proof): then no live
/// thread can ever store, fetch-add, or halt, so the words being waited on
/// are frozen forever.
fn detect_deadlock(
    ths: &Threads,
    threads_per_proc: usize,
    mutations: u64,
    now: u64,
) -> Option<SimError> {
    let mut waiters = Vec::new();
    let mut halted = 0usize;
    for (i, th) in ths.cold.iter().enumerate() {
        if ths.halted[i] {
            halted += 1;
            continue;
        }
        if !th.spin_blocked() || th.seen_mutations != mutations {
            return None;
        }
        waiters.push(DeadlockWaiter {
            thread: i,
            proc: i / threads_per_proc,
            addr: th.spin_addr.unwrap_or(0),
            value: th.last_poll_value,
        });
    }
    if waiters.is_empty() {
        return None;
    }
    Some(SimError::Deadlock { cycle: now, halted_threads: halted, waiters })
}

fn alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
        AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
        AluOp::Sra => a >> (b as u64 & 63),
        AluOp::Slt => (a < b) as i64,
        AluOp::Sle => (a <= b) as i64,
        AluOp::Seq => (a == b) as i64,
        AluOp::Sne => (a != b) as i64,
    }
}

/// Cache lookup + fill traffic for a single-word shared load. Returns the
/// hit flag (always `false` without caches, where the plain load messages
/// are recorded instead).
#[inline]
fn lookup_cache(
    caches: &mut Option<CoherentCaches>,
    p: usize,
    addr: u64,
    config: &MachineConfig,
    traffic: &mut Traffic,
    spin: bool,
) -> bool {
    match caches.as_mut() {
        Some(c) => {
            let hit = c.load(p, addr);
            if !hit {
                traffic.record_line_fill(config.cache.line_words, spin);
            }
            hit
        }
        None => {
            traffic.record_load(1, spin);
            false
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shared_store<R: Recorder>(
    config: &MachineConfig,
    net: &mut Option<Network>,
    t0: u64,
    p: usize,
    addr: u64,
    caches: &mut Option<CoherentCaches>,
    traffic: &mut Traffic,
    spin: bool,
    words: u64,
    tid: usize,
    rec: &mut R,
) {
    let _ = config;
    traffic.record_store(words, spin);
    rec.event(t0, p, tid, EventKind::StoreIssue { addr });
    // Stores are write-through and acknowledged but never waited on:
    // the round trip still occupies network links (driving up queueing
    // for the loads behind it) even though its completion time is moot.
    let q0 = net_queue_cycles::<R>(net);
    if let Some(n) = net.as_mut() {
        n.round_trip(
            t0,
            p,
            addr,
            message_bits(MsgClass::Store, words),
            message_bits(MsgClass::StoreAck, 0),
        );
    }
    if R::ENABLED {
        observe_net_queue(rec, net, q0, t0, p, tid, addr);
    }
    if let Some(c) = caches.as_mut() {
        let inv = c.store(p, addr);
        traffic.record_invalidations(inv);
    }
}

/// The network's cumulative queue-residency counter, read only when a real
/// recorder is attached (the delta across one send is that message's
/// residency).
#[inline]
fn net_queue_cycles<R: Recorder>(net: &Option<Network>) -> u64 {
    if R::ENABLED {
        net.as_ref().map_or(0, |n| n.stats().queue_cycles)
    } else {
        0
    }
}

/// Emits the queue-residency events and sample for one network message
/// sent since `before` was read. The engine observes queueing at message
/// granularity (the modeled network reports residency per round trip, not
/// per hop), so one enqueue/dequeue pair stands for the whole trip.
fn observe_net_queue<R: Recorder>(
    rec: &mut R,
    net: &Option<Network>,
    before: u64,
    t0: u64,
    p: usize,
    tid: usize,
    addr: u64,
) {
    if let Some(n) = net.as_ref() {
        let queued = n.stats().queue_cycles - before;
        rec.sample(Metric::QueueResidency, queued);
        rec.event(t0, p, tid, EventKind::NetEnqueue { addr, queued });
        rec.event(t0 + queued, p, tid, EventKind::NetDequeue { addr });
    }
}

#[inline]
fn store_outcome(config: &MachineConfig, proc: &Proc) -> Outcome {
    match config.model {
        SwitchModel::SwitchEveryCycle => {
            Outcome::Yield { wake: proc.time, cause: SwitchCause::Rotation }
        }
        _ => Outcome::Continue,
    }
}

#[inline]
fn switch_outcome(
    config: &MachineConfig,
    th: &mut Thread,
    proc: &Proc,
    counters: &mut Counters,
) -> Outcome {
    match config.model {
        SwitchModel::ExplicitSwitch => {
            if config.interblock_estimate && th.group_reads > 0 && th.group_all_oneline {
                counters.skipped += 1;
                th.clear_group();
                th.outstanding = 0;
                return Outcome::Continue;
            }
            let wake = th.outstanding.max(proc.time);
            th.clear_group();
            th.outstanding = 0;
            Outcome::Yield { wake, cause: SwitchCause::Explicit }
        }
        SwitchModel::ConditionalSwitch => {
            if th.pending_miss {
                let wake = th.outstanding.max(proc.time);
                th.clear_group();
                th.outstanding = 0;
                Outcome::Yield { wake, cause: SwitchCause::Explicit }
            } else if config.max_run.is_some_and(|m| th.run_cycles >= m) {
                counters.forced += 1;
                th.clear_group();
                th.outstanding = 0;
                Outcome::Yield { wake: proc.time, cause: SwitchCause::Forced }
            } else {
                counters.skipped += 1;
                th.clear_group();
                th.outstanding = 0;
                Outcome::Continue
            }
        }
        // Under every other model the switch instruction is an ordinary
        // 1-cycle instruction (the every-cycle model rotates regardless).
        _ => Outcome::Continue,
    }
}
