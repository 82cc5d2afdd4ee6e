//! Per-thread architectural state, split hot/cold for the scheduler
//! (DESIGN.md §20).
//!
//! The engine's scheduler scans *across* threads constantly — "first
//! resident whose wake time has passed", "earliest wake among sleepers",
//! "highest runnable priority" — while the executing instruction touches
//! exactly *one* thread's registers and scoreboard. [`Threads`] therefore
//! keeps the cross-thread-scanned scalars (`wake`, `prio`, `halted`) in
//! dense parallel arrays that a scan strides through cache-line by
//! cache-line, and everything single-thread (register files, local
//! memory, the split-phase scoreboard, spin-loop evidence) in one cold
//! [`Thread`] record per thread, which is already contiguous for the
//! thread being executed.

use mtsim_isa::{FReg, Pc, Reg};
use mtsim_mem::OneLineCache;
use mtsim_obs::Cat;

/// A register whose value is still in flight (issued shared read whose
/// reply has not arrived).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReg {
    /// True for an FP register.
    pub fp: bool,
    /// Register index.
    pub idx: u8,
    /// Cycle at which the value becomes usable.
    pub ready: u64,
}

/// One thread's cold state: registers, private memory, pc, split-phase
/// scoreboard, and per-thread instrumentation. The scheduler-scanned
/// scalars (wake time, priority, halted flag) live in [`Threads`]'
/// parallel hot arrays instead.
#[derive(Debug, Clone)]
pub(crate) struct Thread {
    pub regs: [i64; Reg::COUNT],
    pub fregs: [f64; FReg::COUNT],
    pub local: Vec<u64>,
    pub pc: Pc,
    /// Max reply time over all outstanding reads.
    pub outstanding: u64,
    /// Registers with in-flight values.
    pub pending: Vec<PendingReg>,
    /// Conditional-switch: did any read in the current group miss?
    pub pending_miss: bool,
    /// Blocking reads issued since the last switch point.
    pub group_reads: u32,
    /// §5.2 estimator: did every read of the current group hit the
    /// one-line cache?
    pub group_all_oneline: bool,
    /// The §5.2 one-line 32-word per-thread cache.
    pub one_line: OneLineCache,
    /// Busy cycles since the last context switch (run-length accumulator,
    /// also drives the conditional-switch forced-switch interval).
    pub run_cycles: u64,
    /// Observability: what this thread is waiting for while asleep
    /// (memory reply, lock spin, barrier). Written only when a real
    /// recorder is attached; read when the processor sleeps until this
    /// thread's wake time, to attribute the gap.
    pub wait: Cat,
    /// Deadlock detection: the shared word this thread's current spin loop
    /// polls (spin-hinted loads with no intervening store/fetch-add).
    pub spin_addr: Option<u64>,
    /// Consecutive polls of `spin_addr` with no intervening shared-memory
    /// mutation anywhere in the machine.
    pub polls_clean: u32,
    /// Issue time of the latest poll of `spin_addr`.
    pub last_poll: u64,
    /// Value the latest poll read back (reported in deadlock diagnostics).
    pub last_poll_value: u64,
    /// Global mutation count observed at the latest poll.
    pub seen_mutations: u64,
    /// Architectural state captured a few clean polls into the spin (see
    /// [`Thread::note_spin_poll`]).
    pub spin_snapshot: Option<Box<SpinSnapshot>>,
    /// Proven periodic: a later clean poll reproduced `spin_snapshot`
    /// exactly, so absent an external shared-memory write this thread will
    /// spin forever.
    pub spin_confirmed: bool,
    /// Scoreboard entries ever created for this thread (issue side of the
    /// conservation law checked under `debug-invariants`).
    pub issued_entries: u64,
    /// Scoreboard entries ever removed — arrived, killed by an overwrite,
    /// or flushed at a switch point (retire side of the conservation law).
    pub reaped_entries: u64,
}

/// The machine's thread population in struct-of-arrays form: hot
/// parallel arrays for the scheduler-scanned scalars, plus one cold
/// [`Thread`] record per thread. Indexed by thread id throughout.
#[derive(Debug, Default)]
pub(crate) struct Threads {
    /// Earliest cycle each thread may run again (the round-robin pick
    /// and every sleep decision scan this).
    pub wake: Vec<u64>,
    /// Scheduling priority (0 = normal); set by `SetPrio`, scanned by
    /// the priority pick when `MachineConfig::priority_scheduling` is on.
    pub prio: Vec<u8>,
    /// Halted flags (scanned by the deadlock detector and the watchdog
    /// diagnostics).
    pub halted: Vec<bool>,
    /// Cold per-thread state.
    pub cold: Vec<Thread>,
}

impl Threads {
    /// Number of threads.
    pub fn len(&self) -> usize {
        self.cold.len()
    }

    /// Re-initializes to `nthreads` fresh threads, reusing every buffer
    /// already allocated (hot arrays, thread-local memories, scoreboard
    /// vectors). A reset population is indistinguishable from a freshly
    /// built one: the hot arrays are rebuilt from scratch values and the
    /// cold records go through [`Thread::reset`], which reconstructs
    /// through the constructor.
    pub fn reset(&mut self, nthreads: usize, local_words: u64) {
        self.wake.clear();
        self.wake.resize(nthreads, 0);
        self.prio.clear();
        self.prio.resize(nthreads, 0);
        self.halted.clear();
        self.halted.resize(nthreads, false);
        self.cold.truncate(nthreads);
        for (tid, t) in self.cold.iter_mut().enumerate() {
            t.reset(tid as i64, nthreads as i64, local_words);
        }
        for tid in self.cold.len()..nthreads {
            self.cold.push(Thread::new(tid as i64, nthreads as i64, local_words));
        }
    }
}

/// The architectural state that determines a thread's future behavior,
/// given unchanged local and shared memory: program counter and both
/// register files (floats compared bitwise). Local memory is not included
/// — local stores reset the spin tracking instead — and timing state
/// (wake/pending times) never influences control flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpinSnapshot {
    pc: Pc,
    regs: [i64; Reg::COUNT],
    fregs: [u64; FReg::COUNT],
}

/// Clean polls of one address before the state snapshot is captured.
const SPIN_SNAPSHOT_AT: u32 = 4;

impl Thread {
    /// Creates a thread with the entry-ABI registers set (`r1` = tid,
    /// `r2` = nthreads) and zeroed local memory.
    pub fn new(tid: i64, nthreads: i64, local_words: u64) -> Thread {
        let mut regs = [0i64; Reg::COUNT];
        regs[Reg::TID.index()] = tid;
        regs[Reg::NTHREADS.index()] = nthreads;
        Thread {
            regs,
            fregs: [0.0; FReg::COUNT],
            local: vec![0; local_words as usize],
            pc: 0,
            outstanding: 0,
            pending: Vec::new(),
            pending_miss: false,
            group_reads: 0,
            group_all_oneline: true,
            one_line: OneLineCache::default(),
            run_cycles: 0,
            wait: Cat::MemoryStall,
            spin_addr: None,
            polls_clean: 0,
            last_poll: 0,
            last_poll_value: 0,
            seen_mutations: 0,
            spin_snapshot: None,
            spin_confirmed: false,
            issued_entries: 0,
            reaped_entries: 0,
        }
    }

    /// Re-initializes this thread to exactly the state [`Thread::new`]
    /// creates, but reusing its heap buffers (local memory, scoreboard)
    /// in place. Everything else is rebuilt through the constructor, so
    /// there is no second list of fields to keep in sync — a reset
    /// thread is bit-identical to a fresh one by construction.
    pub fn reset(&mut self, tid: i64, nthreads: i64, local_words: u64) {
        let mut local = std::mem::take(&mut self.local);
        let mut pending = std::mem::take(&mut self.pending);
        local.clear();
        local.resize(local_words as usize, 0);
        pending.clear();
        // `Thread::new` with zero local words performs no allocation.
        *self = Thread::new(tid, nthreads, 0);
        self.local = local;
        self.pending = pending;
    }

    /// Reads an integer register (`r0` reads as zero).
    #[inline]
    pub fn rget(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes an integer register (`r0` writes are discarded).
    #[inline]
    pub fn rset(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Reads an FP register.
    #[inline]
    pub fn fget(&self, f: FReg) -> f64 {
        self.fregs[f.index()]
    }

    /// Writes an FP register.
    #[inline]
    pub fn fset(&mut self, f: FReg, v: f64) {
        self.fregs[f.index()] = v;
    }

    /// Computes the effective word address of `base + offset`, or `None`
    /// when it is negative (a wild address in the simulated program). The
    /// engine turns `None` into `SimError::BadProgram` — there is no
    /// panicking variant.
    #[inline]
    pub fn try_ea(&self, base: Reg, offset: i64) -> Option<u64> {
        let a = self.rget(base).wrapping_add(offset);
        if a < 0 {
            None
        } else {
            Some(a as u64)
        }
    }

    /// Reads local memory, or `None` when out of range.
    #[inline]
    pub fn try_local_read(&self, addr: u64) -> Option<u64> {
        self.local.get(addr as usize).copied()
    }

    /// Writes local memory, or returns `None` when out of range.
    #[inline]
    pub fn try_local_write(&mut self, addr: u64, v: u64) -> Option<()> {
        *self.local.get_mut(addr as usize)? = v;
        Some(())
    }

    /// The current behavior-determining architectural state.
    fn spin_state(&self) -> SpinSnapshot {
        SpinSnapshot { pc: self.pc, regs: self.regs, fregs: self.fregs.map(f64::to_bits) }
    }

    /// Records a spin-hinted poll of shared word `addr` issued at `now`,
    /// reading back `value`. `mutated_since` is true when any shared word
    /// anywhere was mutated since this thread's previous poll.
    ///
    /// After [`SPIN_SNAPSHOT_AT`] clean polls of one address the thread's
    /// architectural state is snapshotted; if a later clean poll reproduces
    /// the snapshot exactly, the loop is proven periodic: with unchanged
    /// local memory (local stores reset the tracking) and unchanged shared
    /// memory (`mutated_since` would have reset it), execution from
    /// identical state replays identically, so the thread can never leave
    /// the loop, store, or halt unless some *other* thread writes shared
    /// memory. Returns true the moment that proof lands.
    pub fn note_spin_poll(&mut self, addr: u64, value: u64, now: u64, mutated_since: bool) -> bool {
        if self.spin_addr != Some(addr) || mutated_since {
            self.spin_addr = Some(addr);
            self.polls_clean = 0;
            self.spin_snapshot = None;
            self.spin_confirmed = false;
        }
        self.polls_clean = self.polls_clean.saturating_add(1);
        self.last_poll = now;
        self.last_poll_value = value;
        if self.spin_confirmed {
            return false;
        }
        if self.polls_clean == SPIN_SNAPSHOT_AT {
            self.spin_snapshot = Some(Box::new(self.spin_state()));
        } else if self.polls_clean > SPIN_SNAPSHOT_AT {
            if let Some(s) = &self.spin_snapshot {
                if **s == self.spin_state() {
                    self.spin_confirmed = true;
                    return true;
                }
            }
        }
        false
    }

    /// Forgets any spin-loop evidence: called on every instruction that
    /// mutates state outside the snapshot's domain (local stores, shared
    /// stores, fetch-and-adds, priority changes).
    #[inline]
    pub fn reset_spin(&mut self) {
        if self.spin_addr.is_some() {
            self.spin_addr = None;
            self.polls_clean = 0;
            self.spin_snapshot = None;
            self.spin_confirmed = false;
        }
    }

    /// True when this thread is proven stuck in its spin loop (see
    /// [`Thread::note_spin_poll`]). Callers skip halted threads first —
    /// the halted flag lives in [`Threads`]' hot array.
    #[inline]
    pub fn spin_blocked(&self) -> bool {
        self.spin_confirmed
    }

    /// Removes overwritten registers from the pending set: the integer
    /// register `int_def` (0 = none; `r0` is never a real def) and every
    /// FP register in `fp_def_mask`. One pass regardless of how many
    /// defs the instruction has.
    #[inline]
    pub fn kill_pending_masks(&mut self, int_def: u8, fp_def_mask: u32) {
        // Most instructions overwrite nothing in flight; a read-only scan
        // first keeps the common case out of `retain`'s shift machinery.
        let doomed = |p: &PendingReg| {
            if p.fp {
                (fp_def_mask >> p.idx) & 1 != 0
            } else {
                int_def != 0 && p.idx == int_def
            }
        };
        if !self.pending.iter().any(doomed) {
            return;
        }
        let before = self.pending.len();
        self.pending.retain(|p| !doomed(p));
        self.reaped_entries += (before - self.pending.len()) as u64;
    }

    /// Flushes every pending entry (all replies have arrived).
    #[inline]
    pub fn reap_all_pending(&mut self) {
        self.reaped_entries += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Drops pending entries that have arrived by `now`; returns the
    /// latest `ready` among pending entries matching the given register
    /// masks (bit `i` set ⇔ `r{i}`/`f{i}` is read), if any are still in
    /// flight.
    #[inline]
    pub fn pending_ready_for_masks(
        &mut self,
        now: u64,
        int_use_mask: u32,
        fp_use_mask: u32,
    ) -> Option<u64> {
        let before = self.pending.len();
        self.pending.retain(|p| p.ready > now);
        self.reaped_entries += (before - self.pending.len()) as u64;
        let mut needed: Option<u64> = None;
        for p in &self.pending {
            let mask = if p.fp { fp_use_mask } else { int_use_mask };
            if (mask >> p.idx) & 1 != 0 {
                needed = Some(needed.map_or(p.ready, |n| n.max(p.ready)));
            }
        }
        needed
    }

    /// Resets the split-phase group state (at a switch point).
    pub fn clear_group(&mut self) {
        self.reaped_entries += self.pending.len() as u64;
        self.pending.clear();
        self.pending_miss = false;
        self.group_reads = 0;
        self.group_all_oneline = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_abi() {
        let t = Thread::new(3, 8, 16);
        assert_eq!(t.rget(Reg::TID), 3);
        assert_eq!(t.rget(Reg::NTHREADS), 8);
        assert_eq!(t.rget(Reg::ZERO), 0);
        assert_eq!(t.local.len(), 16);
    }

    #[test]
    fn r0_is_immutable() {
        let mut t = Thread::new(0, 1, 1);
        t.rset(Reg::ZERO, 99);
        assert_eq!(t.rget(Reg::ZERO), 0);
    }

    #[test]
    fn pending_scan_purges_and_finds() {
        let mut t = Thread::new(0, 1, 1);
        t.pending.push(PendingReg { fp: false, idx: 8, ready: 100 });
        t.pending.push(PendingReg { fp: true, idx: 2, ready: 150 });
        // At t=120 the int reg has arrived; only the fp one is pending.
        let need = t.pending_ready_for_masks(120, 1 << 8, 1 << 2);
        assert_eq!(need, Some(150));
        assert_eq!(t.pending.len(), 1);
        // Unrelated registers need nothing.
        let need = t.pending_ready_for_masks(120, 1 << 9, 0);
        assert_eq!(need, None);
    }

    #[test]
    fn kill_pending_removes_overwritten() {
        let mut t = Thread::new(0, 1, 1);
        t.pending.push(PendingReg { fp: false, idx: 8, ready: 100 });
        t.pending.push(PendingReg { fp: true, idx: 3, ready: 120 });
        t.pending.push(PendingReg { fp: true, idx: 4, ready: 130 });
        // Kill r8 and f3 in one pass; f4 survives, reap count tracks both.
        t.kill_pending_masks(8, 1 << 3);
        assert_eq!(t.pending.len(), 1);
        assert_eq!(t.pending[0].idx, 4);
        assert_eq!(t.reaped_entries, 2);
        // int_def 0 means "no integer def": an idx-0 entry would survive
        // (r0 never carries an in-flight value anyway).
        t.kill_pending_masks(0, 0);
        assert_eq!(t.pending.len(), 1);
    }

    #[test]
    fn checked_local_and_ea() {
        let mut t = Thread::new(0, 1, 4);
        assert_eq!(t.try_local_read(3), Some(0));
        assert_eq!(t.try_local_read(4), None);
        assert_eq!(t.try_local_write(3, 9), Some(()));
        assert_eq!(t.try_local_write(4, 9), None);
        assert_eq!(t.try_local_read(3), Some(9));
        t.rset(Reg::new(5), -10);
        assert_eq!(t.try_ea(Reg::new(5), 4), None);
        assert_eq!(t.try_ea(Reg::new(5), 10), Some(0));
    }

    #[test]
    fn reset_matches_a_fresh_thread_and_reuses_buffers() {
        let mut t = Thread::new(1, 4, 8);
        // Dirty every category of state a run can touch.
        t.rset(Reg::new(5), 42);
        t.fset(FReg::new(2), 3.5);
        t.try_local_write(3, 9).unwrap();
        t.pc = 17;
        t.run_cycles = 9;
        t.outstanding = 400;
        t.pending.push(PendingReg { fp: false, idx: 8, ready: 100 });
        for i in 0..6 {
            t.note_spin_poll(7, 0, 100 * (i + 1), false);
        }
        let buf = t.local.as_ptr();
        t.reset(2, 6, 8);
        // The Debug rendering covers every field, so equal renderings
        // mean a reset thread is indistinguishable from a fresh one.
        assert_eq!(format!("{t:?}"), format!("{:?}", Thread::new(2, 6, 8)));
        assert_eq!(t.local.as_ptr(), buf, "local memory must be reused, not reallocated");
        // A shape change (more local words) still works.
        t.reset(0, 1, 16);
        assert_eq!(format!("{t:?}"), format!("{:?}", Thread::new(0, 1, 16)));
    }

    #[test]
    fn soa_reset_matches_a_fresh_population() {
        let mut ths = Threads::default();
        ths.reset(4, 8);
        assert_eq!(ths.len(), 4);
        // Dirty hot and cold state, including tails that must shrink away.
        ths.wake[3] = 77;
        ths.prio[1] = 2;
        ths.halted[2] = true;
        ths.cold[0].pc = 9;
        ths.cold[0].rset(Reg::new(7), 1);
        ths.reset(2, 8);
        let mut fresh = Threads::default();
        fresh.reset(2, 8);
        assert_eq!(format!("{ths:?}"), format!("{fresh:?}"));
        // Growing again re-derives tids for the new tail threads.
        ths.reset(6, 8);
        assert_eq!(ths.cold[5].rget(Reg::TID), 5);
        assert_eq!(ths.wake.len(), 6);
        assert_eq!(ths.prio.len(), 6);
        assert_eq!(ths.halted.len(), 6);
    }

    #[test]
    fn spin_tracking_confirms_periodic_state() {
        let mut t = Thread::new(0, 1, 1);
        assert!(!t.spin_blocked());
        // Four clean polls capture the snapshot; the fifth, with identical
        // architectural state, proves the loop periodic.
        for i in 0..4 {
            assert!(!t.note_spin_poll(7, 0, 100 * (i + 1), false));
            assert!(!t.spin_blocked());
        }
        assert!(t.note_spin_poll(7, 0, 500, false), "fifth identical poll confirms");
        assert!(t.spin_blocked());
        assert_eq!(t.last_poll_value, 0);
        // Once confirmed, further polls report nothing new.
        assert!(!t.note_spin_poll(7, 0, 600, false));
        // A mutation anywhere restarts the proof.
        assert!(!t.note_spin_poll(7, 0, 700, true));
        assert!(!t.spin_blocked());
        // Real work clears the evidence entirely.
        t.reset_spin();
        assert_eq!(t.spin_addr, None);
        assert_eq!(t.polls_clean, 0);
    }

    #[test]
    fn spin_tracking_rejects_changing_state() {
        let mut t = Thread::new(0, 1, 1);
        // A counting loop polls the same word, but a register changes every
        // iteration — the snapshot never matches, so no confirmation.
        for i in 0..50 {
            t.rset(Reg::new(9), i);
            assert!(!t.note_spin_poll(7, 0, (100 * (i + 1)) as u64, false));
        }
        assert!(!t.spin_blocked());
        // Polling a different word restarts the window.
        t.note_spin_poll(8, 1, 9000, false);
        assert_eq!(t.polls_clean, 1);
    }
}
