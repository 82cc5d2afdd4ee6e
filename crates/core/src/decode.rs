//! Pre-decoded programs: the dense, cache-friendly instruction form the
//! engine executes (DESIGN.md §20).
//!
//! The builder-facing [`Inst`](mtsim_isa::Inst) enum is the right shape
//! for assembling and validating programs, but the engine's hot loop
//! needs per-instruction facts that `Inst` only yields through matches
//! and def/use iterators (`int_uses` and friends).
//! [`DecodedProgram::decode`] resolves all of that **once per program**
//! — at artifact-build time in `mtsim-sweep`'s cache — into a flat
//! [`DInst`] table:
//!
//! * the occupancy cost (`cost::cycles`) as a plain field,
//! * def/use sets as 32-bit register masks (one bit per register, `r0`
//!   excluded by construction),
//! * the scheduling-relevant classification (shared access? resets the
//!   spin-periodicity proof?) as flags,
//!
//! while keeping the original `Inst` payload inline for the semantic
//! dispatch. Decoding is pure derivation: every field is computed from
//! the `Inst` via the same `mtsim-isa` queries the engine used to call
//! per step, so the decoded form cannot drift from the ISA — a property
//! the unit tests below pin across every instruction shape.
//!
//! The table is stored behind an `Arc`, so cloning a [`DecodedProgram`]
//! (per machine build, per sweep job) is a reference-count bump.

use std::sync::Arc;

use mtsim_asm::Program;
use mtsim_isa::{cost, Inst, Space};

/// `flags` bit: the instruction touches shared memory (enters the
/// network / can trigger a context switch), i.e. `Inst::is_shared_access`.
pub const F_SHARED_ACCESS: u8 = 1 << 0;
/// `flags` bit: the instruction mutates state outside the spin snapshot's
/// domain (stores, fetch-and-add, priority changes) and therefore resets
/// the deadlock detector's periodicity evidence.
pub const F_RESETS_SPIN: u8 = 1 << 1;
/// `flags` bit: the instruction is *local-only* — it reads and writes
/// nothing but the executing thread's registers, local memory, and
/// program counter, always completes in its occupancy cost, and can
/// never switch, stall, or interact with another thread or processor.
/// The engine's fast path (DESIGN.md §20) executes unbroken runs of
/// these without touching the scheduler.
pub const F_LOCAL_EXEC: u8 = 1 << 2;
/// `flags` bit: [`F_LOCAL_EXEC`] *and* the instruction cannot redirect
/// the program counter (not a branch or jump) — control always falls
/// through to `pc + 1`. Maximal runs of these form the straight-line
/// blocks the fast path executes without per-instruction scheduler,
/// watchdog, or scoreboard checks (see [`DecodedProgram::straight_run`]).
pub const F_STRAIGHT: u8 = 1 << 3;

/// One pre-decoded instruction: the original [`Inst`] payload plus every
/// per-step derived fact, flattened to scalar fields.
#[derive(Debug, Clone, Copy)]
pub struct DInst {
    /// The instruction itself (semantic dispatch still matches on this).
    pub inst: Inst,
    /// Occupancy cost in cycles (`mtsim_isa::cost::cycles`).
    pub cost: u32,
    /// Integer registers read: bit `i` set ⇔ `r{i}` is used (`r0` never).
    pub int_use_mask: u32,
    /// FP registers read, same encoding.
    pub fp_use_mask: u32,
    /// FP registers written, same encoding.
    pub fp_def_mask: u32,
    /// Integer register written (0 = none; `r0` is never a def).
    pub int_def: u8,
    /// [`F_SHARED_ACCESS`] | [`F_RESETS_SPIN`].
    pub flags: u8,
}

impl DInst {
    /// Decodes one instruction. Every field is derived through the
    /// `mtsim-isa` queries, so this cannot disagree with them.
    pub fn decode(inst: Inst) -> DInst {
        let int_use_mask = inst.int_uses().fold(0u32, |m, r| m | 1 << r.index());
        let fp_use_mask = inst.fp_uses().fold(0u32, |m, f| m | 1 << f.index());
        let fp_def_mask = inst.fp_defs().fold(0u32, |m, f| m | 1 << f.index());
        let int_def = inst.int_def().map_or(0, |r| r.index() as u8);
        let resets_spin = matches!(
            inst,
            Inst::Store { .. }
                | Inst::FStore { .. }
                | Inst::StorePair { .. }
                | Inst::FetchAdd { .. }
                | Inst::SetPrio { .. }
        );
        // The local-only set mirrors the `exec` arms that touch nothing
        // but `th` and return `Outcome::Continue` unconditionally:
        // register/FPU ops, local-space memory ops, and control flow.
        // Everything shared-space, switching, halting, or cross-thread
        // (SetPrio writes the scheduler's priority array) is excluded.
        let local_exec = matches!(
            inst,
            Inst::Alu { .. }
                | Inst::AluI { .. }
                | Inst::Fpu { .. }
                | Inst::FpuCmp { .. }
                | Inst::FLi { .. }
                | Inst::CvtIF { .. }
                | Inst::CvtFI { .. }
                | Inst::MovIF { .. }
                | Inst::MovFI { .. }
                | Inst::FSqrt { .. }
                | Inst::Load { space: Space::Local, .. }
                | Inst::Store { space: Space::Local, .. }
                | Inst::FLoad { space: Space::Local, .. }
                | Inst::FStore { space: Space::Local, .. }
                | Inst::LoadPair { space: Space::Local, .. }
                | Inst::StorePair { space: Space::Local, .. }
                | Inst::Branch { .. }
                | Inst::Jump { .. }
                | Inst::Nop
        );
        let mut flags = 0u8;
        if inst.is_shared_access() {
            flags |= F_SHARED_ACCESS;
        }
        if resets_spin {
            flags |= F_RESETS_SPIN;
        }
        if local_exec {
            flags |= F_LOCAL_EXEC;
            if !matches!(inst, Inst::Branch { .. } | Inst::Jump { .. }) {
                flags |= F_STRAIGHT;
            }
        }
        DInst {
            inst,
            cost: cost::cycles(&inst),
            int_use_mask,
            fp_use_mask,
            fp_def_mask,
            int_def,
            flags,
        }
    }

    /// True if the instruction accesses shared memory.
    #[inline]
    pub fn is_shared_access(&self) -> bool {
        self.flags & F_SHARED_ACCESS != 0
    }

    /// True if the instruction resets the spin-periodicity proof.
    #[inline]
    pub fn resets_spin(&self) -> bool {
        self.flags & F_RESETS_SPIN != 0
    }

    /// True if the instruction is eligible for the local fast path
    /// ([`F_LOCAL_EXEC`]).
    #[inline]
    pub fn is_local_exec(&self) -> bool {
        self.flags & F_LOCAL_EXEC != 0
    }

    /// True when the instruction is local-only *and* falls through to
    /// `pc + 1` ([`F_STRAIGHT`]).
    #[inline]
    pub fn is_straight(&self) -> bool {
        self.flags & F_STRAIGHT != 0
    }
}

/// A program pre-decoded into the flat [`DInst`] table the engine
/// executes. Cheap to clone (the table is shared behind an `Arc`);
/// decoded once per built artifact and reused across every machine and
/// grid point that runs the program.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    insts: Arc<[DInst]>,
    /// `straight[pc]` = length of the maximal run of
    /// [straight-line](DInst::is_straight) instructions starting at `pc`
    /// (0 when `insts[pc]` itself is not straight). The fast path
    /// executes such a run as one block, hoisting every per-instruction
    /// check out of it.
    straight: Arc<[u32]>,
}

impl DecodedProgram {
    /// Decodes every instruction of `program`. O(len), allocation-light,
    /// and paid once — the engine never calls the per-instruction ISA
    /// queries again.
    pub fn decode(program: &Program) -> DecodedProgram {
        DecodedProgram::from_insts(program.insts().iter().map(|&i| DInst::decode(i)).collect())
    }

    /// Builds the table from already-decoded instructions. The engine
    /// trusts every field as given, so this is for hand-made tables —
    /// e.g. tests giving an instruction a cost no ISA instruction has.
    pub fn from_insts(insts: Arc<[DInst]>) -> DecodedProgram {
        // Suffix scan: run lengths chain backward over straight-line
        // instructions and reset to zero at every block boundary.
        let mut straight = vec![0u32; insts.len()];
        let mut run = 0u32;
        for (i, di) in insts.iter().enumerate().rev() {
            run = if di.is_straight() { run + 1 } else { 0 };
            straight[i] = run;
        }
        DecodedProgram { insts, straight: straight.into() }
    }

    /// Length of the straight-line block starting at `pc` (0 when the
    /// instruction there is a branch, a shared access, or out of range).
    #[inline]
    pub fn straight_run(&self, pc: usize) -> u32 {
        self.straight.get(pc).copied().unwrap_or(0)
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for an empty program (never valid to run, but the type
    /// supports it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The decoded instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; the engine bounds-checks the
    /// program counter before indexing (a wild pc is a simulated-program
    /// error, reported as `SimError::BadProgram`).
    #[inline]
    pub fn inst(&self, pc: usize) -> &DInst {
        &self.insts[pc]
    }

    /// The whole decoded table.
    #[inline]
    pub fn insts(&self) -> &[DInst] {
        &self.insts
    }

    /// True when both decodes share one table allocation.
    pub(crate) fn shares_table(&self, other: &DecodedProgram) -> bool {
        Arc::ptr_eq(&self.insts, &other.insts)
    }

    /// True when this table was decoded from exactly `program`'s
    /// instructions, bit for bit (FP immediates `0.0` and `-0.0` differ).
    pub(crate) fn same_code(&self, program: &Program) -> bool {
        let bits = |i: Inst| match i {
            Inst::FLi { fd, val } => (Inst::FLi { fd, val: 0.0 }, val.to_bits()),
            i => (i, 0),
        };
        self.len() == program.len()
            && self.insts.iter().zip(program.insts()).all(|(d, &i)| bits(d.inst) == bits(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AccessHint, AluOp, FReg, FpuOp, Reg, Space, Target};

    /// One instruction of every shape (both spaces where applicable), so
    /// the drift test exercises every decode arm.
    fn all_shapes() -> Vec<Inst> {
        let r = Reg::new(8);
        let r2 = Reg::new(9);
        let r3 = Reg::new(10);
        let f = FReg::new(1);
        let f2 = FReg::new(2);
        let f3 = FReg::new(3);
        let mut v = Vec::new();
        for op in [AluOp::Add, AluOp::Mul, AluOp::Div, AluOp::Sll] {
            v.push(Inst::Alu { op, rd: r, rs: r2, rt: r3 });
            v.push(Inst::AluI { op, rd: r, rs: r2, imm: 7 });
        }
        for op in [FpuOp::Add, FpuOp::Mul, FpuOp::Div] {
            v.push(Inst::Fpu { op, fd: f, fs: f2, ft: f3 });
        }
        v.push(Inst::FpuCmp { op: mtsim_isa::CmpOp::Lt, rd: r, fs: f, ft: f2 });
        v.push(Inst::FLi { fd: f, val: 2.5 });
        v.push(Inst::CvtIF { fd: f, rs: r });
        v.push(Inst::CvtFI { rd: r, fs: f });
        v.push(Inst::MovIF { fd: f, rs: r });
        v.push(Inst::MovFI { rd: r, fs: f });
        v.push(Inst::FSqrt { fd: f, fs: f2 });
        for space in [Space::Local, Space::Shared] {
            v.push(Inst::Load { space, rd: r, base: r2, offset: 1, hint: AccessHint::Data });
            v.push(Inst::Load { space, rd: r, base: r2, offset: 1, hint: AccessHint::Spin });
            v.push(Inst::Store { space, rs: r, base: r2, offset: 1, hint: AccessHint::Data });
            v.push(Inst::FLoad { space, fd: f, base: r2, offset: 0 });
            v.push(Inst::FStore { space, fs: f, base: r2, offset: 0 });
            v.push(Inst::LoadPair { space, fd1: f, fd2: f2, base: r2, offset: 0 });
            v.push(Inst::StorePair { space, fs1: f, fs2: f2, base: r2, offset: 0 });
        }
        v.push(Inst::FetchAdd { rd: r, rs: r2, base: r3, offset: 0, hint: AccessHint::Data });
        v.push(Inst::FetchAdd {
            rd: Reg::ZERO,
            rs: r2,
            base: r3,
            offset: 0,
            hint: AccessHint::Release,
        });
        v.push(Inst::Branch { cond: mtsim_isa::BCond::Ne, rs: r, rt: r2, target: Target::Pc(3) });
        v.push(Inst::Jump { target: Target::Pc(0) });
        v.push(Inst::SetPrio { level: 1 });
        v.push(Inst::Switch);
        v.push(Inst::Halt);
        v.push(Inst::Nop);
        // Zero-register corners: r0 defs and uses must stay out of masks.
        v.push(Inst::Alu { op: AluOp::Add, rd: Reg::ZERO, rs: Reg::ZERO, rt: Reg::ZERO });
        v.push(Inst::Load {
            space: Space::Shared,
            rd: Reg::ZERO,
            base: Reg::ZERO,
            offset: 0,
            hint: AccessHint::Data,
        });
        v
    }

    /// The decoded fields must agree exactly with the ISA queries they
    /// replace, for every instruction shape.
    #[test]
    fn decode_never_drifts_from_isa_queries() {
        for inst in all_shapes() {
            let d = DInst::decode(inst);
            assert_eq!(d.cost, cost::cycles(&inst), "{inst:?}");
            let mut want_int = 0u32;
            for r in inst.int_uses() {
                want_int |= 1 << r.index();
            }
            assert_eq!(d.int_use_mask, want_int, "{inst:?}");
            let mut want_fp = 0u32;
            for f in inst.fp_uses() {
                want_fp |= 1 << f.index();
            }
            assert_eq!(d.fp_use_mask, want_fp, "{inst:?}");
            let mut want_fd = 0u32;
            for f in inst.fp_defs() {
                want_fd |= 1 << f.index();
            }
            assert_eq!(d.fp_def_mask, want_fd, "{inst:?}");
            assert_eq!(d.int_def as usize, inst.int_def().map_or(0, |r| r.index()), "{inst:?}");
            assert_eq!(d.is_shared_access(), inst.is_shared_access(), "{inst:?}");
            assert_eq!(d.int_use_mask & 1, 0, "r0 in use mask: {inst:?}");
        }
    }

    #[test]
    fn spin_reset_classification() {
        let r = Reg::new(8);
        // Local stores reset the proof too (they mutate local memory,
        // which the snapshot deliberately excludes).
        let local_store =
            Inst::Store { space: Space::Local, rs: r, base: r, offset: 0, hint: AccessHint::Data };
        assert!(DInst::decode(local_store).resets_spin());
        assert!(DInst::decode(Inst::SetPrio { level: 0 }).resets_spin());
        assert!(!DInst::decode(Inst::Nop).resets_spin());
        assert!(!DInst::decode(Inst::Switch).resets_spin());
        let load =
            Inst::Load { space: Space::Shared, rd: r, base: r, offset: 0, hint: AccessHint::Spin };
        assert!(!DInst::decode(load).resets_spin());
    }

    #[test]
    fn local_exec_classification() {
        // Local-only ⇒ never a shared access, and every shared access,
        // switch point, or cross-thread effect is excluded.
        for inst in all_shapes() {
            let d = DInst::decode(inst);
            if d.is_local_exec() {
                assert!(!d.is_shared_access(), "{inst:?}");
                assert!(
                    !matches!(
                        inst,
                        Inst::Switch | Inst::Halt | Inst::SetPrio { .. } | Inst::FetchAdd { .. }
                    ),
                    "{inst:?}"
                );
            }
            if inst.is_shared_access() {
                assert!(!d.is_local_exec(), "{inst:?}");
            }
        }
        let r = Reg::new(8);
        let local =
            Inst::Load { space: Space::Local, rd: r, base: r, offset: 0, hint: AccessHint::Data };
        assert!(DInst::decode(local).is_local_exec());
        assert!(DInst::decode(Inst::Jump { target: Target::Pc(0) }).is_local_exec());
        assert!(!DInst::decode(Inst::Halt).is_local_exec());
        assert!(!DInst::decode(Inst::Switch).is_local_exec());
        assert!(!DInst::decode(Inst::SetPrio { level: 1 }).is_local_exec());
    }

    #[test]
    fn decoded_program_is_cheap_to_clone() {
        let mut b = mtsim_asm::ProgramBuilder::new("t");
        b.emit(Inst::Nop);
        let prog = b.finish();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(d.len(), prog.len());
        let d2 = d.clone();
        assert!(std::ptr::eq(d.insts(), d2.insts()), "clone must share the table");
    }
}
