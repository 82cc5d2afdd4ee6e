//! Instruction definitions.
//!
//! Addressing: memory is word-addressed (one 64-bit value per address).
//! Loads and stores name a base register plus a constant word offset, and
//! carry a [`Space`] that statically classifies the reference as *local*
//! (private, fast) or *shared* (remote, subject to the network round-trip
//! latency). The paper argues this static classification is realistic for
//! Sequent-style C/FORTRAN programs; in `mtsim` it is enforced by
//! construction because the program builder separates the two spaces.

use crate::{FReg, Reg, Target};

/// Memory space of a load or store: decided statically by the compiler,
/// exactly as the paper assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Private per-thread memory. Always hits the local cache: unit cost,
    /// never causes a context switch.
    Local,
    /// Global shared memory reached over the interconnection network:
    /// round-trip latency applies and, depending on the multithreading
    /// model, the access (or a later `Switch`/use) yields the processor.
    Shared,
}

impl Space {
    /// True for [`Space::Shared`].
    pub fn is_shared(self) -> bool {
        matches!(self, Space::Shared)
    }
}

/// Scheduling-relevant classification of a shared access, used by the
/// statistics machinery.
///
/// The paper (footnote 2, §6.1) excludes messages "used in spinning on locks
/// and barriers" from its bandwidth figures, expecting a real machine to
/// provide non-spinning primitives. The runtime tags the accesses inside its
/// spin loops so the statistics can be reported both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessHint {
    /// Ordinary data access (the default).
    #[default]
    Data,
    /// Part of a lock spin loop; excluded from paper-style bandwidth.
    Spin,
    /// A barrier-generation poll: spins exactly like [`AccessHint::Spin`]
    /// (same bandwidth exclusion, same deadlock tracking) but tells the
    /// observability layer to charge the wait to barrier-wait rather than
    /// lock-spin.
    Barrier,
    /// A barrier arrive/release access (the arrival fetch-and-add and the
    /// count/generation writes). Behaves exactly like [`AccessHint::Data`]
    /// — it is real synchronization traffic, not a poll — but lets the
    /// observability layer emit barrier-arrive/release events.
    Release,
}

impl AccessHint {
    /// True for the polling hints ([`AccessHint::Spin`] and
    /// [`AccessHint::Barrier`]): re-reads of one word that bypass caches,
    /// are excluded from paper-style bandwidth, and feed the deadlock
    /// detector.
    #[inline]
    pub fn is_poll(self) -> bool {
        matches!(self, AccessHint::Spin | AccessHint::Barrier)
    }
}

/// Integer ALU operation. `Slt`-style comparisons produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (R3000 `mult`, 12 cycles).
    Mul,
    /// Signed division (R3000 `div`, 35 cycles). Division by zero yields 0.
    Div,
    /// Signed remainder (same cost as division). Remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less than (signed): `rd = (rs < rt) as i64`.
    Slt,
    /// Set if less than or equal (signed).
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
}

/// Floating-point arithmetic operation on `f64` registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition (2 cycles, R3000/R3010 double-precision flavor).
    Add,
    /// Subtraction (2 cycles).
    Sub,
    /// Multiplication (5 cycles).
    Mul,
    /// Division (19 cycles).
    Div,
    /// Minimum (2 cycles); convenience op used by the applications.
    Min,
    /// Maximum (2 cycles).
    Max,
}

/// Floating-point comparison producing an integer 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

/// Branch condition comparing two integer registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BCond {
    /// `rs == rt`
    Eq,
    /// `rs != rt`
    Ne,
    /// `rs < rt` (signed)
    Lt,
    /// `rs <= rt` (signed)
    Le,
    /// `rs > rt` (signed)
    Gt,
    /// `rs >= rt` (signed)
    Ge,
}

/// One machine instruction.
///
/// Word addressing throughout: `base + offset` is a word index into the
/// instruction's [`Space`]. All integer registers hold `i64` (stored as raw
/// bits), all FP registers hold `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Three-register ALU operation: `rd = rs op rt`.
    Alu { op: AluOp, rd: Reg, rs: Reg, rt: Reg },
    /// Register-immediate ALU operation: `rd = rs op imm`.
    AluI { op: AluOp, rd: Reg, rs: Reg, imm: i64 },
    /// FP arithmetic: `fd = fs op ft`.
    Fpu { op: FpuOp, fd: FReg, fs: FReg, ft: FReg },
    /// FP comparison into an integer register: `rd = (fs op ft) as i64`.
    FpuCmp { op: CmpOp, rd: Reg, fs: FReg, ft: FReg },
    /// Load FP immediate (assembler pseudo-instruction, 1 cycle).
    FLi { fd: FReg, val: f64 },
    /// Convert integer to float: `fd = rs as f64`.
    CvtIF { fd: FReg, rs: Reg },
    /// Convert float to integer (truncating): `rd = fs as i64`.
    CvtFI { rd: Reg, fs: FReg },
    /// Move an integer register's bits into an FP register.
    MovIF { fd: FReg, rs: Reg },
    /// Move an FP register's bits into an integer register.
    MovFI { rd: Reg, fs: FReg },
    /// Floating-point square root: `fd = sqrt(fs)` (software-assisted on
    /// the R3010, hence the long latency in the cost model).
    FSqrt { fd: FReg, fs: FReg },

    /// Integer load: `rd = space[rs(base) + offset]`.
    Load { space: Space, rd: Reg, base: Reg, offset: i64, hint: AccessHint },
    /// Integer store: `space[base + offset] = rs`.
    Store { space: Space, rs: Reg, base: Reg, offset: i64, hint: AccessHint },
    /// FP load (same addressing; reinterprets the word's bits as `f64`).
    FLoad { space: Space, fd: FReg, base: Reg, offset: i64 },
    /// FP store.
    FStore { space: Space, fs: FReg, base: Reg, offset: i64 },
    /// Load-Double: loads two adjacent words `[base+offset]`, `[base+offset+1]`
    /// into `fd1`, `fd2` with a **single network message** (paper §3: added
    /// "to reduce the number of network messages").
    LoadPair { space: Space, fd1: FReg, fd2: FReg, base: Reg, offset: i64 },
    /// Store-Double: stores two adjacent words in one message.
    StorePair { space: Space, fs1: FReg, fs2: FReg, base: Reg, offset: i64 },
    /// Fetch-and-Add to shared memory: `rd = shared[base+offset]`, then
    /// `shared[base+offset] += rs`, atomically at the memory module.
    /// Behaves like a shared load for context-switching purposes.
    FetchAdd { rd: Reg, rs: Reg, base: Reg, offset: i64, hint: AccessHint },

    /// Conditional branch.
    Branch { cond: BCond, rs: Reg, rt: Reg, target: Target },
    /// Unconditional jump.
    Jump { target: Target },
    /// Sets the thread's scheduling priority (0 = normal). Emitted by the
    /// runtime around critical sections; consumed by the engine's optional
    /// priority scheduler — the "more sophisticated scheduling policies
    /// such as priority scheduling of threads inside critical regions"
    /// the paper suggests in §6.2. A 1-cycle hint with no data effects.
    SetPrio { level: u8 },
    /// The explicit context-switch instruction (paper §5). Under the
    /// `ExplicitSwitch` model the thread yields until all its outstanding
    /// shared accesses complete; under `ConditionalSwitch` it yields only if
    /// one of them missed the cache (or the forced-switch interval expired);
    /// under all other models it is a 1-cycle no-op.
    Switch,
    /// Thread termination.
    Halt,
    /// No operation (1 cycle).
    Nop,
}

impl Inst {
    /// True if the instruction accesses shared memory (and therefore enters
    /// the network / can trigger a context switch).
    pub fn is_shared_access(&self) -> bool {
        match self {
            Inst::Load { space, .. }
            | Inst::Store { space, .. }
            | Inst::FLoad { space, .. }
            | Inst::FStore { space, .. }
            | Inst::LoadPair { space, .. }
            | Inst::StorePair { space, .. } => space.is_shared(),
            Inst::FetchAdd { .. } => true,
            _ => false,
        }
    }

    /// True for shared accesses that *return data* (loads and fetch-and-add):
    /// the accesses that can block a thread.
    pub fn is_shared_read(&self) -> bool {
        match self {
            Inst::Load { space, .. } | Inst::FLoad { space, .. } | Inst::LoadPair { space, .. } => {
                space.is_shared()
            }
            Inst::FetchAdd { .. } => true,
            _ => false,
        }
    }

    /// True for shared stores (fire-and-forget writes).
    pub fn is_shared_write(&self) -> bool {
        match self {
            Inst::Store { space, .. }
            | Inst::FStore { space, .. }
            | Inst::StorePair { space, .. } => space.is_shared(),
            _ => false,
        }
    }

    /// True if this instruction ends a basic block (branch, jump, halt).
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::Jump { .. } | Inst::Halt)
    }

    /// The branch/jump target, if any.
    pub fn target(&self) -> Option<Target> {
        match self {
            Inst::Branch { target, .. } | Inst::Jump { target } => Some(*target),
            _ => None,
        }
    }

    /// Replaces the branch/jump target (used by label resolution).
    pub fn set_target(&mut self, t: Target) {
        match self {
            Inst::Branch { target, .. } | Inst::Jump { target } => *target = t,
            _ => panic!("set_target on non-control instruction {self:?}"),
        }
    }

    /// Integer registers read by this instruction, in operand order (a
    /// register named twice is yielded twice), `r0` excluded. Allocation-free.
    pub fn int_uses(&self) -> impl Iterator<Item = Reg> {
        let uses = match *self {
            Inst::Alu { rs, rt, .. } | Inst::Branch { rs, rt, .. } => [Some(rs), Some(rt)],
            Inst::Store { rs, base, .. } | Inst::FetchAdd { rs, base, .. } => {
                [Some(rs), Some(base)]
            }
            Inst::AluI { rs, .. } | Inst::CvtIF { rs, .. } | Inst::MovIF { rs, .. } => {
                [Some(rs), None]
            }
            Inst::Load { base, .. }
            | Inst::FLoad { base, .. }
            | Inst::LoadPair { base, .. }
            | Inst::FStore { base, .. }
            | Inst::StorePair { base, .. } => [Some(base), None],
            _ => [None, None],
        };
        uses.into_iter().flatten().filter(|r| !r.is_zero())
    }

    /// Integer register written by this instruction, if any. `LoadPair`
    /// writes FP registers, so it does not appear here.
    pub fn int_def(&self) -> Option<Reg> {
        let rd = match *self {
            Inst::Alu { rd, .. }
            | Inst::AluI { rd, .. }
            | Inst::FpuCmp { rd, .. }
            | Inst::CvtFI { rd, .. }
            | Inst::MovFI { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::FetchAdd { rd, .. } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// FP registers read by this instruction, in operand order.
    /// Allocation-free.
    pub fn fp_uses(&self) -> impl Iterator<Item = FReg> {
        let uses = match *self {
            Inst::Fpu { fs, ft, .. } | Inst::FpuCmp { fs, ft, .. } => [Some(fs), Some(ft)],
            Inst::CvtFI { fs, .. }
            | Inst::MovFI { fs, .. }
            | Inst::FStore { fs, .. }
            | Inst::FSqrt { fs, .. } => [Some(fs), None],
            Inst::StorePair { fs1, fs2, .. } => [Some(fs1), Some(fs2)],
            _ => [None, None],
        };
        uses.into_iter().flatten()
    }

    /// FP registers written by this instruction, in operand order.
    /// Allocation-free.
    pub fn fp_defs(&self) -> impl Iterator<Item = FReg> {
        let defs = match *self {
            Inst::Fpu { fd, .. }
            | Inst::FLi { fd, .. }
            | Inst::CvtIF { fd, .. }
            | Inst::MovIF { fd, .. }
            | Inst::FSqrt { fd, .. }
            | Inst::FLoad { fd, .. } => [Some(fd), None],
            Inst::LoadPair { fd1, fd2, .. } => [Some(fd1), Some(fd2)],
            _ => [None, None],
        };
        defs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_load() -> Inst {
        Inst::Load {
            space: Space::Shared,
            rd: Reg::R8,
            base: Reg::new(9),
            offset: 4,
            hint: AccessHint::Data,
        }
    }

    #[test]
    fn classification() {
        assert!(shared_load().is_shared_access());
        assert!(shared_load().is_shared_read());
        assert!(!shared_load().is_shared_write());
        let st = Inst::Store {
            space: Space::Shared,
            rs: Reg::R8,
            base: Reg::new(9),
            offset: 0,
            hint: AccessHint::Data,
        };
        assert!(st.is_shared_write() && !st.is_shared_read());
        let local = Inst::Load {
            space: Space::Local,
            rd: Reg::R8,
            base: Reg::new(9),
            offset: 0,
            hint: AccessHint::Data,
        };
        assert!(!local.is_shared_access());
        let fa = Inst::FetchAdd {
            rd: Reg::R8,
            rs: Reg::new(10),
            base: Reg::new(9),
            offset: 0,
            hint: AccessHint::Data,
        };
        assert!(fa.is_shared_read() && fa.is_shared_access());
    }

    /// Every instruction shape against the def/use lists the ISA defines
    /// for it: operand order, repeats, and the `r0` filter.
    #[test]
    fn def_use_queries_yield_operands_in_order() {
        let (a, b, c) = (Reg::new(8), Reg::new(9), Reg::new(10));
        let (f, g, h) = (FReg::new(1), FReg::new(2), FReg::new(3));
        let z = Reg::ZERO;
        let data = AccessHint::Data;
        // (instruction, int uses, fp uses, fp defs)
        type Case = (Inst, Vec<Reg>, Vec<FReg>, Vec<FReg>);
        let mut cases: Vec<Case> = vec![
            (Inst::Alu { op: AluOp::Add, rd: a, rs: b, rt: c }, vec![b, c], vec![], vec![]),
            (Inst::Alu { op: AluOp::Sub, rd: a, rs: c, rt: c }, vec![c, c], vec![], vec![]),
            (Inst::Alu { op: AluOp::Add, rd: z, rs: z, rt: b }, vec![b], vec![], vec![]),
            (Inst::AluI { op: AluOp::Add, rd: a, rs: b, imm: 1 }, vec![b], vec![], vec![]),
            (Inst::AluI { op: AluOp::Add, rd: z, rs: z, imm: 1 }, vec![], vec![], vec![]),
            (Inst::Fpu { op: FpuOp::Mul, fd: f, fs: g, ft: h }, vec![], vec![g, h], vec![f]),
            (Inst::FpuCmp { op: CmpOp::Lt, rd: a, fs: h, ft: g }, vec![], vec![h, g], vec![]),
            (Inst::FLi { fd: f, val: 2.5 }, vec![], vec![], vec![f]),
            (Inst::CvtIF { fd: f, rs: b }, vec![b], vec![], vec![f]),
            (Inst::CvtFI { rd: a, fs: g }, vec![], vec![g], vec![]),
            (Inst::MovIF { fd: f, rs: b }, vec![b], vec![], vec![f]),
            (Inst::MovFI { rd: a, fs: g }, vec![], vec![g], vec![]),
            (Inst::FSqrt { fd: f, fs: g }, vec![], vec![g], vec![f]),
            (
                Inst::FetchAdd { rd: a, rs: b, base: c, offset: 0, hint: data },
                vec![b, c],
                vec![],
                vec![],
            ),
            (
                Inst::Branch { cond: BCond::Ne, rs: c, rt: b, target: Target::Pc(0) },
                vec![c, b],
                vec![],
                vec![],
            ),
            (Inst::Jump { target: Target::Pc(0) }, vec![], vec![], vec![]),
            (Inst::SetPrio { level: 1 }, vec![], vec![], vec![]),
            (Inst::Switch, vec![], vec![], vec![]),
            (Inst::Halt, vec![], vec![], vec![]),
            (Inst::Nop, vec![], vec![], vec![]),
        ];
        for space in [Space::Local, Space::Shared] {
            cases.extend([
                (
                    Inst::Load { space, rd: a, base: b, offset: 1, hint: data },
                    vec![b],
                    vec![],
                    vec![],
                ),
                (
                    Inst::Store { space, rs: a, base: b, offset: 1, hint: data },
                    vec![a, b],
                    vec![],
                    vec![],
                ),
                (
                    Inst::Store { space, rs: z, base: b, offset: 1, hint: data },
                    vec![b],
                    vec![],
                    vec![],
                ),
                (Inst::FLoad { space, fd: f, base: b, offset: 0 }, vec![b], vec![], vec![f]),
                (Inst::FStore { space, fs: g, base: b, offset: 0 }, vec![b], vec![g], vec![]),
                (
                    Inst::LoadPair { space, fd1: g, fd2: f, base: b, offset: 0 },
                    vec![b],
                    vec![],
                    vec![g, f],
                ),
                (
                    Inst::StorePair { space, fs1: h, fs2: g, base: b, offset: 0 },
                    vec![b],
                    vec![h, g],
                    vec![],
                ),
            ]);
        }
        for (inst, int_uses, fp_uses, fp_defs) in cases {
            assert_eq!(inst.int_uses().collect::<Vec<_>>(), int_uses, "{inst:?}");
            assert_eq!(inst.fp_uses().collect::<Vec<_>>(), fp_uses, "{inst:?}");
            assert_eq!(inst.fp_defs().collect::<Vec<_>>(), fp_defs, "{inst:?}");
        }
    }

    #[test]
    fn int_defs() {
        let i = Inst::Alu { op: AluOp::Add, rd: Reg::new(8), rs: Reg::new(9), rt: Reg::new(10) };
        assert_eq!(i.int_def(), Some(Reg::new(8)));
        // r0 is never a def.
        let z = Inst::AluI { op: AluOp::Add, rd: Reg::ZERO, rs: Reg::ZERO, imm: 1 };
        assert_eq!(z.int_def(), None);
        // `LoadPair` writes FP registers only.
        let lp = Inst::LoadPair {
            space: Space::Shared,
            fd1: FReg::new(1),
            fd2: FReg::new(2),
            base: Reg::new(8),
            offset: 0,
        };
        assert_eq!(lp.int_def(), None);
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Halt.is_control());
        assert!(Inst::Jump { target: Target::Label(0) }.is_control());
        assert!(!Inst::Switch.is_control());
    }

    #[test]
    fn set_target_rewrites() {
        let mut j = Inst::Jump { target: Target::Label(5) };
        j.set_target(Target::Pc(12));
        assert_eq!(j.target(), Some(Target::Pc(12)));
    }
}
