//! The [`Program`] container: a resolved, immutable instruction sequence.

use std::sync::OnceLock;

use mtsim_isa::{Inst, LabelId, Pc, Target};

/// A finished program: instructions with all branch targets resolved to
/// absolute program counters.
///
/// Produced by [`crate::ProgramBuilder::finish`] or by
/// [`Program::from_raw_parts`] (used by the optimizer, which rewrites
/// instruction sequences).
#[derive(Clone)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    local_words: u64,
    /// [`Program::content_hash`], computed on first use. Derived from
    /// `insts`, which never change after construction, so it is left out
    /// of equality and `Debug`.
    hash: OnceLock<u64>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.name == other.name
            && self.insts == other.insts
            && self.local_words == other.local_words
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("insts", &self.insts)
            .field("local_words", &self.local_words)
            .finish()
    }
}

impl Program {
    /// Builds a program from a name and an already-resolved instruction
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if any branch target is still an unresolved label or points
    /// outside the program, or if the program does not end with a reachable
    /// `Halt` (every well-formed thread must terminate explicitly).
    pub fn from_raw_parts(name: impl Into<String>, insts: Vec<Inst>) -> Program {
        let name = name.into();
        assert!(!insts.is_empty(), "program {name} is empty");
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                match t {
                    Target::Label(l) => panic!("program {name}: unresolved label L{l} at pc {pc}"),
                    Target::Pc(p) => assert!(
                        (p as usize) < insts.len(),
                        "program {name}: branch target @{p} out of range at pc {pc}"
                    ),
                }
            }
        }
        assert!(insts.iter().any(|i| matches!(i, Inst::Halt)), "program {name} contains no Halt");
        Program { name, insts, local_words: 0, hash: OnceLock::new() }
    }

    /// Resolves labels against a label table (`labels[id] = pc`) and builds
    /// the program. Used by the builder.
    pub(crate) fn resolve(name: String, mut insts: Vec<Inst>, labels: &[Option<Pc>]) -> Program {
        for inst in &mut insts {
            if let Some(Target::Label(l)) = inst.target() {
                let pc = labels
                    .get(l as usize)
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| panic!("label L{l} was never placed"));
                inst.set_target(Target::Pc(pc));
            }
        }
        Program::from_raw_parts(name, insts)
    }

    /// The program's name (used in listings and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Words of per-thread local memory the program requires (recorded by
    /// the builder's local allocator; preserved across the grouping pass).
    pub fn local_words(&self) -> u64 {
        self.local_words
    }

    /// Sets the local-memory requirement (used by the builder and by
    /// passes that rebuild the instruction vector).
    pub fn with_local_words(mut self, words: u64) -> Program {
        self.local_words = words;
        self
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn inst(&self, pc: Pc) -> &Inst {
        &self.insts[pc as usize]
    }

    /// All instructions in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions (never true for a validated
    /// program, but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of static shared-memory access instructions.
    pub fn shared_access_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_shared_access()).count()
    }

    /// Number of static `Switch` instructions.
    pub fn switch_count(&self) -> usize {
        self.insts.iter().filter(|i| matches!(i, Inst::Switch)).count()
    }

    /// A 64-bit FNV-1a hash of the [listing](Program::listing): the code
    /// only, without the name or [`Program::local_words`]. Computed once
    /// per program and then read back, so artifact caches can key by
    /// content without formatting the program on every lookup.
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| {
            self.listing().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        })
    }

    /// A human-readable listing, one instruction per line with pc prefixes.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}:  {inst}");
        }
        s
    }
}

/// A label-placement table used during building.
#[derive(Debug, Default)]
pub(crate) struct LabelTable {
    placed: Vec<Option<Pc>>,
}

impl LabelTable {
    pub(crate) fn fresh(&mut self) -> LabelId {
        self.placed.push(None);
        (self.placed.len() - 1) as LabelId
    }

    pub(crate) fn place(&mut self, id: LabelId, pc: Pc) {
        let slot = &mut self.placed[id as usize];
        assert!(slot.is_none(), "label L{id} placed twice");
        *slot = Some(pc);
    }

    pub(crate) fn slots(&self) -> &[Option<Pc>] {
        &self.placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AluOp, Reg};

    fn nop() -> Inst {
        Inst::Nop
    }

    #[test]
    fn program_is_send_and_sync() {
        // The sweep engine shares one built `Program` across worker threads
        // behind an `Arc`; its only interior mutability is the
        // thread-safe content-hash cell.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }

    #[test]
    fn content_hash_covers_code_only_and_stays_out_of_equality() {
        let code = || vec![Inst::Nop, Inst::Halt];
        let a = Program::from_raw_parts("a", code());
        let b = Program::from_raw_parts("b", code()).with_local_words(8);
        assert_eq!(a.content_hash(), b.content_hash(), "name and local words are not code");
        let c = Program::from_raw_parts("a", vec![Inst::Halt]);
        assert_ne!(a.content_hash(), c.content_hash());
        // A computed hash neither shows in `Debug` nor breaks equality
        // with a copy that has not computed it yet.
        let fresh = Program::from_raw_parts("a", code());
        assert_eq!(a, fresh);
        assert_eq!(format!("{a:?}"), format!("{fresh:?}"));
        assert!(!format!("{a:?}").contains("hash"));
    }

    #[test]
    fn from_raw_parts_validates_targets() {
        let p =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Pc(1) }, Inst::Halt]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(), "t");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        let _ =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Pc(9) }, Inst::Halt]);
    }

    #[test]
    #[should_panic(expected = "unresolved label")]
    fn rejects_unresolved_label() {
        let _ =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Label(0) }, Inst::Halt]);
    }

    #[test]
    #[should_panic(expected = "no Halt")]
    fn rejects_missing_halt() {
        let _ = Program::from_raw_parts("t", vec![nop()]);
    }

    #[test]
    fn counts_and_listing() {
        let insts = vec![
            Inst::AluI { op: AluOp::Add, rd: Reg::R8, rs: Reg::ZERO, imm: 5 },
            Inst::Switch,
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("c", insts);
        assert_eq!(p.switch_count(), 1);
        assert_eq!(p.shared_access_count(), 0);
        let l = p.listing();
        assert!(l.contains("switch"));
        assert!(l.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn label_double_place_panics() {
        let mut t = LabelTable::default();
        let l = t.fresh();
        t.place(l, 0);
        t.place(l, 1);
    }
}
