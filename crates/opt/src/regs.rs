//! Small register-set helpers shared by the inter-block passes.
//!
//! Registers live in a 64-bit mask: bit `r` for integer register `r`
//! (bit 0, `r0`, is never set — it is hardwired zero and filtered by the
//! ISA accessors), bit `32 + f` for FP register `f`.

use mtsim_isa::Inst;

/// Mask of registers read by `inst`.
pub(crate) fn use_mask(inst: &Inst) -> u64 {
    let m = inst.int_uses().fold(0u64, |m, r| m | 1 << r.index());
    inst.fp_uses().fold(m, |m, f| m | 1 << (32 + f.index()))
}

/// Mask of registers written by `inst`.
pub(crate) fn def_mask(inst: &Inst) -> u64 {
    let m = inst.int_def().map_or(0u64, |r| 1 << r.index());
    inst.fp_defs().fold(m, |m, f| m | 1 << (32 + f.index()))
}

/// True for register-only compute instructions: no memory access, no
/// control transfer, no scheduling side effects. These are the only
/// instructions the inter-block passes will duplicate or reorder across
/// iteration boundaries.
pub(crate) fn is_pure_alu(inst: &Inst) -> bool {
    matches!(
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
            | Inst::Nop
    )
}

/// True for memory operations that behave like stores to shared memory
/// under the paper's pessimistic aliasing (footnote 1): stores and
/// fetch-and-adds. Neither pass ever moves a load across one of these.
pub(crate) fn is_shared_storelike(inst: &Inst) -> bool {
    inst.is_shared_write() || matches!(inst, Inst::FetchAdd { .. })
}
