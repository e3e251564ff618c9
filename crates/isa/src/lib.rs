//! The DDT-32 instruction set architecture.
//!
//! DDT tests *binary* drivers: the driver under test is shipped to the tool
//! as machine code for a concrete ISA, never as source. This crate defines
//! that ISA and everything needed to produce and inspect driver binaries:
//!
//! - [`Insn`]/[`Reg`]: the instruction set (fixed 8-byte encoding, 16 GPRs,
//!   compare-and-branch, port I/O, call/ret),
//! - [`asm::assemble`]: a two-pass assembler for the `.s` dialect the
//!   synthetic drivers in `ddt-drivers` are written in,
//! - [`image::DxeImage`]: the driver executable format (the PE analog): load
//!   base, entry point, text/data/bss sections, import table,
//! - [`dis`]: a disassembler,
//! - [`analysis`]: basic-block and function discovery over binaries, used by
//!   DDT's coverage heuristic (§4.3) and the Table 1 census,
//! - [`hash`]: the integer hasher every per-step map of the executors, the
//!   interner and the query cache uses.
//!
//! The ISA plays the role x86 plays in the paper: the guest instruction set
//! that QEMU translates and Klee interprets (DESIGN.md §4.1).
//!
//! # Memory map conventions
//!
//! | Range | Use |
//! |---|---|
//! | `0x0040_0000` (default) | driver image (text, data, bss) |
//! | `0x0100_0000..0x0200_0000` | kernel pool heap |
//! | `0x7000_0000..0x7010_0000` | driver stack (grows down) |
//! | `0x8000_0000..0x9000_0000` | MMIO device space |
//! | `0xF000_0000..` | kernel export trap addresses (call targets) |

pub mod analysis;
pub mod asm;
pub mod dis;
pub mod hash;
pub mod image;
mod insn;

pub use insn::{decode, encode, Insn, Reg};

/// The kind of a memory access (shared vocabulary between the concrete VM,
/// the symbolic engine, and DDT's memory checker).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum AccessKind {
    /// A data read.
    Read,
    /// A data write.
    Write,
    /// An instruction fetch.
    Fetch,
}

/// Size in bytes of every encoded instruction.
pub const INSN_SIZE: u32 = 8;

/// Base address of kernel export traps: a `CALL` to
/// `KERNEL_TRAP_BASE + 8 * export_id` invokes kernel export `export_id`.
pub const KERNEL_TRAP_BASE: u32 = 0xF000_0000;

/// The magic address a driver entry point returns to; the VM recognizes it
/// and hands control back to the kernel.
pub const RETURN_TRAP: u32 = 0xFFFF_FFF0;

/// Default driver image load base.
pub const DEFAULT_LOAD_BASE: u32 = 0x0040_0000;

/// Returns the export id if `addr` is a kernel trap address.
pub fn trap_export_id(addr: u32) -> Option<u16> {
    if (KERNEL_TRAP_BASE..RETURN_TRAP).contains(&addr) {
        let off = addr - KERNEL_TRAP_BASE;
        if off.is_multiple_of(8) {
            return Some((off / 8) as u16);
        }
    }
    None
}

/// Returns the trap address of a kernel export id.
pub fn export_trap_addr(id: u16) -> u32 {
    KERNEL_TRAP_BASE + 8 * id as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_addresses_roundtrip() {
        for id in [0u16, 1, 77, 500] {
            assert_eq!(trap_export_id(export_trap_addr(id)), Some(id));
        }
        assert_eq!(trap_export_id(0x1000), None);
        assert_eq!(trap_export_id(KERNEL_TRAP_BASE + 4), None, "misaligned trap");
        assert_eq!(trap_export_id(RETURN_TRAP), None);
    }
}
