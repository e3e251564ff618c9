//! The DDT-32 CPU and the concrete interpreter.

use std::collections::hash_map::Entry;

use ddt_isa::hash::IntMap;
use ddt_isa::{decode, trap_export_id, Insn, Reg, INSN_SIZE, RETURN_TRAP};
use serde::{Deserialize, Serialize};

use crate::bus::Bus;
use crate::mem::{AccessKind, MemError, Memory};

/// CPU register state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cpu {
    /// General-purpose registers `r0`–`r15`.
    pub regs: [u32; 16],
    /// Program counter.
    pub pc: u32,
}

impl Cpu {
    /// Reads a register.
    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = v;
    }
}

/// A CPU fault: the concrete analog of a crash-inducing driver action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Undecodable instruction at `pc`.
    IllegalInsn {
        /// Faulting instruction address.
        pc: u32,
    },
    /// Access to unmapped memory.
    BadAccess {
        /// Faulting instruction address.
        pc: u32,
        /// The inaccessible guest address.
        addr: u32,
        /// Access type.
        kind: AccessKind,
    },
    /// Misaligned word or halfword access.
    Misaligned {
        /// Faulting instruction address.
        pc: u32,
        /// The misaligned guest address.
        addr: u32,
    },
    /// Integer division by zero.
    DivByZero {
        /// Faulting instruction address.
        pc: u32,
    },
}

/// What happened during one [`Vm::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// Normal instruction retired; execution continues.
    Continue,
    /// Control transferred to a kernel export trap address.
    KernelCall {
        /// The kernel export id.
        export_id: u16,
        /// The return address saved in `lr` by the call.
        return_to: u32,
    },
    /// Control reached the magic return trap: the driver entry point
    /// returned to the kernel.
    ReturnToKernel,
    /// The machine executed `halt`.
    Halted,
    /// The instruction faulted; machine state is as of the fault.
    Faulted(Fault),
}

/// The concrete virtual machine: CPU + memory + bus.
pub struct Vm {
    /// CPU state.
    pub cpu: Cpu,
    /// Guest memory.
    pub mem: Memory,
    /// Device bus and interrupt controller.
    pub bus: Bus,
    /// Instructions retired.
    pub insns_retired: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates a VM with empty memory and an empty bus.
    pub fn new() -> Vm {
        Vm { cpu: Cpu::default(), mem: Memory::new(), bus: Bus::new(), insns_retired: 0 }
    }

    /// Loads a driver image into guest memory (maps and copies sections).
    ///
    /// The text section is declared as the code region so later writes to it
    /// (self-modifying code) invalidate any [`BlockCache`].
    pub fn load_image(&mut self, image: &ddt_isa::image::DxeImage) {
        let total = image.image_end() - image.load_base;
        self.mem.map(image.load_base, total);
        self.mem.write_bytes(image.load_base, &image.text).expect("text fits mapping");
        self.mem.write_bytes(image.data_base(), &image.data).expect("data fits mapping");
        self.mem.set_code_region(image.load_base, image.text.len() as u32);
    }

    fn read_mem(&mut self, pc: u32, addr: u32, size: u8) -> Result<u32, Fault> {
        if (size == 4 && !addr.is_multiple_of(4)) || (size == 2 && !addr.is_multiple_of(2)) {
            return Err(Fault::Misaligned { pc, addr });
        }
        if self.bus.is_mmio(addr) {
            return Ok(self.bus.mmio_read(addr, size).unwrap_or(0));
        }
        self.mem
            .read(addr, size, AccessKind::Read)
            .map(|v| v as u32)
            .map_err(|MemError { addr, kind }| Fault::BadAccess { pc, addr, kind })
    }

    fn write_mem(&mut self, pc: u32, addr: u32, size: u8, v: u32) -> Result<(), Fault> {
        if (size == 4 && !addr.is_multiple_of(4)) || (size == 2 && !addr.is_multiple_of(2)) {
            return Err(Fault::Misaligned { pc, addr });
        }
        if self.bus.is_mmio(addr) {
            self.bus.mmio_write(addr, size, v);
            return Ok(());
        }
        self.mem
            .write(addr, size, v as u64)
            .map_err(|MemError { addr, kind }| Fault::BadAccess { pc, addr, kind })
    }

    /// Fetches and executes one instruction.
    ///
    /// Kernel traps are detected *before* executing at the trap address, so
    /// the caller (the kernel dispatcher) regains control with the CPU
    /// exactly as the driver left it.
    pub fn step(&mut self) -> StepEvent {
        let pc = self.cpu.pc;
        // Trap detection.
        if pc == RETURN_TRAP {
            return StepEvent::ReturnToKernel;
        }
        if let Some(export_id) = trap_export_id(pc) {
            return StepEvent::KernelCall { export_id, return_to: self.cpu.get(Reg::LR) };
        }
        // Fetch.
        let raw = match self.mem.read(pc, INSN_SIZE as u8, AccessKind::Fetch) {
            Ok(v) => v.to_le_bytes(),
            Err(e) => {
                let kind = AccessKind::Fetch;
                return StepEvent::Faulted(Fault::BadAccess { pc, addr: e.addr, kind });
            }
        };
        let Some(insn) = decode(&raw) else {
            return StepEvent::Faulted(Fault::IllegalInsn { pc });
        };
        self.insns_retired += 1;
        match self.exec(pc, insn) {
            Ok(ev) => ev,
            Err(f) => StepEvent::Faulted(f),
        }
    }

    /// Executes a decoded instruction (pc already fetched from).
    fn exec(&mut self, pc: u32, insn: Insn) -> Result<StepEvent, Fault> {
        use Insn::*;
        let next = pc.wrapping_add(INSN_SIZE);
        let mut jump: Option<u32> = None;
        match insn {
            Halt => return Ok(StepEvent::Halted),
            Nop => {}
            Movi { rd, imm } => self.cpu.set(rd, imm),
            Mov { rd, rs } => {
                let v = self.cpu.get(rs);
                self.cpu.set(rd, v);
            }
            Add { rd, rs, rt } => {
                let v = self.cpu.get(rs).wrapping_add(self.cpu.get(rt));
                self.cpu.set(rd, v);
            }
            Addi { rd, rs, imm } => {
                let v = self.cpu.get(rs).wrapping_add(imm);
                self.cpu.set(rd, v);
            }
            Sub { rd, rs, rt } => {
                let v = self.cpu.get(rs).wrapping_sub(self.cpu.get(rt));
                self.cpu.set(rd, v);
            }
            Mul { rd, rs, rt } => {
                let v = self.cpu.get(rs).wrapping_mul(self.cpu.get(rt));
                self.cpu.set(rd, v);
            }
            Udiv { rd, rs, rt } => {
                let d = self.cpu.get(rt);
                if d == 0 {
                    return Err(Fault::DivByZero { pc });
                }
                let v = self.cpu.get(rs) / d;
                self.cpu.set(rd, v);
            }
            Urem { rd, rs, rt } => {
                let d = self.cpu.get(rt);
                if d == 0 {
                    return Err(Fault::DivByZero { pc });
                }
                let v = self.cpu.get(rs) % d;
                self.cpu.set(rd, v);
            }
            Sdiv { rd, rs, rt } => {
                let d = self.cpu.get(rt) as i32;
                if d == 0 {
                    return Err(Fault::DivByZero { pc });
                }
                let v = (self.cpu.get(rs) as i32).wrapping_div(d);
                self.cpu.set(rd, v as u32);
            }
            And { rd, rs, rt } => {
                let v = self.cpu.get(rs) & self.cpu.get(rt);
                self.cpu.set(rd, v);
            }
            Andi { rd, rs, imm } => {
                let v = self.cpu.get(rs) & imm;
                self.cpu.set(rd, v);
            }
            Or { rd, rs, rt } => {
                let v = self.cpu.get(rs) | self.cpu.get(rt);
                self.cpu.set(rd, v);
            }
            Ori { rd, rs, imm } => {
                let v = self.cpu.get(rs) | imm;
                self.cpu.set(rd, v);
            }
            Xor { rd, rs, rt } => {
                let v = self.cpu.get(rs) ^ self.cpu.get(rt);
                self.cpu.set(rd, v);
            }
            Xori { rd, rs, imm } => {
                let v = self.cpu.get(rs) ^ imm;
                self.cpu.set(rd, v);
            }
            Not { rd, rs } => {
                let v = !self.cpu.get(rs);
                self.cpu.set(rd, v);
            }
            Shl { rd, rs, rt } => {
                let sh = self.cpu.get(rt);
                let v = if sh >= 32 { 0 } else { self.cpu.get(rs) << sh };
                self.cpu.set(rd, v);
            }
            Shli { rd, rs, imm } => {
                let v = if imm >= 32 { 0 } else { self.cpu.get(rs) << imm };
                self.cpu.set(rd, v);
            }
            Shr { rd, rs, rt } => {
                let sh = self.cpu.get(rt);
                let v = if sh >= 32 { 0 } else { self.cpu.get(rs) >> sh };
                self.cpu.set(rd, v);
            }
            Shri { rd, rs, imm } => {
                let v = if imm >= 32 { 0 } else { self.cpu.get(rs) >> imm };
                self.cpu.set(rd, v);
            }
            Sar { rd, rs, rt } => {
                let sh = self.cpu.get(rt).min(31);
                let v = (self.cpu.get(rs) as i32) >> sh;
                self.cpu.set(rd, v as u32);
            }
            Sari { rd, rs, imm } => {
                let v = (self.cpu.get(rs) as i32) >> imm.min(31);
                self.cpu.set(rd, v as u32);
            }
            Ldw { rd, rs, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                let v = self.read_mem(pc, addr, 4)?;
                self.cpu.set(rd, v);
            }
            Ldh { rd, rs, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                let v = self.read_mem(pc, addr, 2)?;
                self.cpu.set(rd, v);
            }
            Ldb { rd, rs, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                let v = self.read_mem(pc, addr, 1)?;
                self.cpu.set(rd, v);
            }
            Stw { rs, rt, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                self.write_mem(pc, addr, 4, self.cpu.get(rt))?;
            }
            Sth { rs, rt, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                self.write_mem(pc, addr, 2, self.cpu.get(rt))?;
            }
            Stb { rs, rt, imm } => {
                let addr = self.cpu.get(rs).wrapping_add(imm);
                self.write_mem(pc, addr, 1, self.cpu.get(rt))?;
            }
            Jmp { imm } => jump = Some(imm),
            Jr { rs } => jump = Some(self.cpu.get(rs)),
            Beq { rs, rt, imm } => {
                if self.cpu.get(rs) == self.cpu.get(rt) {
                    jump = Some(imm);
                }
            }
            Bne { rs, rt, imm } => {
                if self.cpu.get(rs) != self.cpu.get(rt) {
                    jump = Some(imm);
                }
            }
            Blt { rs, rt, imm } => {
                if (self.cpu.get(rs) as i32) < (self.cpu.get(rt) as i32) {
                    jump = Some(imm);
                }
            }
            Bge { rs, rt, imm } => {
                if (self.cpu.get(rs) as i32) >= (self.cpu.get(rt) as i32) {
                    jump = Some(imm);
                }
            }
            Bltu { rs, rt, imm } => {
                if self.cpu.get(rs) < self.cpu.get(rt) {
                    jump = Some(imm);
                }
            }
            Bgeu { rs, rt, imm } => {
                if self.cpu.get(rs) >= self.cpu.get(rt) {
                    jump = Some(imm);
                }
            }
            Call { imm } => {
                self.cpu.set(Reg::LR, next);
                jump = Some(imm);
            }
            Callr { rs } => {
                let t = self.cpu.get(rs);
                self.cpu.set(Reg::LR, next);
                jump = Some(t);
            }
            Ret => jump = Some(self.cpu.get(Reg::LR)),
            Push { rs } => {
                let sp = self.cpu.get(Reg::SP).wrapping_sub(4);
                self.write_mem(pc, sp, 4, self.cpu.get(rs))?;
                self.cpu.set(Reg::SP, sp);
            }
            Pop { rd } => {
                let sp = self.cpu.get(Reg::SP);
                let v = self.read_mem(pc, sp, 4)?;
                self.cpu.set(rd, v);
                self.cpu.set(Reg::SP, sp.wrapping_add(4));
            }
            In { rd, imm } => {
                let v = self.bus.port_read(imm);
                self.cpu.set(rd, v);
            }
            Inr { rd, rs } => {
                let port = self.cpu.get(rs);
                let v = self.bus.port_read(port);
                self.cpu.set(rd, v);
            }
            Out { rt, imm } => {
                let v = self.cpu.get(rt);
                self.bus.port_write(imm, v);
            }
            Outr { rs, rt } => {
                let port = self.cpu.get(rs);
                let v = self.cpu.get(rt);
                self.bus.port_write(port, v);
            }
        }
        self.cpu.pc = jump.unwrap_or(next);
        // Report kernel-bound control transfers eagerly so the caller never
        // tries to fetch from a trap address.
        if self.cpu.pc == RETURN_TRAP {
            return Ok(StepEvent::ReturnToKernel);
        }
        if let Some(export_id) = trap_export_id(self.cpu.pc) {
            return Ok(StepEvent::KernelCall { export_id, return_to: self.cpu.get(Reg::LR) });
        }
        Ok(StepEvent::Continue)
    }

    /// Runs until a non-`Continue` event or `max_insns` instructions.
    pub fn run(&mut self, max_insns: u64) -> StepEvent {
        for _ in 0..max_insns {
            match self.step() {
                StepEvent::Continue => continue,
                ev => return ev,
            }
        }
        StepEvent::Continue
    }

    /// Pre-decodes the straight-line superblock starting at `pc`.
    ///
    /// The block ends at the first control-flow instruction (inclusive), at
    /// the first undecodable/unfetchable slot (exclusive — dispatching there
    /// falls back to [`Vm::step`] for exact fault semantics), or at
    /// [`MAX_SUPERBLOCK`] instructions.
    fn decode_block(&mut self, pc: u32) -> SuperBlock {
        let mut insns = Vec::new();
        let mut cur = pc;
        while insns.len() < MAX_SUPERBLOCK {
            let Ok(raw) = self.mem.read(cur, INSN_SIZE as u8, AccessKind::Fetch) else { break };
            let Some(insn) = decode(&raw.to_le_bytes()) else { break };
            let terminal = insn.is_terminator();
            insns.push((cur, insn));
            if terminal {
                break;
            }
            cur = cur.wrapping_add(INSN_SIZE);
        }
        SuperBlock { insns }
    }

    /// Threaded-dispatch interpreter: like [`Vm::run`] but executes
    /// pre-decoded superblocks back-to-back with no per-instruction fetch or
    /// decode. Every superblock entry pc is appended to `block_trace` (the
    /// cheap concrete edge map consumed by the fuzzer's coverage feedback).
    ///
    /// Semantically identical to a [`Vm::step`] loop: the cache is keyed by
    /// the memory's code generation, so self-modifying code — even a store
    /// that patches a later instruction of the *current* block — re-decodes
    /// before the stale copy can execute.
    pub fn run_fast(
        &mut self,
        max_insns: u64,
        cache: &mut BlockCache,
        block_trace: &mut Vec<u32>,
    ) -> StepEvent {
        let mut budget = max_insns;
        'dispatch: loop {
            let gen = self.mem.code_generation();
            if cache.generation != gen {
                cache.blocks.clear();
                cache.generation = gen;
            }
            let pc = self.cpu.pc;
            if pc == RETURN_TRAP {
                return StepEvent::ReturnToKernel;
            }
            if let Some(export_id) = trap_export_id(pc) {
                return StepEvent::KernelCall { export_id, return_to: self.cpu.get(Reg::LR) };
            }
            let block = match cache.blocks.entry(pc) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => {
                    let b = self.decode_block(pc);
                    if b.insns.is_empty() {
                        // Unfetchable or undecodable right at the entry: one
                        // slow step produces the exact fault.
                        if budget == 0 {
                            return StepEvent::Continue;
                        }
                        match self.step() {
                            StepEvent::Continue => {
                                budget -= 1;
                                continue 'dispatch;
                            }
                            ev => return ev,
                        }
                    }
                    slot.insert(b)
                }
            };
            block_trace.push(pc);
            for &(ipc, insn) in &block.insns {
                if budget == 0 {
                    return StepEvent::Continue;
                }
                self.insns_retired += 1;
                budget -= 1;
                match self.exec(ipc, insn) {
                    Ok(StepEvent::Continue) => {}
                    Ok(ev) => return ev,
                    Err(f) => return StepEvent::Faulted(f),
                }
                if self.mem.code_generation() != gen {
                    // A store hit the code region; the rest of this block may
                    // be stale. Re-dispatch (which rebuilds the cache).
                    continue 'dispatch;
                }
            }
        }
    }
}

/// Maximum pre-decoded instructions per superblock.
const MAX_SUPERBLOCK: usize = 64;

/// A straight-line run of pre-decoded instructions.
#[derive(Clone, Debug)]
struct SuperBlock {
    /// `(pc, insn)` pairs; only the last may be control flow.
    insns: Vec<(u32, Insn)>,
}

/// Cache of pre-decoded superblocks keyed by entry pc.
///
/// Owned by the caller (not the [`Vm`]) so one warm cache can be reused
/// across many fuzz executions of the *same image* (generations only order
/// writes within one image's lifetime, so reuse across different images
/// must start from a fresh cache). It self-invalidates whenever the
/// memory's code generation moves.
#[derive(Debug, Default)]
pub struct BlockCache {
    blocks: IntMap<u32, SuperBlock>,
    generation: u64,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Number of cached superblocks (diagnostics).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_isa::asm::{assemble, ExportMap};
    use ddt_isa::export_trap_addr;

    fn vm_with(src: &str) -> (Vm, ddt_isa::asm::Assembled) {
        let mut exports = ExportMap::new();
        exports.insert("KeFoo".into(), 3);
        let a = assemble(src, &exports).expect("asm");
        let mut vm = Vm::new();
        vm.load_image(&a.image);
        // Stack.
        vm.mem.map(0x7000_0000, 0x10_0000);
        vm.cpu.set(Reg::SP, 0x7010_0000);
        vm.cpu.set(Reg::LR, RETURN_TRAP);
        vm.cpu.pc = a.image.entry;
        (vm, a)
    }

    #[test]
    fn arithmetic_program() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                mov r0, 6
                mov r1, 7
                mul r2, r0, r1
                add r2, r2, 8
                shr r3, r2, 1
                ret",
        );
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(2)), 50);
        assert_eq!(vm.cpu.get(Reg(3)), 25);
    }

    #[test]
    fn memory_and_stack() {
        let (mut vm, a) = vm_with(
            "DriverEntry:
                push r4, lr
                lea r4, buf
                mov r0, 0x1234
                stw [r4], r0
                ldh r1, [r4]
                ldb r2, [r4+1]
                pop lr, r4
                ret
            .bss
            buf: .space 8",
        );
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(1)), 0x1234);
        assert_eq!(vm.cpu.get(Reg(2)), 0x12);
        let _ = a;
    }

    #[test]
    fn loops_and_branches() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                mov r0, 0
                mov r1, 0
            loop:
                add r0, r0, 1
                add r1, r1, r0
                bltu r0, 10, loop
                ret",
        );
        assert_eq!(vm.run(1000), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(1)), 55);
    }

    #[test]
    fn function_calls() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                push lr
                mov r0, 20
                call double
                pop lr
                ret
            double:
                add r0, r0, r0
                ret",
        );
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(0)), 40);
    }

    #[test]
    fn kernel_call_traps_out() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                push lr
                mov r0, 5
                call @KeFoo
                pop lr
                ret",
        );
        match vm.run(100) {
            StepEvent::KernelCall { export_id, return_to } => {
                assert_eq!(export_id, 3);
                assert_eq!(vm.cpu.pc, export_trap_addr(3));
                assert_eq!(return_to, vm.cpu.get(Reg::LR));
            }
            ev => panic!("expected kernel call, got {ev:?}"),
        }
        // Simulate the kernel returning 0 and resuming the driver.
        vm.cpu.set(Reg(0), 0);
        vm.cpu.pc = vm.cpu.get(Reg::LR);
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                mov r1, 0x12340000
                ldw r0, [r1]
                ret",
        );
        match vm.run(100) {
            StepEvent::Faulted(Fault::BadAccess { addr, kind, .. }) => {
                assert_eq!(addr, 0x1234_0000);
                assert_eq!(kind, AccessKind::Read);
            }
            ev => panic!("expected fault, got {ev:?}"),
        }
    }

    #[test]
    fn misaligned_word_faults() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                lea r1, buf
                add r1, r1, 2
                ldw r0, [r1]
                ret
            .bss
            buf: .space 8",
        );
        assert!(matches!(vm.run(100), StepEvent::Faulted(Fault::Misaligned { .. })));
    }

    #[test]
    fn div_by_zero_faults() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                mov r0, 10
                mov r1, 0
                udiv r2, r0, r1
                ret",
        );
        assert!(matches!(vm.run(100), StepEvent::Faulted(Fault::DivByZero { .. })));
    }

    #[test]
    fn illegal_instruction_faults() {
        let (mut vm, a) = vm_with("DriverEntry:\n nop\n ret");
        // Clobber the second instruction with garbage.
        vm.mem.write_bytes(a.image.entry + 8, &[0xee; 8]).unwrap();
        assert!(matches!(vm.run(100), StepEvent::Faulted(Fault::IllegalInsn { .. })));
    }

    #[test]
    fn mmio_routes_to_device() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                mov r1, 0x80000000
                ldw r0, [r1]
                stw [r1+4], r0
                ret",
        );
        let d = vm.bus.add_device(Box::new(crate::bus::ScriptedDevice::new(vec![0xcafe])));
        vm.bus.map_mmio(0x8000_0000, 0x100, d);
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(0)), 0xcafe);
    }

    #[test]
    fn port_io() {
        let (mut vm, _) = vm_with(
            "DriverEntry:
                in r0, 0x10
                out 0x14, r0
                ret",
        );
        let d = vm.bus.add_device(Box::new(crate::bus::ScriptedDevice::new(vec![0x55])));
        vm.bus.map_ports(0x10, 8, d);
        assert_eq!(vm.run(100), StepEvent::ReturnToKernel);
        assert_eq!(vm.cpu.get(Reg(0)), 0x55);
    }

    #[test]
    fn halt_stops() {
        let (mut vm, _) = vm_with("DriverEntry:\n halt");
        assert_eq!(vm.run(10), StepEvent::Halted);
    }

    #[test]
    fn run_budget_returns_continue() {
        let (mut vm, _) = vm_with("DriverEntry:\nspin: jmp spin");
        assert_eq!(vm.run(50), StepEvent::Continue, "budget exhausted mid-loop");
        assert_eq!(vm.insns_retired, 50);
    }

    #[test]
    fn run_fast_matches_step_loop() {
        let src = "DriverEntry:
                push lr
                mov r0, 0
                mov r1, 0
            loop:
                add r0, r0, 1
                call body
                bltu r0, 200, loop
                pop lr
                ret
            body:
                add r1, r1, r0
                ret";
        let (mut slow, _) = vm_with(src);
        let ev_slow = slow.run(1_000_000);
        let (mut fast, _) = vm_with(src);
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        let ev_fast = fast.run_fast(1_000_000, &mut cache, &mut trace);
        assert_eq!(ev_slow, ev_fast);
        assert_eq!(slow.cpu, fast.cpu);
        assert_eq!(slow.insns_retired, fast.insns_retired);
        assert_eq!(fast.cpu.get(Reg(1)), (1..=200u32).sum::<u32>());
        assert!(cache.len() >= 3, "loop body, call target, tail all cached");
        assert!(trace.len() as u64 <= fast.insns_retired);
        // Superblock entries start at the function's real block boundaries.
        assert!(trace.iter().all(|pc| *pc >= 0x0010_0000), "entries are code addresses");
    }

    #[test]
    fn run_fast_reuses_a_warm_cache_across_vms() {
        let src = "DriverEntry:
                mov r0, 0
            loop:
                add r0, r0, 1
                bltu r0, 50, loop
                ret";
        let (mut a, _) = vm_with(src);
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        assert_eq!(a.run_fast(10_000, &mut cache, &mut trace), StepEvent::ReturnToKernel);
        let warm = cache.len();
        assert!(warm > 0);
        // Same image in a fresh VM: the decoded blocks survive.
        let (mut b, _) = vm_with(src);
        trace.clear();
        assert_eq!(b.run_fast(10_000, &mut cache, &mut trace), StepEvent::ReturnToKernel);
        assert_eq!(cache.len(), warm, "no re-decode on the warm path");
        assert_eq!(b.cpu.get(Reg(0)), 50);
    }

    #[test]
    fn run_fast_invalidates_on_self_modifying_code() {
        // The stores patch an instruction *later in the same superblock*:
        // the 8-byte encoding of `mov r0, 2` (at src) is copied over
        // `mov r0, 1` (at patch) before control reaches it. A step() loop
        // naturally executes the new bytes; run_fast must re-decode.
        let src = "DriverEntry:
                lea r1, src
                lea r2, patch
                ldw r3, [r1]
                stw [r2], r3
                ldw r3, [r1+4]
                stw [r2+4], r3
            patch:
                mov r0, 1
                ret
            src:
                mov r0, 2
                ret";
        let (mut slow, _) = vm_with(src);
        assert_eq!(slow.run(100), StepEvent::ReturnToKernel);
        assert_eq!(slow.cpu.get(Reg(0)), 2, "step loop sees the patched insn");
        let (mut fast, _) = vm_with(src);
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        assert_eq!(fast.run_fast(100, &mut cache, &mut trace), StepEvent::ReturnToKernel);
        assert_eq!(fast.cpu.get(Reg(0)), 2, "superblock cache must re-decode after the store");
        assert_eq!(slow.insns_retired, fast.insns_retired);
    }

    #[test]
    fn run_fast_budget_is_resumable() {
        let (mut vm, _) = vm_with("DriverEntry:\nspin: jmp spin");
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        assert_eq!(vm.run_fast(50, &mut cache, &mut trace), StepEvent::Continue);
        assert_eq!(vm.insns_retired, 50);
        assert_eq!(vm.run_fast(25, &mut cache, &mut trace), StepEvent::Continue);
        assert_eq!(vm.insns_retired, 75);
    }

    #[test]
    fn run_fast_traps_and_faults_match_step() {
        let src = "DriverEntry:
                push lr
                mov r0, 5
                call @KeFoo
                pop lr
                mov r1, 0x12340000
                ldw r2, [r1]
                ret";
        let (mut vm, _) = vm_with(src);
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        match vm.run_fast(100, &mut cache, &mut trace) {
            StepEvent::KernelCall { export_id, .. } => assert_eq!(export_id, 3),
            ev => panic!("expected kernel call, got {ev:?}"),
        }
        vm.cpu.set(Reg(0), 0);
        vm.cpu.pc = vm.cpu.get(Reg::LR);
        match vm.run_fast(100, &mut cache, &mut trace) {
            StepEvent::Faulted(Fault::BadAccess { addr, kind, .. }) => {
                assert_eq!(addr, 0x1234_0000);
                assert_eq!(kind, AccessKind::Read);
            }
            ev => panic!("expected fault, got {ev:?}"),
        }
    }
}
