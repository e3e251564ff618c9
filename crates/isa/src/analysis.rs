//! Static analysis over driver binaries: basic blocks, functions, imports.
//!
//! DDT's coverage heuristic maintains a hit counter per basic block (§4.3),
//! so the exerciser needs the block partition of the driver's text section.
//! The Table 1 census ("number of functions", "number of called kernel
//! functions") is computed here as well.

use std::collections::BTreeSet;

use crate::image::DxeImage;
use crate::insn::Insn;
use crate::{decode, trap_export_id, INSN_SIZE};

/// A basic block: a maximal straight-line instruction run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u32,
    /// Address one past the last instruction.
    pub end: u32,
    /// Static successor addresses (conditional branches have two; indirect
    /// jumps and returns have none statically).
    pub successors: Vec<u32>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> u32 {
        (self.end - self.start) / INSN_SIZE
    }

    /// True if the block is empty (never produced by the analyzer).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// True if `pc` falls within this block.
    pub fn contains(&self, pc: u32) -> bool {
        (self.start..self.end).contains(&pc)
    }
}

/// Static analysis results for one driver binary.
#[derive(Clone, Debug)]
pub struct CodeAnalysis {
    /// Basic blocks in address order. A block's position here is its
    /// index: the coverage tracker keeps its per-block counters in arrays
    /// indexed by it.
    pub blocks: Vec<BasicBlock>,
    /// Function entry addresses (the image entry + every static call target
    /// inside the image).
    pub functions: BTreeSet<u32>,
    /// Kernel export ids called anywhere in the text section.
    pub called_exports: BTreeSet<u16>,
    /// The address of the text's first instruction slot.
    text_base: u32,
    /// For every instruction slot of the text, how many blocks start at or
    /// before the slot's first byte: the dense index [`Self::block_index_of`]
    /// reads instead of searching `blocks`.
    slot_blocks: Vec<u32>,
}

impl CodeAnalysis {
    /// The index in [`Self::blocks`] of the block containing `pc`, if any:
    /// the last block starting at or before `pc`, when it reaches `pc`.
    ///
    /// One array read for every pc in the text. A block that starts inside
    /// a slot (at a branch target off the slot grid) is still found: the
    /// blocks starting between the slot's first byte and `pc` are stepped
    /// over.
    #[inline]
    pub fn block_index_of(&self, pc: u32) -> Option<usize> {
        let slot = pc.wrapping_sub(self.text_base) / INSN_SIZE;
        let mut n = *self.slot_blocks.get(slot as usize)? as usize;
        while self.blocks.get(n).is_some_and(|b| b.start <= pc) {
            n += 1;
        }
        let i = n.checked_sub(1)?;
        self.blocks[i].contains(pc).then_some(i)
    }

    /// The index of the block that starts at `pc`, if one does.
    #[inline]
    pub fn block_index_at(&self, pc: u32) -> Option<usize> {
        self.block_index_of(pc).filter(|&i| self.blocks[i].start == pc)
    }

    /// The start address of the block containing `pc`, if any.
    #[inline]
    pub fn block_of(&self, pc: u32) -> Option<u32> {
        self.block_index_of(pc).map(|i| self.blocks[i].start)
    }

    /// Total number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Decodes the instruction at `pc` from an image's text section.
pub fn insn_at(image: &DxeImage, pc: u32) -> Option<Insn> {
    if !image.text_range().contains(&pc) {
        return None;
    }
    let off = (pc - image.load_base) as usize;
    let chunk: &[u8; 8] = image.text.get(off..off + 8)?.try_into().ok()?;
    decode(chunk)
}

/// Computes basic blocks, function entries, and the kernel-import census.
pub fn analyze(image: &DxeImage) -> CodeAnalysis {
    let base = image.load_base;
    let n = (image.text.len() as u32) / INSN_SIZE;
    let mut insns: Vec<Option<Insn>> = Vec::with_capacity(n as usize);
    for i in 0..n {
        insns.push(insn_at(image, base + i * INSN_SIZE));
    }
    let in_text = |a: u32| image.text_range().contains(&a);

    // Leaders: entry, branch targets, fall-throughs after terminators.
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    let mut functions: BTreeSet<u32> = BTreeSet::new();
    let mut called_exports: BTreeSet<u16> = BTreeSet::new();
    leaders.insert(image.entry);
    functions.insert(image.entry);
    // Function pointers stored in the data section (entry-point tables the
    // driver registers with the kernel, OID dispatch tables): any aligned
    // word pointing at an instruction boundary in text is a function.
    for chunk in image.data.chunks_exact(4) {
        let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if in_text(v) && (v - base).is_multiple_of(INSN_SIZE) {
            functions.insert(v);
            leaders.insert(v);
        }
    }
    for (i, insn) in insns.iter().enumerate() {
        let pc = base + i as u32 * INSN_SIZE;
        let Some(insn) = insn else { continue };
        if let Some(t) = insn.static_target() {
            if let Insn::Call { .. } = insn {
                if let Some(id) = trap_export_id(t) {
                    called_exports.insert(id);
                } else if in_text(t) {
                    functions.insert(t);
                    leaders.insert(t);
                }
            } else if in_text(t) {
                leaders.insert(t);
            }
        }
        if insn.is_terminator() {
            let next = pc + INSN_SIZE;
            if in_text(next) {
                leaders.insert(next);
            }
        }
    }

    // Partition into blocks, in address order.
    let mut blocks = Vec::new();
    let leader_list: Vec<u32> = leaders.iter().copied().collect();
    for (k, &start) in leader_list.iter().enumerate() {
        let limit = leader_list.get(k + 1).copied().unwrap_or(base + n * INSN_SIZE);
        let mut pc = start;
        let mut successors = Vec::new();
        let mut end = start;
        while pc < limit {
            end = pc + INSN_SIZE;
            let idx = ((pc - base) / INSN_SIZE) as usize;
            let Some(insn) = insns[idx] else {
                break; // Undecodable instruction terminates the block.
            };
            if insn.is_terminator() {
                match insn {
                    Insn::Call { imm } => {
                        // Calls return; successor is the next instruction
                        // (and the callee, if it is local code).
                        if in_text(imm) {
                            successors.push(imm);
                        }
                        if in_text(end) {
                            successors.push(end);
                        }
                    }
                    Insn::Callr { .. }
                        if in_text(end) => {
                            successors.push(end);
                        }
                    Insn::Jmp { imm }
                        if in_text(imm) => {
                            successors.push(imm);
                        }
                    _ if insn.is_cond_branch() => {
                        if let Some(t) = insn.static_target() {
                            if in_text(t) {
                                successors.push(t);
                            }
                        }
                        if in_text(end) {
                            successors.push(end);
                        }
                    }
                    // Ret, Jr, Halt: no static successors.
                    _ => {}
                }
                break;
            }
            pc = end;
        }
        if end > start {
            if end == limit && !insns[((end - INSN_SIZE - base) / INSN_SIZE) as usize]
                .map(Insn::is_terminator)
                .unwrap_or(true)
            {
                // Fell through into the next leader.
                successors.push(limit);
            }
            blocks.push(BasicBlock { start, end, successors });
        }
    }

    let slot_blocks = (0..n)
        .map(|i| blocks.partition_point(|b: &BasicBlock| b.start <= base + i * INSN_SIZE) as u32)
        .collect();
    CodeAnalysis { blocks, functions, called_exports, text_base: base, slot_blocks }
}

/// Summary row for the Table 1 census.
#[derive(Clone, Debug)]
pub struct DriverCensus {
    /// Driver name.
    pub name: String,
    /// Size of the on-disk binary file in bytes.
    pub file_size: usize,
    /// Size of the code segment in bytes.
    pub code_size: usize,
    /// Number of functions discovered.
    pub functions: usize,
    /// Number of distinct kernel exports called.
    pub kernel_functions: usize,
    /// Number of basic blocks (used by Figures 2 and 3).
    pub basic_blocks: usize,
}

/// Computes the Table 1 row for a driver image.
pub fn census(image: &DxeImage) -> DriverCensus {
    let a = analyze(image);
    DriverCensus {
        name: image.name.clone(),
        file_size: image.file_size(),
        code_size: image.text.len(),
        functions: a.functions.len(),
        kernel_functions: a.called_exports.len().max(image.imports.len()),
        basic_blocks: a.block_count(),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::asm::{assemble, ExportMap};

    fn block_at(a: &CodeAnalysis, start: u32) -> &BasicBlock {
        &a.blocks[a.block_index_at(start).expect("a block starts here")]
    }

    fn build(src: &str) -> DxeImage {
        let mut exports = ExportMap::new();
        exports.insert("KeSleep".into(), 4);
        exports.insert("KeAlloc".into(), 5);
        assemble(src, &exports).expect("asm").image
    }

    #[test]
    fn straight_line_is_one_block() {
        let img = build("DriverEntry:\n nop\n nop\n ret");
        let a = analyze(&img);
        assert_eq!(a.block_count(), 1);
        let b = &a.blocks[0];
        assert_eq!(b.len(), 3);
        assert!(b.successors.is_empty());
    }

    #[test]
    fn conditional_branch_splits_blocks() {
        let img = build(
            "DriverEntry:
                beq r0, r1, yes
                nop
                ret
            yes:
                ret",
        );
        let a = analyze(&img);
        assert_eq!(a.block_count(), 3);
        let entry = block_at(&a, img.entry);
        assert_eq!(entry.successors.len(), 2, "branch + fall-through");
    }

    #[test]
    fn immediate_compare_pseudo_stays_in_one_block() {
        // `beq r0, 5, x` expands to movi+beq; the movi must not split.
        let img = build(
            "DriverEntry:
                beq r0, 5, out
                nop
            out:
                ret",
        );
        let a = analyze(&img);
        let entry = block_at(&a, img.entry);
        assert_eq!(entry.len(), 2, "movi and beq together");
    }

    #[test]
    fn calls_define_functions_and_census_imports() {
        let img = build(
            "DriverEntry:
                call helper
                call @KeSleep
                call @KeAlloc
                ret
            helper:
                call @KeSleep
                ret",
        );
        let a = analyze(&img);
        assert_eq!(a.functions.len(), 2, "entry + helper");
        assert_eq!(a.called_exports.len(), 2);
        let c = census(&img);
        assert_eq!(c.functions, 2);
        assert_eq!(c.kernel_functions, 2);
        assert!(c.file_size > c.code_size);
    }

    #[test]
    fn block_of_maps_interior_pcs() {
        let img = build("DriverEntry:\n nop\n nop\n ret");
        let a = analyze(&img);
        let base = img.entry;
        assert_eq!(a.block_of(base), Some(base));
        assert_eq!(a.block_of(base + 8), Some(base));
        assert_eq!(a.block_of(base + 16), Some(base));
        assert_eq!(a.block_of(base + 24), None, "past the end");
    }

    #[test]
    fn loop_successors() {
        let img = build(
            "DriverEntry:
            top:
                add r0, r0, 1
                bltu r0, r1, top
                ret",
        );
        let a = analyze(&img);
        let top = block_at(&a, img.entry);
        assert!(top.successors.contains(&img.entry), "back edge");
        assert!(top.successors.iter().any(|&s| s != img.entry), "exit edge");
    }

    /// The dense table against the block list's own definition: the last
    /// block starting at or before `pc`, when it reaches `pc`. The text
    /// below has an off-grid branch target (a block starting inside a slot
    /// and overlapping the next one), a gap after an undecodable slot, and
    /// trailing bytes past the last whole slot.
    #[test]
    fn dense_block_table_matches_the_ordered_search() {
        let base = 0x1000;
        let mut text = Vec::new();
        for insn in [
            Some(Insn::Beq { rs: crate::Reg(0), rt: crate::Reg(1), imm: base + 0x2b }),
            Some(Insn::Nop),
            None, // Undecodable: ends its block; the next slots are a gap.
            Some(Insn::Nop),
            Some(Insn::Jmp { imm: base + 0x30 }),
            Some(Insn::Nop),
            Some(Insn::Ret),
        ] {
            text.extend(insn.map_or([0xff; 8], crate::encode));
        }
        text.extend([0; 5]);
        let img = DxeImage {
            name: "grid".into(),
            load_base: base,
            entry: base,
            text,
            data: Vec::new(),
            bss_size: 0,
            imports: Vec::new(),
        };
        let a = analyze(&img);
        let ordered: BTreeMap<u32, &BasicBlock> = a.blocks.iter().map(|b| (b.start, b)).collect();
        let starts: Vec<u32> = ordered.keys().copied().collect();
        assert_eq!(starts, vec![base, base + 0x8, base + 0x28, base + 0x2b, base + 0x30]);
        for pc in base - 16..base + img.text.len() as u32 + 16 {
            let oracle = ordered
                .range(..=pc)
                .next_back()
                .and_then(|(_, b)| b.contains(pc).then_some(b.start));
            assert_eq!(a.block_of(pc), oracle, "pc {pc:#x}");
            let at = a.block_index_at(pc).map(|i| a.blocks[i].start);
            assert_eq!(at, ordered.contains_key(&pc).then_some(pc), "pc {pc:#x}");
        }
        assert_eq!(a.block_of(base + 0x1c), None, "the gap after the undecodable slot");
        assert_eq!(a.block_of(base + 0x2d), Some(base + 0x2b), "off-grid start");
        assert_eq!(a.block_of(base + 0x31), Some(base + 0x30), "the later of two overlapping");
    }

    #[test]
    fn call_fallthrough_successor() {
        let img = build(
            "DriverEntry:
                call @KeSleep
                nop
                ret",
        );
        let a = analyze(&img);
        let entry = block_at(&a, img.entry);
        // Kernel call: only the fall-through successor is static.
        assert_eq!(entry.successors, vec![img.entry + 8]);
    }
}
