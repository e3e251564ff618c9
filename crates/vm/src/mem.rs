//! Sparse paged guest physical memory.
//!
//! Memory is allocated in 4 KiB pages on demand, but only within regions
//! explicitly mapped by the loader or the kernel — an access outside every
//! mapped region is a fault, which is how the concrete VM surfaces wild
//! pointer dereferences during replay.
//!
//! An access of up to 8 bytes that stays inside one page and one mapped
//! region, which is nearly every load, store and fetch, costs one region
//! lookup and one page lookup. Any other access goes byte by byte, so a
//! fault names the first unmapped byte and a faulting write keeps the
//! bytes before it.

use std::collections::BTreeMap;

use ddt_isa::hash::IntMap;
use serde::{Deserialize, Serialize};

/// Page size in bytes.
pub const PAGE_SIZE: u32 = 4096;

pub use ddt_isa::AccessKind;

/// A memory access error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemError {
    /// The faulting guest address.
    pub addr: u32,
    /// What kind of access faulted.
    pub kind: AccessKind,
}

/// Guest physical memory: mapped regions + demand-allocated pages.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Mapped regions: start → end (exclusive). Non-overlapping.
    regions: BTreeMap<u32, u32>,
    /// Demand-allocated pages keyed by page base address.
    pages: IntMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
    /// Declared code region `[start, end)`, if any. Writes landing inside it
    /// bump `code_generation`, which is the concrete analog of the symbolic
    /// interpreter's `code_bytes_stable` guard: the superblock cache is
    /// valid exactly while the generation it was decoded under is current.
    code_region: Option<(u32, u32)>,
    /// Bumped on every write that touches the code region.
    code_generation: u64,
}

impl Memory {
    /// Creates empty (fully unmapped) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps `[start, start+len)` as accessible, zero-filled memory.
    ///
    /// Overlapping or adjacent regions merge.
    pub fn map(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("region wraps the address space");
        let (mut s, mut e) = (start, end);
        // Merge with any overlapping/adjacent existing regions.
        let overlapping: Vec<(u32, u32)> = self
            .regions
            .range(..=e)
            .filter(|&(&rs, &re)| re >= s && rs <= e)
            .map(|(&rs, &re)| (rs, re))
            .collect();
        for (rs, re) in overlapping {
            s = s.min(rs);
            e = e.max(re);
            self.regions.remove(&rs);
        }
        self.regions.insert(s, e);
    }

    /// Unmaps `[start, start+len)`; pages inside are dropped.
    pub fn unmap(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let affected: Vec<(u32, u32)> = self
            .regions
            .range(..end)
            .filter(|&(_, &re)| re > start)
            .map(|(&rs, &re)| (rs, re))
            .collect();
        for (rs, re) in affected {
            self.regions.remove(&rs);
            if rs < start {
                self.regions.insert(rs, start);
            }
            if re > end {
                self.regions.insert(end, re);
            }
        }
        let first_page = start / PAGE_SIZE;
        let last_page = (end - 1) / PAGE_SIZE;
        for p in first_page..=last_page {
            let page_base = p * PAGE_SIZE;
            // Only drop pages fully inside the unmapped range (the top
            // page of the address space ends past `u32::MAX`).
            if page_base >= start && page_base as u64 + PAGE_SIZE as u64 <= end as u64 {
                self.pages.remove(&page_base);
            }
        }
    }

    /// True if the byte at `addr` is mapped.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.regions.range(..=addr).next_back().is_some_and(|(_, &end)| addr < end)
    }

    /// The offset of `addr` in its page when all of `[addr, addr+size)`
    /// lies in that page and in one mapped region (`size` in 1..=8).
    fn in_page_offset(&self, addr: u32, size: u8) -> Option<usize> {
        if !(1..=8).contains(&size) {
            return None;
        }
        let last = addr.checked_add(size as u32 - 1)?;
        if addr / PAGE_SIZE != last / PAGE_SIZE {
            return None;
        }
        let (_, &end) = self.regions.range(..=addr).next_back()?;
        (last < end).then_some((addr % PAGE_SIZE) as usize)
    }

    /// True if the whole range `[addr, addr+len)` is mapped.
    pub fn is_range_mapped(&self, addr: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = addr.checked_add(len) else { return false };
        let mut cur = addr;
        while cur < end {
            match self.regions.range(..=cur).next_back() {
                Some((_, &rend)) if cur < rend => cur = rend,
                _ => return false,
            }
        }
        true
    }

    fn page(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE as usize] {
        let base = addr & !(PAGE_SIZE - 1);
        self.pages.entry(base).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u32, kind: AccessKind) -> Result<u8, MemError> {
        if !self.is_mapped(addr) {
            return Err(MemError { addr, kind });
        }
        let base = addr & !(PAGE_SIZE - 1);
        Ok(match self.pages.get(&base) {
            Some(p) => p[(addr - base) as usize],
            None => 0,
        })
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemError> {
        if !self.is_mapped(addr) {
            return Err(MemError { addr, kind: AccessKind::Write });
        }
        if let Some((s, e)) = self.code_region {
            if addr >= s && addr < e {
                self.code_generation += 1;
            }
        }
        let base = addr & !(PAGE_SIZE - 1);
        self.page(addr)[(addr - base) as usize] = v;
        Ok(())
    }

    /// Declares `[start, start+len)` as the code region whose writes
    /// invalidate pre-decoded instruction caches (self-modifying code or a
    /// reloaded image). Replaces any earlier declaration and bumps the
    /// generation so stale caches built before the declaration also miss.
    pub fn set_code_region(&mut self, start: u32, len: u32) {
        self.code_region = Some((start, start.saturating_add(len)));
        self.code_generation += 1;
    }

    /// Current code-region write generation. A decoded-block cache records
    /// the generation it decoded under and must be discarded on mismatch.
    pub fn code_generation(&self) -> u64 {
        self.code_generation
    }

    /// Reads a little-endian value of `size` bytes (1, 2, 4, or 8).
    pub fn read(&mut self, addr: u32, size: u8, kind: AccessKind) -> Result<u64, MemError> {
        if let Some(off) = self.in_page_offset(addr, size) {
            let mut bytes = [0u8; 8];
            if let Some(page) = self.pages.get(&(addr - off as u32)) {
                bytes[..size as usize].copy_from_slice(&page[off..off + size as usize]);
            }
            return Ok(u64::from_le_bytes(bytes));
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i as u32), kind)? as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Writes a little-endian value of `size` bytes.
    pub fn write(&mut self, addr: u32, size: u8, v: u64) -> Result<(), MemError> {
        if let Some(off) = self.in_page_offset(addr, size) {
            if let Some((s, e)) = self.code_region {
                // One bump per byte that lands in the code region.
                let (lo, hi) = (addr.max(s), (addr + size as u32).min(e));
                self.code_generation += hi.saturating_sub(lo) as u64;
            }
            let n = size as usize;
            self.page(addr)[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
            return Ok(());
        }
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i as u32), (v >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Copies a byte slice into guest memory.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }

    /// Reads `len` bytes from guest memory.
    pub fn read_bytes(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, MemError> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i), AccessKind::Read)).collect()
    }

    /// Iterates over mapped regions as `(start, end)` pairs.
    pub fn regions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.regions.iter().map(|(&s, &e)| (s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        assert_eq!(
            m.read_u8(0x1000, AccessKind::Read),
            Err(MemError { addr: 0x1000, kind: AccessKind::Read })
        );
        assert!(m.write_u8(0x1000, 1).is_err());
    }

    #[test]
    fn mapped_memory_reads_zero_then_roundtrips() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100);
        assert_eq!(m.read_u8(0x1000, AccessKind::Read), Ok(0));
        m.write(0x1010, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read(0x1010, 4, AccessKind::Read), Ok(0xdead_beef));
        assert_eq!(m.read(0x1012, 2, AccessKind::Read), Ok(0xdead));
    }

    #[test]
    fn regions_merge() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100);
        m.map(0x1100, 0x100);
        m.map(0x10c0, 0x100); // Overlaps both.
        assert_eq!(m.regions().collect::<Vec<_>>(), vec![(0x1000, 0x1200)]);
    }

    #[test]
    fn range_mapping_checks_span_regions() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000);
        m.map(0x2000, 0x1000); // Merged: 0x1000..0x3000.
        assert!(m.is_range_mapped(0x1ff0, 0x20));
        assert!(!m.is_range_mapped(0x2ff0, 0x20));
        assert!(m.is_range_mapped(0x2ff0, 0x10));
        assert!(!m.is_range_mapped(0xfff, 1));
        assert!(m.is_range_mapped(0x5000, 0), "empty range is trivially mapped");
    }

    #[test]
    fn unmap_splits_regions_and_clears_pages() {
        let mut m = Memory::new();
        m.map(0x1000, 0x3000);
        m.write_u8(0x2000, 0xaa).unwrap();
        m.unmap(0x2000, 0x1000);
        assert!(m.is_mapped(0x1fff));
        assert!(!m.is_mapped(0x2000));
        assert!(!m.is_mapped(0x2fff));
        assert!(m.is_mapped(0x3000));
        // Remap: the old page content must be gone.
        m.map(0x2000, 0x1000);
        assert_eq!(m.read_u8(0x2000, AccessKind::Read), Ok(0));
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map(0, 2 * PAGE_SIZE);
        let addr = PAGE_SIZE - 2;
        m.write(addr, 4, 0x1122_3344).unwrap();
        assert_eq!(m.read(addr, 4, AccessKind::Read), Ok(0x1122_3344));
    }

    #[test]
    fn write_bytes_and_read_bytes() {
        let mut m = Memory::new();
        m.map(0x100, 0x100);
        m.write_bytes(0x100, b"hello").unwrap();
        assert_eq!(m.read_bytes(0x100, 5).unwrap(), b"hello");
        assert!(m.write_bytes(0x1fd, b"xyzw").is_err(), "tail crosses the boundary");
    }

    #[test]
    fn code_region_writes_bump_the_generation() {
        let mut m = Memory::new();
        m.map(0x1000, 0x2000);
        let g0 = m.code_generation();
        m.write_u8(0x1004, 1).unwrap(); // No region declared yet: no bump.
        assert_eq!(m.code_generation(), g0);
        m.set_code_region(0x1000, 0x1000);
        let g1 = m.code_generation();
        assert!(g1 > g0, "declaring the region invalidates older caches");
        m.write_u8(0x2800, 0xff).unwrap(); // Data write: stable.
        assert_eq!(m.code_generation(), g1);
        m.write_u8(0x1ffc, 0xff).unwrap(); // Code write: invalidates.
        assert!(m.code_generation() > g1);
        let g2 = m.code_generation();
        m.write(0x1ffe, 4, 0).unwrap(); // Straddles the region boundary.
        assert_eq!(m.code_generation(), g2 + 2, "two of four bytes land inside");
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.map(0, PAGE_SIZE);
        a.write_u8(0, 1).unwrap();
        let mut b = a.clone();
        b.write_u8(0, 2).unwrap();
        assert_eq!(a.read_u8(0, AccessKind::Read), Ok(1));
        assert_eq!(b.read_u8(0, AccessKind::Read), Ok(2));
    }
}
