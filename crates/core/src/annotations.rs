//! Lightweight API annotations (§3.4.1).
//!
//! The paper's annotations fall in four categories; each maps to a
//! mechanism here:
//!
//! 1. **Concrete-to-symbolic conversion hints** — return values and entry
//!    point arguments: the registry hook below (the paper's
//!    `NdisReadConfiguration_return` example, reproduced almost literally),
//!    the allocation "NULL alternative" fork set, the PCI-descriptor
//!    revision hook, and the entry-argument windows applied by the
//!    exerciser (`oid window`, packet length `<=` original).
//! 2. **Symbolic-to-concrete conversion hints** — API usage rules; these
//!    surface as kernel events (`variant_mismatch` on spinlock release,
//!    IRQL changes) that `checkers` turns into bugs.
//! 3. **Resource allocation hints** — the kernel's `ResourceAcquired`/
//!    `ResourceReleased` events drive the grant set used by the memory
//!    checker; `apply_resource_grants` is that translation.
//! 4. **Kernel crash handler hook** — `KernelState::crash` interception in
//!    the exerciser.
//!
//! The whole set can be disabled ([`Annotations::disabled`]) to reproduce
//! the §5.1 ablation: race/hardware bugs stay findable, leak and
//! segmentation-fault bugs are lost with the coverage.

use std::collections::BTreeSet;

use ddt_expr::Expr;
use ddt_kernel::{export_id, Kernel, KernelEvent, ResourceKind};
use ddt_solver::Solver;
use ddt_symvm::{SymOrigin, SymState};

/// Annotation configuration for one test run.
#[derive(Clone, Debug)]
pub struct Annotations {
    /// Master switch (false = the paper's "default mode, no annotations").
    pub enabled: bool,
    /// Kernel exports whose allocations get a forked failure alternative.
    pub alloc_failure_apis: BTreeSet<u16>,
    /// Replace successfully-read registry integers with fresh symbols.
    pub registry_symbolic: bool,
    /// Replace the PCI revision byte with a fresh symbol on descriptor
    /// reads (§4.1.4).
    pub pci_revision_symbolic: bool,
    /// Make entry-point arguments symbolic (OIDs within a window, packet
    /// lengths constrained `<=` original, §7 soundness note).
    pub entry_args_symbolic: bool,
    /// OID window half-width: symbolic OIDs range over
    /// `[base, base + oid_window)`.
    pub oid_window: u32,
}

impl Annotations {
    /// The default NDIS + WDM annotation set used in the evaluation.
    pub fn defaults() -> Annotations {
        let alloc_failure_apis = [
            "NdisAllocateMemoryWithTag",
            "ExAllocatePoolWithTag",
            "PcNewInterruptSync",
            "PcNewDmaChannel",
        ]
        .iter()
        .filter_map(|n| export_id(n))
        .collect();
        Annotations {
            enabled: true,
            alloc_failure_apis,
            registry_symbolic: true,
            pci_revision_symbolic: true,
            entry_args_symbolic: true,
            oid_window: 8,
        }
    }

    /// No annotations (the §5.1 ablation). Symbolic hardware and symbolic
    /// interrupts remain active — they are not annotations.
    pub fn disabled() -> Annotations {
        Annotations {
            enabled: false,
            alloc_failure_apis: BTreeSet::new(),
            registry_symbolic: false,
            pci_revision_symbolic: false,
            entry_args_symbolic: false,
            oid_window: 0,
        }
    }

    /// True if calls to `export` should fork a failed-allocation state.
    pub fn wants_failure_fork(&self, export: u16) -> bool {
        self.enabled && self.alloc_failure_apis.contains(&export)
    }
}

/// Runs post-call annotation hooks (concrete-to-symbolic conversions).
///
/// `args` are the argument values the kernel actually read during the call
/// (concretized on demand); hooks only act when the arguments they need
/// were observed.
pub fn post_kernel_call(
    ann: &Annotations,
    st: &mut SymState,
    kernel: &Kernel,
    _solver: &mut Solver,
    export: u16,
    args: &[Option<u32>; 4],
) {
    if !ann.enabled {
        return;
    }
    let _ = kernel;
    // NdisReadConfiguration_return (the paper's worked example): if the
    // call succeeded and the parameter is an integer, replace IntegerData
    // with a fresh non-negative symbolic integer.
    if Some(export) == export_id("NdisReadConfiguration") && ann.registry_symbolic {
        let (Some(status_ptr), Some(value_ptr)) = (args[0], args[1]) else { return };
        let status = st.mem.read(status_ptr, 4);
        if status.as_const() != Some(0) {
            return; // The read failed; nothing to symbolicate.
        }
        let name = read_cstr(st, args[3].unwrap_or(0));
        let sym = st.new_symbol(
            format!("registry:{name}"),
            SymOrigin::Registry { name },
            32,
        );
        // `if (symb >= 0) ... else ddt_discard_state()`: keep only the
        // non-negative half, as the annotation in §3.4.1 does.
        st.add_constraint(Expr::constant(0, 32).sle(&sym));
        st.mem.write(value_ptr + 4, 4, &sym);
    }
    // Descriptor reads: make the hardware revision byte symbolic so the
    // driver's stepping-dependent paths are explored (§4.1.4).
    if Some(export) == export_id("NdisReadPciSlotInformation") && ann.pci_revision_symbolic {
        let (Some(offset), Some(buf), Some(len)) = (args[1], args[2], args[3]) else {
            return;
        };
        const REVISION_OFFSET: u32 = 4;
        if offset <= REVISION_OFFSET && REVISION_OFFSET < offset + len {
            let sym = st.new_symbol(
                "pci:revision",
                SymOrigin::Annotation { api: "NdisReadPciSlotInformation".into() },
                8,
            );
            st.mem.write_byte(buf + (REVISION_OFFSET - offset), sym);
        }
    }
}

/// Translates kernel resource events into memory-checker grants (the
/// resource allocation hints of §3.4.1).
pub fn apply_resource_grants(st: &mut SymState, events: &[KernelEvent]) {
    for ev in events {
        match ev {
            KernelEvent::ResourceAcquired { kind, handle, size } if *size > 0 => {
                let label = match kind {
                    ResourceKind::PoolMemory => "pool alloc",
                    ResourceKind::Packet => "packet descriptor",
                    ResourceKind::Buffer => "buffer descriptor",
                    ResourceKind::DmaChannel => "dma buffer",
                    ResourceKind::Interrupt => "interrupt object",
                    _ => continue,
                };
                st.grants.grant(*handle, size.max(&16).next_multiple_of(16), label);
            }
            KernelEvent::ResourceReleased { kind, handle } => {
                if matches!(
                    kind,
                    ResourceKind::PoolMemory
                        | ResourceKind::Packet
                        | ResourceKind::Buffer
                        | ResourceKind::DmaChannel
                ) {
                    st.grants.revoke_at(*handle);
                }
            }
            _ => {}
        }
    }
}

fn read_cstr(st: &mut SymState, addr: u32) -> String {
    let mut out = String::new();
    for i in 0..64 {
        if !st.mem.is_mapped(addr + i) {
            break;
        }
        match st.mem.read_byte(addr + i).as_const() {
            Some(0) | None => break,
            Some(b) => out.push(b as u8 as char),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddt_symvm::{SymCounter, TraceEvent};

    #[test]
    fn defaults_cover_the_allocators() {
        let a = Annotations::defaults();
        assert!(a.wants_failure_fork(export_id("NdisAllocateMemoryWithTag").unwrap()));
        assert!(a.wants_failure_fork(export_id("ExAllocatePoolWithTag").unwrap()));
        assert!(!a.wants_failure_fork(export_id("NdisMSleep").unwrap()));
        assert!(!Annotations::disabled().wants_failure_fork(5));
    }

    #[test]
    fn registry_hook_symbolicates_integer_data() {
        let ann = Annotations::defaults();
        let mut st = SymState::new(SymCounter::new());
        st.mem.map(0x1000, 0x100);
        // status at 0x1000 (success), value struct at 0x1010, name at 0x1040.
        st.mem.write_concrete_bytes(0x1000, &0u32.to_le_bytes());
        st.mem.write_concrete_bytes(0x1010 + 4, &8u32.to_le_bytes());
        st.mem.write_concrete_bytes(0x1040, b"MaximumMulticastList\0");
        let mut solver = Solver::new();
        let kernel = Kernel::new();
        post_kernel_call(
            &ann,
            &mut st,
            &kernel,
            &mut solver,
            export_id("NdisReadConfiguration").unwrap(),
            &[Some(0x1000), Some(0x1010), Some(0xc0f0_0000), Some(0x1040)],
        );
        let v = st.mem.read(0x1014, 4);
        assert!(!v.is_const(), "IntegerData replaced with a symbol");
        assert_eq!(st.constraints.len(), 1, "non-negativity constraint added");
        // Provenance label carries the parameter name.
        let syms = v.syms();
        let id = *syms.iter().next().unwrap();
        let (label, _) = st.trace.provenance(&[id])[0].expect("created on this path");
        assert_eq!(label, "registry:MaximumMulticastList");
    }

    #[test]
    fn registry_hook_skips_failed_reads() {
        let ann = Annotations::defaults();
        let mut st = SymState::new(SymCounter::new());
        st.mem.map(0x1000, 0x100);
        st.mem.write_concrete_bytes(0x1000, &0xC000_0001u32.to_le_bytes());
        let mut solver = Solver::new();
        let kernel = Kernel::new();
        post_kernel_call(
            &ann,
            &mut st,
            &kernel,
            &mut solver,
            export_id("NdisReadConfiguration").unwrap(),
            &[Some(0x1000), Some(0x1010), Some(0), Some(0x1040)],
        );
        let created = st.trace.iter_from(0).any(|ev| matches!(ev, TraceEvent::SymCreate { .. }));
        assert!(!created, "no symbol injected on failure");
    }

    #[test]
    fn pci_revision_hook_targets_the_right_byte() {
        let ann = Annotations::defaults();
        let mut st = SymState::new(SymCounter::new());
        st.mem.map(0x2000, 0x20);
        let mut solver = Solver::new();
        let kernel = Kernel::new();
        // Read of 16 bytes from offset 0 into 0x2000: revision is byte 4.
        post_kernel_call(
            &ann,
            &mut st,
            &kernel,
            &mut solver,
            export_id("NdisReadPciSlotInformation").unwrap(),
            &[Some(0), Some(0), Some(0x2000), Some(16)],
        );
        assert!(!st.mem.read_byte(0x2004).is_const());
        assert!(st.mem.read_byte(0x2003).is_const());
    }

    #[test]
    fn resource_events_grant_and_revoke() {
        let mut st = SymState::new(SymCounter::new());
        let events = vec![
            KernelEvent::ResourceAcquired {
                kind: ResourceKind::PoolMemory,
                handle: 0x0100_0000,
                size: 100,
            },
            KernelEvent::ResourceAcquired {
                kind: ResourceKind::ConfigHandle,
                handle: 0xc0f0_0000,
                size: 0,
            },
        ];
        apply_resource_grants(&mut st, &events);
        assert!(st.grants.contains_range(0x0100_0000, 112), "rounded grant");
        assert_eq!(st.grants.len(), 1, "handles without memory are not grants");
        apply_resource_grants(
            &mut st,
            &[KernelEvent::ResourceReleased {
                kind: ResourceKind::PoolMemory,
                handle: 0x0100_0000,
            }],
        );
        assert!(st.grants.is_empty());
    }
}
