//! A miniature OS kernel with NDIS-flavored and WDM-flavored driver APIs.
//!
//! This crate is the Windows-kernel substrate of DESIGN.md §2. In the paper,
//! DDT runs the *real kernel binary* concretely while the driver executes
//! symbolically; here the kernel is native Rust code that manipulates guest
//! state through the [`Host`] trait — the same role, the same boundary. Both
//! the symbolic executor (`ddt-core`) and the concrete baseline (`ddt-sdv`)
//! implement [`Host`] and dispatch driver → kernel calls into
//! [`Kernel::invoke`].
//!
//! The API surface is deliberately Windows-shaped (names follow the NDIS 5
//! miniport API and the port-class audio API) because the 14 seeded bugs of
//! Table 2 are API-usage bugs: wrong spinlock release variants in DPCs,
//! unclosed configuration handles, unfreed pool allocations, timers armed
//! before initialization, and so on. See `exports` for the numbered export
//! table that driver binaries link against.
//!
//! What the kernel models:
//!
//! - pool allocation with tags and leak accounting ([`state::ResourceKind`]),
//! - spinlocks with IRQL tracking, including the `Dpr` (dispatch-level)
//!   acquire/release variants and their misuse semantics,
//! - the registry (driver configuration parameters),
//! - NDIS packet/buffer pools,
//! - timers and interrupt registration (delivery is orchestrated by the
//!   executor, like DDT asserting the virtual interrupt line, §4.1.4),
//! - PnP device descriptors readable via `NdisReadPciSlotInformation`,
//! - kernel crashes (`KeBugCheckEx` — the BSOD analog) and the consistency
//!   checks that trigger them (wrong-IRQL sleeps, pageable allocations at
//!   dispatch level, arming uninitialized timers).

pub mod api;
pub mod exports;
pub mod host;
pub mod loader;
pub mod state;

pub use exports::{export_id, export_map, export_name, Export};
pub use host::{Host, HostError};
pub use loader::{DeviceDescriptor, EntryInvocation, StackLayout};
pub use state::{
    fault_family, //
    CrashInfo,
    DevicePowerState,
    ExecContext,
    FaultFamily,
    Irql,
    KernelEvent,
    KernelState,
    MiniportTable,
    ResourceKind,
};

/// NDIS_STATUS_SUCCESS.
pub const STATUS_SUCCESS: u32 = 0;
/// NDIS_STATUS_FAILURE.
pub const STATUS_FAILURE: u32 = 0xC000_0001;
/// NDIS_STATUS_RESOURCES (allocation failure).
pub const STATUS_RESOURCES: u32 = 0xC000_009A;
/// NDIS_STATUS_NOT_SUPPORTED (e.g. unknown OID).
pub const STATUS_NOT_SUPPORTED: u32 = 0xC000_00BB;

/// Bug-check code: IRQL_NOT_LESS_OR_EQUAL.
pub const BUGCHECK_IRQL: u32 = 0x0A;
/// Bug-check code: timer used before initialization.
pub const BUGCHECK_BAD_TIMER: u32 = 0xC7;
/// Bug-check code: driver-visible kernel fault (bad pointer passed in).
pub const BUGCHECK_FAULT: u32 = 0x7E;
/// Bug-check code: spinlock released that was not held.
pub const BUGCHECK_SPINLOCK: u32 = 0x81;

/// The kernel: its mutable state plus the API dispatcher.
///
/// `Kernel` is `Clone` — when DDT forks an execution state, the kernel
/// snapshot forks with it ("each execution state consists conceptually of a
/// complete system snapshot", §4.1.2).
#[derive(Clone, Debug)]
pub struct Kernel {
    /// All mutable kernel state.
    pub state: KernelState,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates a kernel with default state.
    pub fn new() -> Kernel {
        Kernel { state: KernelState::new() }
    }

    /// Dispatches a kernel export invocation.
    ///
    /// The driver's registers/memory are reachable through `host`; arguments
    /// follow the DDT-32 calling convention (`r0`–`r3`). On return the
    /// kernel has written the result to `r0` and the host must resume the
    /// driver at its saved link register.
    ///
    /// Returns `Err` with crash info if the call bug-checked the kernel.
    pub fn invoke(&mut self, export: u16, host: &mut dyn Host) -> Result<(), CrashInfo> {
        api::dispatch(self, export, host);
        match &self.state.crash {
            Some(c) => Err(c.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_forks_with_state() {
        let mut a = Kernel::new();
        a.state.registry.insert("NetworkAddress".into(), 7);
        let mut b = a.clone();
        b.state.registry.insert("NetworkAddress".into(), 9);
        assert_eq!(a.state.registry["NetworkAddress"], 7);
        assert_eq!(b.state.registry["NetworkAddress"], 9);
    }
}
