//! Kernel state: everything the mini-OS tracks across driver interactions.
//!
//! The state is a plain `Clone` value so DDT can snapshot it with each
//! forked execution state. Sizes are tiny compared to guest memory, so an
//! eager clone is cheap (guest memory itself is chained-COW in `ddt-symvm`).

use std::collections::BTreeMap;

use ddt_isa::hash::IntMap;
use serde::{Deserialize, Serialize};

/// Interrupt request levels (simplified Windows model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Irql {
    /// Normal thread execution.
    #[default]
    Passive,
    /// Dispatch level: DPCs, spinlocks held.
    Dispatch,
    /// Device interrupt level: ISRs.
    Device,
}

impl Irql {
    /// Numeric level (for comparisons in bug reports).
    pub fn level(self) -> u8 {
        match self {
            Irql::Passive => 0,
            Irql::Dispatch => 2,
            Irql::Device => 5,
        }
    }
}

/// What kind of code the kernel believes is currently running.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecContext {
    /// A normal driver entry point.
    Passive,
    /// A deferred procedure call (timer or interrupt DPC).
    Dpc,
    /// An interrupt service routine.
    Isr,
}

/// Kernel-API families whose acquisitions DDT can fail on demand.
///
/// This generalizes the annotation-driven "NULL alternative" fork (which
/// only covers allocators) to every acquisition-shaped API the kernel
/// exports: the executor arms [`KernelState::inject_fault`] on a forked
/// state, and the next call belonging to that family runs its failure path
/// instead of succeeding. Drivers that ignore the returned status and use
/// the resource anyway surface unchecked-failure bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultFamily {
    /// Pool allocators (`ExAllocatePoolWithTag`, `NdisAllocateMemoryWithTag`).
    PoolAlloc,
    /// Shared memory: packet/buffer pools, packet/buffer descriptors, DMA
    /// channels.
    SharedMemory,
    /// I/O space mappings and port-range registrations.
    MapRegisters,
    /// Interrupt and timer registration.
    Registration,
    /// Registry/configuration reads.
    Registry,
    /// Device-lifecycle events: PnP surprise removal and D0/D3 power
    /// transitions. Unlike the acquisition families, these do not fail a
    /// kernel call — they inject a lifecycle event at an execution boundary.
    Lifecycle,
}

impl FaultFamily {
    /// All injectable families.
    pub const ALL: [FaultFamily; 6] = [
        FaultFamily::PoolAlloc,
        FaultFamily::SharedMemory,
        FaultFamily::MapRegisters,
        FaultFamily::Registration,
        FaultFamily::Registry,
        FaultFamily::Lifecycle,
    ];

    /// Human-readable family name for reports.
    pub fn describe(self) -> &'static str {
        match self {
            FaultFamily::PoolAlloc => "pool allocation",
            FaultFamily::SharedMemory => "shared memory allocation",
            FaultFamily::MapRegisters => "I/O mapping",
            FaultFamily::Registration => "interrupt/timer registration",
            FaultFamily::Registry => "registry read",
            FaultFamily::Lifecycle => "device lifecycle",
        }
    }
}

impl std::fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// Maps a kernel export to the fault family it acquires for, if any.
///
/// This is the single source of truth for which exports are fault
/// injectable; the executor consults it when deciding where to fork an
/// injected-failure alternative, and the API implementations consume the
/// armed fault via [`KernelState::take_fault`].
pub fn fault_family(export: u16) -> Option<FaultFamily> {
    match export {
        // ExAllocatePoolWithTag, NdisAllocateMemoryWithTag.
        5 | 24 => Some(FaultFamily::PoolAlloc),
        // NdisAllocatePacketPool, NdisAllocatePacket, NdisAllocateBufferPool,
        // NdisAllocateBuffer, PcNewDmaChannel.
        40 | 42 | 44 | 46 | 63 => Some(FaultFamily::SharedMemory),
        // NdisMMapIoSpace, NdisMRegisterIoPortRange.
        38 | 39 => Some(FaultFamily::MapRegisters),
        // NdisMRegisterInterrupt, NdisMInitializeTimer, PcNewInterruptSync.
        32 | 34 | 61 => Some(FaultFamily::Registration),
        // NdisOpenConfiguration, NdisReadConfiguration,
        // NdisReadNetworkAddress.
        21 | 22 | 53 => Some(FaultFamily::Registry),
        _ => None,
    }
}

/// Device power states (simplified ACPI model: fully on or fully off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DevicePowerState {
    /// Fully powered: registers live, DMA engines may run.
    #[default]
    D0,
    /// Off: register contents are lost; the driver must reprogram the
    /// device on the next D0 transition.
    D3,
}

/// Kinds of driver-held resources the kernel accounts for (leak checking).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Pool memory (`ExAllocatePoolWithTag`, `NdisAllocateMemoryWithTag`).
    PoolMemory,
    /// An open configuration handle.
    ConfigHandle,
    /// An NDIS packet descriptor.
    Packet,
    /// An NDIS buffer descriptor.
    Buffer,
    /// A packet or buffer pool.
    Pool,
    /// A registered interrupt.
    Interrupt,
    /// A spinlock allocation.
    SpinLock,
    /// A DMA channel (audio).
    DmaChannel,
    /// Mapped I/O space.
    IoMapping,
}

/// A live pool allocation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolAlloc {
    /// Guest address of the allocation.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// Allocation tag (for reports).
    pub tag: u32,
    /// True if allocated from paged pool (illegal to touch at dispatch+).
    pub paged: bool,
}

/// A spinlock's runtime state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinLockState {
    /// Currently held.
    pub held: bool,
    /// Whether the current hold was acquired with the `Dpr` variant.
    pub acquired_dpr: bool,
    /// IRQL saved by a non-Dpr acquire (restored by non-Dpr release).
    pub saved_irql: Irql,
    /// Total acquisitions (diagnostics).
    pub acquisitions: u32,
}

impl SpinLockState {
    /// A fresh, unheld lock.
    pub fn new() -> SpinLockState {
        SpinLockState {
            held: false,
            acquired_dpr: false,
            saved_irql: Irql::Passive,
            acquisitions: 0,
        }
    }
}

/// A timer object registered by the driver.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerState {
    /// True once `NdisMInitializeTimer` ran on this descriptor.
    pub initialized: bool,
    /// Driver callback address.
    pub callback: u32,
    /// Driver context argument.
    pub context: u32,
    /// Pending expiry (virtual ms), if armed.
    pub due: Option<u64>,
}

/// A registered interrupt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterruptRegistration {
    /// Interrupt line.
    pub line: u8,
    /// Guest address of the driver's interrupt object.
    pub object: u32,
}

/// The driver's registered entry points (NDIS miniport or audio adapter).
///
/// A zero address means "not provided".
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiniportTable {
    /// Initialize handler.
    pub initialize: u32,
    /// Send / start-playback handler.
    pub send: u32,
    /// QueryInformation / property-get handler.
    pub query_information: u32,
    /// SetInformation / property-set handler.
    pub set_information: u32,
    /// Interrupt service routine.
    pub isr: u32,
    /// HandleInterrupt DPC.
    pub handle_interrupt: u32,
    /// Reset handler.
    pub reset: u32,
    /// Halt / stop handler.
    pub halt: u32,
    /// CheckForHang handler.
    pub check_for_hang: u32,
    /// Timer-style auxiliary callback (audio: stop-DMA).
    pub aux: u32,
}

impl MiniportTable {
    /// Reads a table from ten consecutive guest words.
    pub fn from_words(w: &[u32; 10]) -> MiniportTable {
        MiniportTable {
            initialize: w[0],
            send: w[1],
            query_information: w[2],
            set_information: w[3],
            isr: w[4],
            handle_interrupt: w[5],
            reset: w[6],
            halt: w[7],
            check_for_hang: w[8],
            aux: w[9],
        }
    }

    /// Iterates the named, non-zero entry points.
    pub fn entries(&self) -> Vec<(&'static str, u32)> {
        [
            ("Initialize", self.initialize),
            ("Send", self.send),
            ("QueryInformation", self.query_information),
            ("SetInformation", self.set_information),
            ("Isr", self.isr),
            ("HandleInterrupt", self.handle_interrupt),
            ("Reset", self.reset),
            ("Halt", self.halt),
            ("CheckForHang", self.check_for_hang),
            ("Aux", self.aux),
        ]
        .into_iter()
        .filter(|&(_, a)| a != 0)
        .collect()
    }
}

/// A kernel crash (the BSOD analog).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashInfo {
    /// Bug-check code.
    pub code: u32,
    /// Human-readable description.
    pub message: String,
}

/// Events the kernel logs for DDT's guest-OS-level checkers (§3.1.2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelEvent {
    /// A resource was granted to the driver.
    ResourceAcquired {
        /// Resource class.
        kind: ResourceKind,
        /// Handle or address identifying the resource.
        handle: u32,
        /// Size, if meaningful.
        size: u32,
    },
    /// A resource was released by the driver.
    ResourceReleased {
        /// Resource class.
        kind: ResourceKind,
        /// Handle or address.
        handle: u32,
    },
    /// A spinlock acquire.
    SpinAcquire {
        /// Lock address.
        lock: u32,
        /// Dpr variant?
        dpr: bool,
    },
    /// A spinlock release.
    SpinRelease {
        /// Lock address.
        lock: u32,
        /// Dpr variant?
        dpr: bool,
        /// True if the release variant did not match the acquire variant —
        /// the Intel Pro/100 bug class (Table 2 row 13).
        variant_mismatch: bool,
    },
    /// IRQL changed.
    IrqlChange {
        /// Previous level.
        from: Irql,
        /// New level.
        to: Irql,
    },
    /// A timer was armed.
    TimerSet {
        /// Timer descriptor address.
        timer: u32,
        /// Whether it had been initialized.
        initialized: bool,
    },
    /// An armed fault was consumed: the API call it landed on ran its
    /// failure path instead of succeeding.
    FaultInjected {
        /// The family the fault belonged to.
        family: FaultFamily,
    },
    /// The device was surprise-removed: it is physically gone, every
    /// register read returns all-ones, and the driver must stop touching
    /// hardware.
    DeviceSurpriseRemoved,
    /// The device changed power state.
    PowerTransition {
        /// Previous power state.
        from: DevicePowerState,
        /// New power state.
        to: DevicePowerState,
    },
    /// The kernel crashed.
    Crash(CrashInfo),
}

/// All mutable kernel state.
#[derive(Clone, Debug)]
pub struct KernelState {
    /// Current IRQL.
    pub irql: Irql,
    /// Current execution context (set by the executor when it invokes entry
    /// points, DPCs, and ISRs).
    pub context: ExecContext,
    /// Driver configuration parameters (the registry).
    pub registry: BTreeMap<String, u32>,
    /// Live pool allocations keyed by guest address.
    pub pool: IntMap<u32, PoolAlloc>,
    /// Open configuration handles.
    pub config_handles: IntMap<u32, bool>,
    /// Spinlocks keyed by lock address.
    pub spinlocks: IntMap<u32, SpinLockState>,
    /// Timers keyed by descriptor address.
    pub timers: IntMap<u32, TimerState>,
    /// Registered interrupt, if any.
    pub interrupt: Option<InterruptRegistration>,
    /// Packet pools (handle → capacity).
    pub packet_pools: IntMap<u32, u32>,
    /// Buffer pools (handle → capacity).
    pub buffer_pools: IntMap<u32, u32>,
    /// Live packets (handle → owning pool).
    pub packets: IntMap<u32, u32>,
    /// Live buffers (handle → owning pool).
    pub buffers: IntMap<u32, u32>,
    /// DMA channels (audio).
    pub dma_channels: IntMap<u32, u32>,
    /// Registered entry points.
    pub miniport: Option<MiniportTable>,
    /// Completed sends (handle values passed to `NdisMSendComplete`).
    pub completed_sends: Vec<u32>,
    /// Packets indicated up the stack.
    pub indicated_packets: u32,
    /// Kernel crash, if one occurred.
    pub crash: Option<CrashInfo>,
    /// Event log for checkers.
    pub events: Vec<KernelEvent>,
    /// Virtual time in microseconds.
    pub now_us: u64,
    /// Bump cursor for the kernel heap.
    pub heap_cursor: u32,
    /// Forced failure of the next N allocations (set by DDT's
    /// concrete-to-symbolic annotation forks: the "NULL alternative").
    pub force_alloc_failures: u32,
    /// One-shot armed fault: the next API call of this family fails.
    pub inject_fault: Option<FaultFamily>,
    /// The PnP device descriptor for the loaded device.
    pub device: crate::loader::DeviceDescriptor,
    /// MMIO base the kernel assigned to the device.
    pub device_mmio_base: u32,
    /// Adapter handle value handed to the driver.
    pub adapter_handle: u32,
    /// False once the device has been surprise-removed.
    pub device_present: bool,
    /// Current device power state.
    pub power: DevicePowerState,
    /// Driver PnP-notification callback registered via
    /// `IoRegisterPlugPlayNotification` (0 = none).
    pub pnp_handler: u32,
    /// Context argument for the PnP-notification callback.
    pub pnp_context: u32,
}

/// Kernel heap region start.
pub const HEAP_BASE: u32 = 0x0100_0000;
/// Kernel heap region end.
pub const HEAP_END: u32 = 0x0200_0000;
/// MMIO window the kernel assigns to the device under test.
pub const DEVICE_MMIO_BASE: u32 = 0x8000_0000;

impl Default for KernelState {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelState {
    /// Fresh kernel state.
    pub fn new() -> KernelState {
        KernelState {
            irql: Irql::Passive,
            context: ExecContext::Passive,
            registry: BTreeMap::new(),
            pool: IntMap::default(),
            config_handles: IntMap::default(),
            spinlocks: IntMap::default(),
            timers: IntMap::default(),
            interrupt: None,
            packet_pools: IntMap::default(),
            buffer_pools: IntMap::default(),
            packets: IntMap::default(),
            buffers: IntMap::default(),
            dma_channels: IntMap::default(),
            miniport: None,
            completed_sends: Vec::new(),
            indicated_packets: 0,
            crash: None,
            events: Vec::new(),
            now_us: 0,
            heap_cursor: HEAP_BASE,
            force_alloc_failures: 0,
            inject_fault: None,
            device: crate::loader::DeviceDescriptor::default(),
            device_mmio_base: DEVICE_MMIO_BASE,
            adapter_handle: 0xAD4A_0000,
            device_present: true,
            power: DevicePowerState::D0,
            pnp_handler: 0,
            pnp_context: 0,
        }
    }

    /// Marks the device surprise-removed (idempotent; logs on the first
    /// removal only).
    pub fn surprise_remove(&mut self) {
        if self.device_present {
            self.device_present = false;
            self.log(KernelEvent::DeviceSurpriseRemoved);
        }
    }

    /// Transitions the device power state (no-op when already there).
    pub fn set_power(&mut self, to: DevicePowerState) {
        if self.power != to {
            let from = self.power;
            self.power = to;
            self.log(KernelEvent::PowerTransition { from, to });
        }
    }

    /// Resets to a fresh-boot state while keeping the configuration that
    /// outlives one run: the registry and the device descriptor. This is the
    /// concrete-mode recycling shim — the hybrid fuzzer re-runs thousands of
    /// workloads against one loaded image, and rebuilding only the kernel
    /// side (not the VM or the image) is what keeps iterations cheap.
    pub fn reset_for_run(&mut self) {
        let registry = std::mem::take(&mut self.registry);
        let device = self.device.clone();
        *self = KernelState::new();
        self.registry = registry;
        self.device = device;
    }

    /// Records an event.
    pub fn log(&mut self, ev: KernelEvent) {
        self.events.push(ev);
    }

    /// Raises a bug check (records the crash; idempotent — the first crash
    /// wins, like a real kernel halting at the first BSOD).
    pub fn bug_check(&mut self, code: u32, message: impl Into<String>) {
        if self.crash.is_none() {
            let info = CrashInfo { code, message: message.into() };
            self.events.push(KernelEvent::Crash(info.clone()));
            self.crash = Some(info);
        }
    }

    /// Allocates `size` bytes from the kernel heap (16-byte aligned).
    /// Returns `None` when exhausted or when a forced failure is pending.
    pub fn heap_alloc(&mut self, size: u32) -> Option<u32> {
        if self.force_alloc_failures > 0 {
            self.force_alloc_failures -= 1;
            return None;
        }
        let size = size.max(1).next_multiple_of(16);
        let addr = self.heap_cursor;
        if addr.checked_add(size)? > HEAP_END {
            return None;
        }
        self.heap_cursor += size;
        Some(addr)
    }

    /// Consumes the armed fault if it belongs to `family`.
    ///
    /// API implementations call this at the top of their body; a `true`
    /// return means "run your failure path". Consumption is logged so
    /// checkers and the replay verifier can see where the fault landed.
    pub fn take_fault(&mut self, family: FaultFamily) -> bool {
        if self.inject_fault == Some(family) {
            self.inject_fault = None;
            self.log(KernelEvent::FaultInjected { family });
            true
        } else {
            false
        }
    }

    /// Counts live resources of one kind (leak accounting).
    pub fn live_resources(&self, kind: ResourceKind) -> usize {
        match kind {
            ResourceKind::PoolMemory => self.pool.len(),
            ResourceKind::ConfigHandle => self.config_handles.values().filter(|&&o| o).count(),
            ResourceKind::Packet => self.packets.len(),
            ResourceKind::Buffer => self.buffers.len(),
            ResourceKind::Pool => self.packet_pools.len() + self.buffer_pools.len(),
            ResourceKind::Interrupt => self.interrupt.iter().count(),
            ResourceKind::SpinLock => self.spinlocks.len(),
            ResourceKind::DmaChannel => self.dma_channels.len(),
            ResourceKind::IoMapping => 0,
        }
    }

    /// Snapshot of live-resource counts across all kinds.
    pub fn resource_snapshot(&self) -> BTreeMap<ResourceKind, usize> {
        use ResourceKind::*;
        [PoolMemory, ConfigHandle, Packet, Buffer, Pool, Interrupt, SpinLock, DmaChannel]
            .into_iter()
            .map(|k| (k, self.live_resources(k)))
            .collect()
    }

    /// True if any spinlock is currently held.
    pub fn any_lock_held(&self) -> bool {
        self.spinlocks.values().any(|l| l.held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_alloc_bumps_and_aligns() {
        let mut s = KernelState::new();
        let a = s.heap_alloc(10).unwrap();
        let b = s.heap_alloc(1).unwrap();
        assert_eq!(a % 16, 0);
        assert_eq!(b, a + 16);
    }

    #[test]
    fn forced_failures_consume() {
        let mut s = KernelState::new();
        s.force_alloc_failures = 2;
        assert_eq!(s.heap_alloc(8), None);
        assert_eq!(s.heap_alloc(8), None);
        assert!(s.heap_alloc(8).is_some());
    }

    #[test]
    fn bug_check_is_first_wins() {
        let mut s = KernelState::new();
        s.bug_check(1, "first");
        s.bug_check(2, "second");
        assert_eq!(s.crash.as_ref().unwrap().code, 1);
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn resource_snapshot_counts() {
        let mut s = KernelState::new();
        s.pool.insert(0x100, PoolAlloc { addr: 0x100, size: 32, tag: 0, paged: false });
        s.config_handles.insert(1, true);
        s.config_handles.insert(2, false); // Closed: not counted.
        let snap = s.resource_snapshot();
        assert_eq!(snap[&ResourceKind::PoolMemory], 1);
        assert_eq!(snap[&ResourceKind::ConfigHandle], 1);
        assert_eq!(snap[&ResourceKind::Packet], 0);
    }

    #[test]
    fn miniport_table_entries_skip_zero() {
        let t = MiniportTable::from_words(&[1, 2, 0, 0, 5, 0, 0, 0, 0, 0]);
        let names: Vec<&str> = t.entries().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["Initialize", "Send", "Isr"]);
    }

    #[test]
    fn take_fault_is_one_shot_and_family_selective() {
        let mut s = KernelState::new();
        s.inject_fault = Some(FaultFamily::Registration);
        assert!(!s.take_fault(FaultFamily::PoolAlloc), "wrong family leaves it armed");
        assert!(s.take_fault(FaultFamily::Registration));
        assert!(!s.take_fault(FaultFamily::Registration), "consumed");
        assert!(matches!(
            s.events.last(),
            Some(KernelEvent::FaultInjected { family: FaultFamily::Registration })
        ));
    }

    #[test]
    fn fault_family_covers_the_acquisition_exports() {
        assert_eq!(fault_family(5), Some(FaultFamily::PoolAlloc));
        assert_eq!(fault_family(24), Some(FaultFamily::PoolAlloc));
        assert_eq!(fault_family(40), Some(FaultFamily::SharedMemory));
        assert_eq!(fault_family(63), Some(FaultFamily::SharedMemory));
        assert_eq!(fault_family(38), Some(FaultFamily::MapRegisters));
        assert_eq!(fault_family(32), Some(FaultFamily::Registration));
        assert_eq!(fault_family(34), Some(FaultFamily::Registration));
        assert_eq!(fault_family(21), Some(FaultFamily::Registry));
        assert_eq!(fault_family(52), None, "NdisMSleep acquires nothing");
    }

    #[test]
    fn irql_ordering() {
        assert!(Irql::Passive < Irql::Dispatch);
        assert!(Irql::Dispatch < Irql::Device);
        assert_eq!(Irql::Dispatch.level(), 2);
    }

    #[test]
    fn surprise_remove_is_idempotent_and_logged_once() {
        let mut s = KernelState::new();
        assert!(s.device_present);
        s.surprise_remove();
        s.surprise_remove();
        assert!(!s.device_present);
        let removals = s
            .events
            .iter()
            .filter(|e| matches!(e, KernelEvent::DeviceSurpriseRemoved))
            .count();
        assert_eq!(removals, 1);
    }

    #[test]
    fn power_transitions_log_edges_only() {
        let mut s = KernelState::new();
        assert_eq!(s.power, DevicePowerState::D0);
        s.set_power(DevicePowerState::D0); // Already there: silent.
        assert!(s.events.is_empty());
        s.set_power(DevicePowerState::D3);
        s.set_power(DevicePowerState::D0);
        assert_eq!(s.events.len(), 2);
        assert!(matches!(
            s.events[1],
            KernelEvent::PowerTransition { from: DevicePowerState::D3, to: DevicePowerState::D0 }
        ));
    }

    #[test]
    fn lifecycle_family_is_in_all_and_maps_to_no_export() {
        assert!(FaultFamily::ALL.contains(&FaultFamily::Lifecycle));
        for export in 0..128u16 {
            assert_ne!(fault_family(export), Some(FaultFamily::Lifecycle));
        }
    }

    #[test]
    fn reset_for_run_restores_device_presence_and_power() {
        let mut s = KernelState::new();
        s.surprise_remove();
        s.set_power(DevicePowerState::D3);
        s.pnp_handler = 0x4000;
        s.pnp_context = 7;
        s.reset_for_run();
        assert!(s.device_present);
        assert_eq!(s.power, DevicePowerState::D0);
        assert_eq!(s.pnp_handler, 0);
        assert_eq!(s.pnp_context, 0);
    }

    #[test]
    fn reset_for_run_keeps_configuration_only() {
        let mut s = KernelState::new();
        s.registry.insert("MaximumMulticastList".into(), 8);
        s.device.vendor_id = 0x8086;
        // Dirty the run-scoped state.
        s.heap_alloc(64).unwrap();
        s.bug_check(0xdead, "boom");
        s.force_alloc_failures = 3;
        s.indicated_packets = 9;
        s.now_us = 1234;
        s.reset_for_run();
        assert_eq!(s.registry.get("MaximumMulticastList"), Some(&8));
        assert_eq!(s.device.vendor_id, 0x8086);
        assert_eq!(s.heap_cursor, HEAP_BASE);
        assert!(s.crash.is_none());
        assert!(s.events.is_empty());
        assert_eq!(s.force_alloc_failures, 0);
        assert_eq!(s.indicated_packets, 0);
        assert_eq!(s.now_us, 0);
    }
}
