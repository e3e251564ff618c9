//! Kernel API implementations and the export dispatcher.
//!
//! Every function here is the concrete semantics of one kernel export. The
//! driver's view is Windows-shaped: out-parameters through guest memory,
//! NTSTATUS-style return codes, handles that are opaque pointers. Misuse
//! that crashes or hangs real Windows crashes this kernel too
//! ([`KernelState::bug_check`]): freeing a bad pointer, arming an
//! uninitialized timer, sleeping at raised IRQL, paged allocations at
//! dispatch level, releasing a lock that is not held.
//!
//! Calling convention: arguments in `r0`–`r3`, result in `r0`.

use crate::host::{Host, HostError};
use crate::state::{
    FaultFamily, //
    InterruptRegistration,
    Irql,
    KernelEvent,
    KernelState,
    MiniportTable,
    PoolAlloc,
    ResourceKind,
    SpinLockState,
    TimerState,
};
use crate::{
    exports, //
    Kernel,
    BUGCHECK_BAD_TIMER,
    BUGCHECK_FAULT,
    BUGCHECK_IRQL,
    BUGCHECK_SPINLOCK,
    STATUS_FAILURE,
    STATUS_RESOURCES,
    STATUS_SUCCESS,
};

/// Dispatches one kernel export invocation.
pub fn dispatch(k: &mut Kernel, export: u16, host: &mut dyn Host) {
    if let Err(HostError { addr }) = call(k, export, host) {
        let name = exports::export_name(export).unwrap_or("<unknown>");
        k.state.bug_check(
            BUGCHECK_FAULT,
            format!("kernel fault in {name}: driver passed inaccessible pointer {addr:#x}"),
        );
    }
}

fn call(k: &mut Kernel, export: u16, host: &mut dyn Host) -> Result<(), HostError> {
    let s = &mut k.state;
    match export {
        0 => ke_bug_check_ex(s, host),
        1 => {
            let v = s.irql.level() as u32;
            host.set_ret(v);
            Ok(())
        }
        2 => ke_raise_irql(s, host),
        3 => ke_lower_irql(s, host),
        4 => {
            let us = host.arg(0);
            s.now_us += us as u64;
            host.set_ret(0);
            Ok(())
        }
        5 => ex_allocate_pool_with_tag(s, host),
        6 => ex_free_pool_with_tag(s, host),
        7 => rtl_zero_memory(s, host),
        8 => rtl_copy_memory(s, host),
        9 => {
            let out = host.arg(0);
            let now = s.now_us as u32;
            host.write_u32(out, now)?;
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        20 => ndis_m_register_miniport(s, host),
        21 => ndis_open_configuration(s, host),
        22 => ndis_read_configuration(s, host),
        23 => ndis_close_configuration(s, host),
        24 => ndis_allocate_memory_with_tag(s, host),
        25 => ndis_free_memory(s, host),
        26 => ndis_allocate_spin_lock(s, host),
        27 => ndis_free_spin_lock(s, host),
        28 => ndis_acquire_spin_lock(s, host, false),
        29 => ndis_release_spin_lock(s, host, false),
        30 => ndis_acquire_spin_lock(s, host, true),
        31 => ndis_release_spin_lock(s, host, true),
        32 => ndis_m_register_interrupt(s, host),
        33 => ndis_m_deregister_interrupt(s, host),
        34 => ndis_m_initialize_timer(s, host),
        35 => ndis_m_set_timer(s, host),
        36 => ndis_m_cancel_timer(s, host),
        37 => {
            // NdisMSetAttributesEx(handle, ctx, hang_check_ms, flags).
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        38 => ndis_m_map_io_space(s, host),
        39 => ndis_m_register_io_port_range(s, host),
        40 => ndis_allocate_packet_pool(s, host),
        41 => ndis_free_packet_pool(s, host),
        42 => ndis_allocate_packet(s, host),
        43 => ndis_free_packet(s, host),
        44 => ndis_allocate_buffer_pool(s, host),
        45 => ndis_free_buffer_pool(s, host),
        46 => ndis_allocate_buffer(s, host),
        47 => ndis_free_buffer(s, host),
        48 => ndis_m_indicate_receive_packet(s, host),
        49 => {
            // NdisMSendComplete(handle, packet, status).
            let pkt = host.arg(1);
            s.completed_sends.push(pkt);
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        50 => {
            // NdisMIndicateStatus(handle, status, buf, len): log-only.
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        51 => ndis_read_pci_slot_information(s, host),
        52 => ndis_m_sleep(s, host),
        53 => ndis_read_network_address(s, host),
        60 => ndis_m_register_miniport(s, host), // PcRegisterAdapter: same shape.
        61 => pc_new_interrupt_sync(s, host),
        62 | 64 => {
            // PcRegisterSubdevice / PcUnregisterSubdevice: bookkeeping only.
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        63 => pc_new_dma_channel(s, host),
        65 => pc_free_dma_channel(s, host),
        66 => {
            // PcDisconnectInterrupt(sync_obj): stop interrupt delivery.
            let obj = host.arg(0);
            s.interrupt = None;
            s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Interrupt, handle: obj });
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        67 => io_register_plug_play_notification(s, host),
        68 => {
            // IoGetDevicePowerState(out_ptr): writes 0 for D0, 3 for D3.
            let out = host.arg(0);
            let v = match s.power {
                crate::state::DevicePowerState::D0 => 0,
                crate::state::DevicePowerState::D3 => 3,
            };
            host.write_u32(out, v)?;
            host.set_ret(STATUS_SUCCESS);
            Ok(())
        }
        69 => {
            // IoIsDeviceRemoved(): TRUE once the device is gone.
            host.set_ret(!s.device_present as u32);
            Ok(())
        }
        other => {
            s.bug_check(BUGCHECK_FAULT, format!("call to unknown kernel export {other}"));
            Ok(())
        }
    }
}

// ---- Ke/Ex -----------------------------------------------------------------

fn ke_bug_check_ex(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let code = host.arg(0);
    s.bug_check(code, format!("driver called KeBugCheckEx({code:#x})"));
    Ok(())
}

fn irql_from_level(level: u32) -> Irql {
    match level {
        0..=1 => Irql::Passive,
        2..=4 => Irql::Dispatch,
        _ => Irql::Device,
    }
}

fn ke_raise_irql(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let new = irql_from_level(host.arg(0));
    let old = s.irql;
    if new < old {
        s.bug_check(BUGCHECK_IRQL, format!("KeRaiseIrql to lower level ({old:?} -> {new:?})"));
        return Ok(());
    }
    s.irql = new;
    s.log(KernelEvent::IrqlChange { from: old, to: new });
    host.set_ret(old.level() as u32);
    Ok(())
}

fn ke_lower_irql(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let new = irql_from_level(host.arg(0));
    let old = s.irql;
    if new > old {
        s.bug_check(BUGCHECK_IRQL, format!("KeLowerIrql to higher level ({old:?} -> {new:?})"));
        return Ok(());
    }
    s.irql = new;
    s.log(KernelEvent::IrqlChange { from: old, to: new });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ex_allocate_pool_with_tag(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let pool_type = host.arg(0);
    let size = host.arg(1);
    let tag = host.arg(2);
    let paged = pool_type == 1;
    if paged && s.irql >= Irql::Dispatch {
        // DDT default check: pageable memory at raised IRQL (§2 bug list).
        s.bug_check(
            BUGCHECK_IRQL,
            "ExAllocatePoolWithTag(PagedPool) at DISPATCH_LEVEL or above",
        );
        return Ok(());
    }
    if s.take_fault(FaultFamily::PoolAlloc) {
        host.set_ret(0);
        return Ok(());
    }
    match s.heap_alloc(size) {
        Some(addr) => {
            host.map_region(addr, size.max(1).next_multiple_of(16));
            s.pool.insert(addr, PoolAlloc { addr, size, tag, paged });
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::PoolMemory,
                handle: addr,
                size,
            });
            host.set_ret(addr);
        }
        None => host.set_ret(0),
    }
    Ok(())
}

fn ex_free_pool_with_tag(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let ptr = host.arg(0);
    free_pool(s, host, ptr, "ExFreePoolWithTag")
}

fn free_pool(
    s: &mut KernelState,
    host: &mut dyn Host,
    ptr: u32,
    api: &str,
) -> Result<(), HostError> {
    match s.pool.remove(&ptr) {
        Some(alloc) => {
            host.unmap_region(ptr, alloc.size.max(1).next_multiple_of(16));
            s.log(KernelEvent::ResourceReleased { kind: ResourceKind::PoolMemory, handle: ptr });
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            s.bug_check(BUGCHECK_FAULT, format!("{api}: freeing invalid pool pointer {ptr:#x}"));
        }
    }
    Ok(())
}

fn rtl_zero_memory(_s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let ptr = host.arg(0);
    let len = host.arg(1).min(1 << 20);
    for i in 0..len {
        host.mem_write(ptr.wrapping_add(i), 1, 0)?;
    }
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn rtl_copy_memory(_s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let dst = host.arg(0);
    let src = host.arg(1);
    let len = host.arg(2).min(1 << 20);
    for i in 0..len {
        let b = host.mem_read(src.wrapping_add(i), 1)?;
        host.mem_write(dst.wrapping_add(i), 1, b)?;
    }
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

// ---- NDIS ------------------------------------------------------------------

fn ndis_m_register_miniport(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let table_ptr = host.arg(0);
    let mut words = [0u32; 10];
    for (i, w) in words.iter_mut().enumerate() {
        *w = host.read_u32(table_ptr + 4 * i as u32)?;
    }
    s.miniport = Some(MiniportTable::from_words(&words));
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

/// Base value for configuration handles (opaque to drivers).
const CONFIG_HANDLE_BASE: u32 = 0xC0F0_0000;

fn ndis_open_configuration(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let status_ptr = host.arg(0);
    let handle_ptr = host.arg(1);
    if s.take_fault(FaultFamily::Registry) {
        // Failure path: the handle out-parameter is NULL. Drivers that use
        // it without checking the status pass an invalid handle to the
        // configuration APIs — a bug check.
        host.write_u32(status_ptr, STATUS_FAILURE)?;
        host.write_u32(handle_ptr, 0)?;
        host.set_ret(STATUS_FAILURE);
        return Ok(());
    }
    let handle = CONFIG_HANDLE_BASE + s.config_handles.len() as u32;
    s.config_handles.insert(handle, true);
    s.log(KernelEvent::ResourceAcquired {
        kind: ResourceKind::ConfigHandle,
        handle,
        size: 0,
    });
    host.write_u32(status_ptr, STATUS_SUCCESS)?;
    host.write_u32(handle_ptr, handle)?;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_read_configuration(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let status_ptr = host.arg(0);
    let value_ptr = host.arg(1);
    let handle = host.arg(2);
    let name_ptr = host.arg(3);
    if s.config_handles.get(&handle) != Some(&true) {
        s.bug_check(
            BUGCHECK_FAULT,
            format!("NdisReadConfiguration with closed or invalid handle {handle:#x}"),
        );
        return Ok(());
    }
    if s.take_fault(FaultFamily::Registry) {
        host.write_u32(status_ptr, STATUS_FAILURE)?;
        host.set_ret(STATUS_FAILURE);
        return Ok(());
    }
    let name = host.read_cstr(name_ptr, 64)?;
    match s.registry.get(&name).copied() {
        Some(v) => {
            // PNDIS_CONFIGURATION_PARAMETER: [0] = type (0: integer),
            // [4] = IntegerData.
            host.write_u32(value_ptr, 0)?;
            host.write_u32(value_ptr + 4, v)?;
            host.write_u32(status_ptr, STATUS_SUCCESS)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(status_ptr, STATUS_FAILURE)?;
            host.set_ret(STATUS_FAILURE);
        }
    }
    Ok(())
}

fn ndis_close_configuration(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let handle = host.arg(0);
    match s.config_handles.get_mut(&handle) {
        Some(open @ true) => {
            *open = false;
            s.log(KernelEvent::ResourceReleased {
                kind: ResourceKind::ConfigHandle,
                handle,
            });
            host.set_ret(STATUS_SUCCESS);
        }
        _ => {
            s.bug_check(
                BUGCHECK_FAULT,
                format!("NdisCloseConfiguration on invalid handle {handle:#x}"),
            );
        }
    }
    Ok(())
}

fn ndis_allocate_memory_with_tag(
    s: &mut KernelState,
    host: &mut dyn Host,
) -> Result<(), HostError> {
    let ptr_out = host.arg(0);
    let size = host.arg(1);
    let tag = host.arg(2);
    if s.take_fault(FaultFamily::PoolAlloc) {
        host.write_u32(ptr_out, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    match s.heap_alloc(size) {
        Some(addr) => {
            host.map_region(addr, size.max(1).next_multiple_of(16));
            s.pool.insert(addr, PoolAlloc { addr, size, tag, paged: false });
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::PoolMemory,
                handle: addr,
                size,
            });
            host.write_u32(ptr_out, addr)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(ptr_out, 0)?;
            host.set_ret(STATUS_RESOURCES);
        }
    }
    Ok(())
}

fn ndis_free_memory(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let ptr = host.arg(0);
    free_pool(s, host, ptr, "NdisFreeMemory")
}

fn ndis_allocate_spin_lock(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let lock = host.arg(0);
    s.spinlocks.insert(lock, SpinLockState::new());
    s.log(KernelEvent::ResourceAcquired { kind: ResourceKind::SpinLock, handle: lock, size: 0 });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_free_spin_lock(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let lock = host.arg(0);
    match s.spinlocks.get(&lock) {
        Some(l) if l.held => {
            s.bug_check(BUGCHECK_SPINLOCK, format!("NdisFreeSpinLock on held lock {lock:#x}"));
        }
        Some(_) => {
            s.spinlocks.remove(&lock);
            s.log(KernelEvent::ResourceReleased { kind: ResourceKind::SpinLock, handle: lock });
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            s.bug_check(
                BUGCHECK_SPINLOCK,
                format!("NdisFreeSpinLock on unallocated lock {lock:#x}"),
            );
        }
    }
    Ok(())
}

fn ndis_acquire_spin_lock(
    s: &mut KernelState,
    host: &mut dyn Host,
    dpr: bool,
) -> Result<(), HostError> {
    let lock = host.arg(0);
    let irql = s.irql;
    let Some(l) = s.spinlocks.get_mut(&lock) else {
        s.bug_check(
            BUGCHECK_SPINLOCK,
            format!("spinlock acquire on unallocated lock {lock:#x}"),
        );
        return Ok(());
    };
    if l.held {
        // Same-context re-acquisition spins forever: a deadlock/hang. A
        // real machine wedges; we surface it as a crash-class event.
        s.bug_check(
            BUGCHECK_SPINLOCK,
            format!("deadlock: spinlock {lock:#x} acquired while already held"),
        );
        return Ok(());
    }
    l.held = true;
    l.acquired_dpr = dpr;
    l.acquisitions += 1;
    if !dpr {
        l.saved_irql = irql;
        if irql < Irql::Dispatch {
            s.irql = Irql::Dispatch;
            s.log(KernelEvent::IrqlChange { from: irql, to: Irql::Dispatch });
        }
    }
    s.log(KernelEvent::SpinAcquire { lock, dpr });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_release_spin_lock(
    s: &mut KernelState,
    host: &mut dyn Host,
    dpr: bool,
) -> Result<(), HostError> {
    let lock = host.arg(0);
    let Some(l) = s.spinlocks.get_mut(&lock) else {
        s.bug_check(
            BUGCHECK_SPINLOCK,
            format!("spinlock release on unallocated lock {lock:#x}"),
        );
        return Ok(());
    };
    if !l.held {
        s.bug_check(
            BUGCHECK_SPINLOCK,
            format!("spinlock {lock:#x} released but not held"),
        );
        return Ok(());
    }
    let variant_mismatch = l.acquired_dpr != dpr;
    l.held = false;
    let saved = l.saved_irql;
    if !dpr {
        // Non-Dpr release restores the IRQL saved by a non-Dpr acquire. If
        // the lock was acquired with the Dpr variant, `saved_irql` is stale —
        // this silently corrupts the IRQL, which is exactly the Intel
        // Pro/100 bug of Table 2 ("KeReleaseSpinLock called from DPC").
        let old = s.irql;
        s.irql = saved;
        if old != saved {
            s.log(KernelEvent::IrqlChange { from: old, to: saved });
        }
    }
    s.log(KernelEvent::SpinRelease { lock, dpr, variant_mismatch });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_register_interrupt(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let object = host.arg(0);
    let line = host.arg(2) as u8;
    if s.take_fault(FaultFamily::Registration) {
        host.set_ret(STATUS_FAILURE);
        return Ok(());
    }
    s.interrupt = Some(InterruptRegistration { line, object });
    s.log(KernelEvent::ResourceAcquired {
        kind: ResourceKind::Interrupt,
        handle: object,
        size: 0,
    });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_deregister_interrupt(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let object = host.arg(0);
    s.interrupt = None;
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Interrupt, handle: object });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_initialize_timer(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let timer = host.arg(0);
    let callback = host.arg(2);
    let context = host.arg(3);
    if s.take_fault(FaultFamily::Registration) {
        // The descriptor stays uninitialized; arming it later bug-checks.
        host.set_ret(STATUS_FAILURE);
        return Ok(());
    }
    s.timers.insert(timer, TimerState { initialized: true, callback, context, due: None });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_set_timer(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let timer = host.arg(0);
    let ms = host.arg(1);
    let initialized = s.timers.get(&timer).map(|t| t.initialized).unwrap_or(false);
    s.log(KernelEvent::TimerSet { timer, initialized });
    if !initialized {
        // The RTL8029 race of Table 2 row 3: an interrupt arriving before
        // timer initialization makes the ISR pass an uninitialized timer
        // descriptor to the kernel — BSOD.
        s.bug_check(
            BUGCHECK_BAD_TIMER,
            format!("NdisMSetTimer on uninitialized timer descriptor {timer:#x}"),
        );
        return Ok(());
    }
    let now = s.now_us;
    if let Some(t) = s.timers.get_mut(&timer) {
        t.due = Some(now / 1000 + ms as u64);
    }
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_cancel_timer(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let timer = host.arg(0);
    let cancelled_ptr = host.arg(1);
    let was_armed = s
        .timers
        .get_mut(&timer)
        .map(|t| t.due.take().is_some())
        .unwrap_or(false);
    if cancelled_ptr != 0 {
        host.write_u32(cancelled_ptr, was_armed as u32)?;
    }
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_map_io_space(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let out_ptr = host.arg(0);
    let offset = host.arg(2);
    if s.take_fault(FaultFamily::MapRegisters) {
        host.write_u32(out_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    let va = s.device_mmio_base + offset;
    host.write_u32(out_ptr, va)?;
    s.log(KernelEvent::ResourceAcquired {
        kind: ResourceKind::IoMapping,
        handle: va,
        size: s.device.mmio_len,
    });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_register_io_port_range(
    s: &mut KernelState,
    host: &mut dyn Host,
) -> Result<(), HostError> {
    let out_ptr = host.arg(0);
    let start = host.arg(2);
    let _count = host.arg(3);
    if s.take_fault(FaultFamily::MapRegisters) {
        host.write_u32(out_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    let _ = &s.device;
    host.write_u32(out_ptr, start)?;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

/// Base for packet/buffer pool handles.
const POOL_HANDLE_BASE: u32 = 0xB00C_0000;

fn ndis_allocate_packet_pool(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let status_ptr = host.arg(0);
    let pool_ptr = host.arg(1);
    let descriptors = host.arg(2);
    if s.take_fault(FaultFamily::SharedMemory) {
        host.write_u32(status_ptr, STATUS_RESOURCES)?;
        host.write_u32(pool_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    let handle = POOL_HANDLE_BASE + (s.packet_pools.len() + s.buffer_pools.len()) as u32 * 0x100;
    s.packet_pools.insert(handle, descriptors.max(1));
    s.log(KernelEvent::ResourceAcquired { kind: ResourceKind::Pool, handle, size: descriptors });
    host.write_u32(status_ptr, STATUS_SUCCESS)?;
    host.write_u32(pool_ptr, handle)?;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_free_packet_pool(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let pool = host.arg(0);
    if s.packets.values().any(|&p| p == pool) {
        s.bug_check(
            BUGCHECK_FAULT,
            format!("NdisFreePacketPool {pool:#x} with outstanding packets"),
        );
        return Ok(());
    }
    if s.packet_pools.remove(&pool).is_none() {
        s.bug_check(BUGCHECK_FAULT, format!("NdisFreePacketPool on bad handle {pool:#x}"));
        return Ok(());
    }
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Pool, handle: pool });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_allocate_packet(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let status_ptr = host.arg(0);
    let packet_ptr = host.arg(1);
    let pool = host.arg(2);
    let Some(&cap) = s.packet_pools.get(&pool) else {
        s.bug_check(BUGCHECK_FAULT, format!("NdisAllocatePacket from bad pool {pool:#x}"));
        return Ok(());
    };
    if s.take_fault(FaultFamily::SharedMemory) {
        host.write_u32(status_ptr, STATUS_RESOURCES)?;
        host.write_u32(packet_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    let live = s.packets.values().filter(|&&p| p == pool).count() as u32;
    if live >= cap {
        host.write_u32(status_ptr, STATUS_RESOURCES)?;
        host.write_u32(packet_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    match s.heap_alloc(64) {
        Some(desc) => {
            host.map_region(desc, 64);
            s.packets.insert(desc, pool);
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::Packet,
                handle: desc,
                size: 64,
            });
            host.write_u32(status_ptr, STATUS_SUCCESS)?;
            host.write_u32(packet_ptr, desc)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(status_ptr, STATUS_RESOURCES)?;
            host.write_u32(packet_ptr, 0)?;
            host.set_ret(STATUS_RESOURCES);
        }
    }
    Ok(())
}

fn ndis_free_packet(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let packet = host.arg(0);
    if s.packets.remove(&packet).is_none() {
        s.bug_check(BUGCHECK_FAULT, format!("NdisFreePacket on bad packet {packet:#x}"));
        return Ok(());
    }
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Packet, handle: packet });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_allocate_buffer_pool(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let status_ptr = host.arg(0);
    let pool_ptr = host.arg(1);
    let descriptors = host.arg(2);
    if s.take_fault(FaultFamily::SharedMemory) {
        host.write_u32(status_ptr, STATUS_RESOURCES)?;
        host.write_u32(pool_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    let handle = POOL_HANDLE_BASE
        + 0x0800_0000
        + (s.buffer_pools.len() + s.packet_pools.len()) as u32 * 0x100;
    s.buffer_pools.insert(handle, descriptors.max(1));
    s.log(KernelEvent::ResourceAcquired { kind: ResourceKind::Pool, handle, size: descriptors });
    host.write_u32(status_ptr, STATUS_SUCCESS)?;
    host.write_u32(pool_ptr, handle)?;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_free_buffer_pool(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let pool = host.arg(0);
    if s.buffers.values().any(|&p| p == pool) {
        s.bug_check(
            BUGCHECK_FAULT,
            format!("NdisFreeBufferPool {pool:#x} with outstanding buffers"),
        );
        return Ok(());
    }
    if s.buffer_pools.remove(&pool).is_none() {
        s.bug_check(BUGCHECK_FAULT, format!("NdisFreeBufferPool on bad handle {pool:#x}"));
        return Ok(());
    }
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Pool, handle: pool });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_allocate_buffer(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    // NdisAllocateBuffer(buffer_out_ptr, pool, va, len) -> status.
    let out_ptr = host.arg(0);
    let pool = host.arg(1);
    if !s.buffer_pools.contains_key(&pool) {
        s.bug_check(BUGCHECK_FAULT, format!("NdisAllocateBuffer from bad pool {pool:#x}"));
        return Ok(());
    }
    if s.take_fault(FaultFamily::SharedMemory) {
        host.write_u32(out_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    match s.heap_alloc(32) {
        Some(desc) => {
            host.map_region(desc, 32);
            // Buffer descriptor: [0] = va, [4] = len.
            let va = host.arg(2);
            let len = host.arg(3);
            host.write_u32(desc, va)?;
            host.write_u32(desc + 4, len)?;
            s.buffers.insert(desc, pool);
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::Buffer,
                handle: desc,
                size: 32,
            });
            host.write_u32(out_ptr, desc)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(out_ptr, 0)?;
            host.set_ret(STATUS_RESOURCES);
        }
    }
    Ok(())
}

fn ndis_free_buffer(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let buffer = host.arg(0);
    if s.buffers.remove(&buffer).is_none() {
        s.bug_check(BUGCHECK_FAULT, format!("NdisFreeBuffer on bad buffer {buffer:#x}"));
        return Ok(());
    }
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::Buffer, handle: buffer });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_m_indicate_receive_packet(
    s: &mut KernelState,
    host: &mut dyn Host,
) -> Result<(), HostError> {
    let array_ptr = host.arg(1);
    let count = host.arg(2).min(64);
    for i in 0..count {
        let pkt = host.read_u32(array_ptr + 4 * i)?;
        if !s.packets.contains_key(&pkt) {
            s.bug_check(
                BUGCHECK_FAULT,
                format!("NdisMIndicateReceivePacket with invalid packet {pkt:#x}"),
            );
            return Ok(());
        }
    }
    s.indicated_packets += count;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_read_pci_slot_information(
    s: &mut KernelState,
    host: &mut dyn Host,
) -> Result<(), HostError> {
    // (handle, offset, buf_ptr, len) -> bytes written.
    let offset = host.arg(1);
    let buf_ptr = host.arg(2);
    let len = host.arg(3);
    let bytes = s.device.config_bytes();
    let mut written = 0u32;
    for i in 0..len {
        let src = offset + i;
        if src as usize >= bytes.len() {
            break;
        }
        host.mem_write(buf_ptr + i, 1, bytes[src as usize] as u32)?;
        written += 1;
    }
    host.set_ret(written);
    Ok(())
}

fn ndis_m_sleep(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let us = host.arg(0);
    if s.irql >= Irql::Dispatch {
        s.bug_check(BUGCHECK_IRQL, "NdisMSleep called at DISPATCH_LEVEL or above");
        return Ok(());
    }
    s.now_us += us as u64;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

fn ndis_read_network_address(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    // (status_ptr, buf_ptr /*6 bytes*/, handle) -> status.
    let status_ptr = host.arg(0);
    let buf_ptr = host.arg(1);
    if s.take_fault(FaultFamily::Registry) {
        host.write_u32(status_ptr, STATUS_FAILURE)?;
        host.set_ret(STATUS_FAILURE);
        return Ok(());
    }
    match s.registry.get("NetworkAddress").copied() {
        Some(seed) => {
            for i in 0..6u32 {
                host.mem_write(buf_ptr + i, 1, (seed >> (8 * (i % 4))) & 0xff)?;
            }
            host.write_u32(status_ptr, STATUS_SUCCESS)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(status_ptr, STATUS_FAILURE)?;
            host.set_ret(STATUS_FAILURE);
        }
    }
    Ok(())
}

// ---- WDM PnP / power -------------------------------------------------------

fn io_register_plug_play_notification(
    s: &mut KernelState,
    host: &mut dyn Host,
) -> Result<(), HostError> {
    // IoRegisterPlugPlayNotification(callback, context): the kernel invokes
    // `callback(context, event_code)` on surprise removal (1) and power
    // transitions (2 = enter D3, 3 = re-enter D0). Delivery itself is
    // orchestrated by the executor, like interrupt injection.
    let callback = host.arg(0);
    let context = host.arg(1);
    if callback == 0 {
        s.bug_check(BUGCHECK_FAULT, "IoRegisterPlugPlayNotification with NULL callback");
        return Ok(());
    }
    s.pnp_handler = callback;
    s.pnp_context = context;
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

// ---- Port-class audio ------------------------------------------------------

fn pc_new_interrupt_sync(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let out_ptr = host.arg(0);
    let line = host.arg(2) as u8;
    if s.take_fault(FaultFamily::Registration) {
        host.write_u32(out_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    match s.heap_alloc(32) {
        Some(obj) => {
            host.map_region(obj, 32);
            s.interrupt = Some(InterruptRegistration { line, object: obj });
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::Interrupt,
                handle: obj,
                size: 32,
            });
            host.write_u32(out_ptr, obj)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            // Failure path: out parameter gets NULL; drivers that ignore the
            // status and use the object crash (Ensoniq, Table 2 row 9).
            host.write_u32(out_ptr, 0)?;
            host.set_ret(STATUS_RESOURCES);
        }
    }
    Ok(())
}

fn pc_new_dma_channel(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let out_ptr = host.arg(0);
    let size = host.arg(2).max(16);
    if s.take_fault(FaultFamily::SharedMemory) {
        host.write_u32(out_ptr, 0)?;
        host.set_ret(STATUS_RESOURCES);
        return Ok(());
    }
    match s.heap_alloc(size) {
        Some(buf) => {
            host.map_region(buf, size.next_multiple_of(16));
            s.dma_channels.insert(buf, size);
            s.log(KernelEvent::ResourceAcquired {
                kind: ResourceKind::DmaChannel,
                handle: buf,
                size,
            });
            host.write_u32(out_ptr, buf)?;
            host.set_ret(STATUS_SUCCESS);
        }
        None => {
            host.write_u32(out_ptr, 0)?;
            host.set_ret(STATUS_RESOURCES);
        }
    }
    Ok(())
}

fn pc_free_dma_channel(s: &mut KernelState, host: &mut dyn Host) -> Result<(), HostError> {
    let buf = host.arg(0);
    if s.dma_channels.remove(&buf).is_none() {
        s.bug_check(BUGCHECK_FAULT, format!("PcFreeDmaChannel on bad channel {buf:#x}"));
        return Ok(());
    }
    s.log(KernelEvent::ResourceReleased { kind: ResourceKind::DmaChannel, handle: buf });
    host.set_ret(STATUS_SUCCESS);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MockHost;

    fn kernel() -> Kernel {
        Kernel::new()
    }

    fn b(host: &MockHost) -> u32 {
        host.ret
    }

    #[test]
    fn irql_roundtrip() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        // Raise to dispatch.
        h.args = [2, 0, 0, 0];
        k.invoke(2, &mut h).unwrap();
        assert_eq!(b(&h), 0, "old level was passive");
        assert_eq!(k.state.irql, Irql::Dispatch);
        // Query.
        k.invoke(1, &mut h).unwrap();
        assert_eq!(b(&h), 2);
        // Lower back.
        h.args = [0, 0, 0, 0];
        k.invoke(3, &mut h).unwrap();
        assert_eq!(k.state.irql, Irql::Passive);
        // Lowering "up" crashes.
        let mut k2 = kernel();
        h.args = [5, 0, 0, 0]; // KeLowerIrql(Device) while at Passive.
        assert!(k2.invoke(3, &mut h).is_err(), "KeLowerIrql to a higher level must crash");
    }

    #[test]
    fn pool_alloc_free_cycle() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        h.args = [0, 100, 0x2054_4444, 0]; // NonPaged, 100 bytes.
        k.invoke(5, &mut h).unwrap();
        let ptr = b(&h);
        assert_ne!(ptr, 0);
        assert_eq!(k.state.live_resources(ResourceKind::PoolMemory), 1);
        assert_eq!(h.mapped.len(), 1);
        h.args = [ptr, 0x2054_4444, 0, 0];
        k.invoke(6, &mut h).unwrap();
        assert_eq!(k.state.live_resources(ResourceKind::PoolMemory), 0);
        assert!(h.mapped.is_empty(), "free unmaps");
        // Double free crashes.
        assert!(k.invoke(6, &mut h).is_err());
    }

    #[test]
    fn paged_alloc_at_dispatch_crashes() {
        let mut k = kernel();
        k.state.irql = Irql::Dispatch;
        let mut h = MockHost::new(64);
        h.args = [1, 64, 0, 0]; // PagedPool.
        let e = k.invoke(5, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_IRQL);
    }

    #[test]
    fn configuration_lifecycle_and_leak_visibility() {
        let mut k = kernel();
        k.state.registry.insert("MaximumMulticastList".into(), 16);
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        // Open: status at base, handle at base+4.
        h.args = [base, base + 4, 0, 0];
        k.invoke(21, &mut h).unwrap();
        let handle = h.mem_read(base + 4, 4).unwrap();
        assert_eq!(k.state.live_resources(ResourceKind::ConfigHandle), 1);
        // Read parameter: name string at base+0x40, value struct at base+8.
        h.mem[0x40..0x55].copy_from_slice(b"MaximumMulticastList\0");
        h.args = [base, base + 8, handle, base + 0x40];
        k.invoke(22, &mut h).unwrap();
        assert_eq!(h.mem_read(base + 8 + 4, 4).unwrap(), 16, "IntegerData");
        // Close.
        h.args = [handle, 0, 0, 0];
        k.invoke(23, &mut h).unwrap();
        assert_eq!(k.state.live_resources(ResourceKind::ConfigHandle), 0);
        // Reading on the closed handle crashes.
        h.args = [base, base + 8, handle, base + 0x40];
        assert!(k.invoke(22, &mut h).is_err());
    }

    #[test]
    fn missing_registry_parameter_fails_cleanly() {
        let mut k = kernel();
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        h.args = [base, base + 4, 0, 0];
        k.invoke(21, &mut h).unwrap();
        let handle = h.mem_read(base + 4, 4).unwrap();
        h.mem[0x40..0x48].copy_from_slice(b"NoParam\0");
        h.args = [base, base + 8, handle, base + 0x40];
        k.invoke(22, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_FAILURE);
    }

    #[test]
    fn spinlock_correct_usage() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        let lock = 0x40_1000;
        h.args = [lock, 0, 0, 0];
        k.invoke(26, &mut h).unwrap(); // Allocate.
        k.invoke(28, &mut h).unwrap(); // Acquire.
        assert_eq!(k.state.irql, Irql::Dispatch, "acquire raises IRQL");
        k.invoke(29, &mut h).unwrap(); // Release.
        assert_eq!(k.state.irql, Irql::Passive, "release restores IRQL");
        k.invoke(27, &mut h).unwrap(); // Free.
        assert_eq!(k.state.live_resources(ResourceKind::SpinLock), 0);
    }

    #[test]
    fn dpr_release_mismatch_corrupts_irql() {
        // The Intel Pro/100 bug shape: Dpr-acquire in a DPC, then plain
        // release. IRQL silently drops to the stale saved value.
        let mut k = kernel();
        k.state.irql = Irql::Dispatch;
        k.state.context = crate::state::ExecContext::Dpc;
        let mut h = MockHost::new(64);
        let lock = 0x40_1000;
        h.args = [lock, 0, 0, 0];
        k.invoke(26, &mut h).unwrap();
        k.invoke(30, &mut h).unwrap(); // NdisDprAcquireSpinLock.
        assert_eq!(k.state.irql, Irql::Dispatch);
        k.invoke(29, &mut h).unwrap(); // NdisReleaseSpinLock: WRONG variant.
        assert_eq!(k.state.irql, Irql::Passive, "IRQL corrupted to stale saved value");
        let mismatch = k.state.events.iter().any(|e| {
            matches!(e, KernelEvent::SpinRelease { variant_mismatch: true, .. })
        });
        assert!(mismatch, "the mismatch is visible to checkers");
    }

    #[test]
    fn release_unheld_lock_crashes() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        h.args = [0x40_1000, 0, 0, 0];
        k.invoke(26, &mut h).unwrap();
        let e = k.invoke(29, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_SPINLOCK);
    }

    #[test]
    fn double_acquire_is_deadlock() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        h.args = [0x40_1000, 0, 0, 0];
        k.invoke(26, &mut h).unwrap();
        k.invoke(28, &mut h).unwrap();
        let e = k.invoke(28, &mut h).unwrap_err();
        assert!(e.message.contains("deadlock"), "{}", e.message);
    }

    #[test]
    fn timer_before_init_crashes() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        h.args = [0x40_2000, 100, 0, 0];
        let e = k.invoke(35, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_BAD_TIMER);
    }

    #[test]
    fn timer_lifecycle() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        // Initialize(timer, handle, callback, ctx).
        h.args = [0x40_2000, 0, 0x40_0100, 0x40_3000];
        k.invoke(34, &mut h).unwrap();
        // Set(timer, ms).
        h.args = [0x40_2000, 50, 0, 0];
        k.invoke(35, &mut h).unwrap();
        assert!(k.state.timers[&0x40_2000].due.is_some());
        // Cancel(timer, cancelled_ptr).
        h.args = [0x40_2000, MockHost::BASE, 0, 0];
        k.invoke(36, &mut h).unwrap();
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 1);
        assert!(k.state.timers[&0x40_2000].due.is_none());
    }

    #[test]
    fn miniport_registration_reads_guest_table() {
        let mut k = kernel();
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        for (i, v) in [11u32, 22, 33, 44, 55, 66, 77, 88, 99, 0].iter().enumerate() {
            h.mem_write(base + 4 * i as u32, 4, *v).unwrap();
        }
        h.args = [base, 0, 0, 0];
        k.invoke(20, &mut h).unwrap();
        let t = k.state.miniport.as_ref().unwrap();
        assert_eq!(t.initialize, 11);
        assert_eq!(t.check_for_hang, 99);
        assert_eq!(t.entries().len(), 9);
    }

    #[test]
    fn packet_pool_and_packets() {
        let mut k = kernel();
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        h.args = [base, base + 4, 2, 0];
        k.invoke(40, &mut h).unwrap();
        let pool = h.mem_read(base + 4, 4).unwrap();
        // Two packets fit.
        h.args = [base, base + 8, pool, 0];
        k.invoke(42, &mut h).unwrap();
        let p1 = h.mem_read(base + 8, 4).unwrap();
        k.invoke(42, &mut h).unwrap();
        let p2 = h.mem_read(base + 8, 4).unwrap();
        assert_ne!(p1, 0);
        assert_ne!(p2, 0);
        // Third exhausts the pool.
        k.invoke(42, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_RESOURCES);
        // Freeing the pool with live packets crashes.
        h.args = [pool, 0, 0, 0];
        assert!(k.invoke(41, &mut h).is_err());
        // Clean shutdown in a fresh kernel.
        let mut k2 = kernel();
        h.args = [base, base + 4, 2, 0];
        k2.invoke(40, &mut h).unwrap();
        let pool2 = h.mem_read(base + 4, 4).unwrap();
        h.args = [base, base + 8, pool2, 0];
        k2.invoke(42, &mut h).unwrap();
        let pkt = h.mem_read(base + 8, 4).unwrap();
        h.args = [pkt, 0, 0, 0];
        k2.invoke(43, &mut h).unwrap();
        h.args = [pool2, 0, 0, 0];
        k2.invoke(41, &mut h).unwrap();
        assert_eq!(k2.state.live_resources(ResourceKind::Pool), 0);
    }

    #[test]
    fn pci_descriptor_read() {
        let mut k = kernel();
        k.state.device.vendor_id = 0x8086;
        k.state.device.revision = 7;
        let mut h = MockHost::new(64);
        let base = MockHost::BASE;
        // (handle, offset, buf, len).
        h.args = [0, 0, base, 16];
        k.invoke(51, &mut h).unwrap();
        assert_eq!(h.ret, 16);
        assert_eq!(h.mem_read(base, 2).unwrap(), 0x8086);
        assert_eq!(h.mem_read(base + 4, 1).unwrap(), 7);
        // Offset past the end writes nothing.
        h.args = [0, 20, base, 4];
        k.invoke(51, &mut h).unwrap();
        assert_eq!(h.ret, 0);
    }

    #[test]
    fn sleep_at_dispatch_crashes() {
        let mut k = kernel();
        k.state.irql = Irql::Dispatch;
        let mut h = MockHost::new(64);
        h.args = [1000, 0, 0, 0];
        let e = k.invoke(52, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_IRQL);
    }

    #[test]
    fn interrupt_sync_failure_writes_null() {
        let mut k = kernel();
        k.state.force_alloc_failures = 1;
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 9, 0];
        k.invoke(61, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_RESOURCES);
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 0, "out param is NULL");
        assert!(k.state.interrupt.is_none());
    }

    #[test]
    fn dma_channel_lifecycle() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 4096, 0];
        k.invoke(63, &mut h).unwrap();
        let buf = h.mem_read(MockHost::BASE, 4).unwrap();
        assert_ne!(buf, 0);
        assert_eq!(k.state.live_resources(ResourceKind::DmaChannel), 1);
        h.args = [buf, 0, 0, 0];
        k.invoke(65, &mut h).unwrap();
        assert_eq!(k.state.live_resources(ResourceKind::DmaChannel), 0);
    }

    #[test]
    fn rtl_memory_helpers() {
        let mut k = kernel();
        let mut h = MockHost::new(64);
        let base = MockHost::BASE;
        h.mem_write(base, 4, 0x11223344).unwrap();
        // Copy 4 bytes to base+8.
        h.args = [base + 8, base, 4, 0];
        k.invoke(8, &mut h).unwrap();
        assert_eq!(h.mem_read(base + 8, 4).unwrap(), 0x11223344);
        // Zero the source.
        h.args = [base, 4, 0, 0];
        k.invoke(7, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), 0);
    }

    #[test]
    fn bad_pointer_from_driver_bugchecks() {
        let mut k = kernel();
        let mut h = MockHost::new(16);
        // NdisOpenConfiguration with an out-pointer far outside memory.
        h.args = [0xdead_0000, 0xdead_0004, 0, 0];
        let e = k.invoke(21, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_FAULT);
    }

    #[test]
    fn unknown_export_bugchecks() {
        let mut k = kernel();
        let mut h = MockHost::new(16);
        assert!(k.invoke(999, &mut h).is_err());
    }

    #[test]
    fn ndis_allocate_memory_failure_path() {
        let mut k = kernel();
        k.state.force_alloc_failures = 1;
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 128, 0, 0];
        k.invoke(24, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_RESOURCES);
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 0);
        // And the success path afterwards.
        k.invoke(24, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_SUCCESS);
        assert_ne!(h.mem_read(MockHost::BASE, 4).unwrap(), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::host::MockHost;
    use crate::state::ResourceKind;

    #[test]
    fn buffer_pool_lifecycle_and_bad_handles() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        // Allocate a buffer pool.
        h.args = [base, base + 4, 4, 0];
        k.invoke(44, &mut h).unwrap();
        let pool = h.mem_read(base + 4, 4).unwrap();
        // Allocate a buffer over a virtual range.
        h.args = [base + 8, pool, 0x40_1000, 256];
        k.invoke(46, &mut h).unwrap();
        let buf = h.mem_read(base + 8, 4).unwrap();
        assert_ne!(buf, 0);
        // The descriptor records (va, len).
        assert_eq!(h.mem_read(buf, 4).unwrap(), 0x40_1000);
        assert_eq!(h.mem_read(buf + 4, 4).unwrap(), 256);
        // Pool with outstanding buffers cannot be freed.
        h.args = [pool, 0, 0, 0];
        assert!(k.invoke(45, &mut h).is_err());
        // Free buffer, then the pool.
        let mut k2 = Kernel::new();
        h.args = [base, base + 4, 4, 0];
        k2.invoke(44, &mut h).unwrap();
        let pool2 = h.mem_read(base + 4, 4).unwrap();
        h.args = [base + 8, pool2, 0x40_1000, 64];
        k2.invoke(46, &mut h).unwrap();
        let buf2 = h.mem_read(base + 8, 4).unwrap();
        h.args = [buf2, 0, 0, 0];
        k2.invoke(47, &mut h).unwrap();
        h.args = [pool2, 0, 0, 0];
        k2.invoke(45, &mut h).unwrap();
        assert_eq!(k2.state.live_resources(ResourceKind::Pool), 0);
        // Allocating from a bogus pool crashes.
        let mut k3 = Kernel::new();
        h.args = [base, pool2, 0, 0];
        assert!(k3.invoke(46, &mut h).is_err());
    }

    #[test]
    fn indicate_receive_validates_packets() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        // A bogus packet pointer in the array crashes the kernel.
        h.mem_write(base + 0x10, 4, 0xdead_0000).unwrap();
        h.args = [0, base + 0x10, 1, 0];
        assert!(k.invoke(48, &mut h).is_err());
        // A real packet is accepted.
        let mut k2 = Kernel::new();
        h.args = [base, base + 4, 2, 0];
        k2.invoke(40, &mut h).unwrap();
        let pool = h.mem_read(base + 4, 4).unwrap();
        h.args = [base, base + 8, pool, 0];
        k2.invoke(42, &mut h).unwrap();
        let pkt = h.mem_read(base + 8, 4).unwrap();
        h.mem_write(base + 0x10, 4, pkt).unwrap();
        h.args = [0, base + 0x10, 1, 0];
        k2.invoke(48, &mut h).unwrap();
        assert_eq!(k2.state.indicated_packets, 1);
    }

    #[test]
    fn network_address_from_registry() {
        let mut k = Kernel::new();
        k.state.registry.insert("NetworkAddress".into(), 0x00aa_bbcc);
        let mut h = MockHost::new(64);
        let base = MockHost::BASE;
        h.args = [base, base + 8, 0, 0];
        k.invoke(53, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_SUCCESS);
        assert_eq!(h.mem_read(base + 8, 1).unwrap(), 0xcc, "first MAC byte");
        // Without the parameter, the call fails cleanly.
        let mut k2 = Kernel::new();
        k2.invoke(53, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_FAILURE);
    }

    #[test]
    fn cancel_absent_timer_reports_not_armed() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [0x40_5000, MockHost::BASE, 0, 0];
        k.invoke(36, &mut h).unwrap();
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 0, "nothing was armed");
    }

    #[test]
    fn deregister_interrupt_clears_registration() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [0x40_6000, 0, 9, 0];
        k.invoke(32, &mut h).unwrap();
        assert!(k.state.interrupt.is_some());
        h.args = [0x40_6000, 0, 0, 0];
        k.invoke(33, &mut h).unwrap();
        assert!(k.state.interrupt.is_none());
    }

    #[test]
    fn pc_disconnect_interrupt_stops_delivery() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 6, 0];
        k.invoke(61, &mut h).unwrap(); // PcNewInterruptSync.
        assert!(k.state.interrupt.is_some());
        let obj = h.mem_read(MockHost::BASE, 4).unwrap();
        h.args = [obj, 0, 0, 0];
        k.invoke(66, &mut h).unwrap(); // PcDisconnectInterrupt.
        assert!(k.state.interrupt.is_none());
    }

    #[test]
    fn map_io_space_returns_the_device_window() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 0x40, 0x100];
        k.invoke(38, &mut h).unwrap();
        let va = h.mem_read(MockHost::BASE, 4).unwrap();
        assert_eq!(va, crate::state::DEVICE_MMIO_BASE + 0x40);
    }

    #[test]
    fn stall_advances_virtual_time() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [250, 0, 0, 0];
        k.invoke(4, &mut h).unwrap();
        assert_eq!(k.state.now_us, 250);
    }

    #[test]
    fn injected_registry_fault_fails_open_configuration() {
        let mut k = Kernel::new();
        k.state.inject_fault = Some(FaultFamily::Registry);
        let mut h = MockHost::new(64);
        let base = MockHost::BASE;
        h.args = [base, base + 4, 0, 0];
        k.invoke(21, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_FAILURE);
        assert_eq!(h.mem_read(base + 4, 4).unwrap(), 0, "handle out-param is NULL");
        assert_eq!(k.state.live_resources(ResourceKind::ConfigHandle), 0);
        assert!(k.state.inject_fault.is_none(), "one-shot");
        // The unchecked driver pattern: using the NULL handle bug-checks.
        h.args = [base, base + 8, 0, base + 0x20];
        assert!(k.invoke(22, &mut h).is_err());
    }

    #[test]
    fn injected_registration_fault_leaves_timer_uninitialized() {
        let mut k = Kernel::new();
        k.state.inject_fault = Some(FaultFamily::Registration);
        let mut h = MockHost::new(64);
        h.args = [0x40_2000, 0, 0x40_0100, 0x40_3000];
        k.invoke(34, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_FAILURE);
        assert!(k.state.timers.is_empty());
        // Arming the never-initialized descriptor crashes.
        h.args = [0x40_2000, 50, 0, 0];
        let e = k.invoke(35, &mut h).unwrap_err();
        assert_eq!(e.code, BUGCHECK_BAD_TIMER);
    }

    #[test]
    fn injected_shared_memory_fault_fails_packet_pool() {
        let mut k = Kernel::new();
        k.state.inject_fault = Some(FaultFamily::SharedMemory);
        let mut h = MockHost::new(256);
        let base = MockHost::BASE;
        h.args = [base, base + 4, 2, 0];
        k.invoke(40, &mut h).unwrap();
        assert_eq!(h.mem_read(base, 4).unwrap(), STATUS_RESOURCES);
        assert_eq!(h.mem_read(base + 4, 4).unwrap(), 0);
        // Allocating from the NULL pool handle crashes.
        h.args = [base, base + 8, 0, 0];
        assert!(k.invoke(42, &mut h).is_err());
    }

    #[test]
    fn injected_map_registers_fault_writes_null_mapping() {
        let mut k = Kernel::new();
        k.state.inject_fault = Some(FaultFamily::MapRegisters);
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 0x40, 0x100];
        k.invoke(38, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_RESOURCES);
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 0);
    }

    #[test]
    fn injected_fault_only_fires_on_its_family() {
        let mut k = Kernel::new();
        k.state.inject_fault = Some(FaultFamily::Registration);
        let mut h = MockHost::new(64);
        // A pool allocation is unaffected by an armed Registration fault.
        h.args = [0, 100, 0, 0];
        k.invoke(5, &mut h).unwrap();
        assert_ne!(h.ret, 0);
        assert_eq!(k.state.inject_fault, Some(FaultFamily::Registration));
        // The interrupt registration then fails.
        h.args = [0x40_6000, 0, 9, 0];
        k.invoke(32, &mut h).unwrap();
        assert_eq!(h.ret, STATUS_FAILURE);
        assert!(k.state.interrupt.is_none());
        let injected = k.state.events.iter().any(|e| {
            matches!(e, KernelEvent::FaultInjected { family: FaultFamily::Registration })
        });
        assert!(injected, "consumption is logged");
    }

    #[test]
    fn pnp_notification_registration_and_removal_query() {
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        // Register a PnP callback.
        h.args = [0x40_0200, 0x40_3000, 0, 0];
        k.invoke(67, &mut h).unwrap();
        assert_eq!(k.state.pnp_handler, 0x40_0200);
        assert_eq!(k.state.pnp_context, 0x40_3000);
        // Device still present: IoIsDeviceRemoved reports FALSE.
        k.invoke(69, &mut h).unwrap();
        assert_eq!(h.ret, 0);
        k.state.surprise_remove();
        k.invoke(69, &mut h).unwrap();
        assert_eq!(h.ret, 1);
        // NULL callback bug-checks.
        let mut k2 = Kernel::new();
        h.args = [0, 0, 0, 0];
        assert!(k2.invoke(67, &mut h).is_err());
    }

    #[test]
    fn power_state_query_tracks_transitions() {
        use crate::state::DevicePowerState;
        let mut k = Kernel::new();
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 0, 0];
        k.invoke(68, &mut h).unwrap();
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 0, "D0");
        k.state.set_power(DevicePowerState::D3);
        h.args = [MockHost::BASE, 0, 0, 0];
        k.invoke(68, &mut h).unwrap();
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 3, "D3");
    }

    #[test]
    fn query_system_time_writes_to_guest() {
        let mut k = Kernel::new();
        k.state.now_us = 12345;
        let mut h = MockHost::new(64);
        h.args = [MockHost::BASE, 0, 0, 0];
        k.invoke(9, &mut h).unwrap();
        assert_eq!(h.mem_read(MockHost::BASE, 4).unwrap(), 12345);
    }
}
