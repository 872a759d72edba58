//! SmartIO service tests over a three-host NTB cluster.

use std::rc::{Rc, Weak};

use pcie::{Fabric, FabricParams, HostId, MmioDevice, NtbId, RegisterFile};
use simcore::SimRuntime;
use smartio::{AccessHints, BorrowMode, SmartIo, SmartIoError};

struct Bed {
    rt: SimRuntime,
    fabric: Fabric,
    smartio: SmartIo,
    hosts: Vec<HostId>,
    #[allow(dead_code)]
    ntbs: Vec<NtbId>,
    dev: smartio::SmartDeviceId,
    /// The device's owner: the fabric only refers to it weakly.
    _regs: Rc<RegisterFile>,
}

/// Three hosts on one cluster switch; a device in host 2's domain.
fn bed() -> Bed {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("cluster");
    let mut hosts = Vec::new();
    let mut ntbs = Vec::new();
    for _ in 0..3 {
        let h = fabric.add_host(64 << 20);
        let n = fabric.add_ntb(h, 1 << 21, 32);
        fabric.link(fabric.ntb_node(n), sw);
        hosts.push(h);
        ntbs.push(n);
    }
    let regs = Rc::new(RegisterFile::new(0x4000));
    let dev_id = fabric.add_device(
        hosts[2],
        fabric.rc_node(hosts[2]),
        &[0x4000],
        Rc::downgrade(&regs) as Weak<dyn MmioDevice>,
    );
    let smartio = SmartIo::new(&fabric);
    let dev = smartio.register_device(dev_id).unwrap();
    Bed {
        rt,
        fabric,
        smartio,
        hosts,
        ntbs,
        dev,
        _regs: regs,
    }
}

#[test]
fn device_discovery_and_identity() {
    let b = bed();
    assert_eq!(b.smartio.devices(), vec![b.dev]);
    assert_eq!(b.smartio.device_host(b.dev).unwrap(), b.hosts[2]);
}

#[test]
fn exclusive_then_shared_borrowing() {
    let b = bed();
    let s = &b.smartio;
    // Manager locks exclusively to initialize.
    s.acquire(b.dev, b.hosts[0], BorrowMode::Exclusive).unwrap();
    assert!(matches!(
        s.acquire(b.dev, b.hosts[1], BorrowMode::Shared),
        Err(SmartIoError::Busy(_))
    ));
    assert!(matches!(
        s.acquire(b.dev, b.hosts[1], BorrowMode::Exclusive),
        Err(SmartIoError::Busy(_))
    ));
    s.release(b.dev, b.hosts[0]).unwrap();
    // Now several clients may share.
    s.acquire(b.dev, b.hosts[0], BorrowMode::Shared).unwrap();
    s.acquire(b.dev, b.hosts[1], BorrowMode::Shared).unwrap();
    assert_eq!(s.borrow_state(b.dev).unwrap(), (None, 2));
    // Exclusive now blocked by shared holders.
    assert!(matches!(
        s.acquire(b.dev, b.hosts[2], BorrowMode::Exclusive),
        Err(SmartIoError::Busy(_))
    ));
    // Releasing by a non-holder is rejected.
    assert!(matches!(
        s.release(b.dev, b.hosts[2]),
        Err(SmartIoError::NotOwner(..))
    ));
}

#[test]
fn hinted_allocation_places_by_reader() {
    let b = bed();
    let s = &b.smartio;
    let cpu = b.hosts[0];
    let sq = s
        .create_segment_hinted(cpu, b.dev, 4096, AccessHints::sq())
        .unwrap();
    let cq = s
        .create_segment_hinted(cpu, b.dev, 4096, AccessHints::cq())
        .unwrap();
    let buf = s
        .create_segment_hinted(cpu, b.dev, 1 << 20, AccessHints::buffer())
        .unwrap();
    assert_eq!(
        s.segment_host(sq).unwrap(),
        b.hosts[2],
        "SQ must land device-side"
    );
    assert_eq!(s.segment_host(cq).unwrap(), cpu, "CQ must stay CPU-side");
    assert_eq!(
        s.segment_host(buf).unwrap(),
        cpu,
        "bounce buffer stays client-local"
    );
}

#[test]
fn cpu_mapping_reaches_remote_segment() {
    let b = bed();
    let s = &b.smartio;
    let seg = s.create_segment(b.hosts[1], 8192).unwrap();
    let map = s.map_for_cpu(b.hosts[0], seg).unwrap();
    assert_eq!(map.region.host, b.hosts[0]);
    // Timed write through the mapping, then verify at the home location.
    let fabric = b.fabric.clone();
    let home = s.segment_region(seg).unwrap();
    b.rt.block_on({
        let fabric = fabric.clone();
        async move {
            fabric
                .cpu_write(
                    map.region.host,
                    map.region.addr.offset(100),
                    b"hello remote",
                )
                .await
                .unwrap();
        }
    });
    b.rt.run();
    let mut out = [0u8; 12];
    fabric
        .mem_read(home.host, home.addr.offset(100), &mut out)
        .unwrap();
    assert_eq!(&out, b"hello remote");
}

#[test]
fn local_mapping_is_direct() {
    let b = bed();
    let s = &b.smartio;
    let seg = s.create_segment(b.hosts[0], 4096).unwrap();
    let map = s.map_for_cpu(b.hosts[0], seg).unwrap();
    assert_eq!(map.region.addr, s.segment_region(seg).unwrap().addr);
}

#[test]
fn dma_window_resolves_addresses_for_device() {
    let b = bed();
    let s = &b.smartio;
    // Segment in host 0; the device (host 2) gets a DMA window to it.
    let seg = s.create_segment(b.hosts[0], 4096).unwrap();
    let win = s.map_for_device(b.dev, seg).unwrap();
    // The bus address must resolve (in the device's domain) to the segment.
    let loc = b.fabric.resolve(b.hosts[2], win.bus_base, 64).unwrap();
    let home = s.segment_region(seg).unwrap();
    match loc {
        pcie::Location::Dram(da) => {
            assert_eq!(da.host, b.hosts[0]);
            assert_eq!(da.addr, home.addr);
        }
        other => panic!("expected DRAM location, got {other:?}"),
    }
}

#[test]
fn dma_window_local_segment_is_identity() {
    let b = bed();
    let s = &b.smartio;
    let seg = s.create_segment(b.hosts[2], 4096).unwrap();
    let win = s.map_for_device(b.dev, seg).unwrap();
    assert_eq!(win.bus_base, s.segment_region(seg).unwrap().addr);
}

#[test]
fn bar_segment_mappable_from_remote_host() {
    let b = bed();
    let s = &b.smartio;
    let bar_seg = s.bar_segment(b.dev, 0).unwrap();
    let map = s.map_for_cpu(b.hosts[0], bar_seg).unwrap();
    // Write a register through the window and read it back.
    let fabric = b.fabric.clone();
    let val = b.rt.block_on(async move {
        fabric
            .cpu_write_u32(map.region.host, map.region.addr.offset(0x20), 0xABCD)
            .await
            .unwrap();
        fabric
            .cpu_read_u32(map.region.host, map.region.addr.offset(0x20))
            .await
            .unwrap()
    });
    assert_eq!(val, 0xABCD);
}

#[test]
fn large_segment_spans_multiple_slots() {
    let b = bed();
    let s = &b.smartio;
    // 8 MiB segment with 2 MiB slots => 4+ consecutive slots.
    let seg = s.create_segment(b.hosts[1], 8 << 20).unwrap();
    let map = s.map_for_cpu(b.hosts[0], seg).unwrap();
    let fabric = b.fabric.clone();
    let home = s.segment_region(seg).unwrap();
    // Touch bytes in the 1st and 4th megabyte through the window.
    b.rt.block_on({
        let fabric = fabric.clone();
        async move {
            fabric
                .cpu_write(map.region.host, map.region.addr.offset(10), b"lo")
                .await
                .unwrap();
            fabric
                .cpu_write(
                    map.region.host,
                    map.region.addr.offset((7 << 20) + 5),
                    b"hi",
                )
                .await
                .unwrap();
        }
    });
    b.rt.run();
    let mut lo = [0u8; 2];
    let mut hi = [0u8; 2];
    fabric
        .mem_read(home.host, home.addr.offset(10), &mut lo)
        .unwrap();
    fabric
        .mem_read(home.host, home.addr.offset((7 << 20) + 5), &mut hi)
        .unwrap();
    assert_eq!(&lo, b"lo");
    assert_eq!(&hi, b"hi");
}

#[test]
fn unmap_frees_lut_slots() {
    let b = bed();
    let s = &b.smartio;
    let seg = s.create_segment(b.hosts[1], 4096).unwrap();
    // Exhaust: each mapping takes >= 1 slot; unmap and remap repeatedly
    // far beyond the 32-slot LUT to prove slots are recycled.
    for _ in 0..100 {
        let map = s.map_for_cpu(b.hosts[0], seg).unwrap();
        s.unmap_cpu(map);
    }
}

#[test]
fn publish_and_lookup_named_segments() {
    let b = bed();
    let s = &b.smartio;
    let seg = s.create_segment(b.hosts[0], 4096).unwrap();
    s.publish("nvme-mgr-meta", seg).unwrap();
    assert_eq!(s.lookup("nvme-mgr-meta").unwrap(), seg);
    assert!(matches!(
        s.lookup("nope"),
        Err(SmartIoError::NameNotFound(_))
    ));
    s.destroy_segment(seg).unwrap();
    assert!(matches!(
        s.lookup("nvme-mgr-meta"),
        Err(SmartIoError::NameNotFound(_))
    ));
}

#[test]
fn host_without_ntb_cannot_map_remote() {
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let h0 = fabric.add_host(16 << 20);
    let h1 = fabric.add_host(16 << 20);
    let s = SmartIo::new(&fabric);
    let seg = s.create_segment(h1, 4096).unwrap();
    assert!(matches!(
        s.map_for_cpu(h0, seg),
        Err(SmartIoError::NoPath { .. })
    ));
}

#[test]
fn alloc_hinted_translates_in_range_buffers() {
    let b = bed();
    let s = &b.smartio;
    // A remote client (host 0) allocates a 16 KiB user buffer for the
    // device in host 2: buffer() hints keep it client-local, and the DMA
    // window is programmed once at allocation time.
    let alloc = s
        .alloc_hinted(b.hosts[0], b.dev, 16 << 10, AccessHints::buffer())
        .unwrap();
    assert_eq!(alloc.region.host, b.hosts[0]);
    // Any in-range sub-slice translates to the matching bus offset...
    let sub = alloc.region.slice(4096, 4096);
    let bus = s.dma_translate(b.dev, sub).unwrap();
    assert_eq!(bus, alloc.bus_base.offset(4096));
    // ...and the bus address resolves, in the device's domain, to the
    // client's memory — the zero-copy invariant.
    let loc = b.fabric.resolve(b.hosts[2], bus, 64).unwrap();
    match loc {
        pcie::Location::Dram(da) => {
            assert_eq!(da.host, b.hosts[0]);
            assert_eq!(da.addr, alloc.region.addr.offset(4096));
        }
        other => panic!("expected DRAM location, got {other:?}"),
    }
}

#[test]
fn dma_translate_rejects_foreign_and_out_of_range_buffers() {
    let b = bed();
    let s = &b.smartio;
    let alloc = s
        .alloc_hinted(b.hosts[0], b.dev, 8192, AccessHints::buffer())
        .unwrap();
    // A plain (unregistered) allocation never translates.
    let plain = b.fabric.alloc(b.hosts[0], 4096).unwrap();
    assert!(s.dma_translate(b.dev, plain).is_none());
    b.fabric.release(plain);
    // A slice running past the end of the registered range is rejected.
    let over = pcie::MemRegion::new(b.hosts[0], alloc.region.addr.offset(4096), 8192);
    assert!(s.dma_translate(b.dev, over).is_none());
    // After free, the registration is gone.
    s.free_hinted(alloc.segment).unwrap();
    assert!(s.dma_translate(b.dev, alloc.region).is_none());
}
