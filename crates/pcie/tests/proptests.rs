//! Property tests on fabric invariants: the allocator never hands out
//! overlapping memory, sparse host memory reads like a flat buffer, NTB
//! translation is a consistent bijection over its window, and path
//! lookup is symmetric and stable.

use proptest::prelude::*;

use pcie::ntb::Ntb;
use pcie::topology::{NodeKind, Topology};
use pcie::{DeviceId, DomainAddr, HostId, HostMemory, NodeId, NtbId, PhysAddr, PAGE_SIZE};

/// Pages of DRAM the sparse-memory property writes into.
const PAGES: u64 = 8;

/// Bytes for one generated write: all zeros (`kind` 0), a pattern with no
/// zero byte (1), or zeros with one nonzero byte at `pos % len` (2), which
/// a zero test that skips bytes would miss.
fn fill(kind: u8, seed: u8, pos: u64, len: usize) -> Vec<u8> {
    match kind {
        0 => vec![0; len],
        1 => (0..len).map(|i| (i as u8).wrapping_add(seed) | 1).collect(),
        _ => {
            let mut data = vec![0; len];
            data[pos as usize % len] = seed | 1;
            data
        }
    }
}

proptest! {
    /// Random alloc/free interleavings: live allocations never overlap,
    /// and freeing everything restores the full capacity.
    #[test]
    fn allocator_never_overlaps(ops in prop::collection::vec((0u8..2, 1u64..64), 1..60)) {
        let mut mem = HostMemory::new(HostId(0), 1 << 20); // 256 pages
        let capacity = mem.free_bytes();
        let mut live: Vec<(u64, u64)> = Vec::new(); // (addr, size_pages)
        for (op, pages) in ops {
            if op == 0 {
                // Allocate `pages` pages if possible.
                if let Ok(addr) = mem.alloc(pages * 4096) {
                    let a = addr.as_u64();
                    let len = pages * 4096;
                    for &(b, blen) in &live {
                        prop_assert!(
                            a + len <= b || b + blen <= a,
                            "overlap: [{a:#x},{len:#x}) vs [{b:#x},{blen:#x})"
                        );
                    }
                    live.push((a, len));
                }
            } else if let Some((addr, len)) = live.pop() {
                mem.free(PhysAddr(addr), len);
            }
        }
        // Free the rest; capacity must be fully restored.
        for (addr, len) in live {
            mem.free(PhysAddr(addr), len);
        }
        prop_assert_eq!(mem.free_bytes(), capacity);
    }

    /// Data written at any in-bounds offset reads back exactly, and
    /// neighbouring bytes stay untouched.
    #[test]
    fn memory_write_is_exact_and_contained(
        off in 0u64..8000,
        data in prop::collection::vec(any::<u8>(), 1..300),
    ) {
        let mut mem = HostMemory::new(HostId(0), 1 << 20);
        let seg = mem.alloc(16 << 10).unwrap();
        prop_assume!(off + data.len() as u64 + 1 < (16 << 10));
        // Sentinels on both sides.
        mem.write(seg, &[0xAA]).unwrap();
        let start = seg.offset(1 + off);
        mem.write(start, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read(start, &mut back).unwrap();
        prop_assert_eq!(&back, &data);
        let mut sentinel = [0u8; 1];
        mem.read(seg, &mut sentinel).unwrap();
        prop_assert_eq!(sentinel[0], 0xAA);
    }

    /// `is_zero` agrees with a byte loop for every length up to three
    /// pages and every position of a single (possibly zero) byte.
    #[test]
    fn is_zero_matches_a_byte_loop(
        len in 0usize..3 * PAGE_SIZE as usize + 100,
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut data = vec![0u8; len];
        if len > 0 {
            data[pos % len] = byte;
        }
        prop_assert_eq!(pcie::is_zero(&data), data.iter().all(|&b| b == 0));
    }

    /// Absent means zero: random zero, nonzero and nearly-zero writes,
    /// unaligned and crossing pages, read back exactly like a flat
    /// reference buffer, and a page is materialised exactly when some
    /// write has carried a nonzero byte into it.
    #[test]
    fn sparse_memory_matches_flat_reference(
        ops in prop::collection::vec(
            (0u8..3, 0u64..PAGES * PAGE_SIZE, 1u64..3 * PAGE_SIZE, any::<u8>(), any::<u64>()),
            1..40,
        ),
    ) {
        let mut mem = HostMemory::new(HostId(0), PAGES * PAGE_SIZE);
        let base = mem.alloc(PAGES * PAGE_SIZE).unwrap();
        let mut reference = vec![0u8; (PAGES * PAGE_SIZE) as usize];
        let mut nonzero_pages = [false; PAGES as usize];
        for (kind, off, len, seed, pos) in ops {
            let len = len.min(PAGES * PAGE_SIZE - off) as usize;
            let data = fill(kind, seed, pos, len);
            mem.write(base.offset(off), &data).unwrap();
            let off = off as usize;
            reference[off..off + len].copy_from_slice(&data);
            for (i, _) in data.iter().enumerate().filter(|(_, &b)| b != 0) {
                nonzero_pages[(off + i) / PAGE_SIZE as usize] = true;
            }
            let mut back = vec![0xEE; reference.len()];
            mem.read(base, &mut back).unwrap();
            let diff = back.iter().zip(&reference).position(|(a, b)| a != b);
            prop_assert!(diff.is_none(), "first difference at byte {diff:?}");
            prop_assert_eq!(
                mem.resident_pages(),
                nonzero_pages.iter().filter(|&&p| p).count()
            );
        }
    }

    /// NTB translation preserves in-slot offsets for every programmed slot.
    #[test]
    fn ntb_translation_preserves_offsets(
        slot in 0usize..16,
        offset in 0u64..(1 << 21) - 8,
        dest_base in (1u64 << 32..1u64 << 40).prop_map(|v| v & !0xFFF),
    ) {
        let mut ntb = Ntb::new(NtbId(0), HostId(0), NodeId(0), PhysAddr(0x4000_0000), 1 << 21, 16);
        ntb.program(slot, DomainAddr::new(HostId(1), PhysAddr(dest_base))).unwrap();
        let local = ntb.slot_addr(slot).unwrap().offset(offset);
        let far = ntb.translate(local, 8).unwrap();
        prop_assert_eq!(far.host, HostId(1));
        prop_assert_eq!(far.addr.as_u64(), dest_base + offset);
    }

    /// Path chip-count is symmetric on random connected topologies.
    #[test]
    fn topology_paths_symmetric(edges in prop::collection::vec((0u32..12, 0u32..12), 5..30)) {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    t.add_node(NodeKind::RootComplex(HostId(i as u16)))
                } else if i % 3 == 1 {
                    t.add_node(NodeKind::Switch { label: format!("s{i}") })
                } else {
                    t.add_node(NodeKind::Endpoint(DeviceId(i)))
                }
            })
            .collect();
        // Spanning chain guarantees connectivity, then random extra edges.
        for w in nodes.windows(2) {
            t.link(w[0], w[1]);
        }
        for (a, b) in edges {
            if a != b {
                t.link(nodes[a as usize], nodes[b as usize]);
            }
        }
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let ab = t.chips_between(nodes[i], nodes[j]).unwrap();
                let ba = t.chips_between(nodes[j], nodes[i]).unwrap();
                prop_assert_eq!(ab, ba);
            }
        }
    }
}
