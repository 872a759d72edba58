//! Property test for the sparse block store against a flat reference
//! buffer. Absent means zero: the store keeps only blocks holding nonzero
//! data, so after any sequence of zero and nonzero writes (whole blocks
//! or with an unaligned tail, crossing blocks, zeros over data) and
//! `write_zeroes`, every read must equal the reference and the resident
//! block count must equal the reference's nonzero blocks.

use std::rc::Rc;

use nvme::{BlockStore, MediaProfile};
use proptest::prelude::*;
use simcore::SimRuntime;

const BS: usize = 512;
const BLOCKS: u64 = 32;

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
    #[test]
    fn block_store_matches_flat_reference(
        ops in prop::collection::vec(
            ((0u8..4, any::<u8>(), any::<u64>()), 0u64..BLOCKS, 1u64..5, 0usize..2 * BS),
            1..40,
        ),
    ) {
        let rt = SimRuntime::new();
        let store = Rc::new(BlockStore::new(
            rt.handle(),
            MediaProfile::optane(),
            BS as u32,
            BLOCKS,
            7,
        ));
        let mut reference = vec![0u8; BLOCKS as usize * BS];
        for ((kind, seed, pos), slba, blocks, trim) in ops {
            let blocks = blocks.min(BLOCKS - slba);
            let span = slba as usize * BS..(slba + blocks) as usize * BS;
            if kind == 3 {
                let s = store.clone();
                rt.block_on(async move { s.write_zeroes(slba, blocks).await });
                reference[span].fill(0);
            } else {
                // `trim` below one block cuts an unaligned tail off the
                // last block; the untimed path zero-fills the rest of it.
                let len = span.len() - if trim < BS { trim } else { 0 };
                let data = fill(kind, seed, pos, len);
                if len == span.len() {
                    let s = store.clone();
                    let d = data.clone();
                    rt.block_on(async move { s.write(slba, &d).await });
                } else {
                    store.write_raw(slba, &data);
                }
                reference[span.clone()].fill(0);
                reference[span.start..span.start + len].copy_from_slice(&data);
            }
            let mut back = vec![0xEE; reference.len()];
            store.read_raw(0, &mut back);
            let diff = back.iter().zip(&reference).position(|(a, b)| a != b);
            prop_assert!(diff.is_none(), "first difference at byte {diff:?}");
            let nonzero = reference
                .chunks(BS)
                .filter(|block| block.iter().any(|&b| b != 0))
                .count();
            prop_assert_eq!(store.resident_blocks(), nonzero);
        }
    }
}
