//! Per-tier physical frame allocator.
//!
//! Each tier owns a contiguous range of 4 KiB frames, managed in 2 MiB blocks
//! (512 frames). A block is either wholly free (allocatable as one huge
//! frame), allocated as a huge frame, or *split* into base frames with a
//! per-block free bitmap. When every frame of a split block is freed, the
//! block coalesces back into a free huge block.
//!
//! The design mirrors what tiering policies see from the kernel buddy
//! allocator: huge-frame allocations need a fully free block, THP splits
//! convert a used huge block into 512 individually-freeable base frames, and
//! fragmentation can make huge allocations fail while base allocations
//! succeed.

use crate::addr::{Frame, PageSize, TierId, BASE_PAGE_SIZE, NR_SUBPAGES};
use crate::error::{SimError, SimResult};

const WORDS_PER_BITMAP: usize = (NR_SUBPAGES as usize) / 64;

/// State of one 2 MiB block within a tier.
#[derive(Debug, Clone)]
enum BlockState {
    /// The whole block is free and can be handed out as a huge frame.
    FreeHuge,
    /// The block is allocated as one huge frame.
    UsedHuge,
    /// The block is split into base frames; `bitmap` has a set bit per free
    /// frame and `free` counts them.
    Split {
        free: u32,
        bitmap: [u64; WORDS_PER_BITMAP],
    },
}

/// Frame allocator for a single memory tier.
#[derive(Debug)]
pub struct TierAllocator {
    tier: TierId,
    /// First global frame number owned by this tier.
    frame_start: u64,
    /// One past the last frame owned (cached: the block count is fixed at
    /// construction, and `owns` sits on the per-access hot path).
    frame_end: u64,
    /// Number of 2 MiB blocks in this tier.
    blocks: Vec<BlockState>,
    /// Stack of fully-free block indices.
    huge_free: Vec<u32>,
    /// Stack of *candidate* free base frames (may contain stale entries; the
    /// per-block bitmap is the source of truth).
    base_free: Vec<Frame>,
    /// Total free space in 4 KiB frame units.
    free_frames: u64,
}

impl TierAllocator {
    /// Creates an allocator owning `capacity_bytes` (rounded down to whole
    /// huge blocks) starting at global frame `frame_start`.
    pub fn new(tier: TierId, frame_start: u64, capacity_bytes: u64) -> Self {
        let n_blocks = (capacity_bytes / BASE_PAGE_SIZE / NR_SUBPAGES) as usize;
        TierAllocator {
            tier,
            frame_start,
            frame_end: frame_start + n_blocks as u64 * NR_SUBPAGES,
            blocks: vec![BlockState::FreeHuge; n_blocks],
            huge_free: (0..n_blocks as u32).rev().collect(),
            base_free: Vec::new(),
            free_frames: n_blocks as u64 * NR_SUBPAGES,
        }
    }

    /// The tier this allocator serves.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks.len() as u64 * NR_SUBPAGES * BASE_PAGE_SIZE
    }

    /// Currently free space in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free_frames * BASE_PAGE_SIZE
    }

    /// Currently used space in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.capacity_bytes() - self.free_bytes()
    }

    /// Whether `frame` belongs to this tier.
    pub fn owns(&self, frame: Frame) -> bool {
        frame.0 >= self.frame_start && frame.0 < self.frame_end
    }

    /// One past the last frame owned by this tier.
    pub fn frame_end(&self) -> u64 {
        self.frame_end
    }

    fn block_of(&self, frame: Frame) -> usize {
        debug_assert!(self.owns(frame));
        ((frame.0 - self.frame_start) / NR_SUBPAGES) as usize
    }

    fn block_base(&self, block: usize) -> Frame {
        Frame(self.frame_start + block as u64 * NR_SUBPAGES)
    }

    /// Allocates one frame of the given size.
    pub fn alloc(&mut self, size: PageSize) -> SimResult<Frame> {
        match size {
            PageSize::Huge => self.alloc_huge(),
            PageSize::Base => self.alloc_base(),
        }
    }

    /// Frees one frame of the given size.
    pub fn free(&mut self, frame: Frame, size: PageSize) {
        match size {
            PageSize::Huge => self.free_huge(frame),
            PageSize::Base => self.free_base(frame),
        }
    }

    /// Allocates a 2 MiB huge frame (512-frame aligned block).
    pub fn alloc_huge(&mut self) -> SimResult<Frame> {
        while let Some(b) = self.huge_free.pop() {
            // Skip stale entries: only a currently-FreeHuge block is valid.
            if matches!(self.blocks[b as usize], BlockState::FreeHuge) {
                self.blocks[b as usize] = BlockState::UsedHuge;
                self.free_frames -= NR_SUBPAGES;
                return Ok(self.block_base(b as usize));
            }
        }
        Err(SimError::OutOfMemory {
            tier: self.tier,
            size: PageSize::Huge,
        })
    }

    /// Allocates a single 4 KiB base frame, splitting a free huge block if no
    /// split block has a free frame.
    pub fn alloc_base(&mut self) -> SimResult<Frame> {
        while let Some(f) = self.base_free.pop() {
            let b = self.block_of(f);
            let block_base = self.block_base(b).0;
            if let BlockState::Split { free, bitmap } = &mut self.blocks[b] {
                let idx = (f.0 - block_base) as usize;
                let (w, bit) = (idx / 64, idx % 64);
                if bitmap[w] & (1 << bit) != 0 {
                    bitmap[w] &= !(1 << bit);
                    *free -= 1;
                    self.free_frames -= 1;
                    return Ok(f);
                }
            }
            // Stale entry (block coalesced or frame re-allocated): skip.
        }
        // No free base frame: break a whole free huge block.
        let huge = self.alloc_huge()?;
        // Mark the block split with frames 1..512 free; return frame 0.
        let b = self.block_of(huge);
        let mut bitmap = [u64::MAX; WORDS_PER_BITMAP];
        bitmap[0] &= !1;
        self.blocks[b] = BlockState::Split {
            free: (NR_SUBPAGES - 1) as u32,
            bitmap,
        };
        self.free_frames += NR_SUBPAGES - 1;
        for i in (1..NR_SUBPAGES).rev() {
            self.base_free.push(huge.add(i));
        }
        Ok(huge)
    }

    /// Frees a huge frame previously returned by [`TierAllocator::alloc_huge`].
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently allocated as a huge frame.
    pub fn free_huge(&mut self, frame: Frame) {
        let b = self.block_of(frame);
        assert!(
            matches!(self.blocks[b], BlockState::UsedHuge),
            "free_huge on a block that is not UsedHuge"
        );
        self.blocks[b] = BlockState::FreeHuge;
        self.huge_free.push(b as u32);
        self.free_frames += NR_SUBPAGES;
    }

    /// Frees a base frame. Coalesces the block back to a free huge block when
    /// all 512 frames are free.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not currently allocated as a base frame.
    pub fn free_base(&mut self, frame: Frame) {
        let b = self.block_of(frame);
        let base = self.block_base(b);
        let BlockState::Split { free, bitmap } = &mut self.blocks[b] else {
            panic!("free_base on a block that is not split");
        };
        let idx = (frame.0 - base.0) as usize;
        let (w, bit) = (idx / 64, idx % 64);
        assert_eq!(bitmap[w] & (1 << bit), 0, "double free of base frame");
        bitmap[w] |= 1 << bit;
        *free += 1;
        self.free_frames += 1;
        if *free as u64 == NR_SUBPAGES {
            // Coalesce. Stale base_free entries for this block are filtered
            // lazily on pop.
            self.blocks[b] = BlockState::FreeHuge;
            self.huge_free.push(b as u32);
        } else {
            self.base_free.push(frame);
        }
    }

    /// Converts an allocated huge block into 512 allocated base frames
    /// (in-place THP split). No frames are freed; they become individually
    /// freeable afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently allocated as a huge frame.
    pub fn split_used_huge(&mut self, frame: Frame) {
        let b = self.block_of(frame);
        assert!(
            matches!(self.blocks[b], BlockState::UsedHuge),
            "split_used_huge on a block that is not UsedHuge"
        );
        self.blocks[b] = BlockState::Split {
            free: 0,
            bitmap: [0; WORDS_PER_BITMAP],
        };
    }
}

memtis_obs::snap_enum!(BlockState {
    0 => FreeHuge,
    1 => UsedHuge,
    2 => Split { free, bitmap },
});

// The full allocator state, including the lazy free-stack order (stale
// entries and all), so allocation order after restore is bit-identical to
// an uninterrupted run. The frame range is configuration.
memtis_obs::snap_struct!(in TierAllocator {
    blocks,
    huge_free,
    base_free,
    free_frames,
} check TierAllocator::check_snap);

impl TierAllocator {
    fn check_snap(&mut self) -> Result<(), memtis_obs::SnapError> {
        use memtis_obs::SnapError;
        let n_blocks = (self.frame_end - self.frame_start) / NR_SUBPAGES;
        if self.blocks.len() as u64 != n_blocks {
            return Err(SnapError::Corrupt("tier geometry"));
        }
        let split_free_ok = self.blocks.iter().all(|b| match b {
            BlockState::Split { free, .. } => *free as u64 <= NR_SUBPAGES,
            _ => true,
        });
        if !split_free_ok {
            return Err(SnapError::Corrupt("tier split free count"));
        }
        if self.huge_free.iter().any(|&b| b as u64 >= n_blocks) {
            return Err(SnapError::Corrupt("tier huge_free index"));
        }
        if !self.base_free.iter().all(|&f| self.owns(f)) {
            return Err(SnapError::Corrupt("tier base_free frame"));
        }
        if self.free_frames > n_blocks * NR_SUBPAGES {
            return Err(SnapError::Corrupt("tier free_frames"));
        }
        Ok(())
    }
}

/// The tier owning `frame` among `tiers`. A free function so the machine
/// can call it with its other fields borrowed.
///
/// # Panics
///
/// Panics if the frame belongs to no tier.
#[inline]
pub(crate) fn tier_of(tiers: &[TierAllocator], frame: Frame) -> TierId {
    for t in tiers {
        if t.owns(frame) {
            return t.tier();
        }
    }
    panic!("{frame} belongs to no tier");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HUGE_PAGE_SIZE;
    use memtis_obs::SnapFields;

    fn alloc_4blocks() -> TierAllocator {
        TierAllocator::new(TierId::FAST, 1024, 4 * HUGE_PAGE_SIZE)
    }

    #[test]
    fn capacity_and_initial_free() {
        let t = alloc_4blocks();
        assert_eq!(t.capacity_bytes(), 4 * HUGE_PAGE_SIZE);
        assert_eq!(t.free_bytes(), 4 * HUGE_PAGE_SIZE);
        assert!(t.owns(Frame(1024)));
        assert!(t.owns(Frame(1024 + 4 * 512 - 1)));
        assert!(!t.owns(Frame(1024 + 4 * 512)));
        assert!(!t.owns(Frame(0)));
    }

    #[test]
    fn huge_alloc_free_roundtrip() {
        let mut t = alloc_4blocks();
        let f = t.alloc_huge().unwrap();
        assert_eq!(f.0 % 512, 0);
        assert_eq!(t.free_bytes(), 3 * HUGE_PAGE_SIZE);
        t.free_huge(f);
        assert_eq!(t.free_bytes(), 4 * HUGE_PAGE_SIZE);
    }

    #[test]
    fn exhausting_huge_frames() {
        let mut t = alloc_4blocks();
        for _ in 0..4 {
            t.alloc_huge().unwrap();
        }
        assert!(matches!(t.alloc_huge(), Err(SimError::OutOfMemory { .. })));
        assert_eq!(t.free_bytes(), 0);
    }

    #[test]
    fn base_alloc_breaks_huge_block() {
        let mut t = alloc_4blocks();
        let f = t.alloc_base().unwrap();
        assert_eq!(t.free_bytes(), 4 * HUGE_PAGE_SIZE - BASE_PAGE_SIZE);
        // Subsequent base allocations come from the same block.
        let g = t.alloc_base().unwrap();
        assert_eq!(g.0 / 512, f.0 / 512);
        assert_ne!(f, g);
    }

    #[test]
    fn base_frames_coalesce_into_huge() {
        let mut t = TierAllocator::new(TierId::FAST, 0, HUGE_PAGE_SIZE);
        let frames: Vec<Frame> = (0..512).map(|_| t.alloc_base().unwrap()).collect();
        assert_eq!(t.free_bytes(), 0);
        assert!(t.alloc_huge().is_err());
        for f in frames {
            t.free_base(f);
        }
        assert_eq!(t.free_bytes(), HUGE_PAGE_SIZE);
        // The coalesced block is again allocatable as a huge frame.
        assert!(t.alloc_huge().is_ok());
    }

    #[test]
    fn stale_base_entries_are_skipped_after_coalesce() {
        let mut t = TierAllocator::new(TierId::FAST, 0, 2 * HUGE_PAGE_SIZE);
        let a = t.alloc_base().unwrap();
        t.free_base(a); // Block fully free again; stale stack entries remain.
        let h1 = t.alloc_huge().unwrap();
        let h2 = t.alloc_huge().unwrap();
        assert_ne!(h1, h2);
        // Both blocks allocated as huge; base allocation must now fail.
        assert!(t.alloc_base().is_err());
    }

    #[test]
    fn split_used_huge_enables_individual_frees() {
        let mut t = TierAllocator::new(TierId::FAST, 0, HUGE_PAGE_SIZE);
        let h = t.alloc_huge().unwrap();
        t.split_used_huge(h);
        assert_eq!(t.free_bytes(), 0);
        // Free half the subframes; they become allocatable as base frames.
        for i in 0..256 {
            t.free_base(h.add(i));
        }
        assert_eq!(t.free_bytes(), 256 * BASE_PAGE_SIZE);
        let f = t.alloc_base().unwrap();
        assert!(f.0 < 256);
        // Free everything; block coalesces and is huge-allocatable again.
        t.free_base(f);
        for i in 256..512 {
            t.free_base(h.add(i));
        }
        assert!(t.alloc_huge().is_ok());
    }

    #[test]
    fn snap_round_trips_fragmented_state() {
        let mut t = alloc_4blocks();
        let a = t.alloc_base().unwrap();
        let _b = t.alloc_base().unwrap();
        let h = t.alloc_huge().unwrap();
        t.free_base(a);
        t.split_used_huge(h);
        t.free_base(h.add(3));

        let mut w = memtis_obs::SnapWriter::new();
        t.save_fields(&mut w);
        let bytes = w.finish().unwrap();

        let mut u = alloc_4blocks();
        let mut r = memtis_obs::SnapReader::new(&bytes);
        u.load_fields(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(u.free_bytes(), t.free_bytes());
        // Allocation order after restore matches the original exactly.
        for _ in 0..8 {
            assert_eq!(t.alloc_base().ok(), u.alloc_base().ok());
        }
        assert_eq!(t.alloc_huge().ok(), u.alloc_huge().ok());
    }

    #[test]
    fn snap_restore_rejects_wrong_geometry() {
        let t = alloc_4blocks();
        let mut w = memtis_obs::SnapWriter::new();
        t.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut u = TierAllocator::new(TierId::FAST, 1024, 2 * HUGE_PAGE_SIZE);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        assert!(matches!(
            u.load_fields(&mut r),
            Err(memtis_obs::SnapError::Corrupt("tier geometry"))
        ));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_base_panics() {
        let mut t = alloc_4blocks();
        let f = t.alloc_base().unwrap();
        t.free_base(f);
        // Re-freeing after coalescing panics differently; force a split state.
        let g = t.alloc_base().unwrap();
        let _keep = t.alloc_base().unwrap();
        t.free_base(g);
        t.free_base(g);
    }
}
