//! Address and page-number types for the simulated machine.
//!
//! The simulator models an x86-64-like virtual memory layout with 4 KiB base
//! pages and 2 MiB huge pages. All types are thin newtype wrappers over `u64`
//! so that virtual addresses, physical addresses, virtual page numbers, and
//! physical frame numbers cannot be mixed up by accident.

use std::fmt;

/// Log2 of the base page size (4 KiB).
pub const BASE_PAGE_SHIFT: u32 = 12;
/// Size of a base page in bytes (4 KiB).
pub const BASE_PAGE_SIZE: u64 = 1 << BASE_PAGE_SHIFT;
/// Log2 of the huge page size (2 MiB).
pub const HUGE_PAGE_SHIFT: u32 = 21;
/// Size of a huge page in bytes (2 MiB).
pub const HUGE_PAGE_SIZE: u64 = 1 << HUGE_PAGE_SHIFT;
/// Number of 4 KiB subpages constituting one 2 MiB huge page (512 on x86-64).
///
/// The paper compensates base-page hotness by this factor: a huge page is
/// `nr_subpages` times more likely to be sampled than a base page (§4.1.2).
pub const NR_SUBPAGES: u64 = HUGE_PAGE_SIZE / BASE_PAGE_SIZE;
/// Size of a cache line in bytes.
pub const CACHE_LINE_SIZE: u64 = 64;

/// Page size selector for mappings, TLB entries, and migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageSize {
    /// A 4 KiB base page.
    Base,
    /// A 2 MiB huge page.
    Huge,
}

impl PageSize {
    /// Returns the page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base => BASE_PAGE_SIZE,
            PageSize::Huge => HUGE_PAGE_SIZE,
        }
    }

    /// Returns the page shift (log2 of the size in bytes).
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base => BASE_PAGE_SHIFT,
            PageSize::Huge => HUGE_PAGE_SHIFT,
        }
    }

    /// Number of page-table levels walked on a TLB miss for this size.
    ///
    /// Huge pages terminate the walk one level early (PMD), which is one of
    /// the two address-translation benefits the paper attributes to them.
    #[inline]
    pub const fn walk_levels(self) -> u32 {
        match self {
            PageSize::Base => 4,
            PageSize::Huge => 3,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base => write!(f, "4KiB"),
            PageSize::Huge => write!(f, "2MiB"),
        }
    }
}

/// A virtual address in the (single) simulated application address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Returns the 4 KiB virtual page containing this address.
    #[inline]
    pub const fn base_page(self) -> VirtPage {
        VirtPage(self.0 >> BASE_PAGE_SHIFT)
    }

    /// Returns the 2 MiB-aligned virtual page that would contain this address.
    #[inline]
    pub const fn huge_page(self) -> VirtPage {
        VirtPage((self.0 >> HUGE_PAGE_SHIFT) << (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT))
    }

    /// Byte offset of this address within its 4 KiB page.
    #[inline]
    pub const fn base_offset(self) -> u64 {
        self.0 & (BASE_PAGE_SIZE - 1)
    }

    /// Byte offset of this address within its 2 MiB page.
    #[inline]
    pub const fn huge_offset(self) -> u64 {
        self.0 & (HUGE_PAGE_SIZE - 1)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

/// A virtual page number, always expressed in 4 KiB units.
///
/// A huge page is identified by the `VirtPage` of its first subpage (which is
/// 512-aligned). Using a single unit for both sizes keeps policy-side metadata
/// maps simple and mirrors how the kernel indexes `struct page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtPage(pub u64);

impl VirtPage {
    /// First byte address of this page.
    #[inline]
    pub const fn addr(self) -> VirtAddr {
        VirtAddr(self.0 << BASE_PAGE_SHIFT)
    }

    /// The containing huge page (512-aligned page number).
    #[inline]
    pub const fn huge_aligned(self) -> VirtPage {
        VirtPage(self.0 & !(NR_SUBPAGES - 1))
    }

    /// Whether this page number is 2 MiB aligned.
    #[inline]
    pub const fn is_huge_aligned(self) -> bool {
        self.0.is_multiple_of(NR_SUBPAGES)
    }

    /// Index of this subpage within its containing huge page (0..512).
    #[inline]
    pub const fn subpage_index(self) -> usize {
        (self.0 & (NR_SUBPAGES - 1)) as usize
    }

    /// The `n`-th page after this one.
    #[inline]
    pub const fn add(self, n: u64) -> VirtPage {
        VirtPage(self.0 + n)
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn{:#x}", self.0)
    }
}

/// A physical address in the simulated machine (global across all tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the cache-line number of this physical address.
    #[inline]
    pub const fn cache_line(self) -> u64 {
        self.0 / CACHE_LINE_SIZE
    }
}

/// A physical frame number in 4 KiB units, global across all tiers.
///
/// Each tier owns a contiguous, disjoint frame range, so the tier of a frame
/// can be recovered from the number alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Frame(pub u64);

impl Frame {
    /// First physical byte address of this frame.
    #[inline]
    pub const fn addr(self) -> PhysAddr {
        PhysAddr(self.0 << BASE_PAGE_SHIFT)
    }

    /// The `n`-th frame after this one.
    #[inline]
    pub const fn add(self, n: u64) -> Frame {
        Frame(self.0 + n)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn{:#x}", self.0)
    }
}

/// Identifier of a memory tier (0 = fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TierId(pub u8);

impl TierId {
    /// The fast (DRAM) tier.
    pub const FAST: TierId = TierId(0);
    /// The capacity (NVM / CXL) tier in two-tier configurations.
    pub const CAPACITY: TierId = TierId(1);
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

// Snapshot codecs: each id type's encoding lives here, once.
memtis_obs::snap_enum!(PageSize { 0 => Base, 1 => Huge });
memtis_obs::snap_struct!(VirtPage(u64));
memtis_obs::snap_struct!(Frame(u64));
memtis_obs::snap_struct!(TierId(u8));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(BASE_PAGE_SIZE, 4096);
        assert_eq!(HUGE_PAGE_SIZE, 2 * 1024 * 1024);
        assert_eq!(NR_SUBPAGES, 512);
        assert_eq!(PageSize::Base.bytes(), 4096);
        assert_eq!(PageSize::Huge.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn walk_levels_favor_huge_pages() {
        assert_eq!(PageSize::Base.walk_levels(), 4);
        assert_eq!(PageSize::Huge.walk_levels(), 3);
    }

    #[test]
    fn virt_addr_page_decomposition() {
        let a = VirtAddr(0x40_2135);
        assert_eq!(a.base_page(), VirtPage(0x402));
        assert_eq!(a.base_offset(), 0x135);
        assert_eq!(a.huge_offset(), 0x40_2135 % HUGE_PAGE_SIZE);
        assert_eq!(a.huge_page(), VirtPage(0x400));
    }

    #[test]
    fn huge_alignment() {
        let p = VirtPage(512 * 3 + 17);
        assert!(!p.is_huge_aligned());
        assert_eq!(p.huge_aligned(), VirtPage(512 * 3));
        assert_eq!(p.subpage_index(), 17);
        assert!(p.huge_aligned().is_huge_aligned());
    }

    #[test]
    fn frame_addressing() {
        let f = Frame(7);
        assert_eq!(f.addr(), PhysAddr(7 * 4096));
        assert_eq!(f.add(2), Frame(9));
        assert_eq!(PhysAddr(128).cache_line(), 2);
    }
}
