//! Page-granular physical memory.
//!
//! [`Memory`] stores raw bytes only; *who may touch them* is decided by
//! the [`crate::MemoryController`]. The [`crate::Machine`] composes the
//! two so every read/write is permission-checked, exactly like requests
//! flowing through the north bridge in Figure 1 of the paper.
//!
//! Installed memory is populated lazily, like the guest memory of a
//! micro-VM: a page is allocated on its first write and reads as zeros
//! until then, so a platform costs what its PALs touch, not what it has
//! installed.

use std::collections::BTreeMap;

use crate::error::HwError;
use crate::types::{PageIndex, PhysAddr, PAGE_SIZE};

/// Physical memory: `num_pages` installed pages, of which only the
/// written ones are resident.
#[derive(Clone)]
pub struct Memory {
    num_pages: u32,
    /// Resident pages by index; every other installed page is zero.
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.num_pages)
            .field("bytes", &self.byte_len())
            .field("resident", &self.pages.len())
            .finish()
    }
}

impl Memory {
    /// Installs `num_pages` zeroed pages. Nothing is allocated until a
    /// page is first written.
    pub fn new(num_pages: u32) -> Self {
        Memory {
            num_pages,
            pages: BTreeMap::new(),
        }
    }

    /// Number of installed pages.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Total installed bytes.
    pub fn byte_len(&self) -> u64 {
        self.num_pages as u64 * PAGE_SIZE as u64
    }

    /// Number of pages currently backed by host memory: those written
    /// since they were installed or last erased by [`Memory::zero_page`].
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<(), HwError> {
        let end = addr.0.checked_add(len as u64);
        match end {
            Some(end) if end <= self.byte_len() => Ok(()),
            _ => Err(HwError::AddressOutOfRange { addr }),
        }
    }

    /// Reads `len` bytes starting at `addr` (no permission check — use
    /// [`crate::Machine::read`] for the checked path). Untouched pages
    /// read as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] if the range exceeds
    /// installed memory.
    pub fn read_raw(&self, addr: PhysAddr, len: usize) -> Result<Vec<u8>, HwError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let off = cur.page_offset();
            let take = remaining.min(PAGE_SIZE - off);
            match self.pages.get(&cur.page().0) {
                Some(page) => out.extend_from_slice(&page[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            cur = cur.offset(take as u64);
            remaining -= take;
        }
        Ok(out)
    }

    /// Writes `data` starting at `addr` (no permission check — use
    /// [`crate::Machine::write`] for the checked path). Each page the
    /// range touches becomes resident.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] if the range exceeds
    /// installed memory.
    pub fn write_raw(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), HwError> {
        self.check_range(addr, data.len())?;
        let mut cur = addr;
        let mut src = data;
        while !src.is_empty() {
            let page = self
                .pages
                .entry(cur.page().0)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let off = cur.page_offset();
            let take = src.len().min(PAGE_SIZE - off);
            page[off..off + take].copy_from_slice(&src[..take]);
            cur = cur.offset(take as u64);
            src = &src[take..];
        }
        Ok(())
    }

    /// Zeroes an entire page by dropping its backing storage. Used by
    /// `SKILL` ("erase all memory pages associated with the PAL", §5.5)
    /// and by PAL application-level state clears.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AddressOutOfRange`] for a non-installed page.
    pub fn zero_page(&mut self, page: PageIndex) -> Result<(), HwError> {
        if page.0 >= self.num_pages {
            return Err(HwError::AddressOutOfRange {
                addr: page.base_addr(),
            });
        }
        self.pages.remove(&page.0);
        Ok(())
    }

    /// Pages touched by the byte range `[addr, addr+len)`.
    pub fn pages_spanned(addr: PhysAddr, len: usize) -> impl Iterator<Item = PageIndex> {
        let first = addr.page().0;
        let last = if len == 0 {
            first
        } else {
            addr.offset(len as u64 - 1).page().0
        };
        (first..=last).map(PageIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_within_page() {
        let mut m = Memory::new(4);
        m.write_raw(PhysAddr(100), b"hello").unwrap();
        assert_eq!(m.read_raw(PhysAddr(100), 5).unwrap(), b"hello");
    }

    #[test]
    fn read_write_spanning_pages() {
        let mut m = Memory::new(4);
        let addr = PhysAddr(PAGE_SIZE as u64 - 2);
        m.write_raw(addr, b"abcdef").unwrap();
        assert_eq!(m.read_raw(addr, 6).unwrap(), b"abcdef");
        // The tail landed on page 1.
        assert_eq!(m.read_raw(PhysAddr(PAGE_SIZE as u64), 4).unwrap(), b"cdef");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Memory::new(1);
        let end = PhysAddr(PAGE_SIZE as u64);
        assert!(matches!(
            m.read_raw(end, 1),
            Err(HwError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            m.write_raw(PhysAddr(PAGE_SIZE as u64 - 1), b"ab"),
            Err(HwError::AddressOutOfRange { .. })
        ));
        // Reading zero bytes at the very end is fine.
        assert_eq!(m.read_raw(end, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overflowing_range_rejected() {
        let m = Memory::new(1);
        assert!(matches!(
            m.read_raw(PhysAddr(u64::MAX), 2),
            Err(HwError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_page_erases() {
        let mut m = Memory::new(2);
        m.write_raw(PhysAddr(PAGE_SIZE as u64 + 10), b"secret")
            .unwrap();
        m.zero_page(PageIndex(1)).unwrap();
        assert_eq!(
            m.read_raw(PhysAddr(PAGE_SIZE as u64 + 10), 6).unwrap(),
            vec![0u8; 6]
        );
        assert!(m.zero_page(PageIndex(2)).is_err());
    }

    #[test]
    fn untouched_pages_read_as_zeros_and_are_not_resident() {
        let mut m = Memory::new(16_384);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.byte_len(), 64 << 20);
        assert_eq!(m.read_raw(PhysAddr(12_345), 64).unwrap(), vec![0u8; 64]);
        // A cross-page read over one written and one untouched page.
        let addr = PhysAddr(3 * PAGE_SIZE as u64 - 3);
        m.write_raw(addr, b"abc").unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_raw(addr, 6).unwrap(), b"abc\0\0\0");
        // Reads never allocate.
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn zero_page_frees_the_page() {
        let mut m = Memory::new(4);
        m.write_raw(PhysAddr(PAGE_SIZE as u64 - 1), b"xy").unwrap();
        assert_eq!(m.resident_pages(), 2);
        m.zero_page(PageIndex(0)).unwrap();
        assert_eq!(m.resident_pages(), 1);
        // Erasing an untouched page is a no-op, not an allocation.
        m.zero_page(PageIndex(3)).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(
            m.read_raw(PhysAddr(PAGE_SIZE as u64 - 1), 2).unwrap(),
            vec![0, b'y']
        );
    }

    #[test]
    fn pages_spanned_math() {
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(0), PAGE_SIZE + 1)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0, 1]);
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(10), 0)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0]);
        let pages: Vec<u32> = Memory::pages_spanned(PhysAddr(PAGE_SIZE as u64 - 1), 2)
            .map(|p| p.0)
            .collect();
        assert_eq!(pages, vec![0, 1]);
    }
}
