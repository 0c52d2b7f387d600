//! Sparse paged memory behind a page map.
//!
//! Memory is a set of 4 KiB pages, allocated zero-filled on first write,
//! so reads of untouched memory return 0 without allocating anything —
//! convenient for `.zero`-style buffers. The map from page number to page
//! hashes with one multiply instead of SipHash: its keys are guest page
//! numbers of programs this process built, not input an adversary chooses.
//! Bulk loads copy whole page-sized chunks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hashes a `u64` page number with one Fibonacci multiply. The table takes
/// its bucket from the product's low bits, which differ for consecutive
/// page numbers, and its tag from the high bits, which the multiply mixes.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Sparse 64-bit byte-addressable memory.
#[derive(Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident pages (for tests / footprint reporting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The resident page holding `addr`, if any.
    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Read an aligned little-endian u64. Panics on misalignment; the
    /// emulator checks alignment first and reports it as an error.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert!(
            addr.is_multiple_of(8),
            "misaligned 8-byte read at {addr:#x}"
        );
        let off = (addr & PAGE_MASK) as usize;
        self.page(addr).map_or(0, |p| {
            u64::from_le_bytes(p[off..off + 8].try_into().unwrap())
        })
    }

    /// Write an aligned little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        assert!(
            addr.is_multiple_of(8),
            "misaligned 8-byte write at {addr:#x}"
        );
        let off = (addr & PAGE_MASK) as usize;
        self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Bulk load (used for program data segments), one page-sized chunk at
    /// a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_first_read() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x1000), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
    }

    #[test]
    fn u64_roundtrip_across_pages() {
        let mut m = Memory::new();
        m.write_u64(PAGE_SIZE as u64 - 8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PAGE_SIZE as u64 - 8), 0xdead_beef_cafe_f00d);
        m.write_u64(PAGE_SIZE as u64, 7);
        assert_eq!(m.read_u64(PAGE_SIZE as u64), 7);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic]
    fn misaligned_read_panics() {
        let m = Memory::new();
        let _ = m.read_u64(3);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_u64(64, (-0.5f64).to_bits());
        assert_eq!(f64::from_bits(m.read_u64(64)), -0.5);
    }

    #[test]
    fn bulk_write() {
        let mut m = Memory::new();
        m.write_bytes(0x2000 - 2, &[1, 2, 3, 4]);
        assert_eq!(m.read_u8(0x1fff), 2);
        assert_eq!(m.read_u8(0x2001), 4);
    }

    #[test]
    fn bulk_write_spans_whole_pages() {
        let mut m = Memory::new();
        let bytes: Vec<u8> = (0..3 * PAGE_SIZE + 10).map(|i| i as u8).collect();
        let base = 5 * PAGE_SIZE as u64 - 6;
        m.write_bytes(base, &bytes);
        assert_eq!(m.resident_pages(), 5);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b, "byte {i}");
        }
        m.write_bytes(0x9000, &[]);
        assert_eq!(m.resident_pages(), 5, "an empty write allocates nothing");
    }
}
