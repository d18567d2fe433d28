//! Backing storage for the simulated address space.
//!
//! Every page, index node and hash bucket lives in a [`SimArena`]: byte
//! storage mapped at a fixed simulated base address. Reading or writing
//! through the instrumented accessors in [`crate::db::DbCtx`] both performs
//! the real byte access (so query answers are real) and drives the cache
//! simulator at the same address (so stall behaviour is real too).
//!
//! Host bytes are held per *segment*, so the scratch of a read-only
//! statement (join hash tables, partition chunks) can be handed back to the
//! host when the statement ends ([`SimArena::release_scratch`]) while the
//! simulated address space — and therefore every simulated cost — stays
//! exactly as if it were still allocated.

use wdtg_sim::Region;

/// A contiguous run of host bytes backing arena offsets
/// `start .. start + bytes.len()`.
#[derive(Debug)]
struct Segment {
    start: usize,
    bytes: Vec<u8>,
}

impl Segment {
    fn end(&self) -> usize {
        self.start + self.bytes.len()
    }
}

/// A growable byte arena pinned at a simulated base address.
#[derive(Debug)]
pub struct SimArena {
    region: Region,
    /// Disjoint segments in offset order; the first starts at offset 0.
    segs: Vec<Segment>,
    next: u64,
    /// The next allocation opens a new segment (set by
    /// [`SimArena::scratch_mark`]).
    sealed: bool,
}

impl SimArena {
    /// Creates an arena at `base` that may grow up to `capacity` bytes.
    pub fn new(base: u64, capacity: u64) -> Self {
        SimArena {
            region: Region {
                base,
                len: capacity,
            },
            segs: vec![Segment {
                start: 0,
                bytes: Vec::new(),
            }],
            next: 0,
            sealed: false,
        }
    }

    /// The simulated address range reserved for this arena.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Bytes currently allocated (simulated: released scratch still counts).
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Host bytes currently backing the arena.
    pub fn host_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// Allocates `len` zeroed bytes aligned to `align`; returns the simulated
    /// address. Panics when the arena is exhausted — use [`SimArena::try_alloc`]
    /// where exhaustion must surface as an observable failure instead.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        match self.try_alloc(len, align) {
            Some(addr) => addr,
            None => panic!("arena at {:#x} exhausted", self.region.base),
        }
    }

    /// Fallible allocation: `None` when `len` bytes at `align` do not fit in
    /// the remaining capacity, leaving the arena untouched so callers can
    /// degrade (switch join strategy, fail one query) rather than abort.
    pub fn try_alloc(&mut self, len: u64, align: u64) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        let start = (self.next + align - 1) & !(align - 1);
        let end = start.checked_add(len)?;
        if end > self.region.len {
            return None;
        }
        let last = self.segs.last_mut().expect("an arena has a first segment");
        if !self.sealed && last.end() == self.next as usize {
            last.bytes.resize(end as usize - last.start, 0);
        } else {
            self.segs.push(Segment {
                start: start as usize,
                bytes: vec![0; len as usize],
            });
            self.sealed = false;
        }
        self.next = end;
        Some(self.region.base + start)
    }

    /// Marks the start of a read-only statement: allocations from here on
    /// land in fresh segments, which [`SimArena::release_scratch`] with the
    /// returned mark gives back to the host.
    pub fn scratch_mark(&mut self) -> u64 {
        self.sealed = true;
        self.next
    }

    /// Frees the host bytes of everything allocated since `mark` (from
    /// [`SimArena::scratch_mark`]). Simulated addresses are not reused and
    /// [`SimArena::used`] is unchanged, so simulated costs stay identical;
    /// reading a released address panics.
    pub fn release_scratch(&mut self, mark: u64) {
        let keep = self
            .segs
            .partition_point(|s| s.start < mark as usize)
            .max(1);
        self.segs.truncate(keep);
        debug_assert!(self.segs[keep - 1].end() <= mark as usize);
        self.sealed = false;
    }

    /// The segment index and in-segment offset of `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, usize) {
        debug_assert!(
            addr >= self.region.base && addr < self.region.base + self.next,
            "address {addr:#x} outside arena"
        );
        let o = (addr - self.region.base) as usize;
        let last = self.segs.len() - 1;
        let i = if o >= self.segs[last].start {
            last
        } else if o < self.segs[0].bytes.len() {
            0
        } else {
            self.segs.partition_point(|s| s.start <= o) - 1
        };
        (i, o - self.segs[i].start)
    }

    #[inline]
    fn at(&self, addr: u64, len: usize) -> &[u8] {
        let (i, o) = self.locate(addr);
        &self.segs[i].bytes[o..o + len]
    }

    #[inline]
    fn at_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let (i, o) = self.locate(addr);
        &mut self.segs[i].bytes[o..o + len]
    }

    /// Raw (uninstrumented) 4-byte read.
    #[inline]
    pub fn read_i32(&self, addr: u64) -> i32 {
        i32::from_le_bytes(self.at(addr, 4).try_into().expect("in bounds"))
    }

    /// Raw (uninstrumented) 4-byte write.
    #[inline]
    pub fn write_i32(&mut self, addr: u64, v: i32) {
        self.at_mut(addr, 4).copy_from_slice(&v.to_le_bytes());
    }

    /// Raw 8-byte read.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.at(addr, 8).try_into().expect("in bounds"))
    }

    /// Raw 8-byte write.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.at_mut(addr, 8).copy_from_slice(&v.to_le_bytes());
    }

    /// Raw byte-slice read.
    pub fn read_bytes(&self, addr: u64, len: u32) -> &[u8] {
        self.at(addr, len as usize)
    }

    /// Raw byte-slice write.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.at_mut(addr, data.len()).copy_from_slice(data);
    }

    /// Whether `addr` falls inside this arena's reserved range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.region.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_round_trip() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        let p = a.alloc(128, 64);
        assert_eq!(p % 64, 0);
        a.write_i32(p, -42);
        a.write_i32(p + 4, 7);
        a.write_u64(p + 8, 0xdead_beef);
        assert_eq!(a.read_i32(p), -42);
        assert_eq!(a.read_i32(p + 4), 7);
        assert_eq!(a.read_u64(p + 8), 0xdead_beef);
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(100, 8);
        let p2 = a.alloc(100, 8);
        assert!(p2 >= p1 + 100);
        a.write_bytes(p1, &[1u8; 100]);
        a.write_bytes(p2, &[2u8; 100]);
        assert!(a.read_bytes(p1, 100).iter().all(|&b| b == 1));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_panics() {
        let mut a = SimArena::new(0x1000_0000, 256);
        a.alloc(512, 8);
    }

    #[test]
    fn try_alloc_fails_cleanly_and_leaves_arena_usable() {
        let mut a = SimArena::new(0x1000_0000, 256);
        assert_eq!(a.try_alloc(512, 8), None);
        assert_eq!(a.used(), 0);
        let p = a.try_alloc(128, 64).expect("fits");
        assert_eq!(p % 64, 0);
        a.write_i32(p, 9);
        assert_eq!(a.read_i32(p), 9);
        // Alignment padding counts against capacity.
        assert_eq!(a.try_alloc(256, 64), None);
    }

    #[test]
    fn released_scratch_frees_host_bytes_but_keeps_addresses() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        let kept = a.alloc(100, 8);
        a.write_i32(kept, 7);
        let mark = a.scratch_mark();
        let scratch = a.alloc(4096, 64);
        a.write_i32(scratch, 1);
        assert_eq!(a.host_bytes(), 100 + 4096);
        a.release_scratch(mark);
        // Host bytes return; the simulated bump pointer does not move.
        assert_eq!(a.host_bytes(), 100);
        assert_eq!(a.used(), scratch - 0x1000_0000 + 4096);
        let after = a.alloc(16, 8);
        assert_eq!(after, scratch + 4096);
        a.write_i32(after, 9);
        assert_eq!((a.read_i32(kept), a.read_i32(after)), (7, 9));
        assert_eq!(a.host_bytes(), 100 + 16);
        // Growth after the gap extends the new segment.
        let next = a.alloc(8, 8);
        a.write_u64(next, 3);
        assert_eq!((a.read_i32(after), a.read_u64(next)), (9, 3));
        assert_eq!(a.host_bytes(), 100 + 24);
    }

    #[test]
    #[should_panic]
    fn reading_released_scratch_panics() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        a.alloc(64, 8);
        let mark = a.scratch_mark();
        let scratch = a.alloc(64, 8);
        a.release_scratch(mark);
        a.read_i32(scratch);
    }
}
