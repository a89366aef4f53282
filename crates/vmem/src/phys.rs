//! Physical frame store.
//!
//! Frames are 4 KiB pages addressed by [`Pfn`]. The store supports
//! concurrent access (per-frame reader/writer locks) because module code
//! executes on many simulated CPUs while the re-randomizer builds new GOT
//! frames in parallel.
//!
//! # Directory
//!
//! Frames live in an append-only directory of segments that double in
//! size: segment `k` holds `512 << k` slots and is allocated once, on
//! first use. A pfn names its segment and slot by arithmetic alone, so
//! [`PhysMem::read`] and [`PhysMem::write`] take no global lock and
//! touch no refcount — one index computation, one `OnceLock::get` and
//! the frame's own lock. Slots are never removed: [`PhysMem::free`]
//! drops the page and leaves the slot for the next [`PhysMem::alloc`]
//! of that pfn. Allocation pops a LIFO free list behind one mutex.
//!
//! # Frame generation
//!
//! Every slot carries a generation, bumped under the frame's write lock
//! on each alloc, write and free and never reset. A `(pfn, generation)`
//! pair therefore names one exact content of one frame, across frees
//! and reuse of the pfn. [`PhysMem::read_tagged`] returns the bytes
//! with the generation they were read at; the interpreter's
//! predecoded-instruction cache keeps that tag and trusts an entry only
//! while [`PhysMem::generation`] still returns it.

#![forbid(unsafe_code)]

use crate::PAGE_SIZE;
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A physical frame number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pfn(pub u64);

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// log2 of the first segment's slot count.
const SEG0_SHIFT: u32 = 9;
/// Directory segments: room for `512 * (2^40 - 1)` frames.
const SEGMENTS: usize = 40;

/// One directory entry: the page while the frame is allocated, and the
/// frame's generation for as long as the store lives.
#[derive(Default)]
struct Slot {
    data: RwLock<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Bumped with `Release` under `data`'s write lock; `generation`
    /// loads it with `Acquire`, so whoever sees a generation also sees
    /// the change that produced it.
    gen: AtomicU64,
}

/// `(segment, index)` of `pfn`, or `None` past the directory's reach.
fn locate(pfn: Pfn) -> Option<(usize, usize)> {
    let j = pfn.0.checked_add(1 << SEG0_SHIFT)?;
    let k = 63 - j.leading_zeros() - SEG0_SHIFT;
    ((k as usize) < SEGMENTS).then(|| (k as usize, (j - (1 << (k + SEG0_SHIFT))) as usize))
}

/// Counters exported by [`PhysMem::stats`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct PhysStats {
    /// Frames currently allocated.
    pub frames_live: u64,
    /// Total allocations ever.
    pub frames_allocated: u64,
    /// Total frees ever.
    pub frames_freed: u64,
}

/// Free pfns (LIFO) and the next never-used one.
#[derive(Default)]
struct FreeList {
    free: Vec<u64>,
    next: u64,
}

/// The physical memory of the simulated machine.
///
/// Allocation reuses the most recently freed pfn first; frames are
/// zeroed on allocation (like the kernel's `GFP_ZERO`).
pub struct PhysMem {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    free_list: Mutex<FreeList>,
    allocated: AtomicU64,
    freed: AtomicU64,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMem {
    /// Create an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            segments: [const { OnceLock::new() }; SEGMENTS],
            free_list: Mutex::new(FreeList::default()),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// The directory slot of `pfn`, if its segment exists.
    fn slot(&self, pfn: Pfn) -> Option<&Slot> {
        let (k, i) = locate(pfn)?;
        self.segments[k].get()?.get(i)
    }

    /// Allocate one zeroed frame.
    pub fn alloc(&self) -> Pfn {
        self.allocated.fetch_add(1, Ordering::Relaxed);
        let pfn = {
            let mut list = self.free_list.lock();
            list.free.pop().map(Pfn).unwrap_or_else(|| {
                list.next += 1;
                Pfn(list.next - 1)
            })
        };
        let (k, i) = locate(pfn).unwrap_or_else(|| panic!("physical memory exhausted at {pfn}"));
        let segment = self.segments[k].get_or_init(|| {
            (0..1usize << (k as u32 + SEG0_SHIFT))
                .map(|_| Slot::default())
                .collect()
        });
        let slot = &segment[i];
        let mut data = slot.data.write();
        *data = Some(Box::new([0u8; PAGE_SIZE]));
        slot.gen.fetch_add(1, Ordering::Release);
        pfn
    }

    /// Allocate `n` zeroed frames.
    pub fn alloc_n(&self, n: usize) -> Vec<Pfn> {
        (0..n).map(|_| self.alloc()).collect()
    }

    /// Free a frame.
    ///
    /// # Panics
    ///
    /// Panics on double-free (freeing an unallocated pfn) — in the
    /// simulated kernel that is always a reclamation bug worth surfacing
    /// loudly.
    pub fn free(&self, pfn: Pfn) {
        let slot = self
            .slot(pfn)
            .unwrap_or_else(|| panic!("free of out-of-range {pfn}"));
        {
            let mut data = slot.data.write();
            assert!(data.take().is_some(), "double free of {pfn}");
            slot.gen.fetch_add(1, Ordering::Release);
        }
        self.freed.fetch_add(1, Ordering::Relaxed);
        self.free_list.lock().free.push(pfn.0);
    }

    /// Whether the frame is currently allocated.
    pub fn is_live(&self, pfn: Pfn) -> bool {
        self.slot(pfn).is_some_and(|s| s.data.read().is_some())
    }

    /// The frame's current generation: 0 for a pfn never allocated,
    /// otherwise bumped by every alloc, write and free of it.
    pub fn generation(&self, pfn: Pfn) -> u64 {
        self.slot(pfn).map_or(0, |s| s.gen.load(Ordering::Acquire))
    }

    /// Read bytes from within a single frame.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses the frame boundary or the frame is
    /// free (callers go through [`crate::AddressSpace`], which reports a
    /// typed fault first).
    pub fn read(&self, pfn: Pfn, offset: usize, buf: &mut [u8]) {
        self.read_tagged(pfn, offset, buf);
    }

    /// [`PhysMem::read`], returning the frame's generation read under the
    /// same lock as the bytes.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PhysMem::read`].
    pub fn read_tagged(&self, pfn: Pfn, offset: usize, buf: &mut [u8]) -> u64 {
        assert!(offset + buf.len() <= PAGE_SIZE, "read crosses frame");
        let slot = self
            .slot(pfn)
            .unwrap_or_else(|| panic!("read of freed {pfn}"));
        let data = slot.data.read();
        let page = data
            .as_ref()
            .unwrap_or_else(|| panic!("read of freed {pfn}"));
        buf.copy_from_slice(&page[offset..offset + buf.len()]);
        slot.gen.load(Ordering::Relaxed)
    }

    /// Write bytes within a single frame.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PhysMem::read`].
    pub fn write(&self, pfn: Pfn, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write crosses frame");
        let slot = self
            .slot(pfn)
            .unwrap_or_else(|| panic!("write of freed {pfn}"));
        let mut data = slot.data.write();
        let page = data
            .as_mut()
            .unwrap_or_else(|| panic!("write of freed {pfn}"));
        page[offset..offset + bytes.len()].copy_from_slice(bytes);
        slot.gen.fetch_add(1, Ordering::Release);
    }

    /// Read a little-endian u64 within one frame.
    pub fn read_u64(&self, pfn: Pfn, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(pfn, offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian u64 within one frame.
    pub fn write_u64(&self, pfn: Pfn, offset: usize, v: u64) {
        self.write(pfn, offset, &v.to_le_bytes());
    }

    /// Copy a whole frame's contents into a new allocation.
    pub fn clone_frame(&self, pfn: Pfn) -> Pfn {
        let mut buf = [0u8; PAGE_SIZE];
        self.read(pfn, 0, &mut buf);
        let new = self.alloc();
        self.write(new, 0, &buf);
        new
    }

    /// Snapshot of allocation counters.
    pub fn stats(&self) -> PhysStats {
        let allocated = self.allocated.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        PhysStats {
            frames_live: allocated - freed,
            frames_allocated: allocated,
            frames_freed: freed,
        }
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_and_rw() {
        let pm = PhysMem::new();
        let pfn = pm.alloc();
        let mut buf = [0xFFu8; 16];
        pm.read(pfn, 100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        pm.write_u64(pfn, 8, 0x1122_3344_5566_7788);
        assert_eq!(pm.read_u64(pfn, 8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn free_and_reuse() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.write_u64(a, 0, 42);
        pm.free(a);
        assert!(!pm.is_live(a));
        let b = pm.alloc();
        // Free-list reuse gives back the same number, but zeroed.
        assert_eq!(a, b);
        assert_eq!(pm.read_u64(b, 0), 0);
        assert_eq!(pm.stats().frames_live, 1);
        assert_eq!(pm.stats().frames_allocated, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.free(a);
        pm.free(a);
    }

    #[test]
    fn clone_frame_copies() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.write_u64(a, 16, 0xabcd);
        let b = pm.clone_frame(a);
        assert_ne!(a, b);
        assert_eq!(pm.read_u64(b, 16), 0xabcd);
        // Independent after copy.
        pm.write_u64(a, 16, 1);
        assert_eq!(pm.read_u64(b, 16), 0xabcd);
    }

    #[test]
    fn concurrent_alloc() {
        let pm = std::sync::Arc::new(PhysMem::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pm = pm.clone();
            handles.push(std::thread::spawn(move || {
                let pfns = pm.alloc_n(64);
                for &p in &pfns {
                    pm.write_u64(p, 0, p.0);
                }
                pfns
            }));
        }
        let mut all: Vec<Pfn> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8 * 64, "no pfn handed out twice");
    }

    /// 4 threads alloc, write, read and free until more than 3584
    /// frames are live (the directory's fourth segment starts at pfn
    /// 3584). An ownership bit per pfn catches a frame handed to two
    /// holders at once; every held frame reads back its last write.
    #[test]
    fn concurrent_churn_across_segments() {
        use std::sync::atomic::AtomicBool;
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 8;
        const BATCH: usize = 600;
        let pm = std::sync::Arc::new(PhysMem::new());
        let owned: std::sync::Arc<Vec<AtomicBool>> =
            std::sync::Arc::new((0..16_384).map(|_| AtomicBool::new(false)).collect());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pm, owned, barrier) = (pm.clone(), owned.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let tag = |p: Pfn, round: u64| (t << 56) | (round << 40) | p.0;
                    let mut held: Vec<(Pfn, u64)> = Vec::new();
                    for round in 0..ROUNDS {
                        for p in pm.alloc_n(BATCH) {
                            let was = owned[p.0 as usize].swap(true, Ordering::AcqRel);
                            assert!(!was, "{p} handed out twice");
                            assert_eq!(pm.read_u64(p, 0), 0, "{p} not zeroed");
                            held.push((p, 0));
                        }
                        for (p, last) in &mut held {
                            *last = tag(*p, round);
                            pm.write_u64(*p, (round as usize * 8) % PAGE_SIZE, *last);
                        }
                        for (p, last) in &held {
                            let got = pm.read_u64(*p, (round as usize * 8) % PAGE_SIZE);
                            assert_eq!(got, *last, "{p} lost its last write");
                        }
                        if round + 1 == ROUNDS {
                            barrier.wait(); // every thread at its peak
                            break;
                        }
                        let mut keep = Vec::new();
                        for (i, (p, last)) in held.into_iter().enumerate() {
                            if i % 2 == 0 {
                                owned[p.0 as usize].store(false, Ordering::Release);
                                pm.free(p);
                            } else {
                                keep.push((p, last));
                            }
                        }
                        held = keep;
                    }
                    let peak = held.len();
                    for (p, _) in held {
                        owned[p.0 as usize].store(false, Ordering::Release);
                        pm.free(p);
                    }
                    peak
                })
            })
            .collect();
        let peak: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(
            peak > 3584,
            "peak {peak} frames stays below the fourth segment"
        );
        let s = pm.stats();
        assert_eq!(s.frames_live, 0);
        assert_eq!(s.frames_allocated, THREADS * ROUNDS * BATCH as u64);
        assert!(
            pm.generation(Pfn(3584)) > 0,
            "the fourth segment served frames"
        );
    }

    #[test]
    fn generation_strictly_increases() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        let mut seen = vec![pm.generation(a)];
        assert!(seen[0] > 0, "alloc bumps the generation");
        pm.write_u64(a, 0, 7);
        seen.push(pm.generation(a));
        let mut buf = [0u8; 8];
        assert_eq!(pm.read_tagged(a, 0, &mut buf), seen[1], "reads do not bump");
        assert_eq!(u64::from_le_bytes(buf), 7);
        pm.free(a);
        seen.push(pm.generation(a));
        let b = pm.alloc();
        assert_eq!(a, b, "free-list reuse");
        seen.push(pm.generation(b));
        pm.write(b, 4095, &[1]);
        seen.push(pm.generation(b));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
    }

    #[test]
    fn never_allocated_pfns_are_not_live() {
        let pm = PhysMem::new();
        for p in [0, 1, 511, 512, 1 << 20, u64::MAX] {
            assert!(!pm.is_live(Pfn(p)), "pfn {p}");
            assert_eq!(pm.generation(Pfn(p)), 0, "pfn {p}");
        }
        let a = pm.alloc_n(3);
        assert!(
            !pm.is_live(Pfn(3)),
            "slot in a live segment, never handed out"
        );
        pm.free(a[1]);
        assert_eq!(
            pm.stats(),
            PhysStats {
                frames_live: 2,
                frames_allocated: 3,
                frames_freed: 1,
            }
        );
        assert!(pm.is_live(a[0]) && !pm.is_live(a[1]) && pm.is_live(a[2]));
    }
}
