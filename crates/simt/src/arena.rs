//! Device memory: a flat arena with capacity accounting.
//!
//! Allocation is a 256-byte-aligned bump with explicit free. Freed bytes
//! return to the capacity budget (so repeated pipelines don't leak), but
//! address space is never reused within one device lifetime — that keeps
//! buffer handles unambiguous and makes the cache simulation's address→set
//! mapping stable. The backing host `Vec` grows on demand; the *simulated*
//! capacity is enforced by the byte budget, which is what the §III-D6
//! "graph too large to fit" logic keys off.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use crate::error::SimtError;
use crate::sanitizer::{RawViolation, SanitizerMode, Shadow};

/// Scalar types that can live in device memory.
pub trait DeviceScalar: Copy + Send + Sync + 'static {
    const BYTES: usize;
    fn write_le(self, out: &mut [u8]);
    fn read_le(src: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl DeviceScalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&src[..Self::BYTES]);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}

impl_scalar!(u32, i32, u64, i64);

/// Typed handle to a device allocation. Copyable; freeing is done through
/// the owning [`crate::Device`].
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    addr: u64,
    len: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DeviceBuffer<T> {}

// A handle is its address range; the element type needs no `Hash`.
impl<T> std::hash::Hash for DeviceBuffer<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.addr.hash(state);
        self.len.hash(state);
    }
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    pub(crate) fn new(addr: u64, len: usize) -> Self {
        DeviceBuffer {
            addr,
            len,
            _t: PhantomData,
        }
    }

    /// Base device address.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes occupied.
    #[inline]
    pub fn byte_len(&self) -> u64 {
        (self.len * T::BYTES) as u64
    }

    /// Device address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        debug_assert!(i <= self.len);
        self.addr + (i * T::BYTES) as u64
    }

    /// A sub-range view `[from, to)` of this buffer (no new allocation).
    pub fn slice(&self, from: usize, to: usize) -> DeviceBuffer<T> {
        assert!(
            from <= to && to <= self.len,
            "slice {from}..{to} of len {}",
            self.len
        );
        DeviceBuffer {
            addr: self.addr_of(from),
            len: to - from,
            _t: PhantomData,
        }
    }
}

/// The flat device memory arena.
#[derive(Debug)]
pub struct Arena {
    data: Vec<u8>,
    capacity: u64,
    used: u64,
    peak: u64,
    next: u64,
    live: BTreeMap<u64, u64>,
    /// Sanitizer shadow state (`None` when [`SanitizerMode::Off`] — the
    /// arena then behaves byte-identically to a build without it).
    shadow: Option<Box<Shadow>>,
}

const ALIGN: u64 = 256;

impl Arena {
    pub fn new(capacity: u64) -> Self {
        Arena {
            data: Vec::new(),
            capacity,
            used: 0,
            peak: 0,
            next: 0,
            live: BTreeMap::new(),
            shadow: None,
        }
    }

    /// Install (or remove) the sanitizer shadow. Allocations made before
    /// the switch are adopted with their contents conservatively treated
    /// as initialized.
    pub fn set_sanitizer(&mut self, mode: SanitizerMode) {
        if !mode.is_on() {
            self.shadow = None;
            return;
        }
        let mut sh = Shadow::new(mode);
        for (&addr, &bytes) in &self.live {
            sh.on_adopt(addr, bytes, span_of(bytes));
        }
        self.shadow = Some(Box::new(sh));
    }

    /// The active sanitizer mode.
    #[inline]
    pub fn sanitizer_mode(&self) -> SanitizerMode {
        self.shadow
            .as_deref()
            .map_or(SanitizerMode::Off, Shadow::mode)
    }

    /// The shadow state, when the sanitizer is on.
    #[inline]
    pub(crate) fn shadow(&self) -> Option<&Shadow> {
        self.shadow.as_deref()
    }

    /// Drain raw violations recorded by host-side arena ops since the last
    /// drain (the device attributes them to an op label and phase).
    pub(crate) fn take_violations(&self) -> Vec<RawViolation> {
        self.shadow
            .as_deref()
            .map(Shadow::take_pending)
            .unwrap_or_default()
    }

    /// Clone the currently queued (undrained) raw violations without
    /// draining them — report snapshots must not consume state a later
    /// timed op would attribute.
    pub(crate) fn pending_violations(&self) -> Vec<RawViolation> {
        self.shadow
            .as_deref()
            .map(Shadow::pending_snapshot)
            .unwrap_or_default()
    }

    /// Allocate `bytes`; fails like `cudaMalloc` when the budget is blown.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, SimtError> {
        if self.used.saturating_add(bytes) > self.capacity {
            return Err(SimtError::OutOfMemory {
                requested: bytes,
                available: self.capacity - self.used,
            });
        }
        let addr = self.next;
        // Zero-byte allocations still get a distinct address (CUDA returns
        // distinct non-null pointers too); without this, two empty buffers
        // would alias and double-free.
        let span = span_of(bytes);
        self.next += span;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        // Keep 8 guard bytes past the last allocation: faithful kernels may
        // issue a benign one-past-the-end load (the paper's merge loop reads
        // `edge[++u_it]` with `u_it == u_end` on its final iteration), and
        // the functional view must not panic on it.
        let end = (addr + span) as usize + 8;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.live.insert(addr, bytes);
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.on_alloc(addr, bytes, span);
        }
        Ok(addr)
    }

    /// Release an allocation made by [`Arena::alloc`].
    pub fn free(&mut self, addr: u64) -> Result<(), SimtError> {
        match self.live.remove(&addr) {
            Some(bytes) => {
                self.used -= bytes;
                if let Some(sh) = self.shadow.as_deref_mut() {
                    sh.on_free(addr);
                }
                Ok(())
            }
            None => {
                if let Some(sh) = self.shadow.as_deref_mut() {
                    sh.on_invalid_free(addr);
                }
                Err(SimtError::InvalidBuffer { addr })
            }
        }
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocated bytes.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Would an additional allocation of `bytes` fit right now?
    #[inline]
    pub fn fits(&self, bytes: u64) -> bool {
        self.used.saturating_add(bytes) <= self.capacity
    }

    /// The live allocation at or nearest below `addr`, as
    /// `(base, logical_bytes)` — the static verifier's bounds oracle.
    /// Callers must still check the queried range against the returned
    /// logical extent: the record nearest below may end before `addr`.
    pub(crate) fn live_alloc_below(&self, addr: u64) -> Option<(u64, u64)> {
        self.live
            .range(..=addr)
            .next_back()
            .map(|(&base, &bytes)| (base, bytes))
    }

    /// Raw backing bytes (for the executor's functional memory view).
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Write a typed slice at a buffer's location.
    pub fn write_slice<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, src: &[T]) {
        assert!(
            src.len() <= buf.len(),
            "write of {} into buffer of {}",
            src.len(),
            buf.len()
        );
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.host_write(buf.addr(), (src.len() * T::BYTES) as u64);
        }
        let base = buf.addr() as usize;
        for (i, &v) in src.iter().enumerate() {
            v.write_le(&mut self.data[base + i * T::BYTES..]);
        }
    }

    /// Zero a whole buffer in place, as [`Arena::write_slice`] of zeroes
    /// would, without building the zeroes on the host.
    pub fn zero_slice<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) {
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.host_write(buf.addr(), buf.byte_len());
        }
        let base = buf.addr() as usize;
        self.data[base..base + buf.byte_len() as usize].fill(0);
    }

    /// Read a typed buffer back out.
    pub fn read_slice<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        if let Some(sh) = self.shadow.as_deref() {
            sh.host_read(buf.addr(), (buf.len() * T::BYTES) as u64);
        }
        let base = buf.addr() as usize;
        (0..buf.len())
            .map(|i| T::read_le(&self.data[base + i * T::BYTES..]))
            .collect()
    }

    /// Read one element.
    #[inline]
    pub fn read_at<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>, i: usize) -> T {
        assert!(i < buf.len());
        if let Some(sh) = self.shadow.as_deref() {
            sh.host_read(buf.addr_of(i), T::BYTES as u64);
        }
        T::read_le(&self.data[buf.addr_of(i) as usize..])
    }

    /// Write one element.
    #[inline]
    pub fn write_at<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        assert!(i < buf.len());
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.host_write(buf.addr_of(i), T::BYTES as u64);
        }
        v.write_le(&mut self.data[buf.addr_of(i) as usize..]);
    }

    /// Commit one buffered kernel store ([`crate::executor::PendingWrite`]).
    /// With the sanitizer on, stores the shadow rejects (OOB or
    /// use-after-free — the launch checker has already recorded the
    /// finding) are skipped so the simulation survives to report them;
    /// accepted stores mark their bytes initialized. Returns whether the
    /// store was applied.
    ///
    /// # Panics
    /// Panics on a store width other than 4 or 8 bytes (our kernels store
    /// only `u32`/`u64`).
    pub fn commit_store(&mut self, addr: u64, bytes: u32, value: u64) -> bool {
        assert!(bytes == 4 || bytes == 8, "unsupported store width {bytes}");
        if let Some(sh) = self.shadow.as_deref_mut() {
            if !sh.write_allowed(addr, bytes as u64) {
                return false;
            }
            sh.mark_init(addr, bytes as u64);
        }
        let dst = &mut self.data[addr as usize..];
        if bytes == 4 {
            (value as u32).write_le(dst);
        } else {
            value.write_le(dst);
        }
        true
    }
}

/// Aligned footprint of an allocation of `bytes` logical bytes.
#[inline]
fn span_of(bytes: u64) -> u64 {
    bytes.div_ceil(ALIGN).max(1) * ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut a = Arena::new(1024);
        let b1 = a.alloc(400).unwrap();
        assert_eq!(a.used(), 400);
        let b2 = a.alloc(600).unwrap();
        assert_eq!(a.used(), 1000);
        assert_eq!(a.peak(), 1000);
        assert!(a.alloc(100).is_err());
        a.free(b1).unwrap();
        assert_eq!(a.used(), 600);
        let _b3 = a.alloc(100).unwrap();
        assert_eq!(a.peak(), 1000);
        a.free(b2).unwrap();
    }

    #[test]
    fn oom_reports_headroom() {
        let mut a = Arena::new(100);
        a.alloc(60).unwrap();
        match a.alloc(60) {
            Err(SimtError::OutOfMemory {
                requested: 60,
                available: 40,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_free_is_an_error() {
        let mut a = Arena::new(100);
        let b = a.alloc(10).unwrap();
        a.free(b).unwrap();
        assert!(matches!(a.free(b), Err(SimtError::InvalidBuffer { .. })));
    }

    #[test]
    fn addresses_are_aligned_and_disjoint() {
        let mut a = Arena::new(1 << 20);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        assert_eq!(x % ALIGN, 0);
        assert_eq!(y % ALIGN, 0);
        assert!(y >= x + ALIGN);
    }

    #[test]
    fn typed_roundtrip() {
        let mut a = Arena::new(1 << 20);
        let addr = a.alloc(4 * 8).unwrap();
        let buf: DeviceBuffer<u64> = DeviceBuffer::new(addr, 4);
        a.write_slice(&buf, &[1, 2, 3, u64::MAX]);
        assert_eq!(a.read_slice(&buf), vec![1, 2, 3, u64::MAX]);
        a.write_at(&buf, 1, 99);
        assert_eq!(a.read_at(&buf, 1), 99);
    }

    #[test]
    fn buffer_slicing() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(256, 10);
        let s = buf.slice(2, 7);
        assert_eq!(s.len(), 5);
        assert_eq!(s.addr(), 256 + 8);
        assert_eq!(s.addr_of(0), buf.addr_of(2));
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn out_of_range_slice_panics() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(0, 4);
        let _ = buf.slice(2, 9);
    }

    #[test]
    fn zero_byte_allocations_get_distinct_addresses() {
        let mut a = Arena::new(1 << 20);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
        a.free(x).unwrap();
        a.free(y).unwrap();
    }

    #[test]
    fn fits_matches_alloc_outcome() {
        let mut a = Arena::new(100);
        assert!(a.fits(100));
        a.alloc(80).unwrap();
        assert!(a.fits(20));
        assert!(!a.fits(21));
    }

    #[test]
    fn free_of_unknown_addr_is_an_error() {
        let mut a = Arena::new(1024);
        let b = a.alloc(10).unwrap();
        assert!(matches!(
            a.free(b + ALIGN),
            Err(SimtError::InvalidBuffer { .. })
        ));
        assert_eq!(a.used(), 10, "failed free must not change accounting");
        a.free(b).unwrap();
    }

    #[test]
    fn shadow_tracks_host_accesses() {
        use crate::sanitizer::{FindingKind, SanitizerMode};
        let mut a = Arena::new(1 << 20);
        a.set_sanitizer(SanitizerMode::Check);
        assert_eq!(a.sanitizer_mode(), SanitizerMode::Check);
        let addr = a.alloc(16).unwrap();
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(addr, 4);
        // Uninitialized read, then clean after a write.
        let _ = a.read_slice(&buf);
        let v = a.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, FindingKind::UninitRead);
        a.write_slice(&buf, &[1, 2, 3, 4]);
        let _ = a.read_slice(&buf);
        assert!(a.take_violations().is_empty());
        // Use-after-free read.
        a.free(addr).unwrap();
        let _ = a.read_at(&buf, 0);
        let v = a.take_violations();
        assert_eq!(v[0].kind, FindingKind::UseAfterFreeRead);
        // Invalid free is recorded as a violation too.
        assert!(a.free(addr).is_err());
        let v = a.take_violations();
        assert_eq!(v[0].kind, FindingKind::InvalidFree);
    }

    #[test]
    fn commit_store_skips_rejected_writes_only_when_sanitized() {
        use crate::sanitizer::SanitizerMode;
        let mut a = Arena::new(1 << 20);
        let addr = a.alloc(8).unwrap();
        // Unsanitized: any in-vec store is applied.
        assert!(a.commit_store(addr, 8, 42));
        let buf: DeviceBuffer<u64> = DeviceBuffer::new(addr, 1);
        assert_eq!(a.read_at(&buf, 0), 42);
        // Sanitized: a store past the logical end is rejected and skipped.
        a.set_sanitizer(SanitizerMode::Check);
        assert!(!a.commit_store(addr + 8, 8, 7));
        assert!(a.commit_store(addr, 4, 9));
        assert_eq!(a.read_at(&DeviceBuffer::<u32>::new(addr, 1), 0), 9);
        assert!(a.take_violations().is_empty(), "commit_store records none");
    }

    #[test]
    fn i32_scalar_roundtrip() {
        let mut a = Arena::new(1024);
        let addr = a.alloc(8).unwrap();
        let buf: DeviceBuffer<i32> = DeviceBuffer::new(addr, 2);
        a.write_slice(&buf, &[-5, i32::MAX]);
        assert_eq!(a.read_slice(&buf), vec![-5, i32::MAX]);
    }
}
