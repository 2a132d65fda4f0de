//! The kernel programming model: per-thread resumable state machines.
//!
//! A simulated kernel is a [`Kernel`] that spawns one lane per thread. A
//! lane holds only its thread's registers; the kernel value carries
//! everything uniform across the grid (buffer addresses, launch knobs).
//! Each scheduling event, the warp executor calls [`Kernel::step`] on every
//! active lane in lockstep; the step performs the *functional* part of one
//! instruction (reading device memory through the [`MemView`], updating the
//! lane's registers) and returns the [`Effect`] to charge for *timing* —
//! exactly the split a cycle-level simulator needs. Divergence appears
//! naturally when lanes of one warp return different effect kinds.

/// What one lane did in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// A global-memory load. `cached` marks loads issued through the
    /// read-only/texture path (`const __restrict__` pointers, §III-D4);
    /// uncached loads bypass the per-SM cache and go straight to L2.
    Read { addr: u64, bytes: u32, cached: bool },
    /// A global-memory store. The executor logs it and commits the log
    /// when the kernel completes; lanes never read their own launch's
    /// stores back through the [`MemView`]. The log keeps only the last
    /// store to each `(addr, bytes)`, in issue order, which leaves the same
    /// final bytes and the same initialized bytes as committing every store.
    Write { addr: u64, bytes: u32, value: u64 },
    /// Pure ALU work.
    Compute { cycles: u32 },
    /// An on-chip shared-memory load against a scratch window (hash-table
    /// bucket probes / chain walks). Costs no cache or DRAM traffic; the
    /// executor charges `shared_latency` scaled by the warp's bank-conflict
    /// degree. A multi-word access models a linear chain walk over
    /// consecutive slots. `spilled` marks accesses to tables that exceeded
    /// the per-warp shared-memory budget and live in global scratch
    /// instead: those are priced as uncached global loads (L2/DRAM).
    SharedRead {
        addr: u64,
        bytes: u32,
        spilled: bool,
    },
    /// An on-chip shared-memory store (hash-table slot insert). Logged and
    /// committed like a global store so the scratch window holds real
    /// data, but charged through the shared-memory bank model unless
    /// `spilled` (then it is priced as a write-through global store).
    SharedWrite {
        addr: u64,
        bytes: u32,
        value: u64,
        spilled: bool,
    },
    /// Lane finished; it will not be stepped again.
    Done,
}

impl Effect {
    /// Discriminant used for divergence grouping. Spilled shared accesses
    /// keep the shared kinds: they are the same instruction in the source
    /// program, only the modeled backing store differs.
    #[inline]
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Effect::Read { cached: true, .. } => 0,
            Effect::Read { cached: false, .. } => 1,
            Effect::Write { .. } => 2,
            Effect::Compute { .. } => 3,
            Effect::SharedRead { .. } => 4,
            Effect::SharedWrite { .. } => 5,
            Effect::Done => 6,
        }
    }
}

/// Read-only functional view of device memory, handed to lanes.
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    data: &'a [u8],
}

impl<'a> MemView<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        MemView { data }
    }

    /// Load a little-endian `u32` at a device address (one bounds check).
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let i = addr as usize;
        u32::from_le_bytes(self.data[i..i + 4].try_into().expect("4 bytes"))
    }

    /// Load a little-endian `u64` (one bounds check).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let i = addr as usize;
        u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8 bytes"))
    }
}

/// A launchable kernel: a lane factory and the program its lanes run.
///
/// A launch's result — its stats and its stores — must be a pure function
/// of the kernel value, the [`crate::LaunchConfig`] and the arena bytes:
/// steps may read device memory only through the [`MemView`], and lanes
/// carry no state between launches. The device's launch memo relies on it
/// to replay a repeated launch, and keys it on the kernel's [`Hash`], which
/// every kernel derives over all of its fields.
pub trait Kernel: Sync + std::hash::Hash {
    /// One thread's registers. A warp's lanes are created, stepped and
    /// dropped on one host thread.
    type Lane;

    /// Create the lane for global thread `tid` of `total` (`total` is the
    /// active thread count — the grid-stride denominator).
    fn spawn(&self, tid: usize, total: usize) -> Self::Lane;

    /// Create the `lanes` lanes of one warp, global threads `first_tid ..
    /// first_tid + lanes`, in lane order. The executor steps them in
    /// lockstep on one host thread, so a kernel may override this to let
    /// them share per-warp state, as a warp shares its shared memory. The
    /// default spawns every lane on its own.
    fn spawn_warp(&self, first_tid: usize, lanes: usize, total: usize) -> Vec<Self::Lane> {
        (first_tid..first_tid + lanes)
            .map(|tid| self.spawn(tid, total))
            .collect()
    }

    /// Execute `lane`'s next instruction. Must return [`Effect::Done`]
    /// forever once the lane has finished.
    fn step(&self, lane: &mut Self::Lane, mem: &MemView<'_>) -> Effect;

    /// The kernel's declared [`crate::verifier::AccessContract`] for this launch geometry,
    /// if it carries one. Kernels without a contract cannot launch on a
    /// device with the static verifier on (`missing-contract` finding);
    /// with the verifier off the declaration is never consulted.
    fn contract(
        &self,
        _lc: crate::executor::LaunchConfig,
        _total: usize,
    ) -> Option<crate::verifier::AccessContract> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memview_reads_little_endian() {
        let bytes = [0x01, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F];
        let mv = MemView::new(&bytes);
        assert_eq!(mv.read_u32(0), 1);
        assert_eq!(mv.read_u32(4), 0x7FFF_FFFF);
        assert_eq!(mv.read_u64(0), 0x7FFF_FFFF_0000_0001);
    }

    #[test]
    fn effect_kinds_separate_cached_and_uncached_reads() {
        let a = Effect::Read {
            addr: 0,
            bytes: 4,
            cached: true,
        };
        let b = Effect::Read {
            addr: 0,
            bytes: 4,
            cached: false,
        };
        assert_ne!(a.kind(), b.kind());
        assert_ne!(Effect::Done.kind(), Effect::Compute { cycles: 1 }.kind());
    }
}
