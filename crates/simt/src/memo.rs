//! The per-device launch memo: replay a launch this device already ran.
//!
//! A kernel launch is a pure function of the kernel value, its
//! [`LaunchConfig`] and the arena bytes (the [`Kernel`] contract), so a
//! device that sees the same three again can skip the lane simulation and
//! replay what it recorded: the [`KernelStats`] and the stores of the
//! compacted store log that changed a byte. The key has three parts:
//!
//! * the kernel's type name and its derived [`Hash`] stream, kept as raw
//!   bytes (exact equality, no hash collisions);
//! * the launch config;
//! * a 128-bit digest of the *whole* arena image ([`digest128`]). It covers
//!   more than any access contract declares, so an undeclared read can
//!   never make a replay stale.
//!
//! The memo keeps at most one entry per (kernel, launch config) and at
//! most [`MEMO_CAPACITY`] entries, dropping the oldest first. Replays are
//! host-side events only: the device charges a replay exactly like the
//! simulation it stands for.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use crate::executor::{KernelStats, LaunchConfig, PendingWrite};
use crate::kernel::Kernel;

/// Entries one device keeps. Above the three launches of the widest bin
/// plan, so a warm session never evicts its own launches.
pub const MEMO_CAPACITY: usize = 8;

/// How many launches a device simulated and how many it replayed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchTally {
    /// Launches whose lanes the executor stepped.
    pub simulated: u64,
    /// Launches served from the memo.
    pub replayed: u64,
}

/// The tally of several devices (a cluster's, say).
impl std::iter::Sum for LaunchTally {
    fn sum<I: Iterator<Item = LaunchTally>>(iter: I) -> LaunchTally {
        iter.fold(LaunchTally::default(), |a, b| LaunchTally {
            simulated: a.simulated + b.simulated,
            replayed: a.replayed + b.replayed,
        })
    }
}

/// A [`Hasher`] that keeps every byte it is fed, so two kernels compare by
/// their full `Hash` stream rather than by a lossy hash of it.
#[derive(Default)]
struct ByteSink(Vec<u8>);

impl Hasher for ByteSink {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("the sink is read as bytes, never finished")
    }
}

/// The (kernel, launch config) half of a memo key.
pub(crate) fn kernel_key<K: Kernel>(kernel: &K, lc: LaunchConfig) -> Vec<u8> {
    let mut sink = ByteSink::default();
    std::any::type_name::<K>().hash(&mut sink);
    kernel.hash(&mut sink);
    lc.hash(&mut sink);
    sink.0
}

/// What one launch left behind.
#[derive(Debug)]
struct Entry {
    kernel: Vec<u8>,
    image: u128,
    stats: KernelStats,
    writes: Vec<PendingWrite>,
}

/// The recorded launches of one device, oldest first.
#[derive(Debug, Default)]
pub(crate) struct LaunchMemo {
    entries: VecDeque<Entry>,
}

impl LaunchMemo {
    /// The recorded stats and store log of `kernel` over arena `image`.
    pub(crate) fn get(
        &self,
        kernel: &[u8],
        image: u128,
    ) -> Option<(&KernelStats, &[PendingWrite])> {
        self.entries
            .iter()
            .find(|e| e.image == image && e.kernel == kernel)
            .map(|e| (&e.stats, e.writes.as_slice()))
    }

    /// Record a simulated launch, replacing any entry of the same kernel
    /// and launch config and dropping the oldest beyond [`MEMO_CAPACITY`].
    pub(crate) fn insert(
        &mut self,
        kernel: Vec<u8>,
        image: u128,
        stats: KernelStats,
        writes: Vec<PendingWrite>,
    ) {
        self.entries.retain(|e| e.kernel != kernel);
        if self.entries.len() == MEMO_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(Entry {
            kernel,
            image,
            stats,
            writes,
        });
    }

    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One accumulator round. For a fixed accumulator it is a bijection of the
/// input word and for a fixed word a bijection of the accumulator, so two
/// images that differ in exactly one word always leave different lane
/// states.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// A 128-bit digest of `bytes`: four independent 64-bit lanes over 32-byte
/// stripes (the xxHash64 round), folded into two differently mixed
/// halves. Not cryptographic; it guards against accidental equality of
/// two arena images, never against a chosen one.
pub fn digest128(bytes: &[u8]) -> u128 {
    let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        acc[0] = round(acc[0], word(&s[0..8]));
        acc[1] = round(acc[1], word(&s[8..16]));
        acc[2] = round(acc[2], word(&s[16..24]));
        acc[3] = round(acc[3], word(&s[24..32]));
    }
    let rest = stripes.remainder();
    let mut words = rest.chunks_exact(8);
    let mut tail = P5 ^ bytes.len() as u64;
    for w in &mut words {
        tail = round(tail, word(w));
    }
    for &b in words.remainder() {
        tail = round(tail, u64::from(b) | 0x100);
    }
    let lo = acc[0]
        .rotate_left(1)
        .wrapping_add(acc[1].rotate_left(7))
        .wrapping_add(acc[2].rotate_left(12))
        .wrapping_add(acc[3].rotate_left(18));
    let hi = round(
        round(round(round(P4 ^ tail, acc[2]), acc[3]), acc[0]),
        acc[1],
    );
    let lo = avalanche(round(lo ^ P3, tail));
    let hi = avalanche(hi);
    (u128::from(hi) << 64) | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let d = digest128(&base);
        for i in [0, 1, 31, 32, 500, 991, 999] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(digest128(&flipped), d, "byte {i}");
        }
        assert_ne!(digest128(&base[..999]), d, "length");
        assert_ne!(digest128(&[0u8; 64]), digest128(&[0u8; 65]));
        assert_ne!(digest128(&[]), digest128(&[0u8]));
    }

    #[test]
    fn memo_keeps_one_entry_per_kernel_and_drops_the_oldest() {
        let mut memo = LaunchMemo::default();
        let stats = KernelStats::default;
        memo.insert(vec![1], 10, stats(), Vec::new());
        memo.insert(vec![1], 11, stats(), Vec::new());
        assert_eq!(memo.len(), 1, "same kernel replaces its entry");
        assert!(memo.get(&[1], 10).is_none());
        assert!(memo.get(&[1], 11).is_some());
        for k in 2..=MEMO_CAPACITY as u8 + 1 {
            memo.insert(vec![k], 0, stats(), Vec::new());
        }
        assert_eq!(memo.len(), MEMO_CAPACITY);
        assert!(memo.get(&[1], 11).is_none(), "the oldest went first");
        assert!(memo.get(&[2], 0).is_some());
    }
}
