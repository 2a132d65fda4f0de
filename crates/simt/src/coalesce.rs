//! Warp-level memory coalescing.
//!
//! The memory system serves line-sized transactions. When the lanes of a
//! warp issue loads in the same step, accesses falling in the same line are
//! merged into one transaction — the classic coalescing rule. The counting
//! kernel's outer loop (consecutive lanes read consecutive edge slots)
//! coalesces perfectly; the inner merge loop (each lane walks a different
//! adjacency list) mostly does not, which is precisely why the paper's
//! kernel is texture-cache-bound.

/// Direct-mapped slots in [`FirstTouch`]'s filter, indexed by the top 8
/// bits of a multiplicative hash.
const SLOTS: usize = 256;

/// A set of `u64` keys that remembers its members in first-touch order and
/// empties in O(1). Each SM keeps one and reuses it for every warp step:
/// the coalescer's line bases, then the bank model's shared words.
///
/// A filter of 256 direct-mapped slots answers most lookups: a slot
/// stamped with an older generation is empty, so clearing the set only
/// bumps the generation. A key whose slot holds another key of this
/// generation falls back to an exact scan of the members.
#[derive(Clone, Debug)]
pub struct FirstTouch {
    /// `(key, generation)` per slot; a slot of an older generation is empty.
    slots: Vec<(u64, u32)>,
    /// The current generation; never 0, the stamp of a never-used slot.
    generation: u32,
    /// Members in first-touch order.
    keys: Vec<u64>,
}

impl Default for FirstTouch {
    fn default() -> Self {
        FirstTouch {
            slots: vec![(0, 0); SLOTS],
            generation: 1,
            keys: Vec::new(),
        }
    }
}

impl FirstTouch {
    /// Empty the set.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp from 2³² generations ago would read as
            // current. Empty every slot and restart.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    /// Add `key`; returns whether it is new since the last [`clear`](Self::clear).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        let slot = &mut self.slots[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize];
        if slot.1 != self.generation {
            *slot = (key, self.generation);
        } else if slot.0 == key || self.keys.contains(&key) {
            return false;
        }
        self.keys.push(key);
        true
    }

    /// Coalesce one warp step's `(addr, bytes)` loads into the distinct
    /// base addresses of the `1 << line_shift`-byte lines they touch, in
    /// order of first touch (deterministic timing: probe order drives the
    /// caches' LRU state). An access identical to the one before it, and a
    /// line equal to the one touched just before, add nothing and skip the
    /// set: the lanes of a lockstep broadcast read issue identical
    /// accesses, and consecutive lanes of a coalesced load share lines.
    pub fn coalesce(&mut self, accesses: &[(u64, u32)], line_shift: u32) -> &[u64] {
        self.clear();
        let mut previous = None;
        let mut previous_line = None;
        for &(addr, bytes) in accesses {
            debug_assert!(bytes > 0);
            if previous == Some((addr, bytes)) {
                continue;
            }
            previous = Some((addr, bytes));
            for line in (addr >> line_shift)..((addr + bytes as u64 - 1) >> line_shift) + 1 {
                if previous_line != Some(line) {
                    previous_line = Some(line);
                    self.insert(line << line_shift);
                }
            }
        }
        &self.keys
    }

    /// Start at generation `generation`, so a test can cross a wrap.
    #[cfg(test)]
    pub(crate) fn with_generation(mut self, generation: u32) -> Self {
        self.generation = generation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesce(accesses: &[(u64, u32)], line: u32) -> Vec<u64> {
        FirstTouch::default()
            .coalesce(accesses, line.trailing_zeros())
            .to_vec()
    }

    /// The filter slot of `key`.
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
    }

    #[test]
    fn perfectly_coalesced_warp_is_a_few_transactions() {
        // 32 lanes reading consecutive u32s: 128 bytes = 4 lines of 32 B.
        let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 4, 4)).collect();
        assert_eq!(coalesce(&accesses, 32).len(), 4);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_lane() {
        let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 4096, 4)).collect();
        assert_eq!(coalesce(&accesses, 32).len(), 32);
    }

    #[test]
    fn same_address_merges() {
        let accesses = vec![(100, 4), (100, 4), (96, 4)];
        assert_eq!(coalesce(&accesses, 32).len(), 1);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        // 8-byte read at offset 28 crosses the 32 B boundary.
        assert_eq!(coalesce(&[(28, 8)], 32), vec![0, 32]);
    }

    #[test]
    fn preserves_first_touch_order() {
        assert_eq!(coalesce(&[(64, 4), (0, 4), (65, 4)], 32), vec![64, 0]);
    }

    /// The O(k²) first-touch scan, kept as the reference.
    fn reference(accesses: &[(u64, u32)], line_bytes: u32) -> Vec<u64> {
        let shift = line_bytes.trailing_zeros();
        let mut out = Vec::new();
        for &(addr, bytes) in accesses {
            for line in (addr >> shift)..=((addr + bytes as u64 - 1) >> shift) {
                let base = line << shift;
                if !out.contains(&base) {
                    out.push(base);
                }
            }
        }
        out
    }

    #[test]
    fn matches_the_quadratic_first_touch_scan() {
        let mut rng = 0x5EED_u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut cases: Vec<Vec<(u64, u32)>> = vec![
            // Straddling reads: every 8-byte load crosses a line boundary.
            (0..32).map(|i| (i * 64 + 28, 8)).collect(),
            // Multi-word spilled chain walks of up to 64 slots, overlapping.
            (0..32)
                .map(|i| (4096 + i * 52, 4 * (1 + i as u32 * 2)))
                .collect(),
            // More distinct lines than the filter has slots, lines first seen
            // early repeating late.
            (0..700).map(|i| ((i % 300) * 4096, 4)).collect(),
            // One walk longer than the whole filter.
            vec![(0, 4 * 1024 * 16), (512, 4), (4000, 8)],
            // Runs of identical consecutive accesses (a broadcast read),
            // with an identical access again after the run is broken.
            (0..96)
                .map(|i| {
                    if i % 32 < 30 {
                        (256 * (i / 32), 16)
                    } else {
                        (4 * i, 4)
                    }
                })
                .chain([(0, 16), (0, 16), (0, 8)])
                .collect(),
            // Consecutive lanes sharing lines (a coalesced load), then
            // wrapping back to lines touched earlier.
            (0..64).map(|i| (4096 + 4 * (i % 40), 4)).collect(),
        ];
        // Line bases that share one filter slot, interleaved with others:
        // every lookup after the first of each slot takes the exact scan.
        let mut by_slot = vec![Vec::new(); SLOTS];
        for line in 0..(1u64 << 16) {
            by_slot[slot(line << 5)].push(line << 5);
        }
        let colliding: Vec<(u64, u32)> = (0..3)
            .flat_map(|round| {
                by_slot[7..11]
                    .iter()
                    .flat_map(move |v| v[round..round + 6].iter())
            })
            .map(|&base| (base + 4, 4))
            .collect();
        assert!(colliding.iter().filter(|&&(a, _)| slot(a - 4) == 7).count() >= 6);
        cases.push(colliding.clone());
        cases.push(colliding.iter().rev().copied().collect());
        for _ in 0..200 {
            let k = 1 + next(96) as usize;
            let span = 32 << next(12);
            cases.push(
                (0..k)
                    .map(|_| {
                        (
                            next(span),
                            [4, 8, 16, 4 * (1 + next(40) as u32)][next(4) as usize],
                        )
                    })
                    .collect(),
            );
        }
        // A fresh set per case, and one set reused across all of them (as
        // an SM reuses its own) whose generation wraps partway through.
        let mut reused = FirstTouch::default().with_generation(u32::MAX - 150);
        for (i, accesses) in cases.iter().enumerate() {
            for line in [32u32, 128] {
                let want = reference(accesses, line);
                assert_eq!(coalesce(accesses, line), want, "case {i}, {line} B lines");
                assert_eq!(
                    reused.coalesce(accesses, line.trailing_zeros()),
                    want,
                    "case {i}, {line} B lines, reused set"
                );
            }
        }
        assert!(reused.generation < 1000, "the generation wrapped");
        assert!(reference(&cases[2], 32).len() > SLOTS);
        assert!(reference(&cases[3], 32).len() > SLOTS);
    }
}
