//! Warp-level memory coalescing.
//!
//! The memory system serves line-sized transactions. When the lanes of a
//! warp issue loads in the same step, accesses falling in the same line are
//! merged into one transaction — the classic coalescing rule. The counting
//! kernel's outer loop (consecutive lanes read consecutive edge slots)
//! coalesces perfectly; the inner merge loop (each lane walks a different
//! adjacency list) mostly does not, which is precisely why the paper's
//! kernel is texture-cache-bound.

/// Slots in [`coalesce_into`]'s open-addressed first-touch set: 64, indexed
/// by the top 6 bits of a multiplicative hash, twice the lines it holds so
/// probe chains stay short.
const SET_SLOTS: usize = 64;

/// Distinct lines the set holds; lines touched after it fills are checked
/// by a linear scan of the overflow instead.
const SET_LINES: usize = SET_SLOTS / 2;

/// Collect the distinct line base addresses touched by a set of `(addr,
/// bytes)` accesses. Order of first touch is preserved (deterministic
/// timing: probe order drives the caches' LRU state), and a scratch buffer
/// is reused by the caller to avoid per-step allocation.
pub fn coalesce_into(accesses: &[(u64, u32)], line_bytes: u32, out: &mut Vec<u64>) {
    out.clear();
    let shift = line_bytes.trailing_zeros();
    // Line bases seen so far; `u64::MAX` marks an empty slot (a line base
    // has its low `shift` bits clear, so it is never `u64::MAX`).
    let mut seen = [u64::MAX; SET_SLOTS];
    for &(addr, bytes) in accesses {
        debug_assert!(bytes > 0);
        let first = addr >> shift;
        let last = (addr + bytes as u64 - 1) >> shift;
        for line in first..=last {
            let base = line << shift;
            let mut slot = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
            while seen[slot] != base && seen[slot] != u64::MAX {
                slot = (slot + 1) % SET_SLOTS;
            }
            if seen[slot] == base {
                continue; // touched earlier this step
            }
            if out.len() < SET_LINES {
                seen[slot] = base;
                out.push(base);
            } else if !out[SET_LINES..].contains(&base) {
                out.push(base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesce(accesses: &[(u64, u32)], line: u32) -> Vec<u64> {
        let mut out = Vec::new();
        coalesce_into(accesses, line, &mut out);
        out
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

    /// The O(k²) first-touch scan the set replaced, kept as the reference.
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
            // More distinct lines than the set holds: the overflow scan runs,
            // and lines first seen before it fills repeat after it.
            (0..100).map(|i| ((i % 70) * 4096, 4)).collect(),
            // One walk longer than the whole set.
            vec![(0, 4 * 1024), (512, 4), (4000, 8)],
        ];
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
        for (i, accesses) in cases.iter().enumerate() {
            for line in [32u32, 128] {
                assert_eq!(
                    coalesce(accesses, line),
                    reference(accesses, line),
                    "case {i}, {line} B lines"
                );
            }
        }
        assert!(reference(&cases[2], 32).len() > SET_LINES);
        assert!(reference(&cases[3], 32).len() > SET_LINES);
    }
}
