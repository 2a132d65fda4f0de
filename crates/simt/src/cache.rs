//! Set-associative LRU cache model.
//!
//! Used for both the per-SM read-only (texture) cache — the §III-D4
//! optimization — and the per-SM slice of the device L2. Tracks the hit/miss
//! statistics reported in Table II. The model is a plain tag array: no MSHRs
//! or sector states; one probe per line-sized transaction.

/// Hit/miss counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
}

impl CacheStats {
    #[inline]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    pub fn merge(&mut self, other: CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
    }
}

/// One way of a set: its line tag and the stamp of its last access.
#[derive(Clone, Copy, Debug)]
struct Way {
    /// `u64::MAX` = invalid (a line index never reaches it).
    tag: u64,
    /// Monotone per-access stamp for LRU.
    stamp: u64,
}

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    /// `ways[set * ways_per_set + way]`.
    ways: Vec<Way>,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    ways_per_set: usize,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with the given associativity and
    /// line size. Capacity must be a multiple of `ways * line_bytes`; the
    /// set count is rounded down to a power of two (hardware-style index
    /// extraction).
    pub fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes).max(ways);
        // Round the set count *down* to a power of two (hardware index bits).
        let raw_sets = (lines / ways).max(1);
        let sets = 1u32 << (31 - raw_sets.leading_zeros());
        debug_assert!(sets.is_power_of_two());
        let invalid = Way {
            tag: u64::MAX,
            stamp: 0,
        };
        Cache {
            ways: vec![invalid; (sets * ways) as usize],
            set_mask: sets as u64 - 1,
            ways_per_set: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probe the line containing `addr`; fill on miss. Returns `true` on hit.
    ///
    /// One scan over the set finds either the hit or the victim: the first
    /// way holding the minimum stamp, i.e. the least recently used one
    /// (invalid ways carry stamp 0 and so fill first, lowest way first).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways_per_set;
        let set = &mut self.ways[base..base + self.ways_per_set];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, way) in set.iter_mut().enumerate() {
            if way.tag == line {
                way.stamp = self.tick;
                self.stats.hits += 1;
                return true;
            }
            if way.stamp < oldest {
                oldest = way.stamp;
                victim = w;
            }
        }
        set[victim] = Way {
            tag: line,
            stamp: self.tick,
        };
        false
    }

    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of sets (for tests).
    pub fn num_sets(&self) -> u32 {
        (self.set_mask + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 4, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same line
        assert!(!c.access(32)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 sets? Force a single set: capacity = ways * line -> sets = 1.
        let mut c = Cache::new(2 * 32, 2, 32);
        assert_eq!(c.num_sets(), 1);
        c.access(0); // A
        c.access(64); // B (same set, way 2)
        c.access(0); // A again: A is MRU
        c.access(128); // C evicts B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(64), "B was evicted");
    }

    #[test]
    fn capacity_bound_working_set_always_hits_after_warmup() {
        let mut c = Cache::new(4096, 4, 32);
        let lines: Vec<u64> = (0..64).map(|i| i * 32).collect(); // 2 KiB
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..4 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut c = Cache::new(1024, 4, 32); // 32 lines
        let lines: Vec<u64> = (0..256).map(|i| i * 32).collect(); // 8 KiB
        for _ in 0..3 {
            for &a in &lines {
                c.access(a);
            }
        }
        assert!(c.stats().hit_rate() < 0.1, "rate {}", c.stats().hit_rate());
    }

    /// Naive true-LRU reference: each set is a recency list, least recent
    /// first. Its set count is derived independently of [`Cache::new`].
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line_bytes: u64,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
            let lines = (capacity_bytes / line_bytes).max(ways);
            let mut sets = 1;
            while sets * 2 <= lines / ways {
                sets *= 2;
            }
            ReferenceLru {
                sets: vec![Vec::new(); sets as usize],
                ways: ways as usize,
                line_bytes: line_bytes as u64,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stats.accesses += 1;
            let line = addr / self.line_bytes;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let hit = if let Some(i) = set.iter().position(|&l| l == line) {
                set.remove(i);
                self.stats.hits += 1;
                true
            } else {
                if set.len() == self.ways {
                    set.remove(0);
                }
                false
            };
            set.push(line);
            hit
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Seeded random traces over a footprint a few times the capacity, and
    /// same-set thrash traces cycling and randomly picking among `ways + k`
    /// lines that all map to one set.
    fn traces(cache: &Cache, capacity: u32, line: u32, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = seed;
        let footprint = 4 * capacity.max(line) as u64;
        let random: Vec<u64> = (0..4000).map(|_| splitmix(&mut rng) % footprint).collect();
        let (sets, line) = (cache.num_sets() as u64, line as u64);
        let ways = cache.ways_per_set as u64;
        let mut out = vec![random];
        for extra in [0u64, 1, 3] {
            let lines = ways + extra;
            let set = splitmix(&mut rng) % sets;
            // Line `set + k·sets`, at an offset that varies within the line.
            let addr = |k: u64| (set + k * sets) * line + k % line;
            out.push((0..2000).map(|i| addr(i % lines)).collect());
            out.push(
                (0..2000)
                    .map(|_| addr(splitmix(&mut rng) % lines))
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn matches_a_naive_true_lru_reference() {
        use crate::config::DeviceConfig;
        let mut geometries = Vec::new();
        for cfg in [
            DeviceConfig::tesla_c2050(),
            DeviceConfig::gtx_980(),
            DeviceConfig::nvs_5200m(),
        ] {
            geometries.push((cfg.tex_cache_bytes, cfg.tex_cache_ways, cfg.line_bytes));
            geometries.push((cfg.l2_slice_bytes(), cfg.l2_cache_ways, cfg.line_bytes));
        }
        for ways in [1u32, 2, 4, 8, 16] {
            for capacity in [ways * 32, 1024, 3000] {
                geometries.push((capacity, ways, 32));
            }
        }
        // c2050's L2 slice (64 KB over 14 SMs) has 18 sets, rounded to 16.
        let c2050 = DeviceConfig::tesla_c2050();
        let slice = Cache::new(
            c2050.l2_slice_bytes(),
            c2050.l2_cache_ways,
            c2050.line_bytes,
        );
        assert_eq!(slice.num_sets(), 16);

        for (i, &(capacity, ways, line)) in geometries.iter().enumerate() {
            let probe = Cache::new(capacity, ways, line);
            for trace in traces(&probe, capacity, line, 17 + i as u64) {
                let mut cache = Cache::new(capacity, ways, line);
                let mut reference = ReferenceLru::new(capacity, ways, line);
                assert_eq!(cache.num_sets() as usize, reference.sets.len());
                for (t, &addr) in trace.iter().enumerate() {
                    assert_eq!(
                        cache.access(addr),
                        reference.access(addr),
                        "{capacity} B / {ways} ways / {line} B line: access {t} at {addr}"
                    );
                }
                assert_eq!(cache.stats(), reference.stats);
            }
        }
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 7,
        };
        a.merge(CacheStats {
            accesses: 10,
            hits: 1,
        });
        assert_eq!(a.accesses, 20);
        assert_eq!(a.hits, 8);
        assert_eq!(a.misses(), 12);
        assert!((a.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
