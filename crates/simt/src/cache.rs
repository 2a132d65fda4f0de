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

/// Marks an invalid way's tag. Tags are line indices shifted past the set
/// bits; [`Cache::access`] rejects an address whose tag would reach it.
const INVALID: u32 = u32::MAX;

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    /// Set `s` occupies `sets[2·s·ways ..][..2·ways]`: its `ways` tags,
    /// then the `ways` stamps of their last accesses. An invalid way holds
    /// tag [`INVALID`] and stamp 0.
    sets: Vec<u32>,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    /// `log2(sets)`: a tag is the line index past its set bits.
    set_bits: u32,
    ways_per_set: usize,
    line_shift: u32,
    /// Stamp of the latest access. Stamps only order the ways of one set,
    /// so before it would wrap, [`Cache::renumber`] replaces each set's
    /// stamps by their ranks.
    tick: u32,
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
        let ways = ways as usize;
        let mut data = vec![0; 2 * ways * sets as usize];
        for set in data.chunks_exact_mut(2 * ways) {
            set[..ways].fill(INVALID);
        }
        Cache {
            sets: data,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            ways_per_set: ways,
            line_shift: line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probe the line containing `addr`; fill on miss. Returns `true` on hit.
    ///
    /// The victim of a miss is the first way holding the minimum stamp,
    /// i.e. the least recently used one (invalid ways carry stamp 0 and so
    /// fill first, lowest way first).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        if self.tick == u32::MAX {
            self.renumber();
        }
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let tag = line >> self.set_bits;
        assert!(tag < INVALID as u64, "address {addr:#x} past the tag range");
        let ways = self.ways_per_set;
        let base = (line & self.set_mask) as usize * 2 * ways;
        let set = &mut self.sets[base..base + 2 * ways];
        let (tag, tick) = (tag as u32, self.tick);
        let hit = match ways {
            4 => probe::<4>(set, tag, tick),
            8 => probe::<8>(set, tag, tick),
            16 => probe::<16>(set, tag, tick),
            _ => probe_any(set, tag, tick),
        };
        self.stats.hits += hit as u64;
        hit
    }

    /// Replace every set's stamps by their ranks within the set (invalid
    /// ways keep 0), so the tick restarts low with each set's recency
    /// order, and hence every later LRU decision, unchanged.
    #[cold]
    fn renumber(&mut self) {
        let ways = self.ways_per_set;
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for set in self.sets.chunks_exact_mut(2 * ways) {
            let stamps = &mut set[ways..];
            order.clear();
            order.extend((0..ways).filter(|&w| stamps[w] != 0));
            order.sort_unstable_by_key(|&w| stamps[w]);
            for (rank, &w) in order.iter().enumerate() {
                stamps[w] = rank as u32 + 1;
            }
        }
        self.tick = ways as u32;
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

    /// Start the tick at `tick`, so a short trace crosses a renumbering.
    #[cfg(test)]
    fn with_tick(mut self, tick: u32) -> Self {
        self.tick = tick;
        self
    }
}

/// Probe one `W`-way set (`W` tags, then `W` stamps) for `tag`, stamping
/// the hit way or refilling the victim with `tick`. The tag compare builds
/// a branch-free hit mask; a tag sits in at most one way of its set.
/// `W` is at most 32, the width of the masks.
#[inline(always)]
fn probe<const W: usize>(set: &mut [u32], tag: u32, tick: u32) -> bool {
    const { assert!(W <= 32) };
    let (tags, stamps) = set.split_at_mut(W);
    let tags: &mut [u32; W] = tags.try_into().expect("W tags");
    let stamps: &mut [u32; W] = stamps.try_into().expect("W stamps");
    let mut hits = 0u32;
    for (w, &t) in tags.iter().enumerate() {
        hits |= u32::from(t == tag) << w;
    }
    if hits != 0 {
        stamps[hits.trailing_zeros() as usize] = tick;
        return true;
    }
    // The victim: the first way holding the minimum stamp, again as a mask.
    let oldest = stamps.iter().fold(u32::MAX, |m, &s| m.min(s));
    let mut lru = 0u32;
    for (w, &stamp) in stamps.iter().enumerate() {
        lru |= u32::from(stamp == oldest) << w;
    }
    let victim = lru.trailing_zeros() as usize;
    tags[victim] = tag;
    stamps[victim] = tick;
    false
}

/// [`probe`] for any associativity.
fn probe_any(set: &mut [u32], tag: u32, tick: u32) -> bool {
    let (tags, stamps) = set.split_at_mut(set.len() / 2);
    if let Some(w) = tags.iter().position(|&t| t == tag) {
        stamps[w] = tick;
        return true;
    }
    let oldest = *stamps.iter().min().expect("a set has ways");
    let victim = stamps
        .iter()
        .position(|&s| s == oldest)
        .expect("a way is oldest");
    tags[victim] = tag;
    stamps[victim] = tick;
    false
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
                // From a fresh tick, from one that wraps at access 1001,
                // and from one that wraps at the first access.
                for start in [0, u32::MAX - 1000, u32::MAX] {
                    let mut cache = Cache::new(capacity, ways, line).with_tick(start);
                    let mut reference = ReferenceLru::new(capacity, ways, line);
                    assert_eq!(cache.num_sets() as usize, reference.sets.len());
                    for (t, &addr) in trace.iter().enumerate() {
                        assert_eq!(
                            cache.access(addr),
                            reference.access(addr),
                            "{capacity} B / {ways} ways / {line} B line, tick from {start}: \
                             access {t} at {addr}"
                        );
                    }
                    assert_eq!(cache.stats(), reference.stats);
                    assert!(cache.tick < u32::MAX - 1000 || start == 0);
                }
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
