//! Elastic Cuckoo Hashing page tables (Skarlatos et al., ASPLOS 2020;
//! paper §2, Fig. 9/13).
//!
//! ECH replaces the radix tree with d-ary cuckoo hash tables so a
//! translation needs no pointer chasing: the *d* candidate locations are
//! probed **in parallel**. The cost is issuing d (3 for a 4 KB-only
//! table; 4 when a 2 MB size class exists) concurrent memory accesses
//! per walk — latency is the max of the probes, but cache/DRAM traffic
//! and energy scale with their sum, which is how the paper explains
//! ECH's higher cache (+32 %) and DRAM (+14 %) energy and its net
//! performance loss at 0 % large pages.

use flatwalk_mem::MemoryHierarchy;
use flatwalk_pt::translate;
use flatwalk_types::rng::SplitMix64;
use flatwalk_types::{AccessKind, OwnerId, VirtAddr};

use crate::{Scheme, SchemeWalk, WalkCtx};

/// Behavioural model of an elastic cuckoo page table.
#[derive(Debug, Clone)]
pub struct EchScheme {
    /// Number of cuckoo ways probed for the 4 KB size class.
    ways: usize,
    /// Whether a separate 2 MB size-class table is also probed
    /// (the evaluation's 50 %/100 % LP scenarios).
    probe_2m: bool,
    /// Base physical address of each way's array.
    way_bases: Vec<u64>,
    /// Buckets per way (power of two).
    buckets: u64,
    hash_seeds: Vec<u64>,
}

impl EchScheme {
    /// Builds an ECH table sized for `footprint` bytes of 4 KB
    /// mappings with the canonical d = 3 ways at ~75 % occupancy.
    ///
    /// `probe_2m` adds the fourth concurrent probe used when the
    /// address space mixes 2 MB pages.
    pub fn new(footprint: u64, probe_2m: bool) -> Self {
        let pages = (footprint / 4096).max(1);
        // 8 entries of 8 B per 64 B bucket line; 1.33x headroom split
        // across 3 ways.
        let buckets = ((pages * 4 / 3) / 8).next_power_of_two().max(64);
        let ways = 3;
        // Place the ways in a reserved physical region far above the
        // data (the paper's OS must allocate these as large contiguous
        // blocks — the implementability critique of §2).
        let way_stride = buckets * 64;
        let base = 0x40_0000_0000u64;
        EchScheme {
            ways,
            probe_2m,
            way_bases: (0..ways as u64).map(|i| base + i * way_stride).collect(),
            buckets,
            hash_seeds: (0..ways as u64 + 1)
                .map(|i| 0x9E37 ^ (i * 0xABCD_EF01))
                .collect(),
        }
    }

    fn bucket_line(&self, way: usize, vpn: u64) -> u64 {
        let mut h = SplitMix64::new(vpn ^ self.hash_seeds[way]);
        self.way_bases[way] + (h.next_u64() & (self.buckets - 1)) * 64
    }
}

impl Scheme for EchScheme {
    fn label(&self) -> &'static str {
        "ECH"
    }

    fn walk(
        &mut self,
        ctx: &WalkCtx<'_>,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<SchemeWalk, flatwalk_pt::WalkError> {
        // The oracle provides the actual translation.
        let (pa, size) = translate(ctx.store, ctx.table, va)?;

        let vpn = va.raw() >> 12;
        let mut max_latency = 0u64;
        let mut accesses = 0u64;
        for way in 0..self.ways {
            let line = self.bucket_line(way, vpn);
            let out = hier.access(
                flatwalk_types::PhysAddr::new(line),
                AccessKind::PageTable,
                owner,
            );
            max_latency = max_latency.max(out.latency);
            accesses += 1;
        }
        if self.probe_2m {
            let vpn_2m = va.raw() >> 21;
            let line = self.bucket_line(0, vpn_2m ^ 0x5555_5555);
            let out = hier.access(
                flatwalk_types::PhysAddr::new(line),
                AccessKind::PageTable,
                owner,
            );
            max_latency = max_latency.max(out.latency);
            accesses += 1;
        }

        Ok(SchemeWalk {
            pa,
            size,
            latency: max_latency,
            accesses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_mem::HierarchyConfig;
    use flatwalk_pt::{BumpAllocator, FlattenEverywhere, FrameStore, Layout, Mapper};
    use flatwalk_types::{PageSize, PhysAddr};

    fn oracle() -> (FrameStore, Mapper) {
        let mut store = FrameStore::new();
        let mut alloc = BumpAllocator::new(0x1_0000_0000);
        let mut m = Mapper::new(
            &mut store,
            &mut alloc,
            Layout::conventional4(),
            &FlattenEverywhere,
        )
        .unwrap();
        for p in 0..16u64 {
            m.map(
                &mut store,
                &mut alloc,
                &FlattenEverywhere,
                VirtAddr::new(0x5000_0000 + p * 4096),
                PhysAddr::new(0x9_0000_0000 + p * 4096),
                PageSize::Size4K,
            )
            .unwrap();
        }
        (store, m)
    }

    #[test]
    fn three_parallel_probes_for_4k_only() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut ech = EchScheme::new(64 << 20, false);
        let va = VirtAddr::new(0x5000_2000);
        let w = ech.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(w.accesses, 3);
        assert_eq!(w.pa.raw(), 0x9_0000_2000);
        // Cold probes all go to DRAM; the *parallel* latency is one
        // DRAM round trip, not three.
        assert_eq!(w.latency, 200);
        // A repeat walk hits the cached bucket lines.
        let w2 = ech.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(w2.latency, hier.config().l1.latency);
    }

    #[test]
    fn mixed_page_sizes_probe_four_ways() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut ech = EchScheme::new(64 << 20, true);
        let w = ech
            .walk(&ctx, VirtAddr::new(0x5000_0000), &mut hier, OwnerId::SINGLE)
            .unwrap();
        assert_eq!(w.accesses, 4);
    }

    #[test]
    fn distinct_pages_probe_distinct_buckets() {
        let ech = EchScheme::new(64 << 20, false);
        let a = ech.bucket_line(0, 100);
        let b = ech.bucket_line(0, 101);
        assert_ne!(a, b, "adjacent VPNs should not collide in way 0");
        let c = ech.bucket_line(1, 100);
        assert_ne!(a, c, "ways use independent hash functions/regions");
    }
}
