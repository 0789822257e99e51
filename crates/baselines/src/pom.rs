//! POM_TLB — a very large part-of-memory TLB (Ryoo et al., ISCA 2017)
//! and CSALT, its context-switch-aware cache-prioritization extension
//! (Marathe et al., MICRO 2017). Paper §2, Fig. 9/13.
//!
//! POM_TLB reserves a contiguous DRAM region at boot as a giant
//! set-associative TLB. A translation that misses the on-chip TLBs
//! makes a *single* memory access into that region (the line is
//! cacheable); only a POM-TLB miss falls back to a conventional radix
//! walk. CSALT adds replacement-policy bias so the DRAM-TLB's lines
//! survive in the caches.

use flatwalk_mem::MemoryHierarchy;
use flatwalk_mmu::walk_radix;
use flatwalk_pt::translate;
use flatwalk_tlb::{Pwc, PwcConfig};
use flatwalk_types::{AccessKind, OwnerId, PhysAddr, VirtAddr};

use crate::{Scheme, SchemeWalk, WalkCtx};

/// Behavioural model of the in-DRAM TLB (optionally with CSALT's cache
/// prioritization).
#[derive(Debug, Clone)]
pub struct PomTlbScheme {
    label: &'static str,
    base: u64,
    sets: u64,
    ways: usize,
    /// Directory of resident translations: per set, (vpn, stamp).
    dir: Vec<Vec<(u64, u64)>>,
    clock: u64,
    /// Fallback radix walker state.
    pwc: Pwc,
    csalt: bool,
    /// Statistics: hits/misses in the DRAM TLB.
    pub dram_tlb_hits: u64,
    /// DRAM-TLB misses (conventional walks taken).
    pub dram_tlb_misses: u64,
}

impl PomTlbScheme {
    /// A POM_TLB covering `bytes` of reserved DRAM (the papers use
    /// 16–64 MB), 4-way associative, 4 entries (16 B) per 64 B line.
    pub fn new(bytes: u64, pwc: PwcConfig) -> Self {
        let lines = (bytes / 64).next_power_of_two().max(64);
        let ways = 4;
        // One line holds one set's 4 x 16 B entries.
        let sets = lines;
        PomTlbScheme {
            label: "POM_TLB",
            base: 0x80_0000_0000,
            sets,
            ways,
            dir: vec![Vec::new(); sets as usize],
            clock: 0,
            pwc: Pwc::new(pwc),
            csalt: false,
            dram_tlb_hits: 0,
            dram_tlb_misses: 0,
        }
    }

    /// Converts this POM_TLB into the CSALT configuration (adds cache
    /// prioritization of the DRAM-TLB lines).
    pub fn csalt(mut self) -> Self {
        self.label = "CSALT";
        self.csalt = true;
        self
    }

    fn set_of(&self, vpn: u64) -> u64 {
        vpn & (self.sets - 1)
    }

    fn line_of(&self, vpn: u64) -> PhysAddr {
        PhysAddr::new(self.base + self.set_of(vpn) * 64)
    }

    /// Probes the directory; fills on miss. Returns whether it hit.
    fn probe_dir(&mut self, vpn: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(vpn) as usize;
        let ways = self.ways;
        let entries = &mut self.dir[set];
        if let Some(e) = entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = clock;
            return true;
        }
        if entries.len() >= ways {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty");
            entries.swap_remove(victim);
        }
        entries.push((vpn, clock));
        false
    }
}

impl Scheme for PomTlbScheme {
    fn label(&self) -> &'static str {
        self.label
    }

    fn wants_priority(&self) -> bool {
        self.csalt
    }

    fn context_switch(&mut self) {
        // Only the on-chip fallback PSC flushes; the in-DRAM TLB (and
        // its cached lines) survive — POM_TLB/CSALT's selling point.
        self.pwc.flush();
    }

    fn walk(
        &mut self,
        ctx: &WalkCtx<'_>,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<SchemeWalk, flatwalk_pt::WalkError> {
        let vpn = va.raw() >> 12;

        // One access into the in-DRAM TLB (cacheable).
        let line = self.line_of(vpn);
        let out = hier.access(line, AccessKind::PageTable, owner);

        if self.probe_dir(vpn) {
            self.dram_tlb_hits += 1;
            let (pa, size) = translate(ctx.store, ctx.table, va)?;
            return Ok(SchemeWalk {
                pa,
                size,
                latency: out.latency,
                accesses: 1,
            });
        }
        self.dram_tlb_misses += 1;
        // Conventional radix walk, PWC-accelerated. The translation is
        // then installed into the DRAM TLB (a write to the same line —
        // it is already cached from the probe; no extra traffic
        // charged).
        let w = walk_radix(
            &mut self.pwc,
            ctx.store,
            ctx.table,
            va,
            hier,
            owner,
            &mut (),
        )?;
        Ok(SchemeWalk {
            latency: out.latency + w.latency,
            accesses: 1 + w.accesses,
            ..w.into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_mem::HierarchyConfig;
    use flatwalk_pt::{BumpAllocator, FlattenEverywhere, FrameStore, Layout, Mapper};
    use flatwalk_types::PageSize;

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
        for p in 0..64u64 {
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
    fn cold_miss_walks_then_hot_hit_is_single_access() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut pom = PomTlbScheme::new(16 << 20, PwcConfig::server());
        let va = VirtAddr::new(0x5000_3000);
        let cold = pom.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert!(cold.accesses >= 5, "probe + 4-level walk");
        assert_eq!(pom.dram_tlb_misses, 1);

        let hot = pom.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(hot.accesses, 1, "single cached DRAM-TLB access");
        assert_eq!(hot.latency, hier.config().l1.latency);
        assert_eq!(pom.dram_tlb_hits, 1);
        assert_eq!(hot.pa, cold.pa);
    }

    #[test]
    fn set_associative_eviction() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        // Tiny POM_TLB: 64 lines x 4 ways.
        let mut pom = PomTlbScheme::new(64 * 64, PwcConfig::server());
        // Walk 5 VAs that collide in set 0 … vpn multiples of 64.
        // Our oracle only maps 64 pages, so reuse within it: vpn stride
        // equals the set count → all map to the same set.
        let vas: Vec<VirtAddr> = (0..5u64)
            .map(|i| VirtAddr::new(0x5000_0000 + i * 64 * 4096))
            .collect();
        // Only the first VA is mapped in the oracle; walk it and 4
        // synthetic collisions via direct directory probes instead.
        pom.walk(&ctx, vas[0], &mut hier, OwnerId::SINGLE).unwrap();
        for i in 1..5u64 {
            pom.probe_dir((0x5000_0000u64 >> 12) + i * 64);
        }
        // The original vpn was LRU → evicted → next walk misses again.
        pom.walk(&ctx, vas[0], &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(pom.dram_tlb_misses, 2);
    }

    #[test]
    fn csalt_wants_priority() {
        let pom = PomTlbScheme::new(16 << 20, PwcConfig::server());
        assert!(!pom.wants_priority());
        assert_eq!(pom.label(), "POM_TLB");
        let csalt = pom.csalt();
        assert!(csalt.wants_priority());
        assert_eq!(csalt.label(), "CSALT");
    }
}
