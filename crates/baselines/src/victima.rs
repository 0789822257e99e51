//! Victima — TLB entries spilled into the L2 cache (Kanellopoulos et
//! al., MICRO 2023).
//!
//! Victima observes that L2 capacity is chronically underutilized for
//! translation-intensive workloads and repurposes ordinary L2 lines as
//! a large victim TLB: on an L2-TLB miss it probes a *cache-resident*
//! TLB entry (one line in the L2, no dedicated SRAM), and only a probe
//! miss falls back to a conventional radix walk. A PTW-cost predictor
//! gates insertion — entries are installed only for translations whose
//! walk was expensive, so cheap walks never pollute the L2.
//!
//! The model: TLB-entry lines live at synthetic physical addresses
//! (distinct from POM_TLB's reserved region) and are probed/installed
//! *directly in the L2* via [`MemoryHierarchy::probe_l2_resident`] /
//! [`MemoryHierarchy::install_l2_resident`] — no L1 allocation, no
//! lower-level fill traffic, matching the paper's L2-only placement. A
//! software directory tracks which VPNs have a live entry; an entry
//! whose line was evicted from the L2 by ordinary traffic is dead, as
//! in hardware. Installed lines carry page-table replacement priority
//! (the scheme leans on our PTP bias hooks the way Victima leans on its
//! own replacement hints).

use flatwalk_mem::MemoryHierarchy;
use flatwalk_mmu::walk_radix;
use flatwalk_pt::translate;
use flatwalk_tlb::{Pwc, PwcConfig};
use flatwalk_types::{OwnerId, PhysAddr, VirtAddr};

use crate::{Scheme, SchemeWalk, WalkCtx};

/// Synthetic base address of the cache-resident TLB-entry lines; keeps
/// them disjoint from data, page-table, and POM_TLB (0x80_0000_0000)
/// traffic.
const VICTIMA_BASE: u64 = 0x90_0000_0000;

/// Behavioural model of Victima's L2-resident TLB.
#[derive(Debug, Clone)]
pub struct VictimaScheme {
    /// Line-granular directory: per set, (vpn, stamp) pairs.
    dir: Vec<Vec<(u64, u64)>>,
    sets: u64,
    ways: usize,
    clock: u64,
    /// Fallback radix walker state.
    pwc: Pwc,
    /// PTW-cost predictor threshold: walks cheaper than this many
    /// cycles are not worth an L2 line.
    cost_threshold: u64,
    /// Probes answered by a live L2-resident entry.
    pub l2_entry_hits: u64,
    /// Probes that fell back to a radix walk.
    pub l2_entry_misses: u64,
    /// Entries installed into the L2 (walks above the cost threshold).
    pub installs: u64,
}

impl VictimaScheme {
    /// A Victima directory sized for `entries` translations (the paper
    /// evaluates up to 64K entries; 8 entries share a 64 B line's set),
    /// walking with the given PSC configuration on probe misses.
    pub fn new(entries: u64, pwc: PwcConfig) -> Self {
        let ways = 8;
        let sets = (entries / ways as u64).next_power_of_two().max(64);
        VictimaScheme {
            dir: vec![Vec::new(); sets as usize],
            sets,
            ways,
            clock: 0,
            pwc: Pwc::new(pwc),
            cost_threshold: 0,
            l2_entry_hits: 0,
            l2_entry_misses: 0,
            installs: 0,
        }
    }

    /// Sets the PTW-cost predictor threshold (cycles a walk must cost
    /// before its translation earns an L2 line). The default of 0
    /// installs every walked translation.
    pub fn with_cost_threshold(mut self, cycles: u64) -> Self {
        self.cost_threshold = cycles;
        self
    }

    fn set_of(&self, vpn: u64) -> u64 {
        vpn & (self.sets - 1)
    }

    fn line_of(&self, vpn: u64) -> PhysAddr {
        PhysAddr::new(VICTIMA_BASE + self.set_of(vpn) * 64)
    }

    /// Whether the directory holds a live entry for `vpn` (refreshes
    /// its stamp when it does).
    fn dir_probe(&mut self, vpn: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(vpn) as usize;
        if let Some(e) = self.dir[set].iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = clock;
            return true;
        }
        false
    }

    /// Records `vpn` in the directory (LRU within its set).
    fn dir_insert(&mut self, vpn: u64) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(vpn) as usize;
        let entries = &mut self.dir[set];
        if let Some(e) = entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = clock;
            return;
        }
        if entries.len() >= self.ways {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty");
            entries.swap_remove(victim);
        }
        entries.push((vpn, clock));
    }
}

impl Scheme for VictimaScheme {
    fn label(&self) -> &'static str {
        "Victima"
    }

    fn wants_priority(&self) -> bool {
        // Victima's replacement hints keep TLB-entry lines alive in the
        // L2; our PTP bias machinery plays that role.
        true
    }

    fn context_switch(&mut self) {
        // The L2-resident entries are tagged (they survive switches,
        // like any cached page-table line); only the PSC flushes.
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
        let line = self.line_of(vpn);

        // L2-only probe for the cache-resident entry. The entry is live
        // only if the directory knows the VPN *and* its line is still
        // in the L2 (ordinary traffic may have evicted it).
        if self.dir_probe(vpn) {
            if let Some(latency) = hier.probe_l2_resident(line, owner) {
                self.l2_entry_hits += 1;
                let (pa, size) = translate(ctx.store, ctx.table, va)?;
                return Ok(SchemeWalk {
                    pa,
                    size,
                    latency,
                    accesses: 1,
                });
            }
        }
        self.l2_entry_misses += 1;

        // Conventional radix walk, PSC-accelerated (the probe itself
        // cost one L2 lookup).
        let w = walk_radix(
            &mut self.pwc,
            ctx.store,
            ctx.table,
            va,
            hier,
            owner,
            &mut (),
        )?;
        let latency = hier.config().l2.latency + w.latency;

        // PTW-cost predictor: only walks worth avoiding earn a line.
        if latency >= self.cost_threshold {
            self.dir_insert(vpn);
            hier.install_l2_resident(line, owner);
            self.installs += 1;
        }

        Ok(SchemeWalk {
            latency,
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
    use flatwalk_types::{AccessKind, PageSize};

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
    fn cold_walk_installs_then_hits_at_l2_latency() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut v = VictimaScheme::new(1 << 10, PwcConfig::server());
        let va = VirtAddr::new(0x5000_3000);

        let cold = v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert!(cold.accesses >= 5, "probe + 4-level walk");
        assert_eq!(v.l2_entry_misses, 1);
        assert_eq!(v.installs, 1);

        let hot = v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(hot.accesses, 1, "single L2-resident entry probe");
        assert_eq!(hot.latency, hier.config().l2.latency);
        assert_eq!(v.l2_entry_hits, 1);
        assert_eq!(hot.pa, cold.pa);
    }

    #[test]
    fn cost_threshold_gates_installs() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        // An impossibly high threshold: nothing is ever installed.
        let mut v = VictimaScheme::new(1 << 10, PwcConfig::server()).with_cost_threshold(u64::MAX);
        let va = VirtAddr::new(0x5000_3000);
        v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(v.installs, 0);
        assert_eq!(v.l2_entry_hits, 0);
        assert_eq!(v.l2_entry_misses, 2, "every probe falls back to a walk");
    }

    #[test]
    fn entry_dies_when_its_line_is_evicted() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        // Tiny L2 so ordinary traffic evicts the resident entry.
        let mut cfg = HierarchyConfig::server();
        cfg.l2 = flatwalk_mem::CacheConfig::new("L2", 4 << 10, 4, 12).with_pt_priority(true);
        let mut hier = MemoryHierarchy::new(cfg);
        let mut v = VictimaScheme::new(1 << 10, PwcConfig::server());
        let va = VirtAddr::new(0x5000_3000);
        v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        // Blast the L2 with data lines (64 sets x 4 ways = 256 lines).
        for i in 0..1024u64 {
            hier.access(
                PhysAddr::new(0x2000_0000 + i * 64),
                AccessKind::Data,
                OwnerId::SINGLE,
            );
        }
        let again = v.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert!(again.accesses > 1, "evicted entry forces a re-walk");
        assert_eq!(v.l2_entry_misses, 2);
    }
}
