//! The timed native page-table walker.
//!
//! Each walk is one [`walk_radix`] call against the native table: a PSC
//! hit lets it skip the upper levels (paper §3.3), and every remaining
//! entry read is a 64 B access issued to the memory hierarchy with
//! [`flatwalk_types::AccessKind::PageTable`].

use flatwalk_mem::{HitLevel, MemoryHierarchy};
use flatwalk_obs::trace;
use flatwalk_pt::{FrameStore, PageTable, WalkError};
use flatwalk_tlb::{Pwc, PwcConfig};
use flatwalk_types::{OwnerId, PageSize, PhysAddr, VirtAddr};

use crate::kernel::{emit_walk, walk_radix, Recorder};

/// Where page-walk entry reads were served, by hierarchy level.
///
/// This is the per-level breakdown behind the paper's "every walk's a
/// hit" claim: under FPT+PTP the mass should sit in `l1`/`l2`, with
/// `dram` near zero after warmup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepHits {
    /// Entry reads served by the private L1.
    pub l1: u64,
    /// Entry reads served by the private L2.
    pub l2: u64,
    /// Entry reads served by the shared L3.
    pub l3: u64,
    /// Entry reads that went all the way to DRAM.
    pub dram: u64,
}

impl StepHits {
    /// Records one entry read served at `level`.
    pub fn record(&mut self, level: HitLevel) {
        match level {
            HitLevel::L1 => self.l1 += 1,
            HitLevel::L2 => self.l2 += 1,
            HitLevel::L3 => self.l3 += 1,
            HitLevel::Dram => self.dram += 1,
        }
    }

    /// Total entry reads recorded.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3 + self.dram
    }
}

/// Timing and result of one completed page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkTiming {
    /// The translated physical address (offset included).
    pub pa: PhysAddr,
    /// Granularity of the translation.
    pub size: PageSize,
    /// Memory-system accesses the walk performed (the paper's
    /// "memory requests per page walk", Fig. 1/10).
    pub accesses: u64,
    /// Total walk latency in cycles (PSC lookup + serial entry reads).
    pub latency: u64,
}

/// Cumulative walker statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Completed walks.
    pub walks: u64,
    /// Total memory accesses across all walks.
    pub accesses: u64,
    /// Total walk latency across all walks.
    pub latency: u64,
    /// Per-walk latency distribution (log-linear HDR-style buckets).
    pub latency_histogram: flatwalk_types::stats::LatencyHistogram,
    /// Where the walks' entry reads were served.
    pub step_hits: StepHits,
}

impl WalkerStats {
    /// Mean memory accesses per walk (0 when no walks happened).
    pub fn accesses_per_walk(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.accesses as f64 / self.walks as f64
        }
    }

    /// Mean walk latency in cycles (0 when no walks happened).
    pub fn latency_per_walk(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.latency as f64 / self.walks as f64
        }
    }

    /// Records one completed walk.
    pub fn record(&mut self, t: &WalkTiming) {
        self.walks += 1;
        self.accesses += t.accesses;
        self.latency += t.latency;
        self.latency_histogram.record(t.latency);
    }

    /// Median walk latency (bucket upper bound; 0 when no walks).
    pub fn latency_p50(&self) -> u64 {
        self.latency_histogram.p50()
    }

    /// 90th-percentile walk latency (bucket upper bound).
    pub fn latency_p90(&self) -> u64 {
        self.latency_histogram.p90()
    }

    /// 99th-percentile walk latency (bucket upper bound).
    pub fn latency_p99(&self) -> u64 {
        self.latency_histogram.p99()
    }

    /// 99.9th-percentile walk latency (bucket upper bound).
    pub fn latency_p999(&self) -> u64 {
        self.latency_histogram.p999()
    }
}

/// A hardware page-table walker with paging-structure caches.
#[derive(Debug, Clone)]
pub struct PageWalker {
    pwc: Pwc,
    stats: WalkerStats,
}

impl PageWalker {
    /// Creates a walker with the given PSC configuration.
    pub fn new(pwc: PwcConfig) -> Self {
        PageWalker {
            pwc: Pwc::new(pwc),
            stats: WalkerStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// Clears statistics (PSC contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = WalkerStats::default();
        self.pwc.reset_stats();
    }

    /// Empties the paging-structure caches (context switch without
    /// PCID-style tagging).
    pub fn flush(&mut self) {
        self.pwc.flush();
    }

    /// PSC hit/miss statistics per depth (widest prefix first).
    pub fn pwc_stats(&self) -> Vec<(u32, flatwalk_types::stats::HitMiss)> {
        self.pwc.stats()
    }

    /// Walks `table` for `va`, issuing entry reads through `hier`.
    ///
    /// One [`walk_radix`] call: a PSC hit skips the upper levels, and
    /// every remaining entry read goes through the hierarchy and trains
    /// the PSC as it is decoded.
    ///
    /// # Errors
    ///
    /// Propagates [`WalkError`] from the functional walk (absent entry,
    /// malformed table).
    pub fn walk(
        &mut self,
        store: &FrameStore,
        table: &PageTable,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<WalkTiming, WalkError> {
        self.walk_one(store, table, va, hier, owner, trace::walks_enabled())
    }

    /// One walk with the trace decision already made — the span kernels
    /// in `mmu.rs` hoist the gate out of their per-miss loop.
    pub(crate) fn walk_one(
        &mut self,
        store: &FrameStore,
        table: &PageTable,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
        tracing: bool,
    ) -> Result<WalkTiming, WalkError> {
        if tracing {
            self.walk_recorded::<true>(store, table, va, hier, owner)
        } else {
            self.walk_recorded::<false>(store, table, va, hier, owner)
        }
    }

    fn walk_recorded<const TRACED: bool>(
        &mut self,
        store: &FrameStore,
        table: &PageTable,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<WalkTiming, WalkError> {
        let mut steps = Vec::new();
        let mut recorder = Recorder::<TRACED> {
            hits: &mut self.stats.step_hits,
            steps: &mut steps,
        };
        let w = walk_radix(&mut self.pwc, store, table, va, hier, owner, &mut recorder)?;
        let timing = WalkTiming {
            pa: w.pa,
            size: w.size,
            accesses: w.accesses,
            latency: w.latency,
        };
        self.stats.record(&timing);
        if TRACED {
            emit_walk(store, table, va, w.psc_bits, w.accesses, w.latency, &steps);
        }
        Ok(timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_mem::HierarchyConfig;
    use flatwalk_pt::{BumpAllocator, FlattenEverywhere, Layout, Mapper};

    fn build(layout: Layout) -> (FrameStore, Mapper) {
        let mut store = FrameStore::new();
        let mut alloc = BumpAllocator::new(0x1_0000_0000);
        let mut m = Mapper::new(&mut store, &mut alloc, layout, &FlattenEverywhere).unwrap();
        for page in 0..64u64 {
            m.map(
                &mut store,
                &mut alloc,
                &FlattenEverywhere,
                VirtAddr::new(0x5000_0000 + page * 4096),
                PhysAddr::new(0x9_0000_0000 + page * 4096),
                PageSize::Size4K,
            )
            .unwrap();
        }
        (store, m)
    }

    #[test]
    fn conventional_walk_warms_to_single_access() {
        let (store, m) = build(Layout::conventional4());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = PageWalker::new(PwcConfig::server());

        let cold = w
            .walk(
                &store,
                m.table(),
                VirtAddr::new(0x5000_0000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(cold.accesses, 4, "cold walk reads all four levels");
        assert_eq!(cold.pa.raw(), 0x9_0000_0000);

        // A different page in the same 2 MB region: the 27-bit PSC entry
        // skips L4/L3/L2 → single access.
        let warm = w
            .walk(
                &store,
                m.table(),
                VirtAddr::new(0x5000_1000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(warm.accesses, 1);
        assert!(warm.latency < cold.latency);
    }

    #[test]
    fn flattened_walk_single_access_after_warmup() {
        let (store, m) = build(Layout::flat_l4l3_l2l1());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = PageWalker::new(PwcConfig::server());

        let cold = w
            .walk(
                &store,
                m.table(),
                VirtAddr::new(0x5000_0000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(cold.accesses, 2, "flattened cold walk is two accesses");

        // Any VA within the same 1 GB region (18-bit prefix) now takes a
        // single access — the paper's headline mechanism (§3.3).
        let warm = w
            .walk(
                &store,
                m.table(),
                VirtAddr::new(0x5000_3000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(warm.accesses, 1);
    }

    #[test]
    fn walk_latency_reflects_cache_hits() {
        let (store, m) = build(Layout::flat_l4l3_l2l1());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = PageWalker::new(PwcConfig::server());
        let va = VirtAddr::new(0x5000_0000);
        let cold = w
            .walk(&store, m.table(), va, &mut hier, OwnerId::SINGLE)
            .unwrap();
        // Second walk of the *same* VA: single access AND an L1 cache hit.
        let hot = w
            .walk(&store, m.table(), va, &mut hier, OwnerId::SINGLE)
            .unwrap();
        assert_eq!(hot.accesses, 1);
        assert_eq!(hot.latency, 1 + 4, "PSC lookup + L1 hit");
        assert!(cold.latency >= 2 * 200, "cold walk paid DRAM twice");
    }

    #[test]
    fn stats_accumulate() {
        let (store, m) = build(Layout::conventional4());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = PageWalker::new(PwcConfig::server());
        for page in 0..8u64 {
            w.walk(
                &store,
                m.table(),
                VirtAddr::new(0x5000_0000 + page * 4096),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        }
        let s = w.stats();
        assert_eq!(s.walks, 8);
        // First walk 4 accesses, subsequent 7 are single.
        assert_eq!(s.accesses, 4 + 7);
        assert!(s.accesses_per_walk() < 1.5);
        assert!(s.latency_per_walk() > 0.0);
    }

    #[test]
    fn unmapped_va_is_an_error() {
        let (store, m) = build(Layout::conventional4());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = PageWalker::new(PwcConfig::server());
        assert!(w
            .walk(
                &store,
                m.table(),
                VirtAddr::new(0x9999_0000_0000),
                &mut hier,
                OwnerId::SINGLE
            )
            .is_err());
    }
}
