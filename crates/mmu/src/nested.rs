//! The timed two-dimensional (virtualized) page walker (paper §4).
//!
//! A guest translation walks the guest page table (gVA→gPA), but every
//! guest-table access itself needs a host translation (gPA→hPA), and the
//! final guest-physical data address needs one more. Naively that is
//! (4+1)×4 + 4 = 24 memory accesses; the nested TLB caches gPA→hPA page
//! translations, the guest PSC skips guest levels, and the vPWC skips
//! host levels (Fig. 8).

use flatwalk_mem::{HitLevel, MemoryHierarchy};
use flatwalk_obs::trace;
use flatwalk_pt::{FrameStore, PageTable, WalkError, WalkStep};
use flatwalk_tlb::{NestedTlb, Pwc, PwcConfig};
use flatwalk_types::{OwnerId, PageSize, PhysAddr, VirtAddr};

use crate::kernel::{emit_walk, walk_radix, Recorder};
use crate::{StepHook, WalkTiming, WalkerStats};

/// The two page tables of a virtualized address space.
///
/// The guest table translates gVA→gPA and its contents live in the guest
/// frame store (addressed by gPA); the host table translates gPA→hPA and
/// lives in the host store (addressed by hPA, i.e. system physical
/// memory, which is what the cache hierarchy is indexed by).
#[derive(Debug)]
pub struct NestedTables<'a> {
    /// Guest page-table contents, addressed by guest-physical address.
    pub guest_store: &'a FrameStore,
    /// The guest table (gVA→gPA).
    pub guest_table: &'a PageTable,
    /// Host page-table contents, addressed by host-physical address.
    pub host_store: &'a FrameStore,
    /// The host table (gPA→hPA).
    pub host_table: &'a PageTable,
}

/// Statistics of the nested walker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestedWalkerStats {
    /// Walk-level statistics (accesses include guest and host entry
    /// reads).
    pub walks: WalkerStats,
    /// Host translations requested (guest-entry accesses + final data).
    pub nested_translations: u64,
    /// Host translations that missed the nested TLB and walked the host
    /// table.
    pub host_walks: u64,
}

/// The 2-D walker: guest PSC + vPWC + nested TLB.
#[derive(Debug, Clone)]
pub struct NestedWalker {
    guest_pwc: Pwc,
    host_pwc: Pwc,
    nested_tlb: NestedTlb,
    stats: NestedWalkerStats,
}

impl NestedWalker {
    /// Creates a nested walker.
    ///
    /// `guest_pwc` caches guest-walk prefixes (keyed by gVA), `host_pwc`
    /// is the vPWC (keyed by gPA), and the nested TLB holds gPA→hPA page
    /// translations (Table 1: 16-entry fully associative, 1 cycle).
    pub fn new(guest_pwc: PwcConfig, host_pwc: PwcConfig, nested_entries: usize) -> Self {
        NestedWalker {
            guest_pwc: Pwc::new(guest_pwc),
            host_pwc: Pwc::new(host_pwc),
            nested_tlb: NestedTlb::new(nested_entries, 1),
            stats: NestedWalkerStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NestedWalkerStats {
        self.stats
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        self.stats = NestedWalkerStats::default();
        self.guest_pwc.reset_stats();
        self.host_pwc.reset_stats();
        self.nested_tlb.reset_stats();
    }

    /// Empties the PSCs and the nested TLB (world switch).
    pub fn flush(&mut self) {
        self.guest_pwc.flush();
        self.host_pwc.flush();
        self.nested_tlb.flush();
    }

    /// Performs a full 2-D walk of `gva`.
    ///
    /// Returns the *host-physical* translation; `size` is the effective
    /// TLB-insertable granularity (the smaller of the guest and host
    /// mapping sizes, since the combined translation is only linear
    /// within both).
    ///
    /// # Errors
    ///
    /// Propagates guest or host [`WalkError`]s.
    pub fn walk(
        &mut self,
        tables: &NestedTables<'_>,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<WalkTiming, WalkError> {
        self.walk_one(tables, gva, hier, owner, trace::walks_enabled())
    }

    /// One 2-D walk with the trace decision already made — the batched
    /// nested-walk kernel entry: the `Mmu` span kernels hoist the trace
    /// gate once per span and drive every nested-backend TLB miss
    /// through here, so batching applies to virtualized configurations
    /// exactly as it does to native ones.
    ///
    /// The guest walk is one [`walk_radix`] call whose step hook
    /// host-translates each guest entry address before its read (nested
    /// TLB, then a vPWC-accelerated host [`walk_radix`] on a miss); the
    /// guest PSC and the vPWC short-circuit their functional walks.
    pub(crate) fn walk_one(
        &mut self,
        tables: &NestedTables<'_>,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
        tracing: bool,
    ) -> Result<WalkTiming, WalkError> {
        if tracing {
            self.walk_recorded::<true>(tables, gva, hier, owner)
        } else {
            self.walk_recorded::<false>(tables, gva, hier, owner)
        }
    }

    fn walk_recorded<const TRACED: bool>(
        &mut self,
        tables: &NestedTables<'_>,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<WalkTiming, WalkError> {
        let NestedWalker {
            guest_pwc,
            host_pwc,
            nested_tlb,
            stats,
        } = self;
        let mut steps = Vec::new();
        let mut host = HostTranslator {
            host_pwc,
            nested_tlb,
            tables,
            owner,
            nested_translations: &mut stats.nested_translations,
            host_walks: &mut stats.host_walks,
            recorder: Recorder::<TRACED> {
                hits: &mut stats.walks.step_hits,
                steps: &mut steps,
            },
            latency: 0,
            accesses: 0,
        };
        let guest = walk_radix(
            guest_pwc,
            tables.guest_store,
            tables.guest_table,
            gva,
            hier,
            owner,
            &mut host,
        )?;
        // Final host translation of the data's guest-physical address.
        let (pa, host_size) = host.translate(PhysAddr::new(guest.pa.raw()), hier)?;
        let latency = guest.latency + host.latency;
        let accesses = guest.accesses + host.accesses;

        // Effective granularity: both mappings must be linear across the
        // page for the TLB entry to be valid.
        let size = guest.size.min(host_size);

        let timing = WalkTiming {
            pa,
            size,
            accesses,
            latency,
        };
        stats.walks.record(&timing);
        if TRACED {
            emit_walk(
                tables.guest_store,
                tables.guest_table,
                gva,
                guest.psc_bits,
                accesses,
                latency,
                &steps,
            );
        }
        Ok(timing)
    }
}

/// The guest walk's step hook: each guest entry lives at a
/// guest-physical address, so it is host-translated before its read.
/// Host-side latency and entry reads accumulate here, outside the guest
/// kernel's own totals.
struct HostTranslator<'a, 't, const TRACED: bool> {
    host_pwc: &'a mut Pwc,
    nested_tlb: &'a mut NestedTlb,
    tables: &'a NestedTables<'t>,
    owner: OwnerId,
    nested_translations: &'a mut u64,
    host_walks: &'a mut u64,
    recorder: Recorder<'a, TRACED>,
    latency: u64,
    accesses: u64,
}

impl<const TRACED: bool> HostTranslator<'_, '_, TRACED> {
    /// Translates `gpa` via the nested TLB, falling back to a host walk
    /// accelerated by the vPWC.
    fn translate(
        &mut self,
        gpa: PhysAddr,
        hier: &mut MemoryHierarchy,
    ) -> Result<(PhysAddr, PageSize), WalkError> {
        *self.nested_translations += 1;
        self.latency += self.nested_tlb.latency();
        if let Some(hit) = self.nested_tlb.lookup(gpa) {
            return Ok(hit);
        }
        *self.host_walks += 1;
        let host = walk_radix(
            self.host_pwc,
            self.tables.host_store,
            self.tables.host_table,
            gpa.as_nested_input(),
            hier,
            self.owner,
            &mut self.recorder,
        )?;
        self.latency += host.latency;
        self.accesses += host.accesses;
        self.nested_tlb
            .insert(gpa, host.pa.align_down(host.size), host.size);
        Ok((host.pa, host.size))
    }
}

impl<const TRACED: bool> StepHook for HostTranslator<'_, '_, TRACED> {
    #[inline]
    fn entry_addr(
        &mut self,
        step: &WalkStep,
        hier: &mut MemoryHierarchy,
    ) -> Result<PhysAddr, WalkError> {
        self.translate(PhysAddr::new(step.entry_pa.raw()), hier)
            .map(|(hpa, _)| hpa)
    }

    #[inline]
    fn observe(
        &mut self,
        step: &WalkStep,
        addr: PhysAddr,
        level: HitLevel,
        hier: &mut MemoryHierarchy,
    ) {
        self.recorder.observe(step, addr, level, hier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_mem::HierarchyConfig;
    use flatwalk_pt::{BumpAllocator, FlattenEverywhere, Layout, Mapper};

    /// Builds a virtualized setup: the guest maps gVA→gPA, the host maps
    /// every guest-physical page (data *and* guest page-table frames).
    fn build(
        guest_layout: Layout,
        host_layout: Layout,
        pages: u64,
    ) -> (FrameStore, PageTable, FrameStore, PageTable) {
        let mut gstore = FrameStore::new();
        let mut galloc = BumpAllocator::new(0x1000_0000);
        let mut gmap =
            Mapper::new(&mut gstore, &mut galloc, guest_layout, &FlattenEverywhere).unwrap();
        for p in 0..pages {
            gmap.map(
                &mut gstore,
                &mut galloc,
                &FlattenEverywhere,
                VirtAddr::new(0x4000_0000 + p * 4096),
                PhysAddr::new(0x2000_0000 + p * 4096),
                PageSize::Size4K,
            )
            .unwrap();
        }

        let mut hstore = FrameStore::new();
        let mut halloc = BumpAllocator::new(0x40_0000_0000);
        let mut hmap =
            Mapper::new(&mut hstore, &mut halloc, host_layout, &FlattenEverywhere).unwrap();
        // Identity-plus-offset host mapping covering all guest-physical
        // space the guest uses (PT frames near 256 MB, data near 512 MB),
        // 4 KB granularity.
        for gfn in 0..0x2_1000u64 {
            hmap.map(
                &mut hstore,
                &mut halloc,
                &FlattenEverywhere,
                VirtAddr::new(gfn * 4096),
                PhysAddr::new(0x10_0000_0000 + gfn * 4096),
                PageSize::Size4K,
            )
            .unwrap();
        }
        (gstore, *gmap.table(), hstore, *hmap.table())
    }

    #[test]
    fn cold_2d_walk_costs_many_accesses_and_warms_down() {
        let (gstore, gtable, hstore, htable) =
            build(Layout::conventional4(), Layout::conventional4(), 64);
        let tables = NestedTables {
            guest_store: &gstore,
            guest_table: &gtable,
            host_store: &hstore,
            host_table: &htable,
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = NestedWalker::new(PwcConfig::server(), PwcConfig::server(), 16);

        let cold = w
            .walk(
                &tables,
                VirtAddr::new(0x4000_0000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert!(
            cold.accesses > 10,
            "cold 2-D walk should approach the naive 24 accesses (got {})",
            cold.accesses
        );
        assert_eq!(cold.pa.raw(), 0x10_0000_0000 + 0x2000_0000);

        let warm = w
            .walk(
                &tables,
                VirtAddr::new(0x4000_1000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert!(
            warm.accesses <= 3,
            "PWCs + nested TLB should cut the warm walk to a few accesses (got {})",
            warm.accesses
        );
    }

    #[test]
    fn flattening_guest_and_host_reduces_accesses() {
        let (gstore, gtable, hstore, htable) =
            build(Layout::flat_l4l3_l2l1(), Layout::flat_l4l3_l2l1(), 64);
        let tables = NestedTables {
            guest_store: &gstore,
            guest_table: &gtable,
            host_store: &hstore,
            host_table: &htable,
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = NestedWalker::new(PwcConfig::server(), PwcConfig::server(), 16);

        let cold = w
            .walk(
                &tables,
                VirtAddr::new(0x4000_0000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert!(
            cold.accesses <= 8,
            "flattening both tables bounds the naive walk at 8 (got {})",
            cold.accesses
        );
        // Warm: guest PSC hit (1 guest access) + final host translation.
        let warm = w
            .walk(
                &tables,
                VirtAddr::new(0x4000_1000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert!(
            warm.accesses <= 3,
            "flattened warm 2-D walk should be ~2-3 accesses (got {})",
            warm.accesses
        );
    }

    #[test]
    fn effective_size_is_min_of_guest_and_host() {
        // Guest maps a 2 MB page; host backs it with 4 KB pages → the
        // combined translation is only linear at 4 KB granularity.
        let mut gstore = FrameStore::new();
        let mut galloc = BumpAllocator::new(0x1000_0000);
        let mut gmap = Mapper::new(
            &mut gstore,
            &mut galloc,
            Layout::conventional4(),
            &FlattenEverywhere,
        )
        .unwrap();
        gmap.map(
            &mut gstore,
            &mut galloc,
            &FlattenEverywhere,
            VirtAddr::new(0x4000_0000),
            PhysAddr::new(0x20_0000),
            PageSize::Size2M,
        )
        .unwrap();

        let mut hstore = FrameStore::new();
        let mut halloc = BumpAllocator::new(0x40_0000_0000);
        let mut hmap = Mapper::new(
            &mut hstore,
            &mut halloc,
            Layout::conventional4(),
            &FlattenEverywhere,
        )
        .unwrap();
        for gfn in 0..0x1_1000u64 {
            hmap.map(
                &mut hstore,
                &mut halloc,
                &FlattenEverywhere,
                VirtAddr::new(gfn * 4096),
                PhysAddr::new(0x10_0000_0000 + gfn * 4096),
                PageSize::Size4K,
            )
            .unwrap();
        }
        let tables = NestedTables {
            guest_store: &gstore,
            guest_table: gmap.table(),
            host_store: &hstore,
            host_table: hmap.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = NestedWalker::new(PwcConfig::server(), PwcConfig::server(), 16);
        let t = w
            .walk(
                &tables,
                VirtAddr::new(0x4000_0000),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(t.size, PageSize::Size4K);
        assert_eq!(t.pa.raw(), 0x10_0000_0000 + 0x20_0000);
    }

    #[test]
    fn nested_stats_track_host_walks() {
        let (gstore, gtable, hstore, htable) =
            build(Layout::conventional4(), Layout::conventional4(), 4);
        let tables = NestedTables {
            guest_store: &gstore,
            guest_table: &gtable,
            host_store: &hstore,
            host_table: &htable,
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut w = NestedWalker::new(PwcConfig::server(), PwcConfig::server(), 16);
        w.walk(
            &tables,
            VirtAddr::new(0x4000_0000),
            &mut hier,
            OwnerId::SINGLE,
        )
        .unwrap();
        let s = w.stats();
        assert_eq!(s.walks.walks, 1);
        assert_eq!(s.nested_translations, 5, "4 guest entries + final data");
        assert!(s.host_walks >= 1);
    }
}
