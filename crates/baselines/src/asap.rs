//! ASAP — prefetched address translation (Margaritov et al., MICRO
//! 2019; paper §2, Fig. 9/13).
//!
//! ASAP stores the lower page-table levels in flat, virtually indexed
//! arrays so the L2/L1 entry addresses can be *computed* (not chased)
//! as soon as a walk starts, and prefetched in parallel with the upper
//! levels. The paper's observations, which this model reproduces:
//!
//! * modern PWCs already skip most upper-level accesses, so there is
//!   little serial latency left to hide (ASAP gains only 1.7 %);
//! * the prefetches go through the cache hierarchy and the entries are
//!   then *re-accessed* by the walker, raising L1D traffic and energy
//!   (Fig. 13);
//! * prefetching requires physically contiguous table regions, which
//!   the OS cannot guarantee — [`AsapScheme::with_contiguity`] models
//!   partial availability (prefetching is disabled for the remainder).

use flatwalk_mem::{HitLevel, MemoryHierarchy};
use flatwalk_mmu::{walk_radix, StepHook};
use flatwalk_pt::WalkStep;
use flatwalk_tlb::{Pwc, PwcConfig};
use flatwalk_types::rng::SplitMix64;
use flatwalk_types::{AccessKind, OwnerId, PhysAddr, VirtAddr};

use crate::{Scheme, SchemeWalk, WalkCtx};

/// Behavioural model of ASAP's prefetched walks.
#[derive(Debug, Clone)]
pub struct AsapScheme {
    pwc: Pwc,
    /// Fraction of the address space whose flat table arrays were
    /// successfully allocated contiguously (1.0 = ideal).
    contiguity: f64,
    rng: SplitMix64,
    /// Entry addresses of the current walk, for the re-read pass.
    prefetched: Vec<PhysAddr>,
}

impl AsapScheme {
    /// ASAP with ideal (fully contiguous) flat table arrays.
    pub fn new(pwc: PwcConfig) -> Self {
        AsapScheme {
            pwc: Pwc::new(pwc),
            contiguity: 1.0,
            rng: SplitMix64::new(0xA5A9),
            prefetched: Vec::new(),
        }
    }

    /// Limits the fraction of walks that can use prefetching (the
    /// kernel could not allocate contiguous regions for the rest).
    pub fn with_contiguity(mut self, fraction: f64) -> Self {
        self.contiguity = fraction.clamp(0.0, 1.0);
        self
    }
}

impl Scheme for AsapScheme {
    fn label(&self) -> &'static str {
        "ASAP"
    }

    fn context_switch(&mut self) {
        self.pwc.flush();
    }

    fn walk(
        &mut self,
        ctx: &WalkCtx<'_>,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<SchemeWalk, flatwalk_pt::WalkError> {
        if !self.rng.chance(self.contiguity) {
            // No contiguous arrays: ordinary serial walk.
            return walk_radix(
                &mut self.pwc,
                ctx.store,
                ctx.table,
                va,
                hier,
                owner,
                &mut (),
            )
            .map(SchemeWalk::from);
        }
        // All remaining entry addresses are computed up front and
        // fetched in parallel; the walker then re-reads each prefetched
        // line from the L1 (extra traffic, hidden latency).
        self.prefetched.clear();
        let mut prefetch = Prefetch(&mut self.prefetched);
        let w = walk_radix(
            &mut self.pwc,
            ctx.store,
            ctx.table,
            va,
            hier,
            owner,
            &mut prefetch,
        )?;
        // Re-access of the prefetched entries (now L1-resident);
        // pipelined behind the prefetch, so it adds traffic but no
        // serial latency.
        for &addr in &self.prefetched {
            let _ = hier.access(addr, AccessKind::PageTable, owner);
        }
        Ok(SchemeWalk {
            accesses: 2 * w.accesses,
            ..w.into()
        })
    }
}

/// ASAP's prefetching step hook: entry reads overlap (the walk's step
/// latency is their max) and each one is remembered for the re-read.
struct Prefetch<'a>(&'a mut Vec<PhysAddr>);

impl StepHook for Prefetch<'_> {
    fn combine(&mut self, total: u64, latency: u64) -> u64 {
        total.max(latency)
    }

    fn observe(
        &mut self,
        _step: &WalkStep,
        addr: PhysAddr,
        _level: HitLevel,
        _hier: &mut MemoryHierarchy,
    ) {
        self.0.push(addr);
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
        for p in 0..512u64 {
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
    fn parallel_prefetch_bounds_cold_latency_by_one_round_trip() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut asap = AsapScheme::new(PwcConfig::server());
        let w = asap
            .walk(&ctx, VirtAddr::new(0x5000_0000), &mut hier, OwnerId::SINGLE)
            .unwrap();
        // A cold 4-level walk serially would cost ~4x DRAM; ASAP pays
        // one DRAM latency (plus the PWC cycle).
        assert!(w.latency <= 201 + 4, "got {}", w.latency);
        // …but double the accesses (prefetch + re-access).
        assert_eq!(w.accesses, 8);
        assert_eq!(w.pa.raw(), 0x9_0000_0000);
    }

    #[test]
    fn zero_contiguity_degenerates_to_serial_walks() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut asap = AsapScheme::new(PwcConfig::server()).with_contiguity(0.0);
        let w = asap
            .walk(&ctx, VirtAddr::new(0x5000_0000), &mut hier, OwnerId::SINGLE)
            .unwrap();
        assert_eq!(w.accesses, 4, "no prefetch duplication");
        assert!(w.latency > 700, "serial cold walk pays every level");
    }

    #[test]
    fn pwc_still_skips_upper_levels() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let mut hier = MemoryHierarchy::new(HierarchyConfig::server());
        let mut asap = AsapScheme::new(PwcConfig::server());
        asap.walk(&ctx, VirtAddr::new(0x5000_0000), &mut hier, OwnerId::SINGLE)
            .unwrap();
        // Second page in the same 2 MB region: 27-bit hit → 1 entry,
        // prefetched + re-accessed = 2 accesses.
        let w = asap
            .walk(
                &ctx,
                VirtAddr::new(0x5000_0000 + 4096),
                &mut hier,
                OwnerId::SINGLE,
            )
            .unwrap();
        assert_eq!(w.accesses, 2);
    }
}
