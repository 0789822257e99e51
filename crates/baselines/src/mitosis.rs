//! Mitosis — per-node page-table replication (Achermann et al.,
//! ASPLOS 2020).
//!
//! On a multi-node machine a page walk's steps land wherever the OS
//! happened to allocate the page-table nodes — interleaved across
//! nodes, half of every walk is remote and pays the interconnect hop
//! penalty on top of DRAM. Mitosis eagerly replicates the page table on
//! every node and services each walk from the *local* replica, making
//! every walk step node-local at the cost of keeping the replicas
//! coherent.
//!
//! The model: with `replicate` on, every walk step's entry address is
//! pinned to the walking core's node ([`flatwalk_mem::pin_to_node`]),
//! so the home-node resolution in the DRAM model sees a local replica
//! line; the first touch of each page-table line additionally charges
//! (nodes − 1) replica-maintenance writes through
//! [`MemoryHierarchy::dram_write`] — off-chip traffic that keeps the
//! other copies coherent without perturbing this core's caches. With
//! `replicate` off the scheme is the "NUMA-Base" comparison column:
//! identical walks against the unreplicated table, remote steps paying
//! full hop penalties.

use std::collections::HashSet;

use flatwalk_mem::{pin_to_node, HitLevel, MemoryHierarchy, NumaTopology};
use flatwalk_mmu::{walk_radix, StepHook};
use flatwalk_pt::{WalkError, WalkStep};
use flatwalk_tlb::{Pwc, PwcConfig};
use flatwalk_types::{AccessKind, OwnerId, PhysAddr, VirtAddr};

use crate::{Scheme, SchemeWalk, WalkCtx};

/// Behavioural model of per-node page-table replication.
#[derive(Debug, Clone)]
pub struct MitosisScheme {
    topology: NumaTopology,
    /// The node this core (and its local replica) lives on.
    node: u32,
    replicate: bool,
    /// Fallback radix walker state.
    pwc: Pwc,
    /// Page-table lines already replicated (first touch pays the
    /// replica-maintenance writes).
    replicated_lines: HashSet<u64>,
    /// Walk steps served by this core's node.
    pub local_steps: u64,
    /// Walk steps served by a remote node.
    pub remote_steps: u64,
    /// Replica-maintenance DRAM writes charged so far.
    pub replica_writes: u64,
}

impl MitosisScheme {
    /// A Mitosis walker on `topology`, walking from node 0. `replicate`
    /// off gives the NUMA-Base comparison column.
    pub fn new(topology: NumaTopology, replicate: bool, pwc: PwcConfig) -> Self {
        MitosisScheme {
            topology,
            node: 0,
            replicate,
            pwc: Pwc::new(pwc),
            replicated_lines: HashSet::new(),
            local_steps: 0,
            remote_steps: 0,
            replica_writes: 0,
        }
    }

    /// Places the walking core (and its local replica) on `node`.
    pub fn with_node(mut self, node: u32) -> Self {
        self.node = node % self.topology.node_count().max(1);
        self
    }
}

impl Scheme for MitosisScheme {
    fn label(&self) -> &'static str {
        if self.replicate {
            "Mitosis"
        } else {
            "NUMA-Base"
        }
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
        // Conventional radix walk, PSC-accelerated, against either the
        // local replica (entries pinned to our node) or the
        // OS-interleaved table.
        let MitosisScheme {
            topology,
            node,
            replicate,
            pwc,
            replicated_lines,
            local_steps,
            remote_steps,
            replica_writes,
        } = self;
        let mut hook = ReplicaSteps {
            topology,
            node: *node,
            replicate: *replicate,
            replicated_lines,
            local_steps,
            remote_steps,
            replica_writes,
        };
        walk_radix(pwc, ctx.store, ctx.table, va, hier, owner, &mut hook).map(SchemeWalk::from)
    }
}

/// Mitosis's step hook: reads the local replica's copy of each entry
/// (when replicating) and accounts for local/remote steps and replica
/// maintenance.
struct ReplicaSteps<'a> {
    topology: &'a NumaTopology,
    node: u32,
    replicate: bool,
    replicated_lines: &'a mut HashSet<u64>,
    local_steps: &'a mut u64,
    remote_steps: &'a mut u64,
    replica_writes: &'a mut u64,
}

impl StepHook for ReplicaSteps<'_> {
    fn entry_addr(
        &mut self,
        step: &WalkStep,
        _hier: &mut MemoryHierarchy,
    ) -> Result<PhysAddr, WalkError> {
        Ok(if self.replicate {
            pin_to_node(step.entry_pa, self.node)
        } else {
            step.entry_pa
        })
    }

    fn observe(
        &mut self,
        step: &WalkStep,
        addr: PhysAddr,
        _level: HitLevel,
        hier: &mut MemoryHierarchy,
    ) {
        if self.topology.home_node(addr) == self.node {
            *self.local_steps += 1;
        } else {
            *self.remote_steps += 1;
        }
        // First touch of a page-table line under replication pays the
        // maintenance writes that keep the other (nodes − 1) replicas
        // coherent: direct DRAM traffic, no cache fills. The OS
        // performs these off the walk's critical path (at table-update
        // time), so they count as DRAM/NUMA traffic and energy but not
        // as walk latency or walk accesses.
        if self.replicate && self.replicated_lines.insert(step.entry_pa.line()) {
            for n in 0..self.topology.node_count() {
                if n == self.node {
                    continue;
                }
                hier.dram_write(pin_to_node(step.entry_pa, n), AccessKind::PageTable);
                *self.replica_writes += 1;
            }
        }
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
        for p in 0..256u64 {
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

    fn two_node_hier(topo: &NumaTopology) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::server().with_numa(topo.clone()))
    }

    /// Mitosis's reason to exist: replication strictly reduces remote
    /// walk steps on a multi-node machine (the ISSUE's property test).
    #[test]
    fn replication_strictly_reduces_remote_walk_steps() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        // Fine interleave so page-table lines spread across both nodes.
        let topo = NumaTopology::nodes(2).with_interleave_shift(12);
        let vas: Vec<VirtAddr> = (0..256u64)
            .map(|p| VirtAddr::new(0x5000_0000 + p * 4096))
            .collect();

        let mut base = MitosisScheme::new(topo.clone(), false, PwcConfig::server());
        let mut hier = two_node_hier(&topo);
        for &va in &vas {
            base.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        }

        let mut mitosis = MitosisScheme::new(topo.clone(), true, PwcConfig::server());
        let mut hier = two_node_hier(&topo);
        for &va in &vas {
            mitosis.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        }

        assert!(
            base.remote_steps > 0,
            "interleaved table must produce remote steps"
        );
        assert_eq!(
            mitosis.remote_steps, 0,
            "every replicated walk step is local"
        );
        assert!(mitosis.local_steps >= base.local_steps);
        assert!(mitosis.remote_steps < base.remote_steps, "strict reduction");
    }

    #[test]
    fn replication_cost_charged_once_per_line() {
        let (store, m) = oracle();
        let ctx = WalkCtx {
            store: &store,
            table: m.table(),
        };
        let topo = NumaTopology::nodes(4);
        let mut s = MitosisScheme::new(topo.clone(), true, PwcConfig::server());
        let mut hier = two_node_hier(&topo);
        let va = VirtAddr::new(0x5000_3000);
        s.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        let after_first = s.replica_writes;
        assert!(
            after_first >= 3,
            "each fresh line pays (nodes-1) writes, got {after_first}"
        );
        s.walk(&ctx, va, &mut hier, OwnerId::SINGLE).unwrap();
        assert_eq!(s.replica_writes, after_first, "no re-charge on re-walks");
    }

    #[test]
    fn labels_distinguish_columns() {
        let topo = NumaTopology::nodes(2);
        assert_eq!(
            MitosisScheme::new(topo.clone(), true, PwcConfig::server()).label(),
            "Mitosis"
        );
        assert_eq!(
            MitosisScheme::new(topo, false, PwcConfig::server()).label(),
            "NUMA-Base"
        );
    }
}
