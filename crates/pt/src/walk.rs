//! The functional (untimed) reference page-table walker.
//!
//! This walker follows entries exactly the way the modelled hardware
//! does — including recursive self-references (§3.5). [`resolve`]
//! returns the full list of entry accesses (for tests and oracles);
//! the timed walk kernel in `flatwalk-mmu` visits the same steps
//! through [`resolve_from_with`] as they are decoded.

use flatwalk_types::{Level, PageSize, PhysAddr, VirtAddr};

use crate::{FrameStore, NodeShape, PageTable};

/// One page-table entry access during a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// The VA-decode level at which this node was consulted (which may
    /// differ from the node's "natural" level during recursive walks).
    pub pos_top: Level,
    /// How many levels this node merged (1–3), i.e. how many 9-bit index
    /// fields the lookup consumed.
    pub depth: u8,
    /// Physical address of the entry that was read.
    pub entry_pa: PhysAddr,
    /// Base address of the node.
    pub node_base: PhysAddr,
    /// The index used within the node.
    pub index: usize,
}

impl WalkStep {
    /// Number of virtual-address bits this step translated.
    pub fn index_bits(&self) -> u32 {
        self.depth as u32 * 9
    }
}

/// Inline, allocation-free list of the steps of one walk.
///
/// The step list lives on the stack (bounded by `MAX_STEPS`) instead
/// of in a fresh `Vec`.
/// Dereferences to `[WalkStep]`, so all slice operations (`iter`,
/// `len`, indexing, slicing) work unchanged.
#[derive(Clone, Copy)]
pub struct StepVec {
    steps: [WalkStep; MAX_STEPS],
    len: u8,
}

impl StepVec {
    /// An empty step list.
    pub const fn new() -> Self {
        const DUMMY: WalkStep = WalkStep {
            pos_top: Level::L1,
            depth: 0,
            entry_pa: PhysAddr::new(0),
            node_base: PhysAddr::new(0),
            index: 0,
        };
        StepVec {
            steps: [DUMMY; MAX_STEPS],
            len: 0,
        }
    }

    /// Appends a step.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_STEPS`] steps.
    pub fn push(&mut self, step: WalkStep) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }
}

impl Default for StepVec {
    fn default() -> Self {
        StepVec::new()
    }
}

impl std::ops::Deref for StepVec {
    type Target = [WalkStep];

    fn deref(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }
}

impl std::fmt::Debug for StepVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for StepVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for StepVec {}

impl<'a> IntoIterator for &'a StepVec {
    type Item = &'a WalkStep;
    type IntoIter = std::slice::Iter<'a, WalkStep>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A successful walk: the steps taken and the final translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Entry accesses, root first.
    pub steps: StepVec,
    /// The translated physical address (the full address, offset
    /// included).
    pub pa: PhysAddr,
    /// Granularity of the translation that terminated the walk.
    pub size: PageSize,
}

impl Walk {
    /// The physical page frame base of the final translation.
    pub fn frame_base(&self) -> PhysAddr {
        self.pa.align_down(self.size)
    }
}

/// Why a walk failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// An entry on the path was not present.
    NotMapped {
        /// The VA-decode level at which the absent entry was found.
        at: Level,
    },
    /// A large bit was set at a position where no large translation is
    /// architecturally defined.
    Malformed,
    /// The walk exceeded the step budget (cyclic recursion misuse).
    TooDeep,
    /// The run was interrupted at a batch boundary (cell deadline or
    /// cooperative cancellation) — not a table defect. The engine never
    /// interrupts *inside* a span, so every completed span's state
    /// transitions remain byte-identical to an uninterrupted run.
    Cancelled,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::NotMapped { at } => write!(f, "entry not present at {at}"),
            WalkError::Malformed => write!(f, "malformed page-table entry"),
            WalkError::TooDeep => write!(f, "walk exceeded the step budget"),
            WalkError::Cancelled => write!(f, "cancelled at a batch boundary"),
        }
    }
}

impl std::error::Error for WalkError {}

/// Upper bound on entry accesses in one walk; generous enough for every
/// legal recursion pattern on a 5-level table.
const MAX_STEPS: usize = 8;

/// Fused walk from an arbitrary starting node: the suffix of a full
/// walk, with a per-step visitor instead of a collected step list.
///
/// `node_base` (of `node_shape`) is consulted first, consuming VA index
/// bits from `pos_top` downward — the timed walk kernel starts here at
/// a paging-structure-cache hit node. The visitor sees each
/// [`WalkStep`] the moment it is decoded (before the entry is read), so
/// timed walkers issue cache accesses and PSC training inline; the
/// final translation is returned as `(pa, size)`.
///
/// The starting [`Level`] is matched once, here; everything below runs
/// on the monomorphized [`typed`](crate::typed) lattice with no
/// per-step position dispatch.
///
/// # Errors
///
/// See [`WalkError`]; the first visitor error aborts the walk.
#[inline]
pub fn resolve_from_with<V: FnMut(WalkStep) -> Result<(), WalkError>>(
    store: &FrameStore,
    node_base: PhysAddr,
    node_shape: NodeShape,
    pos_top: Level,
    va: VirtAddr,
    visit: &mut V,
) -> Result<(PhysAddr, PageSize), WalkError> {
    use crate::typed::{TableLevel, L1, L2, L3, L4, L5};
    match pos_top {
        Level::L1 => L1::walk(store, node_base, node_shape, va, visit),
        Level::L2 => L2::walk(store, node_base, node_shape, va, visit),
        Level::L3 => L3::walk(store, node_base, node_shape, va, visit),
        Level::L4 => L4::walk(store, node_base, node_shape, va, visit),
        Level::L5 => L5::walk(store, node_base, node_shape, va, visit),
    }
}

/// Walks `table` for `va`, returning the steps and final translation.
///
/// Semantics (paper §3, §3.5):
///
/// * Each node consumes `depth × 9` VA bits at the current decode
///   position; the pointed-to node's shape comes from the pointer's
///   shape bits (the root's from CR3).
/// * A present entry at the `L1` decode position always terminates the
///   walk as a 4 KB translation.
/// * An entry with the large bit terminates at the `L2` (2 MB) or `L3`
///   (1 GB) decode positions.
/// * A *pointer to a flattened node* encountered at the `L2` decode
///   position is treated as a 2 MB translation — the §3.5 rule that
///   makes recursive access to flattened tables work.
///
/// # Errors
///
/// See [`WalkError`].
pub fn resolve(store: &FrameStore, table: &PageTable, va: VirtAddr) -> Result<Walk, WalkError> {
    let mut steps = StepVec::new();
    let (pa, size) = resolve_from_with(
        store,
        table.root,
        table.root_shape,
        table.top_level,
        va,
        &mut |s| {
            steps.push(s);
            Ok(())
        },
    )?;
    Ok(Walk { steps, pa, size })
}

/// The translation of `va` alone: [`resolve`] without collecting the
/// steps, for callers that charge no per-step cost.
///
/// # Errors
///
/// See [`WalkError`].
pub fn translate(
    store: &FrameStore,
    table: &PageTable,
    va: VirtAddr,
) -> Result<(PhysAddr, PageSize), WalkError> {
    resolve_from_with(
        store,
        table.root,
        table.root_shape,
        table.top_level,
        va,
        &mut |_| Ok(()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BumpAllocator, FlattenEverywhere, Layout, Mapper, Pte};

    #[test]
    fn unmapped_va_reports_level() {
        let mut store = FrameStore::new();
        let mut alloc = BumpAllocator::new(0x1000_0000);
        let m = Mapper::new(
            &mut store,
            &mut alloc,
            Layout::conventional4(),
            &FlattenEverywhere,
        )
        .unwrap();
        let err = resolve(&store, m.table(), VirtAddr::new(0x1234_5000)).unwrap_err();
        assert_eq!(err, WalkError::NotMapped { at: Level::L4 });
    }

    #[test]
    fn steps_record_decreasing_positions() {
        let mut store = FrameStore::new();
        let mut alloc = BumpAllocator::new(0x1000_0000);
        let mut m = Mapper::new(
            &mut store,
            &mut alloc,
            Layout::conventional4(),
            &FlattenEverywhere,
        )
        .unwrap();
        let va = VirtAddr::new(0x7f00_0000_1000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            PhysAddr::new(0x5_0000_0000),
            PageSize::Size4K,
        )
        .unwrap();
        let w = resolve(&store, m.table(), va).unwrap();
        let tops: Vec<Level> = w.steps.iter().map(|s| s.pos_top).collect();
        assert_eq!(tops, vec![Level::L4, Level::L3, Level::L2, Level::L1]);
        assert!(w.steps.iter().all(|s| s.depth == 1));
    }

    #[test]
    fn self_loop_detected_as_too_deep() {
        // A root whose entry 0 points back to the root forever (without a
        // terminating rule firing) must hit the step budget:
        // build a 5-level conventional table where L5..L3 point in a cycle.
        let mut store = FrameStore::new();
        let root = PhysAddr::new(0x1000);
        // Entry 0 of the root points to itself, conventional shape.
        store.write_pte(root, Pte::pointer(root, NodeShape::Conventional));
        let table = PageTable {
            root,
            root_shape: NodeShape::Conventional,
            top_level: Level::L5,
        };
        // VA 0 loops L5→L4→L3→L2 ... but at the L2 position the pointer is
        // conventional-shaped, so it descends once more and terminates at
        // the L1 position as a 4 KB leaf (self-referencing semantics!).
        let w = resolve(&store, &table, VirtAddr::new(0)).unwrap();
        assert_eq!(w.steps.len(), 5);
        assert_eq!(w.pa, root, "recursive walk returns the node itself");

        // A flat2 self-loop at an L5 root terminates by the §3.5 rule:
        // the second lookup lands at the L2 decode position holding a
        // flat pointer, which reads as a 2 MB translation of the node.
        let flat_root = PhysAddr::new(0x20_0000);
        store.write_pte(flat_root, Pte::pointer(flat_root, NodeShape::Flat2));
        let t2 = PageTable {
            root: flat_root,
            root_shape: NodeShape::Flat2,
            top_level: Level::L5,
        };
        let w2 = resolve(&store, &t2, VirtAddr::new(0)).unwrap();
        assert_eq!(w2.size, PageSize::Size2M);
        assert_eq!(w2.frame_base(), flat_root);

        // A flat3 self-loop would decode below L1 — reported as malformed,
        // not a panic.
        let f3 = PhysAddr::new(0x4000_0000);
        store.write_pte(f3, Pte::pointer(f3, NodeShape::Flat3));
        let t3 = PageTable {
            root: f3,
            root_shape: NodeShape::Flat3,
            top_level: Level::L5,
        };
        assert_eq!(
            resolve(&store, &t3, VirtAddr::new(0)).unwrap_err(),
            WalkError::Malformed
        );
    }

    #[test]
    fn malformed_large_bit_at_l4() {
        let mut store = FrameStore::new();
        let root = PhysAddr::new(0x1000);
        store.write_pte(root, Pte::large(PhysAddr::new(0x2000)));
        let table = PageTable {
            root,
            root_shape: NodeShape::Conventional,
            top_level: Level::L4,
        };
        assert_eq!(
            resolve(&store, &table, VirtAddr::new(0)).unwrap_err(),
            WalkError::Malformed
        );
    }
}
