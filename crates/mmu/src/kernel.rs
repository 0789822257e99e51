//! The PSC-accelerated radix walk kernel (paper §3.3).
//!
//! Every timed radix walk in the simulator — the native walker, both
//! halves of the nested walker, and the comparison schemes' fallback
//! walks — is one call to [`walk_radix`]: a paging-structure-cache
//! lookup, the functional walk from the hit node down, one
//! [`AccessKind::PageTable`] cache access per remaining entry read, and
//! PSC training as each step is decoded. What a caller varies around a
//! step goes through a statically dispatched [`StepHook`].

use flatwalk_mem::{HitLevel, MemoryHierarchy};
use flatwalk_obs::trace::{self, WalkRecord, WalkStepRecord};
use flatwalk_pt::{resolve_from_with, FrameStore, NodeShape, PageTable, WalkError, WalkStep};
use flatwalk_tlb::Pwc;
use flatwalk_types::{AccessKind, Level, OwnerId, PageSize, PhysAddr, VirtAddr};

use crate::StepHits;

/// What a caller varies around each entry read of [`walk_radix`].
///
/// Every method has the plain-walker default, so `()` is the hook of a
/// serial walk that observes nothing.
pub trait StepHook {
    /// The address the entry read is issued to. The default reads the
    /// entry where the table says it is; Mitosis pins it to the local
    /// replica, and the nested walker translates the guest-physical
    /// entry address to host-physical (which can fail).
    ///
    /// # Errors
    ///
    /// A [`WalkError`] here aborts the walk.
    #[inline]
    fn entry_addr(
        &mut self,
        step: &WalkStep,
        _hier: &mut MemoryHierarchy,
    ) -> Result<PhysAddr, WalkError> {
        Ok(step.entry_pa)
    }

    /// Folds one entry read's latency into the walk's step latency:
    /// a serial sum by default (ASAP's parallel prefetch takes the max).
    #[inline]
    fn combine(&mut self, total: u64, latency: u64) -> u64 {
        total + latency
    }

    /// Observes one completed entry read of `step`, issued to `addr`
    /// and served at `level`.
    #[inline]
    fn observe(
        &mut self,
        _step: &WalkStep,
        _addr: PhysAddr,
        _level: HitLevel,
        _hier: &mut MemoryHierarchy,
    ) {
    }
}

impl StepHook for () {}

/// Result and cost of one [`walk_radix`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixWalk {
    /// The translated physical address (offset included).
    pub pa: PhysAddr,
    /// Granularity of the translation.
    pub size: PageSize,
    /// Entry reads issued by the kernel (hook-side traffic excluded).
    pub accesses: u64,
    /// PSC lookup latency plus the hook-combined entry-read latency.
    pub latency: u64,
    /// Prefix bits of the PSC hit the walk started below (0 on a miss);
    /// only walk-trace records read it.
    pub(crate) psc_bits: u32,
}

/// Walks `table` for `va` through `pwc` and `hier`.
///
/// A PSC hit starts the functional walk at the hit node, so the levels
/// it covers are neither read nor decoded. Each remaining step is
/// issued to the hierarchy at the hook's address, and each non-first
/// step trains the PSC with the prefix consumed so far. Tables are
/// immutable during a run (cells run against a frozen address space
/// and every mutation flushes the PSCs), so a trained entry always
/// lands on a step boundary of the walk; a debug build cross-checks
/// every short-circuited walk against the full [`flatwalk_pt::resolve`].
///
/// # Errors
///
/// Propagates [`WalkError`] from the functional walk or the hook.
#[inline]
pub fn walk_radix<H: StepHook>(
    pwc: &mut Pwc,
    store: &FrameStore,
    table: &PageTable,
    va: VirtAddr,
    hier: &mut MemoryHierarchy,
    owner: OwnerId,
    hook: &mut H,
) -> Result<RadixWalk, WalkError> {
    let root = (table.root, table.root_shape, table.top_level, 0);
    let (node_base, node_shape, pos_top, psc_bits) = match pwc.lookup(va) {
        // The decode position below the hit prefix is top minus the
        // consumed 9-bit groups; a rank underflow would mean a
        // PSC/table mismatch, so walk from the root instead.
        Some(hit) => {
            let rank = table
                .top_level
                .rank()
                .wrapping_sub((hit.prefix_bits / 9) as u8);
            match Level::from_rank(rank) {
                Some(pos) => (hit.node_base, hit.node_shape, pos, hit.prefix_bits),
                None => root,
            }
        }
        None => root,
    };

    let mut latency = 0u64;
    let mut accesses = 0u64;
    let mut cum = psc_bits;
    let (pa, size) = resolve_from_with(store, node_base, node_shape, pos_top, va, &mut |step| {
        // Each non-first step trains the PSC: the prefix consumed so
        // far maps to the node this step consults.
        if accesses > 0 {
            let shape = NodeShape::from_depth(step.depth).expect("valid step depth");
            pwc.insert(va, cum, step.node_base, shape);
        }
        cum += step.index_bits();
        let addr = hook.entry_addr(&step, hier)?;
        let out = hier.access(addr, AccessKind::PageTable, owner);
        latency = hook.combine(latency, out.latency);
        accesses += 1;
        hook.observe(&step, addr, out.level, hier);
        Ok(())
    })?;

    #[cfg(debug_assertions)]
    if psc_bits > 0 {
        let full = flatwalk_pt::resolve(store, table, va).expect("prefix was present");
        debug_assert_eq!(
            (full.pa, full.size),
            (pa, size),
            "PSC short-circuit must agree with the full walk"
        );
    }

    Ok(RadixWalk {
        pa,
        size,
        accesses,
        latency: pwc.latency() + latency,
        psc_bits,
    })
}

/// The hook of the MMU's own walkers: tallies where each entry read was
/// served and, in the `TRACED` instance, collects the walk-trace steps.
pub(crate) struct Recorder<'a, const TRACED: bool> {
    pub(crate) hits: &'a mut StepHits,
    pub(crate) steps: &'a mut Vec<WalkStepRecord>,
}

impl<const TRACED: bool> StepHook for Recorder<'_, TRACED> {
    #[inline]
    fn observe(
        &mut self,
        step: &WalkStep,
        _addr: PhysAddr,
        level: HitLevel,
        _hier: &mut MemoryHierarchy,
    ) {
        self.hits.record(level);
        if TRACED {
            self.steps.push(WalkStepRecord {
                depth: step.depth,
                level: level_label(level),
            });
        }
    }
}

/// Trace label for a hierarchy hit level.
fn level_label(level: HitLevel) -> &'static str {
    match level {
        HitLevel::L1 => "L1",
        HitLevel::L2 => "L2",
        HitLevel::L3 => "L3",
        HitLevel::Dram => "DRAM",
    }
}

/// Emits the walk-trace record of one completed walk whose PSC lookup
/// on `table` hit `psc_bits` of `va`.
pub(crate) fn emit_walk(
    store: &FrameStore,
    table: &PageTable,
    va: VirtAddr,
    psc_bits: u32,
    accesses: u64,
    latency: u64,
    steps: &[WalkStepRecord],
) {
    trace::emit_walk(&WalkRecord {
        va: va.raw(),
        accesses,
        latency,
        psc_skipped: skipped_steps(store, table, va, psc_bits),
        flattened: steps.iter().any(|s| s.depth > 1),
        steps,
    });
}

/// How many steps of the full walk of `va` a PSC hit on `psc_bits`
/// skipped. Only trace records need this, so only they pay for the
/// functional walk of the skipped prefix.
fn skipped_steps(store: &FrameStore, table: &PageTable, va: VirtAddr, psc_bits: u32) -> u8 {
    let (mut steps, mut cum) = (0u8, 0u32);
    // The visitor's error stops the walk once the prefix is consumed.
    let _ = resolve_from_with(
        store,
        table.root,
        table.root_shape,
        table.top_level,
        va,
        &mut |step| {
            if cum >= psc_bits {
                return Err(WalkError::TooDeep);
            }
            cum += step.index_bits();
            steps += 1;
            Ok(())
        },
    );
    if cum == psc_bits {
        steps
    } else {
        0
    }
}
