//! Timed page-table walking and the MMU facade.
//!
//! This crate times radix walks (decoded by `flatwalk-pt`'s functional
//! walker) through the translation caches (`flatwalk-tlb`) and the
//! memory hierarchy (`flatwalk-mem`):
//!
//! * [`walk_radix`] — the one PSC-accelerated walk kernel (§3.3): a PSC
//!   hit skips upper levels, each remaining entry read goes through the
//!   caches as a [`flatwalk_types::AccessKind::PageTable`] access, and
//!   the PSC trains inline. Callers vary the entry address, the latency
//!   combination and what is observed per step through a [`StepHook`];
//!   the comparison schemes in `flatwalk-baselines` walk through it too.
//! * [`PageWalker`] — the native walker with paging-structure caches.
//! * [`NestedWalker`] — the 2-D walker for virtualized systems (§4):
//!   guest PSC + vPWC + nested TLB.
//! * [`Mmu`] — TLB lookup, walk on miss, TLB fill, the data access, and
//!   the high-TLB-miss phase detection that drives cache prioritization
//!   (§5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod mmu;
mod nested;
mod walker;

pub use kernel::{walk_radix, RadixWalk, StepHook};
pub use mmu::{AccessTiming, AddressSpace, Mmu, MmuStats, TranslationBackend};
pub use nested::{NestedTables, NestedWalker, NestedWalkerStats};
pub use walker::{PageWalker, StepHits, WalkTiming, WalkerStats};
