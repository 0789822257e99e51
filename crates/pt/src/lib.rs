//! Radix page tables with optional **flattening** — the data-structure
//! half of the paper.
//!
//! A conventional x86-64/Armv8 page table is a 512-ary radix tree of
//! 4 KB nodes: four serial indirections per walk. *Flattening* (paper
//! §3) merges two adjacent levels into a single 2 MB node of 2¹⁸
//! entries, halving the depth; which levels to merge is flexible
//! ([`Layout`]) and every node can individually fall back to the
//! conventional shape when a 2 MB allocation is unavailable
//! ([`Mapper`]'s graceful fallback, §3.2).
//!
//! The crate provides:
//!
//! * [`FrameStore`] — sparse simulated physical memory holding the
//!   table contents.
//! * [`Pte`] / [`NodeShape`] — entry encoding including the shape bits
//!   the paper adds to CR3/TTBR and to each entry (§6.1).
//! * [`Layout`] / [`LevelGroup`] — which levels a table merges
//!   (Fig. 2/3), for 4- and 5-level tables (§3.6).
//! * [`Mapper`] — builds tables, handling large pages, the §3.4
//!   replicated-entry pathology and no-flatten regions
//!   ([`NfRegions`]), and allocation-failure fallback.
//! * [`resolve`] — the functional reference walker ([`Walk`] lists
//!   every entry access), for tests and oracles; the timed walk kernel
//!   in `flatwalk-mmu` drives the fused [`resolve_from_with`] instead,
//!   starting at a PSC hit node.
//! * [`RecursiveScheme`] — self-referencing table access including the
//!   glue sub-table for flattened roots (§3.5, Fig. 5–7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod entry;
mod layout;
mod mapper;
mod recursive;
mod store;
pub mod typed;
mod walk;

pub use alloc::{BumpAllocator, No2MbAllocator, PhysAllocator};
pub use entry::{NodeShape, Pte};
pub use layout::{Layout, LevelGroup};
pub use mapper::{
    FlattenEverywhere, FlattenPolicy, MapError, Mapper, NfRegions, NodeCensus, PageTable,
    PromoteError,
};
pub use recursive::{RecursionError, RecursiveScheme};
pub use store::FrameStore;
pub use walk::{resolve, resolve_from_with, translate, StepVec, Walk, WalkError, WalkStep};
