//! Behavioural models of the translation schemes the paper compares
//! against (§2, Fig. 9/13) — Elastic Cuckoo Hashing, ASAP prefetched
//! translation, POM_TLB, and CSALT — plus two later rivals: Victima's
//! L2-resident TLB entries and Mitosis's per-node page-table
//! replication (with replication off, the NUMA-Base column).
//!
//! All schemes share the front-side TLBs, the cache hierarchy, the
//! workloads, and the timing proxy with the main simulator
//! ([`SchemeSimulation`]); only the post-TLB-miss translation machinery
//! differs. Every radix walk a scheme takes is the MMU's
//! [`flatwalk_mmu::walk_radix`] kernel with a scheme-specific step hook.
//! See each module for the modelling notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asap;
mod ech;
mod mitosis;
mod pom;
mod scheme;
mod victima;

pub use asap::AsapScheme;
pub use ech::EchScheme;
pub use mitosis::MitosisScheme;
pub use pom::PomTlbScheme;
pub use scheme::{Scheme, SchemeSimulation, SchemeWalk, WalkCtx};
pub use victima::VictimaScheme;

use flatwalk_sim::{Cell, RivalKind, SimError, SimReport};

/// The [`flatwalk_sim::RivalRunner`] for this crate's rival schemes:
/// grid builders hand this to [`Cell::rival`] so rival cells run
/// through the same runner/cache machinery as native cells.
///
/// # Errors
///
/// Returns the underlying [`SimError`] for an untranslatable access.
pub fn run_rival(cell: &Cell, kind: RivalKind) -> Result<SimReport, SimError> {
    match kind {
        RivalKind::Victima => SchemeSimulation::build(
            cell.workload.clone(),
            VictimaScheme::new(64 << 10, cell.opts.pwc.clone()),
            &cell.opts,
        )
        .try_run(),
        RivalKind::Mitosis { replicate } => SchemeSimulation::build(
            cell.workload.clone(),
            MitosisScheme::new(
                cell.opts.hierarchy.numa.clone(),
                replicate,
                cell.opts.pwc.clone(),
            ),
            &cell.opts,
        )
        .try_run(),
    }
}
