//! The common harness for comparison translation schemes (paper §2,
//! Fig. 9/13): each scheme replaces the radix page walk with its own
//! structure, but shares the TLBs, cache hierarchy, workloads, and
//! timing proxy with the main simulator.
//!
//! Every scheme translates against the same real radix table (the
//! address space is identical across schemes) and charges the *timing
//! and memory traffic* its own structure would generate. Schemes that
//! walk the table (ASAP, POM_TLB/CSALT on a DRAM-TLB miss, Victima on a
//! probe miss, Mitosis) take the result from that one timed
//! [`flatwalk_mmu::walk_radix`] walk; schemes or paths that never read
//! the table's entries (ECH, a POM_TLB or Victima hit) take it from the
//! untimed [`flatwalk_pt::translate`]. This keeps correctness
//! orthogonal to cost modelling.

use std::sync::Arc;
use std::time::Instant;

use flatwalk_mem::{EnergyModel, MemoryHierarchy};
use flatwalk_mmu::{RadixWalk, WalkerStats};
use flatwalk_os::{AddressSpaceSpec, FrozenSpace};
use flatwalk_pt::{FrameStore, PageTable};
use flatwalk_sim::{engine, setup, SimOptions, SimReport};
use flatwalk_tlb::{PhaseDetector, TlbSystem};
use flatwalk_types::{OwnerId, PageSize, PhysAddr, VirtAddr};
use flatwalk_workloads::{AccessStream, WorkloadSpec};

/// Static context a scheme's walk may consult.
#[derive(Debug, Clone, Copy)]
pub struct WalkCtx<'a> {
    /// Page-table contents of the oracle radix table.
    pub store: &'a FrameStore,
    /// The oracle radix table.
    pub table: &'a PageTable,
}

/// Cost and result of one scheme-specific translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeWalk {
    /// Translated physical address (offset included).
    pub pa: PhysAddr,
    /// Translation granularity (for the TLB fill).
    pub size: PageSize,
    /// Cycles the translation took.
    pub latency: u64,
    /// Memory-system accesses it performed.
    pub accesses: u64,
}

impl From<RadixWalk> for SchemeWalk {
    fn from(w: RadixWalk) -> Self {
        SchemeWalk {
            pa: w.pa,
            size: w.size,
            latency: w.latency,
            accesses: w.accesses,
        }
    }
}

/// A comparison translation scheme.
pub trait Scheme {
    /// Label used in reports ("ECH", "ASAP", "POM_TLB", "CSALT",
    /// "Victima", "Mitosis", "NUMA-Base").
    fn label(&self) -> &'static str;

    /// Performs the translation after an L1/L2 TLB miss. Returns a
    /// [`WalkError`](flatwalk_pt::WalkError) for an unmapped or
    /// malformed translation instead of panicking, so the grid runner
    /// can isolate the failing cell.
    fn walk(
        &mut self,
        ctx: &WalkCtx<'_>,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<SchemeWalk, flatwalk_pt::WalkError>;

    /// Whether this scheme biases the cache replacement policy toward
    /// its translation structures (CSALT does).
    fn wants_priority(&self) -> bool {
        false
    }

    /// Reacts to a context switch. The default flushes nothing — which
    /// is correct for POM_TLB/CSALT (the in-DRAM TLB survives switches,
    /// their core advantage); schemes with per-process on-chip state
    /// override it.
    fn context_switch(&mut self) {}
}

/// Runs a workload under a comparison scheme, with the same engine and
/// timing proxy as [`flatwalk_sim::NativeSimulation`].
pub struct SchemeSimulation<S: Scheme> {
    spec: WorkloadSpec,
    opts: Arc<SimOptions>,
    space: Arc<FrozenSpace>,
    tlb: TlbSystem,
    scheme: S,
    hier: MemoryHierarchy,
    stream: AccessStream,
    phase: PhaseDetector,
    walker_stats: WalkerStats,
}

impl<S: Scheme> SchemeSimulation<S> {
    /// Builds the (conventional 4-level) address space and the scheme.
    /// The space and stream prefix come from the shared setup cache
    /// ([`flatwalk_sim::setup`]): every comparison scheme walks the
    /// same oracle table, so one frozen snapshot serves them all.
    ///
    /// # Panics
    ///
    /// Panics if the address space cannot be built.
    pub fn build(spec: WorkloadSpec, scheme: S, opts: &SimOptions) -> Self {
        let start = Instant::now();
        let opts = Arc::new(opts.clone());
        let spec = spec.scaled_down(opts.footprint_divisor);
        let space_spec =
            AddressSpaceSpec::new(flatwalk_pt::Layout::conventional4(), spec.footprint)
                .with_scenario(opts.scenario)
                .with_nf_threshold(None);
        let space = setup::frozen_native_space(
            &space_spec,
            opts.phys_mem_bytes,
            opts.hierarchy.numa.signature(),
        );
        let tlb = TlbSystem::new(opts.tlb.clone());
        // Honor the same prioritization knobs as the native engine so
        // ablation sweeps compare like against like.
        let hier = MemoryHierarchy::new(opts.hierarchy.clone().with_priority_prob(opts.ptp_bias));
        let ops = opts.warmup_ops + opts.measure_ops;
        let stream = AccessStream::replay(
            spec.clone(),
            space.spec().base_va,
            setup::stream_offsets(&spec, ops),
        );
        let phase = PhaseDetector::new(opts.phase_window, opts.phase_threshold);
        let sim = SchemeSimulation {
            spec,
            opts,
            space,
            tlb,
            scheme,
            hier,
            stream,
            phase,
            walker_stats: WalkerStats::default(),
        };
        setup::record_setup_time(start.elapsed());
        sim
    }

    /// Runs warm-up then measurement; returns the report.
    ///
    /// # Panics
    ///
    /// Panics on an untranslatable access — use
    /// [`SchemeSimulation::try_run`] to get a structured
    /// [`SimError`](flatwalk_sim::SimError) instead.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs warm-up then measurement; returns the report, or a
    /// [`SimError`](flatwalk_sim::SimError) identifying the exact
    /// access that failed to translate.
    pub fn try_run(mut self) -> Result<SimReport, flatwalk_sim::SimError> {
        let start = Instant::now();
        if flatwalk_obs::trace::any_enabled() {
            flatwalk_obs::trace::set_context(&format!(
                "{}/{}",
                self.spec.name,
                self.scheme.label()
            ));
        }

        // Comparison schemes run the exact same generic engine loop as
        // the native/virtualized/multicore drivers — the scheme only
        // supplies the translation half of a span. Schemes model no
        // live page-table mutations, so the event schedule is empty
        // (a context switch flushes the TLB and notifies the scheme;
        // nothing ever calls shootdown).
        let mut backend = SchemeBackend {
            scheme: &mut self.scheme,
            tlb: &mut self.tlb,
            phase: &mut self.phase,
            walker_stats: &mut self.walker_stats,
            store: self.space.store(),
            table: self.space.table(),
        };
        let run = engine::EngineRun {
            scheme: backend.scheme.label(),
            workload: self.spec.name,
            core: None,
            work_per_access: self.spec.work_per_access,
            data_exposure: self.spec.data_exposure,
            l1_latency: self.opts.hierarchy.l1.latency,
            warmup_ops: self.opts.warmup_ops,
            measure_ops: self.opts.measure_ops,
            context_switch_interval: self.opts.context_switch_interval,
            events: &[],
        };
        let totals = engine::run_single(
            &mut backend,
            &mut self.hier,
            &mut self.stream,
            OwnerId::SINGLE,
            &run,
        )?;

        let report = SimReport {
            workload: self.spec.name.to_string(),
            config: self.scheme.label(),
            instructions: totals.instructions,
            cycles: totals.cycles.round() as u64,
            walk: self.walker_stats,
            tlb: self.tlb.stats(),
            hier: self.hier.stats(),
            energy: self.hier.energy(&EnergyModel::default()),
            census: *self.space.census(),
            phase_flips: self.phase.flips(),
            pwc: Vec::new(),
            faults: totals.faults,
        };
        setup::record_run_time(start.elapsed());
        Ok(report)
    }
}

/// The comparison-scheme instantiation of the generic engine backend:
/// shared TLB complex and phase detector, with the walk delegated to
/// the [`Scheme`]'s own cost model against the oracle radix table.
struct SchemeBackend<'a, S: Scheme> {
    scheme: &'a mut S,
    tlb: &'a mut TlbSystem,
    phase: &'a mut PhaseDetector,
    walker_stats: &'a mut WalkerStats,
    store: &'a FrameStore,
    table: &'a PageTable,
}

impl<S: Scheme> engine::EngineBackend for SchemeBackend<'_, S> {
    fn access_span(
        &mut self,
        hier: &mut MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
        out: &mut Vec<flatwalk_mmu::AccessTiming>,
    ) -> Result<(), (usize, flatwalk_pt::WalkError)> {
        out.clear();
        out.reserve(vas.len());
        let wants_priority = self.scheme.wants_priority();
        let ctx = WalkCtx {
            store: self.store,
            table: self.table,
        };
        for (i, &va) in vas.iter().enumerate() {
            let lookup = self.tlb.lookup(va);
            if wants_priority {
                let active = self.phase.record(lookup.translation.is_none());
                hier.set_priority_phase(active);
            }
            let (pa, translation_latency, walked) = match lookup.translation {
                Some((frame, size)) => (frame.add(va.offset(size)), lookup.latency, false),
                None => {
                    let w = self
                        .scheme
                        .walk(&ctx, va, hier, owner)
                        .map_err(|e| (i, e))?;
                    self.tlb.fill(va, w.pa.align_down(w.size), w.size);
                    self.walker_stats.record(&flatwalk_mmu::WalkTiming {
                        pa: w.pa,
                        size: w.size,
                        accesses: w.accesses,
                        latency: w.latency,
                    });
                    (w.pa, lookup.latency + w.latency, true)
                }
            };
            let data = hier.access(pa, flatwalk_types::AccessKind::Data, owner);
            out.push(flatwalk_mmu::AccessTiming {
                translation_latency,
                data_latency: data.latency,
                walked,
                pa,
            });
        }
        Ok(())
    }

    fn context_switch(&mut self) {
        self.tlb.flush();
        self.scheme.context_switch();
    }

    fn reset_stats(&mut self) {
        self.phase.reset_flips();
        self.tlb.reset_stats();
        *self.walker_stats = WalkerStats::default();
    }
}
