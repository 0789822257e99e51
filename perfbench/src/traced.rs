//! The traced run: each job re-assembled from the layers' public
//! functions, with every call into a layer timed from outside.
//!
//! * setup — `setup::frozen_*_space` and `setup::stream_offsets`,
//!   called with the production builders' arguments;
//! * engine — `engine::run_single` / `run_multicore` over
//!   [`TimedMmu`], an `EngineBackend` that forwards each span to the
//!   production `MmuBackend` and times it; the engine's self time is
//!   the call's time minus its spans;
//! * tlb / mmu / mem — on every [`SAMPLE_EVERY`]th span the ops run one
//!   at a time as `Mmu::translate` + `MemoryHierarchy::access` (the
//!   per-op form `access_batch` must equal), each half timed;
//! * baselines — [`TimedScheme`] wraps a `Scheme` handed to the public
//!   `SchemeSimulation::build` and times each `Scheme::walk`.
//!
//! The wrappers only time calls: the reports must equal the untraced
//! run's byte for byte, which the caller checks through the digest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use flatwalk_baselines::{
    AsapScheme, EchScheme, MitosisScheme, PomTlbScheme, Scheme, SchemeSimulation, SchemeWalk,
    VictimaScheme, WalkCtx,
};
use flatwalk_mem::{EnergyModel, MemoryHierarchy};
use flatwalk_mmu::{AccessTiming, AddressSpace, Mmu, NestedTables};
use flatwalk_pt::{FrameStore, PageTable, WalkError};
use flatwalk_sim::engine::{self, EngineBackend, EngineCore, EngineRun, MmuBackend};
use flatwalk_sim::{RivalKind, SimOptions, SimReport, TranslationConfig, VirtConfig};
use flatwalk_tlb::PhaseDetector;
use flatwalk_types::{AccessKind, OwnerId, VirtAddr};
use flatwalk_workloads::{AccessStream, WorkloadSpec};

use crate::jobs::{build_space, build_streams, Built, Job, SchemeKind};

/// Every `SAMPLE_EVERY`th engine span runs per op with the TLB/walk
/// and data halves timed separately.
pub const SAMPLE_EVERY: u64 = 8;

/// Nanoseconds since `t`.
fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Sum and count of timed calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Total nanoseconds.
    pub ns: u64,
    /// Number of calls.
    pub n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    fn merge(&mut self, o: Acc) {
        self.ns += o.ns;
        self.n += o.n;
    }

    /// Mean per call after removing `overhead` ns of timer cost.
    pub fn mean_less(&self, overhead: f64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.ns as f64 / self.n as f64 - overhead).max(0.0)
        }
    }
}

/// What one span-timing backend saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanProbe {
    /// Every `access_span` call.
    pub spans: Acc,
    /// `Mmu::translate` on TLB hits (sampled spans).
    pub tlb_hit: Acc,
    /// `Mmu::translate` on ops that walked (sampled spans).
    pub walked: Acc,
    /// Data-side `MemoryHierarchy::access` (sampled spans).
    pub data: Acc,
}

impl SpanProbe {
    fn merge(&mut self, o: &SpanProbe) {
        self.spans.merge(o.spans);
        self.tlb_hit.merge(o.tlb_hit);
        self.walked.merge(o.walked);
        self.data.merge(o.data);
    }
}

/// The tables a [`TimedMmu`] translates against.
#[derive(Clone, Copy)]
enum Tables<'a> {
    Native(&'a FrameStore, &'a PageTable),
    Nested([&'a FrameStore; 2], [&'a PageTable; 2]),
}

impl<'a> Tables<'a> {
    fn aspace(self) -> AddressSpace<'a> {
        match self {
            Tables::Native(store, table) => AddressSpace::native(store, table),
            Tables::Nested([guest_store, host_store], [guest_table, host_table]) => {
                AddressSpace::nested(NestedTables {
                    guest_store,
                    guest_table,
                    host_store,
                    host_table,
                })
            }
        }
    }
}

/// An `EngineBackend` that times each span and forwards it to the
/// production `MmuBackend` (or, on sampled spans, to its per-op form).
pub struct TimedMmu<'a> {
    mmu: &'a mut Mmu,
    tables: Tables<'a>,
    probe: SpanProbe,
}

impl<'a> TimedMmu<'a> {
    fn new(mmu: &'a mut Mmu, tables: Tables<'a>) -> Self {
        TimedMmu {
            mmu,
            tables,
            probe: SpanProbe::default(),
        }
    }

    fn per_op(
        &mut self,
        hier: &mut MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
        out: &mut Vec<AccessTiming>,
    ) -> Result<(), (usize, WalkError)> {
        out.clear();
        let aspace = self.tables.aspace();
        for (i, &va) in vas.iter().enumerate() {
            let t0 = Instant::now();
            let (pa, translation_latency, walked) = self
                .mmu
                .translate(&aspace, hier, va, owner)
                .map_err(|e| (i, e))?;
            let t1 = Instant::now();
            let data = hier.access(pa, AccessKind::Data, owner);
            let t2 = Instant::now();
            let translate_ns = (t1 - t0).as_nanos() as u64;
            if walked {
                self.probe.walked.add(translate_ns);
            } else {
                self.probe.tlb_hit.add(translate_ns);
            }
            self.probe.data.add((t2 - t1).as_nanos() as u64);
            out.push(AccessTiming {
                translation_latency,
                data_latency: data.latency,
                walked,
                pa,
            });
        }
        Ok(())
    }
}

impl EngineBackend for TimedMmu<'_> {
    fn access_span(
        &mut self,
        hier: &mut MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
        out: &mut Vec<AccessTiming>,
    ) -> Result<(), (usize, WalkError)> {
        let sampled = (self.probe.spans.n + 1).is_multiple_of(SAMPLE_EVERY);
        let t = Instant::now();
        let result = if sampled {
            self.per_op(hier, vas, owner, out)
        } else {
            MmuBackend::new(&mut *self.mmu, self.tables.aspace()).access_span(hier, vas, owner, out)
        };
        self.probe.spans.add(ns(t));
        result
    }

    fn context_switch(&mut self) {
        self.mmu.context_switch();
    }

    fn shootdown(&mut self) -> u64 {
        self.mmu.shootdown()
    }

    fn reset_stats(&mut self) {
        self.mmu.reset_stats();
    }
}

/// What a [`TimedScheme`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchemeProbe {
    /// Every `Scheme::walk` call.
    pub walks: Acc,
    /// Mitosis/NUMA-Base walk steps served by a remote node.
    pub remote_steps: u64,
}

/// A `Scheme` that times each walk of the scheme it wraps.
pub struct TimedScheme<S> {
    inner: S,
    probe: Rc<RefCell<SchemeProbe>>,
    remote_steps: fn(&S) -> u64,
}

impl<S: Scheme> Scheme for TimedScheme<S> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn walk(
        &mut self,
        ctx: &WalkCtx<'_>,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        owner: OwnerId,
    ) -> Result<SchemeWalk, WalkError> {
        let t = Instant::now();
        let result = self.inner.walk(ctx, va, hier, owner);
        let elapsed = ns(t);
        let mut p = self.probe.borrow_mut();
        p.walks.add(elapsed);
        p.remote_steps = (self.remote_steps)(&self.inner);
        result
    }

    fn wants_priority(&self) -> bool {
        self.inner.wants_priority()
    }

    fn context_switch(&mut self) {
        self.inner.context_switch();
    }
}

/// Layer times and samples of one traced job.
#[derive(Debug, Default, Clone)]
pub struct CellTrace {
    /// Time in `setup::frozen_*_space` (waits on sibling builds
    /// included).
    pub space_ns: u64,
    /// Time in `setup::stream_offsets`.
    pub stream_ns: u64,
    /// The rest of the build: MMU, hierarchy, stream replay, scheme
    /// construction.
    pub assemble_ns: u64,
    /// The engine call (`run_single` / `run_multicore` /
    /// `SchemeSimulation::try_run`).
    pub engine_ns: u64,
    /// Report assembly after the engine returns.
    pub report_ns: u64,
    /// Span timing (native and virtualized engines).
    pub spans: SpanProbe,
    /// Whether the spans walked 2-D tables.
    pub nested: bool,
    /// Whether this is a multicore job (one-op spans).
    pub multicore: bool,
    /// Scheme walk timing, by scheme label.
    pub scheme: Option<(&'static str, SchemeProbe)>,
    /// Page-table bytes of the spaces this job used, by snapshot.
    pub tables: Vec<(usize, u64)>,
}

impl CellTrace {
    /// The sum of the job's layer times.
    pub fn layer_sum_ns(&self) -> u64 {
        self.space_ns + self.stream_ns + self.assemble_ns + self.engine_ns + self.report_ns
    }
}

/// Stopwatch handing out consecutive laps.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let d = (now - self.0).as_nanos() as u64;
        self.0 = now;
        d
    }
}

/// A traced job's reports and layer times, or its failure.
pub type Traced = Result<(Vec<SimReport>, CellTrace), String>;

/// Runs `job` from its layers' public functions, timing each call.
pub fn run(job: &Job) -> Traced {
    let mut trace = CellTrace::default();
    let reports = match job {
        Job::Cell(cell) => match cell.rival {
            None => native(&cell.workload, &cell.config, &cell.opts, job, &mut trace),
            Some((kind, _)) => {
                let opts = &cell.opts;
                match kind {
                    RivalKind::Victima => scheme(
                        &cell.workload,
                        || VictimaScheme::new(64 << 10, opts.pwc.clone()),
                        |_| 0,
                        opts,
                        job,
                        &mut trace,
                    ),
                    RivalKind::Mitosis { replicate } => scheme(
                        &cell.workload,
                        || {
                            MitosisScheme::new(
                                opts.hierarchy.numa.clone(),
                                replicate,
                                opts.pwc.clone(),
                            )
                        },
                        |s| s.remote_steps,
                        opts,
                        job,
                        &mut trace,
                    ),
                }
            }
        },
        Job::Virt { spec, config, opts } => virt(spec, config, opts, job, &mut trace),
        Job::Multicore { config, opts, .. } => multicore(config, opts, job, &mut trace),
        Job::Scheme {
            spec,
            scheme: kind,
            opts,
        } => {
            let scaled = spec.clone().scaled_down(opts.footprint_divisor);
            let mixed = opts.scenario.large_page_fraction > 0.0;
            let pwc = opts.pwc.clone();
            match kind {
                SchemeKind::Asap => {
                    scheme(spec, || AsapScheme::new(pwc), |_| 0, opts, job, &mut trace)
                }
                SchemeKind::Ech => scheme(
                    spec,
                    || EchScheme::new(scaled.footprint, mixed),
                    |_| 0,
                    opts,
                    job,
                    &mut trace,
                ),
                SchemeKind::PomTlb => scheme(
                    spec,
                    || PomTlbScheme::new(16 << 20, pwc),
                    |_| 0,
                    opts,
                    job,
                    &mut trace,
                ),
                SchemeKind::Csalt => scheme(
                    spec,
                    || PomTlbScheme::new(16 << 20, pwc).csalt(),
                    |_| 0,
                    opts,
                    job,
                    &mut trace,
                ),
            }
        }
    }?;
    Ok((reports, trace))
}

/// Calls the setup layer for `job` — the space function, then the
/// stream function — timing each.
fn setup_layers(job: &Job, trace: &mut CellTrace) -> (Built, Vec<Arc<Vec<u64>>>) {
    let t = Instant::now();
    let built = build_space(job);
    trace.space_ns += ns(t);
    let t = Instant::now();
    let streams = build_streams(job);
    trace.stream_ns += ns(t);
    trace.tables = built.tables();
    (built, streams)
}

/// Native single-core cell: `NativeSimulation::build_shared` +
/// `try_run`, re-assembled.
fn native(
    workload: &WorkloadSpec,
    config: &TranslationConfig,
    opts: &SimOptions,
    job: &Job,
    trace: &mut CellTrace,
) -> Result<Vec<SimReport>, String> {
    let (built, streams) = setup_layers(job, trace);
    let mut laps = Laps(Instant::now());
    let Built::Native(space) = built else {
        unreachable!("native cells build a native space")
    };
    let spec = workload.clone().scaled_down(opts.footprint_divisor);
    let mut stream = AccessStream::replay(spec.clone(), space.spec().base_va, streams[0].clone());
    let mut mmu = Mmu::native(
        opts.tlb.clone(),
        opts.pwc.for_layout(&config.layout),
        config.ptp,
    );
    mmu.set_phase_detector(PhaseDetector::new(opts.phase_window, opts.phase_threshold));
    let mut hier = MemoryHierarchy::new(opts.hierarchy.clone().with_priority_prob(opts.ptp_bias));
    let run = engine_run(config.label, &spec, opts);
    trace.assemble_ns += laps.lap();
    let mut backend = TimedMmu::new(&mut mmu, Tables::Native(space.store(), space.table()));
    let totals = engine::run_single(&mut backend, &mut hier, &mut stream, OwnerId::SINGLE, &run)
        .map_err(|e| e.to_string())?;
    trace.spans = backend.probe;
    trace.engine_ns += laps.lap();
    let report = SimReport {
        workload: spec.name.to_string(),
        config: config.label,
        instructions: totals.instructions,
        cycles: totals.cycles.round() as u64,
        walk: mmu.stats().walker,
        tlb: mmu.stats().tlb,
        hier: hier.stats(),
        energy: hier.energy(&EnergyModel::default()),
        census: *space.census(),
        phase_flips: mmu.phase_flips(),
        pwc: mmu.pwc_stats().unwrap_or_default(),
        faults: totals.faults,
    };
    trace.report_ns += laps.lap();
    Ok(vec![report])
}

/// The engine parameters every single-core driver passes.
fn engine_run<'a>(label: &'static str, spec: &'a WorkloadSpec, opts: &SimOptions) -> EngineRun<'a> {
    EngineRun {
        scheme: label,
        workload: spec.name,
        core: None,
        work_per_access: spec.work_per_access,
        data_exposure: spec.data_exposure,
        l1_latency: opts.hierarchy.l1.latency,
        warmup_ops: opts.warmup_ops,
        measure_ops: opts.measure_ops,
        context_switch_interval: opts.context_switch_interval,
        events: &[],
    }
}

/// 2-D virtualized cell: `VirtualizedSimulation::build` + `try_run`,
/// re-assembled.
fn virt(
    workload: &WorkloadSpec,
    config: &VirtConfig,
    opts: &SimOptions,
    job: &Job,
    trace: &mut CellTrace,
) -> Result<Vec<SimReport>, String> {
    let (built, streams) = setup_layers(job, trace);
    let mut laps = Laps(Instant::now());
    let Built::Virt(vspace) = built else {
        unreachable!("virtualized cells build a virtualized space")
    };
    let spec = workload.clone().scaled_down(opts.footprint_divisor);
    let mut stream = AccessStream::replay(
        spec.clone(),
        vspace.guest().spec().base_va,
        streams[0].clone(),
    );
    let mut mmu = Mmu::nested(
        opts.tlb.clone(),
        opts.pwc.for_layout(&config.guest_layout()),
        opts.pwc.for_layout(&config.host_layout()),
        opts.nested_tlb_entries,
        config.ptp,
    );
    mmu.set_phase_detector(PhaseDetector::new(opts.phase_window, opts.phase_threshold));
    let mut hier = MemoryHierarchy::new(opts.hierarchy.clone().with_priority_prob(opts.ptp_bias));
    let run = engine_run(config.label, &spec, opts);
    trace.assemble_ns += laps.lap();
    let tables = Tables::Nested(
        [vspace.guest().store(), vspace.host_store()],
        [vspace.guest().table(), vspace.host_table()],
    );
    let mut backend = TimedMmu::new(&mut mmu, tables);
    let totals = engine::run_single(&mut backend, &mut hier, &mut stream, OwnerId::SINGLE, &run)
        .map_err(|e| e.to_string())?;
    trace.spans = backend.probe;
    trace.nested = true;
    trace.engine_ns += laps.lap();
    let report = SimReport {
        workload: spec.name.to_string(),
        config: config.label,
        instructions: totals.instructions,
        cycles: totals.cycles.round() as u64,
        walk: mmu.stats().walker,
        tlb: mmu.stats().tlb,
        hier: hier.stats(),
        energy: hier.energy(&EnergyModel::default()),
        census: *vspace.guest().census(),
        phase_flips: mmu.phase_flips(),
        pwc: mmu.pwc_stats().unwrap_or_default(),
        faults: totals.faults,
    };
    trace.report_ns += laps.lap();
    Ok(vec![report])
}

/// Four-core mix: `MulticoreSimulation::build` + `try_run`,
/// re-assembled.
fn multicore(
    config: &TranslationConfig,
    opts: &SimOptions,
    job: &Job,
    trace: &mut CellTrace,
) -> Result<Vec<SimReport>, String> {
    let Job::Multicore { mix, .. } = job else {
        unreachable!("multicore() runs multicore jobs")
    };
    let (built, streams) = setup_layers(job, trace);
    let mut laps = Laps(Instant::now());
    let Built::Multicore(spaces) = built else {
        unreachable!("multicore jobs build per-core spaces")
    };
    let hier_cfg = opts.hierarchy.clone().with_priority_prob(opts.ptp_bias);
    let shared = MemoryHierarchy::new(hier_cfg.clone());
    let l3 = shared.shared_l3();
    let dram = shared.shared_dram();
    drop(shared);
    struct Core {
        spec: WorkloadSpec,
        mmu: Mmu,
        hier: MemoryHierarchy,
        stream: AccessStream,
    }
    let mut cores: Vec<Core> = mix
        .parts
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = WorkloadSpec::by_name(name)
                .expect("Table 2 names resolve")
                .scaled_down(opts.footprint_divisor);
            let mut mmu = Mmu::native(
                opts.tlb.clone(),
                opts.pwc.for_layout(&config.layout),
                config.ptp,
            );
            mmu.set_phase_detector(PhaseDetector::new(opts.phase_window, opts.phase_threshold));
            let mut hier =
                MemoryHierarchy::with_shared_l3(hier_cfg.clone(), Rc::clone(&l3), Rc::clone(&dram));
            hier.set_node(i as u32);
            let stream =
                AccessStream::replay(spec.clone(), spaces[i].spec().base_va, streams[i].clone());
            Core {
                spec,
                mmu,
                hier,
                stream,
            }
        })
        .collect();
    trace.assemble_ns += laps.lap();
    let mut engine_cores: Vec<EngineCore<'_, TimedMmu<'_>>> = cores
        .iter_mut()
        .zip(spaces.iter())
        .map(|(core, space)| EngineCore {
            backend: TimedMmu::new(&mut core.mmu, Tables::Native(space.store(), space.table())),
            hier: &mut core.hier,
            stream: &mut core.stream,
            workload: core.spec.name,
            work_per_access: core.spec.work_per_access,
            data_exposure: core.spec.data_exposure,
            events: Vec::new(),
        })
        .collect();
    let totals = engine::run_multicore(
        &mut engine_cores,
        config.label,
        opts.hierarchy.l1.latency,
        opts.warmup_ops,
        opts.measure_ops,
    )
    .map_err(|e| e.to_string())?;
    for core in &engine_cores {
        trace.spans.merge(&core.backend.probe);
    }
    drop(engine_cores);
    trace.multicore = true;
    trace.engine_ns += laps.lap();
    let reports = cores
        .into_iter()
        .zip(spaces.iter())
        .zip(totals)
        .map(|((c, space), totals)| SimReport {
            workload: c.spec.name.to_string(),
            config: config.label,
            instructions: totals.instructions,
            cycles: totals.cycles.round() as u64,
            walk: c.mmu.stats().walker,
            tlb: c.mmu.stats().tlb,
            hier: c.hier.stats(),
            energy: c.hier.energy(&EnergyModel::default()),
            census: *space.census(),
            phase_flips: c.mmu.phase_flips(),
            pwc: c.mmu.pwc_stats().unwrap_or_default(),
            faults: totals.faults,
        })
        .collect();
    trace.report_ns += laps.lap();
    Ok(reports)
}

/// A comparison scheme through the public `SchemeSimulation::build`,
/// wrapped in [`TimedScheme`]. Its setup artifacts are fetched first
/// (timed), so the build's own setup calls hit the cache; `make`
/// constructs the scheme inside the timed build.
fn scheme<S: Scheme>(
    workload: &WorkloadSpec,
    make: impl FnOnce() -> S,
    remote_steps: fn(&S) -> u64,
    opts: &SimOptions,
    job: &Job,
    trace: &mut CellTrace,
) -> Result<Vec<SimReport>, String> {
    setup_layers(job, trace);
    let mut laps = Laps(Instant::now());
    let probe = Rc::new(RefCell::new(SchemeProbe::default()));
    let inner = make();
    let label = inner.label();
    let sim = SchemeSimulation::build(
        workload.clone(),
        TimedScheme {
            inner,
            probe: Rc::clone(&probe),
            remote_steps,
        },
        opts,
    );
    trace.assemble_ns += laps.lap();
    let report = sim.try_run().map_err(|e| e.to_string())?;
    trace.engine_ns += laps.lap();
    trace.scheme = Some((label, *probe.borrow()));
    Ok(vec![report])
}

/// Per-layer aggregates over the jobs of one traced pass.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Σ space-build time.
    pub space_ns: u64,
    /// Σ stream-generation time.
    pub stream_ns: u64,
    /// Engine self time and ops of the native/virt/multicore engines.
    pub engine_self_ns: f64,
    /// Ops run through [`TimedMmu`] engines.
    pub engine_ops: u64,
    /// Sampled spans of single-core engines.
    pub native: SpanProbe,
    /// Sampled spans of 2-D engines.
    pub nested: SpanProbe,
    /// Spans of multicore engines.
    pub multicore: SpanProbe,
    /// Scheme walks by label.
    pub schemes: BTreeMap<&'static str, Acc>,
    /// Distinct page-table bytes.
    pub tables: BTreeMap<usize, u64>,
}

impl LayerTotals {
    /// Folds one job's trace in. `timer_ns` is the cost of one
    /// `Instant::now()`, charged once per timed span.
    pub fn add(&mut self, job: &Job, t: &CellTrace, timer_ns: f64) {
        self.space_ns += t.space_ns;
        self.stream_ns += t.stream_ns;
        self.tables.extend(t.tables.iter().copied());
        if let Some((label, p)) = t.scheme {
            self.schemes.entry(label).or_default().merge(p.walks);
            return;
        }
        let spans = t.spans.spans;
        self.engine_self_ns +=
            (t.engine_ns as f64 - spans.ns as f64 - spans.n as f64 * timer_ns).max(0.0);
        self.engine_ops += job.sim_ops();
        let into = if t.multicore {
            &mut self.multicore
        } else if t.nested {
            &mut self.nested
        } else {
            &mut self.native
        };
        into.merge(&t.spans);
    }
}
