//! The batch workloads' jobs: what each cell is, how production code
//! runs it, and which setup artifacts it needs.
//!
//! Every job is built from the workspace's public constructors with the
//! benchmark seed XORed into its `WorkloadSpec::seed`. The setup
//! helpers call the public `flatwalk_sim::setup` functions with exactly
//! the arguments the production builders pass, so a prebuild pass (or
//! the traced run) fills the same setup-cache keys the cells then hit.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use flatwalk_baselines::{AsapScheme, EchScheme, PomTlbScheme, SchemeSimulation};
use flatwalk_os::{AddressSpaceSpec, FragmentationScenario, FrozenSpace, FrozenVirtSpace};
use flatwalk_pt::Layout;
use flatwalk_sim::runner::{self, Cell, CellOutcome};
use flatwalk_sim::{
    multicore_options, setup, table2_mixes, Mix, MulticoreSimulation, RivalKind, SimOptions,
    SimReport, TranslationConfig, VirtConfig, VirtualizedSimulation,
};
use flatwalk_workloads::WorkloadSpec;

/// Worker threads for every batch grid (the host has two cores).
pub const THREADS: usize = 2;

/// Which engine a job exercises; `ns_per_op` is split along this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Native single-core cells (the fused native walk kernel).
    Native,
    /// 2-D virtualized cells (the nested walker).
    Virt,
    /// Four-core shared-LLC cells (one-op spans).
    Multicore,
    /// Rival translation schemes behind `Scheme`.
    Rival,
}

impl Kind {
    /// All kinds, in report order.
    pub const ALL: [Kind; 4] = [Kind::Native, Kind::Virt, Kind::Multicore, Kind::Rival];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Native => "native",
            Kind::Virt => "virt",
            Kind::Multicore => "multicore",
            Kind::Rival => "rival",
        }
    }
}

/// The comparison schemes that have no `RivalKind` and run through
/// `SchemeSimulation` directly, as the Fig. 9/13 binaries run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// ASAP prefetched walks.
    Asap,
    /// Elastic cuckoo hashing.
    Ech,
    /// Part-of-memory TLB.
    PomTlb,
    /// CSALT (POM-TLB with cache partitioning).
    Csalt,
}

/// One unit of work in a batch grid.
#[derive(Debug, Clone)]
pub enum Job {
    /// A runner cell: native, or a `RivalKind` scheme through
    /// `flatwalk_baselines::run_rival`.
    Cell(Cell),
    /// A 2-D virtualized simulation.
    Virt {
        /// Workload.
        spec: WorkloadSpec,
        /// Fig. 12 configuration.
        config: VirtConfig,
        /// Options.
        opts: Arc<SimOptions>,
    },
    /// A four-core Table 2 mix.
    Multicore {
        /// The mix.
        mix: Mix,
        /// Translation configuration.
        config: TranslationConfig,
        /// Options.
        opts: Arc<SimOptions>,
    },
    /// A comparison scheme without a `RivalKind`.
    Scheme {
        /// Workload.
        spec: WorkloadSpec,
        /// Which scheme.
        scheme: SchemeKind,
        /// Options.
        opts: Arc<SimOptions>,
    },
}

impl Job {
    /// Engine kind.
    pub fn kind(&self) -> Kind {
        match self {
            Job::Cell(c) if c.rival.is_some() => Kind::Rival,
            Job::Cell(_) => Kind::Native,
            Job::Virt { .. } => Kind::Virt,
            Job::Multicore { .. } => Kind::Multicore,
            Job::Scheme { .. } => Kind::Rival,
        }
    }

    /// Simulated operations, summed over cores.
    pub fn sim_ops(&self) -> u64 {
        let opts = self.opts();
        let cores = if matches!(self, Job::Multicore { .. }) {
            4
        } else {
            1
        };
        (opts.warmup_ops + opts.measure_ops) * cores
    }

    /// The job's options.
    pub fn opts(&self) -> &SimOptions {
        match self {
            Job::Cell(c) => &c.opts,
            Job::Virt { opts, .. } | Job::Multicore { opts, .. } | Job::Scheme { opts, .. } => opts,
        }
    }

    /// Human-readable label, unique within a grid.
    pub fn label(&self) -> String {
        match self {
            Job::Cell(c) => {
                let config = match c.rival {
                    Some((RivalKind::Victima, _)) => "Victima",
                    Some((RivalKind::Mitosis { replicate: true }, _)) => "Mitosis",
                    Some((RivalKind::Mitosis { replicate: false }, _)) => "NUMA-Base",
                    None => c.config.label,
                };
                let nodes = c.opts.hierarchy.numa.node_count();
                format!(
                    "{}/{}/{}/{}n",
                    c.workload.name,
                    config,
                    c.scenario.label(),
                    nodes
                )
            }
            Job::Virt { spec, config, .. } => format!("{}/{}", spec.name, config.label),
            Job::Multicore { mix, config, .. } => format!("mix{}/{}", mix.id, config.label),
            Job::Scheme { spec, scheme, .. } => format!("{}/{}", spec.name, scheme_label(*scheme)),
        }
    }
}

/// Report label of a comparison scheme.
pub fn scheme_label(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Asap => "ASAP",
        SchemeKind::Ech => "ECH",
        SchemeKind::PomTlb => "POM_TLB",
        SchemeKind::Csalt => "CSALT",
    }
}

/// Size of a grid: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measurement scale.
    Full,
    /// Smoke-test scale: small footprints, few operations.
    Tiny,
}

/// Quick-mode server options with the benchmark's operation counts.
fn server_opts(scale: Scale) -> SimOptions {
    let mut opts = flatwalk_bench::Mode::Quick.server_options();
    match scale {
        Scale::Full => {
            opts.warmup_ops = 30_000;
            opts.measure_ops = 90_000;
        }
        Scale::Tiny => {
            opts.footprint_divisor = 64;
            opts.warmup_ops = 2_000;
            opts.measure_ops = 6_000;
        }
    }
    opts
}

/// `spec` with the benchmark seed XORed into its stream seed.
fn seeded(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed: spec.seed ^ seed,
        ..spec
    }
}

/// The translation configs of the native grid (Fig. 1/9 set).
fn native_configs() -> [TranslationConfig; 4] {
    [
        TranslationConfig::baseline(),
        TranslationConfig::flattened(),
        TranslationConfig::prioritized(),
        TranslationConfig::flattened_prioritized(),
    ]
}

/// `native_grid`: {gups, xsbench, dc} × {Base, FPT, PTP, FPT+PTP} ×
/// {0 %, 50 % LP}, native single-core cells.
pub fn native_grid(seed: u64, scale: Scale) -> Vec<Job> {
    let opts = server_opts(scale);
    let mut jobs = Vec::new();
    for spec in [
        WorkloadSpec::gups(),
        WorkloadSpec::xsbench(),
        WorkloadSpec::dc(),
    ] {
        for scenario in [FragmentationScenario::NONE, FragmentationScenario::HALF] {
            for config in native_configs() {
                jobs.push(Job::Cell(Cell::new(
                    seeded(spec.clone(), seed),
                    config,
                    scenario,
                    opts.clone(),
                )));
            }
        }
    }
    jobs
}

/// `rival_engines`: every cell kind that bypasses the native fused
/// walker — 2-D virtualized cells, one Table 2 multicore mix, the
/// `SchemeSimulation` comparison schemes, and the 2-node NUMA rivals.
pub fn rival_engines(seed: u64, scale: Scale) -> Vec<Job> {
    let opts = Arc::new(server_opts(scale));
    let specs = [WorkloadSpec::gups(), WorkloadSpec::dc()];
    let mut jobs = Vec::new();
    let fig12 = VirtConfig::fig12_set();
    for config in [fig12[0], fig12[7]] {
        for spec in &specs {
            jobs.push(Job::Virt {
                spec: seeded(spec.clone(), seed),
                config,
                opts: Arc::clone(&opts),
            });
        }
    }
    let mut mc = multicore_options();
    mc.footprint_divisor = 16;
    mc.phys_mem_bytes = 8 << 30;
    (mc.warmup_ops, mc.measure_ops) = match scale {
        Scale::Full => (8_000, 24_000),
        Scale::Tiny => (500, 1_500),
    };
    if scale == Scale::Tiny {
        mc.footprint_divisor = 128;
    }
    let mc = Arc::new(mc);
    // Mix 8 (rand., liblinear, dc, cc): the heterogeneous mix the
    // engine harness has always timed.
    let mix = table2_mixes()
        .into_iter()
        .find(|m| m.id == 8)
        .expect("Table 2 has mix 8");
    for config in [
        TranslationConfig::baseline(),
        TranslationConfig::flattened_prioritized(),
    ] {
        jobs.push(Job::Multicore {
            mix: mix.clone(),
            config,
            opts: Arc::clone(&mc),
        });
    }
    for scheme in [
        SchemeKind::Asap,
        SchemeKind::Ech,
        SchemeKind::PomTlb,
        SchemeKind::Csalt,
    ] {
        for spec in &specs {
            jobs.push(Job::Scheme {
                spec: seeded(spec.clone(), seed),
                scheme,
                opts: Arc::clone(&opts),
            });
        }
    }
    let mut numa = server_opts(scale);
    numa.hierarchy = numa
        .hierarchy
        .with_numa(flatwalk_mem::NumaTopology::nodes(2));
    for kind in [
        RivalKind::Mitosis { replicate: false },
        RivalKind::Mitosis { replicate: true },
        RivalKind::Victima,
    ] {
        for spec in &specs {
            jobs.push(Job::Cell(Cell::rival(
                seeded(spec.clone(), seed),
                TranslationConfig::baseline(),
                FragmentationScenario::NONE,
                numa.clone(),
                kind,
                flatwalk_baselines::run_rival,
            )));
        }
    }
    jobs
}

/// How one job ended in an untraced run.
#[derive(Debug)]
pub struct Outcome {
    /// Reports (four for a multicore job), or the failure.
    pub reports: Result<Vec<SimReport>, String>,
    /// Build-phase nanoseconds, as the simulation builders record them.
    pub setup_ns: u64,
    /// Run-phase nanoseconds.
    pub run_ns: u64,
}

impl From<CellOutcome> for Outcome {
    fn from(o: CellOutcome) -> Self {
        match o {
            CellOutcome::Ok {
                report,
                setup_nanos,
                run_nanos,
                ..
            } => Outcome {
                reports: Ok(vec![report]),
                setup_ns: setup_nanos,
                run_ns: run_nanos,
            },
            CellOutcome::Failed { error, .. } => Outcome {
                reports: Err(error),
                setup_ns: 0,
                run_ns: 0,
            },
        }
    }
}

/// Runs a grid through production code at [`THREADS`] workers. A grid
/// of runner cells goes to `runner::run_cells_timed` whole; mixed grids
/// fan out through `runner::run_ordered`, with runner cells inside the
/// same per-cell fault domain (`runner::run_cell_outcome`).
pub fn run_production(jobs: &[Job]) -> Vec<Outcome> {
    let cells: Option<Vec<Cell>> = jobs
        .iter()
        .map(|j| match j {
            Job::Cell(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    if let Some(cells) = cells {
        return runner::run_cells_timed("perfbench", cells, THREADS)
            .into_iter()
            .map(Outcome::from)
            .collect();
    }
    let total = jobs.len();
    let indexed: Vec<(usize, &Job)> = jobs.iter().enumerate().collect();
    let progress = runner::Progress::quiet(total);
    runner::run_ordered(
        indexed,
        THREADS,
        &progress,
        |(_, j)| j.sim_ops(),
        |(index, job)| match job {
            Job::Cell(cell) => runner::run_cell_outcome(index, total, cell).into(),
            other => {
                setup::begin_cell_timing();
                let reports = std::panic::catch_unwind(AssertUnwindSafe(|| run_other(other)))
                    .unwrap_or_else(|p| Err(panic_message(&p)));
                let (setup_ns, run_ns) = setup::cell_timing();
                Outcome {
                    reports,
                    setup_ns,
                    run_ns,
                }
            }
        },
    )
}

/// Production path of the non-cell jobs.
fn run_other(job: &Job) -> Result<Vec<SimReport>, String> {
    match job {
        Job::Cell(cell) => cell.try_run().map(|r| vec![r]),
        Job::Virt { spec, config, opts } => {
            VirtualizedSimulation::build(spec.clone(), *config, opts)
                .try_run()
                .map(|r| vec![r])
        }
        Job::Multicore { mix, config, opts } => {
            MulticoreSimulation::build(mix, config.clone(), opts)
                .try_run()
                .map(|r| r.cores)
        }
        Job::Scheme { spec, scheme, opts } => {
            let spec = spec.clone();
            let scaled = spec.clone().scaled_down(opts.footprint_divisor);
            let mixed = opts.scenario.large_page_fraction > 0.0;
            match scheme {
                SchemeKind::Asap => {
                    SchemeSimulation::build(spec, AsapScheme::new(opts.pwc.clone()), opts).try_run()
                }
                SchemeKind::Ech => {
                    SchemeSimulation::build(spec, EchScheme::new(scaled.footprint, mixed), opts)
                        .try_run()
                }
                SchemeKind::PomTlb => SchemeSimulation::build(
                    spec,
                    PomTlbScheme::new(16 << 20, opts.pwc.clone()),
                    opts,
                )
                .try_run(),
                SchemeKind::Csalt => SchemeSimulation::build(
                    spec,
                    PomTlbScheme::new(16 << 20, opts.pwc.clone()).csalt(),
                    opts,
                )
                .try_run(),
            }
            .map(|r| vec![r])
        }
    }
    .map_err(|e| e.to_string())
}

/// Renders a caught panic payload.
pub fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// A job's setup artifacts: frozen spaces and stream prefixes.
pub enum Built {
    /// One native space (native cells and every scheme).
    Native(Arc<FrozenSpace>),
    /// Guest + host tables.
    Virt(Arc<FrozenVirtSpace>),
    /// Four per-core spaces carved from one memory.
    Multicore(Arc<Vec<Arc<FrozenSpace>>>),
}

impl Built {
    /// Page-table bytes of each distinct space, keyed by snapshot
    /// address so shared snapshots count once.
    pub fn tables(&self) -> Vec<(usize, u64)> {
        match self {
            Built::Native(s) => vec![(Arc::as_ptr(s) as usize, s.census().table_bytes())],
            Built::Virt(v) => vec![(
                Arc::as_ptr(v) as usize,
                v.guest().census().table_bytes() + v.host_census().table_bytes(),
            )],
            Built::Multicore(spaces) => spaces
                .iter()
                .map(|s| (Arc::as_ptr(s) as usize, s.census().table_bytes()))
                .collect(),
        }
    }
}

/// The guest-table spec and host scenario a virtualized build uses
/// (`VirtualizedSimulation::build_custom`'s derivation).
pub fn virt_specs(
    footprint: u64,
    config: &VirtConfig,
    opts: &SimOptions,
) -> (AddressSpaceSpec, Layout, FragmentationScenario) {
    let guest_layout = config.guest_layout();
    let guest_flat = guest_layout != Layout::conventional4();
    let guest = AddressSpaceSpec::new(guest_layout, footprint)
        .with_scenario(opts.scenario)
        .with_nf_threshold(if guest_flat { Some(32) } else { None });
    let host_scenario = opts
        .host_scenario
        .unwrap_or(if opts.scenario.large_page_fraction < 0.5 {
            FragmentationScenario::HALF
        } else {
            opts.scenario
        });
    (guest, config.host_layout(), host_scenario)
}

/// Frozen native space for a scaled footprint (the native and scheme
/// builders' call).
pub fn native_space(
    layout: &Layout,
    nf: Option<u32>,
    footprint: u64,
    opts: &SimOptions,
) -> Arc<FrozenSpace> {
    let spec = AddressSpaceSpec::new(layout.clone(), footprint)
        .with_scenario(opts.scenario)
        .with_nf_threshold(nf);
    setup::frozen_native_space(&spec, opts.phys_mem_bytes, opts.hierarchy.numa.signature())
}

/// Builds (or fetches) the frozen space(s) `job` runs on.
pub fn build_space(job: &Job) -> Built {
    let opts = job.opts();
    let footprint =
        |spec: &WorkloadSpec| spec.clone().scaled_down(opts.footprint_divisor).footprint;
    match job {
        Job::Cell(cell) if cell.rival.is_none() => Built::Native(native_space(
            &cell.config.layout,
            cell.config.nf_threshold,
            footprint(&cell.workload),
            opts,
        )),
        // Every comparison scheme walks the conventional oracle table.
        Job::Cell(Cell { workload: spec, .. }) | Job::Scheme { spec, .. } => Built::Native(
            native_space(&Layout::conventional4(), None, footprint(spec), opts),
        ),
        Job::Virt { spec, config, .. } => {
            let (guest, host_layout, host_scenario) = virt_specs(footprint(spec), config, opts);
            Built::Virt(setup::frozen_virt_space(
                &guest,
                &host_layout,
                host_scenario,
                opts.phys_mem_bytes,
                opts.hierarchy.numa.signature(),
            ))
        }
        Job::Multicore { mix, config, .. } => Built::Multicore(setup::frozen_multicore_spaces(
            mix.parts,
            &config.layout,
            config.nf_threshold,
            opts.scenario,
            opts.footprint_divisor,
            opts.phys_mem_bytes,
            opts.hierarchy.numa.signature(),
        )),
    }
}

/// Builds (or fetches) the stream prefix of each core of `job`.
pub fn build_streams(job: &Job) -> Vec<Arc<Vec<u64>>> {
    let opts = job.opts();
    let ops = opts.warmup_ops + opts.measure_ops;
    let stream = |spec: &WorkloadSpec| {
        setup::stream_offsets(&spec.clone().scaled_down(opts.footprint_divisor), ops)
    };
    match job {
        Job::Cell(Cell { workload: spec, .. })
        | Job::Scheme { spec, .. }
        | Job::Virt { spec, .. } => vec![stream(spec)],
        Job::Multicore { mix, .. } => mix
            .parts
            .iter()
            .map(|name| stream(&WorkloadSpec::by_name(name).expect("Table 2 names resolve")))
            .collect(),
    }
}

/// Builds every job's setup artifacts on a cold cache at [`THREADS`]
/// workers (the `setup_s` pass).
pub fn prebuild(jobs: &[Job]) {
    let progress = runner::Progress::quiet(jobs.len());
    runner::run_ordered(
        jobs.iter().collect(),
        THREADS,
        &progress,
        |_| 1,
        |job| {
            build_space(job);
            build_streams(job);
        },
    );
}
