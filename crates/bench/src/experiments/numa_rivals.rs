//! Rival schemes × NUMA topologies: Victima (L2-resident TLB entries,
//! MICRO 2023) and Mitosis (per-node page-table replicas, ASPLOS 2020)
//! against this simulator's native FPT+PTP and an unreplicated
//! NUMA-Base column, on 1-node (identity), 2-node full-mesh, and
//! 4-node ring topologies.
//!
//! Per cell: IPC, walk anatomy, and the per-node `numa.*` placement
//! counters (blank on the 1-node identity topology, which by
//! construction reports exactly what the pre-NUMA simulator reported).
//! `--scheme <name>` re-runs one column in isolation.

use flatwalk_bench::{geomean_speedup, grids, pct, print_table, run_cells};
use flatwalk_sim::SimReport;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let mut grid = grids::numa_rivals(mode, &opts);
    crate::retain_scheme(args, "numa_rivals", &mut grid);
    let labels = grid.labels.clone();
    let reports = run_cells("numa_rivals", grid.cells);

    let mut rows = Vec::new();
    for (label, r) in labels.iter().zip(&reports) {
        let numa = &r.hier.numa;
        let (local, remote, hops) = if numa.multi_node() {
            (
                numa.local().to_string(),
                numa.remote().to_string(),
                numa.hops().to_string(),
            )
        } else {
            ("-".to_string(), "-".to_string(), "-".to_string())
        };
        rows.push(vec![
            label.clone(),
            format!("{:.4}", r.ipc()),
            format!("{:.2}", r.walk.accesses_per_walk()),
            format!("{:.1}", r.walk.latency_per_walk()),
            local,
            remote,
            hops,
        ]);
    }
    print_table(
        &[
            "cell", "IPC", "acc/walk", "walk-lat", "local", "remote", "hops",
        ],
        &rows,
    );

    // Geomean speedups per (topology, scheme) column against that
    // topology's NUMA-Base column — only when the full grid ran (a
    // --scheme filter leaves nothing to normalize against).
    let suite = grids::numa_rivals_suite(mode);
    let columns = grids::numa_rival_columns();
    let per_topo = columns.len() * suite.len();
    if reports.len() == grids::numa_topologies().len() * per_topo {
        println!();
        let mut rows = Vec::new();
        for (t, (tlabel, _)) in grids::numa_topologies().iter().enumerate() {
            let topo_reports = &reports[t * per_topo..(t + 1) * per_topo];
            let base: &[SimReport] = &topo_reports[suite.len()..2 * suite.len()];
            for (c, (slabel, _)) in columns.iter().enumerate() {
                if *slabel == "NUMA-Base" {
                    continue;
                }
                let col = &topo_reports[c * suite.len()..(c + 1) * suite.len()];
                rows.push(vec![
                    format!("{tlabel}/{slabel}"),
                    pct(geomean_speedup(col, base)),
                ]);
            }
        }
        print_table(&["column", "geomean vs NUMA-Base"], &rows);
        println!();
        println!("Expectations: on 1-node all columns see zero NUMA traffic; Mitosis");
        println!("matches NUMA-Base there (replication is a no-op with one replica).");
        println!("On 2/4 nodes Mitosis walks go fully local while NUMA-Base pays hop");
        println!("latency on remote steps; Victima trades walk latency for L2 space.");
    }
}
