//! §7.1 — PWC sensitivity: sweeping the 18-bit ("L3") PSC from 1 to 16
//! entries on GUPS, versus the benefit of flattening; plus the L2-PWC
//! size that would be needed to match flattening's single-access walks.

use flatwalk_bench::{grids, pct, print_table, run_cells};

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    // The whole sweep is one batch: every point varies only its
    // SimOptions (PWC geometry) or config, which ride in the cell.
    let grid = grids::sec71_pwc(mode, &opts);
    let labels = grid.labels;
    let reports = run_cells("sec71_pwc", grid.cells);
    let base4_ipc = reports[2].ipc();

    let table: Vec<Vec<String>> = labels
        .iter()
        .zip(&reports)
        .map(|(label, r)| {
            vec![
                label.clone(),
                format!("{:.2}", r.walk.accesses_per_walk()),
                format!("{:.4}", r.ipc()),
                pct(r.ipc() / base4_ipc),
            ]
        })
        .collect();
    print_table(&["config", "acc/walk", "ipc", "vs 4-entry base"], &table);
    println!();
    println!("Paper reference: sweeping the L3 PSC 1→16 entries moves GUPS by");
    println!("-1.5%..+2.4%; flattening gives +8.9%; matching it needs a ~4096-entry");
    println!("L2 PSC.");
}
