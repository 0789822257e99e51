//! §7.1 — page-table-to-LLC ratio sweep: the benefit of page-table
//! prioritization as the leaf page table grows relative to the LLC
//! (modelled, as in the paper, by shrinking the LLC 2x/4x/8x/16x).

use flatwalk_bench::{geomean_speedup, grids, pct, print_table, run_cells};

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = grids::sec71_ratio_suite(mode);
    let llc_full = opts.hierarchy.l3.size_bytes;

    // Per shrink factor: the baseline suite then the PTP suite, all in
    // one batch across the pool.
    let all = run_cells("sec71_ratio", grids::sec71_ratio(mode, &opts).cells);

    let mut rows = Vec::new();
    for (&shrink, group) in grids::SEC71_RATIO_SHRINKS
        .iter()
        .zip(all.chunks(2 * suite.len()))
    {
        let (base, ptp) = group.split_at(suite.len());
        let g = geomean_speedup(ptp, base);
        rows.push(vec![
            format!("{shrink}x"),
            format!("{} MB", (llc_full / shrink).max(1 << 20) >> 20),
            pct(g),
        ]);
    }
    print_table(&["PT:LLC ratio", "LLC size", "PTP benefit"], &rows);
    println!();
    println!("Paper reference: PTP holds up — +6.8% (1x), +5.9% (2x), +5.6% (4x),");
    println!("+6.5% (8x), +7.0% (16x); even at 16x, caching 6.3% of the page table");
    println!("still pays.");
}
