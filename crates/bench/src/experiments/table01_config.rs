//! Tables 1 and 3 — the simulated system configurations, printed from
//! the code that actually configures the simulator (so the tables in
//! the paper and the configs in this repo cannot drift apart).

use flatwalk_sim::SimOptions;

fn print_options(title: &str, opts: &SimOptions) {
    println!("=== {title} ===");
    let h = &opts.hierarchy;
    println!(
        "  L1 D-cache   {:>6} KB, {}-way, {} cycles",
        h.l1.size_bytes >> 10,
        h.l1.ways,
        h.l1.latency
    );
    println!(
        "  L2 cache     {:>6} KB, {}-way, {} cycles  (PT priority wired: {})",
        h.l2.size_bytes >> 10,
        h.l2.ways,
        h.l2.latency,
        h.l2.pt_priority
    );
    println!(
        "  L3 cache     {:>6} MB, {}-way, {} cycles  (PT priority wired: {})",
        h.l3.size_bytes >> 20,
        h.l3.ways,
        h.l3.latency,
        h.l3.pt_priority
    );
    println!("  DRAM         {} cycles load-to-use", h.dram_latency);
    println!(
        "  L1 TLB       4K: {}-entry/{}-way   2M: {}-entry/{}-way   1G: {}-entry/{}-way (1 cycle, parallel)",
        opts.tlb.l1_4k.entries,
        opts.tlb.l1_4k.ways,
        opts.tlb.l1_2m.entries,
        opts.tlb.l1_2m.ways,
        opts.tlb.l1_1g.entries,
        opts.tlb.l1_1g.ways,
    );
    println!(
        "  L2 TLB       {}-entry/{}-way, {} cycles (4K/2M unified)",
        opts.tlb.l2_entries, opts.tlb.l2_ways, opts.tlb.l2_latency
    );
    print!("  PWC (PSC)    ");
    for d in &opts.pwc.depths {
        print!("{}-bit: {} entries  ", d.prefix_bits, d.entries);
    }
    println!("({} cycle, parallel)", opts.pwc.latency);
    println!(
        "  Nested TLB   {}-entry fully associative, 1 cycle",
        opts.nested_tlb_entries
    );
    println!();
}

pub fn run(_: &crate::Args) {
    print_options("Table 1 — server (gem5-equivalent)", &SimOptions::server());
    print_options(
        "Table 3 — mobile (industrial-simulator-equivalent)",
        &SimOptions::mobile(),
    );
    println!("Multicore (§7.1): four Table 1 cores, 32 MB shared L3, per-owner");
    println!("partition IDs in cache tags (§6.1).");
}
