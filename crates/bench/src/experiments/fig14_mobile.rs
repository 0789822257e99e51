//! Figure 14 / Table 3 — the mobile case study: a Speedometer-2.0-like
//! browser mix on the Table 3 high-end mobile configuration under
//! virtualization (pKVM-style), sweeping which levels of the guest (and
//! host) tables are flattened. Normalized to the 2-D baseline.

use flatwalk_bench::{pct, print_table, run_jobs};
use flatwalk_pt::Layout;
use flatwalk_sim::{SimReport, VirtConfig, VirtualizedSimulation};
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.mobile_options();
    println!(
        "Table 3 config: L1D {} KB, L2 {} KB, L3 {} MB, DRAM {} cycles",
        opts.hierarchy.l1.size_bytes >> 10,
        opts.hierarchy.l2.size_bytes >> 10,
        opts.hierarchy.l3.size_bytes >> 20,
        opts.hierarchy.dram_latency,
    );

    // Flattening options: (label, guest layout, host layout).
    let variants: Vec<(&'static str, Layout, Layout)> = vec![
        ("Base-2D", Layout::conventional4(), Layout::conventional4()),
        ("g:L4+L3", Layout::flat_l4l3(), Layout::conventional4()),
        ("g:L3+L2", Layout::flat_l3l2(), Layout::conventional4()),
        ("g:L2+L1", Layout::flat_l2l1(), Layout::conventional4()),
        (
            "g:L4+L3,L2+L1",
            Layout::flat_l4l3_l2l1(),
            Layout::conventional4(),
        ),
        (
            "g+h:L4+L3,L2+L1",
            Layout::flat_l4l3_l2l1(),
            Layout::flat_l4l3_l2l1(),
        ),
    ];

    let jobs: Vec<(u32, &'static str, Layout, Layout)> = [1u32, 5]
        .iter()
        .flat_map(|&iteration| {
            variants
                .iter()
                .map(move |(label, guest, host)| (iteration, *label, guest.clone(), host.clone()))
        })
        .collect();
    let all: Vec<SimReport> = run_jobs(
        "fig14",
        jobs,
        opts.warmup_ops + opts.measure_ops,
        |(iteration, label, guest, host)| {
            let cfg = VirtConfig {
                label,
                guest_flat: guest != Layout::conventional4(),
                host_flat: host != Layout::conventional4(),
                ptp: false,
            };
            VirtualizedSimulation::build_custom(
                WorkloadSpec::browser_mix(iteration),
                cfg,
                guest,
                host,
                &opts,
            )
            .run()
        },
    );

    for r in &all {
        flatwalk_bench::emit::record_report("fig14", r);
    }

    let mut rows = Vec::new();
    for (&iteration, group) in [1u32, 5].iter().zip(all.chunks(variants.len())) {
        let mut base_ipc = 0.0f64;
        for ((label, _, _), r) in variants.iter().zip(group) {
            if *label == "Base-2D" {
                base_ipc = r.ipc();
            }
            rows.push(vec![
                format!("iter{iteration}"),
                label.to_string(),
                format!("{:.4}", r.ipc()),
                pct(r.ipc() / base_ipc),
                format!("{:.2}", r.walk.accesses_per_walk()),
            ]);
        }
    }
    print_table(
        &["iteration", "flattening", "ipc", "vs Base-2D", "acc/walk"],
        &rows,
    );
    println!();
    println!("Paper reference: flattening closer to the leaves helps most; both");
    println!("L4+L3 and L2+L1 flattened gives +3.8% (iter1) / +4.3% (iter5).");
}
