//! Differential test for the generic walk engine: every scheme × engine
//! combination must produce a `SimReport` JSON byte-identical to the
//! golden capture taken from the pre-unification per-engine loops
//! (`tests/golden/engine_unification/`).
//!
//! The goldens were generated from the legacy native/virtualized/
//! multicore `try_run` loops before they were re-expressed over the
//! shared engine core, so a pass here proves the refactor preserved
//! every modelled byte — instructions, cycles, walk/TLB/cache/PWC
//! statistics, energy, and fault counters — including a fault-seeded
//! cell whose mid-run shootdowns must land on the same stream
//! positions.
//!
//! Regenerate (only when intentionally changing modelled behaviour):
//!
//! ```text
//! FLATWALK_REGEN_GOLDEN=1 cargo test --release --test engine_unification
//! ```

use std::path::PathBuf;

use flatwalk::baselines::{
    AsapScheme, EchScheme, MitosisScheme, PomTlbScheme, SchemeSimulation, VictimaScheme,
};
use flatwalk::faults::{self, FaultPlan};
use flatwalk::mem::NumaTopology;
use flatwalk::sim::{
    table2_mixes, MulticoreSimulation, NativeSimulation, SimOptions, TranslationConfig, VirtConfig,
    VirtualizedSimulation,
};
use flatwalk::workloads::WorkloadSpec;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("engine_unification")
}

fn regen() -> bool {
    std::env::var("FLATWALK_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Compares (or regenerates) one golden capture.
fn check(name: &str, json: String) -> Result<(), String> {
    let path = golden_dir().join(format!("{name}.json"));
    if regen() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &json).expect("write golden");
        return Ok(());
    }
    let want = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name}: missing golden {}: {e}", path.display()))?;
    if want == json {
        Ok(())
    } else {
        Err(format!(
            "{name}: report diverged from the pre-unification golden ({} bytes vs {})",
            json.len(),
            want.len()
        ))
    }
}

fn native_opts() -> SimOptions {
    SimOptions::small_test()
}

/// Options that exercise the context-switch boundary logic of the span
/// scheduler (spans must clamp to the switch interval).
fn switching_opts() -> SimOptions {
    let mut o = SimOptions::small_test();
    o.context_switch_interval = Some(900);
    o
}

fn multicore_opts() -> SimOptions {
    let mut o = SimOptions::small_test();
    o.footprint_divisor = 64;
    o.phys_mem_bytes = 2 << 30;
    o
}

/// One test body so the process-global fault plan can be installed for
/// the fault-seeded cells without racing sibling tests.
#[test]
fn engine_reports_match_pre_unification_goldens() {
    let mut failures: Vec<String> = Vec::new();
    let mut run = |name: String, json: String| {
        if let Err(e) = check(&name, json) {
            failures.push(e);
        }
    };

    // Native engine: the full Fig. 9 configuration set.
    let spec = WorkloadSpec::gups().scaled_mib(32);
    let mut native_set = TranslationConfig::fig9_set();
    native_set.push(TranslationConfig::flattened_no_nf());
    native_set.push(TranslationConfig::flattened_l3l2());
    for cfg in native_set {
        let r = NativeSimulation::build(spec.clone(), cfg.clone(), &native_opts()).run();
        run(
            format!("native_{}", slug(cfg.label)),
            r.to_json().to_string(),
        );
    }
    // Native with context switches (span boundaries).
    let r = NativeSimulation::build(
        spec.clone(),
        TranslationConfig::flattened_prioritized(),
        &switching_opts(),
    )
    .run();
    run("native_cs_FPT_PTP".into(), r.to_json().to_string());

    // Virtualized engine: the full Fig. 12 configuration set.
    for cfg in VirtConfig::fig12_set() {
        let r = VirtualizedSimulation::build(spec.clone(), cfg, &native_opts()).run();
        run(format!("virt_{}", slug(cfg.label)), r.to_json().to_string());
    }

    // Multicore engine: a heterogeneous Table 2 mix under Base and
    // FPT+PTP; per-core reports are captured as a JSON array.
    let mix = &table2_mixes()[7];
    for cfg in [
        TranslationConfig::baseline(),
        TranslationConfig::flattened_prioritized(),
    ] {
        let label = cfg.label;
        let r = MulticoreSimulation::build(mix, cfg, &multicore_opts()).run();
        let cores: Vec<String> = r.cores.iter().map(|c| c.to_json().to_string()).collect();
        run(
            format!("multicore_mix8_{}", slug(label)),
            format!("[{}]", cores.join(",")),
        );
    }

    // Comparison schemes share the engine's timing proxy.
    let o = native_opts();
    let scaled = spec.clone().scaled_down(o.footprint_divisor);
    let r = SchemeSimulation::build(spec.clone(), AsapScheme::new(o.pwc.clone()), &o).run();
    run("scheme_ASAP".into(), r.to_json().to_string());
    let r =
        SchemeSimulation::build(spec.clone(), EchScheme::new(scaled.footprint, false), &o).run();
    run("scheme_ECH".into(), r.to_json().to_string());
    let r =
        SchemeSimulation::build(spec.clone(), PomTlbScheme::new(16 << 20, o.pwc.clone()), &o).run();
    run("scheme_POM_TLB".into(), r.to_json().to_string());
    let r = SchemeSimulation::build(
        spec.clone(),
        PomTlbScheme::new(16 << 20, o.pwc.clone()).csalt(),
        &o,
    )
    .run();
    run("scheme_CSALT".into(), r.to_json().to_string());
    let r = SchemeSimulation::build(
        spec.clone(),
        VictimaScheme::new(64 << 10, o.pwc.clone()),
        &o,
    )
    .run();
    run("scheme_Victima".into(), r.to_json().to_string());

    // NUMA rivals on a 2-node machine, where Mitosis's pinned entry
    // addresses and replica writes change the DRAM/NUMA bytes.
    let topo = NumaTopology::nodes(2);
    let mut numa = native_opts();
    numa.hierarchy = numa.hierarchy.clone().with_numa(topo.clone());
    for replicate in [false, true] {
        let scheme = MitosisScheme::new(topo.clone(), replicate, numa.pwc.clone());
        let r = SchemeSimulation::build(spec.clone(), scheme, &numa).run();
        run(
            format!("scheme_{}_2node", slug(r.config)),
            r.to_json().to_string(),
        );
    }

    // Fault-seeded cells: mid-run shootdowns must land on identical
    // stream positions in every engine.
    faults::install(FaultPlan::parse("11:mutate").expect("valid plan"));
    let r = NativeSimulation::build(
        spec.clone(),
        TranslationConfig::flattened_prioritized(),
        &native_opts(),
    )
    .run();
    run("fault_native_FPT_PTP".into(), r.to_json().to_string());
    let r = VirtualizedSimulation::build(spec.clone(), VirtConfig::fig12_set()[3], &native_opts())
        .run();
    run("fault_virt_GF_HF".into(), r.to_json().to_string());
    let r = MulticoreSimulation::build(mix, TranslationConfig::baseline(), &multicore_opts()).run();
    let cores: Vec<String> = r.cores.iter().map(|c| c.to_json().to_string()).collect();
    run(
        "fault_multicore_mix8_Base".into(),
        format!("[{}]", cores.join(",")),
    );
    faults::clear();

    assert!(
        failures.is_empty(),
        "engine unification diverged from pre-refactor goldens:\n{}",
        failures.join("\n")
    );
}
