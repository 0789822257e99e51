//! Integration tests for the comparison schemes (ASAP, ECH, POM_TLB,
//! CSALT): they must translate correctly and show the cost structure
//! the paper attributes to them.

use flatwalk::baselines::{AsapScheme, EchScheme, MitosisScheme, PomTlbScheme, SchemeSimulation};
use flatwalk::sim::{NativeSimulation, SimOptions, TranslationConfig};
use flatwalk::workloads::WorkloadSpec;

fn opts() -> SimOptions {
    let mut o = SimOptions::small_test();
    o.warmup_ops = 4_000;
    o.measure_ops = 15_000;
    o
}

#[test]
fn ech_issues_three_probes_per_walk() {
    let spec = WorkloadSpec::gups().scaled_mib(256);
    let o = opts();
    let scaled = spec.clone().scaled_down(o.footprint_divisor);
    let r = SchemeSimulation::build(spec, EchScheme::new(scaled.footprint, false), &o).run();
    assert_eq!(r.config, "ECH");
    assert!(
        (r.walk.accesses_per_walk() - 3.0).abs() < 1e-9,
        "d=3 parallel probes, got {}",
        r.walk.accesses_per_walk()
    );
    assert_eq!(r.tlb.walks, r.walk.walks);
}

#[test]
fn ech_burns_more_traffic_than_baseline_for_equal_answers() {
    let spec = WorkloadSpec::gups().scaled_mib(256);
    let o = opts();
    let base = NativeSimulation::build(spec.clone(), TranslationConfig::baseline(), &o).run();
    let scaled = spec.clone().scaled_down(o.footprint_divisor);
    let ech = SchemeSimulation::build(spec, EchScheme::new(scaled.footprint, false), &o).run();
    // Same workload stream → same number of walks…
    assert_eq!(ech.tlb.walks, base.tlb.walks);
    // …but more memory traffic for the translations (paper Fig. 13).
    assert!(
        ech.walk.accesses > base.walk.accesses,
        "ECH {} vs base {}",
        ech.walk.accesses,
        base.walk.accesses
    );
}

#[test]
fn asap_keeps_access_parity_with_double_traffic_but_lower_latency() {
    let spec = WorkloadSpec::random_access().scaled_mib(512);
    let o = opts();
    let base = NativeSimulation::build(spec.clone(), TranslationConfig::baseline(), &o).run();
    let asap = SchemeSimulation::build(spec, AsapScheme::new(o.pwc.clone()), &o).run();
    assert_eq!(asap.config, "ASAP");
    // Prefetch + re-access ≈ 2x the baseline's walk accesses.
    assert!(
        asap.walk.accesses_per_walk() > 1.5 * base.walk.accesses_per_walk(),
        "ASAP {} vs base {}",
        asap.walk.accesses_per_walk(),
        base.walk.accesses_per_walk()
    );
    // Parallelized fetches must not be slower per walk than the serial
    // baseline.
    assert!(
        asap.walk.latency_per_walk() <= base.walk.latency_per_walk() + 1.0,
        "ASAP latency {} vs base {}",
        asap.walk.latency_per_walk(),
        base.walk.latency_per_walk()
    );
}

#[test]
fn pom_tlb_converges_to_single_access_walks() {
    // A workload with heavy reuse of a bounded page set: after warm-up
    // every translation that misses the on-chip TLBs hits the DRAM TLB.
    let spec = WorkloadSpec::omnetpp().scaled_mib(16);
    let mut o = opts();
    o.warmup_ops = 30_000; // touch (nearly) every page before measuring
    let r = SchemeSimulation::build(spec, PomTlbScheme::new(16 << 20, o.pwc.clone()), &o).run();
    assert_eq!(r.config, "POM_TLB");
    assert!(
        r.walk.accesses_per_walk() < 1.3,
        "warm POM_TLB walks should be ~1 access, got {}",
        r.walk.accesses_per_walk()
    );
}

#[test]
fn csalt_priority_keeps_dram_tlb_lines_cached() {
    let spec = WorkloadSpec::gups().scaled_mib(256);
    let o = opts();
    let pom =
        SchemeSimulation::build(spec.clone(), PomTlbScheme::new(16 << 20, o.pwc.clone()), &o).run();
    let csalt =
        SchemeSimulation::build(spec, PomTlbScheme::new(16 << 20, o.pwc.clone()).csalt(), &o).run();
    assert_eq!(csalt.config, "CSALT");
    // CSALT's prioritization must cut the walk latency relative to the
    // unprioritized POM_TLB (its lines stop being evicted by data).
    assert!(
        csalt.walk.latency_per_walk() <= pom.walk.latency_per_walk(),
        "CSALT {} vs POM {}",
        csalt.walk.latency_per_walk(),
        pom.walk.latency_per_walk()
    );
}

#[test]
fn schemes_are_deterministic() {
    let spec = WorkloadSpec::xsbench().scaled_mib(128);
    let o = opts();
    let scaled = spec.clone().scaled_down(o.footprint_divisor);
    let a =
        SchemeSimulation::build(spec.clone(), EchScheme::new(scaled.footprint, false), &o).run();
    let b = SchemeSimulation::build(spec, EchScheme::new(scaled.footprint, false), &o).run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.walk.accesses, b.walk.accesses);
}

/// On a 1-node machine the scheme-path NUMA-Base column
/// (`MitosisScheme` with replication off) is a plain PSC-accelerated
/// radix walk of the conventional table, so it must equal the MMU's
/// Base run on every number both paths fill. Scheme reports leave
/// `step_hits` and `pwc` empty, so those are not compared.
#[test]
fn one_node_numa_base_scheme_equals_mmu_base() {
    let o = SimOptions::small_test();
    for spec in [
        WorkloadSpec::gups().scaled_mib(64),
        WorkloadSpec::xsbench().scaled_mib(64),
    ] {
        let base = NativeSimulation::build(spec.clone(), TranslationConfig::baseline(), &o).run();
        let scheme = MitosisScheme::new(o.hierarchy.numa.clone(), false, o.pwc.clone());
        let numa_base = SchemeSimulation::build(spec.clone(), scheme, &o).run();
        let name = spec.name;
        assert_eq!(numa_base.instructions, base.instructions, "{name}");
        assert_eq!(numa_base.cycles, base.cycles, "{name}: cycles");
        assert_eq!(numa_base.walk.walks, base.walk.walks, "{name}: walks");
        assert_eq!(
            numa_base.walk.accesses, base.walk.accesses,
            "{name}: walk accesses"
        );
        assert_eq!(
            numa_base.walk.latency, base.walk.latency,
            "{name}: walk latency"
        );
    }
}
