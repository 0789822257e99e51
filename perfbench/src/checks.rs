//! Correctness checks run on every benchmark run. Any violation makes
//! the benchmark exit non-zero without printing a result.

use std::collections::BTreeMap;

use flatwalk_sim::SimReport;

use crate::jobs::{Job, Kind};

/// A failed check, with what it saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `Err` with a formatted message unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), Violation> {
    if ok {
        Ok(())
    } else {
        Err(Violation(msg()))
    }
}

/// One report with the identity of the job it came from.
pub struct Row<'a> {
    /// The job.
    pub job: &'a Job,
    /// The report (one per core for multicore jobs).
    pub report: &'a SimReport,
}

impl Row<'_> {
    fn lp0(&self) -> bool {
        self.job.opts().scenario.large_page_fraction == 0.0
    }

    fn key(&self) -> (String, bool) {
        (self.report.workload.clone(), self.lp0())
    }
}

/// The paper-shape invariants over a grid's reports:
///
/// * FPT and FPT+PTP native cells read 1.00 accesses per walk at 0 % LP;
/// * PTP's walk latency is at most Base's on gups, per scenario;
/// * GF+HF(+PTP) 2-D walks take fewer accesses than Base-2D's.
///
/// The 2-node Mitosis/NUMA-Base comparison needs the schemes' own step
/// counters and is checked by [`remote_steps`].
pub fn invariants(rows: &[Row<'_>]) -> Result<(), Violation> {
    let mut by_config: BTreeMap<(&str, (String, bool)), &SimReport> = BTreeMap::new();
    for row in rows {
        if row.job.kind() == Kind::Native {
            let r = row.report;
            if matches!(r.config, "FPT" | "FPT+PTP") && row.lp0() {
                let apw = r.walk.accesses_per_walk();
                ensure(r.walk.walks > 0 && format!("{apw:.2}") == "1.00", || {
                    format!(
                        "{} {} at 0% LP: {apw:.4} accesses/walk over {} walks, expected 1.00",
                        r.workload, r.config, r.walk.walks
                    )
                })?;
            }
        }
        if row.job.kind() != Kind::Multicore {
            by_config.insert((row.report.config, row.key()), row.report);
        }
    }
    for (&(config, ref key), r) in &by_config {
        let base = |label: &str| by_config.get(&(label, key.clone())).copied();
        match config {
            "PTP" if key.0 == "gups" => {
                if let Some(b) = base("Base") {
                    ensure(
                        r.walk.latency_per_walk() <= b.walk.latency_per_walk(),
                        || {
                            format!(
                                "gups PTP walk latency {:.2} exceeds Base's {:.2}",
                                r.walk.latency_per_walk(),
                                b.walk.latency_per_walk()
                            )
                        },
                    )?;
                }
            }
            "GF+HF" | "GF+HF+PTP" => {
                if let Some(b) = base("Base-2D") {
                    ensure(
                        r.walk.accesses_per_walk() < b.walk.accesses_per_walk(),
                        || {
                            format!(
                                "{} {config} 2-D accesses/walk {:.3} not below Base-2D's {:.3}",
                                key.0,
                                r.walk.accesses_per_walk(),
                                b.walk.accesses_per_walk()
                            )
                        },
                    )?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Mitosis walk steps served remotely must not exceed NUMA-Base's, per
/// workload (`steps` maps (scheme label, workload) to remote steps).
pub fn remote_steps(steps: &BTreeMap<(&'static str, String), u64>) -> Result<(), Violation> {
    for ((label, workload), &mitosis) in steps {
        if *label != "Mitosis" {
            continue;
        }
        if let Some(&base) = steps.get(&("NUMA-Base", workload.clone())) {
            ensure(mitosis <= base, || {
                format!("{workload}: Mitosis remote walk steps {mitosis} exceed NUMA-Base's {base}")
            })?;
        }
    }
    Ok(())
}

/// Every job completed.
pub fn no_failures<T>(labels: &[String], results: &[Result<T, String>]) -> Result<(), Violation> {
    for (label, r) in labels.iter().zip(results) {
        if let Err(e) = r {
            return Err(Violation(format!("cell {label} failed: {e}")));
        }
    }
    Ok(())
}

/// A run's digest equals the first run's.
pub fn same_digest(what: &str, first: &str, now: &str) -> Result<(), Violation> {
    ensure(first == now, || {
        format!("model digest of {what} changed within one invocation: {first} then {now}")
    })
}

/// A cached reply's report bytes equal the executed reply's.
pub fn same_bytes(what: &str, executed: &str, served: &str) -> Result<(), Violation> {
    ensure(executed == served, || {
        let at = executed
            .bytes()
            .zip(served.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(executed.len().min(served.len()));
        format!("{what}: served report bytes differ from the executed reply at byte {at}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{native_grid, Scale};

    /// The native tiny grid's reports, run in-process.
    fn tiny_native() -> (Vec<Job>, Vec<SimReport>) {
        let jobs = native_grid(0, Scale::Tiny);
        let reports = jobs
            .iter()
            .map(|j| match j {
                Job::Cell(c) => c.run(),
                _ => unreachable!("the native grid holds runner cells"),
            })
            .collect();
        (jobs, reports)
    }

    fn rows<'a>(jobs: &'a [Job], reports: &'a [SimReport]) -> Vec<Row<'a>> {
        jobs.iter()
            .zip(reports)
            .map(|(job, report)| Row { job, report })
            .collect()
    }

    #[test]
    fn invariants_hold_on_real_reports_and_fire_on_corrupted_ones() {
        let (jobs, mut reports) = tiny_native();
        invariants(&rows(&jobs, &reports)).expect("real reports satisfy the paper's shapes");

        let fpt = reports
            .iter()
            .position(|r| r.config == "FPT")
            .expect("grid has FPT cells");
        reports[fpt].walk.accesses += reports[fpt].walk.walks;
        let err = invariants(&rows(&jobs, &reports)).unwrap_err();
        assert!(err.0.contains("accesses/walk"), "{err}");
        reports[fpt].walk.accesses -= reports[fpt].walk.walks;

        let (ptp, base) = (
            reports
                .iter()
                .position(|r| r.config == "PTP" && r.workload == "gups")
                .unwrap(),
            reports
                .iter()
                .position(|r| r.config == "Base" && r.workload == "gups")
                .unwrap(),
        );
        reports[ptp].walk.latency = reports[base].walk.latency * 2 + 1;
        reports[ptp].walk.walks = reports[base].walk.walks;
        let err = invariants(&rows(&jobs, &reports)).unwrap_err();
        assert!(err.0.contains("PTP walk latency"), "{err}");
    }

    #[test]
    fn digest_and_byte_checks_fire() {
        assert!(same_digest("grid", "00aa", "00aa").is_ok());
        assert!(same_digest("grid", "00aa", "00ab").is_err());
        assert!(same_bytes("cell", "{\"a\":1}", "{\"a\":1}").is_ok());
        let err = same_bytes("cell", "{\"a\":1}", "{\"a\":2}").unwrap_err();
        assert!(err.0.contains("byte 5"), "{err}");
    }

    #[test]
    fn remote_step_check_fires() {
        let mut steps = BTreeMap::new();
        steps.insert(("NUMA-Base", "gups".to_string()), 10);
        steps.insert(("Mitosis", "gups".to_string()), 0);
        assert!(remote_steps(&steps).is_ok());
        steps.insert(("Mitosis", "gups".to_string()), 11);
        assert!(remote_steps(&steps).is_err());
    }

    #[test]
    fn failures_are_reported() {
        let labels = vec!["a".to_string(), "b".to_string()];
        assert!(no_failures(&labels, &[Ok(()), Ok(())]).is_ok());
        let err = no_failures(&labels, &[Ok(()), Err("boom".to_string())]).unwrap_err();
        assert!(err.0.contains("cell b failed: boom"));
    }
}
