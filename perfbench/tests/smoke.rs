//! Self-test of the benchmark: every workload at `--tiny` scale prints
//! every metric `BENCHMARK.json` names, with its unit and a finite
//! value, and refuses a run whose reports were deliberately corrupted.

use std::process::{Command, Output};
use std::sync::Mutex;

use flatwalk_obs::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// One benchmark run at a time: runs side by side would preempt each
/// other's workers between timed layer calls, which the traced runs'
/// layer-sum check rightly refuses.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One directory per invocation.
    let tag = extra.concat();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

#[test]
fn every_workload_prints_every_named_metric() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").and_then(Json::as_array).unwrap();
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let wanted = bench.get(section).and_then(Json::as_array).unwrap();
        for w in workloads {
            let name = str_of(w, "name");
            let out = run(name, trace, &[]);
            assert!(
                out.status.success(),
                "{name} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(&last_line(&out)).expect("last line is the result JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result.get("metrics").unwrap();
            let Json::Object(fields) = metrics else {
                panic!("metrics must be an object")
            };
            assert_eq!(
                fields.len(),
                wanted.len(),
                "{name}: exactly the named metrics"
            );
            for m in wanted {
                let metric = str_of(m, "name");
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} trace {trace}: {metric} missing"));
                assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{name}: {metric}");
                let value = match got.get("value") {
                    Some(Json::Float(v)) => *v,
                    Some(v) => v.as_u64().map(|u| u as f64).unwrap_or(f64::NAN),
                    None => f64::NAN,
                };
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if trace == 0 {
                    assert!(value > 0.0, "{name}: end-to-end {metric} must not be 0");
                }
            }
        }
    }
}

#[test]
fn corrupted_reports_are_refused() {
    for w in ["native_grid", "rival_engines", "serve_mix"] {
        for trace in [0u8, 1] {
            let out = run(w, trace, &["--corrupt"]);
            assert!(
                !out.status.success(),
                "{w} trace {trace} accepted a corrupted report"
            );
            assert!(
                !last_line(&out).starts_with('{'),
                "{w} trace {trace} printed a result"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("correctness check failed"), "{w}: {stderr}");
        }
    }
}
