//! `FLATWALK_SPANS_FOLDED=<path>` on its own (no `FLATWALK_TRACE`) must
//! collect spans and dump them as flamegraph-collapsed text at exit.

use std::process::Command;

#[test]
fn spans_folded_alone_writes_folded_lines() {
    let path =
        std::env::temp_dir().join(format!("flatwalk-spans-folded-{}.txt", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_flatwalk-bench"))
        .args([
            "fig01_headline",
            "--quick",
            "--threads",
            "1",
            "--scheme",
            "dc/FPT+PTP",
        ])
        .env("FLATWALK_PROGRESS", "0")
        .env_remove("FLATWALK_TRACE")
        .env("FLATWALK_SPANS_FOLDED", &path)
        .output()
        .expect("run fig01_headline");
    assert!(out.status.success(), "fig01_headline failed: {out:?}");
    let folded = std::fs::read_to_string(&path).expect("folded dump written");
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = folded.lines().collect();
    assert!(!lines.is_empty(), "folded dump is empty");
    for line in &lines {
        let (stack, nanos) = line.rsplit_once(' ').expect("`path self_nanos` line");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        nanos.parse::<u64>().expect("numeric self time");
    }
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("cell;cell.attempt;engine.measure")),
        "the measured engine phase is in the dump:\n{folded}"
    );
}
