//! Computes `store::MODEL_FINGERPRINT`: an FNV-1a fold, in sorted path
//! order, of the workspace-relative path and bytes of every `*.rs` under
//! `crates/*/src` except serve's own. Serve splices report bytes
//! verbatim and never shapes them, so its own edits keep stored results.

use std::fs;
use std::path::{Path, PathBuf};

#[path = "src/fnv.rs"]
mod fnv;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in fs::read_dir(workspace.join("crates"))
        .expect("crates dir")
        .flatten()
    {
        let src = krate.path().join("src");
        if krate.file_name() != "serve" && src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            rust_sources(&src, &mut files);
        }
    }
    files.sort();
    let mut input = Vec::new();
    for path in &files {
        // Workspace-relative names: where the checkout lives must not
        // change the fingerprint.
        let name = path.strip_prefix(&workspace).expect("under the workspace");
        let name = name.to_string_lossy();
        input.extend(name.replace('\\', "/").bytes().chain([0]));
        input.extend(fs::read(path).expect("readable source"));
        input.push(0);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    let fingerprint = format!("{:#018x}\n", fnv::fnv1a64(&input, 0));
    fs::write(out.join("model_fingerprint.rs"), fingerprint).expect("write the fingerprint");
}
