//! Derives `GVF_BUILD_HASH`, the identity of the simulator's code that
//! the cell cache keys every entry to (see `src/cellcache.rs`).
//!
//! The hash is 64-bit FNV-1a over every `.rs` file under the `src`
//! directories of the crates a cell's result depends on, each fed as its
//! path relative to `crates/` followed by its bytes, in sorted path
//! order. Editing any of those files changes the hash, so a cache entry
//! written by other code is never read back.

use std::path::{Path, PathBuf};

/// The crates whose sources decide what a simulation cell computes.
const CRATES: [&str; 6] = ["mem", "alloc", "core", "sim", "workloads", "bench"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn main() {
    let manifest_dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("manifest dir"));
    let crates_dir = manifest_dir.parent().expect("crates directory");
    let mut files = Vec::new();
    for name in CRATES {
        let src = crates_dir.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        rust_files(&src, &mut files);
    }
    let mut keyed: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(crates_dir).expect("file under crates/");
            let rel: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            (rel.join("/"), p)
        })
        .collect();
    keyed.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in &keyed {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        fnv1a64(&mut h, rel.as_bytes());
        fnv1a64(&mut h, &[0]);
        fnv1a64(&mut h, &(bytes.len() as u64).to_le_bytes());
        fnv1a64(&mut h, &bytes);
    }
    println!("cargo:rustc-env=GVF_BUILD_HASH={h:016x}");
}
