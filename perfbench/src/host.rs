//! Host and code fingerprint recorded with every result, so runs on
//! different machines, thread settings or code are never compared silently.

use crate::report::Report;
use std::path::{Path, PathBuf};

/// Adds the host and code entries to `report`'s fingerprint.
pub fn fingerprint(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fingerprint("nproc", nproc);
    report.fingerprint("cpu_model", cpu_model());
    report.fingerprint(
        "COCKTAIL_KERNEL_THREADS",
        std::env::var(cocktail_quant::parallel::KERNEL_THREADS_ENV)
            .unwrap_or_else(|_| "unset".into()),
    );
    report.fingerprint("kernel_threads", cocktail_quant::parallel::kernel_threads());
    report.fingerprint(
        "git_commit",
        git_commit().unwrap_or_else(|| "unknown".into()),
    );
    report.fingerprint("source_hash", source_hash());
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(reference)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over every Rust source and manifest under `crates/` and `shims/`
/// (sorted paths), identifying the measured code even outside git.
fn source_hash() -> String {
    let mut files = Vec::new();
    for root in ["crates", "shims"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for file in &files {
        eat(file.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(file) {
            eat(&bytes);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(path);
        }
    }
}
