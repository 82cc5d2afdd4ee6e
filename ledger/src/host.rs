//! Host fingerprint and process memory, reported with every result.

use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `rustc -V`, or why it could not be read.
    pub rustc: String,
    /// `release` or `debug` (whether debug assertions are compiled in).
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and build.
    pub fn read(root: &std::path::Path) -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = match Command::new("rustc").arg("-V").output() {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).trim().to_string()
            }
            Ok(out) => format!("unknown (rustc -V exited with {})", out.status),
            Err(e) => format!("unknown ({e})"),
        };
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        Fingerprint { nproc, rustc, profile, commit: git_commit(root) }
    }
}

/// The commit `HEAD` resolves to, read from `.git` without running git.
fn git_commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    // Packed refs: "<id> <ref>" lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
