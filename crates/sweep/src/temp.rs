//! Collision-free scratch directories for checkpoints and service state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Creates a fresh, empty directory under the system temp dir, named
/// `mtsim-<tag>-<pid>-<n>` with `n` drawn from a process-wide counter.
/// Two calls never share a directory: not from two processes, and not
/// from two threads of one process (parallel tests, say) passing the
/// same tag. A leftover directory of a recycled pid is cleared first.
/// The caller removes the directory when done.
///
/// # Errors
///
/// Returns the I/O error if the directory cannot be created.
pub fn unique_temp_dir(tag: &str) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mtsim-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_calls_get_distinct_empty_directories() {
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|| unique_temp_dir("temp-test").unwrap())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, d) in dirs.iter().enumerate() {
            assert!(d.is_dir() && std::fs::read_dir(d).unwrap().next().is_none());
            assert!(!dirs[..i].contains(d), "{} handed out twice", d.display());
        }
        for d in dirs {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}
