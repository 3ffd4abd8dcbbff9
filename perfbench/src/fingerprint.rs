//! The run fingerprint printed with every result: which host, which
//! scheduler settings, which code and which inputs produced the numbers.

use std::path::Path;

use redcr_sched::{Backend, PoolConfig};

/// Where a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Host parallelism (`available_parallelism`).
    pub nproc: usize,
    /// Worker threads the workload resolves to at its default width.
    pub width: usize,
    /// Execution backend (`REDCR_EXEC`).
    pub backend: &'static str,
    /// Coroutine stack size, KiB (`REDCR_STACK_KB`).
    pub stack_kb: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub revision: String,
    /// FNV-1a hash over every file under `crates/` (paths and contents),
    /// which names the code even where the checkout carries no git data.
    pub tree_fnv: u64,
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Fingerprints a run of `workload` that ran at `width` worker threads.
    pub fn capture(workload: &'static str, seed: u64, width: usize) -> Self {
        let pool = PoolConfig::resolve(None, 1);
        Fingerprint {
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            width,
            backend: match pool.backend {
                Backend::Coro => "coro",
                Backend::Threads => "threads",
            },
            stack_kb: pool.stack_bytes / 1024,
            revision: git_revision(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            tree_fnv: tree_fnv(Path::new("crates")),
            workload,
            seed,
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": {:?}, \"nproc\": {}, \"width\": {}, \"backend\": \"{}\", \"stack_kb\": {}, \
             \"revision\": {:?}, \"tree_fnv\": \"{:016x}\", \"workload\": \"{}\", \"seed\": {}}}",
            self.cpu,
            self.nproc,
            self.width,
            self.backend,
            self.stack_kb,
            self.revision,
            self.tree_fnv,
            self.workload,
            self.seed
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Reads the checked-out commit from `<root>/.git` without running git,
/// so nothing outside the checkout is consulted.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the sorted relative paths and contents of every file
/// under `dir`.
fn tree_fnv(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(dir, &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for path in files {
        feed(path.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&path) {
            feed(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let json = Fingerprint::capture("cg_vote", 7, 2).to_json();
        for key in [
            "cpu", "nproc", "width", "backend", "stack_kb", "revision", "tree_fnv", "workload",
            "seed",
        ] {
            assert!(json.contains(&format!("\"{key}\": ")), "{key} missing from {json}");
        }
        assert!(json.contains("\"seed\": 7"));
    }
}
