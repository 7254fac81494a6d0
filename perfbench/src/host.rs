//! Host and build stamp, and process memory.

use std::path::Path;
use std::process::Command;

/// Hardware threads available to this process (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, if it ran and succeeded.
/// `output()` waits for the child, so no process outlives the call.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

/// `rustc --version` of the toolchain in effect, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory, or — in a checkout that
/// is not a git repository — `src-` plus an FNV-1a hash of the sources
/// the benchmark builds (`crates/`, `vendor/`, this package), so two
/// results can still be matched to the code that produced them.
pub fn revision(root: &Path) -> String {
    if root.join(".git").exists() {
        if let Some(rev) =
            command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        {
            return rev;
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for f in ["Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let Ok(ft) = e.file_type() else { continue };
        if ft.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        } else if ft.is_file() {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The stamp every output carries: host, toolchain, code and inputs.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// CPU model.
    pub cpu: String,
    /// Hardware threads.
    pub nproc: usize,
    /// Toolchain.
    pub rustc: String,
    /// Code revision.
    pub revision: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Stamp {
    /// Collects the stamp for a run of `workload` from the checkout
    /// rooted at `root`.
    pub fn collect(root: &Path, workload: &str, seed: u64, trace: bool) -> Self {
        Stamp {
            cpu: cpu_model(),
            nproc: nproc(),
            rustc: rustc_version(),
            revision: revision(root),
            workload: workload.to_string(),
            seed,
            trace,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        use crate::json_string as s;
        format!(
            "{{\"cpu\": {}, \"nproc\": {}, \"rustc\": {}, \"revision\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
            s(&self.cpu),
            self.nproc,
            s(&self.rustc),
            s(&self.revision),
            s(&self.workload),
            self.seed,
            self.trace
        )
    }
}
