//! The host stamp every result carries, and the process's peak memory.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the OS lets this process run (`available_parallelism`).
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the sources the benchmark builds, which identifies the
    /// code where no commit is known.
    pub source_fnv: String,
}

impl Host {
    /// Stamps the current host; `root` is the repository checkout.
    pub fn detect(root: &Path) -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu,
            rustc: command_line("rustc", &["--version"], root),
            commit: command_line("git", &["rev-parse", "HEAD"], root),
            source_fnv: format!("{:016x}", source_fingerprint(root)),
        }
    }

    /// The stamp as a JSON object.
    pub fn json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{},\"source_fnv\":\"{}\"}}",
            json_string(workload),
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.rustc),
            json_string(&self.commit),
            self.source_fnv
        )
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Threads the OS lets this process run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`. The child is
/// waited for by `output`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace manifests and every file under `crates/` and
/// `shims/`, visited in sorted path order.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
