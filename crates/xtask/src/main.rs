//! Workspace automation driver, invoked as `cargo xtask <command>` (the
//! alias lives in `.cargo/config.toml`).
//!
//! Commands:
//!
//! * `check-trace FILE` — validates a Chrome trace written by `--trace`
//!   (see [`trace_check`]): parseable JSON array of span (`"X"`) and
//!   counter (`"C"`) events, non-empty, time-ordered per thread / per
//!   counter, with well-typed span args. CI runs it on a bench smoke
//!   trace so a silently-broken recorder fails the build.
//! * `expo-check FILE` — validates an admin-plane metrics scrape (see
//!   [`xtask::expo_check`]): well-formed exposition grammar, paired
//!   HELP/TYPE per family, unique series, finite values, non-negative
//!   counters, legal quantile labels. CI scrapes the closed-loop smoke's
//!   `--admin-port` mid-run and gates the snapshot through it.
//! * `trace-analyze FILE [--stage NAME] [--json OUT] [--check]` — the
//!   parallel-efficiency report (see [`trace_analyze`]): per-stage worker
//!   utilization, critical-path ratio, and chunk-imbalance statistics,
//!   with per-worker timeline bars for `--stage`. `--check` gates CI on
//!   every stage reporting positive utilization.
//! * `gate CUR [--baseline BASE] [--max KEY=V]... [--min KEY=V]...` — the
//!   one baseline gate (see [`xtask::gate`]): flattens a bench
//!   `*.stages.json` breakdown or a `queries_closed_loop --json` result into
//!   metric rows and checks them against a committed baseline (stage shares
//!   ± 0.25 points, stage peak memory ± 25%, serving p99 and queue/exec
//!   phase p99 up to ×1.5, qps down to ×0.5) and against explicit bounds on
//!   any row key. CI gates the obs smoke's breakdown and the serving smoke
//!   this way, so a stage silently ballooning or a latency, throughput or
//!   queueing regression fails the build; a gate that compared nothing
//!   fails too.
//! * `bless-baseline` — reruns the CI smoke of every committed baseline
//!   (same binaries, same flags; see [`xtask::gate::BLESS`]), gates each
//!   fresh output against itself, and only when all of them passed
//!   rewrites `results/baselines/`. Run it after intentionally changing the
//!   pipeline's stage shape or the serving path's performance envelope.
//! * `lint [--skip-clippy] [--json OUT] [--inventory OUT]` — the
//!   workspace's static-analysis gate, in two stages:
//!   1. **source lints** (see [`xtask::lints`]): the line-based rules
//!      (`SAFETY:` comments near every `unsafe`, the unsafe file
//!      allowlist, hot-path panic bans, `unsafe_op_in_unsafe_fn` denial)
//!      plus the token-aware passes driven by the in-tree lexer — the
//!      hot-path allocation ban, the atomic-ordering audit, the
//!      lock-across-parallel-region check, and span coverage of chunked
//!      stages. `--json` writes the machine-readable report;
//!      `--inventory` writes the atomic-ordering inventory table.
//!   2. **curated clippy set** — `-D warnings` plus
//!      `undocumented_unsafe_blocks`, `dbg_macro`, and `todo`, across all
//!      targets. Skipped with `--skip-clippy` for a fast editor loop.
//! * `lint-fixtures` — runs the lint fixture corpus
//!   (`crates/xtask/tests/lint_fixtures/`): accept fixtures must be
//!   clean, reject fixtures must still trip their rule, so the lints
//!   themselves cannot rot. CI runs this next to the workspace lint.
//!
//! Exit code 0 means the tree is clean; 1 means violations were printed.

mod trace_analyze;

/// The stage breakdown cases of the retired `stage-diff` command, run
/// through [`xtask::gate`] with the same verdicts.
#[cfg(test)]
#[path = "gate/stage_diff_cases.rs"]
mod stage_diff;

use xtask::{expo_check, fixtures, gate, lints, trace_check, trace_read};

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(opts) => lint(&opts),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::from(2)
            }
        },
        Some("lint-fixtures") => lint_fixtures(),
        Some("check-trace") => match args.get(1) {
            Some(file) => check_trace(Path::new(file)),
            None => {
                eprintln!("usage: cargo xtask check-trace <trace.json>");
                ExitCode::from(2)
            }
        },
        Some("expo-check") => match args.get(1) {
            Some(file) => check_expo(Path::new(file)),
            None => {
                eprintln!("usage: cargo xtask expo-check <scrape.txt>");
                ExitCode::from(2)
            }
        },
        Some("trace-analyze") => match args.get(1) {
            Some(file) => match parse_analyze_args(&args[2..]) {
                Ok(opts) => run_trace_analyze(Path::new(file), &opts),
                Err(e) => {
                    eprintln!("xtask trace-analyze: {e}");
                    ExitCode::from(2)
                }
            },
            None => {
                eprintln!(
                    "usage: cargo xtask trace-analyze <trace.json> [--stage NAME] \
                     [--json OUT] [--check] [--min-util F]"
                );
                ExitCode::from(2)
            }
        },
        Some("gate") => match parse_gate_args(&args[1..]) {
            Ok(opts) => run_gate(&opts),
            Err(e) => {
                eprintln!("xtask gate: {e}\nusage: {GATE_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("bless-baseline") => bless_baseline(),
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--skip-clippy] [--json OUT] [--inventory OUT] | \
                 lint-fixtures | check-trace <trace.json> | expo-check <scrape.txt> | \
                 trace-analyze <trace.json> [--stage NAME] [--json OUT] [--check] \
                 [--min-util F] | \
                 gate <current.json> [--baseline BASE] [--max KEY=V]... [--min KEY=V]... | \
                 bless-baseline"
            );
            ExitCode::from(2)
        }
    }
}

/// Usage line of `gate`.
const GATE_USAGE: &str =
    "cargo xtask gate <current.json> [--baseline BASE] [--max KEY=V]... [--min KEY=V]...";

/// Arguments of `gate`.
struct GateOpts {
    current: PathBuf,
    baseline: Option<PathBuf>,
    bounds: Vec<gate::Bound>,
}

fn parse_gate_args(rest: &[String]) -> Result<GateOpts, String> {
    let mut current = None;
    let mut baseline = None;
    let mut bounds = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                let path = it.next().ok_or("--baseline needs a file path")?;
                baseline = Some(PathBuf::from(path));
            }
            flag @ ("--max" | "--min") => {
                let spec = it.next().ok_or_else(|| format!("{flag} needs KEY=V"))?;
                bounds.push(gate::Bound::parse(flag, spec)?);
            }
            other if other.starts_with("--") || current.is_some() => {
                return Err(format!("unexpected argument `{other}`"))
            }
            file => current = Some(PathBuf::from(file)),
        }
    }
    Ok(GateOpts {
        current: current.ok_or("missing the file to gate")?,
        baseline,
        bounds,
    })
}

/// Gates a stage breakdown or closed-loop result; exit 0 iff every
/// baseline row and explicit bound held and at least one was compared.
fn run_gate(opts: &GateOpts) -> ExitCode {
    let texts = trace_read::read_file("gate", &opts.current).and_then(|cur| {
        let base = opts
            .baseline
            .as_deref()
            .map(|path| trace_read::read_file("gate", path))
            .transpose()?;
        Ok((cur, base))
    });
    let outcome = texts.and_then(|(cur, base)| {
        gate::gate_text(&cur, base.as_deref(), &opts.bounds).map_err(|e| format!("xtask gate: {e}"))
    });
    match outcome {
        Ok(out) => {
            eprint!("{}", out.report);
            if out.failed() {
                eprintln!(
                    "xtask gate: {} FAILED (intentional shift? refresh the baselines \
                     with `cargo xtask bless-baseline`)",
                    opts.current.display()
                );
                ExitCode::FAILURE
            } else {
                eprintln!("xtask gate: {} ok", opts.current.display());
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Options for `trace-analyze` after the file argument.
#[derive(Default)]
struct AnalyzeOpts {
    stage: Option<String>,
    json_out: Option<PathBuf>,
    check: bool,
    min_util: f64,
}

fn parse_analyze_args(rest: &[String]) -> Result<AnalyzeOpts, String> {
    let mut opts = AnalyzeOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stage" => {
                let name = it.next().ok_or("--stage needs a stage name")?;
                opts.stage = Some(name.clone());
            }
            "--json" => {
                let path = it.next().ok_or("--json needs an output path")?;
                opts.json_out = Some(PathBuf::from(path));
            }
            "--check" => opts.check = true,
            "--min-util" => {
                let value = it.next().ok_or("--min-util needs a value")?;
                opts.min_util = match value.parse::<f64>() {
                    Ok(f) if (0.0..=1.0).contains(&f) => f,
                    _ => return Err(format!("--min-util must be in [0, 1], got `{value}`")),
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs the analyzer over a trace file; exit 0 unless the file is
/// unreadable/invalid or `--check` found an idle or empty stage set.
fn run_trace_analyze(path: &Path, opts: &AnalyzeOpts) -> ExitCode {
    let text = match trace_read::read_file("trace-analyze", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = match trace_analyze::analyze_trace_text(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask trace-analyze: {} invalid: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    print!(
        "{}",
        trace_analyze::render_report(&analysis, opts.stage.as_deref())
    );
    if let Some(out) = &opts.json_out {
        let mut body = analysis.to_json().pretty();
        body.push('\n');
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("xtask trace-analyze: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask trace-analyze: wrote {}", out.display());
    }
    if opts.check {
        if let Err(e) = trace_analyze::check_analysis(&analysis, opts.min_util) {
            eprintln!("xtask trace-analyze: {} FAILED: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let floor = if opts.min_util > 0.0 {
            format!(">= {}", opts.min_util)
        } else {
            "> 0".to_string()
        };
        eprintln!(
            "xtask trace-analyze: {} ok ({} stages, all utilization {floor})",
            path.display(),
            analysis.stages.len()
        );
    }
    ExitCode::SUCCESS
}

/// Validates an admin-plane metrics scrape; exit 0 iff it is a well-formed,
/// non-empty exposition document (see [`expo_check`]).
fn check_expo(path: &Path) -> ExitCode {
    let text = match trace_read::read_file("expo-check", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match expo_check::check_expo_text(&text) {
        Ok(n) => {
            eprintln!("xtask expo-check: {} ok ({n} samples)", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask expo-check: {} invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Validates a `--trace` output file; exit 0 iff it is a well-formed,
/// non-empty, per-thread time-ordered Chrome trace.
fn check_trace(path: &Path) -> ExitCode {
    let text = match trace_read::read_file("check-trace", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match trace_check::check_trace_text(&text) {
        Ok(n) => {
            eprintln!("xtask check-trace: {} ok ({n} events)", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask check-trace: {} invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Reruns the CI smoke of every committed baseline and, once each fresh
/// output passed the gate against itself, rewrites the baselines.
fn bless_baseline() -> ExitCode {
    let root = workspace_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let result = gate::bless(&root, gate::BLESS, |smoke| {
        eprintln!("xtask bless-baseline: cargo {}", smoke.cargo_args);
        let output = Command::new(&cargo)
            .current_dir(&root)
            .args(smoke.cargo_args.split_whitespace())
            .output()
            .map_err(|e| format!("could not run cargo: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "smoke for {} failed:\n{}",
                smoke.baseline,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        String::from_utf8(output.stdout)
            .map_err(|e| format!("smoke for {} wrote non-UTF-8 output: {e}", smoke.baseline))
    });
    match result {
        Ok(written) => {
            for path in written {
                eprintln!("xtask bless-baseline: wrote {}", path.display());
            }
            eprintln!("xtask bless-baseline: review and commit the baselines");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask bless-baseline: {e} (no baseline was written)");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, workspace-relative with unix
/// separators, sorted for deterministic output.
fn rust_files(root: &Path, dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                // `lint_fixtures` holds deliberately-violating snippets for
                // the corpus self-test; they are linted by `lint-fixtures`
                // under pretend paths, never as part of the tree.
                if path
                    .file_name()
                    .is_some_and(|n| n == "target" || n == "lint_fixtures")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

/// Options for `lint` after the subcommand.
#[derive(Default)]
struct LintOpts {
    skip_clippy: bool,
    json_out: Option<PathBuf>,
    inventory_out: Option<PathBuf>,
}

fn parse_lint_args(rest: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--skip-clippy" => opts.skip_clippy = true,
            "--json" => {
                let path = it.next().ok_or("--json needs an output path")?;
                opts.json_out = Some(PathBuf::from(path));
            }
            "--inventory" => {
                let path = it.next().ok_or("--inventory needs an output path")?;
                opts.inventory_out = Some(PathBuf::from(path));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

fn lint(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let mut report = lints::WorkspaceReport::default();
    for dir in ["crates", "shims", "tests", "examples", "benches"] {
        for rel in rust_files(&root, dir) {
            let text = match std::fs::read_to_string(root.join(&rel)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xtask: cannot read {rel}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            report.merge(lints::analyze_file(&rel, &text));
        }
    }

    for v in &report.violations {
        eprintln!("error: {v}");
    }
    let mut failed = !report.violations.is_empty();
    eprintln!(
        "xtask lint: source lints {} ({} file{}, {} violation{}, {} explained \
         waiver{}, {} ordering site{})",
        if failed { "FAILED" } else { "ok" },
        report.files,
        if report.files == 1 { "" } else { "s" },
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
        report.waivers.len(),
        if report.waivers.len() == 1 { "" } else { "s" },
        report.ordering_sites.len(),
        if report.ordering_sites.len() == 1 {
            ""
        } else {
            "s"
        },
    );

    if let Some(out) = &opts.json_out {
        let mut body = report.to_json().pretty();
        body.push('\n');
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("xtask lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote {}", out.display());
    }
    if let Some(out) = &opts.inventory_out {
        if let Err(e) = std::fs::write(out, report.inventory_markdown()) {
            eprintln!("xtask lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote {}", out.display());
    }

    if !opts.skip_clippy {
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .current_dir(&root)
            .args([
                "clippy",
                "--workspace",
                "--all-targets",
                "--quiet",
                "--",
                "-D",
                "warnings",
                "-D",
                "clippy::undocumented_unsafe_blocks",
                "-D",
                "clippy::dbg_macro",
                "-D",
                "clippy::todo",
            ])
            .status();
        match status {
            Ok(s) if s.success() => eprintln!("xtask lint: clippy ok"),
            Ok(_) => {
                eprintln!("xtask lint: clippy FAILED");
                failed = true;
            }
            Err(e) => {
                eprintln!("xtask lint: could not run cargo clippy: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the lint fixture corpus: accept fixtures clean, reject fixtures
/// still rejecting. Exit 0 iff the corpus (and thus the lints) is healthy.
fn lint_fixtures() -> ExitCode {
    let dir = workspace_root().join("crates/xtask/tests/lint_fixtures");
    match fixtures::check_fixture_corpus(&dir) {
        Ok(summary) => {
            eprintln!("xtask lint-fixtures: {summary}");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("error: {e}");
            }
            eprintln!("xtask lint-fixtures: FAILED ({} error{})", errors.len(), {
                if errors.len() == 1 {
                    ""
                } else {
                    "s"
                }
            });
            ExitCode::FAILURE
        }
    }
}
