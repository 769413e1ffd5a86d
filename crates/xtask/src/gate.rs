//! One baseline gate over metric rows (`cargo xtask gate`).
//!
//! Every gated artifact flattens into [`Row`]s: a key, a value, the
//! [`Direction`] a regression moves it, and the [`Tolerance`] it may drift
//! from a baseline. [`gate_text`] checks the current rows against baseline
//! rows and against explicit `--max`/`--min` [`Bound`]s and renders one
//! report. The artifact kind comes from the file itself:
//!
//! * a bare JSON array is a bench `*.stages.json` breakdown. Each
//!   `(dataset, processors)` sample and stage gives
//!   `<dataset>.p<processors>.<stage>.share`, the stage's share of
//!   construction time, compared in absolute points so runs on hosts of
//!   different speed compare, and `….mem_peak_bytes`, compared relatively
//!   and only when the run recorded it (non-zero). A sample or stage on
//!   only one side is reported, not failed: datasets and stages are
//!   expected to come and go, a *shift* in an existing one is the signal;
//! * an object tagged `schema: "parcsr.closed_loop.v1"` is a
//!   `queries_closed_loop --json` result. It is schema-validated first (a
//!   driver that silently stopped reporting windows must not look healthy)
//!   and gives `p99_ns`, `qps`, and, when it carries phase rollups,
//!   `queue.p99_ns` and `exec.p99_ns`. These rows are fixed by the schema:
//!   one the baseline carries must be in the result too.
//!
//! A gate that compared nothing fails: a smoke that lost its recorder
//! writes an empty breakdown, and that must not pass as "no drift".
//!
//! [`bless`] regenerates the committed baselines: it runs every entry of
//! [`BLESS`], gates each fresh output against itself, and writes the files
//! only once all of them passed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use parcsr_obs::json::Json;

use crate::trace_read::parse_json;

/// Schema tag of a `queries_closed_loop --json` result.
pub const CLOSED_LOOP_SCHEMA: &str = "parcsr.closed_loop.v1";

/// How far a stage's share of construction time may move, in absolute
/// points of the total. Loose on purpose: CI hosts differ in speed, and
/// shares only shift when the pipeline's shape changes.
const STAGE_SHARE_TOLERANCE: Tolerance = Tolerance::Abs(0.25);

/// How far a stage's peak heap bytes may move, relative to the baseline.
const STAGE_MEM_TOLERANCE: Tolerance = Tolerance::Rel {
    frac: 0.25,
    min_ceiling: 0.0,
};

/// How far serving p99 may grow, and qps shrink, relative to the baseline.
/// Latency tails on shared CI runners are noisy; absolute targets belong
/// in explicit bounds.
const SERVING_TOLERANCE: Tolerance = Tolerance::Rel {
    frac: 0.50,
    min_ceiling: 0.0,
};

/// [`SERVING_TOLERANCE`] for the queue/exec phase p99s, whose derived
/// ceiling never sits below 1 µs. A healthy queue phase p99 is hundreds of
/// nanoseconds, where a multiplicative slack still leaves a ceiling inside
/// scheduler jitter on a shared runner; a real queueing regression is
/// microseconds to milliseconds.
const PHASE_TOLERANCE: Tolerance = Tolerance::Rel {
    frac: 0.50,
    min_ceiling: 1_000.0,
};

/// Which way a row moves when it regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growth is the regression (latency). A ceiling derived from a
    /// baseline rounds up to a whole unit: latencies are whole nanoseconds.
    Lower,
    /// Shrinkage is the regression (throughput).
    Higher,
    /// Any drift is the regression (stage shares, peak memory).
    Either,
}

/// How far a row may drift from its baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// By this much, in the row's own units.
    Abs(f64),
    /// By this fraction of the baseline value; a ceiling derived for a
    /// [`Direction::Lower`] row never sits below `min_ceiling`.
    Rel {
        /// Allowed drift as a fraction of the baseline value.
        frac: f64,
        /// Lowest ceiling a baseline may derive.
        min_ceiling: f64,
    },
}

/// One metric of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dotted metric key, e.g. `p99_ns` or `LiveJournal.p2.scan.share`.
    pub key: String,
    /// Measured value.
    pub value: f64,
    /// Which way a regression moves it.
    pub direction: Direction,
    /// Allowed drift from a baseline.
    pub tolerance: Tolerance,
    /// A result gated against a baseline that carries this row must carry
    /// it too; an optional row on one side only is reported, not failed.
    pub required: bool,
}

/// A parsed artifact: its kind, a one-line summary, and its rows.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// `"stage breakdown"` or `"closed-loop result"`.
    pub kind: &'static str,
    /// What was measured, for the report header.
    pub summary: String,
    /// The metric rows, in document order.
    pub rows: Vec<Row>,
}

impl Artifact {
    /// The row with `key`, if any.
    #[must_use]
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.key == key)
    }
}

/// An explicit bound on one row (`--max KEY=V` / `--min KEY=V`).
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// The row's value must be at most this.
    Max(String, f64),
    /// The row's value must be at least this.
    Min(String, f64),
}

impl Bound {
    /// Parses the `KEY=V` value of `flag` (`--max` or `--min`).
    pub fn parse(flag: &str, spec: &str) -> Result<Bound, String> {
        let (key, value) = spec
            .split_once('=')
            .filter(|(k, _)| !k.is_empty())
            .ok_or_else(|| format!("{flag} needs KEY=VALUE, got `{spec}`"))?;
        let value = value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{flag} {key}: not a finite number: `{value}`"))?;
        match flag {
            "--max" => Ok(Bound::Max(key.to_string(), value)),
            "--min" => Ok(Bound::Min(key.to_string(), value)),
            _ => Err(format!("unknown bound flag `{flag}`")),
        }
    }

    fn key(&self) -> &str {
        match self {
            Bound::Max(key, _) | Bound::Min(key, _) => key,
        }
    }
}

/// What one compared row must satisfy.
enum Limit {
    Max(f64),
    Min(f64),
    /// `|value − base| ≤ slack`.
    Within(f64, f64),
}

impl Limit {
    /// The limit a baseline row sets on the current value.
    fn from_baseline(base: &Row) -> Limit {
        let b = base.value;
        let (slack, min_ceiling) = match base.tolerance {
            Tolerance::Abs(slack) => (slack, f64::MIN),
            Tolerance::Rel { frac, min_ceiling } => (frac * b, min_ceiling),
        };
        match base.direction {
            Direction::Lower => Limit::Max((b + slack).ceil().max(min_ceiling)),
            Direction::Higher => Limit::Min(b - slack),
            Direction::Either => Limit::Within(b, slack),
        }
    }

    fn holds(&self, v: f64) -> bool {
        match *self {
            Limit::Max(max) => v <= max,
            Limit::Min(min) => v >= min,
            Limit::Within(base, slack) => (v - base).abs() <= slack,
        }
    }

    fn describe(&self) -> String {
        match *self {
            Limit::Max(max) => format!("<= {}", num(max)),
            Limit::Min(min) => format!(">= {}", num(min)),
            Limit::Within(base, slack) => format!("{} ± {}", num(base), num(slack)),
        }
    }
}

/// Renders a value compactly: whole numbers without a fraction, others to
/// three decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Gate outcome: the rendered report and the counts behind the verdict.
#[derive(Debug)]
pub struct Outcome {
    /// One line per compared row plus the verdict line, ready to print.
    pub report: String,
    /// Rows checked against a baseline row or an explicit bound.
    pub compared: usize,
    /// Checks that did not hold.
    pub violations: usize,
}

impl Outcome {
    /// True iff a check failed or nothing was compared.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.violations > 0 || self.compared == 0
    }
}

/// Parses and flattens artifact text; `which` labels error messages
/// (`"current"` / `"baseline"`).
pub fn parse_artifact(which: &str, text: &str) -> Result<Artifact, String> {
    let doc = parse_json(which, text)?;
    if let Some(datasets) = doc.as_array() {
        return stage_artifact(which, datasets);
    }
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != CLOSED_LOOP_SCHEMA {
        return Err(format!(
            "{which}: neither a stage breakdown (a JSON array) nor a closed-loop \
             result: schema is {schema:?}, expected {CLOSED_LOOP_SCHEMA:?}"
        ));
    }
    closed_loop_artifact(which, &doc)
}

/// Gates `cur` against an optional baseline and explicit bounds.
fn compare(
    cur: &Artifact,
    baseline: Option<&Artifact>,
    bounds: &[Bound],
) -> Result<Outcome, String> {
    if baseline.is_none() && bounds.is_empty() {
        return Err("no bounds given (need --baseline FILE, --max KEY=V or --min KEY=V)".into());
    }
    let mut checks: Vec<(&Row, Limit)> = Vec::new();
    let mut one_sided = Vec::new();
    if let Some(base) = baseline {
        if base.kind != cur.kind {
            return Err(format!(
                "the baseline is a {}, the current file a {}",
                base.kind, cur.kind
            ));
        }
        for b in &base.rows {
            match cur.row(&b.key) {
                Some(c) => checks.push((c, Limit::from_baseline(b))),
                None if b.required => {
                    return Err(format!(
                        "current: no `{}` row, but the baseline carries one",
                        b.key
                    ))
                }
                None => one_sided.push(format!("{:<36} only in baseline", b.key)),
            }
        }
        for c in cur.rows.iter().filter(|c| base.row(&c.key).is_none()) {
            one_sided.push(format!("{:<36} only in current", c.key));
        }
    }
    for bound in bounds {
        let row = cur.row(bound.key()).ok_or_else(|| {
            format!(
                "current: a bound is set on `{}`, but the {} has no such row",
                bound.key(),
                cur.kind
            )
        })?;
        let limit = match *bound {
            Bound::Max(_, v) => Limit::Max(v),
            Bound::Min(_, v) => Limit::Min(v),
        };
        checks.push((row, limit));
    }

    let mut report = String::new();
    let _ = writeln!(report, "gate: {} — {}", cur.kind, cur.summary);
    if let Some(base) = baseline {
        let _ = writeln!(report, "  baseline: {}", base.summary);
    }
    let _ = writeln!(report, "{:<36} {:>16}  {:<26}", "key", "current", "limit");
    let mut violations = 0;
    for (row, limit) in &checks {
        let ok = limit.holds(row.value);
        violations += usize::from(!ok);
        let _ = writeln!(
            report,
            "{:<36} {:>16}  {:<26} {}",
            row.key,
            num(row.value),
            limit.describe(),
            if ok { "ok" } else { "VIOLATED" }
        );
    }
    for line in &one_sided {
        let _ = writeln!(report, "{line}");
    }
    if checks.is_empty() {
        let _ = writeln!(
            report,
            "gate: compared nothing — no row of the current file has a baseline row"
        );
    }
    let _ = writeln!(
        report,
        "gate: {} row{} compared, {violations} violation{}",
        checks.len(),
        if checks.len() == 1 { "" } else { "s" },
        if violations == 1 { "" } else { "s" }
    );
    Ok(Outcome {
        report,
        compared: checks.len(),
        violations,
    })
}

/// Parses both texts ([`parse_artifact`]) and gates the current one
/// against the optional baseline and the explicit bounds. `Err` means the
/// gate could not be applied: a text did not parse or validate, there is
/// no bound source, the artifact kinds differ, or a bound or required
/// baseline row names a row the current file lacks.
pub fn gate_text(cur: &str, baseline: Option<&str>, bounds: &[Bound]) -> Result<Outcome, String> {
    let base = baseline
        .map(|text| parse_artifact("baseline", text))
        .transpose()?;
    let cur = parse_artifact("current", cur)?;
    compare(&cur, base.as_ref(), bounds)
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn u64_field(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    field(obj, key, ctx)?
        .as_i64()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a non-negative integer"))
}

fn f64_field(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    field(obj, key, ctx)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a non-negative number"))
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    field(obj, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a string"))
}

fn array_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    field(obj, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: field `{key}` must be an array"))
}

fn stage_artifact(which: &str, datasets: &[Json]) -> Result<Artifact, String> {
    let mut rows = Vec::new();
    let mut samples = 0;
    for ds in datasets {
        let name = str_field(ds, "name", &format!("{which}: dataset"))?;
        let ctx = format!("{which}: dataset `{name}`");
        for s in array_field(ds, "samples", &ctx)? {
            let processors = field(s, "processors", &ctx)?
                .as_i64()
                .ok_or_else(|| format!("{ctx}: field `processors` must be an integer"))?;
            let mut stages = Vec::new();
            for st in array_field(s, "stages", &ctx)? {
                let stage = str_field(st, "name", &ctx)?;
                let total_ms = field(st, "total_ms", &ctx)?.as_f64().ok_or_else(|| {
                    format!("{ctx}: stage `{stage}`: `total_ms` must be a number")
                })?;
                // Breakdowns written without memory accounting lack the
                // field; zero means "not recorded".
                let mem = st.get("mem_peak_bytes").and_then(Json::as_i64).unwrap_or(0);
                stages.push((stage, total_ms, mem));
            }
            // A sample whose stages sum to zero time (trace disabled)
            // yields zero shares.
            let total: f64 = stages.iter().map(|(_, ms, _)| ms).sum();
            for (stage, total_ms, mem) in stages {
                let prefix = format!("{name}.p{processors}.{stage}");
                rows.push(Row {
                    key: format!("{prefix}.share"),
                    value: if total > 0.0 { total_ms / total } else { 0.0 },
                    direction: Direction::Either,
                    tolerance: STAGE_SHARE_TOLERANCE,
                    required: false,
                });
                if mem > 0 {
                    rows.push(Row {
                        key: format!("{prefix}.mem_peak_bytes"),
                        value: mem as f64,
                        direction: Direction::Either,
                        tolerance: STAGE_MEM_TOLERANCE,
                        required: false,
                    });
                }
            }
            samples += 1;
        }
    }
    Ok(Artifact {
        kind: "stage breakdown",
        summary: format!("{samples} (dataset, processors) samples"),
        rows,
    })
}

fn closed_loop_artifact(which: &str, doc: &Json) -> Result<Artifact, String> {
    let graph = str_field(doc, "graph", which)?;
    let clients = u64_field(doc, "clients", which)?;
    let windows = array_field(doc, "windows", which)?;
    if windows.is_empty() {
        return Err(format!(
            "{which}: `windows` is empty — the driver reported no completed windows"
        ));
    }
    for (i, w) in windows.iter().enumerate() {
        let ctx = format!("{which}: windows[{i}]");
        let ordinal = u64_field(w, "window", &ctx)?;
        u64_field(w, "requests", &ctx)?;
        f64_field(w, "qps", &ctx)?;
        u64_field(w, "p99_ns", &ctx)?;
        if ordinal != i as u64 {
            return Err(format!(
                "{ctx}: ordinal is {ordinal} — the window series must be dense from 0"
            ));
        }
    }
    let overall = field(doc, "overall", which)?;
    let ctx = format!("{which}: overall");
    let requests = u64_field(overall, "requests", &ctx)?;
    if requests == 0 {
        return Err(format!(
            "{ctx}: zero requests — the driver measured nothing"
        ));
    }
    let serving = |key: &str, value: f64, direction, tolerance| Row {
        key: key.to_string(),
        value,
        direction,
        tolerance,
        required: true,
    };
    let mut rows = vec![
        serving(
            "p99_ns",
            u64_field(overall, "p99_ns", &ctx)? as f64,
            Direction::Lower,
            SERVING_TOLERANCE,
        ),
        serving(
            "qps",
            f64_field(overall, "qps", &ctx)?,
            Direction::Higher,
            SERVING_TOLERANCE,
        ),
    ];
    // `overall.phases` arrived with the phase-decomposed driver; older
    // artifacts legitimately lack it. When present it must be well formed.
    if overall.get("phases").is_some() {
        for (i, p) in array_field(overall, "phases", &ctx)?.iter().enumerate() {
            let pctx = format!("{ctx}: phases[{i}]");
            let name = str_field(p, "name", &pctx)?;
            u64_field(p, "count", &pctx)?;
            u64_field(p, "sum_ns", &pctx)?;
            let p99 = u64_field(p, "p99_ns", &pctx)?;
            if matches!(name, "queue" | "exec") {
                rows.push(serving(
                    &format!("{name}.p99_ns"),
                    p99 as f64,
                    Direction::Lower,
                    PHASE_TOLERANCE,
                ));
            }
        }
    }
    Ok(Artifact {
        kind: "closed-loop result",
        summary: format!(
            "{graph}, {clients} clients, {requests} requests over {} windows",
            windows.len()
        ),
        rows,
    })
}

/// One committed baseline and the `cargo` command line of the smoke that
/// regenerates it.
#[derive(Debug, Clone, Copy)]
pub struct Smoke {
    /// Workspace-relative path of the committed baseline.
    pub baseline: &'static str,
    /// Whitespace-separated arguments to `cargo`, run from the workspace
    /// root; the smoke prints the artifact on stdout.
    pub cargo_args: &'static str,
}

/// The committed baselines and their smokes: each command is the one the
/// matching CI job runs (a test checks `.github/workflows/ci.yml` against
/// this table), so a blessed baseline measures what CI measures.
pub const BLESS: &[Smoke] = &[
    Smoke {
        baseline: "results/baselines/table2_smoke.stages.json",
        cargo_args: "run -q --release -p parcsr-bench --features obs --bin table2 -- \
            --scale 0.02 --reps 5 --procs 1,2 --trace-sample 8 --metrics --mem-metrics \
            --trace results/bless-baseline.trace.json --json",
    },
    Smoke {
        baseline: "results/baselines/closed_loop_smoke.json",
        cargo_args:
            "run -q --release -p parcsr-bench --features obs --bin queries_closed_loop -- \
            --graph hub --scale 0.02 --clients 2 --duration-ms 600 --window-ms 150 --seed 42 --json",
    },
];

/// Runs every smoke through `run`, gates each output against itself, and
/// only when all of them passed writes each to `root`-relative
/// [`Smoke::baseline`], so the baselines always come from one tree.
/// Returns the written paths.
pub fn bless(
    root: &Path,
    smokes: &[Smoke],
    mut run: impl FnMut(&Smoke) -> Result<String, String>,
) -> Result<Vec<PathBuf>, String> {
    let mut fresh = Vec::with_capacity(smokes.len());
    for smoke in smokes {
        let text = run(smoke)?;
        let out = gate_text(&text, Some(&text), &[])
            .map_err(|e| format!("{}: fresh output: {e}", smoke.baseline))?;
        if out.failed() {
            return Err(format!(
                "{}: fresh output fails the gate against itself:\n{}",
                smoke.baseline, out.report
            ));
        }
        fresh.push((root.join(smoke.baseline), text));
    }
    for (path, text) in &fresh {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(fresh.into_iter().map(|(path, _)| path).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_parse_key_value_pairs() {
        assert_eq!(
            Bound::parse("--max", "p99_ns=1000000"),
            Ok(Bound::Max("p99_ns".into(), 1e6))
        );
        assert_eq!(
            Bound::parse("--min", "qps=1e4"),
            Ok(Bound::Min("qps".into(), 1e4))
        );
        for bad in ["p99_ns", "=5", "p99_ns=", "p99_ns=fast", "qps=inf"] {
            assert!(Bound::parse("--max", bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn mismatched_artifact_kinds_are_an_error() {
        let serving = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
            "windows":[{"window":0,"requests":1,"qps":1.0,"p99_ns":1}],
            "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = gate_text(r#"[]"#, Some(serving), &[]).unwrap_err();
        assert!(err.contains("baseline is a closed-loop result"), "{err}");
    }
}
