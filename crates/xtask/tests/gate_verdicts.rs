//! Verdict equivalence of `cargo xtask gate` with the two commands it
//! replaced, `stage-diff --threshold 0.25` and `slo-check`.
//!
//! Each row is one gate invocation and the verdict the old command gave for
//! the same inputs: pass, fail with the number of violated bounds, or error
//! (input rejected). The inputs are the committed baselines, the serving
//! fixtures, every document the old commands' unit tests built, and the
//! stage baseline with one share moved by 0.30 points and one stage's peak
//! memory moved by ±30%. Every row must keep its old verdict, except the
//! rows marked `compared_nothing`: the old stage diff passed a current file
//! that shared no row with its baseline, and the gate fails it.

use std::path::Path;

use parcsr_obs::json::Json;
use xtask::gate::{gate_text, Bound};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Pass,
    /// Failed, with this many violated bounds.
    Fail(usize),
    Error,
}
use Verdict::{Error, Fail, Pass};

struct Case {
    name: &'static str,
    current: String,
    baseline: Option<String>,
    bounds: Vec<Bound>,
    /// The old command's verdict.
    parent: Verdict,
    /// The old command passed this input having compared no row.
    compared_nothing: bool,
}

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stages_baseline() -> String {
    read("../../results/baselines/table2_smoke.stages.json")
}

fn serving_baseline() -> String {
    read("../../results/baselines/closed_loop_smoke.json")
}

fn fixture(name: &str) -> String {
    read(&format!("tests/serving_fixtures/{name}"))
}

fn field_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = obj else {
        panic!("not an object")
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}`"))
        .1
}

fn array_mut(v: &mut Json) -> &mut Vec<Json> {
    let Json::Array(items) = v else {
        panic!("not an array")
    };
    items
}

fn as_f64(v: &Json) -> f64 {
    v.as_f64().expect("a number")
}

/// The stage baseline with `edit` applied to its first sample's stages.
fn edited_stages(edit: impl FnOnce(&mut Vec<Json>)) -> String {
    let mut doc = Json::parse(&stages_baseline()).unwrap();
    let dataset = &mut array_mut(&mut doc)[0];
    let sample = &mut array_mut(field_mut(dataset, "samples"))[0];
    edit(array_mut(field_mut(sample, "stages")));
    doc.pretty()
}

/// Moves the `scan` stage's share of construction time up by `points`.
fn share_moved(points: f64) -> String {
    edited_stages(|stages| {
        let total: f64 = stages
            .iter()
            .map(|s| as_f64(s.get("total_ms").unwrap()))
            .sum();
        let scan = stages
            .iter_mut()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("scan"))
            .unwrap();
        let ms = field_mut(scan, "total_ms");
        let rest = total - as_f64(ms);
        let share = as_f64(ms) / total + points;
        *ms = Json::Float(share * rest / (1.0 - share));
    })
}

/// Scales the first stage's peak memory by `factor`.
fn mem_scaled(factor: f64) -> String {
    edited_stages(|stages| {
        let mem = field_mut(&mut stages[0], "mem_peak_bytes");
        *mem = Json::Int((as_f64(mem) * factor) as i64);
    })
}

/// The stage baseline with every `stages` array emptied: what a smoke that
/// lost its recorder writes.
fn stages_emptied() -> String {
    let mut doc = Json::parse(&stages_baseline()).unwrap();
    for dataset in array_mut(&mut doc) {
        for sample in array_mut(field_mut(dataset, "samples")) {
            *field_mut(sample, "stages") = Json::Array(Vec::new());
        }
    }
    doc.pretty()
}

fn stage_doc(stages: &[(&str, f64, i64)], processors: i64) -> String {
    let body: Vec<String> = stages
        .iter()
        .map(|(n, ms, mem)| {
            format!(
                r#"{{"name":"{n}","calls":1,"kept":1,"total_ms":{ms},"workers":1,"mem_peak_bytes":{mem}}}"#
            )
        })
        .collect();
    format!(
        r#"[{{"name":"toy","samples":[{{"processors":{processors},"time_ms":10.0,"stages":[{}]}}]}}]"#,
        body.join(",")
    )
}

/// A v1 closed-loop result; `phases` are the queue and exec p99s.
fn result(p99_ns: u64, qps: f64, phases: Option<(u64, u64)>) -> String {
    let phases = phases.map_or(String::new(), |(queue, exec)| {
        format!(
            r#","phases":[{{"name":"queue","count":2100,"sum_ns":100000,"p99_ns":{queue}}},
            {{"name":"exec","count":2100,"sum_ns":900000,"p99_ns":{exec}}},
            {{"name":"reply","count":2100,"sum_ns":1000,"p99_ns":10}}]"#
        )
    });
    format!(
        r#"{{"schema":"parcsr.closed_loop.v1","graph":"hub@0.02","clients":2,
        "windows":[{{"window":0,"requests":1000,"qps":{qps},"p99_ns":{p99_ns}}},
                   {{"window":1,"requests":1100,"qps":{qps},"p99_ns":{p99_ns}}}],
        "overall":{{"requests":2100,"qps":{qps},"p99_ns":{p99_ns}{phases}}}}}"#
    )
}

fn max(key: &str, v: f64) -> Bound {
    Bound::Max(key.into(), v)
}

fn min(key: &str, v: f64) -> Bound {
    Bound::Min(key.into(), v)
}

/// The absolute bounds of the CI `slo` job.
fn ci_bounds() -> Vec<Bound> {
    vec![
        max("p99_ns", 1e6),
        min("qps", 1e4),
        max("queue.p99_ns", 5e5),
        max("exec.p99_ns", 1e6),
    ]
}

fn against(name: &'static str, current: String, baseline: String, parent: Verdict) -> Case {
    Case {
        name,
        current,
        baseline: Some(baseline),
        bounds: Vec::new(),
        parent,
        compared_nothing: false,
    }
}

fn bounded(name: &'static str, current: String, bounds: Vec<Bound>, parent: Verdict) -> Case {
    Case {
        name,
        current,
        baseline: None,
        bounds,
        parent,
        compared_nothing: false,
    }
}

fn cases() -> Vec<Case> {
    let a = stage_doc(
        &[
            ("degree", 4.0, 1000),
            ("scan", 2.0, 500),
            ("scatter", 4.0, 2000),
        ],
        4,
    );
    let half = stage_doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)], 4);
    let mem_base = stage_doc(&[("degree", 5.0, 1000), ("scan", 5.0, 0)], 4);
    let any = vec![max("p99_ns", u64::MAX as f64)];
    let phased = result(2_500, 800_000.0, Some((400, 2_400)));
    let plain = result(2_500, 800_000.0, None);
    let base = result(2_000, 100_000.0, None);
    let phased_base = result(4_000, 100_000.0, Some((400, 1_800)));
    let empty_windows = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
        "windows":[],"overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
    let sparse_windows = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
        "windows":[{"window":1,"requests":1,"qps":1.0,"p99_ns":1}],
        "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
    let no_requests = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
        "windows":[{"window":0,"requests":0,"qps":0.0,"p99_ns":0}],
        "overall":{"requests":0,"qps":0.0,"p99_ns":0}}"#;
    let no_percentile = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
        "windows":[{"window":0,"requests":1,"qps":1.0}],
        "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
    let bad_phase = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
        "windows":[{"window":0,"requests":1,"qps":1.0,"p99_ns":1}],
        "overall":{"requests":1,"qps":1.0,"p99_ns":1,
                   "phases":[{"name":"queue","count":1,"sum_ns":1}]}}"#;
    let (good, bad) = (
        fixture("closed_loop_good.json"),
        fixture("closed_loop_bad.json"),
    );
    vec![
        // Stage breakdowns (old: `stage-diff BASE CUR --threshold 0.25`).
        against(
            "stages baseline vs itself",
            stages_baseline(),
            stages_baseline(),
            Pass,
        ),
        Case {
            compared_nothing: true,
            ..against(
                "[] vs stages baseline",
                "[]".into(),
                stages_baseline(),
                Pass,
            )
        },
        Case {
            compared_nothing: true,
            ..against(
                "emptied stages vs stages baseline",
                stages_emptied(),
                stages_baseline(),
                Pass,
            )
        },
        against(
            "one share +0.30",
            share_moved(0.30),
            stages_baseline(),
            Fail(1),
        ),
        against(
            "one mem_peak_bytes +30%",
            mem_scaled(1.3),
            stages_baseline(),
            Fail(1),
        ),
        against(
            "one mem_peak_bytes -30%",
            mem_scaled(0.7),
            stages_baseline(),
            Fail(1),
        ),
        against("identical runs", a.clone(), a, Pass),
        against(
            "uniform slowdown",
            stage_doc(&[("degree", 12.0, 1000), ("scan", 6.0, 500)], 4),
            stage_doc(&[("degree", 4.0, 1000), ("scan", 2.0, 500)], 4),
            Pass,
        ),
        against(
            "share drift 30 points",
            stage_doc(&[("degree", 8.0, 0), ("scan", 2.0, 0)], 4),
            half.clone(),
            Fail(2),
        ),
        against(
            "mem drift +50%",
            stage_doc(&[("degree", 5.0, 1500), ("scan", 5.0, 999)], 4),
            mem_base,
            Fail(1),
        ),
        Case {
            compared_nothing: true,
            ..against(
                "no overlapping sample",
                r#"[{"name":"toy","samples":[{"processors":8,"time_ms":1.0,"stages":[]}]}]"#.into(),
                half,
                Pass,
            )
        },
        against(
            "stage only in baseline",
            stage_doc(&[("degree", 10.0, 0)], 4),
            stage_doc(&[("degree", 10.0, 0), ("pack", 0.0, 0)], 4),
            Pass,
        ),
        against("baseline not JSON", "[]".into(), "nope".into(), Error),
        against("current not JSON", "nope".into(), "[]".into(), Error),
        against(
            "baseline dataset without name",
            "[]".into(),
            r#"[{"samples":[]}]"#.into(),
            Error,
        ),
        // Closed-loop results (old: `slo-check`).
        bounded(
            "serving baseline, CI bounds",
            serving_baseline(),
            ci_bounds(),
            Pass,
        ),
        against(
            "serving baseline vs itself",
            serving_baseline(),
            serving_baseline(),
            Pass,
        ),
        bounded("good fixture, CI bounds", good.clone(), ci_bounds(), Pass),
        bounded("bad fixture, CI bounds", bad.clone(), ci_bounds(), Fail(4)),
        against("good vs good", good.clone(), good.clone(), Pass),
        against("bad vs good", bad.clone(), good.clone(), Fail(4)),
        against("good vs bad", good, bad.clone(), Pass),
        against("bad vs bad", bad.clone(), bad, Pass),
        bounded(
            "within explicit bounds",
            plain.clone(),
            vec![max("p99_ns", 1e4), min("qps", 1e5)],
            Pass,
        ),
        bounded(
            "p99 over its ceiling",
            plain.clone(),
            vec![max("p99_ns", 1e3)],
            Fail(1),
        ),
        bounded(
            "qps under its floor",
            plain.clone(),
            vec![min("qps", 1e6)],
            Fail(1),
        ),
        bounded("no bound source", result(1, 1.0, None), Vec::new(), Error),
        bounded(
            "wrong schema",
            r#"{"schema":"other.v9"}"#.into(),
            any.clone(),
            Error,
        ),
        bounded("empty windows", empty_windows.into(), any.clone(), Error),
        bounded(
            "non-dense windows",
            sparse_windows.into(),
            any.clone(),
            Error,
        ),
        bounded("zero requests", no_requests.into(), any.clone(), Error),
        bounded(
            "missing percentile",
            no_percentile.into(),
            any.clone(),
            Error,
        ),
        bounded(
            "phases within ceilings",
            phased.clone(),
            vec![max("queue.p99_ns", 1e3), max("exec.p99_ns", 5e3)],
            Pass,
        ),
        bounded(
            "queue over its ceiling",
            phased.clone(),
            vec![max("p99_ns", 1e4), max("queue.p99_ns", 100.0)],
            Fail(1),
        ),
        bounded(
            "exec over its ceiling",
            phased,
            vec![max("exec.p99_ns", 1e3)],
            Fail(1),
        ),
        bounded(
            "phase bound on a pre-phase result",
            plain.clone(),
            vec![max("queue.p99_ns", 1e3)],
            Error,
        ),
        bounded("malformed phase rollup", bad_phase.into(), any, Error),
        against(
            "within baseline slack",
            result(2_900, 60_000.0, None),
            base.clone(),
            Pass,
        ),
        against(
            "p99 past baseline slack",
            result(3_100, 60_000.0, None),
            base.clone(),
            Fail(1),
        ),
        against(
            "qps past baseline slack",
            result(2_000, 40_000.0, None),
            base.clone(),
            Fail(1),
        ),
        against(
            "queue past the 1 µs phase floor",
            result(4_100, 90_000.0, Some((1_500, 1_700))),
            phased_base.clone(),
            Fail(1),
        ),
        against(
            "pre-phase result vs phased baseline",
            plain,
            phased_base,
            Error,
        ),
        against(
            "phased result vs pre-phase baseline",
            result(4_100, 90_000.0, Some((1_500, 1_700))),
            base,
            Fail(1),
        ),
    ]
}

#[test]
fn every_case_keeps_its_parent_verdict() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let got = match gate_text(&case.current, case.baseline.as_deref(), &case.bounds) {
            Err(_) => Error,
            Ok(out) if out.failed() => Fail(out.violations),
            Ok(_) => Pass,
        };
        let want = if case.compared_nothing {
            assert_eq!(case.parent, Pass, "{}", case.name);
            Fail(0)
        } else {
            case.parent
        };
        if got != want {
            mismatches.push(format!(
                "{}: got {got:?}, want {want:?} (parent {:?})",
                case.name, case.parent
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn share_edit_moves_scan_by_the_stated_points() {
    let share = |text: &str| {
        let doc = Json::parse(text).unwrap();
        let stages = doc.as_array().unwrap()[0]
            .get("samples")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        let total: f64 = stages
            .iter()
            .map(|s| as_f64(s.get("total_ms").unwrap()))
            .sum();
        let scan = stages
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("scan"))
            .unwrap();
        as_f64(scan.get("total_ms").unwrap()) / total
    };
    let moved = share(&share_moved(0.30)) - share(&stages_baseline());
    assert!((moved - 0.30).abs() < 1e-9, "moved {moved}");
}
