//! Integration tests for the serving-telemetry gates: `gate` against
//! seeded good/bad closed-loop results, and `check-trace`'s `query.win.*`
//! windowed-counter rules against accept/reject trace fixtures. The
//! fixtures live in `tests/serving_fixtures/` and pin the artifact shapes
//! CI consumes, so a schema drift in either producer or gate shows up
//! here first.

use std::path::PathBuf;

use xtask::gate::{self, Bound};
use xtask::trace_check::check_trace_text;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/serving_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The bounds the CI `slo` job enforces on the serving smoke (loose on
/// purpose: a laptop-class runner sustains hundreds of kq/s with p99 in
/// the low microseconds, so 1 ms / 10 kq/s only trips on order-of-magnitude
/// regressions). The phase ceilings gate the queue/exec decomposition the
/// same way: sub-millisecond phases on a healthy run, so only a collapsed
/// dispatch path or a saturated pool trips them.
fn ci_bounds() -> Vec<Bound> {
    vec![
        Bound::Max("p99_ns".into(), 1_000_000.0),
        Bound::Min("qps".into(), 10_000.0),
        Bound::Max("queue.p99_ns".into(), 500_000.0),
        Bound::Max("exec.p99_ns".into(), 1_000_000.0),
    ]
}

#[test]
fn good_result_passes_the_ci_thresholds() {
    let out = gate::gate_text(&fixture("closed_loop_good.json"), None, &ci_bounds())
        .expect("good fixture must parse");
    assert!(!out.failed(), "{}", out.report);
    assert_eq!(out.compared, 4, "{}", out.report);
    assert!(out.report.contains("p99_ns"), "{}", out.report);
    assert!(out.report.contains("ok"), "{}", out.report);
}

#[test]
fn bad_result_fails_every_dimension() {
    let out = gate::gate_text(&fixture("closed_loop_bad.json"), None, &ci_bounds())
        .expect("bad fixture is schema-valid; only the numbers are bad");
    assert!(out.failed());
    // The latency ceiling, the throughput floor, and both phase ceilings
    // are violated.
    assert_eq!(out.violations, 4, "{}", out.report);
    assert_eq!(out.report.matches("VIOLATED").count(), 4, "{}", out.report);
    assert!(out.report.contains("queue.p99_ns"), "{}", out.report);
    assert!(out.report.contains("exec.p99_ns"), "{}", out.report);
}

#[test]
fn baseline_mode_gates_the_bad_result_against_the_good_one() {
    let good = fixture("closed_loop_good.json");
    // The good result passes against itself-with-slack...
    let out = gate::gate_text(&good, Some(&good), &[]).unwrap();
    assert!(!out.failed(), "{}", out.report);
    // ...the bad one (3000× the latency, 0.5% of the throughput) does not.
    let out = gate::gate_text(&fixture("closed_loop_bad.json"), Some(&good), &[]).unwrap();
    assert!(out.failed());
}

#[test]
fn fixtures_carry_per_kind_and_per_class_rollups() {
    // The gate only reads windows/overall, but the fixtures double as the
    // committed example of the full v1 schema — keep the rollups present.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = parcsr_obs::json::Json::parse(&fixture(name)).unwrap();
        let overall = doc.get("overall").unwrap();
        assert!(
            !overall.get("kinds").unwrap().as_array().unwrap().is_empty(),
            "{name}: overall.kinds empty"
        );
        assert!(
            !overall
                .get("classes")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{name}: overall.classes empty"
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(gate::CLOSED_LOOP_SCHEMA),
            "{name}"
        );
    }
}

#[test]
fn fixtures_carry_phase_rollups_and_exemplars() {
    // The phase-decomposed schema additions: per-window and overall
    // `phases`, the per-class rollup, and the tail-exemplar block.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = parcsr_obs::json::Json::parse(&fixture(name)).unwrap();
        let result = gate::parse_artifact("fixture", &fixture(name)).unwrap();
        for key in ["queue.p99_ns", "exec.p99_ns"] {
            assert!(result.row(key).is_some(), "{name}: no `{key}` row");
        }
        let phases = doc.get("overall").unwrap().get("phases").unwrap();
        for phase in ["queue", "exec", "reply"] {
            assert!(
                phases
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|p| p.get("name").and_then(|n| n.as_str()) == Some(phase)),
                "{name}: overall.phases missing `{phase}`"
            );
        }
        for w in doc.get("windows").unwrap().as_array().unwrap() {
            assert!(
                !w.get("phases").unwrap().as_array().unwrap().is_empty(),
                "{name}: window phases empty"
            );
        }
        assert!(
            !doc.get("class_phases")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{name}: class_phases empty"
        );
        let ex = doc.get("exemplars").unwrap();
        assert_eq!(
            ex.get("schema").unwrap().as_str(),
            Some("parcsr.exemplars.v1"),
            "{name}"
        );
        for win in ex.get("windows").unwrap().as_array().unwrap() {
            for e in win.get("exemplars").unwrap().as_array().unwrap() {
                let ns = |k: &str| e.get(k).unwrap().as_i64().unwrap();
                assert_eq!(
                    ns("queue_ns") + ns("exec_ns") + ns("reply_ns"),
                    ns("total_ns"),
                    "{name}: exemplar phases must partition the total"
                );
            }
        }
    }
}

#[test]
fn trace_with_windowed_counters_is_accepted() {
    // 2 spans, 4 query.win points, 2 qps points, 3 phase points, 1
    // exemplar — and the phase sums reconcile with their cell.
    let n = check_trace_text(&fixture("query_win_accept.trace.json"))
        .expect("accept fixture must validate");
    assert_eq!(n, 11);
}

#[test]
fn trace_with_backwards_window_ordinal_is_rejected() {
    let err = check_trace_text(&fixture("query_win_reject.trace.json")).unwrap_err();
    assert!(err.contains("window ordinal goes backwards"), "{err}");
}

#[test]
fn trace_with_unreconciled_phase_sums_is_rejected() {
    // queue 300000 + exec 330000 against a 400000 ns cell: the phases
    // claim 57% more time than the end-to-end measurement.
    let err = check_trace_text(&fixture("query_phase_reject.trace.json")).unwrap_err();
    assert!(err.contains("more than 10%"), "{err}");
}
