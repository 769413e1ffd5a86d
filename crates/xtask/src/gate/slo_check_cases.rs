mod tests {
    use crate::gate::{gate_text, parse_artifact, Bound, Outcome};

    /// A minimal well-formed v1 result with the given overall numbers and
    /// phase p99s (queue/exec rollups as the phase-aware driver emits them).
    fn result_json_with_phases(p99_ns: u64, qps: f64, queue_p99: u64, exec_p99: u64) -> String {
        format!(
            r#"{{
  "schema": "parcsr.closed_loop.v1",
  "graph": "hub@0.02",
  "clients": 2,
  "windows": [
    {{"window": 0, "requests": 1000, "qps": {qps}, "p99_ns": {p99_ns}}},
    {{"window": 1, "requests": 1100, "qps": {qps}, "p99_ns": {p99_ns}}}
  ],
  "overall": {{"requests": 2100, "qps": {qps}, "p99_ns": {p99_ns}, "phases": [
    {{"name": "queue", "count": 2100, "sum_ns": 100000, "p99_ns": {queue_p99}}},
    {{"name": "exec", "count": 2100, "sum_ns": 900000, "p99_ns": {exec_p99}}},
    {{"name": "reply", "count": 2100, "sum_ns": 1000, "p99_ns": 10}}
  ]}}
}}"#
        )
    }

    /// A well-formed v1 result without phase rollups (pre-phase artifact).
    fn result_json(p99_ns: u64, qps: f64) -> String {
        format!(
            r#"{{
  "schema": "parcsr.closed_loop.v1",
  "graph": "hub@0.02",
  "clients": 2,
  "windows": [
    {{"window": 0, "requests": 1000, "qps": {qps}, "p99_ns": {p99_ns}}},
    {{"window": 1, "requests": 1100, "qps": {qps}, "p99_ns": {p99_ns}}}
  ],
  "overall": {{"requests": 2100, "qps": {qps}, "p99_ns": {p99_ns}}}
}}"#
        )
    }

    fn max(key: &str, v: f64) -> Bound {
        Bound::Max(key.into(), v)
    }

    fn min(key: &str, v: f64) -> Bound {
        Bound::Min(key.into(), v)
    }

    fn check(text: &str, bounds: &[Bound]) -> Result<Outcome, String> {
        gate_text(text, None, bounds)
    }

    #[test]
    fn passes_within_thresholds_and_fails_outside() {
        let text = result_json(2_500, 800_000.0);
        let out = check(&text, &[max("p99_ns", 10_000.0), min("qps", 100_000.0)]).unwrap();
        assert!(!out.failed(), "{}", out.report);
        assert!(out.report.contains("p99_ns"), "{}", out.report);
        assert!(out.report.contains("2500"), "{}", out.report);

        let out = check(&text, &[max("p99_ns", 1_000.0)]).unwrap();
        assert!(out.failed());
        assert!(out.report.contains("VIOLATED"), "{}", out.report);

        let out = check(&text, &[min("qps", 1_000_000.0)]).unwrap();
        assert!(out.failed());
    }

    #[test]
    fn requires_at_least_one_threshold() {
        let err = check(&result_json(1, 1.0), &[]).unwrap_err();
        assert!(err.contains("no bounds"), "{err}");
    }

    #[test]
    fn rejects_schema_and_shape_violations() {
        let bounds = [max("p99_ns", u64::MAX as f64)];
        // Wrong schema tag.
        let err = check(r#"{"schema":"other.v9"}"#, &bounds).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        // Empty window series.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[],"overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check(text, &bounds).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        // Non-dense ordinals.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":1,"requests":1,"qps":1.0,"p99_ns":1}],
                       "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check(text, &bounds).unwrap_err();
        assert!(err.contains("dense"), "{err}");
        // Zero overall requests.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":0,"requests":0,"qps":0.0,"p99_ns":0}],
                       "overall":{"requests":0,"qps":0.0,"p99_ns":0}}"#;
        let err = check(text, &bounds).unwrap_err();
        assert!(err.contains("measured nothing"), "{err}");
        // Missing percentile field.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":0,"requests":1,"qps":1.0}],
                       "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check(text, &bounds).unwrap_err();
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn phase_ceilings_grade_the_phase_rollups() {
        let text = result_json_with_phases(2_500, 800_000.0, 400, 2_400);
        let within = [max("queue.p99_ns", 1_000.0), max("exec.p99_ns", 5_000.0)];
        let out = check(&text, &within).unwrap();
        assert!(!out.failed(), "{}", out.report);
        assert!(out.report.contains("queue.p99_ns"), "{}", out.report);
        assert!(out.report.contains("exec.p99_ns"), "{}", out.report);

        // A queue tail past its ceiling trips the gate even when the
        // end-to-end p99 is healthy.
        let queued = [max("p99_ns", 10_000.0), max("queue.p99_ns", 100.0)];
        let out = check(&text, &queued).unwrap();
        assert!(out.failed());
        assert_eq!(out.violations, 1, "{}", out.report);
        assert!(
            out.report
                .lines()
                .any(|l| l.starts_with("queue.p99_ns") && l.ends_with("VIOLATED")),
            "{}",
            out.report
        );

        assert!(check(&text, &[max("exec.p99_ns", 1_000.0)])
            .unwrap()
            .failed());
    }

    #[test]
    fn phase_ceiling_against_a_pre_phase_result_is_an_error() {
        let text = result_json(2_500, 800_000.0);
        let err = check(&text, &[max("queue.p99_ns", 1_000.0)]).unwrap_err();
        assert!(err.contains("bound is set on `queue.p99_ns`"), "{err}");
    }

    #[test]
    fn rejects_malformed_phase_rollups() {
        // Phases present but a row is missing its percentile field.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":0,"requests":1,"qps":1.0,"p99_ns":1}],
                       "overall":{"requests":1,"qps":1.0,"p99_ns":1,
                                  "phases":[{"name":"queue","count":1,"sum_ns":1}]}}"#;
        let err = parse_artifact("current", text).unwrap_err();
        assert!(err.contains("phases[0]"), "{err}");
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn baseline_thresholds_apply_slack_both_ways() {
        let base = result_json(2_000, 100_000.0);
        let out = gate_text(&base, Some(&base), &[]).unwrap();
        // p99 may grow by half, qps shrink by half.
        assert!(out.report.contains("<= 3000"), "{}", out.report);
        assert!(out.report.contains(">= 50000"), "{}", out.report);
        // A pre-phase baseline derives no phase ceilings.
        assert_eq!(out.compared, 2, "{}", out.report);

        // A result within the slack passes; one past it fails.
        let ok = gate_text(&result_json(2_900, 60_000.0), Some(&base), &[]).unwrap();
        assert!(!ok.failed(), "{}", ok.report);
        let slow = gate_text(&result_json(3_100, 60_000.0), Some(&base), &[]).unwrap();
        assert!(slow.failed());
        let starved = gate_text(&result_json(2_000, 40_000.0), Some(&base), &[]).unwrap();
        assert!(starved.failed());
    }

    #[test]
    fn baseline_with_phases_derives_phase_ceilings() {
        let base = result_json_with_phases(4_000, 100_000.0, 400, 1_800);
        let out = gate_text(&base, Some(&base), &[]).unwrap();
        // The queue ceiling (400 × 1.5 = 600) clamps up to the 1 µs floor —
        // sub-µs ceilings would gate scheduler jitter, not regressions.
        let limit_of = |key: &str| {
            out.report
                .lines()
                .find(|l| l.starts_with(key))
                .unwrap_or_else(|| panic!("no `{key}` line in\n{}", out.report))
                .to_string()
        };
        assert!(
            limit_of("queue.p99_ns").contains("<= 1000"),
            "{}",
            out.report
        );
        assert!(
            limit_of("exec.p99_ns").contains("<= 2700"),
            "{}",
            out.report
        );

        // A result whose queue share regressed past the floor fails even
        // with the end-to-end p99 inside its own ceiling.
        let regressed = result_json_with_phases(4_100, 90_000.0, 1_500, 1_700);
        let out = gate_text(&regressed, Some(&base), &[]).unwrap();
        assert!(out.failed(), "{}", out.report);
        assert_eq!(out.violations, 1, "{}", out.report);
        assert!(out.report.contains("queue.p99_ns"), "{}", out.report);
    }
}
