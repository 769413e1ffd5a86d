mod tests {
    use xtask::gate::gate_text;

    fn doc(stages: &[(&str, f64, i64)]) -> String {
        let body: Vec<String> = stages
            .iter()
            .map(|(n, ms, mem)| {
                format!(
                    r#"{{"name":"{n}","calls":1,"kept":1,"total_ms":{ms},"workers":1,"mem_peak_bytes":{mem}}}"#
                )
            })
            .collect();
        format!(
            r#"[{{"name":"toy","samples":[{{"processors":4,"time_ms":10.0,"stages":[{}]}}]}}]"#,
            body.join(",")
        )
    }

    fn diff(base: &str, cur: &str) -> Result<xtask::gate::Outcome, String> {
        gate_text(cur, Some(base), &[])
    }

    #[test]
    fn identical_runs_pass() {
        let a = doc(&[
            ("degree", 4.0, 1000),
            ("scan", 2.0, 500),
            ("scatter", 4.0, 2000),
        ]);
        let out = diff(&a, &a).unwrap();
        assert!(!out.failed(), "{}", out.report);
        assert!(out.report.contains("0 violations"), "{}", out.report);
        // Three shares and three peak-memory rows.
        assert_eq!(out.compared, 6, "{}", out.report);
    }

    #[test]
    fn uniform_slowdown_passes_shares_are_scale_free() {
        let a = doc(&[("degree", 4.0, 1000), ("scan", 2.0, 500)]);
        // 3x slower machine, same shape: shares identical.
        let b = doc(&[("degree", 12.0, 1000), ("scan", 6.0, 500)]);
        let out = diff(&a, &b).unwrap();
        assert!(!out.failed(), "{}", out.report);
    }

    #[test]
    fn time_share_drift_fails_readably() {
        let a = doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)]);
        // degree moves from 50% to 80% of the build: 30pp drift.
        let b = doc(&[("degree", 8.0, 0), ("scan", 2.0, 0)]);
        let out = diff(&a, &b).unwrap();
        assert!(out.failed());
        assert_eq!(out.violations, 2, "{}", out.report);
        assert!(
            out.report
                .lines()
                .any(|l| l.starts_with("toy.p4.degree.share") && l.ends_with("VIOLATED")),
            "{}",
            out.report
        );
    }

    #[test]
    fn mem_drift_fails_and_zero_mem_is_skipped() {
        let a = doc(&[("degree", 5.0, 1000), ("scan", 5.0, 0)]);
        let b = doc(&[("degree", 5.0, 1500), ("scan", 5.0, 999)]);
        let out = diff(&a, &b).unwrap();
        assert!(out.failed());
        // degree: +50% mem fails; scan: baseline had no accounting, skipped.
        assert_eq!(out.violations, 1, "{}", out.report);
        assert!(
            out.report
                .lines()
                .any(|l| l.starts_with("toy.p4.degree.mem_peak_bytes") && l.ends_with("VIOLATED")),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("toy.p4.scan.mem_peak_bytes")
                && out.report.contains("only in current"),
            "{}",
            out.report
        );
        // Inside the 25% tolerance passes.
        let near = doc(&[("degree", 5.0, 1200), ("scan", 5.0, 999)]);
        let out = diff(&a, &near).unwrap();
        assert!(!out.failed(), "{}", out.report);
    }

    #[test]
    fn missing_samples_and_stages_do_not_fail() {
        // No overlapping sample: nothing is compared, and a gate that
        // compared nothing fails.
        let a = doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)]);
        let b = r#"[{"name":"toy","samples":[{"processors":8,"time_ms":1.0,"stages":[]}]}]"#;
        let out = diff(&a, b).unwrap();
        assert!(out.failed(), "{}", out.report);
        assert_eq!(out.compared, 0, "{}", out.report);
        assert!(out.report.contains("only in baseline"), "{}", out.report);
        assert!(out.report.contains("compared nothing"), "{}", out.report);

        // A stage on one side only is reported, not failed.
        let c = doc(&[("degree", 10.0, 0)]);
        let a2 = doc(&[("degree", 10.0, 0), ("pack", 0.0, 0)]);
        let out = diff(&a2, &c).unwrap();
        assert!(!out.failed(), "{}", out.report);
        assert!(out.report.contains("only in baseline"), "{}", out.report);
    }

    #[test]
    fn parse_errors_are_reported_per_side() {
        assert!(diff("nope", "[]").unwrap_err().contains("baseline"));
        assert!(diff("[]", "nope").unwrap_err().contains("current"));
        let bad = r#"[{"samples":[]}]"#;
        assert!(diff(bad, "[]").unwrap_err().contains("`name`"));
    }
}
