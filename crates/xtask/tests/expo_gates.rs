//! Integration tests for the `expo-check` gate: a seeded accept/reject
//! fixture corpus in `tests/expo_fixtures/` pins the exposition shape the
//! CI scrape step consumes (mirroring the `check-trace` /
//! `serving_gates.rs` pattern), plus a producer/gate round-trip so the
//! renderer in `parcsr_obs::expo` can never drift out from under the
//! validator.

use std::path::PathBuf;

use xtask::expo_check::check_expo_text;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/expo_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn accept_scrape_passes_with_all_series() {
    let n = check_expo_text(&fixture("scrape_accept.txt")).expect("accept fixture is valid");
    // 4 scalar series + 6 histogram series + 3 window cells × 6 series.
    assert_eq!(n, 4 + 6 + 18);
}

#[test]
fn reject_fixtures_each_trip_their_rule() {
    for (name, expect) in [
        ("scrape_reject_dup_series.txt", "duplicate series"),
        ("scrape_reject_negative_counter.txt", "negative counter"),
        ("scrape_reject_no_eof.txt", "# EOF"),
        ("scrape_reject_bad_escape.txt", "escape"),
        ("scrape_reject_missing_help.txt", "no HELP"),
        ("scrape_reject_undeclared_series.txt", "TYPE declaration"),
    ] {
        let err = check_expo_text(&fixture(name)).expect_err(&format!("{name} must be rejected"));
        assert!(
            err.contains(expect),
            "{name}: expected error mentioning {expect:?}, got: {err}"
        );
    }
}

/// Producer/gate round-trip: whatever the live renderer emits for a
/// populated snapshot must pass the gate — if either side changes shape,
/// this is the test that breaks first.
#[test]
fn live_renderer_output_passes_the_gate() {
    use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot};
    use parcsr_obs::serve::{DegreeClass, QueryKind, WindowCell};

    let mut snap = MetricsSnapshot::default();
    snap.counters.push(("queries.total".to_string(), 99));
    snap.gauges.push(("query.win.epoch".to_string(), 3));
    let summary = HistogramSummary {
        count: 10,
        sum: 1000,
        max: 400,
        p50: 80,
        p95: 300,
        p99: 400,
    };
    snap.window = 2;
    for (kind, class) in [
        (QueryKind::Neighbors, DegreeClass::Low),
        (QueryKind::SplitSearch, DegreeClass::Hub),
    ] {
        snap.windows.push(WindowCell {
            kind,
            class,
            summary,
            phases: [summary; 3],
        });
    }
    let text = parcsr_obs::expo::render(&snap);
    let n = check_expo_text(&text).expect("rendered exposition is valid");
    assert_eq!(n, 1 + 1 + 1 + 12);
    assert!(
        text.contains("parcsr_query_win_ns{kind=\"split\",class=\"hub\",quantile=\"0.99\"} 400")
    );
}
