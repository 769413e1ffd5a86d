//! Golden renderer tests: one fixed two-window serving input rendered by
//! every view — the Chrome-trace counter events, the `/metrics` exposition,
//! the `/stats` JSON and the `/history` exposition — compared byte for byte
//! against committed expected output under `tests/golden/`. A change to any
//! renderer's bytes for the same recorded input fails here.

use parcsr_obs::expo;
use parcsr_obs::export::chrome_trace_with_counters;
use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot};
use parcsr_obs::serve::{DegreeClass, Exemplar, PhaseNanos, QueryKind, WindowCell, WindowSummary};

fn summary(count: u64, sum: u64, p50: u64, p95: u64, p99: u64, max: u64) -> HistogramSummary {
    HistogramSummary {
        count,
        sum,
        max,
        p50,
        p95,
        p99,
    }
}

fn exemplar(kind: QueryKind, class: DegreeClass, source: u64, [q, e, r]: [u64; 3]) -> Exemplar {
    let ns = PhaseNanos::from_checkpoints(0, q, q + e, q + e + r);
    Exemplar {
        kind,
        class,
        source,
        ns,
    }
}

/// Two windows, two cells each (one cell shared across the windows), every
/// cell with phases, tail exemplars in both windows, and a non-round qps in
/// the second window.
fn fixture() -> Vec<WindowSummary> {
    use DegreeClass::{Hub, Low, Mid};
    use QueryKind::{EdgeScan, Neighbors, SplitSearch};
    vec![
        WindowSummary {
            window: 4,
            start_ns: 1_000_000_000,
            end_ns: 1_250_000_000,
            cells: vec![
                WindowCell {
                    kind: Neighbors,
                    class: Low,
                    summary: summary(300, 900_000, 2_500, 4_800, 6_100, 9_000),
                    phases: [
                        summary(300, 150_000, 400, 900, 1_200, 2_000),
                        summary(300, 720_000, 2_000, 3_900, 4_800, 7_000),
                        summary(300, 30_000, 90, 180, 200, 400),
                    ],
                },
                WindowCell {
                    kind: SplitSearch,
                    class: Hub,
                    summary: summary(20, 1_600_000, 70_000, 110_000, 150_000, 151_000),
                    phases: [
                        summary(20, 40_000, 1_500, 3_000, 3_500, 3_600),
                        summary(20, 1_550_000, 68_000, 106_000, 146_000, 147_000),
                        summary(20, 10_000, 400, 700, 800, 900),
                    ],
                },
            ],
            exemplars: vec![
                exemplar(SplitSearch, Hub, 17, [3_600, 147_000, 400]),
                exemplar(Neighbors, Low, 90_210, [2_000, 7_000, 0]),
            ],
        },
        WindowSummary {
            window: 5,
            start_ns: 1_250_000_000,
            end_ns: 1_580_000_000,
            cells: vec![
                WindowCell {
                    kind: Neighbors,
                    class: Low,
                    summary: summary(500, 1_400_000, 2_400, 4_700, 5_900, 12_000),
                    phases: [
                        summary(500, 240_000, 380, 850, 1_100, 3_000),
                        summary(500, 1_120_000, 1_950, 3_800, 4_600, 9_000),
                        summary(500, 40_000, 70, 160, 190, 300),
                    ],
                },
                WindowCell {
                    kind: EdgeScan,
                    class: Mid,
                    summary: summary(40, 600_000, 14_000, 22_000, 30_000, 31_000),
                    phases: [
                        summary(40, 50_000, 1_100, 2_200, 2_700, 2_900),
                        summary(40, 540_000, 12_500, 19_500, 27_000, 28_000),
                        summary(40, 10_000, 200, 400, 500, 600),
                    ],
                },
            ],
            exemplars: vec![exemplar(EdgeScan, Mid, 4_242, [2_900, 28_000, 100])],
        },
    ]
}

/// The registry half of a scrape: a counter, the two window gauges and one
/// histogram, with the last window's cells as the serving grid.
fn metrics_snapshot(wins: &[WindowSummary]) -> MetricsSnapshot {
    let shown = wins[wins.len() - 1].clone();
    let mut snap = MetricsSnapshot::default();
    snap.counters.push(("pool.installs".to_string(), 12));
    snap.gauges
        .push(("query.win.epoch".to_string(), shown.window as i64 + 1));
    snap.gauges
        .push(("query.win.duration_ns".to_string(), shown.dur_ns() as i64));
    snap.histograms.push((
        "query.has_edge_ns".to_string(),
        summary(64, 12_800, 190, 260, 300, 310),
    ));
    snap.window = shown.window;
    snap.windows = shown.cells;
    snap
}

fn trace_text(wins: &[WindowSummary]) -> String {
    chrome_trace_with_counters(&[], &metrics_snapshot(wins), None, wins).pretty()
}

#[test]
fn chrome_trace_counter_events_are_golden() {
    assert_eq!(
        trace_text(&fixture()),
        include_str!("golden/trace.json").trim_end_matches('\n')
    );
}

#[test]
fn metrics_exposition_is_golden() {
    assert_eq!(
        expo::render(&metrics_snapshot(&fixture())),
        include_str!("golden/metrics.txt")
    );
}

#[test]
fn stats_json_is_golden() {
    assert_eq!(
        expo::snapshot_json(&metrics_snapshot(&fixture())).pretty(),
        include_str!("golden/stats.json").trim_end_matches('\n')
    );
}

#[test]
fn history_exposition_is_golden() {
    assert_eq!(
        expo::render_history(&fixture()),
        include_str!("golden/history.txt")
    );
}
