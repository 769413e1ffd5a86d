//! Cross-view agreement: every serving view renders the same per-window
//! record. Random `record_query` streams with interleaved rotations are
//! summarized once per window ([`QuerySlabs::summarize`]); for every
//! `(window, kind, class)` cell, the count and p99 must then agree across
//! the Chrome-trace `query.win.*` events, the `/history` exposition's
//! `parcsr_query_hist_ns` samples, the `/metrics` exposition's
//! `parcsr_query_win_ns` samples and the `/stats` JSON windows of that
//! epoch — and with the recorded stream itself. Runs without the `enabled`
//! feature: `QuerySlabs` is a value type and the renderers are pure.

use std::collections::BTreeMap;

use parcsr_obs::expo;
use parcsr_obs::export::chrome_trace_with_counters;
use parcsr_obs::json::Json;
use parcsr_obs::metrics::MetricsSnapshot;
use parcsr_obs::serve::{DegreeClass, Exemplar, PhaseNanos, QueryKind, QuerySlabs, WindowSummary};
use proptest::prelude::*;

/// `(window, kind name, class name)`.
type CellKey = (u64, String, String);

/// `CellKey` → `(count, p99)`.
type CellView = BTreeMap<CellKey, (u64, u64)>;

/// One step of a stream: `None` rotates, `Some` records one query as
/// `(shard, kind index, class index, [queue, exec, reply])`.
type Step = Option<(usize, usize, usize, [u64; 3])>;

/// Random streams that rotate on about 1 step in 13.
fn arb_stream() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        (0u8..13, 0usize..4),
        (0usize..5, 0usize..3),
        (0u64..5_000, 0u64..2_000_000, 0u64..5_000),
    );
    prop::collection::vec(
        step.prop_map(|((roll, shard), (k, c), (queue, exec, reply))| {
            (roll > 0).then_some((shard, k, c, [queue, exec, reply]))
        }),
        1..300,
    )
}

/// Replays `stream` into fresh slabs, summarizing each completed window
/// once (plus the trailing partial window), and returns the summaries with
/// the per-cell counts the stream itself implies.
fn replay(stream: &[Step]) -> (Vec<WindowSummary>, BTreeMap<CellKey, u64>) {
    let slabs = QuerySlabs::new(3, 2);
    let mut summaries = Vec::new();
    let mut expected = BTreeMap::new();
    let rotate = |summaries: &mut Vec<WindowSummary>| {
        let completed = slabs.rotate();
        summaries.push(WindowSummary {
            start_ns: completed * 1_000_000,
            end_ns: (completed + 1) * 1_000_000,
            ..slabs.summarize(completed)
        });
    };
    for step in stream {
        let Some((shard, k, c, [queue, exec, reply])) = *step else {
            rotate(&mut summaries);
            continue;
        };
        let (kind, class) = (QueryKind::ALL[k], DegreeClass::ALL[c]);
        let ns = PhaseNanos::from_checkpoints(0, queue, queue + exec, queue + exec + reply);
        slabs.record_query(
            shard,
            Exemplar {
                kind,
                class,
                source: shard as u64,
                ns,
            },
        );
        let key = (slabs.epoch(), kind.name().into(), class.name().into());
        *expected.entry(key).or_insert(0) += 1;
    }
    rotate(&mut summaries);
    (summaries, expected)
}

fn int(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_i64).expect("integer field") as u64
}

/// The trace view: `query.win.<kind>.<class>` counter events, plus the
/// counts of each cell's `query.phase.<phase>.<kind>.<class>` events.
fn trace_view(summaries: &[WindowSummary]) -> (CellView, BTreeMap<CellKey, Vec<u64>>) {
    let trace = chrome_trace_with_counters(&[], &MetricsSnapshot::default(), None, summaries);
    let mut view = CellView::new();
    let mut phases: BTreeMap<CellKey, Vec<u64>> = BTreeMap::new();
    for event in trace.as_array().unwrap() {
        let name = event.get("name").and_then(Json::as_str).unwrap();
        let args = event.get("args").unwrap();
        let key = |cell: &str| {
            let (kind, class) = cell.split_once('.')?;
            Some((int(args.get("window")), kind.into(), class.into()))
        };
        if let Some(key) = name.strip_prefix("query.win.").and_then(key) {
            let prev = view.insert(key, (int(args.get("count")), int(args.get("p99"))));
            assert!(prev.is_none(), "duplicate trace event {name}");
        } else if let Some(key) = name
            .strip_prefix("query.phase.")
            .and_then(|rest| key(rest.split_once('.')?.1))
        {
            phases.entry(key).or_default().push(int(args.get("count")));
        }
    }
    (view, phases)
}

/// An exposition view: `<family>_count` and `<family>{quantile="0.99"}`
/// samples keyed by their `kind`/`class` labels and the window (the
/// `window` label when present, else `default_window`).
fn expo_view(text: &str, family: &str, default_window: u64) -> CellView {
    let mut view = CellView::new();
    for s in expo::parse(text).unwrap().samples {
        let (Some(kind), Some(class)) = (s.label("kind"), s.label("class")) else {
            continue;
        };
        let window = s
            .label("window")
            .map_or(default_window, |w| w.parse().unwrap());
        let entry = view
            .entry((window, kind.into(), class.into()))
            .or_insert((0, 0));
        if s.name == format!("{family}_count") {
            entry.0 = s.value as u64;
        } else if s.name == family && s.label("quantile") == Some("0.99") {
            entry.1 = s.value as u64;
        }
    }
    view
}

/// The `/stats` JSON view of one snapshot.
fn stats_view(snap: &MetricsSnapshot) -> CellView {
    let doc = Json::parse(&expo::snapshot_json(snap).pretty()).unwrap();
    let mut view = CellView::new();
    for w in doc.get("windows").and_then(Json::as_array).unwrap() {
        let field = |key| w.get(key).and_then(Json::as_str).unwrap();
        let (kind, class) = (field("kind"), field("class"));
        assert_eq!(field("series"), format!("query.win.{kind}.{class}"));
        let latency = w.get("latency_ns").unwrap();
        view.insert(
            (int(w.get("window")), kind.into(), class.into()),
            (int(latency.get("count")), int(latency.get("p99"))),
        );
    }
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_view_renders_the_same_window_record(stream in arb_stream()) {
        let (summaries, expected) = replay(&stream);

        // The record itself: one cell per (window, kind, class) the stream
        // touched, with the stream's count.
        let mut record = CellView::new();
        for w in &summaries {
            for c in &w.cells {
                let key = (w.window, c.kind.name().into(), c.class.name().into());
                record.insert(key, (c.summary.count, c.summary.p99));
            }
        }
        let counts: BTreeMap<_, _> = record.iter().map(|(k, v)| (k.clone(), v.0)).collect();
        prop_assert_eq!(&counts, &expected);

        let (trace, phases) = trace_view(&summaries);
        prop_assert_eq!(&trace, &record, "trace query.win.* events");
        // Every cell's three phase events carry the cell's count.
        for (key, (count, _)) in &record {
            prop_assert_eq!(phases.get(key), Some(&vec![*count; 3]), "phases of {:?}", key);
        }

        let history = expo_view(&expo::render_history(&summaries), "parcsr_query_hist_ns", 0);
        prop_assert_eq!(&history, &record, "history parcsr_query_hist_ns samples");

        let (mut scrapes, mut stats) = (CellView::new(), CellView::new());
        for w in &summaries {
            let snap = MetricsSnapshot {
                window: w.window,
                windows: w.cells.clone(),
                ..MetricsSnapshot::default()
            };
            scrapes.extend(expo_view(&expo::render(&snap), "parcsr_query_win_ns", w.window));
            stats.extend(stats_view(&snap));
        }
        prop_assert_eq!(&scrapes, &record, "/metrics parcsr_query_win_ns samples");
        prop_assert_eq!(&stats, &record, "/stats windows");
    }
}
